#!/usr/bin/env python3
"""Diff a fresh BENCH_throughput.json against the committed baseline.

Every field the bench writes is deterministic on fixed seeds: the quality
triples (edge_cut, imbalance, assignment_hash, and for edge partitioners
replication_factor, edge_balance, edge_assignment_hash) and the backends'
final-stats counters (Loom's match-pool, matcher, eviction and cluster
counts; the edge partitioners' raw counts). There are no timings, so every
record is compared whole, key by key: a changed, missing or extra field
fails the diff. Speed is measured by bench/e2e, from repeated runs.

Sections are checked bidirectionally: a section present in one file but
missing from the other is a FAILURE with an actionable message, never a
silent skip — so adding a new bench section cannot mask drift in an
existing one, and a baseline predating a section tells you to re-golden.

Usage: diff_bench.py BASELINE.json NEW.json
"""

import argparse
import json
import sys

# Every section this script knows how to index. A section name appearing
# in a bench file but NOT listed here is also a failure: it means the
# bench grew a section this guard doesn't cover yet.
KNOWN_SECTIONS = (
    "datasets",
    "loom_paper_window",
    "file_stream",
    "edge_partitioners",
)

# Top-level scalar keys that are part of the run config, not sections.
CONFIG_KEYS = ("bench", "scale", "window", "k", "order")


def section_names(doc):
    return {k for k, v in doc.items()
            if k not in CONFIG_KEYS and isinstance(v, (dict, list))}


def index_section(doc, name, out):
    """Indexes one section's records as (dataset, system) -> record."""
    if name == "datasets":
        for d in doc.get("datasets", []):
            for s in d.get("systems", []):
                out[(d["dataset"], s["system"])] = s
    elif name == "loom_paper_window":
        for d in doc["loom_paper_window"].get("datasets", []):
            out[(d["dataset"], "loom@t10k")] = d["loom"]
    elif name == "file_stream":
        for d in doc["file_stream"].get("datasets", []):
            out[(d["dataset"], "loom@file")] = d
    elif name == "edge_partitioners":
        for d in doc["edge_partitioners"].get("datasets", []):
            for s in d.get("systems", []):
                out[(d["dataset"], f"edge:{s['system']}")] = s


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("new")
    args = ap.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    failures = []

    # Section accounting first: every section must exist on both sides and
    # be one this script covers. Actionable, never a KeyError or a skip.
    base_sections = section_names(base)
    new_sections = section_names(new)
    for name in sorted(base_sections - new_sections):
        failures.append(
            f"section '{name}' is in the baseline but missing from the new "
            f"results — the bench no longer emits it (or emitted under a "
            f"different name)")
    for name in sorted(new_sections - base_sections):
        failures.append(
            f"section '{name}' is in the new results but missing from the "
            f"baseline — re-golden the baseline (tools/run_bench.sh) if this "
            f"bench section is newly added")
    for name in sorted((base_sections | new_sections) - set(KNOWN_SECTIONS)):
        failures.append(
            f"section '{name}' is not covered by diff_bench.py — add it to "
            f"KNOWN_SECTIONS and index_section so it is compared")

    base_idx, new_idx = {}, {}
    for name in KNOWN_SECTIONS:
        if name in base_sections:
            index_section(base, name, base_idx)
        if name in new_sections:
            index_section(new, name, new_idx)

    print(f"{'dataset':<18} {'system':<28}  record")
    for key in sorted(base_idx):
        if key not in new_idx:
            failures.append(f"{key}: missing from new results")
            continue
        b, n = base_idx[key], new_idx[key]
        same = b == n
        for field in sorted(set(b) | set(n)):
            if b.get(field, "<absent>") != n.get(field, "<absent>"):
                failures.append(
                    f"{key}: {field} changed {b.get(field, '<absent>')} -> "
                    f"{n.get(field, '<absent>')}")
        print(f"{key[0]:<18} {key[1]:<28}  {'ok' if same else 'CHANGED'}")
    for key in sorted(set(new_idx) - set(base_idx)):
        failures.append(
            f"{key}: in the new results but not the baseline — re-golden if "
            f"this system/dataset cell is newly added")
    # Whatever lies outside the records (run config, section settings,
    # dataset edge counts) must match too.
    if not failures and base != new:
        failures.append("the files differ outside the per-cell records: run "
                        "config, section settings or dataset edge counts")

    if failures:
        for f_ in failures:
            print(f"FAIL: {f_}", file=sys.stderr)
        print("\nbench golden drifted — a perf change must not alter "
              "assignments or counters on fixed seeds", file=sys.stderr)
        return 1
    print("\nevery record identical to baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
