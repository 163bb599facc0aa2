#!/usr/bin/env python3
"""Diff a fresh BENCH_throughput.json against the committed baseline.

Partition-quality fields (edge_cut, imbalance, assignment_hash, and for
edge partitioners replication_factor, edge_balance, edge_assignment_hash)
are deterministic on fixed seeds and must match EXACTLY — a mismatch means
a "perf" change altered partitioning behaviour and the script exits
non-zero. Timing fields (ms, eps) are not compared: bench/e2e is where
speed is measured, from repeated interleaved runs.

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

# Timing-only sections: present in the files, deliberately not diffed.
IGNORED_SECTIONS = ("window_ops",)

# Deterministic quality fields, exact-compared when present in EITHER
# record (so a field disappearing is drift too).
QUALITY_FIELDS = (
    "edge_cut",
    "imbalance",
    "assignment_hash",
    "replication_factor",
    "edge_balance",
    "edge_assignment_hash",
)

# Top-level scalar keys that are part of the run config, not sections.
CONFIG_KEYS = ("bench", "scale", "window", "k", "order")


def section_names(doc):
    return {k for k, v in doc.items()
            if k not in CONFIG_KEYS and isinstance(v, (dict, list))}


def index_section(doc, name, out):
    """Indexes one section's records as (section:dataset, system) -> record."""
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
    base_sections = section_names(base) - set(IGNORED_SECTIONS)
    new_sections = section_names(new) - set(IGNORED_SECTIONS)
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
            f"KNOWN_SECTIONS and index_section so its quality is guarded")

    base_idx, new_idx = {}, {}
    for name in KNOWN_SECTIONS:
        if name in base_sections:
            index_section(base, name, base_idx)
        if name in new_sections:
            index_section(new, name, new_idx)

    print(f"{'dataset':<14} {'system':<16}  quality")
    for key in sorted(base_idx):
        if key not in new_idx:
            failures.append(f"{key}: missing from new results")
            continue
        b, n = base_idx[key], new_idx[key]
        quality_ok = True
        for field in QUALITY_FIELDS:
            if field not in b and field not in n:
                continue
            if b.get(field) != n.get(field):
                quality_ok = False
                failures.append(
                    f"{key}: {field} changed {b.get(field)} -> {n.get(field)}")
        print(f"{key[0]:<14} {key[1]:<16}  "
              f"{'ok' if quality_ok else 'CHANGED'}")
    for key in sorted(set(new_idx) - set(base_idx)):
        failures.append(
            f"{key}: in the new results but not the baseline — re-golden if "
            f"this system/dataset cell is newly added")

    if failures:
        for f_ in failures:
            print(f"FAIL: {f_}", file=sys.stderr)
        print("\npartition quality drifted — a perf change must not alter "
              "assignments on fixed seeds", file=sys.stderr)
        return 1
    print("\npartition quality identical to baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
