#!/usr/bin/env python3
"""A/B the end-to-end benchmark: a base revision against the working tree.

Usage (from the repository root):

  python3 tools/ab.py --base HEAD~1                      # every workload
  python3 tools/ab.py --base main --pairs 10 --workload mb-bfs --seconds 20
  python3 tools/ab.py --self-test                         # verdict logic only

The base revision is exported with `git archive` into a scratch directory
(--workdir, default a fresh temporary directory), so the repository gains
no worktree entries and an interrupted run leaves nothing to clean up in
it. Each tree builds its own `build-bench-e2e/` the first time
`bench/e2e/run.py` runs in it.

Each pair runs `bench/e2e/run.py --workload W --seed S --seconds T` three
times, seed 101 for the first pair, 102 for the next, and so on: on the
base (A), on the working tree (B) and on the base again (A2). The order of
the three rotates from pair to pair. For every end-to-end metric of
BENCHMARK.json the script prints the per-pair ratios B/A, the ratio of the
medians, the base's IQR (as a share of its median), how many pairs B won
and a verdict:

  unresolved    the base's IQR exceeds the metric's bound: too noisy to tell
  loss          the median of B is worse than the median of A by more than
                the bound
  win           B won in at least 9 of 10 pairs and its median is better by
                more than the base's IQR
  inside noise  anything else

The A2 runs give the same table for base against base (A/A). A win or a
loss that the A/A reaches too is flagged: the host's noise alone produces
it. The exit code is 0 when every run passed its checks and no A/B verdict
is a loss or unresolved, 1 otherwise. Everything is also written to
<workdir>/ab.json.
"""

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 101
WIN_SHARE = 0.9  # share of pairs B must win for a win verdict


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- verdict

def iqr_share(values):
    """(Q3 - Q1) / median, the spread run.py's A/A reports."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def worse_by(better, a, b):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0 if b == a else math.inf
    delta = (b - a) / abs(a)
    return -delta if better == "higher" else delta


def compare(metric, base, change):
    """Per-metric summary of paired runs: `base` and `change` are lists of
    values, one per pair, in pair order."""
    better, bound = metric["better"], metric["bound"]
    ratios = [c / b if b else math.nan for b, c in zip(base, change)]
    wins = sum(1 for b, c in zip(base, change) if worse_by(better, b, c) < 0)
    med_a, med_b = statistics.median(base), statistics.median(change)
    iqr = iqr_share(base)
    worse = worse_by(better, med_a, med_b)
    if iqr > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "loss"
    elif wins >= WIN_SHARE * len(base) and -worse > iqr:
        verdict = "win"
    else:
        verdict = "inside noise"
    return {"metric": metric["name"], "ratios": ratios,
            "median_ratio": med_b / med_a if med_a else math.nan,
            "base_iqr": iqr, "wins": wins, "pairs": len(base),
            "worse_by": worse, "bound": bound, "verdict": verdict}


def flag_with_aa(ab, aa):
    """True when the A/A reaches the same win or loss as the A/B."""
    return ab["verdict"] in ("win", "loss") and aa["verdict"] == ab["verdict"]


# ------------------------------------------------------------------- runs

def export_base(rev, workdir):
    """Extracts `rev` with git archive into <workdir>/base; returns it."""
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                          f"{rev}^{{commit}}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    tree = workdir / "base"
    if tree.exists():
        shutil.rmtree(tree)
    tree.mkdir(parents=True)
    archive = workdir / "base.tar"
    with open(archive, "wb") as out:
        subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True,
                       stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(tree)
    archive.unlink()
    return tree, sha


def run_bench(tree, workload, seed, seconds, log_path):
    """One run.py invocation in `tree`; returns its result line."""
    cmd = [sys.executable, str(tree / "bench" / "e2e" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    with open(log_path, "a") as err:
        err.write(f"\n$ {' '.join(cmd)}  (in {tree})\n")
        err.flush()
        proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                              stderr=err, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError(f"run.py in {tree} exited {proc.returncode} "
                           f"without a result line; see {log_path}")
    return json.loads(lines[-1])


def report(workload, metrics, values):
    """Prints the A/B and A/A tables of one workload; returns its rows."""
    rows = []
    pairs = max((len(v) for v in values["A"].values()), default=0)
    log(f"\n== {workload}: {pairs} pairs")
    log(f"{'metric':<15} {'median B/A':>10} {'base IQR':>9} {'wins':>6} "
        f"{'bound':>6}  {'verdict':<13} {'A/A':<13} per-pair B/A")
    for m in metrics:
        name = m["name"]
        if not all(name in values[leg] for leg in ("A", "B", "A2")):
            continue
        ab = compare(m, values["A"][name], values["B"][name])
        aa = compare(m, values["A"][name], values["A2"][name])
        flagged = flag_with_aa(ab, aa)
        verdict = ab["verdict"] + (" (A/A too)" if flagged else "")
        log(f"{name:<15} {ab['median_ratio']:>10.3f} {ab['base_iqr']:>9.1%} "
            f"{ab['wins']:>3}/{ab['pairs']:<2} {ab['bound']:>6.0%}  "
            f"{verdict:<13} {aa['verdict']:<13} "
            + " ".join(f"{r:.3f}" for r in ab["ratios"]))
        rows.append({"workload": workload, "ab": ab, "aa": aa,
                     "flagged_by_aa": flagged,
                     "values": {leg: values[leg][name]
                                for leg in ("A", "B", "A2")}})
    return rows


def run_ab(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="loom-ab-"))
    workdir.mkdir(parents=True, exist_ok=True)
    log_path = workdir / "runs.log"
    base, sha = export_base(args.base, workdir)
    log(f"A = {args.base} ({sha[:12]}) in {base}; B = working tree {ROOT}; "
        f"A2 = A again. Run output goes to {log_path}")
    trees = {"A": base, "B": ROOT, "A2": base}
    legs = ["A", "B", "A2"]
    values = {w: {leg: {} for leg in legs} for w in workloads}
    runs, failed_runs = [], 0
    for i in range(args.pairs):
        seed = FIRST_SEED + i
        order = legs[i % 3:] + legs[:i % 3]
        for w in workloads:
            for leg in order:
                log(f"pair {i + 1}/{args.pairs} {w} seed {seed}: {leg}")
                line = run_bench(trees[leg], w, seed, args.seconds, log_path)
                ok = bool(line.get("correct")) and not line.get("failed")
                failed_runs += 0 if ok else 1
                if not ok:
                    log(f"  checks failed: attempted {line.get('attempted')}, "
                        f"failed {line.get('failed')}")
                runs.append({"pair": i, "seed": seed, "workload": w,
                             "leg": leg, "line": line})
                for name, m in line.get("metrics", {}).items():
                    values[w][leg].setdefault(name, []).append(m["value"])
    rows = []
    for w in workloads:
        rows += report(w, metrics, values[w])
    bad = [r for r in rows if r["ab"]["verdict"] in ("loss", "unresolved")]
    with open(workdir / "ab.json", "w") as f:
        json.dump({"base": args.base, "base_sha": sha, "pairs": args.pairs,
                   "seconds": args.seconds, "first_seed": FIRST_SEED,
                   "rows": rows, "runs": runs, "failed_runs": failed_runs},
                  f, indent=1)
    log(f"\n{failed_runs} of {len(runs)} runs failed their checks; "
        f"{len(bad)} A/B verdicts are a loss or unresolved; "
        f"results in {workdir / 'ab.json'}")
    return 0 if failed_runs == 0 and not bad else 1


# -------------------------------------------------------------- self-test

def self_test():
    """Checks the verdict logic on canned numbers; builds and runs nothing."""
    eps = {"name": "ingest_eps", "better": "higher", "bound": 0.25}
    p50 = {"name": "ingest_p50_us", "better": "lower", "bound": 0.25}
    rss = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}
    base = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    # Peak RSS barely moves between runs of one build: a base spread near 0.
    rss_base = [103.2, 103.4, 103.1, 103.3, 103.2, 103.5, 103.2, 103.3,
                103.1, 103.4]
    cases = [
        # (metric, base, change, expected verdict)
        (eps, base, [b * 1.20 for b in base], "win"),
        (eps, base, [b * 0.70 for b in base], "loss"),
        (eps, base, [b * 1.01 for b in base], "inside noise"),
        (eps, base, base, "inside noise"),
        # 9 of 10 pairs faster still wins; 8 of 10 does not.
        (eps, base, [b * (0.99 if i == 0 else 1.2) for i, b in enumerate(base)],
         "win"),
        (eps, base, [b * (0.99 if i < 2 else 1.2) for i, b in enumerate(base)],
         "inside noise"),
        # Lower is better: a 20% drop in latency is a win, a rise a loss.
        (p50, base, [b * 0.80 for b in base], "win"),
        (p50, base, [b * 1.30 for b in base], "loss"),
        # A lower-is-better memory metric with a tight bound: a 30% drop is
        # a win, a 6% rise crosses the 5% bound, a 1% rise stays inside it.
        (rss, rss_base, [b * 0.70 for b in rss_base], "win"),
        (rss, rss_base, [b * 1.06 for b in rss_base], "loss"),
        (rss, rss_base, [b * 1.01 for b in rss_base], "inside noise"),
        # A base spread wider than the bound cannot tell anything.
        (eps, [60, 140, 70, 130, 100, 65, 135, 100, 70, 140],
         [100] * 10, "unresolved"),
        # A gain smaller than the base IQR is noise even when every pair won.
        (eps, [90, 110, 92, 108, 95, 105, 91, 109, 100, 100],
         [b * 1.05 for b in [90, 110, 92, 108, 95, 105, 91, 109, 100, 100]],
         "inside noise"),
    ]
    failures = 0
    for n, (metric, a, b, want) in enumerate(cases):
        got = compare(metric, a, b)["verdict"]
        if got != want:
            failures += 1
            log(f"self-test case {n}: {metric['name']} expected {want}, "
                f"got {got}")
    # The A/A flag: a loss the A/A shares is flagged, one it lacks is not,
    # and inside-noise verdicts are never flagged.
    loss = compare(eps, base, [b * 0.7 for b in base])
    flag_cases = [
        (loss, compare(eps, base, [b * 0.7 for b in base]), True),
        (loss, compare(eps, base, base), False),
        (compare(eps, base, base), compare(eps, base, base), False),
    ]
    for n, (ab, aa, want) in enumerate(flag_cases):
        if flag_with_aa(ab, aa) != want:
            failures += 1
            log(f"self-test flag case {n}: expected {want}")
    # Ratios are B/A per pair, in pair order.
    summary = compare(eps, [100, 200], [150, 100])
    if summary["ratios"] != [1.5, 0.5] or summary["wins"] != 1:
        failures += 1
        log(f"self-test ratios: got {summary['ratios']}, {summary['wins']}")
    total = len(cases) + len(flag_cases) + 1
    log(f"self-test: {total - failures} of {total} cases passed")
    return 0 if failures == 0 else 1


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", help="git revision to compare against")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--workload", help="one workload (default: all)")
    p.add_argument("--seconds", type=float, default=20,
                   help="run.py measurement time per run")
    p.add_argument("--workdir", help="scratch directory for the base tree, "
                   "the run log and ab.json (default: a new temporary one)")
    p.add_argument("--self-test", action="store_true",
                   help="check the verdict logic on canned numbers and exit")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.base:
        p.error("--base is required")
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return run_ab(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
