#!/usr/bin/env python3
"""End-to-end benchmark of loom: ingest, quality and serve, plus a trace.

Usage (from the repository root):

  python3 bench/e2e/run.py                       # all three workloads
  python3 bench/e2e/run.py --workload mb-bfs --seed 7 --seconds 20
  python3 bench/e2e/run.py --workload serve-dblp --trace 1
  python3 bench/e2e/run.py --aa 5                # A/A noise check
  python3 bench/e2e/run.py --smoke               # tiny, every check on

Builds Release into build-bench-e2e/ (bench/e2e/CMakeLists.txt), runs each
workload in its own processes, checks every output, prints each metric
with its unit and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the end-to-end metrics of BENCHMARK.json; --trace 1
runs report its per-layer metrics. Results (raw tool output, host record,
seed) are written under build-bench-e2e/results/. See bench/e2e/README.md.
"""

import argparse
import array
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent.parent
BUILD = ROOT / "build-bench-e2e"
WORKLOADS = ["mb-bfs", "lubm-rand-file", "serve-dblp"]
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20

# Served load: open-loop INGEST rate; phase A's share of --seconds; how
# many times loom_serve starts (set-up time is their median) and how many
# of those starts serve an identical pass over the stream.
SERVE_RATE = 50000
SERVE_PHASE_A = 0.2
SERVE_STARTS = 5
SERVE_PASSES = 3
# The per-layer serve probe that traced offline runs add (phase A only).
PROBE_SECONDS = 2.0
# Smoke mode: input scale per workload and the served rate.
SMOKE_SCALE = {"mb-bfs": 0.05, "lubm-rand-file": 0.02, "serve-dblp": 0.05}
SMOKE_RATE = 20000

TOOLS = ["e2e_offline", "e2e_loadgen", "loom_serve"]
TRACE_TOOLS = ["e2e_trace"]


class BenchError(Exception):
    """A failure that stops the run before a result can be reported."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


# ------------------------------------------------------------------ build

def build(targets):
    """Configures (once) and builds `targets` in Release; returns paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no loom sources at {ROOT} (CMakeLists.txt, src/)")
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "build.log"
    with open(build_log, "a") as out:
        if not (BUILD / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed, see {build_log}")
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            raise BenchError(f"build of {' '.join(targets)} failed, see {build_log}")
    paths = {}
    for t in targets:
        found = [p for p in (BUILD / t, BUILD / "loom" / t) if p.is_file()]
        if not found:
            raise BenchError(f"built target {t} not found under {BUILD}")
        paths[t] = found[0]
    return paths


# -------------------------------------------------------------- processes

def run_tool(cmd, cwd, timeout, json_path):
    """Runs one benchmark binary; returns its JSON result (or raises)."""
    with open(Path(cwd) / "tools.log", "a") as err:
        try:
            proc = subprocess.run([str(c) for c in cmd], cwd=cwd, stdout=err,
                                  stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{Path(cmd[0]).name} timed out after {timeout}s")
    try:
        with open(json_path) as f:
            result = json.load(f)
    except (OSError, ValueError):
        raise BenchError(f"{Path(cmd[0]).name} exited {proc.returncode} "
                         f"without a result; see {Path(cwd) / 'tools.log'}")
    result["exit_code"] = proc.returncode
    return result


def stop(proc, timeout=20):
    """Asks a child to stop (SIGTERM), then kills it; always reaps it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def start_server(loom_serve, tmp, name):
    """Starts loom_serve on <tmp>/<name>.sock; returns (proc, seconds from
    exec until the socket is bound). Paths are relative to `tmp` so the
    socket path stays short however deep the checkout is."""
    sock = Path(tmp) / f"{name}.sock"
    cmd = [str(loom_serve), "--socket", f"{name}.sock",
           "--workload", "workload.lw", "--like", "stream.les",
           "--k", "8", "--window", "10000", "--checkpoint", f"{name}.loomck"]
    err = open(Path(tmp) / f"{name}.log", "w")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tmp, stdout=err, stderr=err)
    err.close()
    while not sock.exists():
        if proc.poll() is not None:
            raise BenchError(f"loom_serve exited {proc.returncode} at start; "
                             f"see {Path(tmp) / (name + '.log')}")
        if time.perf_counter() - t0 > 60:
            stop(proc)
            raise BenchError("loom_serve did not bind its socket in 60s")
        time.sleep(0.0002)
    return proc, time.perf_counter() - t0


def serve_session(tools, tmp, seed, phase_a, phase_b, rate, starts, passes):
    """Starts loom_serve `starts` times; set-up time is the median from exec
    to bound socket. The first `passes` starts each serve one pass of the
    stream (the first also times a CHECKPOINT); the rest stop at once. The
    passes are identical, and interference on a shared host only ever makes
    a pass slower, so throughput is the best pass's and ack latency is
    taken line by line at each line's best over the passes. Every server is
    stopped and reaped before returning."""
    setup, runs, procs = [], [], []
    best_ack = None
    try:
        for i in range(starts):
            proc, seconds = start_server(tools["loom_serve"], tmp, f"serve{i}")
            procs.append(proc)
            setup.append(seconds)
            if i >= passes:
                stop(proc)
                continue
            out = Path(tmp) / f"loadgen{i}.json"
            acks = Path(tmp) / f"acks{i}.bin"
            result = run_tool(
                [tools["e2e_loadgen"], "--socket", f"serve{i}.sock",
                 "--stream", "stream.les", "--rate", rate,
                 "--phase-a", phase_a, "--phase-b", 1 if phase_b else 0,
                 "--checkpoint", 1 if i == 0 else 0,
                 "--server-pid", proc.pid, "--seed", seed, "--json", out.name,
                 "--acks", acks.name],
                tmp, 120, out)
            try:
                proc.wait(timeout=30)  # the loadgen sent SHUTDOWN
            except subprocess.TimeoutExpired:
                pass
            result["server_exit_code"] = proc.poll()
            runs.append(result)
            ack = array.array("d", acks.read_bytes())
            best_ack = ack if best_ack is None else array.array(
                "d", map(min, best_ack, ack))
    finally:
        for proc in procs:
            stop(proc)
    merged = dict(runs[0])
    merged["serve_eps"] = max(r["serve_eps"] for r in runs)
    ranked = sorted(best_ack)
    for key, q in (("ingest_ack_p50_us", 0.50), ("ingest_ack_p90_us", 0.90)):
        merged[key] = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    merged["attempted"] = sum(r["attempted"] for r in runs)
    merged["failed"] = sum(r["failed"] for r in runs)
    merged["checks"] = [dict(c, name=f"pass{i}.{c['name']}")
                        for i, r in enumerate(runs) for c in r["checks"]]
    merged["exit_code"] = max(r["exit_code"] for r in runs)
    merged["passes"] = runs
    merged["setup_s"] = statistics.median(setup)
    merged["setup_samples_s"] = setup
    return merged


# -------------------------------------------------------------- workloads

def run_workload(tools, workload, seed, seconds, trace, smoke, tmp):
    """One benchmark run of `workload`; returns a result dict with
    `metrics` (name -> value), `checks`, `attempted`, `failed`, `raw`."""
    scale = SMOKE_SCALE[workload] if smoke else 1.0
    rate = SMOKE_RATE if smoke else SERVE_RATE
    starts = 2 if smoke else SERVE_STARTS
    passes = 1 if smoke else SERVE_PASSES
    serve_phase_a = 0.1 if smoke else SERVE_PHASE_A * seconds
    checks, raw, metrics = [], {}, {}
    attempted = failed = 0

    def absorb(name, result):
        nonlocal attempted, failed
        raw[name] = result
        own = result.get("checks", [])
        checks.extend(dict(c, name=f"{name}.{c['name']}") for c in own)
        if result.get("exit_code", 0) != 0 and all(c["ok"] for c in own):
            checks.append({"name": f"{name}.exit", "ok": False,
                           "detail": f"exit code {result['exit_code']}"})
        attempted += int(result.get("attempted", 0))
        failed += int(result.get("failed", 0))

    def check_served(served, ref):
        """Each full served pass must end with the offline partitioning."""
        for i, p in enumerate(served["passes"]):
            try:
                imbalance = float(p["quality_imbalance"])
            except ValueError:
                imbalance = math.nan
            same = (p["quality_hash"] == ref["hash"] and
                    p["quality_cut"] == str(ref["edge_cut"]) and
                    abs(1 + imbalance - ref["max_part_load"]) < 2e-6)
            checks.append({"name": f"serve.pass{i}.matches_offline",
                           "ok": same, "detail":
                           f"served hash {p['quality_hash']} cut "
                           f"{p['quality_cut']} imbalance {imbalance}; "
                           f"offline {ref['hash']} cut {ref['edge_cut']}"})

    common = ["--seed", seed, "--scale", scale, "--tmp", "."]
    if not trace:
        if workload == "serve-dblp":
            ref = run_tool([tools["e2e_offline"], "--workload", workload,
                            *common, "--json", "offline.json"],
                           tmp, 170, Path(tmp) / "offline.json")
            absorb("reference", ref)
            served = serve_session(tools, tmp, seed, serve_phase_a, True, rate,
                                   starts, passes)
            absorb("serve", served)
            check_served(served, ref)
            metrics = {
                "ingest_eps": served["serve_eps"],
                "ingest_p50_us": served["ingest_ack_p50_us"],
                "ingest_p90_us": served["ingest_ack_p90_us"],
                "ipt_ratio": ref["ipt_ratio"],
                "edge_cut_ratio": ref["edge_cut_ratio"],
                "max_part_load": ref["max_part_load"],
                "setup_s": served["setup_s"],
                "peak_rss_mb": served["server_hwm_mb"],
            }
        else:
            res = run_tool([tools["e2e_offline"], "--workload", workload,
                            *common, "--seconds", 1 if smoke else seconds,
                            "--json", "offline.json"],
                           tmp, 170, Path(tmp) / "offline.json")
            absorb("offline", res)
            metrics = {k: res[k] for k in (
                "ingest_eps", "ingest_p50_us", "ingest_p90_us", "ipt_ratio",
                "edge_cut_ratio", "max_part_load", "setup_s", "peak_rss_mb")}
    else:
        trace_seconds = 1 if smoke else 0.5 * seconds
        tr = run_tool([tools["e2e_trace"], "--workload", workload, *common,
                       "--seconds", trace_seconds, "--json", "trace.json"],
                      tmp, 170, Path(tmp) / "trace.json")
        absorb("trace", tr)
        metrics.update(tr["metrics"])
        full = workload == "serve-dblp"
        phase_a = serve_phase_a if full else (0.1 if smoke else PROBE_SECONDS)
        served = serve_session(tools, tmp, seed, phase_a, full, rate, starts, 1)
        absorb("serve", served)
        if full:
            check_served(served, tr)
        for key in ("queue_depth_p99", "parse_ns", "checkpoint_ms",
                    "gen_lag_p99_us", "get_hit_ratio", "get_p50_us",
                    "get_p99_us"):
            metrics[f"serve.{key}"] = served[key]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "smoke": smoke, "metrics": metrics,
            "checks": checks, "attempted": attempted, "failed": failed,
            "host": next((r["host"] for r in raw.values() if "host" in r), {}),
            "raw": raw}


def run_one(tools, workload, seed, seconds, trace, smoke):
    tmp = BUILD / "run" / f"{workload}-{os.getpid()}-{time.time_ns()}"
    tmp.mkdir(parents=True)
    try:
        return run_workload(tools, workload, seed, seconds, trace, smoke, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def contract_metrics(spec, result, trace):
    """The BENCHMARK.json metric set for one run: name -> {value, unit}."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out, missing = {}, []
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            missing.append(m["name"])
            continue
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out, missing


def print_table(workload, metrics):
    log(f"\n== {workload}")
    width = max((len(n) for n in metrics), default=0)
    for name, m in metrics.items():
        log(f"  {name:<{width}}  {m['value']:>16.6g} {m['unit']}")


def write_results(name, payload):
    out_dir = BUILD / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w") as f:
        json.dump(payload, f, indent=1)
    return path


def measure(tools, spec, workload, seed, seconds, trace, smoke):
    """Runs one workload and reduces it to the contract's result line."""
    result = run_one(tools, workload, seed, seconds, trace, smoke)
    metrics, missing = contract_metrics(spec, result, trace)
    for name in missing:
        result["checks"].append({"name": f"metric.{name}", "ok": False,
                                 "detail": "not measured"})
    bad = [c for c in result["checks"] if not c["ok"]]
    for c in bad:
        log(f"CHECK FAILED {workload}: {c['name']}: {c['detail']}")
    line = {"correct": not bad, "attempted": max(1, result["attempted"]),
            "failed": result["failed"] + len(bad), "metrics": metrics}
    result["result_line"] = line
    suffix = ("-smoke" if smoke else "") + ("-trace" if trace else "")
    path = write_results(f"{workload}-seed{seed}{suffix}.json", result)
    print_table(workload, metrics)
    log(f"  checks: {len(result['checks']) - len(bad)} passed, {len(bad)} "
        f"failed; results in {path}")
    return line


# --------------------------------------------------------------------- A/A

def quartile_spread(values):
    """(Q3 - Q1) / median, as the acceptance rule computes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf


def worse_by(metric, a, b):
    """How much worse median b is than median a, as a share of a."""
    if a == 0:
        return 0.0 if b == a else math.inf
    delta = (b - a) / abs(a)
    return -delta if metric["better"] == "higher" else delta


def run_aa(tools, spec, workloads, pairs, seed, seconds):
    """N interleaved pairs of the same build: per (workload, metric) each
    set's median and quartile spread, and whether the sets agree within the
    bounds of BENCHMARK.json."""
    values = {}  # (workload, label, metric) -> [values]
    for i in range(pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for label in order:
            for w in workloads:
                log(f"A/A pair {i + 1}/{pairs} set {label}: {w} seed {seed + i}")
                line = measure(tools, spec, w, seed + i, seconds, False, False)
                if not line["correct"]:
                    raise BenchError(f"A/A run of {w} failed its checks")
                for name, m in line["metrics"].items():
                    values.setdefault((w, label, name), []).append(m["value"])
    report, ok = [], True
    log(f"\nA/A: {pairs} interleaved pairs, seeds {seed}..{seed + pairs - 1}")
    log(f"{'workload':<15} {'metric':<15} {'median A':>12} {'median B':>12} "
        f"{'spread A':>9} {'spread B':>9} {'B worse':>8} {'bound':>6}")
    for w in workloads:
        for m in spec["end_to_end"]:
            a = values[(w, "A", m["name"])]
            b = values[(w, "B", m["name"])]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = quartile_spread(a), quartile_spread(b)
            worse = worse_by(m, ma, mb)
            row_ok = worse <= m["bound"] and (
                m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
            ok &= row_ok
            report.append({"workload": w, "metric": m["name"],
                           "median_a": ma, "median_b": mb, "spread_a": sa,
                           "spread_b": sb, "b_worse_by": worse,
                           "bound": m["bound"], "ok": row_ok, "a": a, "b": b})
            log(f"{w:<15} {m['name']:<15} {ma:>12.6g} {mb:>12.6g} {sa:>9.2%} "
                f"{sb:>9.2%} {worse:>8.2%} {m['bound']:>6.0%}"
                f"{'' if row_ok else '  <-- outside bound'}")
    path = write_results("aa.json", {"pairs": pairs, "seed": seed,
                                     "seconds": seconds, "rows": report})
    log(f"A/A {'agrees' if ok else 'DISAGREES'} within the bounds; {path}")
    return ok


# -------------------------------------------------------------------- main

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all three)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="measurement time per run")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=[0, 1], help="report per-layer metrics")
    p.add_argument("--aa", type=int, metavar="N",
                   help="N interleaved A/A pairs of this build")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, every check on")
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every `finally` stops and reaps
    # the processes this run started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        spec = load_spec()
        workloads = [args.workload] if args.workload else WORKLOADS
        tools = build(TOOLS + (TRACE_TOOLS if args.trace or args.smoke else []))
        if args.aa:
            return 0 if run_aa(tools, spec, workloads, args.aa, args.seed,
                               args.seconds) else 1
        passes = [bool(args.trace)]
        if args.smoke:
            passes = [False, True]
        lines = {}
        for trace in passes:
            for w in workloads:
                key = f"{w}{'.trace' if trace else ''}"
                lines[key] = measure(tools, spec, w, args.seed, args.seconds,
                                     trace, args.smoke)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    if len(lines) == 1:
        line = next(iter(lines.values()))
    else:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{k}.{n}": m for k, l in lines.items()
                            for n, m in l["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
