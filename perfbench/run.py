"""tstructkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (quiver-census, star-oracle, symbolic-verify; see
workloads.py and README.md) as a closed loop of passes: one caller, no
threads, each pass a fresh single-threaded interpreter running set-up and
then every op once.  The inputs depend on the seed alone, so every pass
repeats the same ops.  Passes repeat, one after another, while the next is
expected to finish within S seconds (at least two untraced passes).

--trace 0 prints the median set-up time over passes and peak resident
memory, the metrics of BENCHMARK.json, and from each op's median latency
over passes the solve time (their sum), the median op and a tail
percentile, which are printed but not gated.  --trace 1
alternates an untraced and a traced pass and prints the per-layer metrics of
the traced passes, with the tracing overhead.  Every op's answer is checked
against a known result.  Human-readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_PASSES = 2       # untraced passes per run, whatever --seconds says
HARD_LIMIT_S = 170   # a run must end within 180 s
TAIL_BEYOND = 10     # ops beyond the tail percentile


class PassFailed(Exception):
    pass


def run_pass(workload, seed, index, traced, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if traced else "0"]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {index} did not finish before the run's time limit")
    if proc.returncode != 0:
        raise PassFailed(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args, traced):
    """Untraced passes, or (untraced, traced) pairs."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    plain, traced_passes = [], []
    while True:
        t0 = time.monotonic()
        index = len(plain)
        plain.append(run_pass(args.workload, args.seed, index, False, deadline))
        if traced:
            traced_passes.append(run_pass(args.workload, args.seed, index, True, deadline))
        took = time.monotonic() - t0
        elapsed = time.monotonic() - start
        enough = traced or len(plain) >= MIN_PASSES
        if (enough and elapsed + took > args.seconds) or elapsed + took > HARD_LIMIT_S:
            if not enough:
                raise PassFailed("too slow for the minimum number of passes")
            return plain, traced_passes


def tail_percentile(ops_per_pass):
    """The highest whole percentile with TAIL_BEYOND ops beyond it, counting
    the ops of MIN_PASSES passes where a pass holds under 4 * TAIL_BEYOND
    ops.  It depends on the workload alone, not on the number of passes."""
    n = ops_per_pass if ops_per_pass >= 4 * TAIL_BEYOND else MIN_PASSES * ops_per_pass
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(plain):
    """The metrics of BENCHMARK.json, and a note with the timings of the ops.

    Every pass runs the same ops, so each op's latency is taken as its
    median over the passes; a burst of load on the machine then moves one
    sample of an op, not the figure.  solve_s (the sum of the per-op
    medians), op_p50_ms and op_tail_ms are printed but kept out of the
    JSON, so nothing gates on them.  On a shared 2-core host the speed of
    the machine itself drifts over minutes: identical passes took from 4.0
    to 7.6 s, and over ten seeds the quartiles of these figures lay up to 49%
    of their median apart, beyond the largest bound (25%) a gated metric
    may have.  Compare them in alternating pairs of runs instead."""
    per_op = [statistics.median(lat) for lat in zip(*(p["latency_s"] for p in plain))]
    pct = tail_percentile(len(per_op))
    tail = nearest_rank(per_op, pct)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in plain), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in plain), "MB"),
    }
    beyond = sum(1 for x in per_op if x > tail)
    note = (f"solve_s {sum(per_op):.6g} s (not in the JSON)\n"
            f"op_p50_ms {statistics.median(per_op) * 1000:.6g} ms (not in the JSON)\n"
            f"op_tail_ms {tail * 1000:.6g} ms (not in the JSON): p{pct} of {len(per_op)} ops, "
            f"{beyond} ops beyond it")
    return metrics, note


def per_layer(plain, traced, wl):
    first = traced[0]["layers"]
    metrics = {}
    for name, (value, unit) in first.items():
        if unit != "count":  # times and shares: median over traced passes
            value = statistics.median(p["layers"][name][0] for p in traced)
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["solve_s"] for p in traced)
        / statistics.median(p["solve_s"] for p in plain), "ratio")
    leaks = [f"{layer}.calls = {first[layer + '.calls'][0]}" for layer in wl.ABSENT
             if first[layer + ".calls"][0] != 0]
    note = "layer isolation: " + ("ok, zero calls into " + ", ".join(wl.ABSENT)
                                  if not leaks else "VIOLATED: " + ", ".join(leaks))
    return metrics, note, not leaks


def provenance(plain):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tstructkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return (f"nproc={os.cpu_count()} python={plain[0]['python']} numpy={plain[0]['numpy']} "
            f"commit={commit} src_sha256={digest.hexdigest()[:16]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tstructkit" / "__init__.py").is_file():
        print(f"no tstructkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    try:
        plain, traced = run_passes(args, bool(args.trace))
    except PassFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    runs = plain + traced
    attempted = sum(len(p["ok"]) for p in runs)
    failed = sum(not ok for p in runs for ok in p["ok"])
    correct = failed == 0
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(plain)}+{len(traced)} traced")
    print("provenance: " + provenance(plain))
    if args.trace:
        metrics, note, isolated = per_layer(plain, traced, wl)
        correct = correct and isolated
    else:
        metrics, note = end_to_end(plain)
    print(note)
    print("per-pass solve_s: " + " ".join(f"{p['solve_s']:.3f}" for p in runs))
    print(f"ops attempted={attempted} failed={failed} fail_ratio={failed / attempted:g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
