"""sigmaring benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: sweep-q, sweep-fp, sweep-exact, kernels (see workloads.py and
README.md).  Every pass runs in a fresh interpreter started by this
process, one at a time.  With --trace 0 the run starts timed passes,
each after PROBES_PER_PASS set-up-only processes, until the next pass
would end after --seconds, and reports the end-to-end metrics.  With
--trace 1 it runs one untraced pass and one traced pass and reports the
per-layer metrics.  Outputs of every pass are checked after all passes
end.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import checks
from tracer import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep-q", "sweep-fp", "sweep-exact", "kernels")
PROBES_PER_PASS = 4
RUN_LIMIT_S = 170  # a run must end within 180 s
END_TO_END_UNITS = {
    "wall_s": "s", "op_p50_ms": "ms", "op_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


class PassFailed(Exception):
    pass


def spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Start one child, wait for it, and return its result with setup_s."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{mode} pass timed out")
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_medians(passes: list[dict]) -> list[float]:
    """Each op's median latency over the passes of the run.  Kernel cases
    fall into two clusters of five; a median of pooled samples would sit
    between the slowest of one and the fastest of the other."""
    per_op = itertools.zip_longest(*(p["op_s"] for p in passes))
    return [statistics.median(s for s in op if s is not None) for op in per_op]


def check_outputs(workload: str, seed: int, passes: list[dict], reference: dict) -> list[str]:
    if workload == "kernels":
        oracle = checks.KernelOracle(seed, reference)
        return [msg for p in passes for msg in oracle.failures(p["outputs"])]
    return [
        msg for p in passes
        for msg in checks.sweep_failures(workload, seed, p["outputs"], reference)
    ]


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reference = checks.load_reference()
    per_pass = checks.op_count(workload, reference)
    passes, lost = [], []

    def timed_pass(mode):
        try:
            passes.append(spawn(mode, workload, seed, deadline))
        except PassFailed as e:
            lost.append(str(e))

    metrics = {}
    if trace:
        timed_pass("pass")
        timed_pass("trace")
        if len(passes) != 2 or "layers" not in passes[1]:
            print("; ".join(lost), file=sys.stderr)
            return 1
        plain, traced = passes
        metrics.update(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    else:
        # Set-up probes go before every pass, so that their median samples
        # the machine's speed over the whole run, as the passes do.
        setups = []
        budget_end = time.monotonic() + seconds
        while True:
            t0 = time.monotonic()
            setups += [spawn("setup", workload, seed, deadline)["setup_s"]
                       for _ in range(PROBES_PER_PASS)]
            timed_pass("pass")
            end_of_next = 2 * time.monotonic() - t0
            if end_of_next > budget_end or end_of_next > deadline:
                break
        if not passes:
            print("; ".join(lost), file=sys.stderr)
            return 1
        ops = op_medians(passes)
        metrics["wall_s"] = statistics.median(p["wall_s"] for p in passes)
        metrics["op_p50_ms"] = statistics.median(ops) * 1e3
        metrics["op_p99_ms"] = percentile(ops, 99) * 1e3
        metrics["setup_s"] = statistics.median(setups + [p["setup_s"] for p in passes])
        metrics["peak_rss_mb"] = statistics.median(p["rss_mb"] for p in passes)

    bad = check_outputs(workload, seed, passes, reference)
    attempted = per_pass * (len(passes) + len(lost))
    failed = min(attempted, len(bad) + per_pass * len(lost))
    for msg in (lost + bad)[:20]:
        print("FAILED", msg)
    print(
        f"{workload} seed={seed} passes={len(passes)} ops={attempted} failed={failed} "
        f"fail_ratio={failed / attempted:.6g}"
    )
    if not trace:
        print("pass wall_s:", " ".join(f"{p['wall_s']:.4f}" for p in passes))
        print(f"op latency: {len(ops)} ops, each the median of {len(passes)} passes; "
              f"{len(ops) // 100} ops lie beyond p99")

    declared = declared_metrics(trace)
    units = {**metric_units(), **END_TO_END_UNITS}
    if set(metrics) != set(declared):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}",
              file=sys.stderr)
        return 3
    for name in declared:
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in declared},
    }))
    return 0


def declared_metrics(trace: bool) -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sigmaring", "__init__.py")):
        print(f"no sigmaring sources under {SRC}", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as e:  # a set-up probe failed: nothing can be measured
        print(e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
