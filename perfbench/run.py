"""foltl benchmark: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload monitor_backlog --seed 42 --seconds 30 --trace 0

Run from the root of a foltl checkout; foltl is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the
run reports the end-to-end metrics, measured over repeated passes for
about ``--seconds``; with ``--trace 1`` it runs one untraced and one
traced pass and reports per-layer metrics.  The exit status is 0 when
every verdict matched its reference, 1 when one did not, and 2 when the
checkout holds no foltl sources.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fewest passes in a timed run: per-operation latency is the median over
# passes, which needs three to discard one disturbed pass.
MIN_PASSES = 3
SETUP_REPEATS = 7

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
# Printed but left out of the result line: the slowest single operation
# repeats too loosely between runs on monitor_backlog to carry a bound.
REPORTED_ONLY_UNITS = {"op_max_ms": "ms"}

# Time in a fresh interpreter to import foltl and, given a formula,
# parse, normalize and compile it.
_SETUP = """\
import sys, time
started = time.perf_counter()
import foltl
if len(sys.argv) > 1:
    foltl.build_automaton(foltl.to_nnf(foltl.parse(sys.argv[1])))
print(time.perf_counter() - started)
"""


def setup_seconds(formula: str | None) -> float:
    """Median of several fresh set-ups, after one that writes bytecode caches."""
    argv = [sys.executable, "-c", _SETUP] + ([formula] if formula else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples[1:])


def nearest_rank(ordered: list[float], share: float) -> float:
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def timed_run(workload, seconds: float) -> tuple[dict[str, float], int, int, int]:
    """End-to-end metrics, attempted, failed, passes."""
    setup = setup_seconds(workload.setup_formula)
    gc.collect()
    gc.freeze()
    passes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    per_op = sorted(statistics.median(samples) for samples in zip(*(p.latencies for p in passes)))
    if not per_op:  # every pass failed before its first timed operation
        per_op = [0.0]
    child_rss = [p.child_rss_mb for p in passes if p.child_rss_mb is not None]
    peak_rss = (
        statistics.median(child_rss)
        if child_rss
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    metrics = {
        "setup_s": setup,
        "ops_per_s": statistics.median(workload.ops_per_pass / p.seconds for p in passes),
        "op_p50_ms": nearest_rank(per_op, 0.50) * 1e3,
        "op_p99_ms": nearest_rank(per_op, 0.99) * 1e3,
        "op_max_ms": per_op[-1] * 1e3,
        "peak_rss_mb": peak_rss,
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return metrics, attempted, failed, len(passes)


def traced_run(workload) -> tuple[dict[str, float], int, int, int]:
    """Per-layer metrics from one traced pass, against one untraced pass."""
    from spans import Tracer, installed, layer_metrics

    gc.collect()
    gc.freeze()
    plain = workload.trace_pass()
    gc.collect()
    tracer = Tracer()
    with installed(tracer):
        traced = workload.trace_pass(tracer)
    metrics = layer_metrics(tracer)
    metrics["trace.slowdown"] = traced.seconds / plain.seconds
    tracer.write(WORK / f"spans-{workload.name}.tsv")
    return metrics, plain.attempted + traced.attempted, plain.failed + traced.failed, 2


def main(argv: list[str] | None = None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "foltl" / "__init__.py").is_file():
        print(f"error: no foltl sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    from spans import LAYER_UNITS

    if Path(workloads.SRC) != SRC:
        print(f"error: foltl was imported from {workloads.SRC}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, sizes or workloads.Sizes(), scratch
        )
        if args.trace:
            metrics, attempted, failed, passes = traced_run(workload)
            units, extra = LAYER_UNITS, {}
        else:
            metrics, attempted, failed, passes = timed_run(workload, args.seconds)
            units, extra = E2E_UNITS, REPORTED_ONLY_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={passes} ops/pass={workload.ops_per_pass}")
    for name, unit in {**units, **extra}.items():
        print(f"{name:34} {metrics[name]:>14.6g} {unit}")
    print(f"{'fail_rate':34} {failed / attempted:>14.6g} ratio ({failed} failed / {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
