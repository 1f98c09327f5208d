"""One workload in one fresh process; prints its raw results as one JSON line.

Modes:

- ``setup``: import ``ciprop`` and build the seeded inputs, then report the
  time that took, raw and scaled to the reference host (``hostspeed``);
- ``run``: set up, run one untimed warm-up iteration, then time whole
  iterations until ``--seconds`` have passed and ``MIN_OPS`` ops ran;
- ``trace``: like ``run``, but alternate untraced and traced iterations,
  and reduce the traced spans to per-layer metrics.

The parent (``run.py``) sets ``PYTHONPATH`` to the checkout's ``src`` and
pins the BLAS thread pools to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# An untraced run goes on past --seconds (up to twice that) until it has
# timed this many ops, so that at least ten lie beyond the 90th percentile.
MIN_OPS = 100
# seconds for which host speed is probed right before and right after set-up
SETUP_PROBE_S = 0.05


def _environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import hostspeed

    before, _ = hostspeed.slowdown(SETUP_PROBE_S)
    started = perf_counter()
    import ciprop

    source = Path(ciprop.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"ciprop imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    setup_s = perf_counter() - started
    after, _ = hostspeed.slowdown(SETUP_PROBE_S)
    try:
        if args.mode == "setup":
            result = {}
        else:
            result = _measure(workload, args, workloads.Runner())
            result["env"] = _environment()
        result["setup_s"] = setup_s
        result["setup_scaled_s"] = setup_s / ((before + after) / 2)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def _measure(workload, args, runner) -> dict:
    runner.iterate(workload)  # warm-up, untimed
    # (raw, scaled) wall time of each iteration
    walls: list[tuple[float, float]] = []
    traced: list[tuple[float, float]] = []
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
    runner.timing = True
    started = perf_counter()
    while (
        perf_counter() - started < args.seconds
        or (tracer is None and len(runner.latencies_ms) < MIN_OPS
            and perf_counter() - started < 2 * args.seconds)
        or (tracer is not None and not traced)
    ):
        if tracer is not None and len(walls) > len(traced):
            tracer.iteration = len(traced)
            runner.tracer = tracer
            tracer.install()
            try:
                traced.append(runner.iterate(workload))
            finally:
                tracer.uninstall()
                runner.tracer = None
        else:
            walls.append(runner.iterate(workload))
    result = {
        "walls": walls,
        "latencies_ms": runner.latencies_ms,
        "scaled_ms": runner.scaled_ms,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        import ciprop.sem

        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        budget = getattr(ciprop.sem, "DEFAULT_MAX_ENUM", None)
        result["traced_walls"] = traced
        result["layers"] = tracing.layer_metrics(tracer.spans, len(traced), budget)
    return result


if __name__ == "__main__":
    sys.exit(main())
