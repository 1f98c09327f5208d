"""ciprop benchmark: time to verdict, op latency and memory, per workload.

Run from the root of a checkout:

    python3 bench/run.py --workload example1_fine --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --smoke        # every workload at tiny sizes

It is a closed loop with one client: each op starts when the previous one
has returned, in one process, with no threads.  Each run starts fresh
worker processes (``worker.py``) with ``PYTHONPATH`` set to the
checkout's ``src`` and the BLAS thread pools pinned to one thread:

- ``SETUP_PROBES`` processes that only set up, for ``setup_s``;
- one process that runs the workload, untraced with ``--trace 0``, or
  alternating untraced and traced iterations with ``--trace 1``.

Times are reported scaled to a reference host (``hostspeed.py``): each is
divided by the slowdown of a fixed kernel timed right after it.  The raw
times are printed on a line of their own.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every worker finished, even when
some op failed its check (then ``correct`` is false).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("example1_fine", "sliced_supports", "cli_example1")
SETUP_PROBES = 5
# every worker of one run must have finished this long after the start
RUN_DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"_s": "s", "_mb": "MB", "_frac": "1", "_bytes": "B", "_cell": "1"}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


class WorkerFailed(Exception):
    pass


def worker(
    workload: str, seed: int, seconds: float, mode: str, smoke: bool, deadline: float
) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in THREAD_VARS})
    argv = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    if smoke:
        argv.append("--smoke")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} {mode} worker timed out") from exc
    if proc.returncode != 0:
        raise WorkerFailed(
            f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[89]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Returns (summary lines, contract result)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        raw = worker(workload, seed, seconds, "trace", smoke, deadline)
        setups = []
    else:
        setups = [
            worker(workload, seed, seconds, "setup", smoke, deadline)
            for _ in range(SETUP_PROBES)
        ]
        raw = worker(workload, seed, seconds, "run", smoke, deadline)
        setups.append(raw)
    env = raw["env"]
    lines = [
        f"workload {workload}: seed={seed} seconds={seconds} trace={int(trace)} "
        f"nproc={env['nproc']} cpu={env['cpu']!r} python={env['python']} "
        f"numpy={env['numpy']}",
    ]
    # times are scaled to the reference host (hostspeed.py); raw ones are printed too
    raw_walls = [w for w, _ in raw["walls"]]
    walls = [w for _, w in raw["walls"]]
    latencies = raw["scaled_ms"]
    if trace:
        layers = raw["layers"]
        traced_walls = [w for _, w in raw["traced_walls"]]
        traced_raw_mean = statistics.fmean(w for w, _ in raw["traced_walls"])
        traced_wall = statistics.median(traced_walls)
        bench_s = layers.pop("_bench_op_s") + layers.pop("_cost_s")
        layer_sum = layers.pop("_layers_s")
        metrics = dict(layers)
        metrics["bench.self_s"] = bench_s
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_frac"] = traced_wall / statistics.median(walls) - 1.0
        metrics["trace.accounted_frac"] = (layer_sum + bench_s) / traced_raw_mean
        samples = {name: len(traced_walls) for name in metrics}
        lines.append(
            f"  traced iterations={len(traced_walls)} untraced={len(walls)}; "
            f"layers {layer_sum:.4f} s + benchmark {bench_s:.4f} s per iteration "
            f"against a raw traced wall of {traced_raw_mean:.4f} s (mean); "
            f"layer times are raw, trace.wall_s is scaled"
        )
    else:
        metrics = {
            "setup_s": statistics.median(p["setup_scaled_s"] for p in setups),
            "wall_s": statistics.median(walls),
            "op_ms_p50": statistics.median(latencies),
            "op_ms_p90": p90(latencies),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        samples = {
            "setup_s": len(setups),
            "wall_s": len(walls),
            "op_ms_p50": len(latencies),
            "op_ms_p90": len(latencies),
            "peak_rss_mb": 1,
        }
        beyond = sum(1 for v in latencies if v > metrics["op_ms_p90"])
        raw_latencies = raw["latencies_ms"]
        lines.append(
            f"  iterations={len(walls)} ops={len(latencies)} ops beyond p90={beyond} "
            f"setups={len(setups)}"
        )
        lines.append(
            f"  raw (unscaled): setup_s={statistics.median(p['setup_s'] for p in setups):.6g} "
            f"wall_s={statistics.median(raw_walls):.6g} "
            f"op_ms_p50={statistics.median(raw_latencies):.6g} "
            f"op_ms_p90={p90(raw_latencies):.6g}"
        )
    fail_ratio = raw["failed"] / raw["attempted"]
    lines.append(f"  {'fail_ratio':32s} {fail_ratio:14.6g} 1  (ops={raw['attempted']})")
    for name, value in metrics.items():
        unit = END_TO_END.get(name) or unit_of(name)
        lines.append(f"  {name:32s} {value:14.6g} {unit}  (n={samples[name]})")
    lines.extend(f"  FAILED {problem}" for problem in raw["problems"])
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            name: {"value": value, "unit": END_TO_END.get(name) or unit_of(name)}
            for name, value in metrics.items()
        },
    }
    return lines, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload at tiny sizes, untraced and traced",
    )
    args = parser.parse_args()
    if not (ROOT / "src" / "ciprop" / "__init__.py").is_file():
        print(f"no ciprop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            return smoke(args.seed)
        lines, result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), False
        )
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def smoke(seed: int) -> int:
    """Every workload at tiny sizes, untraced and traced, one second each."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            lines, result = run_workload(workload, seed, 1.0, trace, True)
            print("\n".join(lines))
            ok = ok and result["correct"]
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
