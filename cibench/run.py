"""Benchmark for cicensus: one command, four workloads.

    python3 cibench/run.py --workload census-prime --seed 1 --seconds 24 --trace 0
    python3 cibench/run.py --workload all --seed 1 --seconds 24 --trace 0

Run from anywhere; paths resolve against this file.  Each workload runs
in its own fresh interpreter (workloads run one after another) with one
BLAS/OpenMP thread, a fixed PYTHONHASHSEED, no bytecode written, and the
program's census calls made with jobs=1.  Set-up time is the median of
twelve fresh interpreters that import numpy and cicensus and finish one
decision, half started before the workload and half after it.  The last
line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer ones with --trace 1.
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

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("census-prime", "census-ext", "certify-large", "oracle")
# Set-up probes before and after the workload: the host's speed drifts
# during a run, so both ends of it are sampled.
SETUP_STARTS = 6
PROBE = ("import numpy, cicensus; cicensus.certify("
         "cicensus.sample_system(3, 2, (2, 1), 101, 0), 'stci')")
TIME_LIMIT = 170  # seconds for one workload, set-up included


def steady_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    env.pop("CICENSUS_OUTDIR", None)
    return env


def fail(msg: str):
    print(f"cibench: {msg}", file=sys.stderr)
    sys.exit(1)


def measure_setup(env) -> list:
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
    return times


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    env = steady_env()
    setup_times = measure_setup(env)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - time.time(), 1))
    except subprocess.TimeoutExpired:
        fail(f"{name}: worker exceeded the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{name}: worker exited with {proc.returncode}:\n{proc.stderr}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    setup_s = statistics.median(setup_times + measure_setup(env))
    for msg in raw["unexpected"]:
        print(f"{name}: FAILED {msg}")
    rounds = raw["round_s"]
    wall_s = statistics.median(rounds)
    print(f"{name}: seed {seed}, {len(rounds)} rounds, "
          f"{raw['attempted']} operations, {raw['failed']} failed, "
          f"round median {wall_s:.3f} s (min {min(rounds):.3f}, max "
          f"{max(rounds):.3f}), set-up {setup_s:.3f} s, "
          f"peak RSS {raw['peak_rss_mb']:.1f} MB")
    print(f"{name}: median time per call: " + ", ".join(
        f"{op} {statistics.median(t):.4f} s" for op, t in raw["op_s"].items()))
    if trace:
        metrics = {key: {"value": raw["layers"][key], "unit": unit}
                   for key, unit in PER_LAYER}
        print(f"{name}: spans of the last traced round in {raw['trace_file']}")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not raw["unexpected"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cicensus" / "__init__.py").is_file():
        fail(f"no cicensus sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace, time.time() + TIME_LIMIT)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return
    for name, res in results.items():
        print(f"{name}: {json.dumps(res)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
