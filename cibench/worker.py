"""Run one workload in this (fresh) interpreter and print its raw figures.

Started by run.py with a steady environment; prints one JSON line:
the timed length of every round, operations attempted and failed, the
failure messages other than the known fault's expected one, the peak
resident memory and, with --trace 1, the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

import cicensus
import tracing
import workloads


def warm_up():
    """One small decision, so imports and first-call costs are paid here."""
    cicensus.certify(cicensus.sample_system(3, 2, (2, 1), 101, 0), "stci")


def run_round(ops, op_times=None):
    """Timed calls, untimed checks; returns (seconds, attempted, failed, msgs).

    With ``op_times`` given, each call's duration is appended under its name.
    """
    busy = 0.0
    attempted = failed = 0
    unexpected = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.call()
            msgs = None
        except Exception:
            msgs = [f"{op.name}: {traceback.format_exc(limit=3)}"]
        dt = time.perf_counter() - t0
        busy += dt
        if op_times is not None:
            op_times.setdefault(op.name, []).append(dt)
        if msgs is None:
            msgs = op.check(out)
        attempted += 1
        failed += bool(msgs)
        unexpected.extend(m for m in msgs
                          if not isinstance(m, workloads.KnownFault))
    return busy, attempted, failed, unexpected


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, scratch)
        warm_up()
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, layers = [], [], []
        attempted = failed = 0
        unexpected = []
        spans = []
        op_times = {}
        # With tracing, untraced and traced rounds alternate, so that the
        # overhead is measured on the same machine state.
        while sum(plain) + sum(traced) < args.seconds or (tracer and not traced):
            use_trace = tracer is not None and len(plain) > len(traced)
            if use_trace:
                tracer.install()
            try:
                busy, a, f, msgs = run_round(
                    ops, None if use_trace else op_times)
            finally:
                if use_trace:
                    tracer.uninstall()
            attempted += a
            failed += f
            unexpected.extend(msgs)
            if use_trace:
                traced.append(busy)
                spans = tracer.take()
                layers.append(tracing.layer_totals(spans))
            else:
                plain.append(busy)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = {"round_s": plain, "attempted": attempted, "failed": failed,
              "unexpected": unexpected[:20], "op_s": op_times,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        per_layer = tracing.average_rounds(layers)
        per_layer["trace.overhead_pct"] = 100 * (
            statistics.median(traced) / statistics.median(plain) - 1)
        result["layers"] = per_layer
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracing.write_spans(spans, trace_path)
        result["trace_file"] = str(trace_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
