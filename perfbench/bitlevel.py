"""The ``offline-bitlevel`` workload: a batch of bit-level FP32 GEMMs.

Each operation is ``mxu_sgemm(a, b, fused=False, workers=2)`` at 256^3
with fresh operands: the split -> multiply -> shift -> accumulate
datapath, column-sharded over the pool, with a split-cache miss and an
arena publish every time. No wire, no server, no value-level path.

This file is both halves of the workload. :func:`run` (imported by
``run.py``) launches this file as the harness program, which starts the
pool, announces ``READY`` and then runs the batch in its own process.
Operands for operation ``i`` come from ``default_rng([seed, i])`` and are
generated, like the checks, outside the operation's timed span; the
timed window is the sum of the operations' spans.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any

N = 256
WORKERS = 2
SETUPS = 9
#: Peak memory is read after this many operations of the untraced window, not
#: at its end: the program's split cache keeps every fresh operand's planes (up
#: to its 64-entry bound), so a reading at the end would grow with however many
#: operations the host managed to run.
RSS_OPS = 8
SAMPLE = 2  # rows and columns of each result recomputed by the scalar engine
RESULT = "RESULT "


# ----------------------------------------------------------------------
# Orchestrator side
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, root: Path,
        work: Path) -> tuple[dict[str, Any], list[str]]:
    from hostenv import Program, cpu_times, steal_pct

    argv = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--work", str(work)]
    setups = []
    for i in range(SETUPS - 1):
        prog = Program(argv + ["--ready-only"], root, work / f"bitlevel-setup{i}.log")
        prog.ready("READY")
        setups.append(time.perf_counter() - prog.t_launch)
        prog.stop(sig=None, expect=(0,))
    steal0 = cpu_times()
    prog = Program(argv, root, work / "bitlevel-main.log")
    try:
        prog.ready("READY")
        setups.append(time.perf_counter() - prog.t_launch)
        prog.note_tree()
        line = prog.ready(RESULT, timeout=170.0)
    finally:
        prog.stop(sig=None, expect=(0,))
    steal = steal_pct(steal0, cpu_times())
    out = json.loads(line[len(RESULT):])
    lines = [f"offline-bitlevel: seed={seed} operations={out['attempted']} "
             f"failed={out['failed']} cpu_steal={steal:.2f}%"] + out["lines"]
    metrics = out["metrics"] if trace else {"setup_s": statistics.median(setups)} | out["metrics"]
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}, lines


# ----------------------------------------------------------------------
# Harness side (this file run as a program)
# ----------------------------------------------------------------------
def _operands(seed: int, i: int) -> tuple[Any, Any, Any, Any]:
    import numpy as np

    rng = np.random.default_rng([seed, i])
    a, b = rng.standard_normal((N, N)), rng.standard_normal((N, N))
    rows = rng.choice(N, SAMPLE, replace=False)
    cols = rng.choice(N, SAMPLE, replace=False)
    return a, b, rows, cols


def _shard_task(payload: tuple) -> float:
    """One column block's chain, as a pool task runs it; returns its ms."""
    from repro.mxu.vectorized import chained_vector_fp32

    fields, b_block, k_chunk = payload
    t0 = time.perf_counter()
    chained_vector_fp32(None, b_block, 0.0, k_chunk=k_chunk, a_fields=fields)
    return (time.perf_counter() - t0) * 1e3


def _window(seed: int, start: int, seconds: float, tracer: Any) -> dict[str, Any]:
    """Runs operations from index *start* until their spans add up to
    *seconds*; checks each result right after its span."""
    from contextlib import nullcontext

    import checks
    from repro.gemm.tiled import mxu_sgemm

    span = tracer.span if tracer is not None else (lambda *a, **k: nullcontext())
    lat, ok, i, rss = [], True, start, None
    while sum(lat) < seconds * 1e3:
        a, b, rows, cols = _operands(seed, i)
        with span("op", i):
            t0 = time.perf_counter()
            with span("gemm.tiled.mxu_sgemm"):
                got = mxu_sgemm(a, b, fused=False, workers=WORKERS)
            lat.append((time.perf_counter() - t0) * 1e3)
        ok = ok and checks.gemm_expect(a, b).accepts(got)
        ok = ok and checks.scalar_slice_matches(a, b, got, rows, cols)
        i += 1
        if len(lat) == RSS_OPS:
            rss = _tree_rss_mb()
    return {"lat": lat, "ok": ok, "next": i,
            "rss": rss if rss is not None else _tree_rss_mb(),
            "ops_per_s": len(lat) / (sum(lat) / 1e3)}


def _tree_rss_mb() -> float:
    from hostenv import descendants, peak_rss_mb

    return peak_rss_mb([os.getpid()] + descendants(os.getpid()))


def _layers(seed: int, index: int, tracer: Any) -> dict[str, float]:
    """Times the bit-level layers' public functions on one operation's
    operands, in this process and on the pool."""
    from repro import parallel
    from repro.gemm.tiled import mxu_sgemm
    from repro.mxu.config import M3XU_CONFIG
    from repro.mxu.modes import MXUMode
    from repro.mxu.parallel_bitlevel import resolve_bitlevel_chunk
    from repro.mxu.vectorized import chained_vector_fp32, fp32_lane_fields, \
        product_slot_count, split_fp32_fields
    from repro.types.formats import FP32
    from repro.types.quantize import quantize

    a, b, _, _ = _operands(seed, index)
    aq, bq = quantize(a, FP32), quantize(b, FP32)
    k_chunk = M3XU_CONFIG.tile(MXUMode.FP32).k
    blk = resolve_bitlevel_chunk()
    fields = fp32_lane_fields(aq)
    with tracer.span("layers", index):
        for _ in range(3):
            with tracer.span("mxu.vectorized.split_fp32_fields"):
                split_fp32_fields(aq)
            with tracer.span("mxu.vectorized.chained_vector_fp32"):
                chained_vector_fp32(None, bq[:, :blk], 0.0, k_chunk=k_chunk, a_fields=fields)
        tasks = [(fields, bq[:, j:j + blk], k_chunk) for j in range(0, N, blk)]
        with tracer.span("parallel.shards"):
            shards = parallel.parallel_map(_shard_task, tasks, workers=WORKERS)
        with tracer.span("mxu.parallel_bitlevel.serial"):
            mxu_sgemm(a, b, fused=False, workers=1)
    lanes = N * N * product_slot_count(MXUMode.FP32, N)
    return {
        "mxu.vectorized.split_ms": tracer.median_ms("mxu.vectorized.split_fp32_fields"),
        "mxu.vectorized.chain_ms": tracer.median_ms("mxu.vectorized.chained_vector_fp32"),
        "mxu.parallel_bitlevel.shard_max_ms": max(shards),
        "mxu.parallel_bitlevel.shard_min_ms": min(shards),
        "mxu.parallel_bitlevel.serial_ms": tracer.median_ms("mxu.parallel_bitlevel.serial"),
        # Computed from the kernel's layout: every lane product is one
        # float32 significand plus one int16 LSB exponent in the slot buffers.
        "mxu.vectorized.lane_products": float(lanes),
        "mxu.vectorized.slot_bytes": float(lanes * (4 + 2)),
    }


def harness(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--ready-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy as np

    from repro import parallel
    from repro.gemm.tiled import mxu_sgemm
    from repro.mxu.split_cache import DEFAULT_SPLIT_CACHE

    # First ready result: a small sharded GEMM, which starts both workers.
    mxu_sgemm(np.ones((8, 32)), np.ones((32, 2 * 64)), fused=False, workers=WORKERS)
    print("READY", flush=True)
    if args.ready_only:
        parallel.shutdown()
        return 0

    import checks
    from spans import Tracer

    checks.self_test()
    # A traced run splits its time between an untraced and a traced window.
    window_s = args.seconds / 2 if args.trace else args.seconds
    arena0, cache0 = parallel.arena_info(), DEFAULT_SPLIT_CACHE.info()
    untraced = _window(args.seed, 0, window_s, None)
    arena1, cache1 = parallel.arena_info(), DEFAULT_SPLIT_CACHE.info()
    lat = untraced["lat"]
    result: dict[str, Any] = {
        "attempted": len(lat), "failed": 0, "correct": untraced["ok"], "lines": [],
    }
    if not args.trace:
        result["metrics"] = {
            "ops_per_s": untraced["ops_per_s"],
            "p50_ms": statistics.median(lat),
            "p90_ms": float(np.percentile(lat, 90)),
            "peak_rss_mb": untraced["rss"],
        }
    else:
        tracer = Tracer()
        traced = _window(args.seed, untraced["next"], window_s, tracer)
        result["attempted"] += len(traced["lat"])
        result["correct"] = result["correct"] and traced["ok"]
        overhead = 100.0 * (untraced["ops_per_s"] - traced["ops_per_s"]) / untraced["ops_per_s"]
        metrics = _layers(args.seed, traced["next"], tracer)
        metrics |= {
            "mxu.split_cache.hits": float(cache1["hits"] - cache0["hits"]),
            "mxu.split_cache.misses": float(cache1["misses"] - cache0["misses"]),
            "parallel.arena_publishes": float(arena1["publishes"] - arena0["publishes"]),
            "parallel.arena_reuses": float(arena1["reuses"] - arena0["reuses"]),
            "parallel.pool_respawns": float(max(parallel.pool_info()["spawns"] - 1, 0)),
            "trace.overhead_pct": overhead,
        }
        tracer.write_jsonl(args.work / f"spans-offline-bitlevel-{args.seed}.jsonl")
        result["metrics"] = metrics
        result["lines"] = [
            f"offline-bitlevel: traced window ops_per_s={traced['ops_per_s']:.4f} vs "
            f"untraced {untraced['ops_per_s']:.4f} (tracing overhead {overhead:.2f}%); "
            "every operation checked against the scalar engine on a sampled slice",
            tracer.table(),
        ]
    parallel.shutdown()
    print(RESULT + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(harness(sys.argv[1:]))
