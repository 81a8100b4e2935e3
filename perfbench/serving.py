"""The serving workload, driven through the repo's client API.

``serve-fixed-weights``: a closed loop over one connection. Every request
is a ``gemm`` of one fixed 256x256 A with a fresh 256x8 B, the fixed
weights x streaming activations pattern. The JSON array codec dominates
it; the operand split cache hits on A every time and the result cache
never does.

It starts ``repro serve`` at its defaults on an ephemeral port. Inputs
are generated from the seed before the timed window. A request's
latency runs from when the previous one came back to its decoded result
in hand. Results are checked after the window.
"""

from __future__ import annotations

import asyncio
import csv
import json
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import checks
from hostenv import HOST, BenchError, Program, cpu_times, launch_server, peak_rss_mb, \
    shm_segments, steal_pct
from spans import Tracer

from repro import parallel
from repro.gemm.batched import batched_mxu_sgemm
from repro.gemm.plan import GemmPlan
from repro.mxu.config import M3XU_CONFIG
from repro.mxu.modes import MXUMode
from repro.mxu.split_cache import split_cache_probe
from repro.serve import AsyncConnection, ServeClient
from repro.serve.server import decode_array, encode_array
from repro.types.formats import FP32
from repro.types.quantize import quantize

N, P = 256, 8
#: Inputs generated per second of window: ten times the ~6 requests/s this
#: workload reaches on a 2-core host. A program fast enough to use them all
#: ends its window early.
MAX_RPS = 60
SETUPS = 9
REPLAY_OPS = 20
NO_LIMIT = 1 << 62


@dataclass
class Op:
    a: np.ndarray
    b: np.ndarray

    def payload(self, op_id: str) -> dict[str, Any]:
        return {"id": op_id, "op": "gemm", "a": encode_array(self.a), "b": encode_array(self.b)}

    def expected(self) -> checks.Expected:
        return checks.gemm_expect(self.a, self.b)


def make_ops(rng: np.random.Generator, a: np.ndarray, count: int) -> list[Op]:
    return [Op(a, rng.standard_normal((N, P))) for _ in range(count)]


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class Window:
    tag: str
    attempted: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    results: dict[int, np.ndarray] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def ops_per_s(self) -> float:
        return len(self.results) / self.elapsed_s if self.elapsed_s > 0 else 0.0


async def closed_loop(port: int, ops: list[Op], seconds: float, tag: str,
                      tracer: Tracer | None = None) -> Window:
    win = Window(tag)
    span = tracer.span if tracer is not None else (lambda *a, **k: nullcontext())
    conn = await AsyncConnection.open(HOST, port)
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds and win.attempted < len(ops):
            i = win.attempted
            win.attempted += 1
            start = time.perf_counter()
            with span("op", i):
                with span("client.encode"):
                    payload = ops[i].payload(f"{win.tag}{i}")
                try:
                    with span("client.request"):
                        response = await conn.request(payload)
                except (ConnectionError, OSError):
                    win.failed += 1
                    continue
                if response.get("status") != "OK":
                    win.failed += 1
                    continue
                with span("client.decode"):
                    result = decode_array(response["result"], NO_LIMIT)
            win.latencies_ms.append((time.perf_counter() - start) * 1e3)
            win.results[i] = result
        win.elapsed_s = time.perf_counter() - t0
    finally:
        await conn.close()
    return win


# ----------------------------------------------------------------------
# One serving run
# ----------------------------------------------------------------------
def _first_result(port: int) -> None:
    with ServeClient(HOST, port) as client:
        response = client.gemm(np.eye(2), np.eye(2))
        if response.get("status") != "OK":
            raise BenchError(f"first request failed: {response}")


def _start(root: Path, work: Path, tag: str, run_table: Path | None = None
           ) -> tuple[Program, int, float]:
    prog, port = launch_server(root, work, tag, run_table)
    try:
        _first_result(port)
    except BaseException:
        prog.stop()
        raise
    return prog, port, time.perf_counter() - prog.t_launch


def _stats(port: int) -> dict[str, Any]:
    with ServeClient(HOST, port) as client:
        return client.stats()["result"]


def _check(ops: list[Op], win: Window) -> bool:
    return all(ops[i].expected().accepts(out) for i, out in win.results.items())


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        work: Path) -> tuple[dict[str, Any], list[str]]:
    """One run; returns (result object, human-readable lines)."""
    checks.self_test()
    rng = np.random.default_rng(seed)
    # A traced run splits its time between an untraced and a traced window.
    window_s = seconds / 2 if trace else seconds
    a = rng.standard_normal((N, N))
    count = int(window_s * MAX_RPS) + 1
    ops = make_ops(rng, a, count)
    traced_ops = make_ops(rng, a, count) if trace else []

    def drive(batch: list[Op], tag: str, tracer: Tracer | None = None) -> Window:
        return asyncio.run(closed_loop(port, batch, window_s, tag, tracer))

    setups = []
    for i in range(SETUPS - 1):
        prog, _, setup = _start(root, work, f"setup{i}")
        setups.append(setup)
        prog.stop()
    run_table = work / f"run_table-{workload}-{seed}.csv" if trace else None
    prog, port, setup = _start(root, work, "main", run_table)
    setups.append(setup)
    tracer = Tracer() if trace else None
    try:
        steal0 = cpu_times()
        win = drive(ops, "u")
        steal = steal_pct(steal0, cpu_times())
        traced = drive(traced_ops, "t", tracer) if trace else None
        stats = _stats(port)
        rss = peak_rss_mb(prog.note_tree())
    finally:
        prog.stop()
    correct = _check(ops, win) and (traced is None or _check(traced_ops, traced))

    lines = [
        f"{workload}: seed={seed} requests={win.attempted} ok={len(win.results)} "
        f"failed={win.failed} cpu_steal={steal:.2f}%",
        f"{workload}: server result-cache hits={stats['cache']['hits']} "
        f"admission rejected={_rejected(stats)} pool respawns={_respawns(stats)} "
        f"stats split_cache hits={stats['split_cache']['hits']} "
        f"misses={stats['split_cache']['misses']}",
    ]
    attempted, failed = win.attempted, win.failed
    if traced is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": win.ops_per_s,
            "p50_ms": _pct(win.latencies_ms, 50),
            "p90_ms": _pct(win.latencies_ms, 90),
            "peak_rss_mb": rss,
        }
    else:
        attempted += traced.attempted
        failed += traced.failed
        metrics, more = _layers(workload, traced_ops, win, traced, tracer, stats,
                                run_table, work, seed)
        lines += more
    return {"correct": bool(correct), "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def _rejected(stats: dict[str, Any]) -> int:
    adm = stats["admission"]
    return int(adm["rejected_overload"] + adm["rejected_queue"])


def _respawns(stats: dict[str, Any]) -> int:
    return max(int(stats["pool"]["spawns"]) - 1, 0)


# ----------------------------------------------------------------------
# Traced run: per-layer figures
# ----------------------------------------------------------------------
def _run_table_ms(path: Path, column: str) -> float:
    with open(path, newline="", encoding="utf-8") as fh:
        values = [float(row[column]) for row in csv.DictReader(fh)
                  if row["request_id"].startswith("t") and row["outcome"] == "OK"]
    return statistics.median(values) if values else 0.0


def _replay(ops: list[Op], tracer: Tracer) -> tuple[list[int], list[int], dict[str, Any]]:
    """Replays recorded operations through each layer's public functions
    in this process: the wire codec both ways, quantisation, the split
    plan, in-process batched compute, and the same call routed through
    the pool. Returns request/response byte counts and the pool worker's
    split-cache counters."""
    shm_before = shm_segments()
    try:
        req_bytes, resp_bytes, probe = _replay_ops(ops, tracer)
    finally:
        parallel.shutdown()
    leaked = shm_segments() - shm_before
    if leaked:
        raise BenchError(f"replay leaked shared-memory segments: {sorted(leaked)}")
    return req_bytes, resp_bytes, probe


def _replay_ops(ops: list[Op], tracer: Tracer) -> tuple[list[int], list[int], dict[str, Any]]:
    req_bytes, resp_bytes = [], []
    # Starts the pool; the worker's counters are taken relative to this.
    probe0 = parallel.parallel_map(split_cache_probe, [None], workers=1, timeout=60.0)[0]
    for i, op in enumerate(ops):
        with tracer.span("replay", i):
            with tracer.span("serve.wire.request_encode"):
                line = json.dumps(op.payload(f"r{i}"))
            with tracer.span("serve.wire.request_decode"):
                request = json.loads(line)
                arrays = {k: decode_array(request[k], NO_LIMIT) for k in ("a", "b")}
            req_bytes.append(len(line) + 1)
            with tracer.span("types.quantize"):
                aq, bq = quantize(arrays["a"], FP32), quantize(arrays["b"], FP32)
            with tracer.span("gemm.plan.split"):
                GemmPlan.build(aq[None], bq[None], MXUMode.FP32, M3XU_CONFIG.tile(MXUMode.FP32).k)
            with tracer.span("gemm.batched.compute"):
                result = batched_mxu_sgemm(aq[None], bq[None], workers=1)[0]
            with tracer.span("parallel.round_trip"):
                batched_mxu_sgemm(aq[None], bq[None], workers=1, timeout=60.0, retries=1)
            with tracer.span("serve.wire.response_encode"):
                out = json.dumps({"id": f"r{i}", "status": "OK",
                                  "result": encode_array(np.asarray(result))},
                                 separators=(",", ":"))
            with tracer.span("serve.wire.response_decode"):
                decode_array(json.loads(out)["result"], NO_LIMIT)
            resp_bytes.append(len(out) + 1)
    probe = parallel.parallel_map(split_cache_probe, [None], workers=1, timeout=60.0)[0]
    return req_bytes, resp_bytes, {k: probe[k] - probe0[k] for k in ("hits", "misses")}


def _layers(workload: str, traced_ops: list[Op], win: Window,
            traced: Window, tracer: Tracer, stats: dict[str, Any], run_table: Path,
            work: Path, seed: int) -> tuple[dict[str, Any], list[str]]:
    sample = [traced_ops[i] for i in sorted(traced.results)[:REPLAY_OPS]]
    req_bytes, resp_bytes, probe = _replay(sample, tracer)
    tracer.write_jsonl(work / f"spans-{workload}-{seed}.jsonl")
    dispatch = [rt - c for rt, c in zip(tracer.totals_ms("parallel.round_trip"),
                                         tracer.totals_ms("gemm.batched.compute"))]
    overhead = 100.0 * (win.ops_per_s - traced.ops_per_s) / win.ops_per_s
    ms = tracer.median_ms
    metrics: dict[str, float] = {
        "serve.wire.request_bytes": statistics.median(req_bytes),
        "serve.wire.response_bytes": statistics.median(resp_bytes),
        "serve.wire.request_encode_ms": ms("serve.wire.request_encode"),
        "serve.wire.request_decode_ms": ms("serve.wire.request_decode"),
        "serve.wire.response_encode_ms": ms("serve.wire.response_encode"),
        "serve.wire.response_decode_ms": ms("serve.wire.response_decode"),
        "serve.server.queue_ms": _run_table_ms(run_table, "queue_ms"),
        "serve.server.service_ms": _run_table_ms(run_table, "service_ms"),
        "serve.batcher.coalesced": stats["batcher"]["coalesced"],
        "parallel.dispatch_ms": statistics.median(dispatch) if dispatch else 0.0,
        "gemm.plan.split_ms": ms("gemm.plan.split"),
        "gemm.batched.compute_ms": ms("gemm.batched.compute"),
        "types.quantize_ms": ms("types.quantize"),
        "mxu.split_cache.hits": probe["hits"],
        "mxu.split_cache.misses": probe["misses"],
        "serve.cache.hits": stats["cache"]["hits"],
        "serve.admission.rejected": _rejected(stats),
        "parallel.pool_respawns": _respawns(stats),
        "trace.overhead_pct": overhead,
    }
    lines = [
        f"{workload}: traced window ops_per_s={traced.ops_per_s:.3f} vs untraced "
        f"{win.ops_per_s:.3f} (tracing overhead {overhead:.2f}%); replayed "
        f"{len(sample)} operations for the layer spans",
        tracer.table(),
    ]
    return metrics, lines
