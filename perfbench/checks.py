"""Correctness checks that do not depend on the program's current output.

GEMM-shaped results are compared per component against a float64
product of the FP32-rounded operands. Each FP32 product is exact in
float64 (24 + 24 significand bits), so the reference carries only its
own summation error, at most ``K * 2**-53 * S``. The bound on the
datapath's error follows from how M3XU accumulates (paper Sec. III):

* the C operand chains through one FP32 round-to-nearest per K-chunk,
  each off by at most ``u * |partial sum| <= u * S * (1 + n*u)`` with
  ``u = 2**-24`` and ``n`` chunks;
* inside a chunk the lane products and C are aligned in a 48-bit
  window, each term losing less than ``2**-46`` of the largest
  magnitude in the window, which is at most ``S``;

where ``S[i, j] = sum_k |a_ik * b_kj|``. Together::

    |got - ref| <= (n * (u*(1 + n*u) + (lanes + 1) * 2**-46) + K * 2**-53) * S

with ``lanes`` the multiplier-lane products per chunk. Bit-level
results are additionally recomputed on a sampled slice with the scalar
engine and must match bit for bit.

:func:`self_test` shows that each checker accepts a result just inside
its bound and rejects one nudged just past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mxu.config import M3XU_CONFIG
from repro.mxu.modes import MXUMode
from repro.mxu.vectorized import product_slot_count, scalar_mma_fp32
from repro.types.formats import FP32
from repro.types.quantize import quantize

U32 = 2.0**-24
U64 = 2.0**-53
WINDOW = 2.0**-46
NUDGE = 2.0**-16


def _fp32(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).astype(np.float32).astype(np.float64)


def _chain_factor(k_total: int) -> float:
    k_chunk = M3XU_CONFIG.tile(MXUMode.FP32).k
    n = -(-k_total // k_chunk)
    lanes = product_slot_count(MXUMode.FP32, k_chunk)
    return n * (U32 * (1.0 + n * U32) + (lanes + 1) * WINDOW) + k_total * U64


@dataclass
class Expected:
    """A reference result and its elementwise error bound."""

    ref: np.ndarray
    bound: np.ndarray

    def accepts(self, got: np.ndarray) -> bool:
        got = np.asarray(got)
        if got.shape != self.ref.shape or np.iscomplexobj(got):
            return False
        return bool(np.all(np.isfinite(got))) and bool(
            np.all(np.abs(got - self.ref) <= self.bound))

    def nudged(self, factor: float) -> np.ndarray:
        """A copy of the reference with its loosest element moved by
        ``factor`` times its bound."""
        i = int(np.argmax(self.bound))
        moved = self.ref.copy()
        moved.flat[i] += factor * self.bound.flat[i]
        return moved


def gemm_expect(a: np.ndarray, b: np.ndarray) -> Expected:
    a32, b32 = _fp32(a), _fp32(b)
    s = np.abs(a32) @ np.abs(b32)
    return Expected(a32 @ b32, _chain_factor(a.shape[1]) * s)


def scalar_slice_matches(a: np.ndarray, b: np.ndarray, got: np.ndarray,
                         rows: np.ndarray, cols: np.ndarray) -> bool:
    """Recompute ``got[rows][:, cols]`` with the scalar bit-level engine
    (per-element ``BitAccumulator`` runs) and compare bit for bit."""
    aq = quantize(np.asarray(a, dtype=np.float64)[rows], FP32)
    bq = quantize(np.asarray(b, dtype=np.float64)[:, cols], FP32)
    k_chunk = M3XU_CONFIG.tile(MXUMode.FP32).k
    acc = np.zeros((len(rows), len(cols)))
    for k0 in range(0, aq.shape[1], k_chunk):
        acc = scalar_mma_fp32(aq[:, k0:k0 + k_chunk], bq[k0:k0 + k_chunk], acc,
                              acc_bits=M3XU_CONFIG.acc_bits or 48,
                              rounding=M3XU_CONFIG.acc_rounding)
    want = np.ascontiguousarray(np.asarray(got, dtype=np.float64)[np.ix_(rows, cols)])
    return bool(np.array_equal(acc.view(np.uint64), want.view(np.uint64)))


def self_test(seed: int = 12345) -> None:
    """The gemm checker accepts its reference nudged just inside the bound
    and rejects it nudged just past; the scalar check rejects a one-ulp
    change. Raises ``AssertionError`` naming the check that failed."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((6, 40)), rng.standard_normal((40, 5))
    exp = gemm_expect(a, b)
    if not exp.accepts(exp.nudged(1.0 - NUDGE)):
        raise AssertionError("gemm checker rejected a result inside its bound")
    if exp.accepts(exp.nudged(1.0 + NUDGE)):
        raise AssertionError("gemm checker accepted a result past its bound")
    rows, cols = np.array([1, 4]), np.array([0, 3])
    a32, b32 = _fp32(a), _fp32(b)
    from repro.gemm.tiled import mxu_sgemm

    got = mxu_sgemm(a32, b32, fused=False, workers=1)
    if not scalar_slice_matches(a32, b32, got, rows, cols):
        raise AssertionError("scalar check rejected the bit-level engine's result")
    bad = got.copy()
    bad[rows[0], cols[0]] = float(np.nextafter(np.float32(bad[rows[0], cols[0]]),
                                               np.float32(np.inf)))
    if scalar_slice_matches(a32, b32, bad, rows, cols):
        raise AssertionError("scalar check accepted a result one ulp off")
