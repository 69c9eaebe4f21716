"""Numeric kernels: numba-compiled when numba is installed, else pure numpy.

Two inner loops live here: evaluating power sums ``sum_i c_i * t**p_i`` of a
single series (the quadrature oracles and scalar series evaluation go
through this) and the sequential RK4 reference sweep.  Both ship in a jitted
and a plain-numpy variant.  Set ``FOBW_PURE_NUMPY=1`` to force the numpy path;
it is also taken automatically when numba is not importable (numba is the
optional ``numba`` extra).

``benchmarks/bench_kernels.py`` times the two paths side by side.
"""

from __future__ import annotations

import os

import numpy as np


def _pure_numpy_requested() -> bool:
    return os.environ.get("FOBW_PURE_NUMPY", "").strip().lower() in {"1", "true", "yes", "on"}


# ---------------------------------------------------------------------------
# pure numpy implementations
# ---------------------------------------------------------------------------

def eval_powsum_numpy(coeffs: np.ndarray, exps: np.ndarray, t: float) -> float:
    """sum_i coeffs[i] * t**exps[i] for scalar t >= 0, with 0**0 == 1."""
    return float(np.dot(coeffs, np.power(t, exps)))


def eval_powsum_batch_numpy(coeffs: np.ndarray, exps: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Power sum at every point of ``ts`` (numpy broadcasting path)."""
    return np.power(ts[:, None], exps[None, :]) @ coeffs


def _rk4_sweep_loop(y0, v0, h, mu, a, b, phi_nodes, phi_half):
    # Classical RK4 on (y, v)' = (v, phi - a*y - b*y^3 + mu*v - mu*v*y^2).
    # phi_nodes holds the forcing at the n+1 grid nodes, phi_half at midpoints.
    n = phi_half.shape[0]
    ys = np.empty(n + 1)
    vs = np.empty(n + 1)
    y = y0
    v = v0
    ys[0] = y
    vs[0] = v
    for i in range(n):
        p0 = phi_nodes[i]
        ph = phi_half[i]
        p1 = phi_nodes[i + 1]

        k1y = v
        k1v = p0 - a * y - b * y * y * y + mu * v - mu * v * y * y
        y2 = y + 0.5 * h * k1y
        v2 = v + 0.5 * h * k1v
        k2y = v2
        k2v = ph - a * y2 - b * y2 * y2 * y2 + mu * v2 - mu * v2 * y2 * y2
        y3 = y + 0.5 * h * k2y
        v3 = v + 0.5 * h * k2v
        k3y = v3
        k3v = ph - a * y3 - b * y3 * y3 * y3 + mu * v3 - mu * v3 * y3 * y3
        y4 = y + h * k3y
        v4 = v + h * k3v
        k4y = v4
        k4v = p1 - a * y4 - b * y4 * y4 * y4 + mu * v4 - mu * v4 * y4 * y4

        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (np.isfinite(y) and np.isfinite(v)):
            return ys, vs, i
        ys[i + 1] = y
        vs[i + 1] = v
    return ys, vs, n


def rk4_sweep_numpy(y0, v0, h, mu, a, b, phi_nodes, phi_half):
    # overflow only happens on diverging trajectories, and the loop already
    # stops at the first non-finite state
    with np.errstate(over="ignore", invalid="ignore"):
        return _rk4_sweep_loop(y0, v0, h, mu, a, b, phi_nodes, phi_half)


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

NUMBA_AVAILABLE = False
eval_powsum_numba = None
eval_powsum_batch_numba = None
rk4_sweep_numba = None

try:
    from numba import njit

    NUMBA_AVAILABLE = True

    @njit(cache=True)
    def _eval_powsum_jit(coeffs, exps, t):
        acc = 0.0
        for i in range(coeffs.shape[0]):
            acc += coeffs[i] * t ** exps[i]
        return acc

    @njit(cache=True)
    def _eval_powsum_batch_jit(coeffs, exps, ts):
        out = np.empty(ts.shape[0])
        for j in range(ts.shape[0]):
            acc = 0.0
            t = ts[j]
            for i in range(coeffs.shape[0]):
                acc += coeffs[i] * t ** exps[i]
            out[j] = acc
        return out

    eval_powsum_numba = _eval_powsum_jit
    eval_powsum_batch_numba = _eval_powsum_batch_jit
    rk4_sweep_numba = njit(cache=True)(_rk4_sweep_loop)
except ImportError:  # pragma: no cover
    pass


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

USING_NUMBA = NUMBA_AVAILABLE and not _pure_numpy_requested()

if USING_NUMBA:
    eval_powsum = eval_powsum_numba
    rk4_sweep = rk4_sweep_numba
else:
    eval_powsum = eval_powsum_numpy
    rk4_sweep = rk4_sweep_numpy

# numpy's SIMD pow beats the jitted scalar loop on every relevant batch size
# (see benchmarks/bench_kernels.py), so the batch kernel is numpy either way;
# the jitted variant stays available for the comparison.
eval_powsum_batch = eval_powsum_batch_numpy


def warmup() -> None:
    """Trigger JIT compilation on tiny inputs so timed runs measure steady state."""
    c = np.array([1.0, -0.5])
    p = np.array([0.0, 1.5])
    eval_powsum(c, p, 0.3)
    eval_powsum_batch(c, p, np.array([0.0, 0.5, 1.0]))
    rk4_sweep(1.0, 0.0, 0.5, 0.1, 0.5, 0.5, np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0]))
