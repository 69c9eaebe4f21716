"""The integer-order RK4 reference trajectory.

The wavelet solutions of the integer-order cases are judged against a
classical RK4 integration of the same oscillator, refined by step doubling
until two successive runs agree (:func:`rk4_reference`).  An approximant's
absolute error at points t is ``abs(approx.value(t) - ref.value(t))``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "BlowupError",
    "UnsettledError",
    "ReferenceTrajectory",
    "rk4_integrate",
    "rk4_reference",
]


class BlowupError(RuntimeError):
    """Integration hit a non-finite state; carries the last good time."""

    def __init__(self, message: str, last_good_t: float):
        super().__init__(message)
        self.last_good_t = last_good_t


class UnsettledError(RuntimeError):
    """Successive RK4 runs still disagree at the step cap of :func:`rk4_reference`."""


#: step counts :func:`rk4_reference` tries: 100 * 2**j, plus 1 for even j, so
#: that each count is coprime to the next, from 401 up to its cap of 102401;
#: the presets settle on (401, 800), and on none of them do the coarser pairs
#: (101, 200) and (200, 401) agree to the tolerance
REFERENCE_STEPS = tuple(100 * 2**j + (j % 2 == 0) for j in range(2, 11))
#: how closely two successive runs must agree, relative to max(1, |y|)
REFERENCE_TOLERANCE = 1e-12


class ReferenceTrajectory(NamedTuple):
    """Uniform-step trajectory on [0, 1] with cubic-Hermite dense output."""

    step: float
    times: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def value(self, t):
        """y(t) by cubic Hermite between the stored nodes; inf where the sum
        overflows, which :func:`rk4_reference` reads as runs that disagree."""
        ts = _unit_points(t)
        idx = np.clip((ts / self.step).astype(int), 0, self.times.size - 2)
        th = (ts - self.times[idx]) / self.step
        h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
        h10 = th * (1.0 - th) ** 2
        h01 = th**2 * (3.0 - 2.0 * th)
        h11 = th**2 * (th - 1.0)
        with np.errstate(over="ignore"):
            out = (
                h00 * self.values[idx]
                + h10 * self.step * self.slopes[idx]
                + h01 * self.values[idx + 1]
                + h11 * self.step * self.slopes[idx + 1]
            )
        return float(out) if np.ndim(t) == 0 else out


def rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half):
    """Classical RK4 on (y, v)' = (v, phi - a*y - b*y^3 + mu*v - mu*v*y^2).

    ``phi_nodes`` holds the forcing at the n+1 grid nodes, ``phi_half`` at the
    n midpoints.  Returns ``(ys, vs)``, the states at the nodes up to the
    first non-finite one: n+1 of each when every step stays finite.  Plain
    Python floats, read and written through memoryviews, avoid numpy's
    per-scalar overhead: about 8-9 ms per 10^4 steps on one core of a 2-CPU
    Intel Xeon VM with Python 3.11.
    """
    n = len(phi_half)
    states = np.empty((2, n + 1))
    ys, vs = map(memoryview, states)
    y, v, h, mu, a, b = map(float, (y0, v0, h, mu, a, b))
    ys[0] = y
    vs[0] = v
    half_h = 0.5 * h
    sixth_h = h / 6.0
    isfinite = math.isfinite
    nodes = memoryview(phi_nodes)
    p0 = nodes[0]
    good = 0
    for ph, p1 in zip(memoryview(phi_half), nodes[1:]):
        k1y = v
        k1v = p0 - a * y - b * y * y * y + mu * v - mu * v * y * y
        y2 = y + half_h * k1y
        v2 = v + half_h * k1v
        k2y = v2
        k2v = ph - a * y2 - b * y2 * y2 * y2 + mu * v2 - mu * v2 * y2 * y2
        y3 = y + half_h * k2y
        v3 = v + half_h * k2v
        k3y = v3
        k3v = ph - a * y3 - b * y3 * y3 * y3 + mu * v3 - mu * v3 * y3 * y3
        y4 = y + h * k3y
        v4 = v + h * k3v
        k4y = v4
        k4v = p1 - a * y4 - b * y4 * y4 * y4 + mu * v4 - mu * v4 * y4 * y4

        y = y + sixth_h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + sixth_h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (isfinite(y) and isfinite(v)):
            break
        good += 1
        ys[good] = y
        vs[good] = v
        p0 = p1
    return states[0, : good + 1], states[1, : good + 1]


def rk4_integrate(problem, h: float) -> ReferenceTrajectory:
    """Classical RK4 on (y, y')' over [0, 1] for the integer-order case.

    Requires alpha identically 2; h is snapped to 1/n so uniform steps cover
    [0, 1] exactly.
    """
    if problem.alpha != 2.0:
        raise ValueError("the RK4 reference is defined for alpha identically 2")
    if not (0.0 < h <= 0.01):
        raise ValueError("step must lie in (0, 0.01]")
    n = round(1.0 / h)
    step = 1.0 / n
    times = np.linspace(0.0, 1.0, n + 1)
    halves = times[:-1] + 0.5 * step
    phi_nodes = np.full(times.shape, problem.forcing(times), dtype=float)
    phi_half = np.full(halves.shape, problem.forcing(halves), dtype=float)
    ys, vs = rk4_sweep(problem.init_value, problem.init_slope, step, problem.mu,
                       problem.a, problem.b, phi_nodes, phi_half)
    if ys.size <= n:
        last = float(times[ys.size - 1])
        raise BlowupError(f"integration became non-finite after t = {last:.6f}", last)
    for arr in (times, ys, vs):
        arr.setflags(write=False)
    return ReferenceTrajectory(step, times, ys, vs)


def rk4_reference(problem, points) -> tuple[ReferenceTrajectory, float]:
    """The RK4 reference of ``problem`` at ``points``, and an estimate of its error.

    Runs RK4 at each step count n of :data:`REFERENCE_STEPS` in turn until
    two successive runs agree at every point to :data:`REFERENCE_TOLERANCE`
    times max(1, |y|); returns the finer run with max |difference| / 15, the
    Richardson estimate of a fourth-order method's error (the step counts of
    a pair differ by a factor within 2 +- 0.02).  RK4 reads the forcing only
    at its nodes and half-steps, and successive step counts are coprime, so
    two successive runs share only t = 0, 1/2 and 1: a forcing that is zero
    or constant on one run's points, such as cos(3200 pi t) on 800 steps, is
    read elsewhere by the other and not mistaken for a resolved one.  A run
    that blows up below the cap is passed over, since a finer step can be
    stable where a coarser one is not; a blow-up at the cap raises
    :class:`BlowupError`, and runs that still disagree there raise
    :class:`UnsettledError`.  An empty point set, or a point outside [0, 1],
    raises ``ValueError`` before the first run.
    """
    points = _unit_points(points)
    if points.size == 0:
        raise ValueError("the point set is empty: the reference needs at least one point")
    previous = gap = None
    for n in REFERENCE_STEPS:
        try:
            run = rk4_integrate(problem, 1.0 / n)
        except BlowupError:
            if n == REFERENCE_STEPS[-1]:
                raise
            previous = gap = None
            continue
        values = run.value(points)
        if previous is not None:
            gap = np.abs(values - previous)
            if _settled(gap, values):
                return run, float(gap.max()) / 15.0
        previous = values
    detail = "" if gap is None else f"; the last two differ by up to {gap.max():.3e}"
    raise UnsettledError(f"successive RK4 runs did not agree to {REFERENCE_TOLERANCE:g} "
                         f"x max(1, |y|) by {n} steps{detail}")


def _unit_points(t) -> np.ndarray:
    ts = np.asarray(t, dtype=float)
    if not np.all((ts >= 0.0) & (ts <= 1.0)):
        raise ValueError("t must lie in [0, 1]")
    return ts


def _settled(gap, values) -> bool:
    # an infinite value would pass any gap; a run that overflows never settles
    bound = REFERENCE_TOLERANCE * np.maximum(1.0, np.abs(values))
    return bool(np.all(np.isfinite(values) & (gap <= bound)))
