"""Integer-order RK4 reference trajectories and the error metrics.

The wavelet solutions of the integer-order cases are judged against a
classical RK4 integration of the same oscillator, refined by step doubling
until it checks its own accuracy (:func:`rk4_reference`); fractional cases,
which have no closed-form solution, are judged by the residual of the
governing equation evaluated on the approximant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .solver import collocation_systems, residual_vector

__all__ = [
    "BlowupError",
    "UnsettledError",
    "ReferenceTrajectory",
    "ErrorTable",
    "rk4_integrate",
    "rk4_reference",
    "absolute_error",
    "residual_samples",
]


class BlowupError(RuntimeError):
    """Integration hit a non-finite state; carries the last good time."""

    def __init__(self, message: str, last_good_t: float):
        super().__init__(message)
        self.last_good_t = last_good_t


class UnsettledError(RuntimeError):
    """Successive RK4 runs still disagree at the step cap of :func:`rk4_reference`."""


#: step counts :func:`rk4_reference` tries, 100 doubled up to its cap of 102400
REFERENCE_STEPS = tuple(100 * 2**j for j in range(11))
#: how closely two successive runs must agree, relative to max(1, |y|)
REFERENCE_TOLERANCE = 1e-12


class ReferenceTrajectory(NamedTuple):
    """Uniform-step trajectory on [0, 1] with cubic-Hermite dense output."""

    step: float
    times: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    def value(self, t):
        """y(t) by cubic Hermite between the stored nodes."""
        ts = np.asarray(t, dtype=float)
        idx = np.clip((ts / self.step).astype(int), 0, self.times.size - 2)
        th = (ts - self.times[idx]) / self.step
        h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
        h10 = th * (1.0 - th) ** 2
        h01 = th**2 * (3.0 - 2.0 * th)
        h11 = th**2 * (th - 1.0)
        out = (
            h00 * self.values[idx]
            + h10 * self.step * self.slopes[idx]
            + h01 * self.values[idx + 1]
            + h11 * self.step * self.slopes[idx + 1]
        )
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class ErrorTable:
    """Rows of t against labeled value columns, ready for CSV or JSON emission."""

    grid: tuple[float, ...]
    columns: dict[str, tuple[float, ...]]
    meta: dict

    def __post_init__(self):
        grid = tuple(float(t) for t in self.grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly ascending")
        cols = {}
        failed = set(self.meta.get("failed_columns", ()))
        for label, vals in self.columns.items():
            vals = tuple(float(v) for v in vals)
            if len(vals) != len(grid):
                raise ValueError(f"column {label!r} length does not match the grid")
            if label not in failed and not all(np.isfinite(vals)):
                raise ValueError(f"column {label!r} has non-finite entries")
            cols[label] = vals
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "columns", cols)


def rk4_integrate(problem, h: float) -> ReferenceTrajectory:
    """Classical RK4 on (y, y')' over [0, 1] for the integer-order case.

    Requires alpha identically 2; h is snapped to 1/n so uniform steps cover
    [0, 1] exactly.
    """
    if not (problem.alpha.is_constant and problem.alpha.value == 2.0):
        raise ValueError("the RK4 reference is defined for alpha identically 2")
    if not (0.0 < h <= 0.01):
        raise ValueError("step must lie in (0, 0.01]")
    n = round(1.0 / h)
    step = 1.0 / n
    times = np.linspace(0.0, 1.0, n + 1)
    phi_nodes = np.asarray(problem.forcing(times), dtype=float)
    phi_half = np.asarray(problem.forcing(times[:-1] + 0.5 * step), dtype=float)
    ys, vs, n_good = kernels.rk4_sweep(
        float(problem.init_value),
        float(problem.init_slope),
        step,
        float(problem.mu),
        float(problem.a),
        float(problem.b),
        phi_nodes,
        phi_half,
    )
    if n_good < n:
        raise BlowupError(
            f"integration became non-finite after t = {times[n_good]:.6f}",
            float(times[n_good]),
        )
    for arr in (times, ys, vs):
        arr.setflags(write=False)
    return ReferenceTrajectory(step, times, ys, vs)


def rk4_reference(problem, points) -> tuple[ReferenceTrajectory, float]:
    """The RK4 reference of ``problem`` at ``points``, and an estimate of its error.

    Doubles the step count n over :data:`REFERENCE_STEPS` until the runs of
    n/2 and n steps agree at every point to :data:`REFERENCE_TOLERANCE` times
    max(1, |y|), and a run of n - 1 steps agrees with the n-step run too;
    returns the n-step run with max |difference of the n/2 and n runs| / 15,
    the Richardson estimate of a fourth-order method's error.  RK4 reads the
    forcing only at its nodes and half-steps, and the doubled runs read it on
    nested grids, so a forcing that is zero or constant on those grids alone
    would look resolved; the n - 1 run reads it at new points, sharing only
    t = 0, 1/2 and 1.  A run that blows up below the cap is passed over,
    since a finer step can be stable where a coarser one is not; a blow-up
    at the cap raises :class:`BlowupError`, and runs that still disagree
    there raise :class:`UnsettledError`.
    """
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
                check = np.abs(values - _values_or_nan(problem, n - 1, points))
                if _settled(check, values):
                    return run, float(gap.max()) / 15.0
                gap = check
        previous = values
    detail = "" if gap is None else f"; the last two differ by up to {gap.max():.3e}"
    raise UnsettledError(f"successive RK4 runs did not agree to {REFERENCE_TOLERANCE:g} "
                         f"x max(1, |y|) by {n} steps{detail}")


def _settled(gap, values) -> bool:
    return bool(np.all(gap <= REFERENCE_TOLERANCE * np.maximum(1.0, np.abs(values))))


def _values_or_nan(problem, n, points):
    """The n-step RK4 run at ``points``, or NaN there if it blows up."""
    try:
        return rk4_integrate(problem, 1.0 / n).value(points)
    except BlowupError:
        return np.full(np.shape(points), np.nan)


def absolute_error(approx, ref, t):
    """|approx(t) - ref(t)|; either side may be an approximant or a plain callable.

    An array ``t`` gives an array, when both sides accept arrays.
    """
    err = np.abs(
        np.asarray(getattr(approx, "value", approx)(t), dtype=float)
        - np.asarray(getattr(ref, "value", ref)(t), dtype=float)
    )
    return float(err) if np.ndim(t) == 0 else err


def residual_samples(approximants, t) -> list[np.ndarray]:
    """Magnitude of the governing equation evaluated on each approximant at
    the points ``t``, as an array of ``t``'s shape.

    An approximant's residual is that of the collocation system of its
    ``problem`` at ``t``.  The approximants on one basis share one
    :func:`fobw.solver.collocation_systems` call, and each sample is
    bit-identical to a lone call's."""
    ts = np.asarray(t, dtype=float)
    by_spec: dict = {}
    for j, approx in enumerate(approximants):
        by_spec.setdefault(approx.spec, []).append(j)
    samples = [None] * len(approximants)
    for spec, members in by_spec.items():
        problems = [approximants[j].problem for j in members]
        for j, system in zip(members, collocation_systems(problems, spec, ts.ravel())):
            residual = residual_vector(system, approximants[j].coefficients)
            samples[j] = np.abs(residual).reshape(ts.shape)
    return samples
