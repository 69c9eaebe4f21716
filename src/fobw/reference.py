"""Integer-order RK4 reference trajectories and the error metrics.

The wavelet solutions of the integer-order cases are judged against a dense
classical RK4 integration of the same oscillator; fractional cases, which
have no closed-form solution, are judged by the residual of the governing
equation evaluated on the approximant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = [
    "BlowupError",
    "ReferenceTrajectory",
    "ErrorTable",
    "rk4_integrate",
    "absolute_error",
    "residual_sample",
]


class BlowupError(RuntimeError):
    """Integration hit a non-finite state; carries the last good time."""

    def __init__(self, message: str, last_good_t: float):
        super().__init__(message)
        self.last_good_t = last_good_t


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Uniform-step trajectory on [0, 1] with cubic-Hermite dense output."""

    step: float
    times: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    accels: np.ndarray

    def _locate(self, t):
        t = np.asarray(t, dtype=float)
        n = self.times.size - 1
        idx = np.clip((t / self.step).astype(int), 0, n - 1)
        theta = (t - self.times[idx]) / self.step
        return idx, theta

    def _hermite(self, t, left, d_left):
        idx, th = self._locate(t)
        h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
        h10 = th * (1.0 - th) ** 2
        h01 = th**2 * (3.0 - 2.0 * th)
        h11 = th**2 * (th - 1.0)
        return (
            h00 * left[idx]
            + h10 * self.step * d_left[idx]
            + h01 * left[idx + 1]
            + h11 * self.step * d_left[idx + 1]
        )

    def value(self, t):
        """y(t) by cubic Hermite between the stored nodes."""
        out = self._hermite(t, self.values, self.slopes)
        return float(out) if np.ndim(t) == 0 else out

    def derivative(self, t):
        """y'(t), interpolated with the accelerations as slopes."""
        out = self._hermite(t, self.slopes, self.accels)
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


def _accel(problem, t, y, v):
    return problem.forcing_at(t) - problem.a * y - problem.b * y**3 + problem.mu * v - problem.mu * v * y * y


def rk4_integrate(problem, h: float) -> ReferenceTrajectory:
    """Classical RK4 on (y, y')' over [0, 1] for the integer-order case.

    Requires alpha identically 2; h is snapped to 1/n so uniform steps cover
    [0, 1] exactly.
    """
    if not (problem.alpha.is_constant and problem.alpha.value == 2.0):
        raise ValueError("the RK4 reference is defined for alpha identically 2")
    if not (0.0 < h <= 0.01):
        raise ValueError("step must lie in (0, 0.01]")
    n = max(round(1.0 / h), 100)
    step = 1.0 / n
    times = np.linspace(0.0, 1.0, n + 1)
    phi_nodes = np.asarray(problem.forcing_at(times), dtype=float)
    phi_half = np.asarray(problem.forcing_at(times[:-1] + 0.5 * step), dtype=float)
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
    accels = _accel(problem, times, ys, vs)
    for arr in (times, ys, vs, accels):
        arr.setflags(write=False)
    return ReferenceTrajectory(step, times, ys, vs, accels)


def _as_evaluable(obj):
    if hasattr(obj, "value"):
        return obj.value
    return obj


def absolute_error(approx, ref, t):
    """|approx(t) - ref(t)|; either side may be an approximant or a plain callable.

    An array ``t`` gives an array, when both sides accept arrays.
    """
    err = np.abs(
        np.asarray(_as_evaluable(approx)(t), dtype=float)
        - np.asarray(_as_evaluable(ref)(t), dtype=float)
    )
    return float(err) if np.ndim(t) == 0 else err


def residual_sample(approx, problem, t):
    """Magnitude of the governing equation evaluated on the approximant at t.

    ``approx`` provides ``evaluate``, like
    :class:`fobw.solver.SolutionApproximant`.  A point ``t`` gives a float,
    an array of points an array.
    """
    value, slope, d_alpha = approx.evaluate(t)
    residual = np.abs(problem.residual(d_alpha, slope, value, problem.forcing_at(t)))
    return float(residual) if np.ndim(t) == 0 else residual
