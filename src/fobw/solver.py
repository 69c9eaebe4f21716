"""Collocation assembly and the damped-Newton solve with an exact Jacobian.

The unknown is the coefficient vector of the second derivative's wavelet
expansion.  Collocating the oscillator equation at the Chebyshev points turns
it into a square nonlinear algebraic system; value, slope and the
variable-order Caputo image at each point are linear in the coefficients
through cached basis-image matrices, so a residual evaluation is a handful of
matrix-vector products, and the residual's Jacobian is exact in closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .basis import WaveletBasisSpec, fobw_matrix
from .fracops import OrderFunction, basis_images, caputo_images, order_values
from .special import chebyshev_grid

__all__ = [
    "OscillatorProblem",
    "CollocationSystem",
    "SolveReport",
    "SolutionApproximant",
    "SolverError",
    "evaluate_approximants",
    "assemble",
    "residual_vector",
    "newton_solve",
    "solve_problem",
]


class SolverError(RuntimeError):
    """Raised on a singular Jacobian, NaN residuals, or when a converged solution
    is required but missing; ``report`` holds the solve's state at that point."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, kw_only=True)
class OscillatorProblem:
    """Parameters of D^alpha(t) y - mu y' + mu y' y^2 + a y + b y^3 = forcing."""

    mu: float
    a: float
    b: float
    f: float = 0.0
    omega: float = 0.0
    forcing: Union[str, Callable] = "force_free"
    alpha: OrderFunction
    init_value: float = 0.0
    init_slope: float = 0.0

    def __post_init__(self):
        if isinstance(self.forcing, str):
            if self.forcing not in ("forced", "force_free"):
                raise ValueError("forcing must be 'forced', 'force_free', or a callable")
            if self.forcing == "forced" and not (
                math.isfinite(self.f) and math.isfinite(self.omega)
            ):
                raise ValueError("forced problems need finite f and omega")

    def forcing_at(self, t):
        """Forcing term at scalar or array t."""
        if self.forcing == "forced":
            return self.f * np.cos(self.omega * np.asarray(t, dtype=float))
        if self.forcing == "force_free":
            return np.zeros_like(np.asarray(t, dtype=float))
        return self.forcing(t)

    @property
    def init(self) -> tuple[float, float]:
        return (self.init_value, self.init_slope)

    def residual(self, d_alpha, slope, value, phi):
        """Left-hand side minus forcing, given the Caputo image, slope, value and forcing."""
        return (
            d_alpha
            - self.mu * slope
            + self.mu * slope * value**2
            + self.a * value
            + self.b * value**3
            - phi
        )


@dataclass(frozen=True)
class CollocationSystem:
    """Grid plus the per-row basis-image caches the residual needs."""

    spec: WaveletBasisSpec
    problem: OscillatorProblem
    grid: np.ndarray
    alphas: np.ndarray          # alpha(t_r) per row
    psi: np.ndarray             # row r: basis vector at t_r
    i1: np.ndarray              # row r: first antiderivative images at t_r
    i2: np.ndarray              # row r: second antiderivative images at t_r
    caputo_images: np.ndarray   # row r: I^(2-alpha(t_r)) images (psi row when alpha == 2)
    phi: np.ndarray             # forcing at the grid


@dataclass(frozen=True)
class SolveReport:
    U: np.ndarray
    iterations: int
    final_residual_norm: float
    converged: bool


def assemble(problem: OscillatorProblem, spec: WaveletBasisSpec) -> CollocationSystem:
    """Build the collocation system: grid and all four basis-image families."""
    sigma = spec.sigma_tilde
    if sigma == 1:
        warnings.warn(
            "a single collocation point cannot represent oscillation", stacklevel=2
        )
    grid = chebyshev_grid(sigma)
    (alphas,), i1, i2, (ica,) = _images(spec, [problem.alpha], grid)
    psi = fobw_matrix(spec, grid)
    phi = np.asarray(problem.forcing_at(grid), dtype=float)
    for arr in (grid, alphas, psi, i1, i2, ica, phi):
        arr.setflags(write=False)
    return CollocationSystem(spec, problem, grid, alphas, psi, i1, i2, ica, phi)


def _images(spec: WaveletBasisSpec, orders: list[OrderFunction], ts: np.ndarray) -> tuple:
    """Each order function at the points ``ts``, the I^1 and I^2 rows there,
    and one table of Caputo image rows per order function, all from one
    :func:`basis_images` call."""
    alphas = [order_values(alpha, ts) for alpha in orders]
    lams = np.broadcast_arrays(1.0, 2.0, *(2.0 - a for a in alphas))
    i1, i2, *caputo = basis_images(spec, np.stack(lams), ts)
    return alphas, i1, i2, caputo


def residual_vector(system: CollocationSystem, U: np.ndarray) -> np.ndarray:
    """Left-hand side of the oscillator equation minus forcing, row per grid point."""
    U = np.asarray(U, dtype=float)
    if U.shape != (system.spec.sigma_tilde,):
        raise ValueError(f"coefficient vector must have length {system.spec.sigma_tilde}")
    slope, value = _slope_value(system, U)
    return system.problem.residual(system.caputo_images @ U, slope, value, system.phi)


def _slope_value(system: CollocationSystem, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = system.problem
    return system.i1 @ U + p.init_slope, system.i2 @ U + p.init_value + system.grid * p.init_slope


def _jacobian(system: CollocationSystem, U: np.ndarray) -> np.ndarray:
    """C + diag(mu (v^2 - 1)) I1 + diag(2 mu s v + a + 3 b v^2) I2, exactly."""
    p = system.problem
    s, v = _slope_value(system, U)
    d1 = p.mu * (v**2 - 1.0)
    d2 = 2.0 * p.mu * s * v + p.a + 3.0 * p.b * v**2
    return system.caputo_images + d1[:, None] * system.i1 + d2[:, None] * system.i2


def _solve_linear(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` behind a rank test: the smallest |R_ii| of J's QR
    factor must reach 1e-13 of J's largest absolute row sum.  Converging
    solves stay at 1.2e-11 or above, the structurally singular k >= 3
    systems drop below the floor; the condition number cannot tell them apart."""
    r_min = np.abs(np.diag(np.linalg.qr(J, mode="r"))).min() / np.abs(J).sum(axis=1).max()
    if r_min >= 1e-13:
        try:
            return np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            pass
    raise SolverError(f"Jacobian is singular: smallest relative |R_ii| {r_min:.2e}, floor 1e-13")


def newton_solve(
    system: CollocationSystem,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SolveReport:
    """Damped Newton iteration from U = 0 with the exact Jacobian.

    The zero start is the straight-line initial state (the representation
    already satisfies the initial conditions), which every reference case
    converges from.  The step is halved up to 20 times until the residual
    norm decreases.  Every ``SolverError`` raised here carries the report
    of the iteration it stopped at.
    """
    U = np.zeros(system.spec.sigma_tilde)
    F = residual_vector(system, U)
    norm = np.abs(F).max()
    iterations = 0

    def failure(message: str) -> SolverError:
        return SolverError(message, SolveReport(U, iterations, float(norm), False))

    if not np.all(np.isfinite(F)):
        raise failure("residual is not finite at the initial guess")
    while norm > tol and iterations < max_iter:
        try:
            step = _solve_linear(_jacobian(system, U), -F)
        except SolverError as exc:
            raise failure(f"Newton iteration {iterations}: {exc}") from None
        damping = 1.0
        for _ in range(21):
            trial = U + damping * step
            F_trial = residual_vector(system, trial)
            if np.any(np.isnan(F_trial)):
                raise failure(f"residual became NaN at iteration {iterations}")
            trial_norm = np.abs(F_trial).max()
            if trial_norm < norm:
                break
            damping *= 0.5
        U, F, norm = trial, F_trial, trial_norm
        iterations += 1
    return SolveReport(U, iterations, float(norm), bool(norm <= tol))


def _shaped(values: np.ndarray, like: np.ndarray):
    """A float for a scalar ``like``, else ``values`` in the shape of ``like``."""
    return float(values[0]) if like.ndim == 0 else values.reshape(like.shape)


@dataclass(frozen=True)
class SolutionApproximant:
    """Converged approximant: value, derivatives and Caputo image on [0, 1]."""

    problem: OscillatorProblem
    spec: WaveletBasisSpec
    coefficients: np.ndarray
    report: SolveReport

    def evaluate(self, ts) -> tuple:
        """Value, slope and Caputo image at ``ts``, from one set of image matrices.

        A point gives three floats, an array of points three arrays of its
        shape.  This is the one-approximant case of :func:`evaluate_approximants`.
        """
        return evaluate_approximants([self], ts)[0]

    def value(self, t):
        ts = np.asarray(t, dtype=float)
        pts = ts.ravel()
        return self._value(basis_images(self.spec, 2.0, pts), pts, ts)

    def derivative(self, t):
        ts = np.asarray(t, dtype=float)
        return self._slope(basis_images(self.spec, 1.0, ts.ravel()), ts)

    def second_derivative(self, t):
        ts = np.asarray(t, dtype=float)
        return _shaped(fobw_matrix(self.spec, ts.ravel()) @ self.coefficients, ts)

    def caputo(self, t):
        """Variable-order Caputo derivative, U . [I^(2-alpha(t)) Psi](t)."""
        ts = np.asarray(t, dtype=float)
        _, images = caputo_images(self.spec, self.problem.alpha, ts.ravel())
        return _shaped(images @ self.coefficients, ts)

    def _value(self, i2: np.ndarray, pts: np.ndarray, ts: np.ndarray):
        p = self.problem
        return _shaped(i2 @ self.coefficients + float(p.init_value) + pts * float(p.init_slope), ts)

    def _slope(self, i1: np.ndarray, ts: np.ndarray):
        return _shaped(i1 @ self.coefficients + float(self.problem.init_slope), ts)


def evaluate_approximants(approximants, ts) -> list[tuple]:
    """:meth:`SolutionApproximant.evaluate` of every approximant at the same ``ts``.

    Each basis makes one :func:`basis_images` call: its I^1 and I^2 rows
    once, plus one Caputo order per approximant on it.  Image entries are
    computed elementwise, so every triple is bit-identical to a lone call's.
    """
    ts = np.asarray(ts, dtype=float)
    pts = ts.ravel()
    by_spec: dict[WaveletBasisSpec, list] = {}
    for j, approx in enumerate(approximants):
        by_spec.setdefault(approx.spec, []).append((j, approx))
    evaluations = [None] * len(approximants)
    for spec, members in by_spec.items():
        _, i1, i2, caputo = _images(spec, [a.problem.alpha for _, a in members], pts)
        for (j, approx), ica in zip(members, caputo):
            evaluations[j] = (
                approx._value(i2, pts, ts),
                approx._slope(i1, ts),
                _shaped(ica @ approx.coefficients, ts),
            )
    return evaluations


def solve_problem(
    problem: OscillatorProblem,
    spec: WaveletBasisSpec,
    tol: float = 1e-12,
    max_iter: int = 100,
) -> SolutionApproximant:
    """assemble -> newton_solve -> approximant; raises SolverError if not converged."""
    system = assemble(problem, spec)
    report = newton_solve(system, tol=tol, max_iter=max_iter)
    if not report.converged:
        raise SolverError(
            f"Newton did not converge: residual {report.final_residual_norm:.3e} "
            f"after {report.iterations} iterations",
            report,
        )
    return SolutionApproximant(problem, spec, report.U, report)
