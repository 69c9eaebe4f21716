"""Collocation assembly and the damped-Newton solve.

The unknown is the coefficient vector of the second derivative's wavelet
expansion.  Collocating the oscillator equation at the Chebyshev points turns
it into a square nonlinear algebraic system; value, slope and the
variable-order Caputo image at each point are linear in the coefficients
through cached basis-image matrices, so a residual evaluation is a handful of
matrix-vector products.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .basis import WaveletBasisSpec, fobw_matrix
from .fracops import (
    OrderFunction,
    basis_images,
    caputo_images,
    caputo_on_approximant,
    reconstruct,
)
from .special import chebyshev_grid

__all__ = [
    "OscillatorProblem",
    "CollocationSystem",
    "SolveReport",
    "SolutionApproximant",
    "SolverError",
    "assemble",
    "residual_vector",
    "newton_solve",
    "solve_problem",
]


class SolverError(RuntimeError):
    """Raised on NaN residuals or when a converged solution is required but missing."""

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
    alphas, ica = caputo_images(spec, problem.alpha, grid)
    psi = fobw_matrix(spec, grid)
    i1 = basis_images(spec, 1.0, grid)
    i2 = basis_images(spec, 2.0, grid)
    phi = np.asarray(problem.forcing_at(grid), dtype=float)
    for arr in (grid, alphas, psi, i1, i2, ica, phi):
        arr.setflags(write=False)
    return CollocationSystem(spec, problem, grid, alphas, psi, i1, i2, ica, phi)


def residual_vector(system: CollocationSystem, U: np.ndarray) -> np.ndarray:
    """Left-hand side of the oscillator equation minus forcing, row per grid point."""
    U = np.asarray(U, dtype=float)
    if U.shape != (system.spec.sigma_tilde,):
        raise ValueError(f"coefficient vector must have length {system.spec.sigma_tilde}")
    p = system.problem
    d_alpha = system.caputo_images @ U
    slope = system.i1 @ U + p.init_slope
    value = system.i2 @ U + p.init_value + system.grid * p.init_slope
    return (
        d_alpha
        - p.mu * slope
        + p.mu * slope * value**2
        + p.a * value
        + p.b * value**3
        - system.phi
    )


def _solve_linear(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Dense LU with partial pivoting; a near-singular pivot triggers one
    retry with a Tikhonov-shifted diagonal."""
    n = rhs.size
    pivot_floor = 1e-13 * np.abs(J).sum(axis=1).max()

    def factor_solve(A):
        A = A.copy()
        b = rhs.copy()
        for col in range(n):
            p = col + int(np.argmax(np.abs(A[col:, col])))
            if abs(A[p, col]) < pivot_floor:
                return None
            if p != col:
                A[[col, p]] = A[[p, col]]
                b[[col, p]] = b[[p, col]]
            mult = A[col + 1 :, col] / A[col, col]
            A[col + 1 :, col:] -= np.outer(mult, A[col, col:])
            b[col + 1 :] -= mult * b[col]
        x = np.empty(n)
        for row in range(n - 1, -1, -1):
            x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
        return x

    x = factor_solve(J)
    if x is None:
        x = factor_solve(J + 1e-12 * np.eye(n))
        if x is None:
            raise SolverError("Jacobian is singular even after diagonal regularization")
    return x


def newton_solve(
    system: CollocationSystem,
    tol: float = 1e-12,
    max_iter: int = 100,
    fd_step: float = 1e-7,
) -> SolveReport:
    """Damped Newton iteration from U = 0 with a central-difference Jacobian.

    The zero start is the straight-line initial state (the representation
    already satisfies the initial conditions), which every reference case
    converges from.  The step is halved up to 20 times until the residual
    norm decreases.
    """
    n = system.spec.sigma_tilde
    U = np.zeros(n)
    F = residual_vector(system, U)
    if not np.all(np.isfinite(F)):
        raise SolverError("residual is not finite at the initial guess")
    norm = np.abs(F).max()
    iterations = 0
    while norm > tol and iterations < max_iter:
        J = np.empty((n, n))
        for j in range(n):
            h = fd_step * max(1.0, abs(U[j]))
            bumped = U.copy()
            bumped[j] = U[j] + h
            f_plus = residual_vector(system, bumped)
            bumped[j] = U[j] - h
            f_minus = residual_vector(system, bumped)
            J[:, j] = (f_plus - f_minus) / (2.0 * h)
        step = _solve_linear(J, -F)
        damping = 1.0
        for _ in range(21):
            trial = U + damping * step
            F_trial = residual_vector(system, trial)
            if np.any(np.isnan(F_trial)):
                raise SolverError(f"residual became NaN at iteration {iterations}")
            trial_norm = np.abs(F_trial).max()
            if trial_norm < norm:
                break
            damping *= 0.5
        U, F, norm = trial, F_trial, trial_norm
        iterations += 1
    return SolveReport(U, iterations, float(norm), bool(norm <= tol))


@dataclass(frozen=True)
class SolutionApproximant:
    """Converged approximant: value, derivatives and Caputo image on [0, 1]."""

    problem: OscillatorProblem
    spec: WaveletBasisSpec
    coefficients: np.ndarray
    report: SolveReport

    def evaluate(self, ts) -> tuple:
        """Value, slope and Caputo image at ``ts``, from one set of image matrices.

        A point gives three floats, an array of points three arrays of its shape.
        """
        U, init = self.coefficients, self.problem.init
        value, slope, _ = reconstruct(U, self.spec, init, ts)
        return value, slope, caputo_on_approximant(U, self.spec, self.problem.alpha, init, ts)

    def value(self, t):
        return reconstruct(self.coefficients, self.spec, self.problem.init, t)[0]

    def derivative(self, t):
        return reconstruct(self.coefficients, self.spec, self.problem.init, t)[1]

    def second_derivative(self, t):
        return reconstruct(self.coefficients, self.spec, self.problem.init, t)[2]

    def caputo(self, t):
        return caputo_on_approximant(
            self.coefficients, self.spec, self.problem.alpha, self.problem.init, t
        )


def solve_problem(
    problem: OscillatorProblem,
    spec: WaveletBasisSpec,
    tol: float = 1e-12,
    max_iter: int = 100,
    fd_step: float = 1e-7,
) -> SolutionApproximant:
    """assemble -> newton_solve -> approximant; raises SolverError if not converged."""
    system = assemble(problem, spec)
    report = newton_solve(system, tol=tol, max_iter=max_iter, fd_step=fd_step)
    if not report.converged:
        raise SolverError(
            f"Newton did not converge: residual {report.final_residual_norm:.3e} "
            f"after {report.iterations} iterations",
            report,
        )
    return SolutionApproximant(problem, spec, report.U, report)
