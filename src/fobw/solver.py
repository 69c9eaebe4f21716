"""Collocation assembly and the damped-Newton solve with an exact Jacobian.

The unknown is the coefficient vector of the second derivative's wavelet
expansion.  Collocating the oscillator equation at the per-cell Chebyshev
points turns it into a square nonlinear algebraic system; value, slope and
the variable-order Caputo image at each point are linear in the coefficients
through the basis-image rows that a :class:`CollocationSystem` holds, so a
residual evaluation is a handful of matrix-vector products, and the
residual's Jacobian is exact in closed form.  A solved approximant is
evaluated through the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple

import numpy as np

from .basis import WaveletBasisSpec, finite_real
from .expr import parse_expression
from .fracops import basis_images, family_images, order_values

__all__ = [
    "OscillatorProblem",
    "CollocationSystem",
    "SolveReport",
    "SolutionApproximant",
    "SolverError",
    "collocation_systems",
    "collocation_grid",
    "assemble",
    "residual_vector",
    "newton_solve",
    "solve_problem",
]


class SolverError(RuntimeError):
    """Raised by :func:`newton_solve` on a non-finite start, a singular
    Jacobian, a NaN residual or an unconverged iteration budget; ``report``
    holds the solve's state at that point, ``converged`` False."""

    def __init__(self, message: str, report: "SolveReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True, kw_only=True)
class OscillatorProblem:
    """Parameters of D^alpha(t) y - mu y' + mu y' y^2 + a y + b y^3 = forcing."""

    mu: float
    a: float
    b: float
    forcing: Callable = parse_expression("0")  # of an array of t, such as an Expression
    alpha: float | Callable  # a constant in (1, 2], or a callable like the forcing
    init_value: float = 0.0
    init_slope: float = 0.0

    def __post_init__(self):
        # the order first, so a config with a bad order and a bad number names the order
        if not callable(self.alpha):
            c = finite_real("alpha", self.alpha)
            if not (1.0 < c <= 2.0):
                raise ValueError(f"order {c} outside (1, 2]")
            object.__setattr__(self, "alpha", c)
        for name in ("mu", "a", "b", "init_value", "init_slope"):
            finite_real(name, getattr(self, name))
        if not callable(self.forcing):
            raise ValueError(f"forcing must be a callable of t, got {self.forcing!r}")

    def residual(self, d_alpha, slope, value, phi):
        """Left-hand side minus forcing, given the Caputo image, slope, value and
        forcing: on an approximant, of its :meth:`SolutionApproximant.evaluate`."""
        return (
            d_alpha
            - self.mu * slope
            + self.mu * slope * value**2
            + self.a * value
            + self.b * value**3
            - phi
        )


class CollocationSystem(NamedTuple):
    """The equation's basis-image rows at a set of points: the collocation
    system at the collocation grid, an approximant's dense residual elsewhere."""

    spec: WaveletBasisSpec
    problem: OscillatorProblem
    grid: np.ndarray
    i1: np.ndarray              # row r: first antiderivative images at t_r
    i2: np.ndarray              # row r: second antiderivative images at t_r
    caputo_images: np.ndarray   # row r: I^(2-alpha(t_r)) images (basis vector when alpha == 2)
    phi: np.ndarray             # forcing at the grid

    def rows(self, start: int, stop: int) -> "CollocationSystem":
        """The system at the points ``grid[start:stop]`` alone: each row array
        cut to those rows, as a view."""
        cut = slice(start, stop)
        return self._replace(grid=self.grid[cut], i1=self.i1[cut], i2=self.i2[cut],
                             caputo_images=self.caputo_images[cut], phi=self.phi[cut])

    def value(self, U: np.ndarray) -> np.ndarray:
        """y = U . I^2 Psi + y0 + t y1 at the grid, from the I^2 rows."""
        return _value_from(self.problem, self.grid, self.i2, U)


class SolveReport(NamedTuple):
    U: np.ndarray
    iterations: int
    final_residual_norm: float
    converged: bool


def collocation_systems(problems, specs, grids, shared=()):
    """Per basis of ``specs``, which share k and gamma, the list of one system
    per problem at ``grids[i]`` for basis i, then at the ``shared`` points:
    a generator, one basis at a time, over one :func:`family_images` pass,
    with the I^1 and I^2 rows plus one Caputo order per problem.  The forcing
    and each order are evaluated once at all the points.  Each system holds
    its own basis's rows alone, bit-identical to a lone call's.  A run passes
    each basis's :func:`collocation_grid` and reads its table and curves at
    the ``shared`` points; :func:`assemble` is the one-problem, one-basis call."""
    ts = np.concatenate([*grids, shared]).astype(float, copy=False)
    lams = np.broadcast_arrays(1.0, 2.0, *(2.0 - order_values(p.alpha, ts) for p in problems))
    phis = [np.full(ts.shape, p.forcing(ts), dtype=float) for p in problems]
    own = [len(grid) for grid in grids]
    ends = [0, *accumulate(own)]
    images = family_images(specs, np.stack(lams), ts, own)
    for spec, start, stop, (i1, i2, *caputo) in zip(specs, ends, ends[1:], images):
        rows = slice(start, None) if stop == ends[-1] else np.r_[start:stop, ends[-1]:ts.size]
        points, *values = (arr[rows] for arr in (ts, *phis))
        for arr in (points, i1, i2, *values, *caputo):
            arr.setflags(write=False)
        yield [
            CollocationSystem(spec, p, points, i1, i2, ica, phi)
            for p, ica, phi in zip(problems, caputo, values)
        ]


def collocation_grid(spec: WaveletBasisSpec) -> np.ndarray:
    """The points a basis is collocated at, ascending: the n = M+1 Chebyshev
    points eta_r = cos((r - 1/2) pi / n) / 2 + 1/2 of one cell, sorted, mapped
    into each cell [lo, hi] of the spec's ``edges`` as lo + eta * (hi - lo)."""
    n, edges = spec.M + 1, spec.edges[:, None]
    eta = np.sort(0.5 * np.cos((np.arange(1, n + 1) - 0.5) * np.pi / n) + 0.5)
    return (edges[:-1] + eta * (edges[1:] - edges[:-1])).ravel()


def assemble(problem: OscillatorProblem, spec: WaveletBasisSpec) -> CollocationSystem:
    """The collocation system: ``problem``'s image rows at :func:`collocation_grid`."""
    ((system,),) = collocation_systems([problem], [spec], [collocation_grid(spec)])
    return system


def residual_vector(system: CollocationSystem, U: np.ndarray) -> np.ndarray:
    """Left-hand side of the oscillator equation minus forcing, row per grid point."""
    U = np.asarray(U, dtype=float)
    if U.shape != (system.spec.sigma_tilde,):
        raise ValueError(f"coefficient vector must have length {system.spec.sigma_tilde}")
    slope, value = _slope_value(system, U)
    return system.problem.residual(system.caputo_images @ U, slope, value, system.phi)


def _slope_value(system: CollocationSystem, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y' = U . I^1 Psi + y1 and y from the system's I^1 and I^2 rows."""
    return system.i1 @ U + system.problem.init_slope, system.value(U)


def _value_from(p: OscillatorProblem, ts: np.ndarray, i2: np.ndarray, U: np.ndarray) -> np.ndarray:
    """y = U . I^2 Psi + y0 + t y1 from the I^2 rows at the points ``ts``."""
    return i2 @ U + p.init_value + ts * p.init_slope


def _jacobian(system: CollocationSystem, U: np.ndarray) -> np.ndarray:
    """C + diag(mu (v^2 - 1)) I1 + diag(2 mu s v + a + 3 b v^2) I2, exactly."""
    p = system.problem
    s, v = _slope_value(system, U)
    d1 = p.mu * (v**2 - 1.0)
    d2 = 2.0 * p.mu * s * v + p.a + 3.0 * p.b * v**2
    return system.caputo_images + d1[:, None] * system.i1 + d2[:, None] * system.i2


def _solve_linear(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` behind a rank test: the smallest |R_ii| of J's QR
    factor must reach 1e-13 of J's largest absolute row sum.  On the
    example1-single and example2 problems, alpha in {2, 1.5, 1.2, 1 + sin t},
    gamma in {0.1, 0.2, 0.5, 1}, k = 1..3 with M up to 20 and k = 4, 5 with M
    up to 7, every Jacobian of a converging solve stays at 4.0e-11 or above;
    the ones it refuses, all at M >= 16 with gamma <= 0.2 and fractional
    alpha, fall to 3.6e-15..9.6e-14.  The condition number cannot tell them
    apart."""
    r = np.linalg.qr(J, mode="raw")[0]  # R is its upper triangle
    r_min = np.abs(np.diagonal(r)).min() / np.abs(J).sum(axis=1).max()
    if not r_min >= 1e-13:  # a NaN ratio is refused too
        raise SolverError(f"Jacobian is singular: smallest relative |R_ii| {r_min:.2e}, "
                          "floor 1e-13")
    try:
        return np.linalg.solve(J, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"linear solve failed ({exc}) although the Jacobian passed the "
                          f"rank test: smallest relative |R_ii| {r_min:.2e}") from None


NEWTON_TOL = 1e-12  # largest residual entry of a converged Newton solve
NEWTON_MAX_ITER = 100  # Newton iterations before a solve is unconverged


def newton_solve(system: CollocationSystem) -> SolveReport:
    """Damped Newton iteration from U = 0 with the exact Jacobian.

    The zero start is the straight-line initial state (the representation
    already satisfies the initial conditions), which every reference case
    converges from.  The step is halved up to 20 times until the residual
    norm decreases, until the largest residual entry is at most
    ``NEWTON_TOL``.  The report it returns has converged; a solve that has
    not after ``NEWTON_MAX_ITER`` iterations raises :class:`SolverError`, as
    a non-finite start, a singular Jacobian or a NaN residual does, with the
    report of the iteration it stopped at.  Overflow is not warned about: a
    non-finite residual is the error that names it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        U = np.zeros(system.spec.sigma_tilde)
        F = residual_vector(system, U)
        norm = np.abs(F).max()
        iterations = 0

        def failure(message: str) -> SolverError:
            return SolverError(message, SolveReport(U, iterations, float(norm), False))

        if not np.all(np.isfinite(F)):
            raise failure("residual is not finite at the initial guess")
        while norm > NEWTON_TOL:
            if iterations == NEWTON_MAX_ITER:
                raise failure(f"Newton did not converge: residual {norm:.3e} "
                              f"after {iterations} iterations")
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
        return SolveReport(U, iterations, float(norm), True)


def _shaped(values: np.ndarray, like: np.ndarray):
    """A float for a scalar ``like``, else ``values`` in the shape of ``like``."""
    return float(values[0]) if like.ndim == 0 else values.reshape(like.shape)


class SolutionApproximant(NamedTuple):
    """Converged approximant on [0, 1].

    :meth:`evaluate` gives value, slope and Caputo image, :meth:`value` the
    value alone.  The second derivative is ``fobw_matrix(spec, ts) @
    coefficients``.
    """

    problem: OscillatorProblem
    spec: WaveletBasisSpec
    coefficients: np.ndarray
    report: SolveReport

    def evaluate(self, ts) -> tuple:
        """Value, slope and variable-order Caputo image at ``ts``, from one
        set of image rows.

        The Caputo image is U . [I^(2-alpha(t)) Psi](t); for alpha in (1, 2)
        its initial value correction sum is empty.  A point gives three
        floats, an array of points three arrays of its shape.  With ``v, s, c
        = approx.evaluate(ts)``, the equation's residual at ``ts`` is
        ``abs(approx.problem.residual(c, s, v, approx.problem.forcing(ts)))``,
        and the AE against an RK4 reference ``ref`` ``abs(approx.value(ts) -
        ref.value(ts))``.
        """
        ts = np.asarray(ts, dtype=float)
        ((system,),) = collocation_systems([self.problem], [self.spec], [ts.ravel()])
        slope, value = _slope_value(system, self.coefficients)
        caputo = system.caputo_images @ self.coefficients
        return tuple(_shaped(v, ts) for v in (value, slope, caputo))

    def value(self, t):
        """y(t) from the I^2 rows alone, the one image order it needs."""
        ts = np.asarray(t, dtype=float)
        pts = ts.ravel()
        i2 = basis_images(self.spec, 2.0, pts)
        return _shaped(_value_from(self.problem, pts, i2, self.coefficients), ts)


def solve_problem(problem: OscillatorProblem, spec: WaveletBasisSpec) -> SolutionApproximant:
    """assemble -> :func:`newton_solve` -> the converged approximant."""
    report = newton_solve(assemble(problem, spec))
    return SolutionApproximant(problem, spec, report.U, report)
