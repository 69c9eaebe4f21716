import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fobw
from fobw.basis import WaveletBasisSpec, fobw_matrix
from fobw.fracops import basis_images, order_values
from fobw.reference import REFERENCE_STEPS, UnsettledError, rk4_integrate, rk4_reference
from fobw.experiments import PRESET_PROBLEMS, order_label
from fobw.expr import parse_expression
from fobw.solver import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    OscillatorProblem,
    SolutionApproximant,
    SolverError,
    _jacobian,
    assemble,
    collocation_grid,
    collocation_systems,
    newton_solve,
    residual_vector,
    solve_problem,
)

ALPHA2 = 2.0
SIN_ORDER = parse_expression("1 + sin(t)")
TABLE_POINTS = (0.1, 0.3, 0.5, 0.7, 0.9)

FORCING = parse_expression("0.5*cos(0.79*t)")
SINGLE_WELL = dict(mu=0.1, a=0.5, b=0.5, forcing=FORCING, init_value=1.0)
DOUBLE_WELL = dict(mu=0.1, a=-0.5, b=0.5, forcing=FORCING, init_value=1.0)
DOUBLE_HUMP = dict(mu=0.1, a=0.5, b=-0.5, forcing=FORCING, init_value=1.0)


def preset_problem(name, alpha):
    """The problem of preset ``name`` with order ``alpha``, its forcing parsed."""
    params = dict(PRESET_PROBLEMS[name])
    params["forcing"] = parse_expression(params["forcing"])
    return OscillatorProblem(alpha=alpha, **params)


def manufactured_cos_problem():
    # y'' + y = 0, y(0) = 1, y'(0) = 0  ->  cos t
    return OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=ALPHA2, init_value=1.0)


def manufactured(alpha, terms, wave=None):
    """(problem, exact y) for y = 1 + sum c t^beta over the (c, beta) of
    ``terms``, each beta > 1 or beta = alpha, plus at alpha = 2 the ``wave``
    given as a (g, g', g'') triple of callables.  The problem has
    example1-single's mu, a and b, y's value and slope at 0, and the forcing
    that the equation's left side gives on y, with the frozen-pointwise
    Caputo derivative D^alpha(t) t^beta = Gamma(beta+1)/Gamma(beta+1-alpha(t))
    t^(beta-alpha(t)): at beta = alpha the constant Gamma(alpha+1), at t = 0
    too, where numpy's 0**0 is 1."""
    assert wave is None or alpha == ALPHA2  # D^2 g = g''; no closed form elsewhere
    g, dg, d2g = wave or (np.zeros_like,) * 3
    gamma = np.vectorize(math.gamma, otypes=[float])
    mu, a, b = SINGLE_WELL["mu"], SINGLE_WELL["a"], SINGLE_WELL["b"]

    def parts(t):
        order = order_values(alpha, t)
        value = 1.0 + g(t) + sum(c * t**beta for c, beta in terms)
        slope = dg(t) + sum(c * beta * t ** (beta - 1.0) for c, beta in terms)
        caputo = d2g(t) + sum(c * math.gamma(beta + 1.0) / gamma(beta + 1.0 - order)
                              * t ** (beta - order) for c, beta in terms)
        return value, slope, caputo

    def forcing(t):
        y, slope, caputo = parts(np.asarray(t, dtype=float))
        return caputo - mu * slope + mu * slope * y**2 + a * y + b * y**3

    (y0,), (y1,), _ = parts(np.zeros(1))
    problem = OscillatorProblem(mu=mu, a=a, b=b, forcing=forcing, alpha=alpha,
                                init_value=float(y0), init_slope=float(y1))
    return problem, lambda t: parts(np.asarray(t, dtype=float))[0]


def residual(approx, t):
    """|equation| on ``approx`` at ``t``, read from its ``evaluate``."""
    v, s, c = approx.evaluate(t)
    return abs(approx.problem.residual(c, s, v, approx.problem.forcing(t)))


class TestAssemble:
    def test_shapes(self):
        system = assemble(manufactured_cos_problem(), WaveletBasisSpec(1, 3, 1.0))
        assert system.grid.shape == system.phi.shape == (4,)
        for mat in (system.i1, system.i2, system.caputo_images):
            assert mat.shape == (4, 4)

    def test_integer_order_uses_basis_rows(self):
        for spec in (WaveletBasisSpec(1, 3, 1.0), WaveletBasisSpec(2, 3, 0.5)):
            system = assemble(manufactured_cos_problem(), spec)
            assert np.array_equal(system.caputo_images, fobw_matrix(spec, system.grid))

    def test_variable_order_rows_increase(self):
        # row r holds the images of order 2 - alpha(t_r) at its own point t_r
        problem = OscillatorProblem(alpha=SIN_ORDER, **SINGLE_WELL)
        spec = WaveletBasisSpec(1, 3, 1.0)
        system = assemble(problem, spec)
        for t, row in zip(system.grid, system.caputo_images, strict=True):
            assert np.array_equal(row, basis_images(spec, 2.0 - SIN_ORDER(t), t))

    def test_single_point_basis_assembles_without_a_warning(self):
        # the note that one point cannot represent oscillation is the run's
        # (meta.warnings); a library assembly just builds the 1 x 1 system
        system = assemble(manufactured_cos_problem(), WaveletBasisSpec(1, 0, 1.0))
        assert system.caputo_images.shape == (1, 1)

    @pytest.mark.parametrize("k", [1, 2])
    def test_systems_of_one_call_equal_lone_assemblies(self, k):
        # constant, variable and integer orders assembled in one image call:
        # each system, and its solve, is bit-identical to one of its own
        spec = WaveletBasisSpec(k, 3, 0.2)
        problems = [
            OscillatorProblem(alpha=alpha, **SINGLE_WELL)
            for alpha in (1.5, SIN_ORDER, ALPHA2)
        ]
        (systems,) = collocation_systems(problems, [spec], [collocation_grid(spec)])
        for problem, system in zip(problems, systems, strict=True):
            alone = assemble(problem, spec)
            for name in ("grid", "i1", "i2", "caputo_images", "phi"):
                assert np.array_equal(getattr(system, name), getattr(alone, name)), name
            approx = solve_problem(problem, spec)
            assert approx.problem is problem and approx.spec == spec
            assert np.array_equal(newton_solve(system).U, approx.coefficients)


class TestResidualVector:
    def test_trivial_constant_solution(self):
        problem = OscillatorProblem(mu=0.0, a=0.0, b=0.0, alpha=ALPHA2, init_value=1.0)
        system = assemble(problem, WaveletBasisSpec(1, 3, 1.0))
        assert np.all(residual_vector(system, np.zeros(4)) == 0.0)

    def test_cubic_stiffness_rows(self):
        problem = OscillatorProblem(mu=0.0, a=0.5, b=0.5, alpha=ALPHA2, init_value=1.0)
        system = assemble(problem, WaveletBasisSpec(1, 3, 1.0))
        assert np.allclose(residual_vector(system, np.zeros(4)), 1.0, rtol=0, atol=1e-15)

    def test_manufactured_rows_after_solve(self):
        system = assemble(manufactured_cos_problem(), WaveletBasisSpec(1, 5, 1.0))
        report = newton_solve(system)
        assert report.converged
        assert np.abs(residual_vector(system, report.U)).max() <= 1e-10

    def test_wrong_length_rejected(self):
        system = assemble(manufactured_cos_problem(), WaveletBasisSpec(1, 3, 1.0))
        with pytest.raises(ValueError):
            residual_vector(system, np.zeros(5))


class TestNewton:
    def test_trivial_converges_immediately(self):
        problem = OscillatorProblem(mu=0.0, a=0.0, b=0.0, alpha=ALPHA2, init_value=1.0)
        system = assemble(problem, WaveletBasisSpec(1, 3, 1.0))
        report = newton_solve(system)
        assert report.converged
        assert report.iterations <= 1
        assert np.all(report.U == 0.0)

    def test_report_on_iteration_budget(self):
        # a basis on which Newton stalls at a residual of about 0.26
        problem = OscillatorProblem(alpha=1.5, **SINGLE_WELL)
        spec = WaveletBasisSpec(1, 8, 2.0)
        with pytest.raises(SolverError, match="did not converge") as info:
            newton_solve(assemble(problem, spec))
        report = info.value.report
        assert not report.converged
        assert report.iterations == NEWTON_MAX_ITER
        assert report.final_residual_norm > NEWTON_TOL
        assert str(info.value) == (f"Newton did not converge: residual "
                                   f"{report.final_residual_norm:.3e} after 100 iterations")
        with pytest.raises(SolverError, match="did not converge") as failure:
            solve_problem(problem, spec)
        assert failure.value.report.iterations == NEWTON_MAX_ITER

    def test_newton_solve_is_the_one_solve_of_a_system(self):
        # a solve that ends in anything but convergence raises SolverError there
        for name in ("solve_system", "assemble_systems"):
            assert not hasattr(fobw, name) and not hasattr(fobw.solver, name)

    def test_single_well_alpha2(self):
        problem = OscillatorProblem(alpha=ALPHA2, **SINGLE_WELL)
        approx = solve_problem(problem, WaveletBasisSpec(1, 5, 1.0))
        assert approx.report.converged
        reference = rk4_integrate(problem, 1e-4)
        assert abs(approx.value(0.1) - reference.value(0.1)) <= 1e-6

    def test_fractional_order_residual_magnitude(self):
        problem = OscillatorProblem(alpha=1.5, **SINGLE_WELL)
        approx = solve_problem(problem, WaveletBasisSpec(1, 5, 0.2))
        assert residual(approx, 0.5) <= 7.9e-4

    def test_permutation_invariance(self):
        problem = OscillatorProblem(alpha=ALPHA2, **SINGLE_WELL)
        system = assemble(problem, WaveletBasisSpec(1, 5, 1.0))
        base = newton_solve(system).U
        rng = np.random.default_rng(1)
        perm = rng.permutation(6)
        shuffled = system._replace(
            grid=system.grid[perm],
            i1=system.i1[perm],
            i2=system.i2[perm],
            caputo_images=system.caputo_images[perm],
            phi=system.phi[perm],
        )
        assert np.abs(newton_solve(shuffled).U - base).max() <= 1e-12


def central_difference_jacobian(system, U, fd_step=1e-7):
    # oracle: the central-difference Jacobian Newton used before the exact one
    n = U.size
    J = np.empty((n, n))
    for j in range(n):
        h = fd_step * max(1.0, abs(U[j]))
        bumped = U.copy()
        bumped[j] = U[j] + h
        f_plus = residual_vector(system, bumped)
        bumped[j] = U[j] - h
        f_minus = residual_vector(system, bumped)
        J[:, j] = (f_plus - f_minus) / (2.0 * h)
    return J


class TestExactJacobian:
    # every coefficient nonzero, so each term of the closed form is exercised
    PROBLEM = dict(mu=0.3, a=0.7, b=-0.4, forcing=FORCING, init_value=0.8, init_slope=-0.6)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("alpha", [ALPHA2, 1.5, SIN_ORDER], ids=order_label)
    def test_matches_central_differences(self, k, alpha):
        system = assemble(OscillatorProblem(alpha=alpha, **self.PROBLEM), WaveletBasisSpec(k, 4, 0.5))
        rng = np.random.default_rng(k)
        for _ in range(3):
            U = rng.normal(0.0, 1.0, system.spec.sigma_tilde)
            J = _jacobian(system, U)
            assert np.abs(J - central_difference_jacobian(system, U)).max() <= 1e-7 * np.abs(J).max()


class TestSingularity:
    # example1-single; the rank floor on the QR factor separates these cases,
    # the condition number does not

    def test_structurally_singular_raises_with_report(self):
        # two equal rows make every Jacobian of this system singular
        problem = OscillatorProblem(alpha=1.5, **SINGLE_WELL)
        system = assemble(problem, WaveletBasisSpec(3, 3, 0.5))
        rows = np.arange(16)
        rows[1] = 0
        system = system._replace(**{name: getattr(system, name)[rows] for name in
                                    ("grid", "i1", "i2", "caputo_images", "phi")})
        with pytest.raises(SolverError, match="singular") as info:
            newton_solve(system)
        report = info.value.report
        assert report is not None and not report.converged
        assert report.iterations == 0 and report.U.shape == (16,)
        assert math.isfinite(report.final_residual_norm)

    def test_ill_conditioned_still_converges(self):
        # sigma_min / sigma_max of the first Jacobian is about 4e-18 here
        problem = OscillatorProblem(alpha=SIN_ORDER, **SINGLE_WELL)
        assert solve_problem(problem, WaveletBasisSpec(2, 20, 0.1)).report.converged

    def test_exact_jacobian_converges_where_differences_stalled(self):
        # a central-difference Jacobian stalls at a residual of 2.3e-10 here
        problem = OscillatorProblem(alpha=1.5, **SINGLE_WELL)
        assert solve_problem(problem, WaveletBasisSpec(2, 8, 0.1)).report.converged

    def test_nonfinite_start_raises_with_report(self):
        problem = OscillatorProblem(
            mu=0.1, a=0.5, b=0.5, alpha=ALPHA2, forcing=lambda t: np.full_like(t, np.nan)
        )
        with pytest.raises(SolverError, match="not finite") as info:
            newton_solve(assemble(problem, WaveletBasisSpec(1, 3, 1.0)))
        assert info.value.report is not None and info.value.report.iterations == 0

    def test_nan_trial_residual_raises_with_report(self, monkeypatch):
        # the first trial step's residual is NaN; the start's is left as it is
        system = assemble(OscillatorProblem(alpha=1.5, **SINGLE_WELL), WaveletBasisSpec(1, 3, 1.0))
        calls = []

        def nan_at_first_trial(system, U):
            calls.append(U)
            F = residual_vector(system, U)
            return np.full_like(F, np.nan) if len(calls) == 2 else F

        monkeypatch.setattr(fobw.solver, "residual_vector", nan_at_first_trial)
        with pytest.raises(SolverError) as info:
            newton_solve(system)
        assert str(info.value) == "residual became NaN at iteration 0"
        assert not info.value.report.converged and info.value.report.iterations == 0


class TestCellRefinement:
    @pytest.mark.parametrize("M", [2, 3])
    @pytest.mark.parametrize("preset", ["example1-single", "example2"])
    def test_error_falls_tenfold_per_step_of_k(self, preset, M):
        # alpha = 2, gamma = 1: the largest AE against RK4 at the table points
        # falls 14.7x to 29.4x per step of k = 1..5 on the per-cell grid
        problem = preset_problem(preset, ALPHA2)
        points = np.array(TABLE_POINTS)
        expected = rk4_integrate(problem, 1e-4).value(points)
        errors = []
        for k in range(1, 6):
            approx = solve_problem(problem, WaveletBasisSpec(k, M, 1.0))
            errors.append(np.abs(approx.value(points) - expected).max())
        assert all(fine * 10 <= coarse for coarse, fine in zip(errors, errors[1:])), errors

    @settings(max_examples=60, deadline=None)
    @given(
        preset=st.sampled_from(sorted(PRESET_PROBLEMS)),
        k=st.integers(1, 4),
        M=st.integers(1, 7),
        gamma=st.floats(0.2, 1.0),
        order=st.one_of(st.just(2.0), st.floats(1.0, 2.0, exclude_min=True), st.just("sin")),
    )
    def test_every_solve_converges_exactly_or_reports(self, preset, k, M, gamma, order):
        alpha = SIN_ORDER if order == "sin" else order
        problem = preset_problem(preset, alpha)
        system = assemble(problem, WaveletBasisSpec(k, M, gamma))
        try:
            report = newton_solve(system)
        except SolverError as exc:
            # in this range every Jacobian on the per-cell grid has full rank
            assert "singular" not in str(exc)
            assert exc.report is not None and not exc.report.converged
            return
        assert report.converged
        approx = SolutionApproximant(problem, system.spec, report.U, report)
        assert approx.value(0.0) == problem.init_value
        assert np.abs(residual_vector(system, report.U)).max() <= NEWTON_TOL


class TestMultistart:
    def test_single_reachable_root(self):
        # the criterion-05 combination: example2, alpha = 1.8, k = 1, M = 3, gamma = 0.2
        problem = preset_problem("example2", 1.8)
        system = assemble(problem, WaveletBasisSpec(1, 3, 0.2))
        root = newton_solve(system).U
        rng = np.random.default_rng(0)
        for scale in (1.0, 10.0, 100.0):
            for _ in range(10):
                U = rng.normal(0.0, scale, root.size)
                for _ in range(50):
                    F = residual_vector(system, U)
                    if np.abs(F).max() <= 1e-12:
                        break
                    U = U + np.linalg.solve(_jacobian(system, U), -F)
                assert np.abs(U - root).max() <= 1e-9


class TestSolveProblem:
    def test_constant_solution(self):
        problem = OscillatorProblem(mu=0.0, a=0.0, b=0.0, alpha=ALPHA2, init_value=1.0)
        approx = solve_problem(problem, WaveletBasisSpec(1, 3, 1.0))
        for t in np.linspace(0.0, 1.0, 11):
            assert approx.value(t) == pytest.approx(1.0, abs=1e-14)

    def test_manufactured_cosine(self):
        approx = solve_problem(manufactured_cos_problem(), WaveletBasisSpec(1, 5, 1.0))
        grid = np.linspace(0.0, 1.0, 101)
        assert np.abs(approx.value(grid) - np.cos(grid)).max() <= 1e-8

    def test_initial_conditions_exact(self):
        problem = OscillatorProblem(alpha=ALPHA2, **DOUBLE_WELL)
        approx = solve_problem(problem, WaveletBasisSpec(1, 5, 1.0))
        assert abs(approx.value(0.0) - 1.0) <= 1e-14
        assert abs(approx.evaluate(0.0)[1]) <= 1e-14

    def test_example2_magnitude(self):
        problem = OscillatorProblem(
            mu=0.1, a=1.0, b=0.01, alpha=ALPHA2, init_value=2.0
        )
        approx = solve_problem(problem, WaveletBasisSpec(1, 5, 1.0))
        reference = rk4_integrate(problem, 1e-4)
        assert abs(approx.value(0.5) - reference.value(0.5)) <= 5e-4

    def test_two_cell_basis_integer_order(self):
        # k = 2 uses the incomplete-beta images beyond the first cell
        approx = solve_problem(manufactured_cos_problem(), WaveletBasisSpec(2, 2, 1.0))
        grid = np.linspace(0.0, 1.0, 101)
        assert np.abs(approx.value(grid) - np.cos(grid)).max() <= 1e-4

    def test_two_cell_basis_fractional_order(self):
        problem = OscillatorProblem(alpha=1.5, **SINGLE_WELL)
        approx = solve_problem(problem, WaveletBasisSpec(2, 2, 1.0))
        assert approx.report.converged
        # converged at the nodes; sampled points between nodes stay bounded
        assert residual(approx, 0.9) <= 1.0


class TestManufacturedSolution:
    GRID = np.linspace(0.0, 1.0, 101)

    @pytest.mark.parametrize("basis", [(1, 5, 0.2), (1, 2, 0.5), (1, 3, 1.0), (2, 3, 1.0),
                                       (3, 2, 0.5)], ids=str)
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, ALPHA2,
                                       parse_expression("1.5 + 0.3*sin(3*t)")], ids=order_label)
    def test_solution_in_the_basis_span_is_exact(self, alpha, basis):
        # y = 1 + t^3/6: y'' = t lies in the span of each basis, so the solve
        # returns y at rounding
        problem, exact = manufactured(alpha, [(1.0 / 6.0, 3.0)])
        approx = solve_problem(problem, WaveletBasisSpec(*basis))
        assert np.abs(approx.value(self.GRID) - exact(self.GRID)).max() <= 1e-12

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
    def test_error_of_a_t_alpha_solution_falls_with_k(self, alpha, gamma):
        # y = 1 + 0.5 t^alpha - 0.2 t^3 lies in no basis's span at M = 5: each
        # step of k = 1..4 takes the largest error to 0.22..0.52 of the last,
        # first order in the cell width (alpha = 1.5, gamma = 0.5: 3.98e-4,
        # 1.41e-4, 6.94e-5, 3.50e-5)
        problem, exact = manufactured(alpha, [(0.5, alpha), (-0.2, 3.0)])
        errors = [
            np.abs(solve_problem(problem, WaveletBasisSpec(k, 5, gamma)).value(self.GRID)
                   - exact(self.GRID)).max()
            for k in range(1, 5)
        ]
        assert all(fine <= 0.6 * coarse for coarse, fine in zip(errors, errors[1:])), errors


class TestManufacturedReference:
    # alpha = 2: y = 1 + 0.1 sin 2t - 0.2 t^3 + 0.3 t^4, so y0 = 1 and y1 = 0.2;
    # the RK4 reference and the helper's exact y check each other
    WAVE = (lambda t: 0.1 * np.sin(2.0 * t), lambda t: 0.2 * np.cos(2.0 * t),
            lambda t: -0.4 * np.sin(2.0 * t))
    POINTS = np.array(TABLE_POINTS)

    def test_exact_and_reference_errors_agree_to_the_estimate(self):
        problem, exact = manufactured(ALPHA2, [(-0.2, 3.0), (0.3, 4.0)], self.WAVE)
        assert (problem.init_value, problem.init_slope) == (1.0, 0.2)
        ref, estimate = rk4_reference(problem, self.POINTS)
        y, expected = exact(self.POINTS), ref.value(self.POINTS)
        # measured: 2.8e-14 against an estimate of 6.6e-14
        assert np.abs(expected - y).max() <= estimate
        for basis in [(1, 5, 1.0), (1, 5, 0.5), (2, 5, 0.5), (1, 3, 1.0)]:
            value = solve_problem(problem, WaveletBasisSpec(*basis)).value(self.POINTS)
            gap = np.abs(np.abs(value - y) - np.abs(value - expected)).max()
            assert gap <= estimate, basis

    def test_nonsmooth_y_settles_within_its_estimate_or_fails_by_name(self):
        # 0.5 t^2.5 for the t^4 term makes y'' grow as t^0.5 from 0, where
        # RK4 loses its order; today the last two runs differ by 1.856e-09
        problem, exact = manufactured(ALPHA2, [(-0.2, 3.0), (0.5, 2.5)], self.WAVE)
        try:
            ref, estimate = rk4_reference(problem, self.POINTS)
        except UnsettledError as exc:
            assert re.search(rf"by {REFERENCE_STEPS[-1]} steps; the last two differ by up "
                             r"to \d\.\d{3}e[-+]\d\d$", str(exc)), str(exc)
            return
        assert np.abs(ref.value(self.POINTS) - exact(self.POINTS)).max() <= estimate


class TestEvaluate:
    ORDERS = (
        1.5,
        ALPHA2,
        SIN_ORDER,
    )

    @staticmethod
    def _approximant(k, alpha):
        spec = WaveletBasisSpec(k, 4, 0.5)
        problem = OscillatorProblem(alpha=alpha, **SINGLE_WELL)
        U = np.random.default_rng(k).normal(0.0, 1.0, spec.sigma_tilde)
        return SolutionApproximant(problem, spec, U, None)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alpha", ORDERS, ids=order_label)
    def test_matches_one_point_calls(self, k, alpha):
        approx = self._approximant(k, alpha)
        spec, U = approx.spec, approx.coefficients
        ts = np.concatenate([[0.25, 0.5, 1.0], np.random.default_rng(7).uniform(0.01, 1.0, 20)])
        value, slope, caputo = approx.evaluate(ts)
        for i, t in enumerate(ts):
            t = float(t)
            assert value[i] == pytest.approx(approx.value(t), abs=1e-13)
            expected_slope = basis_images(spec, 1.0, t) @ U + approx.problem.init_slope
            assert slope[i] == pytest.approx(expected_slope, abs=1e-13)
            expected_caputo = basis_images(spec, 2.0 - order_values(alpha, [t])[0], t) @ U
            assert caputo[i] == pytest.approx(expected_caputo, abs=1e-13)

    def test_return_types(self):
        approx = self._approximant(2, self.ORDERS[2])
        ts = np.linspace(0.1, 1.0, 7)
        assert isinstance(approx.value(0.5), float)
        out = approx.value(ts)
        assert isinstance(out, np.ndarray) and out.shape == ts.shape
        assert all(isinstance(v, float) for v in approx.evaluate(0.5))
        assert all(v.shape == ts.shape for v in approx.evaluate(ts))

    def test_evaluate_and_value_are_the_only_evaluators(self):
        # value, slope and Caputo image come from evaluate, and so does the
        # residual, through OscillatorProblem.residual; y'' from fobw_matrix
        methods = {name for name in dir(SolutionApproximant) if not name.startswith("_")}
        extra = methods - set(SolutionApproximant._fields) - {"count", "index"}
        assert extra == {"evaluate", "value"}
        for name in ("residual_sample", "residual_samples", "absolute_error"):
            assert not hasattr(fobw, name)
            assert not hasattr(fobw.reference, name)

    @pytest.mark.parametrize("t", [1.5, -0.2, np.array([0.5, 1.0 + 1e-12]), math.nan])
    def test_points_outside_the_unit_interval_raise(self, t):
        # the images check their points in basis_images, the basis vectors in fobw_matrix
        approx = self._approximant(2, self.ORDERS[1])
        for evaluate in (
            approx.value, approx.evaluate,
            lambda ts: fobw_matrix(approx.spec, np.atleast_1d(ts)) @ approx.coefficients,
        ):
            with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
                evaluate(t)


class TestRefinementMonotonicity:
    # mirrors the three physically distinct stiffness regimes, gamma = 0.2
    @pytest.mark.parametrize("well", [SINGLE_WELL, DOUBLE_WELL, DOUBLE_HUMP])
    @pytest.mark.parametrize("alpha", [1.2, 1.4, 1.6, 1.8])
    def test_coarse_to_fine(self, well, alpha):
        problem = OscillatorProblem(alpha=alpha, **well)
        maxima = {}
        for M in (3, 5):
            approx = solve_problem(problem, WaveletBasisSpec(1, M, 0.2))
            maxima[M] = max(residual(approx, t) for t in TABLE_POINTS)
        assert maxima[5] <= maxima[3]


class TestConcurrency:
    def test_distinct_problems_solve_in_parallel(self):
        # no shared mutable state: concurrent solves must equal serial ones
        from concurrent.futures import ThreadPoolExecutor

        problems = [
            OscillatorProblem(alpha=a, **well)
            for a in (1.3, 1.7, 2.0)
            for well in (SINGLE_WELL, DOUBLE_WELL)
        ]
        spec = WaveletBasisSpec(1, 4, 0.5)
        serial = [solve_problem(p, spec).coefficients for p in problems]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda p: solve_problem(p, spec).coefficients, problems))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestProblemValidation:
    @pytest.mark.parametrize("field", ["mu", "a", "b", "init_value", "init_slope"])
    @pytest.mark.parametrize("value", ["1", None, math.nan, -math.inf,
                                       pytest.param(10**400, id="int-past-double")])
    def test_numeric_fields_must_be_finite_numbers(self, field, value):
        params = {"mu": 0.1, "a": 0.5, "b": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            OscillatorProblem(alpha=ALPHA2, **params)

    def test_unknown_forcing_string(self):
        # a forcing is a callable of t; text is the config's, parsed there
        with pytest.raises(ValueError, match="forcing must be a callable of t"):
            OscillatorProblem(mu=0.1, a=0.5, b=0.5, forcing="driven", alpha=ALPHA2)

    def test_scalar_valued_forcing_is_read_as_the_constant(self):
        # a callable forcing may return one number, as an order may
        spec = WaveletBasisSpec(1, 3, 1.0)
        solved = [
            solve_problem(OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=alpha,
                                            init_value=1.0, forcing=forcing), spec)
            for alpha in (ALPHA2, 1.5)
            for forcing in (lambda t: 1.0, parse_expression("1"))
        ]
        for scalar, parsed in zip(solved[::2], solved[1::2]):
            assert np.array_equal(scalar.coefficients, parsed.coefficients)

    def test_forcing_evaluation(self):
        problem = OscillatorProblem(alpha=ALPHA2, **SINGLE_WELL)
        assert problem.forcing(0.0) == pytest.approx(0.5)
        free = OscillatorProblem(mu=0.1, a=1.0, b=0.01, alpha=ALPHA2, init_value=2.0)
        assert free.forcing(0.7) == 0.0
        assert np.array_equal(free.forcing(np.linspace(0.0, 1.0, 5)), np.zeros(5))
