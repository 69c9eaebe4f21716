import math

import numpy as np
import pytest

from fobw.basis import WaveletBasisSpec
from fobw.fracops import OrderFunction
from fobw.reference import (
    BlowupError,
    ErrorTable,
    absolute_error,
    residual_sample,
    rk4_integrate,
)
from fobw.solver import OscillatorProblem, SolutionApproximant, solve_problem

ALPHA2 = OrderFunction.constant(2.0)


def harmonic_problem():
    return OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=ALPHA2, init_value=1.0)


class TestRK4:
    def test_cosine_endpoint(self):
        traj = rk4_integrate(harmonic_problem(), 1e-3)
        assert traj.value(1.0) == pytest.approx(math.cos(1.0), abs=1e-10)

    def test_constant_solution_exact(self):
        problem = OscillatorProblem(mu=0.0, a=0.0, b=0.0, alpha=ALPHA2, init_value=1.0)
        traj = rk4_integrate(problem, 1e-3)
        assert np.all(traj.values == 1.0)
        assert np.all(traj.slopes == 0.0)

    def test_fourth_order_convergence(self):
        e_coarse = abs(rk4_integrate(harmonic_problem(), 0.01).value(1.0) - math.cos(1.0))
        e_fine = abs(rk4_integrate(harmonic_problem(), 0.005).value(1.0) - math.cos(1.0))
        assert 12.0 <= e_coarse / e_fine <= 20.0

    def test_dense_output_between_nodes(self):
        traj = rk4_integrate(harmonic_problem(), 1e-3)
        for t in (0.1234, 0.5551, 0.98765):
            assert traj.value(t) == pytest.approx(math.cos(t), abs=1e-10)
            assert traj.derivative(t) == pytest.approx(-math.sin(t), abs=1e-8)

    def test_blowup_reports_last_good_time(self):
        problem = OscillatorProblem(mu=0.0, a=0.0, b=-10.0, alpha=ALPHA2, init_value=2.0)
        with pytest.raises(BlowupError) as err:
            rk4_integrate(problem, 1e-3)
        assert 0.0 < err.value.last_good_t < 1.0

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            rk4_integrate(harmonic_problem(), 0.02)
        with pytest.raises(ValueError):
            rk4_integrate(harmonic_problem(), 0.0)

    def test_requires_integer_order(self):
        problem = OscillatorProblem(
            mu=0.0, a=1.0, b=0.0, alpha=OrderFunction.constant(1.5), init_value=1.0
        )
        with pytest.raises(ValueError):
            rk4_integrate(problem, 1e-3)


class TestAbsoluteError:
    def test_identical_inputs(self):
        assert absolute_error(lambda t: 1.0, lambda t: 1.0, 0.5) == 0.0

    def test_small_difference(self):
        assert absolute_error(lambda t: 1.0, lambda t: 0.999999, 0.3) == pytest.approx(1e-6)

    def test_symmetry(self):
        f = lambda t: math.sin(3 * t)
        g = lambda t: t**2
        for t in (0.1, 0.6, 0.9):
            assert absolute_error(f, g, t) == absolute_error(g, f, t)

    def test_max_over_grid(self):
        f = lambda t: np.where(t < 0.5, 1.0, 2.0)
        g = lambda t: np.where(t < 0.5, 1.0, 2.5)
        errors = absolute_error(f, g, np.array([0.25, 0.75]))
        assert errors.shape == (2,)
        assert errors.max() == pytest.approx(0.5)

    def test_manufactured_case(self):
        approx = solve_problem(harmonic_problem(), WaveletBasisSpec(1, 5, 1.0))
        grid = np.linspace(0.0, 1.0, 101)
        assert absolute_error(approx, np.cos, grid).max() <= 1e-8


class TestResidualSample:
    def test_exact_zero_solution_for_random_parameters(self):
        rng = np.random.default_rng(31)
        spec = WaveletBasisSpec(1, 3, 1.0)
        for _ in range(50):
            problem = OscillatorProblem(
                mu=float(rng.uniform(-1, 1)),
                a=float(rng.uniform(-2, 2)),
                b=float(rng.uniform(-2, 2)),
                alpha=ALPHA2,
                init_value=0.0,
            )
            approx = solve_problem(problem, spec)
            t = float(rng.uniform(0.05, 1.0))
            assert residual_sample(approx, problem, t) <= 1e-13

    def test_constant_state_residual(self):
        problem = OscillatorProblem(mu=0.0, a=0.5, b=0.5, alpha=ALPHA2, init_value=1.0)
        spec = WaveletBasisSpec(1, 3, 1.0)
        approx = SolutionApproximant(problem, spec, np.zeros(4), None)
        for t in (0.2, 0.5, 0.9):
            assert residual_sample(approx, problem, t) == pytest.approx(1.0, abs=1e-14)

    def test_fractional_magnitude(self):
        problem = OscillatorProblem(
            mu=0.1, a=0.5, b=0.5, f=0.5, omega=0.79, forcing="forced",
            alpha=OrderFunction.constant(1.5), init_value=1.0,
        )
        approx = solve_problem(problem, WaveletBasisSpec(1, 5, 0.2))
        assert residual_sample(approx, problem, 0.9) <= 1.9e-4


class TestErrorTable:
    def test_round_trip_fields(self):
        table = ErrorTable((0.1, 0.5), {"c": (1.0, 2.0)}, {})
        assert table.grid == (0.1, 0.5)
        assert table.columns["c"] == (1.0, 2.0)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            ErrorTable((0.5, 0.1), {"c": (1.0, 2.0)}, {})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ErrorTable((0.1, 0.5), {"c": (1.0, math.nan)}, {})

    def test_failed_column_sentinel_allowed(self):
        table = ErrorTable(
            (0.1, 0.5), {"c": (1.0, math.nan)}, {"failed_columns": ["c"]}
        )
        assert math.isnan(table.columns["c"][1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ErrorTable((0.1, 0.5), {"c": (1.0,)}, {})
