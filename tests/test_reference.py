import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import fobw.reference
from fobw.basis import WaveletBasisSpec
from fobw.cli import main
from fobw.expr import parse_expression
from fobw.experiments import (
    PRESET_PROBLEMS, TABLE_POINTS, ErrorTable, preset_config, run_experiment,
)
from fobw.reference import (
    REFERENCE_STEPS, BlowupError, UnsettledError, rk4_integrate, rk4_reference, rk4_sweep,
)
from fobw.solver import OscillatorProblem, SolutionApproximant, solve_problem

ALPHA2 = 2.0


def harmonic_problem():
    return OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=ALPHA2, init_value=1.0)


def residual(approx, t):
    """|equation| on ``approx`` at ``t``, read from its ``evaluate``."""
    v, s, c = approx.evaluate(t)
    return abs(approx.problem.residual(c, s, v, approx.problem.forcing(t)))


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

    def test_scalar_valued_forcing_is_read_as_the_constant(self):
        runs = [
            rk4_integrate(OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=ALPHA2, forcing=forcing),
                          1e-3)
            for forcing in (lambda t: 1.0, parse_expression("1"))
        ]
        assert np.array_equal(runs[0].values, runs[1].values)
        assert np.array_equal(runs[0].slopes, runs[1].slopes)

    @pytest.mark.parametrize("t", [1.5, -0.5, math.nan, [0.5, 1.0 + 1e-9]])
    def test_value_outside_the_interval_is_rejected(self, t):
        traj = rk4_integrate(harmonic_problem(), 1e-2)
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            traj.value(t)

    def test_requires_integer_order(self):
        # an expression that is 2 everywhere is a callable all the same: only
        # the constant 2 is the integer order
        for alpha in (1.5, parse_expression("2 + 0*t")):
            problem = OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=alpha, init_value=1.0)
            with pytest.raises(ValueError, match="defined for alpha identically 2"):
                rk4_integrate(problem, 1e-3)


def _parent_rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half):
    # The numpy-scalar loop that rk4_sweep replaced, kept verbatim as the
    # oracle: the plain-float sweep must reproduce it bit for bit.
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


def _forcing(n):
    h = 1.0 / n
    times = np.linspace(0.0, 1.0, n + 1)
    return h, 0.5 * np.cos(0.79 * times), 0.5 * np.cos(0.79 * (times[:-1] + 0.5 * h))


def _assert_same_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half):
    with np.errstate(over="ignore", invalid="ignore"):
        ys_o, vs_o, good_o = _parent_rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half)
    ys, vs = rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half)
    # the oracle's entries past good_o are unset; the sweep returns only the
    # states it computed
    assert ys.shape == vs.shape == (good_o + 1,)
    assert np.array_equal(ys, ys_o[: good_o + 1])
    assert np.array_equal(vs, vs_o[: good_o + 1])
    return good_o


# the sweep once converted the forcing 256 steps at a time; sizes around that
# block stay as regression cases
BLOCK = 256
coefficient = st.floats(-3.0, 3.0, allow_nan=False)


class TestRK4Sweep:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 2 * BLOCK, 2 * BLOCK + 37])
    # no shrinking: a mismatch persists for nearly every input, so shrinking
    # one runs for minutes and reports no clearer example
    @settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(y0=coefficient, v0=coefficient, mu=coefficient, a=coefficient, b=coefficient)
    def test_matches_parent_loop_bit_for_bit(self, n, y0, v0, mu, a, b):
        h, phi_nodes, phi_half = _forcing(n)
        _assert_same_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half)

    def test_blowup_after_first_block_matches_parent_loop(self):
        n = 8 * BLOCK + 10  # blows up near t = 0.13
        phi = np.zeros(n + 1)
        good = _assert_same_sweep(2.0, 0.0, 1.0 / n, 0.0, 0.0, -50.0, phi, phi[:-1])
        assert BLOCK < good < n

    def test_detects_nonfinite_state(self):
        n = 200
        h = 1.0 / n
        phi = np.zeros(n + 1)
        ys, vs = rk4_sweep(2.0, 0.0, h, 0.0, 0.0, -50.0, phi, phi[:-1])
        assert ys.size == vs.size < n + 1
        assert np.all(np.isfinite(ys)) and np.all(np.isfinite(vs))

    def test_zero_steps(self):
        ys, vs = rk4_sweep(1.5, -0.5, 0.1, 0.1, 0.5, 0.5, np.zeros(1), np.zeros(0))
        assert ys.tolist() == [1.5] and vs.tolist() == [-0.5]

    def test_a_long_sweep_takes_bounded_memory(self):
        # the states (1.6 MB at the reference's largest step count) and
        # nothing proportional beside them: Python-float lists of the forcing
        # or of the states would take several times that
        n = REFERENCE_STEPS[-1]
        h, phi_nodes, phi_half = _forcing(n)
        tracemalloc.start()
        try:
            ys, vs = rk4_sweep(1.0, 0.0, h, 0.1, 0.5, 0.5, phi_nodes, phi_half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ys.size == vs.size == n + 1
        assert peak < 2.5 * 2**20


def record_steps(monkeypatch, blow_up_at=()):
    """Make :func:`rk4_reference` record the step count of each RK4 run it
    asks for, and blow up the runs whose count is in ``blow_up_at``; returns
    the list it records into."""
    steps = []

    def counted(problem, h):
        n = round(1.0 / h)
        steps.append(n)
        if n in blow_up_at:
            raise BlowupError(f"integration became non-finite after t = {n * 1e-6:.6f}", 0.5)
        return rk4_integrate(problem, h)

    monkeypatch.setattr(fobw.reference, "rk4_integrate", counted)
    return steps


class TestRK4Reference:
    @pytest.mark.parametrize("preset", sorted(PRESET_PROBLEMS))
    def test_preset_settles_at_800_steps_within_1e_13(self, monkeypatch, preset):
        problem = preset_config(preset).problems[0]
        steps = record_steps(monkeypatch)
        reference, error = rk4_reference(problem, TABLE_POINTS)
        assert steps == [101, 200, 401, 800]
        assert np.array_equal(reference.values, rk4_integrate(problem, 1 / 800).values)
        assert 0.0 < error <= 1e-13
        fine = rk4_integrate(problem, 2.5e-5)
        points = np.array(TABLE_POINTS)
        assert np.abs(reference.value(points) - fine.value(points)).max() <= 1e-13

    def test_error_estimate_is_in_the_meta_of_ae_and_mae_tables_only(self):
        for metrics in (("AE",), ("MAE",), ("AE", "residual")):
            table = run_experiment(preset_config("example2", metrics=metrics))
            assert not table.meta["failed_columns"]
            assert 0.0 < table.meta["reference_error"] <= 1e-13
        table = run_experiment(preset_config("example2", metrics=("residual",)))
        assert not table.meta["failed_columns"] and "reference_error" not in table.meta

    def test_blowup_of_the_coarsest_run_alone_still_settles(self, monkeypatch):
        problem = preset_config("example1-single").problems[0]
        expected, _ = rk4_reference(problem, TABLE_POINTS)
        steps = record_steps(monkeypatch, blow_up_at={101})
        reference, error = rk4_reference(problem, TABLE_POINTS)
        assert steps == [101, 200, 401, 800]
        assert math.isfinite(error)
        assert np.array_equal(reference.values, expected.values)

    def test_blowup_of_the_settling_run_moves_on(self, monkeypatch):
        # the 800-step run would settle the preset; after its blow-up the
        # next two runs must agree afresh
        problem = preset_config("example1-single").problems[0]
        steps = record_steps(monkeypatch, blow_up_at={800})
        reference, _ = rk4_reference(problem, TABLE_POINTS)
        assert steps == [101, 200, 401, 800, 1601, 3200]
        assert reference.times.size == 3201

    def test_successive_step_counts_share_only_0_half_and_1(self):
        # RK4 reads the forcing at i / (2n), its nodes and half-steps; a
        # point of the coarser run is a point of the finer one exactly when
        # its reduced denominator divides twice the finer step count
        steps = fobw.reference.REFERENCE_STEPS
        assert steps[0] >= 100  # so h <= 0.01, as rk4_integrate requires
        for coarse, fine in zip(steps, steps[1:]):
            read = (Fraction(i, 2 * coarse) for i in range(2 * coarse + 1))
            shared = {t for t in read if (2 * fine) % t.denominator == 0}
            assert shared == {Fraction(0), Fraction(1, 2), Fraction(1)}

    @pytest.mark.parametrize("forcing", [
        dict(forcing=parse_expression("sin(400*pi*t)")),
        dict(forcing=parse_expression("cos(3200*pi*t)")),
    ], ids=["zero-on-the-nested-grids", "constant-on-the-nested-grids"])
    def test_forcing_the_nested_grids_miss_is_resolved(self, forcing):
        # the doubled runs read sin(400 pi t) only where it is 0 up to 200
        # steps, and cos(3200 pi t) only where it is 1 up to 800 steps, so
        # two of them agree as if the forcing were that constant
        problem = OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=ALPHA2, **forcing)
        reference, _ = rk4_reference(problem, TABLE_POINTS)
        fine = rk4_integrate(problem, 2.5e-5)
        assert reference.times.size > 801
        points = np.array(TABLE_POINTS)
        assert np.abs(reference.value(points) - fine.value(points)).max() <= 1e-12

    def test_blowup_at_the_cap_raises(self, monkeypatch):
        steps = record_steps(monkeypatch, blow_up_at={102401})
        problem = OscillatorProblem(mu=0.0, a=1e6, b=0.0, alpha=ALPHA2, init_value=1.0)
        with pytest.raises(BlowupError, match="t = 0.102401"):
            rk4_reference(problem, TABLE_POINTS)
        assert steps[-1] == 102401

    def test_blowup_at_every_step_fails_the_ae_and_mae_columns(self, tmp_path, monkeypatch,
                                                               capsys):
        steps = record_steps(monkeypatch, blow_up_at=fobw.reference.REFERENCE_STEPS)
        payload, warnings = _run_json(tmp_path, capsys, {"a": 1.0, "init_value": 1.0}, code=1)
        assert steps == list(fobw.reference.REFERENCE_STEPS)
        assert payload["meta"]["failed_columns"] == ["AE gamma=1 M=3", "MAE gamma=1 M=3"]
        assert payload["columns"]["AE gamma=1 M=3"] == [None] * 5
        assert payload["columns"]["MAE gamma=1 M=3"] == [None] * 5
        assert all(payload["columns"]["residual gamma=1 M=3"])
        assert "reference_error" not in payload["meta"]
        assert warnings == ["RK4 reference failed, AE/MAE columns are NaN: "
                            "integration became non-finite after t = 0.102401"]

    def test_reference_that_never_settles_fails_the_ae_and_mae_columns(self, tmp_path,
                                                                       capsys):
        # the solve converges, but RK4 resolves sin(10^4 t) to 1e-12 at no step
        # count up to the cap: its last two runs differ by 3.7e-11
        doc = {"a": 1.0, "init_value": 1.0, "forcing": "sin(10000*t)"}
        payload, warnings = _run_json(tmp_path, capsys, doc, code=1)
        assert payload["meta"]["failed_columns"] == ["AE gamma=1 M=3", "MAE gamma=1 M=3"]
        assert payload["columns"]["AE gamma=1 M=3"] == [None] * 5
        assert all(payload["columns"]["residual gamma=1 M=3"])
        (warning,) = warnings
        assert warning.startswith("RK4 reference failed, AE/MAE columns are NaN: successive "
                                  "RK4 runs did not agree to 1e-12 x max(1, |y|) by 102401 steps")

    def test_stiff_oscillator_never_settles(self):
        # an angular frequency of 1000: RK4's error stays above 1e-12 even at the cap
        problem = OscillatorProblem(mu=0.0, a=1e6, b=0.0, alpha=ALPHA2, init_value=1.0)
        with pytest.raises(UnsettledError, match="by 102401 steps; the last two differ"):
            rk4_reference(problem, TABLE_POINTS)


def _run_json(tmp_path, capsys, doc, code):
    """``fobw solve`` of ``doc`` on the basis (1, 3, 1) with the AE, MAE and
    residual metrics, as parsed JSON, and its warning lines on stderr, which
    the table's ``meta`` holds too; asserts the exit code."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**doc, "basis": [[1, 3, 1.0]],
                                "metrics": ["AE", "MAE", "residual"]}))
    assert main(["solve", "--config", str(path), "--format", "json"]) == code
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    prefix = "[WARNING] fobw: "
    warnings = [line[len(prefix):] for line in captured.err.splitlines()
                if line.startswith(prefix)]
    assert warnings == payload["meta"]["warnings"]
    return payload, warnings


class TestAbsoluteError:
    def test_manufactured_case(self):
        approx = solve_problem(harmonic_problem(), WaveletBasisSpec(1, 5, 1.0))
        grid = np.linspace(0.0, 1.0, 101)
        assert np.abs(approx.value(grid) - np.cos(grid)).max() <= 1e-8


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
            assert residual(approx, t) <= 1e-13

    def test_constant_state_residual(self):
        problem = OscillatorProblem(mu=0.0, a=0.5, b=0.5, alpha=ALPHA2, init_value=1.0)
        spec = WaveletBasisSpec(1, 3, 1.0)
        approx = SolutionApproximant(problem, spec, np.zeros(4), None)
        for t in (0.2, 0.5, 0.9):
            assert residual(approx, t) == pytest.approx(1.0, abs=1e-14)

    def test_fractional_magnitude(self):
        problem = OscillatorProblem(
            mu=0.1, a=0.5, b=0.5, forcing=parse_expression("0.5*cos(0.79*t)"),
            alpha=1.5, init_value=1.0,
        )
        approx = solve_problem(problem, WaveletBasisSpec(1, 5, 0.2))
        assert residual(approx, 0.9) <= 1.9e-4


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
