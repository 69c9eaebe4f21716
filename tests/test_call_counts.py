"""Call counts that pin the dense-evaluation path to whole-array work.

No timing: each test counts the calls one operation makes to the function
that a per-point loop would call once per point, so such a loop cannot come
back unnoticed.
"""

import numpy as np
import pytest

from fobw import acceptance, fracops, solver, special
from fobw.basis import WaveletBasisSpec
from fobw.experiments import (
    PLOT_POINTS, PRESET_PROBLEMS, TABLE_POINTS, ExperimentConfig, emit_plot_data,
    preset_config, run_experiment,
)
from fobw.expr import Expression, parse_expression
from fobw.solver import OscillatorProblem, SolutionApproximant, assemble


class Counted:
    """A callable that counts its calls and forwards them."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.args = []

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.args.append(args)
        return self.fn(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Replace ``module.name`` by a counting wrapper and return the wrapper."""

    def install(module, name):
        wrapper = Counted(getattr(module, name))
        monkeypatch.setattr(module, name, wrapper)
        return wrapper

    return install


VARIABLE = "1.5 + 0.3*sin(4*t)"
#: example1-single's problem parameters, its forcing parsed
SINGLE_WELL = dict(PRESET_PROBLEMS["example1-single"],
                   forcing=parse_expression(PRESET_PROBLEMS["example1-single"]["forcing"]))


def _approximant(alpha, k=2, M=4):
    spec = WaveletBasisSpec(k, M, 0.5)
    problem = OscillatorProblem(alpha=alpha, **SINGLE_WELL)
    U = np.random.default_rng(k).normal(0.0, 1.0, spec.sigma_tilde)
    return SolutionApproximant(problem, spec, U, None)


ORDERS = {
    "constant": 1.5,
    "two": 2.0,
    "variable": parse_expression(VARIABLE),
}


def test_config_checks_each_expression_order_in_one_array_call(monkeypatch):
    calls = []
    call = Expression.__call__

    def counted(self, t):
        calls.append((self.source, np.shape(t)))
        return call(self, t)

    monkeypatch.setattr(Expression, "__call__", counted)
    cfg = ExperimentConfig(alpha=(VARIABLE, "1.5", "1 + sin(t)"), basis=((1, 3, 0.5), (2, 3, 0.2)))
    # one call per expression order, at the 1001-point range probe of (0, 1]
    # and at the points the probe may miss: the output grid, the 4 + 2*4
    # collocation points of the two bases and the plot points
    shape = (1001 + len(cfg.output_grid) + 4 + 2 * 4 + PLOT_POINTS,)
    orders = [(source, n) for source, n in calls if source != cfg.forcing]
    assert orders == [(VARIABLE, shape), ("1 + sin(t)", shape)]


def test_order_is_evaluated_once_per_point_set():
    alpha = Counted(parse_expression(VARIABLE))
    assemble(OscillatorProblem(alpha=alpha, **SINGLE_WELL),
             WaveletBasisSpec(1, 5, 0.2))
    assert alpha.calls == 1
    _approximant(alpha).evaluate(np.linspace(0.0, 1.0, 402)[1:])
    assert alpha.calls == 2


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_evaluate_makes_one_image_call(counted, name):
    images = counted(solver, "basis_images")
    matrices = counted(fracops, "fobw_matrix")
    _approximant(ORDERS[name]).evaluate(np.linspace(0.0, 1.0, 402)[1:])
    assert images.calls == 1
    # the basis vectors are only needed as the Caputo rows of order 2
    assert matrices.calls == (1 if name == "two" else 0)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_assemble_makes_one_image_call(counted, name):
    images = counted(solver, "basis_images")
    assemble(OscillatorProblem(alpha=ORDERS[name], **SINGLE_WELL),
             WaveletBasisSpec(2, 3, 0.5))
    assert images.calls == 1


@pytest.mark.parametrize("method, image_calls, matrix_calls", [("value", 1, 0)])
def test_one_point_methods_build_only_their_matrix(counted, method, image_calls, matrix_calls):
    images = counted(solver, "basis_images")
    matrices = counted(fracops, "fobw_matrix")
    getattr(_approximant(ORDERS["constant"]), method)(np.linspace(0.1, 1.0, 10))
    assert (images.calls, matrices.calls) == (image_calls, matrix_calls)
    # one order, not a stack of orders of which only one is kept
    assert all(np.ndim(lam) <= 1 for _, lam, _ in images.args)


def test_plot_data_makes_one_image_call_per_basis(counted):
    images = counted(solver, "basis_images")
    labeled = [
        (f"{k} {M} {name}", _approximant(ORDERS[name], k, M))
        for k, M in ((1, 3), (2, 3), (1, 4))
        for name in sorted(ORDERS)
    ]
    emit_plot_data(labeled)
    # three bases, three alpha columns each
    assert images.calls == 3
    # I^1, I^2 and one Caputo order per column
    assert all(np.shape(lam)[0] == 2 + len(ORDERS) for _, lam, _ in images.args)


def test_residual_table_makes_one_image_call_per_basis(counted):
    images = counted(solver, "basis_images")
    cfg = preset_config(
        "example1-single", alpha=("1.5", VARIABLE, "2"), basis=((1, 3, 0.5), (2, 3, 0.5)),
    )
    table = run_experiment(cfg)
    assert not table.meta["failed_columns"]
    assert cfg.metrics == ("residual",) and len(table.columns) == 6
    # the six solves assemble at their Chebyshev grids and the table's residual
    # columns are sampled at its grid, one call per basis each
    points = np.array(table.grid)
    at_table = [lam for _, lam, ts in images.args if np.array_equal(ts, points)]
    assert images.calls == 2 + 2
    # I^1, I^2 and one Caputo order per alpha column
    assert [np.shape(lam)[0] for lam in at_table] == [2 + 3, 2 + 3]


def test_constant_order_family_assembles_once_per_basis(counted):
    # the curves_const shape: four constant orders on two bases
    images = counted(solver, "basis_images")
    cfg = preset_config(
        "example1-single", alpha=("1.2", "1.4", "1.6", "1.8"), basis=((1, 3, 0.2), (1, 5, 0.2)),
    )
    table = run_experiment(cfg)
    assert not table.meta["failed_columns"] and len(table.columns) == 8
    assembly = [
        (spec, lam) for spec, lam, ts in images.args
        if np.array_equal(ts, solver.collocation_grid(spec))
    ]
    assert [spec for spec, _ in assembly] == list(cfg.specs)
    # I^1, I^2 and one Caputo order per alpha
    assert all(np.shape(lam)[0] == 2 + 4 for _, lam in assembly)


def test_refinement_criterion_runs_one_table_per_preset(counted):
    runs = counted(acceptance, "run_experiment")
    images = counted(solver, "basis_images")
    acceptance.criterion_05()
    assert runs.calls == len(acceptance.ALL_PRESETS)
    # one residual sample per preset and basis, each for the four alphas at once
    points = np.array(TABLE_POINTS)
    at_table = [lam for _, lam, ts in images.args if np.array_equal(ts, points)]
    assert [np.shape(lam)[0] for lam in at_table] == [2 + 4] * 8


@pytest.mark.parametrize("points", [1, 7, 401])
def test_one_image_call_makes_at_most_one_gamma_ratio_call(counted, points):
    ratios = counted(fracops, "gamma_ratio")
    ts = np.linspace(0.0, 1.0, points + 1)[1:]
    variable = ORDERS["variable"](ts)
    lams = np.stack(np.broadcast_arrays(1.0, 2.0, 0.0, 0.3, 0.7, 1.1, 2.0 - variable))
    spec = WaveletBasisSpec(2, 4, 0.5)
    fracops.basis_images(spec, lams, ts)
    assert ratios.calls == 1
    ratios.calls = 0
    fracops.basis_images(spec, 0.0, ts)
    assert ratios.calls <= 1


def test_whole_offsets_take_no_gamma_values(counted):
    gammas = counted(special, "gamma_array")
    special.gamma_ratio(np.linspace(0.5, 3.0, 6), np.array([[1.0], [2.0]]))
    assert gammas.calls == 0
    special.gamma_ratio(np.linspace(0.5, 3.0, 6), 0.5)
    assert gammas.calls == 2


def test_variable_order_images_take_gamma_once_per_exponent(counted):
    # gamma(x) is taken on the M+1 exponents alone; only gamma(x + d) is
    # taken per (distinct order, exponent) entry
    gammas = counted(special, "gamma_array")
    ts = np.linspace(0.0, 1.0, 402)[1:]
    lams = np.stack(np.broadcast_arrays(1.0, 2.0, 2.0 - ORDERS["variable"](ts)))
    spec = WaveletBasisSpec(1, 5, 0.2)
    fracops.basis_images(spec, lams, ts)
    (top,), (bottom,) = gammas.args
    assert np.shape(top) == (spec.M + 1,)
    assert np.shape(bottom) == (np.unique(lams).size, spec.M + 1) == (403, spec.M + 1)


def test_incomplete_beta_takes_its_gamma_values_in_one_call(counted):
    gammas = counted(special, "gamma_array")
    special.betainc(np.linspace(0.5, 3.0, 6), np.array([[0.5], [1.0], [2.5]]), 0.4)
    assert gammas.calls == 1
