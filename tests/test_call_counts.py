"""Call counts that pin the dense-evaluation path to whole-array work, and
the AE reference to its two RK4 runs.

No timing: each test counts the calls one operation makes to the function
that a per-point loop (or a needless RK4 run) would call once more, so such
work cannot come back unnoticed.
"""

import numpy as np
import pytest

from fobw import acceptance, fracops, reference, solver, special
from fobw.basis import WaveletBasisSpec
from fobw.experiments import (
    PLOT_GRID, PLOT_POINTS, PRESET_PROBLEMS, PRESET_SWEEP, TABLE_POINTS, ExperimentConfig,
    emit_plot_data, preset_config, run_experiment,
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
    # the forcing at a 1001-point probe of [0, 1] and at the same points
    assert (cfg.forcing, shape) in calls


def test_order_is_evaluated_once_per_point_set():
    alpha = Counted(parse_expression(VARIABLE))
    assemble(OscillatorProblem(alpha=alpha, **SINGLE_WELL),
             WaveletBasisSpec(1, 5, 0.2))
    assert alpha.calls == 1
    _approximant(alpha).evaluate(np.linspace(0.0, 1.0, 402)[1:])
    assert alpha.calls == 2


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_evaluate_makes_one_image_call(counted, name):
    images = counted(solver, "family_images")
    matrices = counted(fracops, "fobw_matrix")
    _approximant(ORDERS[name]).evaluate(np.linspace(0.0, 1.0, 402)[1:])
    assert images.calls == 1
    # the basis vectors are only needed as the Caputo rows of order 2
    assert matrices.calls == (1 if name == "two" else 0)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_assemble_makes_one_image_call(counted, name):
    images = counted(solver, "family_images")
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


def _rows(spec, plot=False):
    """The points of a run's images of ``spec``: its collocation grid, the
    table points, then the plot points."""
    parts = [solver.collocation_grid(spec), TABLE_POINTS] + [PLOT_GRID] * plot
    return np.concatenate(parts)


def _passes(images):
    """Per recorded :func:`fracops.family_images` call: its bases, the points
    each basis reads (its own, then the shared ones) and its orders."""
    passes = []
    for specs, lam, ts, own in images.args:
        ends = np.cumsum([0, *own])
        rows = [np.concatenate([ts[a:b], ts[ends[-1]:]]) for a, b in zip(ends, ends[1:])]
        passes.append((list(specs), rows, lam))
    return passes


def _check_rows(passes, plot=False):
    """Each basis of each pass reads exactly its own rows of a run."""
    for specs, rows, _ in passes:
        assert len(rows) == len(specs)
        assert all(np.array_equal(r, _rows(spec, plot)) for spec, r in zip(specs, rows))


def test_plot_data_makes_one_term_pass_per_family(counted):
    images = counted(solver, "family_images")
    cfg = preset_config(
        "example1-single", alpha=("1.5", VARIABLE, "2"),
        basis=((1, 3, 0.5), (2, 3, 0.5), (1, 4, 0.5)),
    )
    curves = []
    table = run_experiment(cfg, curves)
    emit_plot_data(curves)
    assert not table.meta["failed_columns"] and len(curves) == 9
    # three bases in two (k, gamma) families, three alpha columns each: one
    # pass per family serves the solves, the residual columns and the curves
    passes = _passes(images)
    assert [specs for specs, _, _ in passes] == [[cfg.specs[0], cfg.specs[2]], [cfg.specs[1]]]
    _check_rows(passes, plot=True)
    # I^1, I^2 and one Caputo order per alpha
    assert all(np.shape(lam)[0] == 2 + 3 for _, _, lam in passes)


def test_residual_table_makes_one_term_pass_per_family(counted):
    images = counted(solver, "family_images")
    cfg = preset_config(
        "example1-single", alpha=("1.5", VARIABLE, "2"), basis=((1, 3, 0.5), (2, 3, 0.5)),
    )
    table = run_experiment(cfg)
    assert not table.meta["failed_columns"]
    assert cfg.metrics == ("residual",) and len(table.columns) == 6
    # the six solves and the table's residual columns read the rows of one
    # pass per family, at the Chebyshev grid and then at the table points
    passes = _passes(images)
    assert [specs for specs, _, _ in passes] == [[spec] for spec in cfg.specs]
    _check_rows(passes)
    # I^1, I^2 and one Caputo order per alpha column
    assert [np.shape(lam)[0] for _, _, lam in passes] == [2 + 3, 2 + 3]


def test_ae_table_makes_one_term_pass_per_family(counted):
    images = counted(solver, "family_images")
    table = run_experiment(preset_config("example1-single", metrics=("AE", "MAE", "residual")))
    assert not table.meta["failed_columns"] and len(table.columns) == 9 + 2
    # one basis per gamma, each a family of its own; the AE and MAE values
    # come from the I^2 rows of the same pass
    passes = _passes(images)
    assert [[spec.gamma for spec in specs] for specs, _, _ in passes] == [
        [gamma] for gamma in PRESET_SWEEP["gamma"]
    ]
    _check_rows(passes)


@pytest.mark.parametrize("preset", sorted(PRESET_PROBLEMS))
def test_ae_table_runs_the_reference_at_401_and_800_steps_only(counted, preset):
    # every preset settles on its first pair of runs: a coarser rung of the
    # step ladder would show up here as a third sweep
    sweeps = counted(reference, "rk4_sweep")
    table = run_experiment(preset_config(preset))
    assert table.meta["metrics"] == ["AE"] and not table.meta["failed_columns"]
    assert [len(phi_half) for *_, phi_half in sweeps.args] == [401, 800]


def test_constant_order_family_makes_one_term_pass(counted):
    # the curves_const shape: four constant orders on two bases of one family
    images = counted(solver, "family_images")
    cfg = preset_config(
        "example1-single", alpha=("1.2", "1.4", "1.6", "1.8"), basis=((1, 3, 0.2), (1, 5, 0.2)),
    )
    curves = []
    table = run_experiment(cfg, curves)
    assert not table.meta["failed_columns"] and len(table.columns) == 8 and len(curves) == 8
    passes = _passes(images)
    assert [specs for specs, _, _ in passes] == [list(cfg.specs)]
    _check_rows(passes, plot=True)
    # I^1, I^2 and one Caputo order per alpha
    assert all(np.shape(lam)[0] == 2 + 4 for _, _, lam in passes)


def test_refinement_criterion_runs_one_table_per_preset(counted):
    runs = counted(acceptance, "run_experiment")
    images = counted(solver, "family_images")
    acceptance.criterion_05()
    assert runs.calls == len(acceptance.ALL_PRESETS)
    # M = 3 and M = 5 at gamma = 0.2 are one family: one pass per preset,
    # for both bases and the four alphas at once
    passes = _passes(images)
    assert [[(s.k, s.M, s.gamma) for s in specs] for specs, _, _ in passes] == [
        [(1, 3, 0.2), (1, 5, 0.2)]
    ] * len(acceptance.ALL_PRESETS)
    _check_rows(passes)
    assert [np.shape(lam)[0] for _, _, lam in passes] == [2 + 4] * 4


@pytest.mark.parametrize("block", [None, 40], ids=["one block", "blocks of 40 points"])
def test_a_family_forms_each_power_once_at_its_largest_M(counted, monkeypatch, block):
    # the terms, and with them every long-double power (T s)**p and s**lam,
    # are formed once per (point, cell, term) of the family, at its largest
    # M: in one call when they fit in one block, and otherwise each basis's
    # own points in blocks of their own and the shared points once for all
    # three bases
    terms = counted(fracops, "_image_terms")
    cfg = preset_config(
        "example1-single", alpha=("1.5", VARIABLE), basis=((2, 5, 0.5), (2, 1, 0.5), (2, 3, 0.5)),
    )
    if block is not None:
        monkeypatch.setattr(fracops, "IMAGE_BLOCK", block * (2 + 2) * 2 * 6)
    run_experiment(cfg, [])
    specs = cfg.specs
    expected = np.concatenate([*map(solver.collocation_grid, specs), TABLE_POINTS, PLOT_GRID])
    assert all(spec == WaveletBasisSpec(2, 5, 0.5) for spec, _, _ in terms.args)
    formed = np.concatenate([pts for _, _, pts in terms.args])
    assert np.array_equal(np.sort(formed), np.sort(expected))
    # the own points of the three bases, then the table and plot points
    sizes = (24, 8, 16, len(TABLE_POINTS) + PLOT_POINTS)
    assert terms.calls == (1 if block is None else sum(-(-n // block) for n in sizes))


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


def test_cut_factors_form_z_powers_once_per_point_cell_and_term(counted):
    # z and y depend on the (point, cell) pair alone, and a constant order on
    # its row alone: betainc takes them on axes of their own, so z**(p+1),
    # formed on the broadcast of z and the exponents, has one entry per
    # (point, cell, term) however many orders share the call, and the gamma
    # values one per (order, term)
    betas = counted(fracops, "betainc")
    spec = WaveletBasisSpec(3, 4, 0.5)
    ts = np.linspace(0.0, 1.0, 41)[1:]
    pairs = int(np.sum(ts[:, None] > np.arange(1, 4) / 4))
    for lams in ([[0.5]], [[1.0], [2.0], [0.0], [0.3], [0.5], [0.7]]):
        fracops.basis_images(spec, lams, ts)
    assert betas.calls == 2
    for exps, lam, z, y in betas.args:
        assert np.broadcast_shapes(exps.shape, z.shape) == (pairs, spec.M + 1)
        assert z.shape == y.shape == (pairs, 1)
    # one row per order but order 0, the identity, which has no factors
    assert [lam.shape for _, lam, _, _ in betas.args] == [(1, 1, 1), (5, 1, 1)]


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


def test_incomplete_beta_takes_its_gamma_values_in_three_calls(counted):
    # gamma(a + b), gamma(a) and gamma(b), each on its operand's own shape:
    # 3 rows of b against 6 values of a, the whole row of b included
    gammas = counted(special, "gamma_array")
    special.betainc(np.linspace(0.5, 3.0, 6), np.array([[0.5], [1.0], [2.5]]), 0.4)
    assert gammas.calls == 3
    assert [np.shape(v) for (v,) in gammas.args] == [(3, 6), (6,), (3, 1)]
