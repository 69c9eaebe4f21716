import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fobw.experiments import (
    PLOT_GRID,
    PLOT_POINTS,
    PRESET_PROBLEMS,
    ErrorTable,
    ExperimentConfig,
    basis_sweep,
    build_order,
    emit_plot_data,
    emit_table,
    order_label,
    preset_config,
    render_csv,
    run_experiment,
)
from fobw.expr import Expression, parse_expression
from fobw.reference import rk4_reference
from fobw.solver import solve_problem

# cells whose text a format could get wrong: subnormals, rounding ties near
# a power of ten, neighbours of 1, signed zero and the non-finite values
EDGE_VALUES = np.array([
    0.0, 5e-324, 1e-300, 9.999995e-05, 1e100, 1.0, np.nextafter(1.0, 0.0),
    np.nextafter(1.0, 2.0), 0.999995, 1.000005, 1.2345649999999999, -0.0,
    math.inf, math.nan,
])


class TestConfig:
    def test_preset_defaults(self):
        cfg = preset_config("example1-single")
        assert cfg.metrics == ("AE",)
        assert cfg.basis == ((1, 5, 0.5), (1, 5, 0.9), (1, 5, 1.0))
        assert cfg.preset == "example1-single"
        assert cfg.output_grid == (0.1, 0.3, 0.5, 0.7, 0.9)

    def test_fractional_alpha_switches_to_residual(self):
        cfg = preset_config("example1-single", alpha=("1.5",), basis=((1, 5, 0.2),))
        assert cfg.metrics == ("residual",)
        table = run_experiment(cfg)
        assert not any(label.endswith("(published)") for label in table.columns)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("example3")

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.lists(st.sampled_from([2, "2.0", 1.5, "1 + sin(t)"]), min_size=1,
                          max_size=3, unique_by=lambda a: order_label(build_order(a))))
    def test_default_metric_is_the_same_on_both_routes(self, alpha):
        expected = ("AE",) if set(alpha) <= {2, "2.0"} else ("residual",)
        assert ExperimentConfig(alpha=alpha).metrics == expected
        assert preset_config("example2", alpha=alpha).metrics == expected

    @pytest.mark.parametrize(
        "preset, raw, message",
        [
            ("example1-single", {"mu": 3, "a": 2}, "has mu = 0.1, not 3"),
            ("example1-single", {"forcing": "0.5 * cos(0.79 * t)"},
             "has forcing = '0.5\\*cos\\(0.79\\*t\\)', not '0.5 \\* cos"),
            ("example2", {"forcing": "0.5*cos(0.79*t)"},
             "preset 'example2' has forcing = '0', not '0.5\\*cos"),
        ],
    )
    def test_config_naming_a_preset_must_hold_its_problem(self, preset, raw, message):
        settings = dict(PRESET_PROBLEMS[preset], preset=preset, **raw)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**settings)

    def test_from_dict_round_trip(self):
        raw = {
            "mu": 0.1, "a": 0.5, "b": 0.5, "forcing": "0.5*cos(0.79*t)", "init_value": 1.0,
            "alpha": [2.0], "basis": [[1, 5, 1.0]],
            "metrics": ["AE"],
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.basis == ((1, 5, 1.0),)
        assert cfg.alpha == (2.0,)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"nonsense": 1})

    def test_ae_requires_integer_order(self):
        raw = {"a": 1.0, "alpha": [1.5], "metrics": ["AE"]}
        with pytest.raises(ValueError, match="alpha identically 2"):
            ExperimentConfig.from_dict(raw)

    def test_alpha_expression_range_checked(self):
        raw = {"a": 1.0, "alpha": ["3 - t"], "metrics": ["residual"]}
        with pytest.raises(ValueError, match=r"alpha\(0\.000999001\) = 2\.999 outside \(1, 2\]"):
            ExperimentConfig.from_dict(raw)

    def test_bad_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            ExperimentConfig.from_dict({"metrics": ["RMSE"]})

    def test_repeated_metric_is_refused(self):
        # it would be one column, listed twice in the table's meta
        with pytest.raises(ValueError, match="duplicate metric: 'AE'"):
            ExperimentConfig.from_dict({"metrics": ["AE", "AE", "MAE"]})

    def test_forcing_expression_must_be_total(self):
        raw = {
            "a": 1.0, "forcing": "1 / (t - 0.5)", "alpha": [2.0],
            "metrics": ["residual"],
        }
        with pytest.raises(ValueError, match="not finite"):
            ExperimentConfig.from_dict(raw)

    def test_forcing_pole_at_a_plot_point_is_refused(self):
        # the first plot point, which no other checked point meets: the run's
        # curve would start with inf
        with pytest.raises(ValueError, match=r"not finite everywhere on \[0, 1\]"):
            ExperimentConfig(a=1.0, init_value=1.0, alpha=1.5, basis=((1, 3, 0.5),),
                             forcing="1/(t-0.0024937655860349127)")

    def test_forcing_expression_accepted(self):
        raw = {
            "a": 1.0, "forcing": "0.5 * cos(0.79 * t)", "alpha": [2.0],
            "init_value": 1.0, "basis": [[1, 5, 1.0]],
            "metrics": ["residual"],
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.problems[0].forcing(0.0) == pytest.approx(0.5)

    def test_direct_construction_is_checked(self):
        with pytest.raises(ValueError, match="unknown metric"):
            ExperimentConfig(metrics=("RMSE",))

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match="alpha identically 2"):
            replace(preset_config("example1-single"), alpha=("1.5",))

    def test_direct_construction_normalizes_basis(self):
        cfg = ExperimentConfig(basis=[[1, 3, 1], (1, 5.0, 0.5)], alpha="1.5",
                               metrics=["residual"])
        assert cfg.basis == ((1, 3, 1.0), (1, 5, 0.5))
        assert [type(v) for v in cfg.basis[0]] == [int, int, float]
        assert cfg.alpha == ("1.5",) and cfg.metrics == ("residual",)
        # a basis entry is a list of three numbers, never a mapping
        with pytest.raises(ValueError, match="is not three numbers"):
            ExperimentConfig(basis=[[1, 3, 1], {"M": 5.0, "gamma": 0.5}], alpha="1.5",
                             metrics=["residual"])

    def test_lone_grid_point_and_metric_are_one_entry(self):
        cfg = ExperimentConfig.from_dict({"a": 1.0, "output_grid": 0.5, "metrics": "AE"})
        assert cfg.output_grid == (0.5,) and cfg.metrics == ("AE",)

    def test_array_grid_holds_its_points(self):
        cfg = ExperimentConfig(a=1.0, output_grid=np.array([0.25, 0.75]))
        assert cfg.output_grid == (0.25, 0.75)

    @pytest.mark.parametrize("key, value",
                             [("alpha", 1.5), ("output_grid", 0.5), ("metrics", "residual")])
    def test_zero_dimensional_array_is_one_entry(self, key, value):
        # a fractional order, so the residual metric is valid
        base = {"a": 1.0, "alpha": 1.5}
        cfg = ExperimentConfig(**{**base, key: np.array(value)})
        assert cfg == ExperimentConfig(**{**base, key: value})
        assert getattr(cfg, key) == (value,)

    def test_holds_one_problem_per_alpha_and_one_spec_per_basis(self):
        cfg = preset_config("example2", alpha=("1.5", "1 + sin(t)"),
                            basis=((1, 3, 0.5), (2, 3, 0.2)))
        assert [order_label(p.alpha) for p in cfg.problems] == ["1.5", "1 + sin(t)"]
        assert all(p.b == 0.01 and p.init_value == 2.0 for p in cfg.problems)
        assert [(s.k, s.M, s.gamma) for s in cfg.specs] == [(1, 3, 0.5), (2, 3, 0.2)]

    def test_build_order_variants(self):
        # a number, numpy's too, and an expression that is one number are a float
        for entry in (2, 2.0, np.int64(2), "2", "(2)", " 2.0 "):
            assert type(build_order(entry)) is float and build_order(entry) == 2.0
        assert build_order(np.float64(1.5)) == build_order("1.5") == 1.5
        variable = build_order("1 + sin(t)")
        assert isinstance(variable, Expression) and variable == parse_expression("1 + sin(t)")
        assert variable(0.5) == pytest.approx(1.0 + math.sin(0.5))

    def test_labels_of_each_kind_of_order(self):
        # what the column labels and the alpha meta key read for each kind of
        # entry; the golden presets only hold lone numbers and tidy expressions
        cfg = preset_config("example1-single", basis=((1, 3, 0.5),),
                            alpha=(2, "1.50", " 1 + sin(t) ", "(1.25)", 1.2345678, "2*0.9"))
        table = run_experiment(cfg)
        labels = ["2", "1.5", "1 + sin(t)", "1.25", "1.23457", "2*0.9"]
        assert not table.meta["failed_columns"] and table.meta["alpha"] == labels
        assert list(table.columns) == [f"residual gamma=0.5 M=3 alpha={a}" for a in labels]
        with pytest.raises(ValueError, match="duplicate .* 'gamma=1 M=5 alpha=2'"):
            ExperimentConfig(alpha=(2, "2.0"))


# a value for a numeric config key: numbers of every size, NaN, +-inf, strings, None
NUMBER = st.one_of(st.floats(), st.integers(), st.text(max_size=3), st.none())


def _entries_of(strategy):
    """A lone value or a short list of values, as a config file may hold them."""
    return st.one_of(strategy, st.lists(strategy, max_size=3))


CONFIG = st.fixed_dictionaries(
    {},
    optional={
        **{key: NUMBER for key in ("mu", "a", "b", "init_value", "init_slope")},
        "forcing": st.sampled_from(
            sorted({p["forcing"] for p in PRESET_PROBLEMS.values()}) + ["0.5 * cos(t)"]
        ),
        "alpha": _entries_of(st.one_of(NUMBER, st.sampled_from(["1 + sin(t)", "2"]))),
        "basis": _entries_of(st.tuples(st.integers(1, 3), st.integers(0, 3), NUMBER)),
        "output_grid": _entries_of(NUMBER),
        "metrics": _entries_of(st.sampled_from(["AE", "MAE", "residual", "A"])),
    },
)


class TestAnyConfig:
    """Every config is either rejected when it is built or runs to a table."""

    @settings(max_examples=40, deadline=None)
    @given(raw=CONFIG)
    @example(raw={"mu": "abc"})
    @example(raw={"mu": None})
    @example(raw={"init_value": "1"})
    @example(raw={"f": 0.5, "omega": 0.79})
    @example(raw={"forcing": "forced"})
    @example(raw={"forcing": 0.5})
    @example(raw={"output_grid": [0.5, "x"]})
    @example(raw={"output_grid": [0.5, None]})
    @example(raw={"output_grid": 0.5})
    @example(raw={"metrics": "AE"})
    @example(raw={"mu": 0, "a": 0, "b": -50, "init_value": 2, "metrics": ["AE"],
                  "basis": [[1, 5, 1.0]]})
    @example(raw={"alpha": "1.5 + 0.6*sin(1001*pi*t)^1000", "basis": [[1, 3, 0.2]],
                  "metrics": ["residual"]})
    @example(raw={"mu": True})
    @example(raw={"output_grid": [0.5, True]})
    @example(raw={"forcing": "0.5", "a": 1.0, "init_value": 1.0})
    @example(raw={"forcing": "1/0"})
    @example(raw={"reference": "none", "metrics": ["residual"]})
    @example(raw={"reference_step": 0})
    @example(raw=[])
    @example(raw=None)
    @example(raw={"init_value": 1.7976931348623157e+308})
    def test_rejected_or_runs(self, raw):
        try:
            cfg = ExperimentConfig.from_dict(raw)
        except ValueError:
            return
        table = run_experiment(cfg)
        assert isinstance(table, ErrorTable)
        assert set(table.meta["failed_columns"]) <= set(table.columns)


class TestResolvedOnce:
    """A config builds each alpha entry's order and its forcing once, when it
    is built, and a run reads them from the config."""

    def test_solve_parses_the_forcing_once(self, tmp_path, monkeypatch, capsys):
        import fobw.experiments
        from fobw.cli import main

        forcing = "0.5 * cos(0.79 * t)"
        texts = []
        parse = fobw.experiments.parse_expression

        def counted(text):
            texts.append(text)
            return parse(text)

        monkeypatch.setattr(fobw.experiments, "parse_expression", counted)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "a": 1.0, "forcing": forcing, "init_value": 1.0,
            "alpha": [1.5, "1 + sin(t)", 2.0], "basis": [[1, 3, 0.5]],
            "metrics": ["residual"],
        }))
        assert main(["solve", "--config", str(path)]) == 0
        assert texts.count(forcing) == 1
        assert texts.count("1 + sin(t)") == 1

    def test_each_preset_run_builds_each_expression_order_once(self, monkeypatch, capsys):
        import fobw.experiments
        from fobw.cli import main

        entries = []
        build = fobw.experiments.build_order

        def counted(entry):
            entries.append(entry)
            return build(entry)

        monkeypatch.setattr(fobw.experiments, "build_order", counted)
        argv = ["preset", "example1-single", "--alpha", "1.5,1 + sin(t),1.2 + 0.5*t",
                "--gamma", "0.5", "--M", "3"]
        # twice in one process: no cache may stand in for building once per run
        for _ in range(2):
            entries.clear()
            assert main(argv) == 0
            assert sorted(entries) == ["1 + sin(t)", "1.2 + 0.5*t", "1.5"]


class TestRunExperiment:
    def test_single_well_table_shape(self):
        table = run_experiment(preset_config("example1-single"))
        assert not table.meta["failed_columns"]
        assert table.grid == (0.1, 0.3, 0.5, 0.7, 0.9)
        labels = list(table.columns)
        assert labels[:3] == ["AE gamma=0.5 M=5", "AE gamma=0.9 M=5", "AE gamma=1 M=5"]
        assert labels[3:] == ["UWS (published)", "LWPS (published)"]
        for vals in table.columns.values():
            assert all(np.isfinite(vals))
        assert max(table.columns["AE gamma=1 M=5"]) < 1e-5

    def test_a_wide_M_sweep_takes_bounded_memory(self):
        # eight bases of one (k, gamma) family with curves: the family holds
        # the terms of the shared table and plot points and one basis's
        # images at a time.  One image call per basis peaked at 17.6 MiB
        # here; one term pass per family takes 12.4 MiB.
        cfg = preset_config("example1-single", alpha=("1.5",),
                            basis=basis_sweep(4, range(1, 16, 2), (0.5,)))
        curves = []
        tracemalloc.start()
        try:
            table = run_experiment(cfg, curves)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not table.meta["failed_columns"] and len(curves) == 8
        assert peak < 16 * 2**20

    def test_residual_sweep_shape(self):
        cfg = preset_config(
            "example1-single",
            alpha=("1.5",),
            basis=tuple((1, 5, g) for g in (0.1, 0.2, 0.3, 0.5, 0.9, 1.0)),
        )
        table = run_experiment(cfg)
        assert not table.meta["failed_columns"]
        assert len(table.columns) == 6

    def test_trivial_config_zero_residual(self):
        cfg = ExperimentConfig.from_dict(
            {
                "mu": 0.0, "a": 0.0, "b": 0.0, "init_value": 1.0,
                "alpha": [2.0], "basis": [[1, 3, 1.0]],
                "metrics": ["residual"],
            }
        )
        table = run_experiment(cfg)
        assert not table.meta["failed_columns"]
        assert max(next(iter(table.columns.values()))) <= 1e-13

    def test_mae_column_is_constant(self):
        cfg = ExperimentConfig.from_dict(
            {
                "mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
                "alpha": [2.0], "basis": [[1, 5, 1.0]],
                "metrics": ["AE", "MAE"],
            }
        )
        table = run_experiment(cfg)
        assert not table.meta["failed_columns"]
        mae_col = table.columns["MAE gamma=1 M=5"]
        ae_col = table.columns["AE gamma=1 M=5"]
        assert len(set(mae_col)) == 1
        assert mae_col[0] == pytest.approx(max(ae_col))

    def test_failed_solve_leaves_sentinel_column(self, monkeypatch):
        import fobw.experiments as experiments_module
        from fobw.solver import SolverError

        def refuse(system):
            raise SolverError("forced failure for the test", None)

        monkeypatch.setattr(experiments_module, "solve_system", refuse)
        cfg = ExperimentConfig.from_dict(
            {
                "mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
                "alpha": [2.0], "basis": [[1, 3, 1.0]],
                "metrics": ["residual"],
            }
        )
        table = run_experiment(cfg)
        assert table.meta["failed_columns"]
        column = next(iter(table.columns.values()))
        assert all(math.isnan(v) for v in column)
        assert table.meta["failed_columns"]

    def test_single_point_basis_warns_once_per_basis(self):
        cfg = ExperimentConfig.from_dict(
            {"mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
             "alpha": [2.0, 1.5], "basis": [[1, 0, 1.0]], "metrics": ["residual"]}
        )
        table = run_experiment(cfg)
        assert table.meta["warnings"] == [
            "basis gamma=1 M=0: a single collocation point cannot represent oscillation"
        ]
        assert not table.meta["failed_columns"]

    def test_reference_blowup_fails_the_ae_columns_only(self, monkeypatch):
        import fobw.experiments as experiments_module
        from fobw.reference import BlowupError

        def blow_up(problem, points):
            raise BlowupError("integration became non-finite after t = 0.131300", 0.1313)

        monkeypatch.setattr(experiments_module, "rk4_reference", blow_up)
        cfg = ExperimentConfig.from_dict(
            {"a": 1.0, "init_value": 1.0, "basis": [[1, 3, 1.0]],
             "metrics": ["AE", "MAE", "residual"]}
        )
        table = run_experiment(cfg)
        assert table.meta["failed_columns"]
        assert table.meta["failed_columns"] == ["AE gamma=1 M=3", "MAE gamma=1 M=3"]
        for label in table.meta["failed_columns"]:
            assert all(math.isnan(v) for v in table.columns[label])
        alone = run_experiment(replace(cfg, metrics=("residual",)))
        assert table.columns["residual gamma=1 M=3"] == alone.columns["residual gamma=1 M=3"]
        warnings = table.meta["warnings"]
        assert len(warnings) == 1 and "t = 0.131300" in warnings[0]

    def test_collects_converged_curves(self):
        # example1-single at alpha = 1.5 stalls on k = 1, M = 8, gamma = 2
        cfg = preset_config(
            "example1-single", alpha=("1.5", "1.8"),
            basis=((1, 3, 0.2), (2, 3, 0.2), (1, 8, 2.0)),
        )
        curves = []
        table = run_experiment(cfg, curves)
        assert table.meta["failed_columns"] == ["residual gamma=2 M=8 alpha=1.5"]
        # a curve per converged solve, in the order of the table's columns
        assert [label for label, _ in curves] == [
            "residual gamma=0.2 M=3 alpha=1.5",
            "residual k=2 gamma=0.2 M=3 alpha=1.5",
            "residual gamma=0.2 M=3 alpha=1.8",
            "residual k=2 gamma=0.2 M=3 alpha=1.8",
            "residual gamma=2 M=8 alpha=1.8",
        ]
        assert all(curve.shape == (PLOT_POINTS,) and np.all(np.isfinite(curve))
                   for _, curve in curves)

    def test_duplicate_combination_rejected(self):
        raw = {
            "mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
            "alpha": [2.0], "basis": [[1, 5, 1.0], [1, 5, 1.0]],
            "metrics": ["residual"],
        }
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig.from_dict(raw)


class TestEmission:
    def test_tiny_csv(self):
        table = ErrorTable((0.5,), {"only": (1.25e-7,)}, {})
        text = render_csv(table)
        assert text == "t,only\n0.5,1.25000e-07\n"

    def test_cells_format_as_per_cell_formats_do(self):
        grid = sorted({v for v in EDGE_VALUES.tolist() if math.isfinite(v)})
        n = len(grid)
        # between them the two columns hold every edge value; they are marked
        # failed, so their non-finite cells are allowed
        columns = {"a": EDGE_VALUES[:n], "b": EDGE_VALUES[-n:]}
        table = ErrorTable(grid, columns, {"failed_columns": ["a", "b"]})
        lines = ["t,a,b"] + [
            ",".join([f"{t:.6g}"] + [f"{columns[c][i]:.5e}" for c in "ab"])
            for i, t in enumerate(grid)
        ]
        assert render_csv(table) == "\n".join(lines) + "\n"

    def test_csv_is_deterministic(self):
        table = run_experiment(preset_config("example1-single"))
        assert render_csv(table) == render_csv(table)

    def test_json_round_trip(self):
        table = ErrorTable(
            (0.1, 0.9),
            {"a": (1.0, 2.0), "b": (0.25, 0.125)},
            {"preset": None, "note": "x"},
        )
        payload = json.loads(emit_table(table, "json", None))
        again = ErrorTable(
            tuple(payload["grid"]),
            {label: tuple(vals) for label, vals in payload["columns"].items()},
            payload["meta"],
        )
        assert again == table

    def test_json_is_strict_and_non_finite_cells_are_null(self):
        table = ErrorTable((0.1, 0.9), {"ok": (1.0, 2.0), "bad": (math.nan, math.inf)},
                           {"failed_columns": ["bad"]})

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(emit_table(table, "json", None), parse_constant=refuse)
        assert payload["columns"] == {"ok": [1.0, 2.0], "bad": [None, None]}

    def test_write_to_file(self, tmp_path):
        table = ErrorTable((0.5,), {"c": (1.0,)}, {})
        path = tmp_path / "out.csv"
        emit_table(table, "csv", str(path))
        assert path.read_text().startswith("t,c")

    def test_unknown_format_rejected(self):
        table = ErrorTable((0.5,), {"c": (1.0,)}, {})
        with pytest.raises(ValueError, match="format must be 'csv' or 'json'"):
            emit_table(table, "xml", None)

    def test_write_failure_reports_path(self, tmp_path):
        table = ErrorTable((0.5,), {"c": (1.0,)}, {})
        missing = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            emit_table(table, "csv", str(missing))


class TestPlotData:
    def test_single_configuration(self):
        cfg = preset_config("example1-single", alpha=("1.5",), basis=((1, 5, 0.2),))
        curves = []
        run_experiment(cfg, curves)
        text = emit_plot_data(curves)
        lines = text.strip().split("\n")
        assert lines[0] == "t,residual gamma=0.2 M=5 alpha=1.5"
        assert len(lines) == 402
        last_t = float(lines[-1].split(",")[0])
        assert last_t == pytest.approx(1.0)

    def test_no_curves_is_a_one_column_csv(self):
        lines = emit_plot_data([]).split("\n")
        assert lines[:3] == ["t", "0.0024937656", "0.0049875312"]
        assert lines[-2:] == ["1", ""]
        assert len(lines) == PLOT_POINTS + 2 and not any("," in line for line in lines)

    def test_cells_format_as_numpy_scalars_do(self):
        values = np.resize(EDGE_VALUES, PLOT_POINTS)
        curves = [values, values[::-1].copy()]
        text = emit_plot_data([("a", curves[0]), ("b", curves[1])])
        grid = np.linspace(0.0, 1.0, PLOT_POINTS + 1)[1:]
        lines = ["t,a,b"] + [
            ",".join([format(t, ".8g")] + [format(np.float64(c[i]), ".5e") for c in curves])
            for i, t in enumerate(grid)
        ]
        assert text == "\n".join(lines) + "\n"

    def test_four_order_family(self):
        cfg = preset_config("example1-single", alpha=("1.2", "1.4", "1.6", "1.8"),
                            basis=((1, 5, 0.2),))
        curves = []
        run_experiment(cfg, curves)
        header = emit_plot_data(curves).split("\n", 1)[0]
        assert header.count(",") == 4

    @pytest.mark.parametrize(
        "alpha, metrics",
        [(("1.5", "1 + sin(t)", "2"), ("residual",)), (("2",), ("AE", "MAE", "residual"))],
        ids=["fractional", "integer"],
    )
    def test_one_call_columns_and_curves_equal_the_standalone_route(self, alpha, metrics):
        # constant, variable and integer order on k = 1 and k = 2 bases: the
        # run reads its solves, columns and curves of one basis from the rows
        # of one image call, and each must come out exactly as the standalone
        # route gives it, from an approximant solved and evaluated on its own
        cfg = preset_config("example1-single", alpha=alpha, metrics=metrics,
                            basis=((1, 3, 0.2), (2, 3, 0.2), (1, 5, 0.5)))
        curves = []
        table = run_experiment(cfg, curves)
        assert not table.meta["failed_columns"]
        assert len(curves) == len(cfg.problems) * len(cfg.specs)
        points = np.array(table.grid)
        reference = rk4_reference(cfg.problems[0], points)[0] if "AE" in metrics else None
        columns = iter(table.columns.values())  # problem-major, then basis, then metric
        single = []
        for problem in cfg.problems:
            for spec in cfg.specs:
                approx = solve_problem(problem, spec)

                def residual(ts):
                    v, s, c = approx.evaluate(ts)
                    return np.abs(problem.residual(c, s, v, problem.forcing(ts)))

                alone = {"residual": tuple(residual(points))}
                if reference is not None:
                    error = np.abs(approx.value(points) - reference.value(points))
                    alone["AE"] = tuple(error)
                    alone["MAE"] = (float(error.max()),) * len(points)
                assert [next(columns) for _ in metrics] == [alone[m] for m in metrics]
                single.append(residual(PLOT_GRID))
        for (_, curve), alone in zip(curves, single):
            assert np.array_equal(curve, alone)
        lines = ["t," + ",".join(label for label, _ in curves)]
        for i, t in enumerate(PLOT_GRID):
            lines.append(",".join([f"{t:.8g}"] + [f"{c[i]:.5e}" for c in single]))
        assert emit_plot_data(curves) == "\n".join(lines) + "\n"
