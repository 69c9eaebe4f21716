import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fobw.experiments import (
    ExperimentConfig,
    build_order,
    emit_plot_data,
    emit_table,
    parse_table_json,
    preset_config,
    render_csv,
    run_experiment,
)
from fobw.reference import ErrorTable, residual_sample, residual_samples


class TestConfig:
    def test_preset_defaults(self):
        cfg = preset_config("example1-single")
        assert cfg.metrics == ("AE",)
        assert cfg.basis == ((1, 5, 0.5), (1, 5, 0.9), (1, 5, 1.0))
        assert cfg.include_published

    def test_fractional_alpha_switches_to_residual(self):
        cfg = preset_config("example1-single", alpha=("1.5",), basis=((1, 5, 0.2),))
        assert cfg.metrics == ("residual",)
        assert not cfg.include_published

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_config("example3")

    def test_from_dict_round_trip(self):
        raw = {
            "mu": 0.1, "a": 0.5, "b": 0.5, "f": 0.5, "omega": 0.79,
            "forcing": "forced", "init_value": 1.0,
            "alpha": [2.0], "basis": [[1, 5, 1.0]],
            "metrics": ["AE"], "reference": "rk4", "format": "csv",
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
        with pytest.raises(ValueError, match=r"leaves \(1, 2\]"):
            ExperimentConfig.from_dict(raw)

    def test_bad_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            ExperimentConfig.from_dict({"metrics": ["RMSE"]})

    def test_forcing_expression_must_be_total(self):
        raw = {
            "a": 1.0, "forcing": "1 / (t - 0.5)", "alpha": [2.0],
            "metrics": ["residual"], "reference": "none",
        }
        with pytest.raises(ValueError, match="not finite"):
            ExperimentConfig.from_dict(raw)

    def test_forcing_expression_accepted(self):
        raw = {
            "a": 1.0, "forcing": "0.5 * cos(0.79 * t)", "alpha": [2.0],
            "init_value": 1.0, "basis": [[1, 5, 1.0]],
            "metrics": ["residual"], "reference": "none",
        }
        cfg = ExperimentConfig.from_dict(raw)
        problem = cfg.build_problem(2.0)
        assert problem.forcing_at(0.0) == pytest.approx(0.5)

    def test_direct_construction_is_checked(self):
        with pytest.raises(ValueError, match="unknown metric"):
            ExperimentConfig(metrics=("RMSE",))

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match="alpha identically 2"):
            replace(preset_config("example1-single"), alpha=("1.5",))

    def test_direct_construction_normalizes_basis(self):
        cfg = ExperimentConfig(basis=[[1, 3, 1], {"M": "5", "gamma": 0.5}], alpha="1.5",
                               metrics=["residual"])
        assert cfg.basis == ((1, 3, 1.0), (1, 5, 0.5))
        assert [type(v) for v in cfg.basis[0]] == [int, int, float]
        assert cfg.alpha == ("1.5",) and cfg.metrics == ("residual",)

    def test_build_order_variants(self):
        assert build_order(2.0).is_constant
        assert build_order("1.5").value == 1.5
        variable = build_order("1 + sin(t)")
        assert not variable.is_constant
        assert variable(0.5) == pytest.approx(1.0 + math.sin(0.5))


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
            "metrics": ["residual"], "reference": "none",
        }))
        assert main(["solve", "--config", str(path)]) == 0
        assert texts.count(forcing) == 1
        assert texts.count("1 + sin(t)") == 1

    def test_each_preset_run_builds_each_expression_order_once(self, monkeypatch, capsys):
        from fobw.cli import main
        from fobw.fracops import OrderFunction

        labels = []
        build = OrderFunction.from_callable

        def counted(fn, label="alpha(t)"):
            labels.append(label)
            return build(fn, label)

        monkeypatch.setattr(OrderFunction, "from_callable", staticmethod(counted))
        argv = ["preset", "example1-single", "--alpha", "1.5,1 + sin(t),1.2 + 0.5*t",
                "--gamma", "0.5", "--M", "3"]
        # twice in one process: no cache may stand in for building once per run
        for _ in range(2):
            labels.clear()
            assert main(argv) == 0
            assert sorted(labels) == ["1 + sin(t)", "1.2 + 0.5*t"]


class TestRunExperiment:
    def test_single_well_table_shape(self):
        table, ok = run_experiment(preset_config("example1-single"))
        assert ok
        assert table.grid == (0.1, 0.3, 0.5, 0.7, 0.9)
        labels = list(table.columns)
        assert labels[:3] == ["AE gamma=0.5 M=5", "AE gamma=0.9 M=5", "AE gamma=1 M=5"]
        assert labels[3:] == ["UWS (published)", "LWPS (published)"]
        for vals in table.columns.values():
            assert all(np.isfinite(vals))
        assert max(table.columns["AE gamma=1 M=5"]) < 1e-5

    def test_residual_sweep_shape(self):
        cfg = preset_config(
            "example1-single",
            alpha=("1.5",),
            basis=tuple((1, 5, g) for g in (0.1, 0.2, 0.3, 0.5, 0.9, 1.0)),
        )
        table, ok = run_experiment(cfg)
        assert ok
        assert len(table.columns) == 6

    def test_trivial_config_zero_residual(self):
        cfg = ExperimentConfig.from_dict(
            {
                "mu": 0.0, "a": 0.0, "b": 0.0, "init_value": 1.0,
                "alpha": [2.0], "basis": [[1, 3, 1.0]],
                "metrics": ["residual"], "reference": "none",
            }
        )
        table, ok = run_experiment(cfg)
        assert ok
        assert max(next(iter(table.columns.values()))) <= 1e-13

    def test_mae_column_is_constant(self):
        cfg = ExperimentConfig.from_dict(
            {
                "mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
                "alpha": [2.0], "basis": [[1, 5, 1.0]],
                "metrics": ["AE", "MAE"],
            }
        )
        table, ok = run_experiment(cfg)
        assert ok
        mae_col = table.columns["MAE gamma=1 M=5"]
        ae_col = table.columns["AE gamma=1 M=5"]
        assert len(set(mae_col)) == 1
        assert mae_col[0] == pytest.approx(max(ae_col))

    def test_failed_solve_leaves_sentinel_column(self, monkeypatch):
        import fobw.experiments as experiments_module
        from fobw.solver import SolverError

        def refuse(problem, spec):
            raise SolverError("forced failure for the test", None)

        monkeypatch.setattr(experiments_module, "solve_problem", refuse)
        cfg = ExperimentConfig.from_dict(
            {
                "mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
                "alpha": [2.0], "basis": [[1, 3, 1.0]],
                "metrics": ["residual"], "reference": "none",
            }
        )
        table, ok = run_experiment(cfg)
        assert not ok
        column = next(iter(table.columns.values()))
        assert all(math.isnan(v) for v in column)
        assert table.meta["failed_columns"]

    def test_collects_converged_approximants(self):
        cfg = preset_config(
            "example1-single", alpha=("1.5", "1.8"), basis=((1, 3, 0.2), (2, 3, 0.2))
        )
        approximants = []
        _, ok = run_experiment(cfg, approximants=approximants)
        assert ok
        assert [label for label, _ in approximants] == [
            "residual gamma=0.2 M=3 alpha=1.5",
            "residual k=2 gamma=0.2 M=3 alpha=1.5",
            "residual gamma=0.2 M=3 alpha=1.8",
            "residual k=2 gamma=0.2 M=3 alpha=1.8",
        ]
        assert all(approx.report.converged for _, approx in approximants)

    def test_duplicate_combination_rejected(self):
        cfg = ExperimentConfig.from_dict(
            {
                "mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
                "alpha": [2.0], "basis": [[1, 5, 1.0], [1, 5, 1.0]],
                "metrics": ["residual"], "reference": "none",
            }
        )
        with pytest.raises(ValueError, match="duplicate"):
            run_experiment(cfg)


class TestEmission:
    def test_tiny_csv(self):
        table = ErrorTable((0.5,), {"only": (1.25e-7,)}, {})
        text = render_csv(table)
        assert text == "t,only\n0.5,1.25000e-07\n"

    def test_csv_is_deterministic(self):
        table, _ = run_experiment(preset_config("example1-single"))
        assert render_csv(table) == render_csv(table)

    def test_json_round_trip(self):
        table = ErrorTable(
            (0.1, 0.9),
            {"a": (1.0, 2.0), "b": (0.25, 0.125)},
            {"preset": None, "note": "x"},
        )
        text = emit_table(table, "json", None)
        again = parse_table_json(text)
        assert again == table

    def test_write_to_file(self, tmp_path):
        table = ErrorTable((0.5,), {"c": (1.0,)}, {})
        path = tmp_path / "out.csv"
        emit_table(table, "csv", str(path))
        assert path.read_text().startswith("t,c")

    def test_write_failure_reports_path(self, tmp_path):
        table = ErrorTable((0.5,), {"c": (1.0,)}, {})
        missing = tmp_path / "nope" / "out.csv"
        with pytest.raises(OSError, match="nope"):
            emit_table(table, "csv", str(missing))


class TestPlotData:
    def test_single_configuration(self):
        from fobw.basis import WaveletBasisSpec
        from fobw.solver import solve_problem

        cfg = preset_config("example1-single", alpha=("1.5",), basis=((1, 5, 0.2),))
        problem = cfg.build_problem("1.5")
        approx = solve_problem(problem, WaveletBasisSpec(1, 5, 0.2))
        text = emit_plot_data([("residual", approx)], density=21)
        lines = text.strip().split("\n")
        assert lines[0] == "t,residual"
        assert len(lines) == 22
        last_t = float(lines[-1].split(",")[0])
        assert last_t == pytest.approx(1.0)

    def test_four_order_family(self):
        from fobw.basis import WaveletBasisSpec
        from fobw.solver import solve_problem

        cfg = preset_config("example1-single")
        labeled = []
        for alpha in ("1.2", "1.4", "1.6", "1.8"):
            problem = cfg.build_problem(alpha)
            labeled.append(
                (f"alpha={alpha}", solve_problem(problem, WaveletBasisSpec(1, 5, 0.2)))
            )
        text = emit_plot_data(labeled, density=11)
        header = text.split("\n", 1)[0]
        assert header.count(",") == 4

    def test_batched_columns_equal_their_own_residual_samples(self):
        # constant, variable and integer order on k = 1 and k = 2 bases: the
        # columns of one basis are evaluated in one image call, and each must
        # come out exactly as if evaluated on its own
        cfg = preset_config(
            "example1-single", alpha=("1.5", "1 + sin(t)", "2"),
            basis=((1, 3, 0.2), (2, 3, 0.2), (1, 5, 0.5)),
        )
        labeled = []
        table, ok = run_experiment(cfg, approximants=labeled)
        assert ok and len(labeled) == 9
        approximants = [approx for _, approx in labeled]
        # the table's residual columns are sampled together as well
        points = np.array(table.grid)
        assert list(table.columns) == [label for label, _ in labeled]
        for label, approx in labeled:
            expected = tuple(residual_sample(approx, approx.problem, points))
            assert table.columns[label] == expected
        grid = np.linspace(0.0, 1.0, 402)[1:]
        for curve, approx in zip(residual_samples(approximants, grid), approximants):
            assert np.array_equal(curve, residual_sample(approx, approx.problem, grid))
        lines = ["t," + ",".join(label for label, _ in labeled)]
        single = [residual_sample(approx, approx.problem, grid) for approx in approximants]
        for i, t in enumerate(grid):
            lines.append(",".join([f"{t:.8g}"] + [f"{c[i]:.5e}" for c in single]))
        assert emit_plot_data(labeled) == "\n".join(lines) + "\n"
