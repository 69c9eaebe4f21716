import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fobw
from fobw.cli import main


class TestPresetCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["preset", "example1-single", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("t,AE gamma=0.5 M=5")
        assert len(lines) == 6

    def test_stdout_default(self, capsys):
        assert main(["preset", "example2", "--gamma", "1.0", "--M", "5"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("t,")

    def test_fractional_alpha_override(self, tmp_path):
        out = tmp_path / "resid.csv"
        code = main(
            ["preset", "example1-single", "--alpha", "1.5",
             "--gamma", "0.2", "--M", "5", "--out", str(out)]
        )
        assert code == 0
        header = out.read_text().split("\n", 1)[0]
        assert "residual gamma=0.2 M=5" in header

    def test_json_format(self, tmp_path):
        out = tmp_path / "table.json"
        code = main(
            ["preset", "example1-double", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["grid"] == [0.1, 0.3, 0.5, 0.7, 0.9]
        assert payload["meta"]["preset"] == "example1-double"

    def test_plot_data(self, tmp_path):
        table_out = tmp_path / "t.csv"
        plot_out = tmp_path / "curves.csv"
        code = main(
            ["preset", "example1-single", "--alpha", "1.2,1.4",
             "--gamma", "0.2", "--M", "5",
             "--out", str(table_out), "--plot-data", str(plot_out),
             "--plot-points", "11"]
        )
        assert code == 0
        lines = plot_out.read_text().strip().split("\n")
        assert len(lines) == 12
        assert lines[0].count(",") == 2

    def test_plot_data_reuses_table_solves(self, tmp_path, monkeypatch):
        import fobw.experiments
        import fobw.solver

        calls = []
        solve = fobw.solver.solve_system

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        # solve_problem goes through solver.solve_system, so this counts both routes
        monkeypatch.setattr(fobw.solver, "solve_system", counted)
        monkeypatch.setattr(fobw.experiments, "solve_system", counted)
        plot_out = tmp_path / "curves.csv"
        code = main(
            ["preset", "example1-single", "--k", "2", "--alpha", "1.5",
             "--gamma", "0.2", "--M", "3", "--out", str(tmp_path / "t.csv"),
             "--plot-data", str(plot_out), "--plot-points", "11"]
        )
        assert code == 0
        assert len(calls) == 1
        header = plot_out.read_text().split("\n", 1)[0]
        assert header == "t,residual k=2 gamma=0.2 M=3 alpha=1.5"

    @pytest.mark.parametrize("metric", ["AE", "MAE", "residual"])
    def test_metric_flag(self, capsys, metric):
        # the published columns are absolute errors, so only AE columns get them
        assert main(["preset", "example1-single", "--metric", metric]) == 0
        header = capsys.readouterr().out.split("\n", 1)[0].split(",")
        assert header[1:4] == [f"{metric} gamma={g} M=5" for g in ("0.5", "0.9", "1")]
        published = ["UWS (published)", "LWPS (published)"] if metric == "AE" else []
        assert header[4:] == published

    def test_no_published_flag(self, capsys):
        assert main(["preset", "example1-single", "--no-published"]) == 0
        header = capsys.readouterr().out.split("\n", 1)[0]
        assert "published" not in header

    def test_custom_output_grid(self, capsys):
        code = main(
            ["preset", "example1-single", "--gamma", "1.0", "--M", "5",
             "--grid", "0.25,0.75"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("0.25,")
        assert lines[2].startswith("0.75,")


class TestCommandErrors:
    def test_plot_points_below_two_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys):
        import fobw.experiments

        def refuse(system):
            raise AssertionError("no solve may run")

        monkeypatch.setattr(fobw.experiments, "solve_system", refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(["preset", "example1-single", "--alpha", "1.5", "--gamma", "0.2",
                  "--M", "3", "--plot-data", str(tmp_path / "c.csv"), "--plot-points", "1"])
        assert exit_info.value.code == 2
        assert "--plot-points: must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, source",
        [([0.5, 0.1], "preset"), ([0.5, 0.5], "preset"), ([0.3, 0.2], "solve")],
        ids=["descending", "repeated", "config"],
    )
    def test_unsorted_grid_rejected_before_any_solve(self, tmp_path, monkeypatch, caplog,
                                                    grid, source):
        import fobw.experiments

        def refuse(system):
            raise AssertionError("no solve may run")

        monkeypatch.setattr(fobw.experiments, "solve_system", refuse)
        if source == "preset":
            argv = ["preset", "example1-single", "--grid", ",".join(map(str, grid))]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"a": 1.0, "init_value": 1.0, "output_grid": grid}))
            argv = ["solve", "--config", str(path)]
        _assert_one_error_naming(caplog, "output grid points must be strictly ascending", argv)

    @pytest.mark.parametrize("target", ["--out", "--plot-data"])
    def test_unwritable_output_path_is_one_error_line(self, tmp_path, caplog, target):
        missing = str(tmp_path / "missing-dir" / "file.csv")
        paths = {"--out": str(tmp_path / "t.csv"), "--plot-data": str(tmp_path / "p.csv")}
        paths[target] = missing
        argv = ["preset", "example1-single", "--alpha", "1.5", "--gamma", "0.2", "--M", "3",
                "--plot-points", "11"]
        for flag, path in paths.items():
            argv += [flag, path]
        _assert_one_error_naming(caplog, missing, argv)

    def test_solve_unwritable_out_path(self, tmp_path, caplog):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"a": 1.0, "init_value": 1.0, "basis": [[1, 3, 1.0]]}))
        missing = str(tmp_path / "missing-dir" / "t.csv")
        _assert_one_error_naming(caplog, missing, ["solve", "--config", str(path), "--out", missing])

    def test_duplicate_alpha_labels_are_one_error_line(self, caplog):
        _assert_one_error_naming(
            caplog, "duplicate (basis, alpha) combination",
            ["preset", "example1-single", "--alpha", "2,2.0"],
        )

    @pytest.mark.parametrize(
        "entry, lacks",
        [
            ({"k": 1, "gamma": 0.5}, "lacks 'M'"),
            ([1, 3], "is not three numbers"),
            ([1, 3.7, 0.5], "has a k or M that is not a whole number"),
            (5, "is not three numbers"),
            ([True, 5, 1.0], "is not three numbers"),
            (["1", "5", "1"], "is not three numbers"),
            ([1, 5, True], "is not three numbers"),
            ({"M": 5, "gamma": "0.5"}, "is not three numbers"),
            ([1, math.nan, 0.5], "is not three numbers"),
        ],
    )
    def test_malformed_basis_entry_is_one_error_line(self, tmp_path, caplog, entry, lacks):
        # a lone entry stands for a list of one, so 5 is written as "basis": 5
        basis = entry if isinstance(entry, int) else [entry]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"basis": basis, "metrics": ["residual"]}))
        _assert_one_error_naming(caplog, f"basis entry {entry!r} {lacks}",
                                 ["solve", "--config", str(path)])

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"mu": "abc"}, "mu must be a finite real number"),
            ({"mu": None}, "mu must be a finite real number"),
            ({"init_value": "1"}, "init_value must be a finite real number"),
            ({"omega": "x", "forcing": "forced"}, "omega must be a finite real number"),
            ({"f": float("nan"), "forcing": "forced"}, "f must be a finite real number"),
            ({"output_grid": [0.5, "x"]}, "output_grid points must be numbers in (0, 1]"),
            ({"output_grid": [0.5, None]}, "output_grid points must be numbers in (0, 1]"),
            ({"reference": "rk4"}, "unknown config keys: ['reference']"),
            ({"reference_step": 0}, "unknown config keys: ['reference_step']"),
            ({"mu": True}, "mu must be a finite real number"),
            ({"output_grid": [0.5, True]}, "output_grid points must be numbers in (0, 1]"),
            ({"forcing": "1/0"}, "forcing expression '1/0' is not finite"),
            ({"format": "xml"}, "format must be 'csv' or 'json'"),
            ({"basis": [[1, 3, 56.01]]}, "gamma*M = 168.03 exceeds 168"),
            ([], "config must be a JSON object"),
            (None, "config must be a JSON object"),
            ({"preset": "example1-single", "include_published": True},
             "preset 'example1-single' has mu = 0.1, not 0.0"),
            ({"preset": "nonsense"}, "unknown preset 'nonsense'"),
            ({"preset": ["example2"]}, "unknown preset ['example2']"),
            ("x", "config must be a JSON object"),
        ],
    )
    def test_bad_config_value_is_one_error_line_before_any_solve(self, tmp_path, monkeypatch,
                                                                caplog, raw, message):
        import fobw.experiments

        def refuse(*args):
            raise AssertionError("no solve may run")

        monkeypatch.setattr(fobw.experiments, "solve_system", refuse)
        monkeypatch.setattr(fobw.experiments, "rk4_integrate", refuse)
        path = tmp_path / "cfg.json"
        doc = {"a": 1.0, "init_value": 1.0, **raw} if isinstance(raw, dict) else raw
        path.write_text(json.dumps(doc))
        _assert_one_error_naming(caplog, message, ["solve", "--config", str(path)])

    @pytest.mark.parametrize("plot", [False, True], ids=["table", "plot"])
    def test_order_leaving_its_range_between_probe_points_is_one_error_line(
        self, tmp_path, caplog, plot
    ):
        # 1.5 at every probe point k/1001, 2.1 at t = 0.5: a point of the
        # default output grid, and of the two-point plot grid (0.5, 1)
        argv = ["preset", "example1-single", "--alpha", "1.5 + 0.6*sin(1001*pi*t)^1000",
                "--gamma", "0.2", "--M", "3"]
        if plot:
            argv += ["--grid", "0.1", "--plot-data", str(tmp_path / "p.csv"),
                     "--plot-points", "2"]
        _assert_one_error_naming(caplog, "alpha(0.5) = 2.1 outside (1, 2]", argv)

    @pytest.mark.parametrize(
        "alpha, message",
        [("1.5 + 1/0", "alpha(0.000999001) = inf outside (1, 2]"),
         ("-" * 3000 + "t", "expression is nested too deeply")],
        ids=["division-by-zero", "nested-too-deeply"],
    )
    def test_bad_alpha_expression_is_one_error_line(self, caplog, alpha, message):
        argv = ["preset", "example1-single", f"--alpha={alpha}", "--gamma", "0.2", "--M", "3"]
        _assert_one_error_naming(caplog, message, argv)

    @pytest.mark.parametrize("signs, code", [(300, 0), (980, 2)])
    def test_an_expression_that_parses_also_runs(self, signs, code):
        # a fresh interpreter parses from a shallow stack, so a depth that
        # passes the parse but not the solve would end in a RecursionError
        alpha = "1.5+" + "-" * signs + "0*t"
        proc = _run_fobw(["preset", "example1-single", f"--alpha={alpha}",
                          "--gamma", "0.2", "--M", "3"])
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert ("expression is nested too deeply" in proc.stderr) == (code == 2)

    @pytest.mark.parametrize(
        "key, message", [("metrics", "at least one metric"), ("alpha", "at least one alpha entry")]
    )
    def test_empty_column_list_is_one_error_line(self, tmp_path, caplog, key, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: []}))
        _assert_one_error_naming(caplog, message, ["solve", "--config", str(path)])


def _assert_one_error_naming(caplog, name, argv):
    """``main(argv)`` exits 2 with one error line, and that line holds ``name``."""
    with caplog.at_level(logging.ERROR, logger="fobw"):
        assert main(argv) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1 and name in errors[0]


class TestSolveCommand:
    def test_config_file(self, tmp_path, capsys):
        cfg = {
            "mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
            "alpha": [2.0], "basis": [[1, 5, 1.0]],
            "metrics": ["AE"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,AE gamma=1 M=5")

    def test_fractional_alpha_defaults_to_the_residual_like_a_preset(self, tmp_path, capsys):
        from fobw.experiments import PRESET_PROBLEMS

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(PRESET_PROBLEMS["example1-single"], alpha=[1.5])))
        assert main(["solve", "--config", str(path)]) == 0
        solved = capsys.readouterr().out
        assert solved.startswith("t,residual gamma=1 M=5\n")
        assert main(["preset", "example1-single", "--alpha", "1.5", "--gamma", "1", "--M", "5"]) == 0
        assert capsys.readouterr().out == solved

    def test_reference_blowup_fails_the_ae_column(self, tmp_path, capsys, caplog):
        cfg = {"mu": 0, "a": 0, "b": -50, "init_value": 2, "metrics": ["AE"],
               "basis": [[1, 5, 1.0]], "format": "json"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["failed_columns"] == ["AE gamma=1 M=5"]
        assert all(math.isnan(v) for v in payload["columns"]["AE gamma=1 M=5"])
        assert any("RK4 reference failed" in r.getMessage() and "t = 0.13" in r.getMessage()
                   for r in caplog.records)

    def test_constant_forcing_runs_like_its_t_form(self, tmp_path, capsys):
        tables = []
        for forcing in ("0.5", "0.5 + 0*t"):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"a": 1.0, "forcing": forcing, "init_value": 1.0}))
            assert main(["solve", "--config", str(path)]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    def test_overflowing_solve_is_one_warning_line(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mu": 1e300, "init_slope": 1e300, "a": 1.0,
                                    "metrics": "residual"}))
        proc = _run_fobw(["solve", "--config", str(path)])
        assert proc.returncode == 1
        assert proc.stderr == (
            "[WARNING] fobw: solve failed for residual gamma=1 M=5: "
            "residual is not finite at the initial guess\n"
        )
        rows = proc.stdout.strip().split("\n")
        assert rows[0] == "t,residual gamma=1 M=5"
        assert all(math.isnan(float(row.split(",")[1])) for row in rows[1:])

    @pytest.mark.parametrize(
        "argv",
        [["--gamma", "60", "--M", "3"], ["--k", "2", "--gamma", "45", "--M", "4"]],
        ids=["k=1", "k=2"],
    )
    def test_exponents_past_the_range_of_gamma_are_refused(self, argv):
        # the images need gamma(p + 1 + lam) with p up to gamma*M = 180, past
        # the range of a double, so the basis is refused before any solve
        proc = _run_fobw(["preset", "example1-single", "--alpha", "1.5", *argv])
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("[ERROR] fobw: invalid preset options: gamma*M = 180 exceeds 168")

    def test_missing_config(self):
        assert main(["solve", "--config", "/nonexistent.json"]) == 2

    def test_invalid_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"metrics": ["bogus"]}))
        assert main(["solve", "--config", str(path)]) == 2

    def test_out_path_from_config(self, tmp_path):
        out = tmp_path / "from_cfg.json"
        cfg = {
            "mu": 0.0, "a": 0.0, "b": 0.0, "init_value": 1.0,
            "alpha": [2.0], "basis": [[1, 3, 1.0]],
            "metrics": ["residual"],
            "format": "json", "out": str(out),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == 0
        assert out.exists()


class TestVerifyCommand:
    def test_single_criterion(self, capsys):
        assert main(["verify", "--criterion", "criterion-10"]) == 0
        out = capsys.readouterr().out
        assert "PASS criterion-10" in out
        assert "1/1 criteria passed" in out

    def test_unknown_criterion(self, capsys):
        assert main(["verify", "--criterion", "criterion-99"]) == 2


def _run_fobw(argv):
    """``python -m fobw *argv`` in a fresh interpreter, at the default log level."""
    # the child imports the same fobw as this test, installed or not
    pythonpath = [str(Path(fobw.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    env.pop("FOBW_LOG", None)
    return subprocess.run([sys.executable, "-m", "fobw", *argv], capture_output=True, text=True,
                          timeout=180, env=env)


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = _run_fobw(["preset", "example1-single", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("t,")
