import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fobw
from fobw.cli import main
from fobw.experiments import PRESET_PROBLEMS, PRESET_SWEEP


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

    def test_single_point_basis_note_is_one_warning_line(self, capsys):
        # the note is the table's: one [WARNING] line on stderr, the same text
        # in meta.warnings, and no failed column, so the exit code is 0
        note = "basis gamma=1 M=0: a single collocation point cannot represent oscillation"
        argv = ["preset", "example1-single", "--M", "0", "--gamma", "1"]
        assert main(argv) == 0
        assert capsys.readouterr().err == f"[WARNING] fobw: {note}\n"
        assert main([*argv, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"[WARNING] fobw: {note}\n"
        assert json.loads(captured.out)["meta"]["warnings"] == [note]

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
             "--out", str(table_out), "--plot-data", str(plot_out)]
        )
        assert code == 0
        lines = plot_out.read_text().strip().split("\n")
        assert len(lines) == 402
        assert lines[0].count(",") == 2

    def test_plot_data_reuses_table_solves(self, tmp_path, monkeypatch):
        import fobw.experiments
        import fobw.solver

        calls = []
        solve = fobw.solver.newton_solve

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        # solve_problem goes through solver.newton_solve, so this counts both routes
        monkeypatch.setattr(fobw.solver, "newton_solve", counted)
        monkeypatch.setattr(fobw.experiments, "newton_solve", counted)
        plot_out = tmp_path / "curves.csv"
        code = main(
            ["preset", "example1-single", "--k", "2", "--alpha", "1.5",
             "--gamma", "0.2", "--M", "3", "--out", str(tmp_path / "t.csv"),
             "--plot-data", str(plot_out)]
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

    @pytest.mark.parametrize(
        "flags, k, M", [(["--M", "3"], "", 3), (["--k", "2"], "k=2 ", 5)], ids=["M", "k"]
    )
    def test_lone_basis_flag_keeps_the_preset_gammas(self, capsys, flags, k, M):
        assert main(["preset", "example1-single", *flags]) == 0
        header = capsys.readouterr().out.split("\n", 1)[0].split(",")
        assert header[1:4] == [f"AE {k}gamma={g} M={M}" for g in ("0.5", "0.9", "1")]
        assert header[4:] == ["UWS (published)", "LWPS (published)"]

    def test_custom_output_grid(self, tmp_path, capsys):
        # a preset keeps the table grid; another grid is a config's output_grid,
        # and off the table grid the published columns have no place
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**PRESET_PROBLEMS["example1-single"],
                                    "preset": "example1-single", "basis": [[1, 5, 1.0]],
                                    "output_grid": [0.25, 0.75]}))
        assert main(["solve", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,AE gamma=1 M=5"
        assert len(lines) == 3
        assert lines[1].startswith("0.25,")
        assert lines[2].startswith("0.75,")

    def test_config_naming_a_preset_prints_the_preset_table(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**PRESET_PROBLEMS["example2"], "preset": "example2",
                                    "basis": [[1, 5, g] for g in PRESET_SWEEP["gamma"]]}))
        assert main(["solve", "--config", str(path)]) == 0
        solved = capsys.readouterr().out
        assert main(["preset", "example2"]) == 0
        assert solved == capsys.readouterr().out
        assert solved.split("\n", 1)[0].endswith(",ADS (published),RADS (published)")

    def test_parenthesized_number_is_that_constant_order(self, capsys):
        assert main(["preset", "example1-single", "--alpha", "2"]) == 0
        table = capsys.readouterr().out
        assert table.startswith("t,AE gamma=0.5 M=5")
        assert main(["preset", "example1-single", "--alpha", "(2)"]) == 0
        assert capsys.readouterr().out == table


class TestCommandErrors:
    @pytest.mark.parametrize(
        "flags",
        [["--plot-points", "10000000"], ["--grid", "0.25,0.75"], ["--no-published"]],
        ids=["plot-points", "grid", "no-published"],
    )
    def test_removed_preset_flag_exits_before_any_solve(self, monkeypatch, capsys, flags):
        import fobw.experiments

        def refuse(*args):
            raise AssertionError("no solve may run")

        monkeypatch.setattr(fobw.experiments, "newton_solve", refuse)
        monkeypatch.setattr(fobw.experiments, "rk4_reference", refuse)
        _assert_one_error_naming(capsys, f"unrecognized arguments: {' '.join(flags)}",
                                 ["preset", "example1-single", *flags])

    @pytest.mark.parametrize(
        "grid, preset",
        [([0.5, 0.1], "example1-single"), ([0.5, 0.5], "example1-single"), ([0.3, 0.2], None)],
        ids=["descending", "repeated", "config"],
    )
    def test_unsorted_grid_rejected_before_any_solve(self, tmp_path, monkeypatch, capsys,
                                                    grid, preset):
        import fobw.experiments

        def refuse(system):
            raise AssertionError("no solve may run")

        monkeypatch.setattr(fobw.experiments, "newton_solve", refuse)
        doc = {"a": 1.0, "init_value": 1.0}
        if preset is not None:
            doc = {**PRESET_PROBLEMS[preset], "preset": preset}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**doc, "output_grid": grid}))
        argv = ["solve", "--config", str(path)]
        _assert_one_error_naming(capsys, "output grid points must be strictly ascending", argv)

    @pytest.mark.parametrize("target", ["--out", "--plot-data"])
    def test_unwritable_output_path_is_one_error_line(self, tmp_path, capsys, target):
        missing = str(tmp_path / "missing-dir" / "file.csv")
        paths = {"--out": str(tmp_path / "t.csv"), "--plot-data": str(tmp_path / "p.csv")}
        paths[target] = missing
        argv = ["preset", "example1-single", "--alpha", "1.5", "--gamma", "0.2", "--M", "3"]
        for flag, path in paths.items():
            argv += [flag, path]
        _assert_one_error_naming(capsys, missing, argv)

    @pytest.mark.parametrize("spelling", ["same", "symlink"])
    def test_plot_data_at_the_table_path_exits_before_any_solve(self, tmp_path, monkeypatch,
                                                                 capsys, spelling):
        import fobw.experiments

        def refuse(*args):
            raise AssertionError("no solve may run")

        monkeypatch.setattr(fobw.experiments, "newton_solve", refuse)
        table = tmp_path / "t.csv"
        plot = table
        if spelling == "symlink":
            plot = tmp_path / "link.csv"
            plot.symlink_to(table)
        argv = ["preset", "example1-single", "--alpha", "1.5", "--gamma", "0.2", "--M", "3",
                "--out", str(table), "--plot-data", str(plot)]
        _assert_one_error_naming(capsys, "--out and --plot-data name the same file", argv)
        assert not table.exists()

    def test_solve_unwritable_out_path(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"a": 1.0, "init_value": 1.0, "basis": [[1, 3, 1.0]]}))
        missing = str(tmp_path / "missing-dir" / "t.csv")
        argv = ["solve", "--config", str(path), "--out", missing]
        _assert_one_error_naming(capsys, missing, argv)

    def test_duplicate_alpha_labels_are_one_error_line(self, capsys):
        _assert_one_error_naming(
            capsys, "duplicate (basis, alpha) combination",
            ["preset", "example1-single", "--alpha", "2,2.0"],
        )

    @pytest.mark.parametrize(
        "entry, lacks",
        [
            ({"k": 1, "gamma": 0.5}, "is not three numbers"),
            ([1, 3], "is not three numbers"),
            ([1, 3.7, 0.5], "M must be a nonnegative integer"),
            (5, "is not three numbers"),
            ([True, 5, 1.0], "k must be a finite real number, got True"),
            (["1", "5", "1"], "k must be a finite real number, got '1'"),
            ([1, 5, True], "gamma must be a finite real number, got True"),
            ([1, 5, "0.5"], "gamma must be a finite real number, got '0.5'"),
            ([1, math.nan, 0.5], "M must be a finite real number, got nan"),
            ({"k": 1, "M": 5, "gamma": 0.5, "x": 3}, "is not three numbers"),
            ("153", "is not three numbers"),
        ],
    )
    def test_malformed_basis_entry_is_one_error_line(self, tmp_path, capsys, entry, lacks):
        # a lone entry stands for a list of one, so 5 is written as "basis": 5;
        # the error names the entry, then what is wrong with it
        basis = entry if isinstance(entry, int) else [entry]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"basis": basis, "metrics": ["residual"]}))
        error = _assert_one_error_naming(capsys, lacks, ["solve", "--config", str(path)])
        assert error.startswith(f"invalid config: basis entry {entry!r}")

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"mu": "abc"}, "mu must be a finite real number"),
            ({"mu": None}, "mu must be a finite real number"),
            ({"init_value": "1"}, "init_value must be a finite real number"),
            ({"f": 0.5, "omega": 0.79}, "unknown config keys: ['f', 'omega']"),
            ({"forcing": "forced"}, "unknown identifier 'forced'"),
            ({"output_grid": [0.5, "x"]}, "output_grid points must be numbers in (0, 1]"),
            ({"output_grid": [0.5, None]}, "output_grid points must be numbers in (0, 1]"),
            ({"reference": "rk4"}, "unknown config keys: ['reference']"),
            ({"reference_step": 0}, "unknown config keys: ['reference_step']"),
            ({"mu": True}, "mu must be a finite real number"),
            ({"output_grid": [0.5, True]}, "output_grid points must be numbers in (0, 1]"),
            ({"forcing": "1/0"}, "forcing expression '1/0' is not finite"),
            ({"format": "json"}, "unknown config keys: ['format']"),
            ({"basis": [[1, 3, 56.01]]}, "gamma*M = 168.03 exceeds 168"),
            ([], "config must be a JSON object"),
            (None, "config must be a JSON object"),
            ({"preset": "example1-single"}, "preset 'example1-single' has mu = 0.1, not 0.0"),
            ({"preset": "nonsense"}, "unknown preset 'nonsense'"),
            ({"preset": ["example2"]}, "unknown preset ['example2']"),
            ("x", "config must be a JSON object"),
            ({"out": "x"}, "unknown config keys: ['out']"),
            ({"include_published": "no"}, "unknown config keys: ['include_published']"),
            ({"include_published": 1}, "unknown config keys: ['include_published']"),
            ({"basis": [[30, 5, 0.2]]}, "basis entry [30, 5, 0.2]: sigma_tilde = 2**29 * 6 "
                                        "exceeds 1024"),
            ({"forcing": 0.5}, "forcing must be an expression in t, got 0.5"),
            ({"forcing": "1/(t-0.1234)", "output_grid": [0.1234]},
             "forcing expression '1/(t-0.1234)' is not finite"),
            ({"alpha": 10**400}, "alpha must be a finite real number"),
            ({"output_grid": [1.0, 10**400]}, "output_grid points must be numbers in (0, 1]"),
            ({"basis": [[1, 3, 10**400]]}, "gamma must be a finite real number"),
        ],
    )
    def test_bad_config_value_is_one_error_line_before_any_solve(self, tmp_path, monkeypatch,
                                                                capsys, raw, message):
        import fobw.experiments

        def refuse(*args):
            raise AssertionError("no solve may run")

        monkeypatch.setattr(fobw.experiments, "newton_solve", refuse)
        monkeypatch.setattr(fobw.experiments, "rk4_reference", refuse)
        path = tmp_path / "cfg.json"
        doc = {"a": 1.0, "init_value": 1.0, **raw} if isinstance(raw, dict) else raw
        path.write_text(json.dumps(doc))
        _assert_one_error_naming(capsys, message, ["solve", "--config", str(path)])

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"alpha": 10**400}, "alpha must be a finite real number, got 1000...00000"),
            ({"mu": 10**400}, "mu must be a finite real number, got 1000...00000"),
            ({"output_grid": [1.0, 10**400]},
             "output_grid points must be numbers in (0, 1]: [1.0, 1000...00000]"),
            ({"basis": [[1, 3, 10**400]]}, "basis entry [1, 3, 1000...00000]: "
                                           "gamma must be a finite real number, got 1000...00000"),
        ],
        ids=["alpha", "mu", "output_grid", "basis"],
    )
    def test_huge_value_is_one_short_error_line(self, tmp_path, capsys, raw, message):
        # 10**400 has 401 digits; the line shows them abbreviated
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"a": 1.0, **raw}))
        error = _assert_one_error_naming(capsys, message, ["solve", "--config", str(path)])
        assert len(f"[ERROR] fobw: {error}") < 120

    @pytest.mark.parametrize("entry", [True, None, {"x": 1}, [1.2]],
                             ids=["true", "null", "object", "list"])
    def test_alpha_entry_neither_number_nor_text_is_one_error_line(self, tmp_path, capsys,
                                                                   entry):
        # JSON true is not the number 1, nor null the text "None"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"a": 1.0, "init_value": 1.0, "alpha": [entry]}))
        error = _assert_one_error_naming(
            capsys, "is not a number or an expression in t", ["solve", "--config", str(path)]
        )
        assert error == (f"invalid config: alpha entry {entry!r} "
                         "is not a number or an expression in t")

    @pytest.mark.parametrize(
        "alpha, message",
        [
            # 1.5 at every probe point k/1001, 2.1 at t = 0.5, a point of the table grid
            ("1.5 + 0.6*sin(1001*pi*t)^1000", "alpha(0.5) = 2.1 outside (1, 2]"),
            # the cosine factor is 1 at every plot point j/401 and 0 at t = 0.5, so
            # this order is 1.5 at the probe, table and collocation points, and
            # leaves (1, 2] first at the plot point 1/401
            ("1.5 + 0.6*(sin(1001*pi*t)*cos(401*pi*t))^1000",
             "alpha(0.00249377) = 2.05997 outside (1, 2]"),
        ],
        ids=["table", "plot"],
    )
    def test_order_leaving_its_range_between_probe_points_is_one_error_line(
        self, tmp_path, capsys, alpha, message
    ):
        table, plot = tmp_path / "t.csv", tmp_path / "p.csv"
        argv = ["preset", "example1-single", "--alpha", alpha, "--gamma", "0.2", "--M", "3",
                "--out", str(table), "--plot-data", str(plot)]
        _assert_one_error_naming(capsys, message, argv)
        assert not table.exists() and not plot.exists()

    @pytest.mark.parametrize(
        "alpha, message",
        [("1.5 + 1/0", "alpha(0.000999001) = inf outside (1, 2]"),
         ("-" * 3000 + "t", "expression is nested too deeply")],
        ids=["division-by-zero", "nested-too-deeply"],
    )
    def test_bad_alpha_expression_is_one_error_line(self, capsys, alpha, message):
        argv = ["preset", "example1-single", f"--alpha={alpha}", "--gamma", "0.2", "--M", "3"]
        _assert_one_error_naming(capsys, message, argv)

    @pytest.mark.parametrize("alpha", ["+1.5", "1.5_0", "\u0661.\u0665"],
                             ids=["unary-plus", "underscore", "arabic-indic-digits"])
    def test_lone_number_is_read_by_the_expression_grammar(self, capsys, alpha):
        argv = ["preset", "example1-single", f"--alpha={alpha}", "--gamma", "0.2", "--M", "3"]
        error = _assert_one_error_naming(capsys, "(at offset ", argv)
        assert error.startswith("invalid preset options: ")

    @pytest.mark.parametrize(
        "flags, item",
        [(["--M", "٣", "--gamma", "5_0e-2,+1"], "--M: '٣'"),
         (["--M", "3", "--gamma", "5_0e-2,+1"], "--gamma: '5_0e-2'"),
         (["--gamma", "0.5,+1"], "--gamma: '+1'"),
         (["--k", "1_0"], "--k: '1_0'"),
         (["--M", "t"], "--M: 't'")],
        ids=["arabic-indic-digit", "underscore", "unary-plus", "k-underscore", "not-a-number"],
    )
    def test_basis_numbers_are_read_by_the_expression_grammar(self, monkeypatch, capsys,
                                                              flags, item):
        import fobw.experiments

        def refuse(*args):
            raise AssertionError("no solve may run")

        monkeypatch.setattr(fobw.experiments, "newton_solve", refuse)
        _assert_one_error_naming(capsys, f"argument {item} is not an unsigned number",
                                 ["preset", "example1-single", *flags])

    def test_basis_numbers_take_any_spelling_of_the_grammar(self, capsys):
        assert main(["preset", "example1-single", "--M", "3", "--gamma", "0.5,1"]) == 0
        table = capsys.readouterr().out
        assert main(["preset", "example1-single", "--M", "(3.0)", "--gamma", "5e-1, 1.",
                     "--k", "1e0"]) == 0
        assert capsys.readouterr().out == table

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
    def test_empty_column_list_is_one_error_line(self, tmp_path, capsys, key, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: []}))
        _assert_one_error_naming(capsys, message, ["solve", "--config", str(path)])


class TestParser:
    def test_flag_value_after_an_equals_sign(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert main(["preset", "example1-single", "--format=json", f"--out={out}"]) == 0
        assert main(["preset", "example1-single", "--format", "json"]) == 0
        assert out.read_text() == capsys.readouterr().out
        assert json.loads(out.read_text())["meta"]["preset"] == "example1-single"

    @pytest.mark.parametrize("argv", [["--out"], ["--out", "--format", "json"], ["--gamma"]],
                             ids=["at-the-end", "before-a-flag", "number-list"])
    def test_flag_without_its_value_is_one_error_line(self, capsys, argv):
        _assert_one_error_naming(capsys, f"argument {argv[0]}: expected one argument",
                                 ["preset", "example1-single", *argv])

    def test_repeated_flag_keeps_its_last_value(self, capsys):
        assert main(["preset", "example1-single", "--M", "3", "--gamma", "1"]) == 0
        table = capsys.readouterr().out
        assert main(["preset", "example1-single", "--M", "5", "--gamma", "0.2,0.5",
                     "--M=3", "--gamma", "1"]) == 0
        assert capsys.readouterr().out == table

    def test_every_named_criterion_runs(self, capsys):
        assert main(["verify", "--criterion", "criterion-01", "--criterion=criterion-10"]) == 0
        out = capsys.readouterr().out
        assert "PASS criterion-01" in out and "PASS criterion-10" in out
        assert out.endswith("2/2 criteria passed\n")

    @pytest.mark.parametrize(
        "argv, message",
        [(["preset", "example3"], "argument name: invalid choice: 'example3' (choose from "
                                  "'example1-double', 'example1-hump', 'example1-single', "
                                  "'example2')"),
         (["preset", "example2", "--format", "xml"],
          "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
         (["solve", "--config", "cfg.json", "--format=tsv"],
          "argument --format: invalid choice: 'tsv'"),
         (["preset", "example2", "--metric", "ae"],
          "argument --metric: invalid choice: 'ae' (choose from 'AE', 'MAE', 'residual')"),
         (["preset"], "the following arguments are required: name"),
         (["solve", "--out", "t.csv"], "the following arguments are required: --config"),
         (["simulate"], "argument command: invalid choice: 'simulate' (choose from 'solve', "
                        "'preset', 'verify')"),
         ([], "the following arguments are required: command")],
        ids=["name", "preset-format", "solve-format", "metric", "no-name", "no-config",
             "command", "empty"],
    )
    def test_bad_or_missing_argument_is_named(self, monkeypatch, capsys, argv, message):
        import fobw.cli

        def refuse(*args):
            raise AssertionError("no run may start")

        monkeypatch.setattr(fobw.cli, "run_experiment", refuse)
        _assert_one_error_naming(capsys, message, argv)

    @pytest.mark.parametrize("argv", [["--met", "AE"], ["--form", "json"], ["--plot", "p.csv"]],
                             ids=["met", "form", "plot"])
    def test_abbreviated_flag_is_refused(self, capsys, argv):
        # a flag is read only by its whole name
        _assert_one_error_naming(capsys, f"unrecognized arguments: {' '.join(argv)}",
                                 ["preset", "example1-single", *argv])

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["preset", "--help"],
                                      ["solve", "-h"], ["preset", "example2", "--M", "3", "-h"]])
    def test_help_prints_the_usage(self, capsys, argv):
        import fobw.cli

        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == fobw.cli.__doc__ and captured.err == ""
        assert "fobw preset NAME" in captured.out

    def test_usage_error_is_one_line_from_the_module_entry_point(self):
        proc = _run_fobw(["preset", "example1-single", "--M", "t"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "[ERROR] fobw: argument --M: 't' is not an unsigned number\n"


def _assert_one_error_naming(capsys, name, argv):
    """``main(argv)`` exits 2 with one error line on stderr, and that line
    holds ``name``; returns the line's message."""
    capsys.readouterr()
    assert main(argv) == 2
    prefix = "[ERROR] fobw: "
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith(prefix)]
    assert len(errors) == 1 and name in errors[0]
    return errors[0][len(prefix):]


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

    def test_reference_blowup_fails_the_ae_column(self, tmp_path, capsys):
        cfg = {"mu": 0, "a": 0, "b": -50, "init_value": 2, "metrics": ["AE"],
               "basis": [[1, 5, 1.0]]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path), "--format", "json"]) == 1
        captured = capsys.readouterr()
        payload = _strict_json(captured.out)
        assert payload["meta"]["failed_columns"] == ["AE gamma=1 M=5"]
        assert payload["columns"]["AE gamma=1 M=5"] == [None] * 5
        warnings = payload["meta"]["warnings"]
        assert warnings[0].startswith("RK4 reference failed") and "t = 0.13" in warnings[0]
        assert captured.err == "".join(f"[WARNING] fobw: {w}\n" for w in warnings)

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
        assert line.startswith("[ERROR] fobw: invalid preset options: basis entry (")
        assert line.endswith("): gamma*M = 180 exceeds 168: the basis images would need "
                             "gamma values past the range of a double")

    def test_basis_too_large_to_assemble_is_refused(self):
        # 2**44 * 4 wavelets: refused by name before anything is allocated
        proc = _run_fobw(["preset", "example1-single", "--k", "45", "--M", "3", "--gamma", "0.5"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("[ERROR] fobw: invalid preset options: basis entry (45, 3, 0.5): "
                               "sigma_tilde = 2**44 * 4 exceeds 1024: the basis would be too "
                               "large to assemble\n")

    def test_missing_config(self):
        assert main(["solve", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("content", [b"\xff", b"[" * 100000 + b"]" * 100000],
                             ids=["not-utf-8", "nested-past-the-recursion-limit"])
    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        _assert_one_error_naming(capsys, f"could not read config {path}: ",
                                 ["solve", "--config", str(path)])

    def test_invalid_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"metrics": ["bogus"]}))
        assert main(["solve", "--config", str(path)]) == 2

    def test_out_path_from_config(self, tmp_path, capsys):
        # the output path is the command's: --out writes it, a config's "out" is refused
        out = tmp_path / "from_flag.json"
        cfg = {
            "mu": 0.0, "a": 0.0, "b": 0.0, "init_value": 1.0,
            "alpha": [2.0], "basis": [[1, 3, 1.0]],
            "metrics": ["residual"],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path), "--format", "json", "--out", str(out)]) == 0
        assert _strict_json(out.read_text())["columns"]["residual gamma=1 M=3"]
        path.write_text(json.dumps(dict(cfg, out=str(tmp_path / "from_cfg.json"))))
        _assert_one_error_naming(capsys, "unknown config keys: ['out']",
                                 ["solve", "--config", str(path)])
        assert not (tmp_path / "from_cfg.json").exists()


class TestVerifyCommand:
    def test_single_criterion(self, capsys):
        assert main(["verify", "--criterion", "criterion-10"]) == 0
        out = capsys.readouterr().out
        assert "PASS criterion-10" in out
        assert "1/1 criteria passed" in out

    def test_unknown_criterion(self, capsys):
        assert main(["verify", "--criterion", "criterion-99"]) == 2


def _strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _run_fobw(argv):
    """``python -m fobw *argv`` in a fresh interpreter."""
    # the child imports the same fobw as this test, installed or not
    pythonpath = [str(Path(fobw.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    return subprocess.run([sys.executable, "-m", "fobw", *argv], capture_output=True, text=True,
                          timeout=180, env=env)


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = _run_fobw(["preset", "example1-single", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("t,")
