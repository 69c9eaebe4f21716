import json
import subprocess
import sys

import pytest

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
        solve = fobw.solver.solve_problem

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(fobw.solver, "solve_problem", counted)
        monkeypatch.setattr(fobw.experiments, "solve_problem", counted)
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


class TestSolveCommand:
    def test_config_file(self, tmp_path, capsys):
        cfg = {
            "mu": 0.0, "a": 1.0, "b": 0.0, "init_value": 1.0,
            "alpha": [2.0], "basis": [[1, 5, 1.0]],
            "metrics": ["AE"], "reference": "rk4",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,AE gamma=1 M=5")

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
            "metrics": ["residual"], "reference": "none",
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


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fobw", "preset", "example1-single", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("t,")
