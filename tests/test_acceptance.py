"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with `pytest -s`, or via `fobw verify`)."""

from types import SimpleNamespace

import pytest

from fobw import acceptance, experiments
from fobw.acceptance import CRITERIA, run_criterion
from fobw.cli import main
from fobw.solver import SolverError


@pytest.mark.parametrize("ident", [name for name, _, _ in CRITERIA])
def test_criterion(ident):
    result = run_criterion(ident)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.ident} [{result.seconds:6.2f}s] {result.description}: {result.detail}")
    assert result.passed, f"{result.ident} failed: {result.detail}"


def test_a_criterion_that_raises_fails_and_verify_goes_on(monkeypatch, capsys):
    def fail(problem, spec):
        raise SolverError("Jacobian is singular")

    monkeypatch.setattr(acceptance, "solve_problem", fail)
    result = run_criterion("criterion-09")
    assert not result.passed
    assert result.detail == "raised SolverError: Jacobian is singular"
    assert main(["verify", "--criterion", "criterion-09", "--criterion", "criterion-10"]) == 1
    captured = capsys.readouterr()
    assert "FAIL criterion-09" in captured.out and "PASS criterion-10" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_criterion_06_names_each_preset_that_did_not_converge(monkeypatch):
    def fail(system):
        raise SolverError("Jacobian is singular")

    monkeypatch.setattr(experiments, "newton_solve", fail)
    passed, detail = acceptance.criterion_06()
    assert not passed
    for preset in acceptance.ALL_PRESETS:
        assert f"{preset}: did not converge (" in detail
    assert "max residual" not in detail


def test_criterion_05_passes_when_every_m5_column_is_below_m3(monkeypatch):
    def columns(preset, alpha, basis):
        return {f"residual gamma=0.2 M={M} alpha={a:g}": (1e-2 / M,) * 5
                for a in alpha for M in (3, 5)}

    monkeypatch.setattr(acceptance, "_columns", columns)
    assert acceptance.criterion_05() == (True, "all 16 combos strictly monotone")


def test_criterion_06_fails_an_example1_residual_above_its_bound(monkeypatch):
    def run(cfg):
        worst = 0.2 if cfg.preset == "example1-single" else 1e-3
        return SimpleNamespace(meta={"failed_columns": []},
                               columns={"residual gamma=0.2 M=5": (worst,) * 5})

    monkeypatch.setattr(acceptance, "run_experiment", run)
    passed, detail = acceptance.criterion_06()
    assert not passed
    assert detail.startswith("example1-single: max residual 2.000e-01 (limit 1e-01)")


def test_an_unknown_criterion_is_a_key_error():
    with pytest.raises(KeyError) as info:
        run_criterion("criterion-99")
    assert info.value.args == ("no criterion named 'criterion-99'",)


def test_criterion_11_reports_a_failed_preset_command(monkeypatch):
    monkeypatch.setattr("fobw.cli.main", lambda argv: 2)
    assert acceptance.criterion_11() == (False, "preset command exited with 2")
