"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with `pytest -s`, or via `fobw verify`)."""

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
