"""Acceptance criteria: the checks `fobw verify` runs and the test suite asserts.

Every criterion is a pure function returning (passed, detail).  Criteria 01-06
read their numbers from the tables :func:`~fobw.experiments.run_experiment`
builds for `fobw preset`.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from typing import NamedTuple

import numpy as np

from .basis import WaveletBasisSpec
from .experiments import TABLE_POINTS, preset_config, run_experiment
from .fracops import basis_images
from .oracles import _wavelet_image_quadrature, weighted_inner_product
from .reference import rk4_integrate
from .solver import OscillatorProblem, solve_problem

# Published residual magnitudes for the single-well case, alpha = 1.5,
# gamma = 0.2, M = 5, at the five table points; the criterion allows 10x.
SINGLE_WELL_A15_G02_RESIDUALS = (1.1e-4, 1.1e-4, 7.9e-5, 3.4e-5, 1.9e-5)

EXAMPLE1_PRESETS = ("example1-single", "example1-double", "example1-hump")
ALL_PRESETS = EXAMPLE1_PRESETS + ("example2",)

# alpha = 2, gamma = 1, M = 5: the AE column the error-table criteria read
AE_BASIS = ((1, 5, 1.0),)
AE_LABEL = "AE gamma=1 M=5"


class CriterionResult(NamedTuple):
    ident: str
    description: str
    passed: bool
    detail: str
    seconds: float


def _columns(preset: str, **overrides) -> dict[str, tuple[float, ...]]:
    """The table columns `fobw preset` builds for ``preset`` with ``overrides``
    at the table points, read by label; a column whose solve failed is all NaN."""
    return run_experiment(preset_config(preset, **overrides)).columns


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_01():
    """Single-well, alpha=2, gamma=1, M=5: AE <= 1e-6, under 5 s, against the
    step-doubled RK4 reference (two successive runs of coprime step counts
    agree to 1e-12, at most 102401 steps)."""
    start = time.perf_counter()
    worst = float(np.max(_columns("example1-single", basis=AE_BASIS)[AE_LABEL]))
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-6 and elapsed < 5.0
    return passed, f"max AE {worst:.3e} (limit 1e-06), runtime {elapsed:.2f}s (limit 5s)"


def criterion_02():
    """Double-well and double-hump, alpha=2, gamma=1, M=5: AE <= 1e-6."""
    worst = {
        preset: float(np.max(_columns(preset, basis=AE_BASIS)[AE_LABEL]))
        for preset in ("example1-double", "example1-hump")
    }
    passed = all(v <= 1e-6 for v in worst.values())
    detail = ", ".join(f"{k.split('-')[-1]} {v:.3e}" for k, v in worst.items())
    return passed, f"max AE {detail} (limit 1e-06)"


def criterion_03():
    """Example 2, alpha=2, gamma=1, M=5: AE vs dense RK4 <= 5e-4."""
    worst = float(np.max(_columns("example2", basis=AE_BASIS)[AE_LABEL]))
    return worst <= 5e-4, f"max AE {worst:.3e} (limit 5e-04)"


def criterion_04():
    """Single-well, alpha=1.5, gamma=0.2, M=5: residual within 10x of published."""
    residuals = _columns("example1-single", alpha=1.5, basis=((1, 5, 0.2),))[
        "residual gamma=0.2 M=5"
    ]
    rows = []
    passed = True
    for t, r, printed in zip(TABLE_POINTS, residuals, SINGLE_WELL_A15_G02_RESIDUALS):
        ok = r <= 10.0 * printed
        passed &= ok
        rows.append(f"t={t}: {r:.2e} (limit {10.0 * printed:.1e})")
    return passed, "; ".join(rows)


def criterion_05():
    """Refinement monotonicity: 5-point max residual, M=5 strictly below M=3,
    gamma=0.2, alpha in {1.2, 1.4, 1.6, 1.8}, all four presets."""
    alphas = (1.2, 1.4, 1.6, 1.8)
    violations = []
    checked = 0
    for preset in ALL_PRESETS:
        columns = _columns(preset, alpha=alphas, basis=((1, 3, 0.2), (1, 5, 0.2)))
        for alpha in alphas:
            m3, m5 = (
                float(np.max(columns[f"residual gamma=0.2 M={M} alpha={alpha:g}"]))
                for M in (3, 5)
            )
            checked += 1
            if not (m5 < m3):
                violations.append(f"{preset} alpha={alpha}: M5 {m5:.3e} !< M3 {m3:.3e}")
    if violations:
        return False, f"{checked - len(violations)}/{checked} combos hold; " + "; ".join(violations)
    return True, f"all {checked} combos strictly monotone"


def criterion_06():
    """Variable order alpha(t) = 1 + sin t, gamma=0.2, M=5: every preset
    converges; the Example-1 presets stay within the 1e-1 residual bound."""
    details = []
    passed = True
    for preset in ALL_PRESETS:
        cfg = preset_config(preset, alpha="1 + sin(t)", basis=((1, 5, 0.2),))
        table = run_experiment(cfg)
        if table.meta["failed_columns"]:
            passed = False
            details.append(f"{preset}: did not converge ({'; '.join(table.meta['warnings'])})")
            continue
        worst = float(np.max(table.columns["residual gamma=0.2 M=5"]))
        bounded = preset in EXAMPLE1_PRESETS
        if bounded and worst > 1e-1:
            passed = False
        tag = " (limit 1e-01)" if bounded else " (reported)"
        details.append(f"{preset}: max residual {worst:.3e}{tag}")
    return passed, "; ".join(details)


def criterion_07():
    """Orthonormality of the weighted wavelet system to 1e-8."""
    worst = 0.0
    for g in (0.2, 0.5, 1.0):
        for k in (1, 2):
            for M in range(6):
                spec = WaveletBasisSpec(k, M, g)
                for eta in range(1, spec.translations + 1):
                    for u in range(M + 1):
                        for v in range(u, M + 1):
                            ip = weighted_inner_product(spec, eta, u, v)
                            expected = 1.0 if u == v else 0.0
                            worst = max(worst, abs(ip - expected))
    return worst <= 1e-8, f"max |inner product - delta| = {worst:.3e} (limit 1e-08)"


def criterion_08():
    """Closed-form basis images (the solver's route) vs quadrature agree to 1e-10 absolute."""
    rng = np.random.default_rng(20230817)
    worst = 0.0
    for g in (0.2, 0.5, 1.0):
        spec = WaveletBasisSpec(1, 5, g)
        for upsilon in range(6):
            for lam in (0.3, 0.5, 1.0, 1.7):
                for t in rng.uniform(0.05, 1.0, 10):
                    q = _wavelet_image_quadrature(spec, 1, upsilon, lam, t)
                    worst = max(worst, abs(q - basis_images(spec, lam, t)[upsilon]))
    return worst <= 1e-10, f"max |analytic - quadrature| = {worst:.3e} (limit 1e-10)"


def criterion_09():
    """Manufactured solution cos t (alpha=2, mu=0, b=0, a=1): MAE <= 1e-8."""
    problem = OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=2.0, init_value=1.0)
    approx = solve_problem(problem, WaveletBasisSpec(1, 5, 1.0))
    grid = np.linspace(0.0, 1.0, 101)
    mae = float(np.abs(approx.value(grid) - np.cos(grid)).max())
    return mae <= 1e-8, f"MAE {mae:.3e} on 101-point grid (limit 1e-08)"


def criterion_10():
    """RK4 order: halving the step shrinks the cos-1 error by 12x to 20x."""
    problem = OscillatorProblem(mu=0.0, a=1.0, b=0.0, alpha=2.0, init_value=1.0)
    e_coarse = abs(rk4_integrate(problem, 0.01).value(1.0) - math.cos(1.0))
    e_fine = abs(rk4_integrate(problem, 0.005).value(1.0) - math.cos(1.0))
    ratio = e_coarse / e_fine
    return 12.0 <= ratio <= 20.0, f"error ratio {ratio:.2f} (window [12, 20])"


def criterion_11():
    """Determinism: the single-well preset renders byte-identical CSV twice."""
    from .cli import main as cli_main

    bodies = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in range(2):
            out = os.path.join(tmp, f"run{run}.csv")
            code = cli_main(["preset", "example1-single", "--out", out])
            if code != 0:
                return False, f"preset command exited with {code}"
            with open(out, "rb") as fh:
                bodies.append(fh.read())
    identical = bodies[0] == bodies[1]
    return identical, (
        f"{len(bodies[0])} bytes, identical" if identical else "outputs differ"
    )


CRITERIA = (
    ("criterion-01", "single-well AE vs RK4, alpha=2", criterion_01),
    ("criterion-02", "double-well and double-hump AE, alpha=2", criterion_02),
    ("criterion-03", "force-free example AE vs dense RK4", criterion_03),
    ("criterion-04", "single-well residual magnitudes, alpha=1.5", criterion_04),
    ("criterion-05", "refinement monotonicity M=3 vs M=5", criterion_05),
    ("criterion-06", "variable-order run, alpha = 1 + sin t", criterion_06),
    ("criterion-07", "weighted orthonormality", criterion_07),
    ("criterion-08", "analytic vs quadrature operator equivalence", criterion_08),
    ("criterion-09", "manufactured cos-t solution", criterion_09),
    ("criterion-10", "RK4 order under step halving", criterion_10),
    ("criterion-11", "deterministic CSV output", criterion_11),
)


def run_criterion(ident: str) -> CriterionResult:
    for name, description, fn in CRITERIA:
        if name == ident:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CriterionResult(name, description, passed, detail, time.perf_counter() - start)
    raise KeyError(f"no criterion named {ident!r}")


def run_all(idents=None, stream=None) -> list[CriterionResult]:
    results = []
    for name, description, fn in CRITERIA:
        if idents and name not in idents:
            continue
        result = run_criterion(name)
        results.append(result)
        if stream is not None:
            status = "PASS" if result.passed else "FAIL"
            stream.write(
                f"{status} {result.ident} [{result.seconds:6.2f}s] "
                f"{result.description}: {result.detail}\n"
            )
    return results
