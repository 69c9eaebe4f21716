"""Acceptance criteria: the checks `fobw verify` runs and the test suite asserts.

Every criterion is a pure function returning (passed, detail).  Solves are
cached across criteria.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .basis import WaveletBasisSpec, _local_values
from .experiments import PRESET_PROBLEMS, build_order
from .fracops import OrderFunction, basis_images
from .oracles import rl_integral_quadrature, weighted_inner_product
from .published import TABLE_POINTS
from .reference import absolute_error, residual_samples, rk4_integrate
from .solver import OscillatorProblem, SolverError, solve_problem

# Published residual magnitudes for the single-well case, alpha = 1.5,
# gamma = 0.2, M = 5, at the five table points; the criterion allows 10x.
SINGLE_WELL_A15_G02_RESIDUALS = (1.1e-4, 1.1e-4, 7.9e-5, 3.4e-5, 1.9e-5)

EXAMPLE1_PRESETS = ("example1-single", "example1-double", "example1-hump")
ALL_PRESETS = EXAMPLE1_PRESETS + ("example2",)


class CriterionResult(NamedTuple):
    ident: str
    description: str
    passed: bool
    detail: str
    seconds: float


def _problem(preset: str, alpha) -> OscillatorProblem:
    return OscillatorProblem(alpha=build_order(alpha), **PRESET_PROBLEMS[preset])


@lru_cache(maxsize=None)
def _solved(preset: str, alpha, k: int, M: int, g: float):
    return solve_problem(_problem(preset, alpha), WaveletBasisSpec(k, M, g))


@lru_cache(maxsize=None)
def _rk4(preset: str, h: float):
    return rk4_integrate(_problem(preset, 2.0), h)


def _max_residual_at_points(preset: str, alpha, M: int, g: float) -> float:
    approx = _solved(preset, alpha, 1, M, g)
    return float(residual_samples([approx], np.array(TABLE_POINTS))[0].max())


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_01():
    """Single-well, alpha=2, gamma=1, M=5: AE vs RK4 (h=1e-4) <= 1e-6, under 5 s."""
    start = time.perf_counter()
    problem = _problem("example1-single", 2.0)
    approx = solve_problem(problem, WaveletBasisSpec(1, 5, 1.0))
    reference = rk4_integrate(problem, 1e-4)
    worst = float(absolute_error(approx, reference, np.array(TABLE_POINTS)).max())
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-6 and elapsed < 5.0
    return passed, f"max AE {worst:.3e} (limit 1e-06), runtime {elapsed:.2f}s (limit 5s)"


def criterion_02():
    """Double-well and double-hump, alpha=2, gamma=1, M=5: AE <= 1e-6."""
    worst = {}
    for preset in ("example1-double", "example1-hump"):
        approx = _solved(preset, 2.0, 1, 5, 1.0)
        reference = _rk4(preset, 1e-4)
        worst[preset] = float(absolute_error(approx, reference, np.array(TABLE_POINTS)).max())
    passed = all(v <= 1e-6 for v in worst.values())
    detail = ", ".join(f"{k.split('-')[-1]} {v:.3e}" for k, v in worst.items())
    return passed, f"max AE {detail} (limit 1e-06)"


def criterion_03():
    """Example 2, alpha=2, gamma=1, M=5: AE vs dense RK4 <= 5e-4."""
    approx = _solved("example2", 2.0, 1, 5, 1.0)
    reference = _rk4("example2", 1e-4)
    worst = float(absolute_error(approx, reference, np.array(TABLE_POINTS)).max())
    return worst <= 5e-4, f"max AE {worst:.3e} (limit 5e-04)"


def criterion_04():
    """Single-well, alpha=1.5, gamma=0.2, M=5: residual within 10x of published."""
    approx = _solved("example1-single", 1.5, 1, 5, 0.2)
    rows = []
    passed = True
    residuals = residual_samples([approx], np.array(TABLE_POINTS))[0].tolist()
    for t, r, printed in zip(TABLE_POINTS, residuals, SINGLE_WELL_A15_G02_RESIDUALS):
        ok = r <= 10.0 * printed
        passed &= ok
        rows.append(f"t={t}: {r:.2e} (limit {10.0 * printed:.1e})")
    return passed, "; ".join(rows)


def criterion_05():
    """Refinement monotonicity: 5-point max residual, M=5 strictly below M=3,
    gamma=0.2, alpha in {1.2, 1.4, 1.6, 1.8}, all four presets."""
    violations = []
    checked = 0
    for preset in ALL_PRESETS:
        for alpha in (1.2, 1.4, 1.6, 1.8):
            m3 = _max_residual_at_points(preset, alpha, 3, 0.2)
            m5 = _max_residual_at_points(preset, alpha, 5, 0.2)
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
        try:
            worst = _max_residual_at_points(preset, "1 + sin(t)", 5, 0.2)
        except SolverError as exc:
            passed = False
            details.append(f"{preset}: did not converge ({exc})")
            continue
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
            # at k = 1 the local coordinate is t itself
            wavelet = lambda x: _local_values(spec, x, [upsilon])[:, 0]
            for lam in (0.3, 0.5, 1.0, 1.7):
                for t in rng.uniform(0.05, 1.0, 10):
                    q = rl_integral_quadrature(wavelet, lam, t)
                    worst = max(worst, abs(q - basis_images(spec, lam, t)[upsilon]))
    return worst <= 1e-10, f"max |analytic - quadrature| = {worst:.3e} (limit 1e-10)"


def criterion_09():
    """Manufactured solution cos t (alpha=2, mu=0, b=0, a=1): MAE <= 1e-8."""
    problem = OscillatorProblem(
        mu=0.0, a=1.0, b=0.0, alpha=OrderFunction.constant(2.0), init_value=1.0
    )
    approx = solve_problem(problem, WaveletBasisSpec(1, 5, 1.0))
    grid = np.linspace(0.0, 1.0, 101)
    mae = float(np.abs(approx.value(grid) - np.cos(grid)).max())
    return mae <= 1e-8, f"MAE {mae:.3e} on 101-point grid (limit 1e-08)"


def criterion_10():
    """RK4 order: halving the step shrinks the cos-1 error by 12x to 20x."""
    problem = OscillatorProblem(
        mu=0.0, a=1.0, b=0.0, alpha=OrderFunction.constant(2.0), init_value=1.0
    )
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
            passed, detail = fn()
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
