"""Independent oracles that the closed-form routes are checked against.

Two families, neither on the path of any command but ``fobw verify``:

* the closed-form Bernstein evaluation (:func:`bernstein_frac`,
  :func:`fobw_eval`), the factored formula of :mod:`fobw.basis` evaluated
  point by point instead of through the table of monomial coefficients;
* the quadrature route (:func:`rl_integral_quadrature`,
  :func:`_wavelet_image_quadrature`, :func:`weighted_inner_product`), which
  integrates the defining singular integrals directly with composite
  Gauss-Legendre in an endpoint-graded variable instead of using the closed
  forms of :func:`fobw.fracops.basis_images`.

The acceptance criteria and the tests import this module; the solver, the
experiments and the CLI do not.  Every wavelet oracle names its wavelet by
the plain ints ``eta`` (translation, 1..2**(k-1)) and ``upsilon`` (order,
0..M) after the basis ``spec``.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .basis import WaveletBasisSpec, _local_values

__all__ = [
    "AccuracyError",
    "adaptive_unit_integral",
    "bernstein_frac",
    "fobw_eval",
    "rl_integral_quadrature",
    "weighted_inner_product",
]


# ---------------------------------------------------------------------------
# closed-form Bernstein evaluation
# ---------------------------------------------------------------------------

def _check_index(spec: WaveletBasisSpec, eta: int, *upsilons: int) -> None:
    """ValueError unless eta is an int in [1, 2**(k-1)] and every upsilon one in [0, M]."""
    if not (isinstance(eta, Integral) and 1 <= eta <= spec.translations):
        raise ValueError(f"eta={eta} outside [1, {spec.translations}]")
    for upsilon in upsilons:
        if not (isinstance(upsilon, Integral) and 0 <= upsilon <= spec.M):
            raise ValueError(f"upsilon={upsilon} outside [0, {spec.M}]")


def bernstein_frac(upsilon: int, M: int, gamma: float, t: float) -> float:
    """Closed-form evaluation of the fractional Bernstein polynomial on [0, 1]."""
    if not (0 <= upsilon <= M):
        raise ValueError("need 0 <= upsilon <= M")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    amp = math.sqrt(1.0 + 2.0 * M - 2.0 * upsilon)
    inner = 0.0
    for i in range(upsilon + 1):
        sign = -1.0 if i % 2 else 1.0
        inner += (
            sign
            * math.comb(1 + 2 * M - i, upsilon - i)
            * math.comb(upsilon, i)
            * t ** (gamma * (upsilon - i))
        )
    return amp * (1.0 - t**gamma) ** (M - upsilon) * inner


def fobw_eval(spec: WaveletBasisSpec, eta: int, upsilon: int, t: float) -> float:
    """Wavelet (eta, upsilon) at t; zero outside its cell.  A shared cell
    boundary belongs to the left cell, and t = 0 to the first."""
    _check_index(spec, eta, upsilon)
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    if max(1, math.ceil(t * spec.translations)) != eta:
        return 0.0
    x = 1.0 + spec.translations * t - eta
    scale = math.sqrt(spec.gamma) * 2.0 ** ((spec.k - 1) / 2.0)
    return scale * bernstein_frac(upsilon, spec.M, spec.gamma, x)


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

class AccuracyError(ArithmeticError):
    """Quadrature failed to converge; carries the best estimate reached."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)

# Polynomial grading order of the integration variable at both endpoints.
# Integrands carry algebraic endpoint behavior like (1-v)**gamma from
# fractional basis exponents; plain composite Gauss-Legendre stalls on those,
# while the graded variable restores fast convergence.
_GRADING_ORDER = 8

_MAX_PANELS_PER_CHUNK = 1 << 14

QUADRATURE_TOL = 1e-12  # agreement of two successive estimates that ends the bisection


def _graded(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    wm = w**_GRADING_ORDER
    om = (1.0 - w) ** _GRADING_ORDER
    denom = wm + om
    v = wm / denom
    dv = (
        _GRADING_ORDER
        * w ** (_GRADING_ORDER - 1)
        * (1.0 - w) ** (_GRADING_ORDER - 1)
        / denom**2
    )
    return v, dv


def _panel_block_sum(g, lo_edges: np.ndarray, half_width: float) -> float:
    mids = lo_edges + half_width
    w = (mids[:, None] + half_width * _GL_NODES[None, :]).ravel()
    v, dv = _graded(w)
    vals = np.asarray(g(v), dtype=float) * dv
    return float(half_width * np.sum(vals.reshape(-1, 64) @ _GL_WEIGHTS))


def _level_estimate(g, panels: int) -> float:
    width = 1.0 / panels
    total = 0.0
    for start in range(0, panels, _MAX_PANELS_PER_CHUNK):
        stop = min(start + _MAX_PANELS_PER_CHUNK, panels)
        edges = np.arange(start, stop, dtype=float) * width
        total += _panel_block_sum(g, edges, 0.5 * width)
    return total


def adaptive_unit_integral(g, max_levels: int = 20) -> float:
    """Integral of vectorized ``g`` over [0, 1].

    Composite 64-node Gauss-Legendre in an endpoint-graded variable; panels
    are bisected globally until two successive estimates agree to
    ``QUADRATURE_TOL``, absolute below 1 and relative above.
    """
    prev = _level_estimate(g, 1)
    for level in range(1, max_levels + 1):
        cur = _level_estimate(g, 2**level)
        if abs(cur - prev) <= QUADRATURE_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise AccuracyError(
        f"quadrature did not converge within {max_levels} bisection levels", prev
    )


# ---------------------------------------------------------------------------
# Riemann-Liouville integrals and inner products by quadrature
# ---------------------------------------------------------------------------

def rl_integral_quadrature(f, lam: float, t: float) -> float:
    """Fractional integral of order lam at t, by quadrature, of ``f``, a
    function of an array of points that returns their values.

    The kernel singularity at the upper limit is removed by substituting
    tau = t * (1 - v**(1/lam)):

        I[f](t) = t**lam / gamma(lam+1) * integral_0^1 f(t*(1 - v**(1/lam))) dv
    """
    if lam <= 0.0:
        raise ValueError("integral order must be positive")
    t = float(t)
    if not (0.0 < t <= 1.0):
        raise ValueError("t must lie in (0, 1]")
    inv = 1.0 / lam
    g = lambda v: f(t * (1.0 - v**inv))
    j = adaptive_unit_integral(g)
    return t**lam / math.gamma(lam + 1.0) * j


def _wavelet_image_quadrature(
    spec: WaveletBasisSpec, eta: int, upsilon: int, lam: float, t: float
) -> float:
    """I^lam of wavelet (eta, upsilon) at t by quadrature: the test oracle of
    :func:`fobw.fracops.basis_images`.

    The kernel (t - tau)**(lam-1) is singular at tau = t, or nearly so at the
    cell end when t lies just past it, so both cases substitute it away:
    inside the cell by :func:`rl_integral_quadrature` from the cell start;
    beyond it with r = (t - tau)**lam, as (t - tau)**(lam-1) dtau = -dr/lam.
    """
    _check_index(spec, eta, upsilon)
    scale = spec.translations
    lo, hi = (eta - 1) / scale, eta / scale
    if t <= lo:
        return 0.0
    wavelet = lambda x: _local_values(spec, x, [upsilon])[:, 0]
    if t <= hi:
        return rl_integral_quadrature(lambda tau: wavelet(scale * tau), lam, t - lo)
    # the local coordinate scale*(tau - lo) loses its last digits to
    # cancellation near tau = lo, so it is clipped to the cell
    near, far = (t - hi) ** lam, (t - lo) ** lam
    inv = 1.0 / lam
    g = lambda v: wavelet(np.clip(scale * (t - lo - (near + (far - near) * v) ** inv), 0.0, 1.0))
    j = adaptive_unit_integral(g)
    return (far - near) / math.gamma(lam + 1.0) * j


def weighted_inner_product(
    spec: WaveletBasisSpec, eta: int, upsilon: int, vartheta: int
) -> float:
    """Integral of wavelet(eta,upsilon) * wavelet(eta,vartheta) * cell weight over [0, 1].

    In the local coordinate the weight is x**(gamma-1), the same endpoint
    singularity the fractional-integral kernel has, and the same substitution
    removes it: x = u**(1/gamma) gives

        integral x**(gamma-1) q(x) dx = (1/gamma) * integral q(u**(1/gamma)) du.

    The substitution is composed analytically so the small coordinate is
    computed directly (1 - (1 - u**(1/gamma)) would lose all relative
    precision near u = 0 and fractional powers amplify that noise).
    """
    _check_index(spec, eta, upsilon, vartheta)
    inv = 1.0 / spec.gamma

    def substituted_product(u):
        values = _local_values(spec, np.asarray(u, dtype=float) ** inv, [upsilon, vartheta])
        return values[:, 0] * values[:, 1]

    integral = adaptive_unit_integral(substituted_product)
    return integral / (spec.gamma * spec.translations)
