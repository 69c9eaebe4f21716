"""Independent oracles that the closed-form routes are checked against.

Two families, neither on the path of any command but ``fobw verify``:

* the closed-form Bernstein evaluation (:func:`bernstein_frac`,
  :func:`fobw_eval`, :func:`weight_eval`), the factored formula of
  :mod:`fobw.basis` evaluated point by point instead of through the table of
  monomial coefficients;
* the quadrature route (:func:`rl_integral_quadrature`,
  :func:`_wavelet_image_quadrature`, :func:`weighted_inner_product`), which
  integrates the defining singular integrals directly with composite
  Gauss-Legendre in an endpoint-graded variable instead of using the closed
  forms of :func:`fobw.fracops.basis_images`.

The acceptance criteria and the tests import this module; the solver, the
experiments and the CLI do not.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .basis import WaveletBasisSpec, _local_values

__all__ = [
    "AccuracyError",
    "BasisIndex",
    "adaptive_unit_integral",
    "bernstein_frac",
    "fobw_eval",
    "rl_integral_quadrature",
    "weight_eval",
    "weighted_inner_product",
]


# ---------------------------------------------------------------------------
# closed-form Bernstein evaluation
# ---------------------------------------------------------------------------

class BasisIndex(NamedTuple):
    """Position of one wavelet: translation eta in [1, 2**(k-1)], order upsilon in [0, M]."""

    eta: int
    upsilon: int


def _validate_index(idx: BasisIndex, spec: WaveletBasisSpec) -> None:
    if not (1 <= idx.eta <= spec.translations):
        raise ValueError(f"eta={idx.eta} outside [1, {spec.translations}]")
    if not (0 <= idx.upsilon <= spec.M):
        raise ValueError(f"upsilon={idx.upsilon} outside [0, {spec.M}]")


def cell_bounds(spec: WaveletBasisSpec, eta: int) -> tuple[float, float]:
    """Support of the eta-th translation: [(eta-1), eta] / 2**(k-1)."""
    width = 1.0 / spec.translations
    return (eta - 1) * width, eta * width


def cell_index(spec: WaveletBasisSpec, t: float) -> int:
    """Cell owning t.  Shared boundaries belong to the left cell, so cells are
    half-open on the left except the first, which is closed at 0."""
    if t <= 0.0:
        return 1
    return min(int(math.ceil(t * spec.translations)), spec.translations)


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


def fobw_eval(idx: BasisIndex, spec: WaveletBasisSpec, t: float) -> float:
    """Wavelet (eta, upsilon) at t; zero outside its cell."""
    _validate_index(idx, spec)
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    if cell_index(spec, t) != idx.eta:
        return 0.0
    x = 1.0 + spec.translations * t - idx.eta
    scale = math.sqrt(spec.gamma) * 2.0 ** ((spec.k - 1) / 2.0)
    return scale * bernstein_frac(idx.upsilon, spec.M, spec.gamma, x)


def weight_eval(spec: WaveletBasisSpec, eta: int, t: float) -> float:
    """Orthogonality weight of the eta-th cell, (1 + 2**(k-1)*t - eta)**(gamma-1)."""
    if not (1 <= eta <= spec.translations):
        raise ValueError(f"eta={eta} outside [1, {spec.translations}]")
    if spec.gamma == 1.0:
        return 1.0
    x = 1.0 + spec.translations * t - eta
    if x < 0.0 or x > 1.0:
        raise ValueError("t outside the eta-th subinterval")
    if x == 0.0:
        if spec.gamma < 1.0:
            raise ValueError("weight is singular at the left cell endpoint for gamma < 1")
        return 0.0
    return x ** (spec.gamma - 1.0)


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
    """Fractional integral of order lam of an evaluable f at t, by quadrature.

    The kernel singularity at the upper limit is removed by substituting
    tau = t * (1 - v**(1/lam)):

        I[f](t) = t**lam / gamma(lam+1) * integral_0^1 f(t*(1 - v**(1/lam))) dv
    """
    if lam <= 0.0:
        raise ValueError("integral order must be positive")
    t = float(t)
    if not (0.0 < t <= 1.0):
        raise ValueError("t must lie in (0, 1]")
    fv = _vectorized(f)
    inv = 1.0 / lam
    g = lambda v: fv(t * (1.0 - v**inv))
    j = adaptive_unit_integral(g)
    return t**lam / math.gamma(lam + 1.0) * j


def _vectorized(f):
    """``f`` if it maps an array of points to an array of values, else ``f``
    looped over the points one float at a time."""
    probe = np.array([0.25, 0.75])
    try:
        out = np.asarray(f(probe), dtype=float)
        if out.shape == probe.shape:
            return f
    except Exception:
        pass

    def wrapped(x):
        x = np.atleast_1d(x)
        return np.array([float(f(xi)) for xi in x])

    return wrapped


def _wavelet_image_quadrature(
    spec: WaveletBasisSpec, eta: int, upsilon: int, lam: float, t: float
) -> float:
    """I^lam of wavelet (eta, upsilon) at t by quadrature: the test oracle of
    :func:`fobw.fracops.basis_images`.

    The kernel (t - tau)**(lam-1) is singular at tau = t, or nearly so at the
    cell end when t lies just past it, so both cases substitute it away:
    inside the cell as above, shifted to the cell start; beyond it with
    r = (t - tau)**lam, as (t - tau)**(lam-1) dtau = -dr/lam.
    """
    lo, hi = cell_bounds(spec, eta)
    if t <= lo:
        return 0.0
    wavelet = lambda x: _local_values(spec, x, [upsilon])[:, 0]
    scale = spec.translations
    inv = 1.0 / lam
    if t <= hi:
        width = t - lo
        g = lambda v: wavelet(scale * width * (1.0 - v**inv))
        j = adaptive_unit_integral(g)
        return width**lam / math.gamma(lam + 1.0) * j
    # the local coordinate scale*(tau - lo) loses its last digits to
    # cancellation near tau = lo, so it is clipped to the cell
    near, far = (t - hi) ** lam, (t - lo) ** lam
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
    if not (1 <= eta <= spec.translations):
        raise ValueError(f"eta={eta} outside [1, {spec.translations}]")
    if not (0 <= upsilon <= spec.M and 0 <= vartheta <= spec.M):
        raise ValueError(f"upsilon and vartheta must lie in [0, {spec.M}]")
    inv = 1.0 / spec.gamma

    def substituted_product(u):
        values = _local_values(spec, np.asarray(u, dtype=float) ** inv, [upsilon, vartheta])
        return values[:, 0] * values[:, 1]

    integral = adaptive_unit_integral(substituted_product)
    return integral / (spec.gamma * spec.translations)
