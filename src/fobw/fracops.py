"""Variable-order Riemann-Liouville integrals and Caputo derivatives.

Every wavelet is a finite sum of the monomials x**(gamma*s) in its local cell
coordinate (:func:`fobw.basis.local_series_table`), so its fractional
integral of order ``lam`` is exact termwise.  On its own cell, with s the
distance from the cell start,

    c * s**p  ->  c * gamma(p+1)/gamma(p+1+lam) * s**(p+lam),

and beyond the cell the same term is cut by a regularized incomplete beta
function (DLMF 8.17), because the wavelet's integral stops at the cell end.
:func:`basis_images` evaluates these closed forms over arrays of points, with
one order per point for variable order, and for several orders in one call
that shares the powers of the points.  The quadrature route integrates the
defining singular integral directly; it is kept as the independent oracle
that the closed forms are tested against, not used to compute them.

Variable order is frozen pointwise: at an evaluation point t the operator of
order alpha(t) is the constant-order operator with lam = 2 - alpha(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    WaveletBasisSpec,
    _local_values,
    cell_bounds,
    fobw_matrix,
    local_series_table,
)
from .special import betainc, gamma_ratio

__all__ = [
    "AccuracyError",
    "OrderFunction",
    "rl_integral_quadrature",
    "basis_images",
    "caputo_images",
    "order_values",
    "weighted_inner_product",
]


class AccuracyError(ArithmeticError):
    """Quadrature failed to converge; carries the best estimate reached."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class OrderFunction:
    """Differentiation order alpha(t), constrained to (1, 2] on [0, 1].

    Either a constant or a callable of t.  A callable is evaluated over whole
    arrays of points; one that only takes a float is wrapped to loop over
    the array.  The range contract is enforced on a 1001-point probe grid at
    construction by :meth:`from_callable`.
    """

    fn: Callable | None
    value: float | None
    label: str

    def __post_init__(self):
        if self.fn is not None:
            object.__setattr__(self, "fn", _vectorized(self.fn))

    @classmethod
    def constant(cls, c: float) -> "OrderFunction":
        c = float(c)
        if not (1.0 < c <= 2.0):
            raise ValueError(f"order {c} outside (1, 2]")
        return cls(fn=None, value=c, label=f"{c:g}")

    @classmethod
    def from_callable(cls, fn: Callable, label: str = "alpha(t)") -> "OrderFunction":
        order = cls(fn=fn, value=None, label=label)
        # Probe on (0, 1]: the fractional operators are only ever evaluated at
        # t > 0, and orders like 1 + sin(t) touch 1 exactly at t = 0.
        vals = order(np.linspace(0.0, 1.0, 1002)[1:])
        if not np.all(np.isfinite(vals)):
            raise ValueError("order function is not finite on the probe grid")
        if vals.min() <= 1.0 or vals.max() > 2.0:
            raise ValueError(
                f"order function leaves (1, 2] on (0, 1]: range [{vals.min():g}, {vals.max():g}]"
            )
        return order

    @property
    def is_constant(self) -> bool:
        return self.value is not None

    def __call__(self, t):
        """alpha at a point (a float) or at an array of points (an array of its shape)."""
        ts = np.asarray(t, dtype=float)
        if self.value is not None:
            values = np.full(ts.shape, self.value)
        else:
            values = np.asarray(self.fn(ts.ravel()), dtype=float).reshape(ts.shape)
        return float(values) if ts.ndim == 0 else values


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_GL_NODES.setflags(write=False)
_GL_WEIGHTS.setflags(write=False)

# Polynomial grading order of the integration variable at both endpoints.
# Integrands carry algebraic endpoint behavior like (1-v)**gamma from
# fractional basis exponents; plain composite Gauss-Legendre stalls on those,
# while the graded variable restores fast convergence.
_GRADING_ORDER = 8

_MAX_PANELS_PER_CHUNK = 1 << 14


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


def adaptive_unit_integral(
    g,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-12,
    max_levels: int = 20,
) -> float:
    """Integral of vectorized ``g`` over [0, 1].

    Composite 64-node Gauss-Legendre in an endpoint-graded variable; panels
    are bisected globally until two successive estimates agree to tolerance.
    """
    prev = _level_estimate(g, 1)
    for level in range(1, max_levels + 1):
        cur = _level_estimate(g, 2**level)
        if abs(cur - prev) <= max(abs_tol, rel_tol * abs(cur)):
            return cur
        prev = cur
    raise AccuracyError(
        f"quadrature did not converge within {max_levels} bisection levels", prev
    )


def _vectorized(f):
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


# ---------------------------------------------------------------------------
# Riemann-Liouville integral by quadrature: the oracle
# ---------------------------------------------------------------------------

def rl_integral_quadrature(
    f,
    lam: float,
    t: float,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-12,
) -> float:
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
    j = adaptive_unit_integral(g, abs_tol=abs_tol, rel_tol=rel_tol)
    return t**lam / math.gamma(lam + 1.0) * j


def _wavelet_image_quadrature(
    spec: WaveletBasisSpec, eta: int, upsilon: int, lam: float, t: float
) -> float:
    """I^lam of wavelet (eta, upsilon) at t by quadrature: the test oracle of
    :func:`basis_images`.

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


# ---------------------------------------------------------------------------
# closed-form basis images
# ---------------------------------------------------------------------------

def basis_images(spec: WaveletBasisSpec, lam, t) -> np.ndarray:
    """Vector [I^lam of each wavelet](t), ordered like the basis vector.

    ``t`` may also be a 1-D array of points; the result then has one row per
    point.  Every point must lie in [0, 1].  ``lam`` broadcasts against the points, so it is one order, or an
    array holding one order per point, and any leading axes of ``lam`` ask
    for several orders at once: ``lam`` of shape (2, 1) gives the (2, n,
    sigma_tilde) images of two constant orders at n points.  All orders are
    one pass of array work: shared powers of the points, one
    :func:`gamma_ratio` call, one extended-precision contraction.  Each entry
    is computed elementwise, so it does not depend on the rest of the call.

    Wavelet (eta, upsilon) on the cell [lo, hi] is sum_i c_i x**p_i in the
    local coordinate x = T*(tau - lo), T = 2**(k-1).  With s = t - lo and
    G_i = gamma(p_i+1)/gamma(p_i+1+lam), the image of term i is

        0                                              for t <= lo,
        c_i T**p_i G_i s**(p_i+lam)                    for lo < t <= hi,
        c_i T**p_i G_i s**(p_i+lam) I_z(p_i+1, lam)    for t > hi,

    with z = (hi - lo)/s: the last line is s**(p_i+lam) B_z(p_i+1, lam) /
    gamma(lam) written with the regularized incomplete beta function.  Order
    0 is the identity, so its row is the basis vector, :func:`fobw_matrix`.
    """
    ts = np.asarray(t, dtype=float)
    pts = np.atleast_1d(ts)
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise ValueError("t must lie in [0, 1]")
    lams = np.asarray(lam, dtype=float)
    lams = np.broadcast_to(lams, lams.shape[:-1] + pts.shape)
    if np.any(lams < 0.0):
        raise ValueError("integral order must be nonnegative")
    coeffs, exps = local_series_table(spec)
    # The terms of one wavelet cancel: for M = 5 their sum can be 1e3 times
    # smaller than the largest term, and an ill-conditioned collocation
    # system (k = 2) amplifies the rounding further.  So the terms are formed
    # and summed in extended precision, where the platform has it.
    wide = np.longdouble
    exps = exps.astype(wide)
    weights = coeffs.T.astype(wide)
    tw = pts.astype(wide)
    cells = spec.translations
    lo = np.arange(cells, dtype=wide) / cells
    hi = lo + wide(1.0) / cells
    s = np.maximum(tw[:, None] - lo, 0.0)[:, :, None]

    # (order, point) entries; order 0 is the identity, the basis vector
    orders = lams.reshape(int(np.prod(lams.shape[:-1])), pts.size)
    zero = orders == 0.0
    some_zero = zero.any()
    if some_zero:
        entries = np.nonzero(~zero)
        at = entries[1]
    else:
        # every entry: plain slices, so the point arrays broadcast uncopied
        entries = at = slice(None)
    lw = orders[entries].astype(wide)
    # cells that end before the entry's point cut its terms by the incomplete
    # beta, formed before the terms so the two largest transients do not add up
    point = np.broadcast_to(np.arange(pts.size), orders.shape)[entries]
    cut = np.nonzero(tw[point, None] > hi)
    cut_factors = 1.0
    if cut[-1].size:
        entry, cell = cut[:-1], cut[-1]
        row = point[entry]
        beyond = s[row, cell]
        z = (hi[cell] - lo[cell])[:, None] / beyond
        y = (tw[row] - hi[cell])[:, None] / beyond
        cut_factors = betainc(exps + 1.0, lw[entry][:, None], z, y)

    distinct, inverse = np.unique(lw, return_inverse=True)
    inverse = inverse.reshape(lw.shape)
    if np.all(inverse == inverse[..., :1]):
        # constant orders: one row of ratios per order, broadcast over points
        inverse = inverse[..., :1]
    powers = (cells * s) ** exps
    terms = gamma_ratio(exps + 1.0, distinct[:, None])[inverse][..., None, :] * powers[at]
    terms *= s[at] ** lw[..., None, None]
    terms[cut] *= cut_factors
    sums = terms.reshape(-1, exps.size) @ weights
    del terms  # the largest array of the call

    sigma = spec.sigma_tilde
    images = np.empty(orders.shape + (sigma,))
    images[entries] = sums.reshape(lw.shape + (sigma,))
    if some_zero:
        images[zero] = fobw_matrix(spec, pts[np.nonzero(zero)[1]])
    images = images.reshape(lams.shape + (sigma,))
    return images[..., 0, :] if ts.ndim == 0 else images


def caputo_images(
    spec: WaveletBasisSpec, alpha: OrderFunction, ts
) -> tuple[np.ndarray, np.ndarray]:
    """alpha at every point of the 1-D array ``ts``, and the Caputo image rows.

    Row r is [I^(2-alpha(t_r)) Psi](t_r), the Caputo derivative of order
    alpha(t_r) of each basis function's second antiderivative.  For alpha in
    (1, 2) the initial value correction sum is empty, because its lower limit
    ceil(alpha) = 2 exceeds its upper limit 1; at alpha(t_r) = 2 exactly the
    operator is the plain second derivative and the row is the basis vector.
    """
    alphas = order_values(alpha, ts)
    return alphas, basis_images(spec, 2.0 - alphas, ts)


def order_values(alpha: OrderFunction, ts) -> np.ndarray:
    """alpha at every point of the 1-D array ``ts``, checked to lie in (1, 2]."""
    ts = np.asarray(ts, dtype=float)
    alphas = alpha(ts)
    outside = ~((alphas > 1.0) & (alphas <= 2.0))
    if outside.any():
        r = int(np.argmax(outside))
        raise ValueError(f"alpha({ts[r]:g}) = {alphas[r]:g} outside (1, 2]")
    return alphas


# ---------------------------------------------------------------------------
# weighted inner product (orthonormality oracle)
# ---------------------------------------------------------------------------

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
