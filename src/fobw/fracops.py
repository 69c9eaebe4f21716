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
that shares the powers of the points.  The quadrature route in
:mod:`fobw.oracles` integrates the defining singular integral directly; it
is the independent oracle that the closed forms are tested against, not used
to compute them.

Variable order is frozen pointwise: at an evaluation point t the operator of
order alpha(t) is the constant-order operator with lam = 2 - alpha(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import WaveletBasisSpec, fobw_matrix, local_series_table
from .special import betainc, gamma_ratio

__all__ = [
    "OrderFunction",
    "basis_images",
    "order_values",
]


@dataclass(frozen=True)
class OrderFunction:
    """Differentiation order alpha(t), constrained to (1, 2] on [0, 1].

    Either a constant or a callable of t.  A callable is evaluated over whole
    arrays of points; one that only takes a float is wrapped to loop over
    the array.  :meth:`from_callable` checks the range contract with
    :func:`order_values` on a 1001-point probe of (0, 1].
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
        order_values(order, np.linspace(0.0, 1.0, 1002)[1:])
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


def order_values(alpha: OrderFunction, ts) -> np.ndarray:
    """alpha at every point of the 1-D array ``ts``, checked to lie in (1, 2]."""
    ts = np.asarray(ts, dtype=float)
    alphas = alpha(ts)
    outside = ~((alphas > 1.0) & (alphas <= 2.0))
    if outside.any():
        r = int(np.argmax(outside))
        raise ValueError(f"alpha({ts[r]:g}) = {alphas[r]:g} outside (1, 2]")
    return alphas
