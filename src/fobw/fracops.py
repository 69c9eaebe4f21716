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
that shares the powers of the points and, beyond a cell, the incomplete
beta's z**(p+1), and :func:`family_images` shares these terms among the
bases of a (k, gamma) family.  The quadrature route in :mod:`fobw.oracles` integrates the
defining singular integral directly; it is the independent oracle that the
closed forms are tested against, not used to compute them.

Variable order is frozen pointwise: at an evaluation point t the operator of
order alpha(t) is the constant-order operator with lam = 2 - alpha(t).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .basis import WaveletBasisSpec, fobw_matrix, local_series_table
from .special import betainc, gamma_ratio, power

__all__ = [
    "basis_images",
    "family_images",
    "order_values",
]

#: the most (entry, cell, term) values one block of :func:`basis_images` forms
IMAGE_BLOCK = 2**18


def basis_images(spec: WaveletBasisSpec, lam, t) -> np.ndarray:
    """Vector [I^lam of each wavelet](t), ordered like the basis vector: the
    one-spec family of :func:`family_images`.

    ``t`` may also be a 1-D array of points; the result then has one row per
    point.  Every point must lie in [0, 1].  ``lam`` broadcasts against the points, so it is one order, or an
    array holding one order per point, and any leading axes of ``lam`` ask
    for several orders at once: ``lam`` of shape (2, 1) gives the (2, n,
    sigma_tilde) images of two constant orders at n points.  All orders are
    one pass of array work per block of points (:data:`IMAGE_BLOCK`):
    shared powers of the points, one :func:`gamma_ratio` call, one
    extended-precision contraction.  Each entry is computed elementwise, so
    it does not depend on the rest of the call or on the blocks.

    Wavelet (eta, upsilon) on its cell [lo, hi] of the spec's ``edges`` is
    sum_i c_i x**p_i in x = (tau - lo)/w, w = hi - lo.  With s = t - lo and
    G_i = gamma(p_i+1)/gamma(p_i+1+lam), the image of term i is

        0                                            for t <= lo,
        c_i (s/w)**p_i G_i s**lam                    for lo < t <= hi,
        c_i (s/w)**p_i G_i s**lam I_z(p_i+1, lam)    for t > hi,

    with z = w/s: the last line is c_i w**-p_i s**(p_i+lam) B_z(p_i+1, lam)
    / gamma(lam) written with the regularized incomplete beta function.  Order
    0 is the identity, so its row is the basis vector, :func:`fobw_matrix`.
    """
    ts = np.asarray(t, dtype=float)
    (images,) = family_images([spec], lam, ts, [ts.size])
    return images[..., 0, :] if ts.ndim == 0 else images


def family_images(specs, lam, t, own):
    """The :func:`basis_images` of each basis of ``specs``, which share k and
    gamma, one basis at a time: at the ``own[i]`` points of ``t`` for basis
    i, in order, then at the rest of ``t``.  All the family's wavelets are
    sums of x**(gamma*s), s <= M, so one term pass at its largest M forms
    each point's powers, gamma ratios and cut factors, held until the last
    basis that reads them, and each basis contracts its first M+1 term
    columns: bit-identical to a lone :func:`basis_images` call."""
    pts = np.asarray(t, dtype=float)
    if pts.ndim > 1:
        raise ValueError(f"t must be a point or a 1-D array of points, got shape {pts.shape}")
    pts = pts.ravel()
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise ValueError("t must lie in [0, 1]")
    lams = np.asarray(lam, dtype=float)
    lams = np.broadcast_to(lams, lams.shape[:-1] + pts.shape)
    if not np.all((lams >= 0.0) & (lams < np.inf)):
        raise ValueError("integral order must be finite and nonnegative")
    largest = max(specs, key=lambda spec: spec.M)
    if any((spec.k, spec.gamma) != (largest.k, largest.gamma) for spec in specs):
        raise ValueError("the bases of a family must share k and gamma")
    # (order, point) entries, in blocks of points whose (entry, cell, term)
    # arrays of long doubles hold at most IMAGE_BLOCK values, so that memory
    # stays bounded however many points a call asks for
    orders = lams.reshape(int(np.prod(lams.shape[:-1])), pts.size)
    step = max(1, IMAGE_BLOCK // (orders.shape[0] * largest.translations * (largest.M + 1)))
    ends = [0, *accumulate(own)]
    # a family that fits in one block forms its terms in one call; a larger
    # one forms each basis's own points in blocks of their own, so that no
    # later basis reads them and their terms are dropped after that basis:
    # blocks over all points held them across the bases, and a wide M sweep
    # (test_a_wide_M_sweep_takes_bounded_memory) peaked at 18,736,581 B
    # against its 16 MiB bound.  Every perfbench workload fits in one block.
    spans = [(0, pts.size)] if pts.size <= step else [*zip(ends, ends[1:]), (ends[-1], pts.size)]
    blocks = [slice(i, min(i + step, b)) for a, b in spans for i in range(a, b, step)]
    # each basis's points in each block, as positions in the block
    at = [np.arange(b.start, b.stop) for b in blocks]
    reads = [[np.flatnonzero((a >= start) & (a < stop) | (a >= ends[-1])) for a in at]
             for start, stop in zip(ends, ends[1:])]
    held = {}  # the terms of each block that a later basis reads
    for i, spec in enumerate(specs):
        images = np.empty((orders.shape[0], own[i] + pts.size - ends[-1], spec.sigma_tilde))
        done = 0
        for j, (block, mine) in enumerate(zip(blocks, reads[i])):
            if not mine.size:
                continue
            block_orders, block_pts = orders[:, block], pts[block]
            live, terms = held.pop(j) if j in held else _image_terms(largest, block_orders,
                                                                      block_pts)
            if any(later[j].size for later in reads[i + 1:]):
                held[j] = live, terms
            sub = slice(None) if mine.size == block_pts.size else mine
            _contract(spec, block_orders[:, sub], block_pts[sub], live, terms[:, sub],
                      images[:, done:done + mine.size])
            done += mine.size
            del terms  # the largest array of a block, not to be held through the next
        yield images.reshape(lams.shape[:-1] + images.shape[1:])


def _image_terms(spec: WaveletBasisSpec, orders: np.ndarray, pts: np.ndarray) -> tuple:
    """The mask of the rows of ``orders`` (one column per point of ``pts``)
    with a nonzero order, and their (row, point, cell, term) long doubles."""
    _, exps = local_series_table(spec)
    # The terms of one wavelet cancel: for M = 5 their sum can be 1e3 times
    # smaller than the largest term, and an ill-conditioned collocation
    # system (k = 2) amplifies the rounding further.  So the terms are formed
    # and summed in extended precision, where the platform has it, with the
    # fractional powers by exp(p log x) (special.power), not glibc's slow powl.
    wide = np.longdouble
    exps = exps.astype(wide)
    tw = pts.astype(wide)
    lo, hi = spec.edges[:-1].astype(wide), spec.edges[1:].astype(wide)
    s = np.maximum(tw[:, None] - lo, 0.0)[:, :, None]

    # order 0 is the identity, whose rows _contract fills: a zero among
    # other orders takes the placeholder order 1
    zero = orders == 0.0
    live = ~zero.all(axis=1)
    lw = np.where(zero, 1.0, orders)[live]
    # cells that end before a point cut its terms by the incomplete beta,
    # formed before the terms so the two largest transients do not add up
    point, cell = np.nonzero(tw[:, None] > hi)
    factors = _cut_factors(exps, lw, tw, lo, hi, point, cell) if point.size else 1.0

    # the doubles of the orders are exact in long double, so they are
    # deduplicated in double and only the distinct ones are widened
    distinct, inverse = np.unique(lw, return_inverse=True)
    distinct = distinct.astype(wide)
    inverse = inverse.reshape(lw.shape)
    if np.all(inverse == inverse[..., :1]):
        # constant orders: one row of ratios per order, broadcast over points
        inverse = inverse[..., :1]
    powers = power(s / (hi - lo)[:, None], exps)
    terms = gamma_ratio(exps + 1.0, distinct[:, None])[inverse][..., None, :] * powers
    terms *= power(s, lw.astype(wide)[..., None, None])
    terms[:, point, cell] *= factors
    return live, terms


def _contract(spec: WaveletBasisSpec, orders: np.ndarray, pts: np.ndarray, live: np.ndarray,
              terms: np.ndarray, out: np.ndarray) -> None:
    """Write the images of ``spec`` from :func:`_image_terms` into ``out``, by
    the first M+1 columns of the terms, which may be those of a larger M."""
    coeffs, _ = local_series_table(spec)
    terms = terms[..., :spec.M + 1]
    sums = terms.reshape(-1, spec.M + 1) @ coeffs.T.astype(np.longdouble)
    out[live] = sums.reshape(terms.shape[:2] + (spec.sigma_tilde,))
    zero = orders == 0.0
    if zero.any():
        out[zero] = fobw_matrix(spec, pts[np.nonzero(zero)[1]])


def _cut_factors(exps, orders, tw, lo, hi, point, cell) -> np.ndarray:
    """I_z(p+1, lam) of :func:`basis_images`, as a (row, pair, term) array:
    a row per row of ``orders`` (one column per point of ``tw``), a pair per
    (``point``, ``cell``) whose cell ends before the point.  z and y get the
    pair axis and a constant order one column, so z**(p+1) is formed per
    (pair, term), gamma per (order, term)."""
    beyond = (tw[point] - lo[cell])[:, None]
    z = (hi[cell] - lo[cell])[:, None] / beyond
    y = (tw[point] - hi[cell])[:, None] / beyond
    lam = orders[:, point]
    lam = lam[:, :1] if np.all(lam == lam[:, :1]) else lam
    return betainc(exps + 1.0, lam[..., None].astype(exps.dtype), z, y)


def order_values(alpha, ts) -> np.ndarray:
    """alpha at every point of the 1-D array ``ts``, checked to lie in (1, 2]:
    ``alpha`` is a constant order, a callable of an array of t called once on
    the whole array, or the array of its values at ``ts``."""
    ts = np.asarray(ts, dtype=float)
    alphas = np.full(ts.shape, alpha(ts) if callable(alpha) else alpha, dtype=float)
    outside = ~((alphas > 1.0) & (alphas <= 2.0))
    if outside.any():
        r = int(np.argmax(outside))
        raise ValueError(f"alpha({ts[r]:g}) = {alphas[r]:g} outside (1, 2]")
    return alphas
