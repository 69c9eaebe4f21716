"""Special functions: array gamma values and ratios, and the incomplete beta.

The batched fractional integrals take their gamma-function and
incomplete-beta values from this module: ``gamma_array``, ``gamma_ratio``
and ``betainc`` work elementwise over arrays and keep the floating type of
their arguments, so ``np.longdouble`` arguments give ``np.longdouble``
results.  ``betainc`` and the whole-number routes of ``gamma_ratio`` compute
in that type; the gamma values themselves are :func:`math.gamma`'s, good to
double precision, one per entry that needs one.  ``gamma_ratio`` and
``betainc`` take each power and gamma value on the broadcast of the operands
it reads alone, so a caller that keeps repeated values on axes of their own
gets each value once.  Scalar gamma values and binomials come from
:mod:`math`."""

from __future__ import annotations

import math

import numpy as np


def _floating(*values) -> list[np.ndarray]:
    """The values as arrays of their common floating type, at least double."""
    arrays = [np.asarray(v) for v in values]
    dtype = np.result_type(*arrays, float)
    return [a.astype(dtype, copy=False) for a in arrays]


def gamma_array(x, where=True) -> np.ndarray:
    """Gamma function elementwise over an array, by :func:`math.gamma`, where
    the mask ``where`` is true; the other entries are 1 and take no value.

    Raises ValueError at the poles (x = 0, -1, -2, ...) and OverflowError
    where the value is too large for a double (x above about 171.6).  The
    result has the floating type and shape of ``x`` (at least double).
    """
    (x,) = _floating(x)
    where = np.broadcast_to(where, x.shape)
    doubles = x[where].astype(float)
    if np.any((doubles <= 0.0) & (doubles == np.floor(doubles))):
        raise ValueError("gamma pole in the argument array")
    out = np.ones(x.shape, dtype=x.dtype)
    out[where] = np.fromiter(map(math.gamma, doubles.tolist()), float, doubles.size)
    return out


def gamma_ratio(x, d) -> np.ndarray:
    """gamma(x) / gamma(x + d), elementwise, for x > 0 and x + d > 0.

    A whole number d >= 0 uses the exact finite product
    1 / (x (x+1) ... (x+d-1)) instead of two gamma values.  ``x`` and ``d``
    broadcast; gamma(x) is evaluated on the shape of ``x``, and only
    gamma(x + d) per entry of the broadcast.
    """
    x, d = _floating(x, d)
    shape = np.broadcast_shapes(x.shape, d.shape)
    whole = (d == np.floor(d)) & (d >= 0.0)
    out = np.empty(shape, dtype=x.dtype)
    if not whole.all():
        # gamma(x) only where x meets a fractional d, as a call of its own
        # would take it: a whole d needs no gamma value, even past overflow
        fractional = np.broadcast_to(~whole, shape)
        # the axes along which x is broadcast
        lead = len(shape) - x.ndim
        axes = (*range(lead), *(lead + i for i, n in enumerate(x.shape) if n == 1))
        needed = fractional.any(axis=axes).reshape(x.shape)
        np.divide(gamma_array(x, where=needed), gamma_array(x + d, where=fractional), out=out)
    if whole.any():
        product = np.ones(shape, dtype=x.dtype)
        for j in range(int(d[whole].max())):
            product = np.where(j < d, product * (x + j), product)
        np.divide(1.0, product, out=out, where=whole)
    return out


#: iteration cap of the incomplete-beta continued fraction; away from the
#: symmetry switch it converges in a few dozen steps
_BETA_CF_MAX_ITER = 500


def _beta_cf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction 1/(1+ d1/(1+ d2/(1+ ...))) of DLMF 8.17.22.

    Modified Lentz evaluation over 1-D arrays.  An entry whose own last
    factor is within tolerance of 1 is written out and dropped from the
    arrays, so each iteration only pays for the entries still converging;
    every step is elementwise, so an entry does not depend on the batch.
    """
    tiny = 1e-300
    tol = 4.0 * np.finfo(x.dtype).eps

    def guard(v):
        return np.where(np.abs(v) < tiny, tiny, v)

    ab = a + b
    c = np.ones_like(x)
    d = 1.0 / guard(1.0 - ab * x / (a + 1.0))
    h = d.copy()
    out = np.empty_like(x)
    live = np.arange(x.size)  # the place in ``out`` of each entry still iterating
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        a2m = a + 2 * m
        even = m * (b - m) * x / ((a2m - 1.0) * a2m)
        d = 1.0 / guard(1.0 + even * d)
        c = guard(1.0 + even / c)
        step = d * c
        odd = -(a + m) * (ab + m) * x / (a2m * (a2m + 1.0))
        d = 1.0 / guard(1.0 + odd * d)
        c = guard(1.0 + odd / c)
        last = d * c
        h = h * step * last
        going = np.abs(last - 1.0) > tol
        if not going.all():
            out[live[~going]] = h[~going]
            live, a, b, ab, x, c, d, h = (v[going] for v in (live, a, b, ab, x, c, d, h))
            if not live.size:
                return out
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc(a, b, x, y=None) -> np.ndarray:
    """Regularized incomplete beta function I_x(a, b), elementwise over arrays.

    ``y`` is 1 - x; pass it when the caller knows it more precisely than
    1 - x can be computed, as near x = 1.  A whole number ``b`` uses the
    finite sum I_x(a, n) = x**a * sum_{j<n} (a)_j / j! * (1-x)**j.  Other
    entries use the continued fraction of DLMF 8.17.22, through the symmetry
    I_x(a, b) = 1 - I_(1-x)(b, a) when x > (a+1)/(a+b+2), where the fraction
    would converge slowly.  All of those entries share one evaluation of the
    fraction, and each stops iterating at its own convergence.  Each power
    and gamma value is taken on the broadcast of the operands it reads.  Every
    entry is computed elementwise, so it equals a one-entry call bit for bit.
    The result has the floating type of the arguments (at least double).
    """
    a, b, x = _floating(a, b, x)
    y = 1.0 - x if y is None else np.asarray(y, dtype=x.dtype)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("incomplete beta parameters must be positive")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("incomplete beta argument must lie in [0, 1]")
    shape = np.broadcast_shapes(a.shape, b.shape, x.shape, y.shape)
    whole = b == np.floor(b)
    xa = x**a
    out = np.empty(shape, dtype=x.dtype)

    def pick(v, where):
        return np.broadcast_to(v, shape)[where]

    finite = np.broadcast_to(whole, shape)
    if finite.any():
        af, yf, nf = (pick(v, finite) for v in (a, y, b))
        term = np.ones_like(af)
        total = np.ones_like(af)
        for j in range(1, int(nf.max())):
            term = term * (af + j - 1.0) / j * yf
            total = total + np.where(j < nf, term, 0.0)
        out[finite] = pick(xa, finite) * total
        del af, yf, nf, term, total  # not to be held through the continued fraction

    rest = ~finite
    if rest.any():
        # gamma(a + b), gamma(a) and gamma(b) where b is fractional, in one call
        ab = a + b
        args = [np.broadcast_arrays(v, ~whole) for v in (ab, a, b)]
        flat, need = (np.concatenate([arg[i].ravel() for arg in args]) for i in (0, 1))
        values = np.split(gamma_array(flat, where=need),
                          np.cumsum([v.size for v, _ in args[:-1]]))
        both, ga, gb = (pick(g.reshape(v.shape), rest) for g, (v, _) in zip(values, args))
        del args, flat, need, values  # as large as the broadcast of a and b
        ar, br, xr = pick(a, rest), pick(b, rest), pick(x, rest)
        # parameters of the fraction actually evaluated: (a, b, x) or (b, a, 1-x)
        swap = ~(xr < (ar + 1.0) / (pick(ab, rest) + 2.0))
        p, q = np.where(swap, br, ar), np.where(swap, ar, br)
        front = pick(xa, rest) * pick(y**b, rest) * both
        front /= p * np.where(swap, gb, ga) * np.where(swap, ga, gb)
        part = front * _beta_cf(p, q, np.where(swap, pick(y, rest), xr))
        out[rest] = np.where(swap, 1.0 - part, part)
    return out

