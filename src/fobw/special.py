"""Special functions and the collocation grid.

The batched fractional integrals take their gamma-function and
incomplete-beta values from this module: ``gamma_array``, ``gamma_ratio``
and ``betainc`` work elementwise over arrays and keep the floating type of
their arguments, so ``np.longdouble`` arguments give ``np.longdouble``
results.  ``betainc`` and the whole-number routes of ``gamma_ratio`` compute
in that type; the gamma values themselves are :func:`math.gamma`'s, good to
double precision.  Scalar gamma values and binomials come from :mod:`math`."""

from __future__ import annotations

import math

import numpy as np


def _floating(*values) -> list[np.ndarray]:
    """The values as arrays of their common floating type, at least double."""
    arrays = [np.asarray(v) for v in values]
    dtype = np.result_type(*arrays, float)
    return [a.astype(dtype, copy=False) for a in arrays]


def _gamma(v: float) -> float:
    """math.gamma, with an overflow (arguments above about 171.6) as infinity."""
    try:
        return math.gamma(v)
    except OverflowError:
        return math.copysign(math.inf, v)


def gamma_array(x) -> np.ndarray:
    """Gamma function elementwise over an array, by :func:`math.gamma`.

    Raises ValueError at the poles (x = 0, -1, -2, ...).  A value too large
    for a double is infinite.  The result has the floating type and shape of
    ``x`` (at least double).
    """
    (x,) = _floating(x)
    if np.any((x <= 0.0) & (x == np.floor(x))):
        raise ValueError("gamma pole in the argument array")
    # the callers repeat arguments (one exponent grid for every point), so
    # math.gamma runs once per distinct value and is scattered back
    distinct, inverse = np.unique(x, return_inverse=True)
    values = np.array([_gamma(v) for v in distinct.tolist()], dtype=x.dtype)
    return values[inverse].reshape(x.shape)


def gamma_ratio(x, d) -> np.ndarray:
    """gamma(x) / gamma(x + d), elementwise, for x > 0 and x + d > 0.

    A whole number d >= 0 uses the exact finite product
    1 / (x (x+1) ... (x+d-1)) instead of two gamma values.  Otherwise an
    argument beyond the range of a double gives an infinite gamma value, so
    the ratio is NaN or 0 there, without a warning.
    """
    x, d = np.broadcast_arrays(*_floating(x, d))
    out = np.empty(x.shape, dtype=x.dtype)
    whole = (d == np.floor(d)) & (d >= 0.0)
    if not whole.all():
        with np.errstate(invalid="ignore"):
            out[~whole] = gamma_array(x[~whole]) / gamma_array(x[~whole] + d[~whole])
    if whole.any():
        xw, dw = x[whole], d[whole]
        product = np.ones_like(xw)
        for j in range(int(dw.max())):
            product = np.where(j < dw, product * (xw + j), product)
        out[whole] = 1.0 / product
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

    c = np.ones_like(x)
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    out = np.empty_like(x)
    live = np.arange(x.size)  # the place in ``out`` of each entry still iterating
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / guard(1.0 + even * d)
        c = guard(1.0 + even / c)
        step = d * c
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / guard(1.0 + odd * d)
        c = guard(1.0 + odd / c)
        last = d * c
        h = h * step * last
        going = np.abs(last - 1.0) > tol
        if not going.all():
            out[live[~going]] = h[~going]
            live, a, b, x, c, d, h = (v[going] for v in (live, a, b, x, c, d, h))
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
    fraction, and each stops iterating at its own convergence.  Every entry
    is computed elementwise, so it equals a one-entry call bit for bit.  The
    result has the floating type of the arguments (at least double).
    """
    a, b, x = np.broadcast_arrays(*_floating(a, b, x))
    y = 1.0 - x if y is None else np.broadcast_to(np.asarray(y, dtype=x.dtype), x.shape)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ValueError("incomplete beta parameters must be positive")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("incomplete beta argument must lie in [0, 1]")
    out = np.empty(x.shape, dtype=x.dtype)

    finite = b == np.floor(b)
    if finite.any():
        af, xf, yf, nf = a[finite], x[finite], y[finite], b[finite]
        term = np.ones_like(af)
        total = np.ones_like(af)
        for j in range(1, int(nf.max())):
            term = term * (af + j - 1.0) / j * yf
            total = total + np.where(j < nf, term, 0.0)
        out[finite] = xf**af * total

    direct = ~finite & (x < (a + 1.0) / (a + b + 2.0))
    swap = ~finite & ~direct
    # parameters of the fraction actually evaluated: (a, b, x) or (b, a, 1-x)
    p = np.where(swap, b, a)[~finite]
    q = np.where(swap, a, b)[~finite]
    u = np.where(swap, y, x)[~finite]
    v = np.where(swap, x, y)[~finite]
    if p.size:
        with np.errstate(invalid="ignore"):  # infinite gamma values, as in gamma_ratio
            front = u**p * v**q * gamma_array(p + q) / (p * gamma_array(p) * gamma_array(q))
        part = front * _beta_cf(p, q, u)
        out[~finite] = np.where(swap[~finite], 1.0 - part, part)
    return out


def chebyshev_grid(sigma_tilde: int) -> np.ndarray:
    """Chebyshev collocation points t_r = cos((r-1/2)pi/n)/2 + 1/2, sorted ascending.

    The generating formula yields the points in descending order; a final
    sort flips them.  Row order is immaterial to the square collocation
    system, and ascending order matches table output.
    """
    n = int(sigma_tilde)
    if n < 1:
        raise ValueError("grid size must be a positive integer")
    r = np.arange(1, n + 1, dtype=float)
    points = 0.5 * np.cos((r - 0.5) * math.pi / n) + 0.5
    points.sort()
    points.setflags(write=False)
    return points
