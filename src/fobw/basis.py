"""Fractional-order Bernstein polynomials and the wavelet family built on them.

The polynomial of index ``upsilon`` in the family of maximal index ``M`` and
fractional exponent ``gamma`` is

    B(t) = sqrt(1 + 2M - 2*upsilon) * (1 - t**gamma)**(M - upsilon)
           * sum_{i=0}^{upsilon} (-1)**i * C(1+2M-i, upsilon-i) * C(upsilon, i)
           * t**(gamma*(upsilon-i))

and the wavelet member (eta, upsilon) is a translated, dyadically scaled copy
living on one subinterval of [0, 1], orthonormal there under the weight
``x**(gamma-1)`` in the local coordinate.

Expanding the binomial factor makes every wavelet a finite sum of the
monomials ``x**(gamma*s)``, s = 0..M, in its local cell coordinate x.
:func:`local_series_table` holds the coefficients of all M+1 wavelets of a
family; it is the one form in which the basis is evaluated
(:func:`fobw_matrix`) and on which the fractional integrals act in closed
form.  :func:`fobw.oracles.bernstein_frac` and :func:`fobw.oracles.fobw_eval`
evaluate the factored closed form instead, as an independent check of the
table.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from numbers import Real

import numpy as np


class _Abbreviated(reprlib.Repr):
    """:mod:`reprlib`'s abbreviations, with an int cut to 12 characters and a
    mapping's keys in their own order, as ``repr`` shows them."""

    def __init__(self):
        super().__init__()
        self.maxlong = 12

    def repr_dict(self, x, level):
        if level <= 0:
            return "{" + self.fillvalue + "}"
        pieces = [f"{self.repr1(key, level - 1)}: {self.repr1(value, level - 1)}"
                  for key, value in islice(x.items(), self.maxdict)]
        if len(x) > self.maxdict:
            pieces.append(self.fillvalue)
        return "{" + ", ".join(pieces) + "}"


#: ``repr`` abbreviated, so that an error line naming a huge value stays short
short_repr = _Abbreviated().repr


def finite_real(name: str, value) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite
    real number, and a bool (JSON ``true``) is not one.  The error shows the
    value abbreviated (:func:`short_repr`), so a huge one stays one short line."""
    try:
        if not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the range of a double
        pass
    raise ValueError(f"{name} must be a finite real number, got {short_repr(value)}")


@dataclass(frozen=True)
class WaveletBasisSpec:
    """One wavelet family: resolution k, maximal polynomial index M, exponent
    gamma, with gamma*M at most 168 so every image of order up to 2 is finite,
    and at most 1024 wavelets, 2**(k-1) * (M+1), so the system fits in memory."""

    k: int
    M: int
    gamma: float

    def __post_init__(self):
        k, M, gamma = (finite_real(name, getattr(self, name)) for name in ("k", "M", "gamma"))
        if not k.is_integer() or k < 1:
            raise ValueError("k must be a positive integer")
        if not M.is_integer() or M < 0:
            raise ValueError("M must be a nonnegative integer")
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        if gamma * M > 168.0:
            # the image of order lam of x**p needs gamma(p + 1 + lam): at most
            # gamma(171) for lam <= 2, under the 171.6 where a double overflows
            raise ValueError(f"gamma*M = {gamma * M:g} exceeds 168: the basis "
                             "images would need gamma values past the range of a double")
        # k first: 2**(k-1) of a huge k is itself a huge integer
        if k > 11 or 2 ** (int(k) - 1) * (M + 1) > 1024:
            raise ValueError(f"sigma_tilde = 2**{int(k) - 1} * {int(M) + 1} exceeds 1024: "
                             "the basis would be too large to assemble")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "M", int(M))
        object.__setattr__(self, "gamma", gamma)

    @property
    def translations(self) -> int:
        return 2 ** (self.k - 1)

    @property
    def sigma_tilde(self) -> int:
        """Total basis size, 2**(k-1) * (M+1)."""
        return self.translations * (self.M + 1)


@lru_cache(maxsize=1024)
def local_series_table(spec: WaveletBasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """Local series of all M+1 wavelets on the exponent grid gamma*(0..M).

    Returns ``(coefficients, exponents)``: row upsilon of the (M+1, M+1)
    coefficient matrix holds wavelet upsilon as a sum of ``x**exponents`` in
    its local cell coordinate x in [0, 1], so the table evaluated at
    x(t) = 1 + 2**(k-1)*t - eta is the wavelet (eta, upsilon) on its cell.
    The row is the integer-index expansion of the polynomial, times the
    wavelet normalization sqrt(gamma) * 2**((k-1)/2).  Both arrays are
    read-only.
    """
    M = spec.M
    scale = math.sqrt(spec.gamma) * 2.0 ** ((spec.k - 1) / 2.0)
    coeffs = np.zeros((M + 1, M + 1))
    for upsilon in range(M + 1):
        amp = math.sqrt(1.0 + 2.0 * M - 2.0 * upsilon)
        row = coeffs[upsilon]
        for i in range(upsilon + 1):
            sign_i = -1.0 if i % 2 else 1.0
            core = sign_i * math.comb(1 + 2 * M - i, upsilon - i) * math.comb(upsilon, i)
            for r in range(M - upsilon + 1):
                sign_r = -1.0 if r % 2 else 1.0
                row[upsilon - i + r] += amp * core * sign_r * math.comb(M - upsilon, r)
        row *= scale
    exps = spec.gamma * np.arange(M + 1)
    coeffs.setflags(write=False)
    exps.setflags(write=False)
    return coeffs, exps


def _local_values(spec: WaveletBasisSpec, x, rows=slice(None)) -> np.ndarray:
    """Local series ``rows`` of the table (all M+1 by default) at the local
    coordinates ``x``, one value per row along a new last axis.

    ``0**0 == 1``.  Each value is an elementwise product summed along the
    term axis, so it does not depend on the other points of the call (a BLAS
    product rounds a row differently for a different number of rows).
    """
    coeffs, exps = local_series_table(spec)
    powers = np.power(np.asarray(x, dtype=float)[..., None, None], exps)
    return (powers * coeffs[rows]).sum(axis=-1)


def fobw_matrix(spec: WaveletBasisSpec, ts) -> np.ndarray:
    """Basis vectors at the point or every point of the 1-D array ``ts``, one
    row per point.

    Row entries are ordered (eta=1: upsilon=0..M), (eta=2: ...).  A shared
    cell boundary belongs to the left cell, and t = 0 to the first.  A row
    does not depend on the other points of the call.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"t must be a point or a 1-D array of points, got shape {ts.shape}")
    if not np.all((ts >= 0.0) & (ts <= 1.0)):
        raise ValueError("t must lie in [0, 1]")
    eta = np.clip(np.ceil(ts * spec.translations), 1, spec.translations)
    x = 1.0 + spec.translations * ts - eta
    out = np.zeros((ts.size, spec.translations, spec.M + 1))
    out[np.arange(ts.size), eta.astype(int) - 1] = _local_values(spec, x)
    return out.reshape(ts.size, spec.sigma_tilde)
