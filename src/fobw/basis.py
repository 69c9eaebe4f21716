"""Fractional-order Bernstein polynomials and the wavelet family built on them.

The polynomial of index ``upsilon`` in the family of maximal index ``M`` and
fractional exponent ``gamma`` is

    B(t) = sqrt(1 + 2M - 2*upsilon) * (1 - t**gamma)**(M - upsilon)
           * sum_{i=0}^{upsilon} (-1)**i * C(1+2M-i, upsilon-i) * C(upsilon, i)
           * t**(gamma*(upsilon-i))

and the wavelet member (eta, upsilon) is a translated, dyadically scaled copy
living on one subinterval of [0, 1], orthonormal there under the weight
``x**(gamma-1)`` in the local coordinate.

Every basis function is also exposed as a :class:`FracMonomialSeries`, a
finite sum of real-exponent monomials, which is the closed form under which
the fractional integral operators act analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .special import gen_binomial

#: coefficients smaller than this are dropped when series are assembled
COEFF_DROP_THRESHOLD = 1e-300


@dataclass(frozen=True)
class FracMonomialSeries:
    """Finite sum ``sum_i c_i * t**p_i`` with real exponents ``p_i >= 0``.

    ``support`` is the window of [0, 1] on which the series represents its
    function; the function is zero outside.  Exponents are strictly
    increasing and the arrays are read-only.
    """

    coefficients: np.ndarray
    exponents: np.ndarray
    support: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        exps = np.atleast_1d(np.asarray(self.exponents, dtype=float))
        if coeffs.shape != exps.shape:
            raise ValueError("coefficient and exponent arrays must align")
        if exps.size and exps.min() < 0.0:
            raise ValueError("exponents must be nonnegative")
        order = np.argsort(exps, kind="stable")
        coeffs = np.ascontiguousarray(coeffs[order])
        exps = np.ascontiguousarray(exps[order])
        if exps.size > 1 and np.min(np.diff(exps)) <= 0.0:
            raise ValueError("exponents must be distinct within one series")
        lo, hi = self.support
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError("support must be a nondegenerate subinterval of [0, 1]")
        coeffs.setflags(write=False)
        exps.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "support", (float(lo), float(hi)))

    @classmethod
    def from_terms(cls, terms, support=(0.0, 1.0), merge_tol=1e-12) -> "FracMonomialSeries":
        """Build a series from (coefficient, exponent) pairs, merging exponents
        that agree within ``merge_tol`` and dropping negligible coefficients."""
        pairs = sorted((float(p), float(c)) for c, p in terms)
        merged_c: list[float] = []
        merged_p: list[float] = []
        for p, c in pairs:
            if merged_p and abs(p - merged_p[-1]) <= merge_tol:
                merged_c[-1] += c
            else:
                merged_p.append(p)
                merged_c.append(c)
        keep = [(c, p) for c, p in zip(merged_c, merged_p) if abs(c) >= COEFF_DROP_THRESHOLD]
        if not keep:
            keep = [(0.0, 0.0)]
        cs, ps = zip(*keep)
        return cls(np.array(cs), np.array(ps), support)

    @property
    def num_terms(self) -> int:
        return int(self.coefficients.size)

    def evaluate(self, t: float) -> float:
        """Value at scalar t, with ``t**0 == 1`` and ``0**p == 0`` for p > 0."""
        return float(kernels.eval_powsum(self.coefficients, self.exponents, float(t)))

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        ts = np.ascontiguousarray(ts, dtype=float)
        return kernels.eval_powsum_batch(self.coefficients, self.exponents, ts)


@dataclass(frozen=True)
class WaveletBasisSpec:
    """One wavelet family: resolution k, maximal polynomial index M, exponent gamma."""

    k: int
    M: int
    gamma: float

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError("k must be a positive integer")
        if int(self.M) != self.M or self.M < 0:
            raise ValueError("M must be a nonnegative integer")
        if not (self.gamma > 0.0) or not math.isfinite(self.gamma):
            raise ValueError("gamma must be positive and finite")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def translations(self) -> int:
        return 2 ** (self.k - 1)

    @property
    def sigma_tilde(self) -> int:
        """Total basis size, 2**(k-1) * (M+1)."""
        return self.translations * (self.M + 1)


@dataclass(frozen=True)
class BasisIndex:
    """Position of one wavelet: translation eta in [1, 2**(k-1)], order upsilon in [0, M]."""

    eta: int
    upsilon: int


def _validate_index(idx: BasisIndex, spec: WaveletBasisSpec) -> None:
    if not (1 <= idx.eta <= spec.translations):
        raise ValueError(f"eta={idx.eta} outside [1, {spec.translations}]")
    if not (0 <= idx.upsilon <= spec.M):
        raise ValueError(f"upsilon={idx.upsilon} outside [0, {spec.M}]")


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
            * gen_binomial(1 + 2 * M - i, upsilon - i)
            * gen_binomial(upsilon, i)
            * t ** (gamma * (upsilon - i))
        )
    return amp * (1.0 - t**gamma) ** (M - upsilon) * inner


@lru_cache(maxsize=4096)
def to_monomial_series(upsilon: int, M: int, gamma: float) -> FracMonomialSeries:
    """Expand the polynomial into a monomial series with exponents gamma*s.

    The binomial factor (1 - t**gamma)**(M - upsilon) is expanded and folded
    into the explicit sum; all exponents are exact integer multiples of
    gamma, so like terms are merged on the integer index.
    """
    if not (0 <= upsilon <= M):
        raise ValueError("need 0 <= upsilon <= M")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    amp = math.sqrt(1.0 + 2.0 * M - 2.0 * upsilon)
    by_index = np.zeros(M + 1)
    for i in range(upsilon + 1):
        sign_i = -1.0 if i % 2 else 1.0
        core = sign_i * gen_binomial(1 + 2 * M - i, upsilon - i) * gen_binomial(upsilon, i)
        for r in range(M - upsilon + 1):
            sign_r = -1.0 if r % 2 else 1.0
            by_index[upsilon - i + r] += amp * core * sign_r * gen_binomial(M - upsilon, r)
    terms = [
        (c, gamma * s) for s, c in enumerate(by_index) if abs(c) >= COEFF_DROP_THRESHOLD
    ]
    if not terms:
        terms = [(0.0, 0.0)]
    return FracMonomialSeries.from_terms(terms, merge_tol=1e-12 * gamma)


@lru_cache(maxsize=1024)
def local_wavelet_series(spec: WaveletBasisSpec, upsilon: int) -> FracMonomialSeries:
    """Series of one wavelet in its local cell coordinate x in [0, 1].

    Includes the sqrt(gamma) * 2**((k-1)/2) normalization, so evaluating it at
    x(t) = 1 + 2**(k-1)*t - eta reproduces the wavelet value on its cell.
    """
    base = to_monomial_series(upsilon, spec.M, spec.gamma)
    scale = math.sqrt(spec.gamma) * 2.0 ** ((spec.k - 1) / 2.0)
    return FracMonomialSeries(scale * base.coefficients, base.exponents, base.support)


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


@lru_cache(maxsize=1024)
def local_series_table(spec: WaveletBasisSpec) -> tuple[np.ndarray, np.ndarray]:
    """Local series of all M+1 wavelets on one shared exponent grid.

    Returns ``(coefficients, exponents)``: row upsilon of the (M+1, P)
    coefficient matrix holds the terms of ``local_wavelet_series(spec,
    upsilon)``, with zeros where that series has no term of the exponent.
    Both arrays are read-only.
    """
    series = [local_wavelet_series(spec, upsilon) for upsilon in range(spec.M + 1)]
    exps = np.array(sorted({float(p) for s in series for p in s.exponents}))
    coeffs = np.zeros((spec.M + 1, exps.size))
    for upsilon, s in enumerate(series):
        coeffs[upsilon, np.searchsorted(exps, s.exponents)] = s.coefficients
    coeffs.setflags(write=False)
    exps.setflags(write=False)
    return coeffs, exps


def fobw_matrix(spec: WaveletBasisSpec, ts) -> np.ndarray:
    """Basis vectors at every point of the 1-D array ``ts``, one row per point.

    Each row is ordered like :func:`fobw_vector`, and cells are assigned as
    in :func:`cell_index`.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all((ts >= 0.0) & (ts <= 1.0)):
        raise ValueError("t must lie in [0, 1]")
    coeffs, exps = local_series_table(spec)
    eta = np.clip(np.ceil(ts * spec.translations), 1, spec.translations)
    x = 1.0 + spec.translations * ts - eta
    out = np.zeros((ts.size, spec.translations, spec.M + 1))
    out[np.arange(ts.size), eta.astype(int) - 1] = np.power(x[:, None], exps) @ coeffs.T
    return out.reshape(ts.size, spec.sigma_tilde)


def fobw_vector(spec: WaveletBasisSpec, t: float) -> np.ndarray:
    """All sigma_tilde wavelets at t, ordered (eta=1: upsilon=0..M), (eta=2: ...)."""
    return fobw_matrix(spec, [float(t)])[0]


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
