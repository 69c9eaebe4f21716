"""Variable-order Riemann-Liouville integrals and Caputo derivatives.

Every wavelet is a finite sum of real-power monomials in its local cell
coordinate, so its fractional integral of order ``lam`` is exact termwise.
On its own cell, with s the distance from the cell start,

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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (
    FracMonomialSeries,
    WaveletBasisSpec,
    cell_bounds,
    fobw_matrix,
    local_series_table,
    local_wavelet_series,
)
from .special import betainc, gamma, gamma_ratio

__all__ = [
    "AccuracyError",
    "OrderFunction",
    "rl_integral_series",
    "rl_integral_quadrature",
    "basis_images",
    "caputo_images",
    "order_values",
    "reconstruct",
    "caputo_on_approximant",
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
# Riemann-Liouville integral, both routes
# ---------------------------------------------------------------------------

def rl_integral_series(f: FracMonomialSeries, lam: float) -> FracMonomialSeries:
    """Termwise fractional integral of a monomial series supported on [0, 1]."""
    if lam <= 0.0:
        raise ValueError("integral order must be positive")
    if f.support != (0.0, 1.0):
        raise ValueError(
            "termwise integration needs support [0, 1]; "
            "use rl_integral_quadrature for translated (k > 1) functions"
        )
    coeffs = np.array(
        [c * gamma(p + 1.0) / gamma(p + 1.0 + lam) for c, p in zip(f.coefficients, f.exponents)]
    )
    return FracMonomialSeries(coeffs, f.exponents + lam, f.support)


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
    return t**lam / gamma(lam + 1.0) * j


def _wavelet_image_quadrature(
    spec: WaveletBasisSpec, eta: int, upsilon: int, lam: float, t: float
) -> float:
    """I^lam of wavelet (eta, upsilon) at t by quadrature: the test oracle of
    :func:`basis_images`.

    The wavelet lives on one cell.  When t sits inside that cell the kernel
    singularity is removed by the same substitution as above, shifted to the
    cell start; when t lies beyond the cell the integrand is smooth over the
    full cell and is integrated directly.
    """
    lo, hi = cell_bounds(spec, eta)
    if t <= lo:
        return 0.0
    series = local_wavelet_series(spec, upsilon)
    scale = spec.translations
    if t <= hi:
        width = t - lo
        g = lambda v: series.evaluate_many(scale * width * (1.0 - v ** (1.0 / lam)))
        j = adaptive_unit_integral(g)
        return width**lam / gamma(lam + 1.0) * j
    # integrand (t - tau)**(lam-1) * wavelet(tau) over [lo, hi]; map tau = lo + (hi-lo)*u,
    # so the local coordinate is exactly u because (hi-lo)*2**(k-1) == 1
    cell = hi - lo
    g = lambda u: (t - lo - cell * u) ** (lam - 1.0) * series.evaluate_many(u)
    j = adaptive_unit_integral(g)
    return cell / gamma(lam) * j


# ---------------------------------------------------------------------------
# closed-form basis images
# ---------------------------------------------------------------------------

def basis_images(spec: WaveletBasisSpec, lam, t) -> np.ndarray:
    """Vector [I^lam of each wavelet](t), ordered like the basis vector.

    ``t`` may also be a 1-D array of points; the result then has one row per
    point.  ``lam`` broadcasts against the points, so it is one order, or an
    array holding one order per point, and any leading axes of ``lam`` ask
    for several orders at once: ``lam`` of shape (2, 1) gives the (2, n,
    sigma_tilde) images of two constant orders at n points.  The powers of
    the points are formed once and shared by every order.

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
    powers = (cells * s) ** exps
    row, cell = np.nonzero(tw[:, None] > hi)
    beyond = s[row, cell]
    z = (hi[cell] - lo[cell])[:, None] / beyond
    y = (tw[row] - hi[cell])[:, None] / beyond

    images = np.empty(lams.shape + (spec.sigma_tilde,))
    for index in np.ndindex(lams.shape[:-1]):
        order = lams[index]
        out = images[index]
        zero = order == 0.0
        if zero.any():
            # a row of fobw_matrix depends on the size of its batch (its BLAS
            # product rounds differently), so take the rows of the full batch
            out[zero] = fobw_matrix(spec, pts)[zero]
        pos = np.flatnonzero(~zero)
        if not pos.size:
            continue
        lw = order[pos].astype(wide)
        # one row of gamma ratios serves every point when the order is constant
        rows = lw[:1] if np.all(lw == lw[:1]) else lw
        terms = (
            gamma_ratio(exps + 1.0, rows[:, None])[:, None, :]
            * powers[pos]
            * s[pos] ** lw[:, None, None]
        )
        # beyond-cell entries of these points, and their rows among ``pos``
        keep = ~zero[row]
        if keep.any():
            rank = np.cumsum(~zero) - 1
            terms[rank[row[keep]], cell[keep]] *= betainc(
                exps + 1.0, order[row[keep]].astype(wide)[:, None], z[keep], y[keep]
            )
        out[pos] = (terms.reshape(-1, exps.size) @ weights).astype(float).reshape(pos.size, -1)
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
# approximant reconstruction and its Caputo image
# ---------------------------------------------------------------------------

def _coefficient_vector(U: np.ndarray, spec: WaveletBasisSpec) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.shape != (spec.sigma_tilde,):
        raise ValueError(f"coefficient vector must have length {spec.sigma_tilde}")
    return U


def _shaped(values: np.ndarray, like: np.ndarray):
    """A float for a scalar ``like``, else ``values`` in the shape of ``like``."""
    return float(values[0]) if like.ndim == 0 else values.reshape(like.shape)


def reconstruct(
    U: np.ndarray,
    spec: WaveletBasisSpec,
    init: tuple[float, float],
    t,
) -> tuple:
    """Value, first and second derivative of the approximant at t.

    The coefficient vector expands the second derivative; value and slope
    follow from the first and second antiderivative images plus the initial
    data, which the representation satisfies exactly.  A point ``t`` gives
    floats, an array of points gives arrays of its shape.
    """
    U = _coefficient_vector(U, spec)
    ts = np.asarray(t, dtype=float)
    pts = ts.ravel()
    value0, slope0 = float(init[0]), float(init[1])
    second = fobw_matrix(spec, pts) @ U
    i1, i2 = basis_images(spec, [[1.0], [2.0]], pts)
    first = i1 @ U + slope0
    value = i2 @ U + value0 + pts * slope0
    return _shaped(value, ts), _shaped(first, ts), _shaped(second, ts)


def caputo_on_approximant(
    U: np.ndarray,
    spec: WaveletBasisSpec,
    alpha: OrderFunction,
    init: tuple[float, float],
    t,
):
    """Variable-order Caputo derivative of the approximant at t.

    This is U . [I^(2-alpha(t)) Psi](t), see :func:`caputo_images`.  A point
    ``t`` gives a float, an array of points an array of its shape.
    """
    U = _coefficient_vector(U, spec)
    ts = np.asarray(t, dtype=float)
    _, images = caputo_images(spec, alpha, ts.ravel())
    return _shaped(images @ U, ts)


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
    su = local_wavelet_series(spec, upsilon)
    sv = local_wavelet_series(spec, vartheta)
    inv = 1.0 / spec.gamma

    def substituted_product(u):
        x = np.asarray(u, dtype=float) ** inv
        return su.evaluate_many(x) * sv.evaluate_many(x)

    integral = adaptive_unit_integral(substituted_product)
    return integral / (spec.gamma * spec.translations)
