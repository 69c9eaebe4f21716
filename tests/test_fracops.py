import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fobw import fracops
from fobw.basis import WaveletBasisSpec, _local_values, fobw_matrix, local_series_table
from fobw.fracops import basis_images, family_images, order_values
from fobw.oracles import (
    AccuracyError,
    _wavelet_image_quadrature,
    adaptive_unit_integral,
    fobw_eval,
    rl_integral_quadrature,
)
from fobw.expr import parse_expression
from fobw.solver import OscillatorProblem, SolutionApproximant, collocation_grid
from fobw.special import betainc


def wavelet_at(spec, ups):
    """Wavelet ``ups`` of a k = 1 family as a function of t, from the series table."""
    return lambda x: _local_values(spec, x)[..., ups]


def approximant(spec, U, init=(0.0, 0.0), alpha=2.0):
    """Approximant with coefficients ``U`` for y'' = 0 (no solve)."""
    problem = OscillatorProblem(
        mu=0.0, a=0.0, b=0.0, alpha=alpha, init_value=init[0], init_slope=init[1]
    )
    return SolutionApproximant(problem, spec, np.asarray(U, dtype=float), None)


#: the points an order is probed at: (0, 1], where the fractional operators act
PROBE = np.linspace(0.0, 1.0, 1002)[1:]


class TestOrderFunction:
    """An order alpha(t) is a constant in (1, 2] or a callable of an array of t."""

    def test_constant(self):
        alpha = OscillatorProblem(mu=0.0, a=0.0, b=0.0, alpha=np.float64(1.5)).alpha
        assert type(alpha) is float and alpha == 1.5
        assert np.array_equal(order_values(alpha, [0.0, 0.3, 1.0]), [1.5, 1.5, 1.5])

    @pytest.mark.parametrize("c", [1.0, 2.5, 0.9, 1])
    def test_constant_out_of_range(self, c):
        with pytest.raises(ValueError, match=rf"order {float(c)} outside \(1, 2\]"):
            OscillatorProblem(mu=0.0, a=0.0, b=0.0, alpha=c)

    @pytest.mark.parametrize("c", [math.nan, math.inf, 10**400, True, "1.5"],
                             ids=["nan", "inf", "huge-int", "bool", "text"])
    def test_constant_that_is_not_a_finite_number(self, c):
        with pytest.raises(ValueError, match="alpha must be a finite real number"):
            OscillatorProblem(mu=0.0, a=0.0, b=0.0, alpha=c)

    def test_variable(self):
        alpha = parse_expression("1 + sin(t)")
        assert OscillatorProblem(mu=0.0, a=0.0, b=0.0, alpha=alpha).alpha is alpha
        assert order_values(alpha, [0.5])[0] == pytest.approx(1.0 + math.sin(0.5))

    def test_range_violations_rejected(self):
        with pytest.raises(ValueError, match=r"alpha\(0\.5005\) = 2\.0005 outside"):
            order_values(parse_expression("1.5 + t"), PROBE)  # exceeds 2
        with pytest.raises(ValueError, match=r"alpha\(0\.000999001\) = 0\.500999 outside"):
            order_values(parse_expression("0.5 + t"), PROBE)  # dips to 1 and below

    @pytest.mark.parametrize(
        "fn, message",
        [
            (lambda t: np.where(t > 0.5, np.nan, 1.5), r"alpha\(0\.5005\) = nan outside"),
            (lambda t: np.where(t < 0.25, np.inf, 1.5), r"alpha\(0\.000999001\) = inf outside"),
        ],
        ids=["nan", "inf"],
    )
    def test_non_finite_order_names_the_probe_point(self, fn, message):
        with pytest.raises(ValueError, match=message):
            order_values(fn, PROBE)


class TestSeriesIntegral:
    # The single wavelet of the k = 1, M = 0, gamma = 1 family is the
    # constant 1, and the M = 1 family spans t: (psi_1 + psi_0/sqrt(3))/2 = t.

    def test_integrate_constant(self):
        spec = WaveletBasisSpec(1, 0, 1.0)
        assert np.array_equal(local_series_table(spec)[0], [[1.0]])
        ts = np.array([0.2, 0.5, 1.0])
        assert np.allclose(basis_images(spec, 1.0, ts)[:, 0], ts, rtol=1e-14, atol=0)

    def test_integrate_linear(self):
        spec = WaveletBasisSpec(1, 1, 1.0)
        combo = np.array([1.0 / (2.0 * math.sqrt(3.0)), 0.5])
        ts = np.array([0.2, 0.5, 1.0])
        assert np.allclose(fobw_matrix(spec, ts) @ combo, ts, rtol=1e-14, atol=0)
        assert np.allclose(basis_images(spec, 1.0, ts) @ combo, ts**2 / 2, rtol=1e-13, atol=0)

    def test_half_order(self):
        spec = WaveletBasisSpec(1, 0, 1.0)
        for t in (0.25, 0.5, 1.0):
            image = basis_images(spec, 0.5, t)[0]
            # 1/gamma(1.5) * sqrt(t)
            assert image == pytest.approx(1.1283791670955126 * math.sqrt(t), rel=1e-13)
            # cross-check against the quadrature route
            q = rl_integral_quadrature(lambda x: np.ones_like(x), 0.5, t)
            assert image == pytest.approx(q, abs=1e-10)

    def test_semigroup_property(self):
        # I^2 of a wavelet is the plain integral of its I^1
        spec = WaveletBasisSpec(1, 4, 0.5)
        once = lambda x: basis_images(spec, 1.0, x)[:, 2]
        for t in (0.3, 0.7, 1.0):
            twice = rl_integral_quadrature(once, 1.0, t)
            assert basis_images(spec, 2.0, t)[2] == pytest.approx(twice, abs=1e-12)

    def test_nonpositive_order_rejected(self):
        with pytest.raises(ValueError):
            basis_images(WaveletBasisSpec(1, 3, 0.5), -0.5, 0.5)
        with pytest.raises(ValueError):
            rl_integral_quadrature(lambda x: x, 0.0, 0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_order_that_is_not_finite_and_nonnegative_is_refused(self, lam):
        with pytest.raises(ValueError, match="integral order must be finite and nonnegative"):
            basis_images(WaveletBasisSpec(1, 3, 0.5), lam, 0.5)
        # one such order among others refuses the whole call
        with pytest.raises(ValueError, match="integral order must be finite and nonnegative"):
            basis_images(WaveletBasisSpec(1, 3, 0.5), [0.5, lam], [0.25, 0.5])


class TestQuadratureIntegral:
    def test_double_integral_of_one(self):
        val = rl_integral_quadrature(lambda x: np.ones_like(x), 2.0, 1.0)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_single_integral_of_t(self):
        val = rl_integral_quadrature(lambda x: x, 1.0, 0.6)
        assert val == pytest.approx(0.18, abs=1e-12)

    def test_fractional_power(self):
        # analytic value from the termwise rule, via the gamma op
        expected = math.gamma(1.3) / math.gamma(2.0) * 0.9
        val = rl_integral_quadrature(lambda x: x**0.3, 0.7, 0.9)
        assert val == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("t", [0.0, -0.1, 1.5])
    def test_bad_evaluation_point(self, t):
        with pytest.raises(ValueError):
            rl_integral_quadrature(lambda x: x, 1.0, t)

    def test_nonconvergence_raises_with_best_estimate(self):
        calls = [0]

        def jittery(v):
            calls[0] += 1
            return np.full_like(v, float(calls[0] % 2))

        with pytest.raises(AccuracyError) as err:
            adaptive_unit_integral(jittery, max_levels=3)
        assert math.isfinite(err.value.best_estimate)


class TestAnalyticQuadratureAgreement:
    @pytest.mark.parametrize("g", [0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_on_basis_functions(self, g, lam):
        rng = np.random.default_rng(17)
        spec = WaveletBasisSpec(1, 3, g)
        for ups in (0, 3):
            for t in rng.uniform(0.05, 1.0, 5):
                q = rl_integral_quadrature(wavelet_at(spec, ups), lam, float(t))
                assert q == pytest.approx(basis_images(spec, lam, float(t))[ups], abs=1e-10)


class TestMultiCellImages:
    def test_matches_series_route_on_single_cell(self):
        # on one cell the image is the termwise rule, written out here in floats
        spec = WaveletBasisSpec(1, 3, 0.5)
        coeffs, exps = local_series_table(spec)
        lam = 0.7
        for t in (0.2, 0.7):
            imgs = basis_images(spec, lam, t)
            for ups in range(4):
                termwise = sum(
                    c * math.gamma(p + 1.0) / math.gamma(p + 1.0 + lam) * t ** (p + lam)
                    for c, p in zip(coeffs[ups], exps)
                )
                assert imgs[ups] == pytest.approx(termwise, abs=1e-12)

    def test_translated_cell_against_direct_quadrature(self):
        # oracle: raw singular integral of the wavelet, integrated per piece
        # with dense fixed quadrature on a subdivided grid
        spec = WaveletBasisSpec(2, 2, 1.0)
        lam = 0.6
        t = 0.8
        imgs = basis_images(spec, lam, t)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        for eta in (1, 2):
            for ups in range(3):
                pos = (eta - 1) * 3 + ups

                def wavelet(tau):
                    return np.array(
                        [fobw_eval(spec, eta, ups, x) for x in np.atleast_1d(tau)]
                    )

                # integrate (t - tau)^(lam-1) * wavelet(tau) over [0, t] by
                # splitting at the cell edges and substituting out the kernel
                # singularity on the last piece
                edges = [e for e in (0.0, 0.5, t) if e <= t]
                total = 0.0
                for lo, hi in zip(edges[:-1], edges[1:]):
                    if hi < t:
                        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
                        fx = wavelet(x) * (t - x) ** (lam - 1.0)
                        total += 0.5 * (hi - lo) * float(weights @ fx)
                    else:
                        width = hi - lo
                        # tau = t - width * s^(1/lam) removes the singularity
                        s = 0.5 + 0.5 * nodes
                        tau = t - width * s ** (1.0 / lam)
                        fx = wavelet(tau)
                        total += width**lam / lam * 0.5 * float(weights @ fx)
                expected = total / math.gamma(lam)
                assert imgs[pos] == pytest.approx(expected, abs=1e-9)

    def test_zero_before_support(self):
        spec = WaveletBasisSpec(2, 1, 0.5)
        imgs = basis_images(spec, 0.5, 0.3)
        assert np.all(imgs[2:] == 0.0)


class TestClosedFormImages:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("g", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.2, 0.5, 1.0, 1.7, 2.0])
    def test_matches_quadrature_oracle(self, k, g, lam):
        spec = WaveletBasisSpec(k, 5, g)
        edge = 1.0 / spec.translations
        # at 0, inside a cell, on the first cell edge, just past it, at 1
        for t in (0.0, 0.3, edge, edge + 1e-9, 1.0):
            oracle = [
                _wavelet_image_quadrature(spec, eta, ups, lam, t)
                for eta in range(1, spec.translations + 1)
                for ups in range(spec.M + 1)
            ]
            assert np.allclose(basis_images(spec, lam, t), oracle, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("g", [0.2, 0.9])
    @pytest.mark.parametrize("lam", [0.3, 0.5, 2.0])
    def test_matches_the_series_in_40_digits(self, k, g, lam):
        # the same sum of terms as basis_images, every term in 40-digit
        # mpmath.  The bounds sit a little above the largest errors of these
        # cases with glibc powl: 2.34e-12 at a fractional order, from its
        # double gamma values, and 5.6e-17 at order 2
        mpmath = pytest.importorskip("mpmath")
        spec = WaveletBasisSpec(k, 5, g)
        coeffs, exps = local_series_table(spec)
        ts = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 8))
        exact = np.zeros((ts.size, spec.sigma_tilde))
        with mpmath.workdps(40):
            lam_mp = mpmath.mpf(lam)
            ps = [mpmath.mpf(p) for p in exps.tolist()]
            ratios = [mpmath.gamma(p + 1) / mpmath.gamma(p + 1 + lam_mp) for p in ps]
            for r, t in enumerate(ts.tolist()):
                for cell, (lo, hi) in enumerate(zip(spec.edges[:-1].tolist(),
                                                    spec.edges[1:].tolist())):
                    if t <= lo:
                        continue
                    s, w = mpmath.mpf(t) - lo, mpmath.mpf(hi) - lo
                    terms = [(s / w) ** p * ratio * s**lam_mp for p, ratio in zip(ps, ratios)]
                    if t > hi:
                        terms = [term * mpmath.betainc(p + 1, lam_mp, 0, w / s, regularized=True)
                                 for term, p in zip(terms, ps)]
                    for ups, row in enumerate(coeffs.tolist()):
                        exact[r, cell * (spec.M + 1) + ups] = mpmath.fsum(
                            mpmath.mpf(c) * term for c, term in zip(row, terms))
        error = np.abs(basis_images(spec, lam, ts) - exact).max()
        assert error <= (1e-16 if lam == 2.0 else 3e-12)

    def test_batch_rows_equal_pointwise_calls(self):
        rng = np.random.default_rng(5)
        spec = WaveletBasisSpec(3, 4, 0.5)
        ts = rng.uniform(0.0, 1.0, 25)
        lams = rng.uniform(0.1, 2.0, 25)
        lams[:2] = (1.0, 2.0)
        batch = basis_images(spec, lams, ts)
        assert batch.shape == (25, spec.sigma_tilde)
        for row, t, lam in zip(batch, ts, lams):
            assert np.array_equal(row, basis_images(spec, lam, t))

    def test_scalar_point_gives_vector(self):
        spec = WaveletBasisSpec(2, 3, 0.5)
        assert basis_images(spec, 0.5, 0.7).shape == (spec.sigma_tilde,)
        assert basis_images(spec, 0.5, np.array([0.7])).shape == (1, spec.sigma_tilde)

    @pytest.mark.parametrize("images", [
        lambda spec, ts: basis_images(spec, 0.5, ts),
        lambda spec, ts: next(family_images([spec], 0.5, ts, [ts.size])),
    ], ids=["basis_images", "family_images"])
    def test_points_of_two_axes_are_refused_by_name(self, images):
        with pytest.raises(ValueError, match=r"t must be a point or a 1-D array of points, "
                                             r"got shape \(2, 3\)"):
            images(WaveletBasisSpec(1, 3, 0.5), np.full((2, 3), 0.5))


class TestReconstruct:
    def test_zero_coefficients(self):
        spec = WaveletBasisSpec(1, 3, 1.0)
        approx = approximant(spec, np.zeros(4), (2.5, -1.0))
        value, slope, _ = approx.evaluate(0.4)
        assert value == pytest.approx(2.5 + 0.4 * -1.0, abs=1e-15)
        assert approx.value(0.4) == value
        assert slope == -1.0
        assert (fobw_matrix(spec, [0.4]) @ approx.coefficients)[0] == 0.0

    def test_first_basis_coefficient(self):
        # I^2 of sqrt(3)(1 - t) is sqrt(3)(t^2/2 - t^3/6)
        spec = WaveletBasisSpec(1, 1, 1.0)
        approx = approximant(spec, [1.0, 0.0])
        for t in (0.3, 0.8, 1.0):
            assert approx.value(t) == pytest.approx(math.sqrt(3) * (t**2 / 2 - t**3 / 6), rel=1e-13)
        assert approx.value(1.0) == pytest.approx(math.sqrt(3) / 3, rel=1e-13)

    def test_derivative_consistency(self):
        rng = np.random.default_rng(23)
        spec = WaveletBasisSpec(1, 4, 0.5)
        approx = approximant(spec, rng.normal(0.0, 1.0, 5), (1.0, 0.5))
        h = 1e-6
        for t in (0.2, 0.5, 0.8):
            plus, minus = approx.value(t + h), approx.value(t - h)
            assert (plus - minus) / (2 * h) == pytest.approx(approx.evaluate(t)[1], abs=1e-7)

    def test_antiderivative_identity_is_bit_exact(self):
        # the value path is the I^2 image row times U plus the initial line,
        # so recomputing that linear combination reproduces it bit for bit
        spec = WaveletBasisSpec(1, 5, 0.2)
        rng = np.random.default_rng(2)
        U = rng.normal(0.0, 1.0, 6)
        t = 0.37
        approx = approximant(spec, U, (1.0, 2.0))
        expected = float(U @ basis_images(spec, 2.0, t)) + 1.0 + t * 2.0
        assert approx.value(t) == approx.evaluate(t)[0] == expected


class TestCaputo:
    def test_zero_coefficients_any_order(self):
        spec = WaveletBasisSpec(1, 3, 1.0)
        approx = approximant(spec, np.zeros(4), (3.0, 0.0), 1.5)
        assert approx.evaluate(0.5)[2] == 0.0

    def test_integer_branch(self):
        spec = WaveletBasisSpec(1, 3, 1.0)
        approx = approximant(spec, [1.0, 0.0, 0.0, 0.0])
        for t in (0.2, 0.6):
            expected = fobw_eval(spec, 1, 0, t)
            assert approx.evaluate(t)[2] == pytest.approx(expected, rel=1e-14)

    def test_half_derivative_of_t_squared(self):
        # fit the constant second derivative of t^2 in the basis, then check
        # the analytic Caputo image gamma(3)/gamma(1.5) * sqrt(t)
        spec = WaveletBasisSpec(1, 5, 1.0)
        psi = fobw_matrix(spec, collocation_grid(WaveletBasisSpec(1, 29, 1.0)))
        U, *_ = np.linalg.lstsq(psi, np.full(30, 2.0), rcond=None)
        approx = approximant(spec, U, alpha=1.5)
        scale = math.gamma(3.0) / math.gamma(1.5)
        assert scale == pytest.approx(2.2567583341910253, rel=1e-13)
        for t in (0.2, 0.5, 0.9):
            assert approx.evaluate(t)[2] == pytest.approx(scale * math.sqrt(t), abs=1e-6)

    def test_order_continuity_toward_two(self):
        rng = np.random.default_rng(8)
        spec = WaveletBasisSpec(1, 4, 1.0)
        U = rng.uniform(-1.0, 1.0, 5)
        approx = approximant(spec, U, alpha=2.0 - 1e-6)
        for t in (0.3, 0.6, 0.9):
            exact = float(U @ fobw_matrix(spec, [t])[0])
            assert approx.evaluate(t)[2] == pytest.approx(exact, abs=1e-3)

    def test_order_outside_range_rejected(self):
        spec = WaveletBasisSpec(1, 3, 1.0)
        bad = parse_expression("2.5 + 0*t")  # a callable is range-checked where it is evaluated
        with pytest.raises(ValueError, match=r"alpha\(0\.5\) = 2\.5 outside"):
            approximant(spec, np.zeros(4), alpha=bad).evaluate(0.5)
        with pytest.raises(ValueError):
            approximant(spec, np.zeros(3), alpha=1.5).evaluate(0.5)


# orders for the shared-table tests: whole orders take the finite-product and
# finite-sum routes, the others math.gamma and the continued fraction
ORDERS = st.one_of(st.sampled_from([1.0, 2.0, 0.5]), st.floats(0.05, 2.0))
POINTS = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=12
)
SPECS = st.builds(
    WaveletBasisSpec,
    st.sampled_from([1, 2, 3]),
    st.sampled_from([2, 4]),
    st.sampled_from([0.2, 0.5, 1.0]),
)


class TestSharedImageTable:
    @settings(max_examples=60, deadline=None)
    @given(spec=SPECS, ts=POINTS, orders=st.lists(ORDERS, min_size=1, max_size=4))
    def test_constant_orders_match_single_order_calls(self, spec, ts, orders):
        ts = np.array(ts)
        batch = basis_images(spec, np.array(orders)[:, None], ts)
        assert batch.shape == (len(orders), ts.size, spec.sigma_tilde)
        for images, lam in zip(batch, orders):
            assert np.array_equal(images, basis_images(spec, lam, ts))

    @settings(max_examples=60, deadline=None)
    @given(spec=SPECS, data=st.data())
    def test_per_point_orders_match_single_order_calls(self, spec, data):
        ts = np.array(data.draw(POINTS))
        per_point = st.lists(ORDERS, min_size=ts.size, max_size=ts.size)
        lams = np.array(data.draw(st.lists(per_point, min_size=1, max_size=3)))
        batch = basis_images(spec, lams, ts)
        assert batch.shape == lams.shape + (spec.sigma_tilde,)
        for images, lam in zip(batch, lams):
            single = basis_images(spec, lam, ts)
            assert np.array_equal(images, single)
            for row, t, order in zip(single, ts, lam):
                assert np.array_equal(row, basis_images(spec, order, t))

    @settings(max_examples=40, deadline=None)
    @given(spec=SPECS, data=st.data())
    def test_order_zero_rows_are_basis_vectors(self, spec, data):
        ts = np.array(data.draw(POINTS))
        lam = np.array(data.draw(st.lists(
            st.one_of(st.just(0.0), ORDERS), min_size=ts.size, max_size=ts.size
        )))
        batch = basis_images(spec, np.stack([lam, np.zeros_like(lam)]), ts)
        zero = lam == 0.0
        assert np.array_equal(batch[1], fobw_matrix(spec, ts))
        assert np.array_equal(batch[0][zero], fobw_matrix(spec, ts)[zero])
        assert np.array_equal(batch[0][~zero], basis_images(spec, lam[~zero], ts[~zero]))

    @settings(max_examples=60, deadline=None)
    @given(spec=SPECS, data=st.data())
    def test_mixed_stack_matches_single_order_calls(self, spec, data):
        # one call holding constant rows, a zero row, a per-point row and a
        # per-point row with zeros in it, in any order, the way the plot
        # columns of one basis are evaluated together
        ts = np.array(data.draw(POINTS))
        per_point = st.lists(ORDERS, min_size=ts.size, max_size=ts.size)
        with_zeros = st.lists(st.one_of(st.just(0.0), ORDERS), min_size=ts.size, max_size=ts.size)
        rows = [np.full(ts.size, c) for c in data.draw(st.lists(ORDERS, min_size=1, max_size=3))]
        rows += [np.zeros(ts.size), np.array(data.draw(per_point)), np.array(data.draw(with_zeros))]
        lams = np.stack(data.draw(st.permutations(rows)))
        batch = basis_images(spec, lams, ts)
        assert batch.shape == lams.shape + (spec.sigma_tilde,)
        for images, lam in zip(batch, lams):
            single = lam[0] if np.all(lam == lam[0]) else lam
            assert np.array_equal(images, basis_images(spec, single, ts))

    def test_scalar_point_with_several_orders(self):
        spec = WaveletBasisSpec(2, 3, 0.5)
        images = basis_images(spec, [[0.5], [1.0]], 0.7)
        assert images.shape == (2, spec.sigma_tilde)
        assert np.array_equal(images[1], basis_images(spec, 1.0, 0.7))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            basis_images(WaveletBasisSpec(1, 3, 0.5), -0.5, 0.5)

    @pytest.mark.parametrize("points", [7, 64])
    def test_blocks_of_points_join_bit_identically(self, monkeypatch, points):
        # a call takes its points in blocks of IMAGE_BLOCK // (orders * cells
        # * terms); the entries are elementwise, so any block size gives the
        # same images, here 401 points in blocks of 7 or 64
        spec = WaveletBasisSpec(2, 5, 0.2)
        ts = np.linspace(0.0, 1.0, 402)[1:]
        lams = np.stack(np.broadcast_arrays(1.0, 2.0, 0.0, 0.5 - 0.3 * np.sin(4 * ts)))
        whole = basis_images(spec, lams, ts)
        monkeypatch.setattr(fracops, "IMAGE_BLOCK", points * 4 * 2 * 6)
        assert np.array_equal(basis_images(spec, lams, ts), whole)

    def test_a_large_call_takes_bounded_memory(self):
        # 1000 points on 16 cells: 43 MB at its peak in one block
        spec = WaveletBasisSpec(5, 7, 0.5)
        ts = np.linspace(0.0, 1.0, 1001)[1:]
        lams = np.stack(np.broadcast_arrays(1.0, 2.0, 0.5 - 0.3 * np.sin(4 * ts)))
        tracemalloc.start()
        try:
            basis_images(spec, lams, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestFamilyImages:
    """One term pass for the bases of a (k, gamma) family, at its largest M,
    against a lone :func:`basis_images` call for each basis."""

    @pytest.mark.parametrize("block", [None, 3], ids=["one block", "blocks of 3 points"])
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("Ms", [(3, 5), (0, 2, 4), (7, 1)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_basis_equals_a_lone_call(self, monkeypatch, k, Ms, gamma, block):
        # whole, zero and fractional constant orders and a variable row with
        # zeros; points of each basis alone, then shared points on every
        # cell end (multiples of 1/4) and between them
        specs = [WaveletBasisSpec(k, M, gamma) for M in Ms]
        own = [np.linspace(0.02 + 0.01 * M, 0.97, M + 2) for M in Ms]
        shared = np.concatenate([np.linspace(0.0, 1.0, 9), [0.37, 0.61]])
        ts = np.concatenate([*own, shared])
        varying = 0.5 - 0.3 * np.sin(4 * ts)
        lams = np.stack(np.broadcast_arrays(1.0, 2.0, 0.0, 0.5, np.where(ts > 0.6, 0.0, varying)))
        alone = []
        for i, spec in enumerate(specs):
            start = sum(p.size for p in own[:i])
            rows = np.r_[start:start + own[i].size, ts.size - shared.size:ts.size]
            alone.append(basis_images(spec, lams[:, rows], ts[rows]))
        if block is not None:
            monkeypatch.setattr(fracops, "IMAGE_BLOCK", block * 5 * 2 ** (k - 1) * (max(Ms) + 1))
        family = family_images(specs, lams, ts, [p.size for p in own])
        for images, expected in zip(family, alone, strict=True):
            # long doubles are summed, doubles compared: by value and sign
            assert np.array_equal(images, expected)
            assert np.array_equal(np.signbit(images), np.signbit(expected))

    def test_bases_must_share_k_and_gamma(self):
        specs = [WaveletBasisSpec(1, 3, 0.5), WaveletBasisSpec(2, 3, 0.5)]
        with pytest.raises(ValueError, match="share k and gamma"):
            next(family_images(specs, 1.0, np.array([0.5]), [0, 0]))


class TestCutFactors:
    """The incomplete-beta factors of the cells that end before a point,
    against one-entry :func:`betainc` calls of each (order, point, cell,
    term) entry."""

    @staticmethod
    def one_entry_factors(exps, orders, tw, lo, hi, point, cell):
        # the pairs are the (point, cell) whose cell ends before the point;
        # a zero order reaches here as its placeholder, so no entry is left out
        assert np.array_equal(np.stack([point, cell]), np.nonzero(tw[:, None] > hi))
        out = np.empty((orders.shape[0], point.size, exps.size), dtype=np.longdouble)
        for o, j, i in np.ndindex(out.shape):
            p, c = point[j], cell[j]
            beyond = tw[p] - lo[c]
            z, y = (hi[c] - lo[c]) / beyond, (tw[p] - hi[c]) / beyond
            out[o, j, i] = betainc([exps[i] + 1.0], [np.longdouble(orders[o, p])], [z], [y])[0]
        return out

    @pytest.mark.parametrize("variable", [False, True], ids=["constant", "variable"])
    @pytest.mark.parametrize("k, M, blocks", [(2, 5, 1), (3, 4, 1), (5, 3, 1), (3, 4, 3)])
    def test_equal_one_entry_calls(self, monkeypatch, k, M, blocks, variable):
        # whole, constant fractional and zero orders in one call, with or
        # without a variable row and a variable row with zeros among its
        # entries, and points on cell ends (0.25, 0.5, 0.75, 1), which no
        # cell before them cuts
        spec = WaveletBasisSpec(k, M, 0.5)
        ts = np.concatenate([np.linspace(0.0, 1.0, 5), np.linspace(0.03, 0.97, 9)])
        varying = 0.5 - 0.3 * np.sin(4 * ts)
        rows = [1.0, 2.0, 0.0, 0.5, 0.3]
        rows += [varying, np.where(ts > 0.6, 0.0, varying)] if variable else []
        lams = np.stack(np.broadcast_arrays(*rows, ts)[:-1])
        whole = basis_images(spec, lams, ts)
        calls = []
        cut_factors = fracops._cut_factors

        def recorded(*args):
            calls.append((args, cut_factors(*args)))
            return calls[-1][1]

        monkeypatch.setattr(fracops, "_cut_factors", recorded)
        # blocks of about ts.size / blocks points
        step = -(-ts.size // blocks)
        monkeypatch.setattr(fracops, "IMAGE_BLOCK",
                            step * lams.shape[0] * spec.translations * (M + 1))
        assert np.array_equal(basis_images(spec, lams, ts), whole)
        assert len(calls) == blocks
        for args, factors in calls:
            expected = self.one_entry_factors(*args)
            # long doubles carry padding bytes, so the bits are compared by value and sign
            assert np.array_equal(factors, expected)
            assert np.array_equal(np.signbit(factors), np.signbit(expected))


class TestArrayOrders:
    # order_values calls an order once on the whole array of points; the
    # pointwise oracle calls it with one float at a time
    CALLABLES = {
        "expression": parse_expression("1.5 + 0.3*sin(4*t)"),
        "array lambda": lambda t: 1.5 + 0.25 * np.cos(3.0 * t),
    }

    @pytest.mark.parametrize("name", sorted(CALLABLES))
    @settings(max_examples=40, deadline=None)
    @given(ts=st.lists(st.floats(0.0, 1.0), max_size=30))
    def test_array_call_matches_pointwise_calls(self, name, ts):
        fn = self.CALLABLES[name]
        ts = np.array(ts, dtype=float)
        expected = np.array([float(fn(float(t))) for t in ts])
        assert np.array_equal(order_values(fn, ts), expected)

    def test_constant_over_an_array(self):
        out = order_values(1.5, np.linspace(0.0, 1.0, 4))
        assert out.shape == (4,) and np.all(out == 1.5)
