import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fobw import fracops
from fobw.basis import (
    WaveletBasisSpec,
    _local_values,
    fobw_matrix,
    local_series_table,
    short_repr,
)
from fobw.fracops import basis_images
from fobw.oracles import (
    adaptive_unit_integral,
    bernstein_frac,
    fobw_eval,
    weighted_inner_product,
)
from fobw.solver import collocation_grid
from fobw.special import gamma_ratio


def classical_wavelet(eta, ups, k, M, t):
    """Independently coded integer-order Bernstein wavelet (gamma = 1)."""
    cells = 2 ** (k - 1)
    lo, hi = (eta - 1) / cells, eta / cells
    inside = (lo <= t <= hi) if eta == 1 else (lo < t <= hi)
    if not inside:
        return 0.0
    x = 1 + cells * t - eta
    amp = math.sqrt(1 + 2 * M - 2 * ups)
    total = sum(
        (-1) ** i * math.comb(1 + 2 * M - i, ups - i) * math.comb(ups, i) * x ** (ups - i)
        for i in range(ups + 1)
    )
    return 2 ** ((k - 1) / 2) * amp * (1 - x) ** (M - ups) * total


def series_value(ups, M, g, t):
    """Polynomial ``ups`` of the (M, g) family at t, from the series table.

    At k = 1 the local coordinate is t and the table carries the wavelet
    normalization sqrt(g), which is divided out here.
    """
    return float(_local_values(WaveletBasisSpec(1, M, g), t)[ups]) / math.sqrt(g)


class TestBernsteinFrac:
    def test_first_member_at_zero(self):
        assert bernstein_frac(0, 3, 1.0, 0.0) == pytest.approx(math.sqrt(7), rel=1e-14)

    def test_vanishes_at_one(self):
        assert bernstein_frac(0, 1, 1.0, 1.0) == 0.0

    def test_agrees_with_series(self):
        # the expanded series is the second code path for the same function
        t = 0.25
        assert bernstein_frac(1, 2, 0.5, t) == pytest.approx(series_value(1, 2, 0.5, t), abs=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bernstein_frac(3, 2, 1.0, 0.5)
        with pytest.raises(ValueError):
            bernstein_frac(0, 2, 1.0, 1.5)
        with pytest.raises(ValueError):
            bernstein_frac(0, 2, -1.0, 0.5)


class TestMonomialSeries:
    def test_linear_case(self):
        coeffs, exps = local_series_table(WaveletBasisSpec(1, 1, 1.0))
        assert list(exps) == [0.0, 1.0]
        root3 = math.sqrt(3)
        assert coeffs[0, 0] == pytest.approx(root3, rel=1e-14)
        assert coeffs[0, 1] == pytest.approx(-root3, rel=1e-14)

    def test_half_exponent_case(self):
        coeffs, exps = local_series_table(WaveletBasisSpec(1, 2, 0.5))
        root5 = math.sqrt(5)
        assert list(exps) == [0.0, 0.5, 1.0]
        # the table rows carry the wavelet normalization sqrt(gamma)
        assert np.allclose(coeffs[0] / math.sqrt(0.5), [root5, -2 * root5, root5], rtol=1e-14)

    def test_matches_closed_form_at_random_points(self):
        rng = np.random.default_rng(5)
        for t in rng.uniform(0.0, 1.0, 10):
            assert series_value(2, 3, 1.0, t) == pytest.approx(
                bernstein_frac(2, 3, 1.0, t), abs=1e-13
            )

    def test_dual_route_broad_sample(self):
        rng = np.random.default_rng(11)
        cases = 0
        while cases < 1000:
            M = int(rng.integers(0, 6))
            ups = int(rng.integers(0, M + 1))
            g = float(rng.uniform(0.1, 1.5))
            t = float(rng.uniform(0.0, 1.0))
            direct = bernstein_frac(ups, M, g, t)
            via_series = series_value(ups, M, g, t)
            assert via_series == pytest.approx(direct, rel=1e-12, abs=1e-12)
            cases += 1

    def test_zero_power_convention(self):
        # 0**0 == 1 and 0**p == 0 for p > 0: at t = 0 every wavelet of the
        # first cell is its constant coefficient, exactly
        spec = WaveletBasisSpec(2, 3, 0.7)
        coeffs, _ = local_series_table(spec)
        vec = fobw_matrix(spec, [0.0])[0]
        assert np.array_equal(vec[:4], coeffs[:, 0])
        assert np.all(vec[4:] == 0.0)


class TestWaveletEval:
    def test_first_wavelet_at_zero(self):
        spec = WaveletBasisSpec(1, 3, 1.0)
        val = fobw_eval(spec, 1, 0, 0.0)
        assert val == pytest.approx(math.sqrt(7), rel=1e-14)

    def test_compact_support(self):
        spec = WaveletBasisSpec(2, 1, 1.0)
        assert fobw_eval(spec, 2, 0, 0.25) == 0.0
        # boundary 0.5 belongs to the left cell; just above it eta=2 is active
        # (the upsilon=1 member is checked because upsilon=0 vanishes at the
        # right cell edge anyway)
        assert fobw_eval(spec, 2, 1, 0.5) == 0.0
        assert fobw_eval(spec, 1, 1, 0.5) != 0.0
        assert fobw_eval(spec, 2, 1, 0.5 + 1e-12) != 0.0

    def test_composition_with_polynomial(self):
        spec = WaveletBasisSpec(1, 5, 0.5)
        val = fobw_eval(spec, 1, 3, 0.3)
        assert val == pytest.approx(
            math.sqrt(0.5) * bernstein_frac(3, 5, 0.5, 0.3), rel=1e-14
        )

    def test_invalid_index(self):
        spec = WaveletBasisSpec(1, 3, 1.0)
        with pytest.raises(ValueError):
            fobw_eval(spec, 2, 0, 0.5)
        with pytest.raises(ValueError):
            fobw_eval(spec, 1, 4, 0.5)
        # a fractional index is no wavelet, not a wavelet that is zero
        with pytest.raises(ValueError, match="eta=1.5 outside"):
            fobw_eval(WaveletBasisSpec(2, 3, 0.5), 1.5, 0, 0.3)
        with pytest.raises(ValueError, match="upsilon=0.5 outside"):
            weighted_inner_product(spec, 1, 0, 0.5)

    def test_point_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            fobw_eval(WaveletBasisSpec(1, 3, 1.0), 1, 0, 1.5)

    def test_classical_reduction(self):
        # independent integer-order implementation as oracle
        rng = np.random.default_rng(3)
        for k, M in ((1, 5), (2, 3)):
            spec = WaveletBasisSpec(k, M, 1.0)
            for t in rng.uniform(0.0, 1.0, 25):
                for eta in range(1, spec.translations + 1):
                    for ups in range(M + 1):
                        ours = fobw_eval(spec, eta, ups, float(t))
                        oracle = classical_wavelet(eta, ups, k, M, float(t))
                        assert ours == pytest.approx(oracle, abs=1e-13)


class TestWaveletVector:
    def test_values_at_zero(self):
        spec = WaveletBasisSpec(1, 3, 1.0)
        vec = fobw_matrix(spec, [0.0])[0]
        assert vec.shape == (4,)
        assert vec[0] == pytest.approx(math.sqrt(7), rel=1e-14)
        for ups in range(1, 4):
            assert vec[ups] == pytest.approx(bernstein_frac(ups, 3, 1.0, 0.0), rel=1e-13)

    def test_inactive_cell_is_zero(self):
        spec = WaveletBasisSpec(2, 1, 1.0)
        vec = fobw_matrix(spec, [0.75])[0]
        assert np.all(vec[:2] == 0.0)
        assert np.any(vec[2:] != 0.0)

    def test_matches_elementwise_eval(self):
        # the vector path evaluates the expanded series, the scalar path the
        # factored closed form; they agree to the dual-route tolerance
        rng = np.random.default_rng(9)
        spec = WaveletBasisSpec(2, 2, 0.5)
        for t in rng.uniform(0.0, 1.0, 20):
            vec = fobw_matrix(spec, [t])[0]
            flat = [
                fobw_eval(spec, eta, ups, float(t))
                for eta in range(1, 3)
                for ups in range(3)
            ]
            assert np.allclose(vec, flat, rtol=0, atol=1e-12)

    def test_points_of_two_axes_are_refused_by_name(self):
        with pytest.raises(ValueError, match=r"t must be a point or a 1-D array of points, "
                                             r"got shape \(2, 3\)"):
            fobw_matrix(WaveletBasisSpec(1, 3, 0.5), np.full((2, 3), 0.5))

    def test_cell_assignment_convention(self):
        # t = 0 and the shared boundary 0.5 belong to the left cell; the
        # upsilon = 1 wavelets vanish at neither end of their cell
        spec = WaveletBasisSpec(2, 1, 1.0)
        for t, owner in ((0.0, 1), (0.5, 1), (0.5 + 1e-12, 2), (1.0, 2)):
            for eta in (1, 2):
                value = fobw_eval(spec, eta, 1, t)
                assert (value != 0.0) == (eta == owner), (t, eta)
            assert fobw_matrix(spec, [t])[0][[1, 3]].nonzero()[0].tolist() == [owner - 1]

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.builds(
            WaveletBasisSpec,
            st.sampled_from([1, 2, 3]),
            st.integers(0, 12),
            st.sampled_from([0.2, 0.5, 1.0, 2.0]),
        ),
        ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
        data=st.data(),
    )
    def test_rows_do_not_depend_on_the_batch(self, spec, ts, data):
        ts = np.array(ts)
        i = data.draw(st.integers(0, ts.size - 1))
        assert np.array_equal(fobw_matrix(spec, ts)[i], fobw_matrix(spec, ts[i : i + 1])[0])

    @pytest.mark.parametrize("t", [1e-17, 1e-12])
    @pytest.mark.parametrize("k", [1, 2])
    def test_no_rounding_near_the_first_cell_start(self, k, t):
        # 1 + T*t - 1 rounds T*t away, and at gamma = 0.2 that moves the
        # wavelet by 4e-3 at t = 1e-17: both routes read the exact T*t
        spec, T = WaveletBasisSpec(k, 3, 0.2), 2 ** (k - 1)
        scale = math.sqrt(0.2) * 2 ** ((k - 1) / 2)
        closed = [scale * bernstein_frac(ups, 3, 0.2, T * t) for ups in range(4)]
        assert fobw_matrix(spec, [t])[0, :4] == pytest.approx(closed, rel=1e-14)
        assert [fobw_eval(spec, 1, ups, t) for ups in range(4)] == pytest.approx(closed,
                                                                                   rel=1e-14)


class TestCellEdges:
    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 11), g=st.sampled_from([0.2, 1.0, 2.0]), data=st.data())
    def test_edges_ascend_from_zero_to_one_one_per_cell_and_are_read_only(self, k, g, data):
        spec = WaveletBasisSpec(k, data.draw(st.integers(0, min(3, 2 ** (11 - k) - 1))), g)
        edges = spec.edges
        assert edges.size == spec.translations + 1
        assert edges[0] == 0.0 and edges[-1] == 1.0
        assert np.all(np.diff(edges) > 0.0)
        with pytest.raises(ValueError, match="read-only"):
            edges[1] = 0.5
        with pytest.raises(AttributeError):
            spec.edges = np.linspace(0.0, 1.0, edges.size)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_table_scale_is_the_dyadic_one_to_the_last_bit(self, k):
        # the one-term table is its scale, sqrt(gamma) * sqrt(1 / width)
        coeffs, _ = local_series_table(WaveletBasisSpec(k, 0, 0.7))
        assert coeffs[0, 0] == math.sqrt(0.7) * 2.0 ** ((k - 1) / 2.0)

    @pytest.fixture
    def edges(self, monkeypatch):
        """k = 2 cells [0, 0.25] and [0.25, 1] in place of the two halves."""
        edges = np.array([0.0, 0.25, 1.0])
        monkeypatch.setattr(WaveletBasisSpec, "edges", property(lambda spec: edges))
        yield edges
        local_series_table.cache_clear()  # its tables carry these cells' scale

    def test_grid_places_each_cells_points_strictly_inside_it(self, edges):
        spec = WaveletBasisSpec(2, 3, 0.5)
        grid = collocation_grid(spec)
        assert grid.size == 2 * (spec.M + 1)
        for lo, hi in zip(edges, edges[1:]):
            assert np.count_nonzero((grid > lo) & (grid < hi)) == spec.M + 1

    def test_matrix_assigns_points_by_the_edges(self, edges):
        # the upsilon = 1 wavelets vanish at neither end of their cell, and
        # the shared edge 0.25 belongs to the left cell
        spec = WaveletBasisSpec(2, 1, 1.0)
        ts = np.array([0.0, 0.1, 0.25, np.nextafter(0.25, 1.0), 0.625, 1.0])
        rows = fobw_matrix(spec, ts)
        assert [row[[1, 3]].nonzero()[0].tolist() for row in rows] == [[0]] * 3 + [[1]] * 3
        # 0.625 is the middle of [0.25, 1]
        assert np.array_equal(rows[4, 2:], _local_values(spec, 0.5))

    def test_images_cut_exactly_the_pairs_past_each_cell_end(self, edges, monkeypatch):
        spec = WaveletBasisSpec(2, 2, 0.5)
        ts = np.array([0.1, 0.25, np.nextafter(0.25, 1.0), 0.6, 1.0])
        cut, real = [], fracops._cut_factors

        def spy(exps, orders, tw, lo, hi, point, cell):
            cut.extend(zip(point.tolist(), cell.tolist()))
            return real(exps, orders, tw, lo, hi, point, cell)

        monkeypatch.setattr(fracops, "_cut_factors", spy)
        _, terms = fracops._image_terms(spec, np.full((1, ts.size), 0.5), ts)
        assert sorted(cut) == [(2, 0), (3, 0), (4, 0)]
        # t = 1 ends the cell [0.25, 1], where every term's x**p is 1
        _, exps = local_series_table(spec)
        wide = exps.astype(np.longdouble)
        expected = gamma_ratio(wide + 1.0, np.longdouble(0.5)) * np.longdouble(0.75) ** 0.5
        assert np.allclose(terms[0, 4, 1].astype(float), expected.astype(float), rtol=1e-15)


class TestOrthonormality:
    @pytest.mark.parametrize("g", [0.5, 1.0])
    @pytest.mark.parametrize("k", [1, 2])
    def test_weighted_inner_products(self, g, k):
        M = 3
        spec = WaveletBasisSpec(k, M, g)
        for eta in range(1, spec.translations + 1):
            for u in range(M + 1):
                for v in range(u, M + 1):
                    expected = 1.0 if u == v else 0.0
                    assert weighted_inner_product(spec, eta, u, v) == pytest.approx(
                        expected, abs=1e-8
                    )

    @pytest.mark.parametrize("eta, u, v", [(3, 0, 0), (1, 4, 0), (1, 0, -1)])
    def test_rejects_indices_outside_the_family(self, eta, u, v):
        with pytest.raises(ValueError):
            weighted_inner_product(WaveletBasisSpec(2, 3, 0.5), eta, u, v)


class TestCoefficientDecay:
    def test_sin_2t_coefficients(self):
        # expansion coefficients of sin(2t) in the weighted system, k=1
        spec = WaveletBasisSpec(1, 5, 1.0)
        coeffs = []
        for ups in range(6):
            integrand = lambda u: np.sin(2.0 * u) * _local_values(spec, u)[:, ups]
            coeffs.append(abs(adaptive_unit_integral(integrand)))
        # non-increasing beyond index 2
        for i in range(2, 5):
            assert coeffs[i] >= coeffs[i + 1]
        # bounded by the convergence-analysis envelope with rho = max|sin 2t| = 1
        for ups in range(6):
            bound = (
                2.0 ** (5 - ups)
                * math.sqrt(11 - 2 * ups)
                * math.comb(11 + ups, ups)
            )
            assert coeffs[ups] <= bound

    @pytest.mark.parametrize("g", [0.5, 1.0])
    def test_bound_holds_for_fractional_exponent(self, g):
        spec = WaveletBasisSpec(1, 5, g)
        inv = 1.0 / g
        for ups in range(6):
            integrand = lambda u: np.sin(2.0 * u**inv) * _local_values(spec, u**inv)[:, ups]
            coeff = abs(adaptive_unit_integral(integrand) / g)
            bound = (
                math.sqrt(g)
                * 2.0 ** (5 - ups)
                * math.sqrt(11 - 2 * ups)
                * math.comb(11 + ups, ups)
            )
            assert coeff <= bound


class TestTruncationError:
    @pytest.mark.parametrize("g", [0.5, 1.0])
    def test_weighted_l2_error_shrinks_with_basis_size(self, g):
        # projecting sin(2t) onto successively larger families must reduce the
        # weighted L2 approximation error
        inv = 1.0 / g
        f = lambda x: np.sin(2.0 * x)

        def weighted_l2_error(M):
            spec = WaveletBasisSpec(1, M, g)
            coeffs = np.array([
                adaptive_unit_integral(
                    lambda u, ups=ups: f(u**inv) * _local_values(spec, u**inv)[:, ups]
                )
                / g
                for ups in range(M + 1)
            ])

            def squared_gap(u):
                x = np.asarray(u) ** inv
                return (f(x) - _local_values(spec, x) @ coeffs) ** 2

            return math.sqrt(abs(adaptive_unit_integral(squared_gap) / g))

        errors = [weighted_l2_error(M) for M in (1, 3, 5)]
        assert errors[0] > errors[1] > errors[2]


class TestSpecValidation:
    def test_sigma_tilde(self):
        assert WaveletBasisSpec(1, 3, 1.0).sigma_tilde == 4
        assert WaveletBasisSpec(2, 5, 0.5).sigma_tilde == 12
        assert WaveletBasisSpec(8, 7, 0.5).sigma_tilde == 1024  # the largest basis

    # (1, 3, 56.01) and (2, 4, 42.0075) have gamma*M = 168.03, just past the
    # largest exponent; the next five hold a value that is not a finite real
    # number; the last two have more than 1024 wavelets
    INVALID = [
        ((0, 3, 1.0), "k"), ((1, -1, 1.0), "M"), ((1, 3, 0.0), "gamma"), ((1, 3, -0.5), "gamma"),
        ((1, 3, 56.01), r"gamma\*M"), ((2, 4, 42.0075), r"gamma\*M"),
        ((True, 3, 0.5), "k"), ((1, 3, True), "gamma"), ((1, 3, "0.5"), "gamma"),
        ((1, math.nan, 0.5), "M"), ((1, 3, math.inf), "gamma"),
        ((8, 8, 0.5), r"sigma_tilde = 2\*\*7 \* 9"), ((10**9, 3, 0.5), "sigma_tilde"),
    ]

    @pytest.mark.parametrize("args, field", INVALID, ids=[f"args{i}" for i in range(len(INVALID))])
    def test_invalid_spec(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            WaveletBasisSpec(*args)

    def test_huge_k_is_refused_without_forming_its_size(self):
        # 2**(10**9 - 1) alone would be a 125 MB integer
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds 1024"):
                WaveletBasisSpec(10**9, 3, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_short_repr_cuts_a_long_dict_after_its_first_keys(self):
        assert short_repr({i: i for i in range(6)}) == "{0: 0, 1: 1, 2: 2, 3: 3, ...}"

    def test_short_repr_cuts_a_deep_dict(self):
        nested = {}
        for _ in range(8):
            nested = {"k": nested}
        assert short_repr(nested) == "{'k': {'k': {'k': {'k': {'k': {'k': {...}}}}}}}"

    @pytest.mark.parametrize("k, M, gamma", [(1, 3, 56.0), (2, 4, 42.0)])
    def test_largest_exponent_has_finite_images(self, k, M, gamma):
        # gamma*M = 168, the largest exponent a basis may have
        spec = WaveletBasisSpec(k, M, gamma)
        ts = np.linspace(0.0, 1.0, 9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (0.0, 0.3, 1.0, 1.7, 2.0):
                assert np.all(np.isfinite(basis_images(spec, lam, ts))), lam
