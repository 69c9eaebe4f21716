import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fobw.basis import WaveletBasisSpec
from fobw.solver import collocation_grid
from fobw.special import _beta_cf, betainc, gamma_array, gamma_ratio, power


class TestGammaArray:
    def test_matches_scalar_gamma(self):
        x = np.concatenate([np.linspace(0.05, 30.0, 601), np.linspace(-4.75, -0.25, 10)])
        expected = np.array([math.gamma(float(v)) for v in x])
        assert np.allclose(gamma_array(x), expected, rtol=1e-14, atol=0)

    def test_pole_raises(self):
        with pytest.raises(ValueError):
            gamma_array(np.array([1.5, -2.0]))

    def test_keeps_extended_precision(self):
        x = np.array([1.5, 2.25], dtype=np.longdouble)
        assert gamma_array(x).dtype == np.longdouble
        assert gamma_array([1, 2]).dtype == np.float64


    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(
            # no subnormal numbers: gamma of one overflows, tested on its own
            st.floats(-4.9, 30.0, allow_subnormal=False).filter(lambda v: not (v <= 0.0 and v == math.floor(v))),
            min_size=1, max_size=5,
        ),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=40),
        wide=st.booleans(),
    )
    def test_repeated_entries_match_one_call_per_element(self, pool, picks, wide):
        # math.gamma runs once per distinct argument; scattering the values
        # back must give every entry exactly its own value
        x = np.array([pool[i % len(pool)] for i in picks], dtype=np.longdouble if wide else float)
        out = gamma_array(x)
        assert out.dtype == x.dtype
        assert np.array_equal(out, [gamma_array(v) for v in x])
        assert np.array_equal(gamma_array(x.reshape(1, -1)), out.reshape(1, -1))


class TestGammaRatio:
    def test_whole_number_offset_is_a_finite_product(self):
        x = np.linspace(0.2, 5.0, 25)
        assert np.allclose(gamma_ratio(x, 2.0), 1.0 / (x * (x + 1.0)), rtol=1e-15, atol=0)
        assert np.array_equal(gamma_ratio(x, 0.0), np.ones_like(x))

    def test_fractional_offset(self):
        x = np.linspace(0.2, 5.0, 25)
        d = np.linspace(0.05, 1.95, 25)
        expected = [math.gamma(a) / math.gamma(a + b) for a, b in zip(x, d)]
        assert np.allclose(gamma_ratio(x, d), expected, rtol=1e-13, atol=0)

    def test_whole_offsets_take_no_gamma_of_x(self):
        # gamma(200) overflows a double; the product needs no gamma value
        assert np.array_equal(gamma_ratio([200.0], [1.0]), [1.0 / 200.0])

    @settings(max_examples=80, deadline=None)
    @given(
        x=st.lists(st.floats(0.05, 40.0), min_size=1, max_size=8),
        d=st.lists(st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0, 2.0, 3.0])),
                   min_size=1, max_size=12),
        wide=st.booleans(),
    )
    def test_batch_entries_match_one_entry_calls(self, x, d, wide):
        # gamma(x) is taken on the shape of x and the whole-number test on
        # the shape of d, so every (order, exponent) entry of the broadcast
        # must still equal a call of its own
        dtype = np.longdouble if wide else float
        x, d = np.array(x, dtype=dtype), np.array(d, dtype=dtype)
        batch = gamma_ratio(x, d[:, None])
        assert batch.dtype == dtype and batch.shape == (d.size, x.size)
        for i, j in np.ndindex(batch.shape):
            assert np.array_equal(batch[i, j], gamma_ratio(x[j:j + 1], d[i:i + 1])[0])
        # elementwise pairs, whole and fractional offsets mixed in one row
        n = min(x.size, d.size)
        pairs = gamma_ratio(x[:n], d[:n])
        assert np.array_equal(pairs, np.diagonal(gamma_ratio(x[:n], d[:n, None])))


class TestBetainc:
    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(41)
        a = rng.uniform(0.05, 12.0, 4000)
        b = rng.uniform(0.05, 3.0, 4000)
        b[::4] = rng.integers(1, 4, 1000)
        x = rng.uniform(0.0, 1.0, 4000)
        x[:3] = (0.0, 1.0, 0.5)
        assert np.max(np.abs(betainc(a, b, x) - special.betainc(a, b, x))) <= 1e-13

    def test_whole_number_b_is_a_finite_sum(self):
        x = np.linspace(0.0, 1.0, 11)
        assert np.allclose(betainc(2.5, 1.0, x), x**2.5, rtol=1e-15, atol=0)
        assert np.allclose(betainc(2.5, 2.0, x), x**2.5 * (1.0 + 2.5 * (1.0 - x)), rtol=1e-15, atol=0)

    def test_complement_argument_near_one(self):
        # 1 - x rounds away the tail that y keeps: I_x(1, b) = 1 - (1-x)**b
        y = 1e-12
        assert betainc(1.0, 0.5, 1.0 - y, y) == pytest.approx(1.0 - math.sqrt(y), rel=1e-15)

    # one entry: a, b (fractional or whole), and x, where None puts x at the
    # symmetry switch (a+1)/(a+b+2), the slowest point of the fraction
    ENTRY = st.tuples(
        st.floats(0.05, 60.0),
        st.one_of(st.floats(0.05, 60.0), st.sampled_from([1.0, 2.0, 3.0])),
        st.one_of(st.none(), st.floats(0.0, 1.0), st.floats(0.0, 1e-3)),
    )

    @settings(max_examples=80, deadline=None)
    @given(entries=st.lists(ENTRY, min_size=1, max_size=30), wide=st.booleans())
    def test_batch_entries_match_one_entry_calls(self, entries, wide):
        # the continued fraction drops each entry from the batch once it
        # converges, so fast and slow entries mixed in one call must still
        # get exactly their own values
        dtype = np.longdouble if wide else float
        a = np.array([e[0] for e in entries], dtype=dtype)
        b = np.array([e[1] for e in entries], dtype=dtype)
        x = np.array([(e[0] + 1.0) / (e[0] + e[1] + 2.0) if e[2] is None else e[2]
                      for e in entries], dtype=dtype)
        batch = betainc(a, b, x)
        assert batch.dtype == dtype
        for i in range(len(entries)):
            assert np.array_equal(batch[i:i + 1], betainc(a[i:i + 1], b[i:i + 1], x[i:i + 1]))

    @staticmethod
    def one_entry(a, b, x, y):
        """I_x(a, b) of one long-double entry, each operation in the order
        the array code takes it: the reference that pins its bits."""
        def pw(base, p):  # special.power of one positive long-double entry
            return base**p if p == math.floor(p) else np.exp(p * np.log(base))

        one = np.longdouble(1.0)
        if b == math.floor(b):
            term = total = one
            for j in range(1, int(b)):
                term = term * (a + j - 1.0) / j * y
                total = total + term
            return pw(x, a) * total
        swap = not x < (a + 1.0) / (a + b + 2.0)
        p, q, u, v = (b, a, y, x) if swap else (a, b, x, y)
        gamma = [np.longdouble(math.gamma(float(w))) for w in (p + q, p, q)]
        front = pw(u, p) * pw(v, q) * gamma[0] / (p * gamma[1] * gamma[2])

        c, d = one, one / (1.0 - (p + q) * u / (p + 1.0))
        h = d
        for m in range(1, 501):
            even = m * (q - m) * u / ((p + 2 * m - 1.0) * (p + 2 * m))
            d = one / (1.0 + even * d)
            c = 1.0 + even / c
            step = d * c
            odd = -(p + m) * (p + q + m) * u / ((p + 2 * m) * (p + 2 * m + 1.0))
            d = one / (1.0 + odd * d)
            c = 1.0 + odd / c
            last = d * c
            h = h * step * last
            if not abs(last - 1.0) > 4.0 * np.finfo(np.longdouble).eps:
                part = front * h
                return 1.0 - part if swap else part
        raise AssertionError("no convergence")

    def test_operands_on_their_own_axes_match_the_one_entry_formula(self):
        # the layout of the images' cut factors: exponents, then one order per
        # row, then (point, cell) pairs with z and its exact complement y
        a = 1.0 + 0.5 * np.arange(6, dtype=np.longdouble)
        b = np.array([1.0, 2.0, 0.5, 0.3, 1.7], dtype=np.longdouble)[:, None, None]
        s = np.linspace(1.05, 9.0, 23, dtype=np.longdouble)[:, None]
        z, y = 1.0 / s, (s - 1.0) / s
        batch = betainc(a, b, z, y)
        assert batch.dtype == np.longdouble and batch.shape == (5, 23, 6)
        expected = np.array([self.one_entry(a[i], b[o, 0, 0], z[r, 0], y[r, 0])
                             for o, r, i in np.ndindex(batch.shape)]).reshape(batch.shape)
        assert np.array_equal(batch, expected)
        assert np.array_equal(np.signbit(batch), np.signbit(expected))

    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_zero_denominator_raises(self, dtype):
        # at a = b = x = 1 the first denominator, 1 - (a+b) x / (a+1), is 0
        one = np.ones(1, dtype=dtype)
        with pytest.raises(ArithmeticError, match="zero denominator"):
            _beta_cf(one, one, one)

    def test_fraction_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr("fobw.special._BETA_CF_MAX_ITER", 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            _beta_cf(np.array([2.0]), np.array([0.5]), np.array([0.5]))

    @pytest.mark.parametrize("args", [(0.0, 1.0, 0.5), (1.0, -0.5, 0.5), (1.0, 1.0, 1.5)])
    def test_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            betainc(*args)


class TestPower:
    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_whole_exponents_are_star_star(self, dtype):
        x = np.linspace(0.0, 8.0, 97, dtype=dtype)
        p = np.arange(9, dtype=dtype)[:, None]
        assert np.array_equal(power(x, p), x**p)
        # whole exponents keep their bits among fractional ones
        mixed = np.array([0.0, 0.5, 1.0, 1.3, 2.0, 7.0], dtype=dtype)[:, None]
        whole = [0, 2, 4, 5]
        assert np.array_equal(power(x, mixed)[whole], x**mixed[whole])

    def test_double_operands_are_star_star(self):
        rng = np.random.default_rng(7)
        x = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 8.0, 300)])
        p = np.concatenate([[0.0, 0.5], rng.uniform(0.0, 20.0, 300)])
        assert np.array_equal(power(x, p), x**p)
        assert np.array_equal(power(x[:, None], p[:5]), x[:, None] ** p[:5])

    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_zero_base(self, dtype):
        zero = np.zeros(4, dtype=dtype)
        assert np.array_equal(power(zero, np.array([0.0, 0.3, 1.0, 2.5], dtype=dtype)),
                              [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(power(zero[:2], np.array([0.3, 2.5], dtype=dtype)), [0.0, 0.0])
        assert power(dtype(0.0), dtype(0.0)) == 1.0

    def test_shapes_and_types(self):
        wide = np.longdouble
        one = power(wide(2.0), wide(0.5))
        assert np.shape(one) == () and one.dtype == wide
        assert one == np.exp(wide(0.5) * np.log(wide(2.0)))
        assert power(np.array(4.0, dtype=wide), wide(2.0)) == 16.0
        out = power(np.linspace(0.0, 2.0, 4, dtype=wide)[:, None], np.array([0.0, 0.5, 3.0]))
        assert out.shape == (4, 3) and out.dtype == wide
        assert power(wide(3.0), np.array([0.25, 1.0])).shape == (2,)
        assert power(np.float32(4.0), 0.5).dtype == np.float64
        assert power(4, 0.5) == 2.0 and power(4, 2).dtype == np.float64

    def test_long_double_error_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        x = np.exp(rng.uniform(np.log(1e-3), np.log(512.0), 600))
        p = np.concatenate([rng.uniform(0.0, 168.0, 300), rng.uniform(0.0, 3.0, 294),
                            [0.0, 1.0, 2.0, 0.2, 167.9, 168.0]])
        got = power(x.astype(np.longdouble), p.astype(np.longdouble))
        eps = float(np.finfo(np.longdouble).eps)
        with mpmath.workdps(40):
            for xi, pi, gi in zip(x.tolist(), p.tolist(), got):
                exact = mpmath.mpf(xi) ** mpmath.mpf(pi)
                num, den = gi.as_integer_ratio()
                error = abs(mpmath.mpf(num) / den / exact - 1)
                assert error <= (abs(pi * math.log(xi)) + 8.0) * eps, (xi, pi)


class TestGamma:
    """The gamma function's values, poles and branches, through gamma_array."""

    def test_factorial_case(self):
        assert gamma_array(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half_integer(self):
        assert gamma_array(0.5) == pytest.approx(1.7724538509055160, rel=1e-13)

    def test_one(self):
        assert gamma_array(1.0) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_pole_raises(self, x):
        with pytest.raises(ValueError):
            gamma_array(x)

    def test_accuracy_against_stdlib(self):
        # the values are math.gamma's, scattered back over the array
        x = np.linspace(0.1, 50.0, 997)
        assert np.array_equal(gamma_array(x), [math.gamma(v) for v in x])

    def test_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.linspace(-3.9, 60.0, 1280)
        x = x[(x > 0.0) | (np.abs(x - np.round(x)) >= 1e-3)]  # 1e-3 off the poles
        with mpmath.workdps(40):
            exact = [mpmath.gamma(v) for v in x.tolist()]
            for dtype in (float, np.longdouble):
                # long-double arguments holding the same doubles, so each is exact
                got = gamma_array(x.astype(dtype))
                worst = max(abs(mpmath.mpf(float(g)) / e - 1) for g, e in zip(got, exact))
                assert worst <= 1e-15, dtype

    def test_overflow_raises(self):
        assert gamma_array([171.5]) == math.gamma(171.5)
        for dtype in (float, np.longdouble):
            with pytest.raises(OverflowError):
                gamma_array(np.array([171.5, 172.0], dtype=dtype))

    @given(st.floats(0.1, 20.0))
    def test_recurrence(self, x):
        assert gamma_array(x + 1.0) == pytest.approx(x * gamma_array(x), rel=1e-12)

    def test_reflection_branch(self):
        assert gamma_array(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-12)


class TestChebyshevGrid:
    """The collocation points of a one-cell basis: the Chebyshev points of [0, 1]."""

    @staticmethod
    def grid(n):
        return collocation_grid(WaveletBasisSpec(1, n - 1, 1.0))

    def test_single_point(self):
        assert list(self.grid(1)) == [0.5]

    def test_two_points(self):
        grid = self.grid(2)
        assert grid[0] == pytest.approx(0.14644660940672627, abs=1e-16)
        assert grid[1] == pytest.approx(0.8535533905932737, abs=1e-16)

    def test_four_points_match_formula(self):
        # oracle: direct evaluation of the generating formula, then sorting
        expected = sorted(
            0.5 * math.cos((r - 0.5) * math.pi / 4) + 0.5 for r in range(1, 5)
        )
        grid = self.grid(4)
        assert np.allclose(grid, expected, rtol=0, atol=0)
        assert len(set(grid)) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12, 33])
    def test_interior_and_symmetric(self, n):
        grid = self.grid(n)
        assert grid.min() > 0.0
        assert grid.max() < 1.0
        assert np.all(np.diff(grid) > 0)
        assert np.abs(grid + grid[::-1] - 1.0).max() <= 1e-15
