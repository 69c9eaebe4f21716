import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import fobw
from fobw import kernels


def _parent_rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half):
    # The numpy-scalar loop that rk4_sweep replaced, kept verbatim as the
    # oracle: the plain-float sweep must reproduce it bit for bit.
    n = phi_half.shape[0]
    ys = np.empty(n + 1)
    vs = np.empty(n + 1)
    y = y0
    v = v0
    ys[0] = y
    vs[0] = v
    for i in range(n):
        p0 = phi_nodes[i]
        ph = phi_half[i]
        p1 = phi_nodes[i + 1]

        k1y = v
        k1v = p0 - a * y - b * y * y * y + mu * v - mu * v * y * y
        y2 = y + 0.5 * h * k1y
        v2 = v + 0.5 * h * k1v
        k2y = v2
        k2v = ph - a * y2 - b * y2 * y2 * y2 + mu * v2 - mu * v2 * y2 * y2
        y3 = y + 0.5 * h * k2y
        v3 = v + 0.5 * h * k2v
        k3y = v3
        k3v = ph - a * y3 - b * y3 * y3 * y3 + mu * v3 - mu * v3 * y3 * y3
        y4 = y + h * k3y
        v4 = v + h * k3v
        k4y = v4
        k4v = p1 - a * y4 - b * y4 * y4 * y4 + mu * v4 - mu * v4 * y4 * y4

        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (np.isfinite(y) and np.isfinite(v)):
            return ys, vs, i
        ys[i + 1] = y
        vs[i + 1] = v
    return ys, vs, n


def _forcing(n):
    h = 1.0 / n
    times = np.linspace(0.0, 1.0, n + 1)
    return h, 0.5 * np.cos(0.79 * times), 0.5 * np.cos(0.79 * (times[:-1] + 0.5 * h))


def _assert_same_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half):
    with np.errstate(over="ignore", invalid="ignore"):
        ys_o, vs_o, good_o = _parent_rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half)
    ys, vs, good = kernels.rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half)
    assert good == good_o
    assert ys.shape == vs.shape == (phi_half.size + 1,)
    # entries past n_good are unset in both
    assert np.array_equal(ys[: good + 1], ys_o[: good_o + 1])
    assert np.array_equal(vs[: good + 1], vs_o[: good_o + 1])
    return good


BLOCK = kernels._BLOCK
coefficient = st.floats(-3.0, 3.0, allow_nan=False)


class TestRK4Sweep:
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, 2 * BLOCK, 2 * BLOCK + 37])
    # no shrinking: a mismatch persists for nearly every input, so shrinking
    # one runs for minutes and reports no clearer example
    @settings(max_examples=15, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(y0=coefficient, v0=coefficient, mu=coefficient, a=coefficient, b=coefficient)
    def test_matches_parent_loop_bit_for_bit(self, n, y0, v0, mu, a, b):
        h, phi_nodes, phi_half = _forcing(n)
        _assert_same_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half)

    def test_blowup_after_first_block_matches_parent_loop(self):
        n = 8 * BLOCK + 10  # blows up near t = 0.13
        phi = np.zeros(n + 1)
        good = _assert_same_sweep(2.0, 0.0, 1.0 / n, 0.0, 0.0, -50.0, phi, phi[:-1])
        assert BLOCK < good < n

    def test_detects_nonfinite_state(self):
        n = 200
        h = 1.0 / n
        phi = np.zeros(n + 1)
        ys, vs, good = kernels.rk4_sweep(2.0, 0.0, h, 0.0, 0.0, -50.0, phi, phi[:-1])
        assert good < n
        assert np.all(np.isfinite(ys[: good + 1])) and np.all(np.isfinite(vs[: good + 1]))

    def test_zero_steps(self):
        ys, vs, good = kernels.rk4_sweep(1.5, -0.5, 0.1, 0.1, 0.5, 0.5, np.zeros(1), np.zeros(0))
        assert good == 0
        assert ys.tolist() == [1.5] and vs.tolist() == [-0.5]


def test_warmup_runs():
    kernels.warmup()


def test_names_the_benchmark_reads():
    # perfbench/child.py imports fobw.cli, then calls fobw.kernels.warmup()
    # and records fobw.kernels.USING_NUMBA; a fresh interpreter shows that
    # the CLI import alone makes both reachable
    src = os.path.dirname(os.path.dirname(os.path.abspath(fobw.__file__)))
    code = (
        "import fobw.cli\n"
        "fobw.kernels.warmup()\n"
        "assert fobw.kernels.USING_NUMBA is False\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
