"""The RK4 reference sweep, and the names the benchmark reads.

The sequential RK4 sweep of :func:`fobw.reference.rk4_integrate` is a loop
over plain Python floats, which avoids numpy's per-scalar overhead: it reads
the forcing and writes the states through memoryviews, about 8-10 ms per
10^4 steps on one core of a 2-CPU Intel Xeon VM with Python 3.11.  The AE
reference, :func:`fobw.reference.rk4_reference`, runs the step counts of
:data:`fobw.reference.REFERENCE_STEPS` in turn until two successive runs
agree at the output grid to :data:`fobw.reference.REFERENCE_TOLERANCE`.
``warmup()`` and ``USING_NUMBA`` stay for the benchmark in ``perfbench/``,
which calls and records them.
"""

from __future__ import annotations

import math

import numpy as np

# the kernels are plain numpy and Python; the flag stays for callers that
# record which path ran
USING_NUMBA = False


def rk4_sweep(y0, v0, h, mu, a, b, phi_nodes, phi_half):
    """Classical RK4 on (y, v)' = (v, phi - a*y - b*y^3 + mu*v - mu*v*y^2).

    ``phi_nodes`` holds the forcing at the n+1 grid nodes, ``phi_half`` at the
    n midpoints.  Returns ``(ys, vs)``, the states at the nodes up to the
    first non-finite one: n+1 of each when every step stays finite.
    """
    n = len(phi_half)
    states = np.empty((2, n + 1))
    ys, vs = map(memoryview, states)
    y, v, h, mu, a, b = map(float, (y0, v0, h, mu, a, b))
    ys[0] = y
    vs[0] = v
    half_h = 0.5 * h
    sixth_h = h / 6.0
    isfinite = math.isfinite
    nodes = memoryview(phi_nodes)
    p0 = nodes[0]
    good = 0
    for ph, p1 in zip(memoryview(phi_half), nodes[1:]):
        k1y = v
        k1v = p0 - a * y - b * y * y * y + mu * v - mu * v * y * y
        y2 = y + half_h * k1y
        v2 = v + half_h * k1v
        k2y = v2
        k2v = ph - a * y2 - b * y2 * y2 * y2 + mu * v2 - mu * v2 * y2 * y2
        y3 = y + half_h * k2y
        v3 = v + half_h * k2v
        k3y = v3
        k3v = ph - a * y3 - b * y3 * y3 * y3 + mu * v3 - mu * v3 * y3 * y3
        y4 = y + h * k3y
        v4 = v + h * k3v
        k4y = v4
        k4v = p1 - a * y4 - b * y4 * y4 * y4 + mu * v4 - mu * v4 * y4 * y4

        y = y + sixth_h * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        v = v + sixth_h * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        if not (isfinite(y) and isfinite(v)):
            break
        good += 1
        ys[good] = y
        vs[good] = v
        p0 = p1
    return states[0, : good + 1], states[1, : good + 1]


def warmup() -> None:
    """Run the sweep once on tiny inputs, so timed runs measure steady state."""
    rk4_sweep(1.0, 0.0, 0.5, 0.1, 0.5, 0.5, np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0]))
