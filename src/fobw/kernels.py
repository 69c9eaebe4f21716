"""The two names ``perfbench/child.py`` reads after ``import fobw.cli``.

ROADMAP item 1(b) deletes this module together with those readers."""

import numpy as np

USING_NUMBA = False


def warmup() -> None:
    """Run the RK4 sweep once on tiny inputs, so timed runs measure steady state."""
    from .reference import rk4_sweep

    rk4_sweep(1.0, 0.0, 0.5, 0.1, 0.5, 0.5, np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0]))
