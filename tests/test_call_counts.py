"""Call counts that pin the dense-evaluation path to whole-array work.

No timing: each test counts the calls one operation makes to the function
that a per-point loop would call once per point, so such a loop cannot come
back unnoticed.
"""

import numpy as np
import pytest

from fobw import fracops, solver, special
from fobw.basis import WaveletBasisSpec
from fobw.experiments import PRESET_PROBLEMS
from fobw.expr import parse_expression
from fobw.fracops import OrderFunction
from fobw.solver import OscillatorProblem, SolutionApproximant, assemble


class Counted:
    """A callable that counts its calls and forwards them."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.args = []

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.args.append(args)
        return self.fn(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Replace ``module.name`` by a counting wrapper and return the wrapper."""

    def install(module, name):
        wrapper = Counted(getattr(module, name))
        monkeypatch.setattr(module, name, wrapper)
        return wrapper

    return install


VARIABLE = "1.5 + 0.3*sin(4*t)"


def _approximant(alpha, k=2):
    spec = WaveletBasisSpec(k, 4, 0.5)
    problem = OscillatorProblem(alpha=alpha, **PRESET_PROBLEMS["example1-single"])
    U = np.random.default_rng(k).normal(0.0, 1.0, spec.sigma_tilde)
    return SolutionApproximant(problem, spec, U, None)


ORDERS = {
    "constant": OrderFunction.constant(1.5),
    "two": OrderFunction.constant(2.0),
    "variable": OrderFunction.from_callable(parse_expression(VARIABLE), VARIABLE),
}


def test_from_callable_probes_in_one_array_call():
    # one call to find out that the callable takes arrays, one for the
    # 1001-point range probe
    fn = Counted(parse_expression(VARIABLE))
    OrderFunction.from_callable(fn, VARIABLE)
    assert fn.calls == 2


def test_order_is_evaluated_once_per_point_set():
    fn = Counted(parse_expression(VARIABLE))
    alpha = OrderFunction.from_callable(fn, VARIABLE)
    fn.calls = 0
    assemble(OscillatorProblem(alpha=alpha, **PRESET_PROBLEMS["example1-single"]),
             WaveletBasisSpec(1, 5, 0.2))
    assert fn.calls == 1
    _approximant(alpha).evaluate(np.linspace(0.0, 1.0, 402)[1:])
    assert fn.calls == 2


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_evaluate_makes_one_image_call(counted, name):
    images = counted(solver, "basis_images")
    matrices = [counted(solver, "fobw_matrix"), counted(fracops, "fobw_matrix")]
    _approximant(ORDERS[name]).evaluate(np.linspace(0.0, 1.0, 402)[1:])
    assert images.calls == 1
    # the basis vectors are only needed as the Caputo rows of order 2
    assert sum(m.calls for m in matrices) == (1 if name == "two" else 0)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_assemble_makes_one_image_call(counted, name):
    images = counted(solver, "basis_images")
    assemble(OscillatorProblem(alpha=ORDERS[name], **PRESET_PROBLEMS["example1-single"]),
             WaveletBasisSpec(2, 3, 0.5))
    assert images.calls == 1


@pytest.mark.parametrize(
    "method, image_calls, matrix_calls",
    [("value", 1, 0), ("derivative", 1, 0), ("second_derivative", 0, 1)],
)
def test_one_point_methods_build_only_their_matrix(counted, method, image_calls, matrix_calls):
    images = counted(solver, "basis_images")
    matrices = counted(solver, "fobw_matrix")
    getattr(_approximant(ORDERS["constant"]), method)(np.linspace(0.1, 1.0, 10))
    assert (images.calls, matrices.calls) == (image_calls, matrix_calls)
    # one order, not a stack of orders of which only one is kept
    assert all(np.ndim(lam) <= 1 for _, lam, _ in images.args)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_caputo_makes_one_image_call(counted, name):
    images = counted(fracops, "basis_images")
    matrices = counted(fracops, "fobw_matrix")
    _approximant(ORDERS[name]).caputo(np.linspace(0.1, 1.0, 10))
    assert images.calls == 1
    assert matrices.calls == (1 if name == "two" else 0)


def test_whole_offsets_skip_the_lanczos_sum(counted):
    lanczos = counted(special, "gamma_array")
    special.gamma_ratio(np.linspace(0.5, 3.0, 6), np.array([[1.0], [2.0]]))
    assert lanczos.calls == 0
    special.gamma_ratio(np.linspace(0.5, 3.0, 6), 0.5)
    assert lanczos.calls == 2
