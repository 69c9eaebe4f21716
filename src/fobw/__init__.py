"""Fractional-order Bernstein wavelet collocation for variable-order
Duffing-Van der Pol oscillators.

The pieces compose bottom-up: special functions and the Chebyshev grid
(`special`), the wavelet basis and its table of monomial coefficients
(`basis`), closed-form variable-order fractional images of the basis
(`fracops`), the collocation solve and the approximant it returns
(`solver`), the integer-order RK4 reference (`reference`), and
config-driven experiment reproduction and its error tables
(`experiments`, `cli`).  A solved approximant is read through its
``evaluate`` and ``value`` alone, its residual and error too.

>>> from fobw import OscillatorProblem, WaveletBasisSpec, parse_expression, solve_problem
>>> problem = OscillatorProblem(mu=0.1, a=0.5, b=0.5,
...                             forcing=parse_expression("0.5*cos(0.79*t)"),
...                             alpha=2.0, init_value=1.0)
>>> approx = solve_problem(problem, WaveletBasisSpec(k=1, M=5, gamma=1.0))
>>> round(approx.value(0.5), 4)
0.9392
>>> v, s, c = approx.evaluate(0.5)
>>> bool(abs(problem.residual(c, s, v, problem.forcing(0.5))) < 1e-4)
True
"""

from .basis import WaveletBasisSpec, fobw_matrix
from .expr import Expression, ExpressionError, parse_expression
from .experiments import (
    ErrorTable,
    ExperimentConfig,
    emit_plot_data,
    emit_table,
    preset_config,
    run_experiment,
)
from .fracops import basis_images
from .reference import (
    BlowupError,
    ReferenceTrajectory,
    UnsettledError,
    rk4_integrate,
    rk4_reference,
)
from .solver import (
    CollocationSystem,
    OscillatorProblem,
    SolutionApproximant,
    SolveReport,
    SolverError,
    assemble,
    assemble_systems,
    collocation_systems,
    newton_solve,
    residual_vector,
    solve_problem,
    solve_system,
)
from .special import chebyshev_grid

__version__ = "0.1.0"
