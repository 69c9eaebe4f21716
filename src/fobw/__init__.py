"""Fractional-order Bernstein wavelet collocation for variable-order
Duffing-Van der Pol oscillators.

The pieces compose bottom-up: special functions and the Chebyshev grid
(`special`), the wavelet basis and its table of monomial coefficients
(`basis`), closed-form variable-order fractional images of the basis
(`fracops`), the collocation solve and the approximant it returns
(`solver`), RK4 references and error metrics (`reference`), and
config-driven experiment reproduction (`experiments`, `cli`).

>>> from fobw import (OscillatorProblem, OrderFunction, WaveletBasisSpec,
...                   parse_expression, solve_problem)
>>> problem = OscillatorProblem(mu=0.1, a=0.5, b=0.5,
...                             forcing=parse_expression("0.5*cos(0.79*t)"),
...                             alpha=OrderFunction.constant(2.0), init_value=1.0)
>>> approx = solve_problem(problem, WaveletBasisSpec(k=1, M=5, gamma=1.0))
>>> round(approx.value(0.5), 4)
0.9392
"""

from .basis import WaveletBasisSpec, fobw_matrix
from .expr import Expression, ExpressionError, parse_expression
from .experiments import (
    ExperimentConfig,
    emit_plot_data,
    emit_table,
    preset_config,
    run_experiment,
)
from .fracops import OrderFunction, basis_images
from .reference import (
    BlowupError,
    ErrorTable,
    ReferenceTrajectory,
    UnsettledError,
    absolute_error,
    residual_samples,
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
