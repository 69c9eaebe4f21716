"""Experiment configuration, sweeps, and table/plot-data emission.

A configuration names one oscillator problem, one or more orders,
a list of basis families to sweep, and the metrics to tabulate on an output
grid.  Running it produces a labeled :class:`ErrorTable`, and on request
the dense residual curves of its solves, each value bit-identical to the
one read from its solved approximant (see
:meth:`fobw.solver.SolutionApproximant.evaluate`); emission to CSV or JSON is
deterministic, so identical configurations yield byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Real

import numpy as np

from .basis import WaveletBasisSpec, finite_real, short_repr
from .expr import parse_expression
from .fracops import order_values
from .reference import BlowupError, UnsettledError, rk4_reference
from .solver import (
    OscillatorProblem, SolverError, collocation_grid, collocation_systems, newton_solve,
    residual_vector,
)

VALID_METRICS = ("AE", "MAE", "residual")
PLOT_POINTS = 401  # uniform points on (0, 1] of every dense residual curve
PLOT_GRID = np.linspace(0.0, 1.0, PLOT_POINTS + 1)[1:]
#: a preset's basis sweep, and what `fobw preset` takes for an omitted --k, --M or --gamma
PRESET_SWEEP = {"k": 1, "M": (5,), "gamma": (0.5, 0.9, 1.0)}

#: problem parameters behind each named preset, every one of the config's but alpha
PRESET_PROBLEMS = {
    "example1-single": dict(
        mu=0.1, a=0.5, b=0.5, forcing="0.5*cos(0.79*t)", init_value=1.0, init_slope=0.0,
    ),
    "example1-double": dict(
        mu=0.1, a=-0.5, b=0.5, forcing="0.5*cos(0.79*t)", init_value=1.0, init_slope=0.0,
    ),
    "example1-hump": dict(
        mu=0.1, a=0.5, b=-0.5, forcing="0.5*cos(0.79*t)", init_value=1.0, init_slope=0.0,
    ),
    "example2": dict(
        mu=0.1, a=1.0, b=0.01, forcing="0", init_value=2.0, init_slope=0.0,
    ),
}

# The points of the paper's tables, and the absolute errors other methods
# reached there (ultraspherical wavelet scheme, Legendre wavelet-Picard
# scheme, Adomian decomposition scheme and its restarted variant).  These
# columns are transcribed literature values shipped for side-by-side table
# output; this package never computes them.
TABLE_POINTS = (0.1, 0.3, 0.5, 0.7, 0.9)
COMPARISON_COLUMNS = {
    "example1-single": {
        "UWS": (4.0e-8, 1.2e-7, 6.1e-7, 1.6e-6, 3.3e-6),
        "LWPS": (2.1e-8, 5.2e-8, 2.8e-7, 1.4e-6, 2.5e-6),
    },
    "example1-double": {
        "UWS": (1.1e-8, 9.0e-8, 3.6e-7, 5.6e-7, 1.1e-6),
        "LWPS": (1.0e-8, 5.9e-8, 1.7e-7, 3.6e-7, 9.4e-7),
    },
    "example1-hump": {
        "UWS": (1.0e-7, 4.8e-7, 1.4e-6, 3.8e-6, 5.8e-6),
        "LWPS": (8.0e-8, 4.1e-7, 1.2e-6, 3.6e-6, 5.1e-6),
    },
    "example2": {
        "ADS": (2.4e-3, 2.2e-3, 1.5e-3, 6.2e-4, 1.4e-3),
        "RADS": (2.4e-3, 2.2e-3, 1.5e-3, 2.2e-4, 1.3e-3),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked and built when it is constructed (by ``replace``
    too): a lone ``alpha``, ``basis``, ``output_grid`` or ``metrics`` value
    becomes a one-entry tuple, each ``basis`` entry (see :func:`_spec`) an
    ``(int, int, float)`` triple, each ``output_grid`` point a float, and
    ``problems`` and ``specs`` hold the problem of each alpha entry and the
    basis of each basis entry that :func:`run_experiment` solves.
    ``metrics`` left at None becomes ``("AE",)`` when every order is the
    constant 2 and ``("residual",)`` otherwise.  A config that names a
    ``preset`` must hold that preset's problem, every parameter of
    :data:`PRESET_PROBLEMS` equal, ``forcing`` as text.  Where the table
    goes, and in which format, is the command's to say, not the config's."""

    mu: float = 0.0
    a: float = 0.0
    b: float = 0.0
    forcing: str = "0"                   # expression in t
    init_value: float = 0.0
    init_slope: float = 0.0
    alpha: tuple = (2.0,)                # constants and/or expression strings
    basis: tuple = ((1, 5, 1.0),)        # (k, M, gamma) triples
    output_grid: tuple = TABLE_POINTS
    metrics: tuple | None = None         # None: derived from alpha
    preset: str | None = None
    problems: tuple = field(init=False, repr=False, compare=False)
    specs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        specs = tuple(_spec(entry) for entry in _entries(self.basis))
        object.__setattr__(self, "basis", tuple((s.k, s.M, s.gamma) for s in specs))
        object.__setattr__(self, "alpha", _entries(self.alpha))
        try:
            grid = tuple(finite_real("t", t) for t in _entries(self.output_grid))
        except ValueError:
            grid = ()  # a point that is not a number is refused with the range below
        if not grid or not all(0.0 < t <= 1.0 for t in grid):
            raise ValueError("output_grid points must be numbers in (0, 1]: "
                             f"{short_repr(self.output_grid)}")
        object.__setattr__(self, "output_grid", grid)

        if not self.basis:
            raise ValueError("at least one basis (k, M, gamma) is required")
        if not self.alpha:
            raise ValueError("at least one alpha entry is required")
        if any(b <= a for a, b in zip(self.output_grid, self.output_grid[1:])):
            raise ValueError("output grid points must be strictly ascending")
        # the run evaluates the forcing and each order at these points, which a probe may miss
        points = np.concatenate([self.output_grid, *map(collocation_grid, specs), PLOT_GRID])
        if not isinstance(self.forcing, str):
            raise ValueError(f"forcing must be an expression in t, got {self.forcing!r}")
        forcing = parse_expression(self.forcing)
        if not np.all(np.isfinite(forcing(np.concatenate([np.linspace(0.0, 1.0, 1001), points])))):
            raise ValueError(
                f"forcing expression {self.forcing!r} is not finite everywhere on [0, 1]"
            )
        # an expression order is checked in one call, at a 1001-point probe of
        # (0, 1] and at the points
        checked = np.concatenate([np.linspace(0.0, 1.0, 1002)[1:], points])
        problems = []
        for entry in self.alpha:
            alpha = build_order(entry)
            if callable(alpha):
                order_values(alpha, checked)
            problems.append(OscillatorProblem(
                mu=self.mu, a=self.a, b=self.b, forcing=forcing, alpha=alpha,
                init_value=self.init_value, init_slope=self.init_slope,
            ))
        # AE and MAE compare against the RK4 reference of the integer-order equation
        integer_order = all(p.alpha == 2.0 for p in problems)
        default = ("AE",) if integer_order else ("residual",)
        metrics = default if self.metrics is None else _entries(self.metrics)
        object.__setattr__(self, "metrics", metrics)
        for i, metric in enumerate(self.metrics):
            if metric not in VALID_METRICS:
                raise ValueError(f"unknown metric {metric!r}; valid: {VALID_METRICS}")
            if metric in self.metrics[:i]:
                raise ValueError(f"duplicate metric: {metric!r}")
        if not self.metrics:
            raise ValueError("at least one metric is required")
        if self.preset is not None:
            valid = sorted(PRESET_PROBLEMS)
            if self.preset not in valid:  # a list, so an unhashable preset is unknown too
                raise ValueError(f"unknown preset {self.preset!r}; valid: {valid}")
            for name, value in PRESET_PROBLEMS[self.preset].items():
                if getattr(self, name) != value:
                    raise ValueError(f"preset {self.preset!r} has {name} = {value!r}, "
                                     f"not {getattr(self, name)!r}")
        labels = set()
        for problem in problems:
            for spec in specs:
                label = _combination_label(spec, order_label(problem.alpha), len(problems) > 1)
                if label in labels:
                    raise ValueError(f"duplicate (basis, alpha) combination: {label!r}")
                labels.add(label)
        if not integer_order and any(m in ("AE", "MAE") for m in self.metrics):
            raise ValueError(
                "AE/MAE metrics compare against the integer-order reference; "
                "they require alpha identically 2"
            )
        object.__setattr__(self, "problems", tuple(problems))
        object.__setattr__(self, "specs", specs)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls) if f.init}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


def build_order(entry):
    """The order of an ``alpha`` entry, a number or an expression in t: a float,
    also for an expression that is one number, such as ``"1.5"`` or ``"(2)"``,
    and otherwise the parsed :class:`~fobw.expr.Expression`."""
    if isinstance(entry, str):
        expression = parse_expression(entry)
        return expression if expression.number is None else expression.number
    if isinstance(entry, bool) or not isinstance(entry, Real):
        raise ValueError(f"alpha entry {entry!r} is not a number or an expression in t")
    return finite_real("alpha", entry)


def order_label(alpha) -> str:
    """How an order reads in column labels and the ``alpha`` meta key: a
    constant as ``f"{c:g}"``, an expression as its source text, stripped."""
    return alpha.source.strip() if callable(alpha) else f"{alpha:g}"


def _spec(entry) -> WaveletBasisSpec:
    """The basis of a ``basis`` entry, a list of three numbers ``[k, M, gamma]``
    that :class:`WaveletBasisSpec` alone checks; an error names the entry."""
    values = entry if type(entry) in (list, tuple, np.ndarray) else ()
    try:
        return WaveletBasisSpec(*values)
    except TypeError:  # not a list, or not of three values
        raise ValueError(f"basis entry {short_repr(entry)} is not three numbers "
                         "[k, M, gamma]") from None
    except ValueError as exc:
        raise ValueError(f"basis entry {short_repr(entry)}: {exc}") from None


def _entries(value) -> tuple:
    """A list-valued field as a tuple of entries; a lone entry is a one-entry
    tuple.  Only a plain list, tuple or numpy array holds entries, and a 0-d
    array holds one: a record such as an :class:`~fobw.expr.Expression` is a
    tuple too, but one entry."""
    if type(value) is np.ndarray:
        return tuple(np.atleast_1d(value))
    return tuple(value) if type(value) in (list, tuple) else (value,)


def preset_config(name: str, **overrides) -> ExperimentConfig:
    """Named experiment presets with table-matching defaults.

    The preset's problem on the bases of :data:`PRESET_SWEEP` (gamma in
    {0.5, 0.9, 1}, M = 5, k = 1).  As in any config, the default metric is AE
    when every alpha is 2 and the residual otherwise, and an AE table carries
    the preset's published columns (see :func:`run_experiment`).
    """
    settings = dict(
        PRESET_PROBLEMS.get(name, {}),
        basis=basis_sweep(**PRESET_SWEEP),
        preset=name,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def basis_sweep(k: int, M, gamma) -> tuple:
    """The ``(k, M, gamma)`` triple of every M for each gamma, gamma-major."""
    return tuple((k, m, g) for g in gamma for m in M)


def _combination_label(spec: WaveletBasisSpec, alpha_label: str, multi_alpha: bool) -> str:
    parts = [f"gamma={spec.gamma:g}", f"M={spec.M}"]
    if spec.k != 1:
        parts.insert(0, f"k={spec.k}")
    if multi_alpha:
        parts.append(f"alpha={alpha_label}")
    return " ".join(parts)


@dataclass(frozen=True)
class ErrorTable:
    """Rows of t against labeled value columns, ready for CSV or JSON emission;
    only a column that ``meta["failed_columns"]`` lists may hold non-finite cells."""

    grid: tuple[float, ...]
    columns: dict[str, tuple[float, ...]]
    meta: dict

    def __post_init__(self):
        grid = tuple(float(t) for t in self.grid)
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly ascending")
        cols = {}
        failed = set(self.meta.get("failed_columns", ()))
        for label, vals in self.columns.items():
            vals = tuple(float(v) for v in vals)
            if len(vals) != len(grid):
                raise ValueError(f"column {label!r} length does not match the grid")
            if label not in failed and not all(np.isfinite(vals)):
                raise ValueError(f"column {label!r} has non-finite entries")
            cols[label] = vals
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "columns", cols)


def run_experiment(cfg: ExperimentConfig, curves: list | None = None) -> ErrorTable:
    """Solve every (basis, alpha) combination and tabulate the metrics.

    The table is the whole outcome: a non-converged solve, or an RK4
    reference (:func:`rk4_reference`) that blows up or does not settle for
    the AE/MAE columns, leaves NaN sentinel columns, listed in the ``meta``
    key ``failed_columns``, and the cause of each, in the order met, in
    ``warnings``, after a note for each basis of one collocation point,
    which cannot represent oscillation.  A table with a reference carries
    its error estimate as the ``meta`` key ``reference_error``.  When
    ``curves`` is a list, the dense residual curve of every converged
    solve, at :data:`PLOT_GRID`, is appended to it as ``(plot label,
    curve)``, ready for :func:`emit_plot_data`.  The bases of each (k,
    gamma) family share one term pass per run: :func:`_family_outcomes`
    gives each converged solve's columns and curve as a dict, which this
    function only labels, filling a NaN column for each metric the dict
    lacks.  A table carries the :data:`COMPARISON_COLUMNS` of the config's
    ``preset`` exactly when it has an AE metric and the output grid is
    :data:`TABLE_POINTS`.
    """
    grid = cfg.output_grid
    points = np.array(grid)
    nan_column = tuple(math.nan for _ in grid)
    columns: dict[str, tuple] = {}
    failed: list[str] = []
    warnings = [f"basis {_combination_label(spec, '', False)}: a single collocation point "
                "cannot represent oscillation" for spec in cfg.specs if spec.sigma_tilde == 1]
    multi_alpha = len(cfg.problems) > 1

    expected = None  # the reference's values at the points
    if any(m in ("AE", "MAE") for m in cfg.metrics):
        # AE/MAE require alpha identically 2, so every problem shares this reference
        try:
            reference, reference_error = rk4_reference(cfg.problems[0], points)
            expected = reference.value(points)
        except (BlowupError, UnsettledError) as exc:
            warnings.append(f"RK4 reference failed, AE/MAE columns are NaN: {exc}")
    families: dict = {}
    for spec in cfg.specs:
        families.setdefault((spec.k, spec.gamma), []).append(spec)
    outcomes = {}
    for specs in families.values():
        outcomes.update(_family_outcomes(cfg, specs, points, expected, curves is not None))
    for j, problem in enumerate(cfg.problems):
        alpha_label = order_label(problem.alpha)
        for spec in cfg.specs:
            combination = _combination_label(spec, alpha_label, multi_alpha)
            labels = {metric: f"{metric} {combination}" for metric in cfg.metrics}
            outcome = outcomes[spec][j]
            if isinstance(outcome, str):
                warnings.append(f"solve failed for {labels[cfg.metrics[0]]}: {outcome}")
                outcome = {}
            if "curve" in outcome:
                curves.append((f"residual {_combination_label(spec, alpha_label, True)}",
                               outcome["curve"]))
            for metric in cfg.metrics:
                columns[labels[metric]] = tuple(outcome.get(metric, nan_column))
                if metric not in outcome:
                    failed.append(labels[metric])

    # the published values are absolute errors at the table points, comparable
    # only to AE columns there
    if cfg.preset is not None and "AE" in cfg.metrics and grid == TABLE_POINTS:
        for method, vals in COMPARISON_COLUMNS[cfg.preset].items():
            columns[f"{method} (published)"] = vals

    meta = {
        "preset": cfg.preset,
        "alpha": [order_label(problem.alpha) for problem in cfg.problems],
        "metrics": list(cfg.metrics),
        "failed_columns": failed,
        "warnings": warnings,
    }
    if expected is not None:
        meta["reference_error"] = reference_error
    return ErrorTable(grid, columns, meta)


def _family_outcomes(cfg: ExperimentConfig, specs: list, points: np.ndarray,
                     expected: np.ndarray | None, plot: bool) -> dict:
    """Per basis of ``specs``, which share k and gamma, and per problem of
    ``cfg``: the message of the SolverError its solve raised, or a dict of
    the values the run asks for: under each metric of ``cfg``, its column at
    ``points`` ("residual", and "AE" and "MAE" unless ``expected``, the
    reference there, is None), and under "curve" the residual at
    :data:`PLOT_GRID` if ``plot``.  One :func:`collocation_systems` call at
    each basis's collocation grid serves them all, each value bit-identical
    to the one read from the solved approximant."""
    shared = np.concatenate([points, PLOT_GRID] if plot else [points])
    outcomes = {}
    grids = [collocation_grid(spec) for spec in specs]
    for spec, systems in zip(specs, collocation_systems(cfg.problems, specs, grids, shared)):
        n, m = spec.sigma_tilde, spec.sigma_tilde + points.size
        outcomes[spec] = []
        for system in systems:
            try:
                U = newton_solve(system.rows(0, n)).U
            except SolverError as exc:  # its message: the traceback would keep the system
                outcomes[spec].append(str(exc))
                continue
            table = system.rows(n, m)
            error = None if expected is None else np.abs(table.value(U) - expected)
            values = {}
            for metric in cfg.metrics:
                if metric == "residual":
                    values[metric] = np.abs(residual_vector(table, U))
                elif error is not None:  # AE, or MAE repeated at every point
                    values[metric] = error if metric == "AE" else np.full(error.size, error.max())
            if plot:
                values["curve"] = np.abs(residual_vector(system.rows(m, len(system.grid)), U))
            outcomes[spec].append(values)
    return outcomes


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def render_csv(table: ErrorTable) -> str:
    # one format per row of the table's Python floats, as in emit_plot_data
    row = ",".join(["%.6g"] + ["%.5e"] * len(table.columns))
    lines = [",".join(["t", *table.columns])]
    lines += [row % cells for cells in zip(table.grid, *table.columns.values())]
    return "\n".join(lines) + "\n"


def render_json(table: ErrorTable) -> str:
    """The table as strict JSON: a non-finite cell, which only a failed column
    holds, is ``null``."""
    import json

    payload = {
        "grid": list(table.grid),
        "columns": {label: [v if math.isfinite(v) else None for v in vals]
                    for label, vals in table.columns.items()},
        "meta": table.meta,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def emit_table(table: ErrorTable, format: str, path: str | None) -> str:
    """Render and optionally write the table; returns the rendered text."""
    if format == "csv":
        text = render_csv(table)
    elif format == "json":
        text = render_json(table)
    else:
        raise ValueError("format must be 'csv' or 'json'")
    return _write(text, path, "table")


def emit_plot_data(curves, path: str | None = None) -> str:
    """Dense residual curves as CSV, one column per ``(label, curve)`` pair
    of ``curves``, as :func:`run_experiment` collects them.

    The grid is :data:`PLOT_GRID`, :data:`PLOT_POINTS` uniform points on
    (0, 1]; the Caputo operator is defined for t > 0, so 0 itself is
    excluded.
    """
    labels = [label for label, _ in curves]
    # one format per row, of Python floats: faster than per-cell formats of
    # numpy scalars, and the same text
    row = ",".join(["%.8g"] + ["%.5e"] * len(curves))
    lines = [",".join(["t", *labels])]
    lines += [row % cells for cells in zip(PLOT_GRID.tolist(), *(c.tolist() for _, c in curves))]
    return _write("\n".join(lines) + "\n", path, "plot data")


def _write(text: str, path: str | None, what: str) -> str:
    """``text``, first written to ``path`` unless it is None; an OSError
    names what could not be written and where."""
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"could not write {what} to {path}: {exc}") from exc
    return text
