"""Experiment configuration, sweeps, and table/plot-data emission.

A configuration names one oscillator problem, one or more order functions,
a list of basis families to sweep, and the metrics to tabulate on an output
grid.  Running it produces a labeled :class:`ErrorTable`; emission to CSV or
JSON is deterministic, so identical configurations yield byte-identical
files.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .basis import WaveletBasisSpec
from .expr import parse_expression
from .fracops import OrderFunction
from .published import COMPARISON_COLUMNS, TABLE_POINTS
from .reference import ErrorTable, absolute_error, residual_samples, rk4_integrate
from .solver import OscillatorProblem, SolverError, solve_problem

log = logging.getLogger("fobw")

DEFAULT_GRID = TABLE_POINTS
VALID_METRICS = ("AE", "MAE", "residual")

#: problem parameters behind each named preset
PRESET_PROBLEMS = {
    "example1-single": dict(
        mu=0.1, a=0.5, b=0.5, f=0.5, omega=0.79, forcing="forced",
        init_value=1.0, init_slope=0.0,
    ),
    "example1-double": dict(
        mu=0.1, a=-0.5, b=0.5, f=0.5, omega=0.79, forcing="forced",
        init_value=1.0, init_slope=0.0,
    ),
    "example1-hump": dict(
        mu=0.1, a=0.5, b=-0.5, f=0.5, omega=0.79, forcing="forced",
        init_value=1.0, init_slope=0.0,
    ),
    "example2": dict(
        mu=0.1, a=1.0, b=0.01, forcing="force_free",
        init_value=2.0, init_slope=0.0,
    ),
}


@dataclass(frozen=True)
class ExperimentConfig:
    mu: float = 0.0
    a: float = 0.0
    b: float = 0.0
    f: float = 0.0
    omega: float = 0.0
    forcing: str = "force_free"          # "forced" | "force_free" | expression in t
    init_value: float = 0.0
    init_slope: float = 0.0
    alpha: tuple = (2.0,)                # constants and/or expression strings
    basis: tuple = ((1, 5, 1.0),)        # (k, M, gamma) triples
    output_grid: tuple = DEFAULT_GRID
    metrics: tuple = ("AE",)
    reference: str = "rk4"               # "rk4" | "none"
    reference_step: float = 1e-4
    format: str = "csv"                  # "csv" | "json"
    out: str | None = None
    preset: str | None = None
    include_published: bool = False

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**_normalized(raw))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for metric in self.metrics:
            if metric not in VALID_METRICS:
                raise ValueError(f"unknown metric {metric!r}; valid: {VALID_METRICS}")
        if self.reference not in ("rk4", "none"):
            raise ValueError("reference must be 'rk4' or 'none'")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")
        if not self.basis:
            raise ValueError("at least one basis (k, M, gamma) is required")
        if not self.output_grid or any(
            not (0.0 < t <= 1.0) for t in self.output_grid
        ):
            raise ValueError("output grid points must lie in (0, 1]")
        orders = [build_order(a) for a in self.alpha]
        for spec_args in self.basis:
            WaveletBasisSpec(*spec_args)
        needs_ref = any(m in ("AE", "MAE") for m in self.metrics)
        if needs_ref:
            if self.reference != "rk4":
                raise ValueError("AE/MAE metrics need the rk4 reference")
            for order in orders:
                if not (order.is_constant and order.value == 2.0):
                    raise ValueError(
                        "AE/MAE metrics compare against the integer-order reference; "
                        "they require alpha identically 2"
                    )
        if self.forcing not in ("forced", "force_free"):
            forcing = parse_expression(self.forcing)
            values = forcing(np.linspace(0.0, 1.0, 1001))
            if not np.all(np.isfinite(values)):
                raise ValueError(
                    f"forcing expression {self.forcing!r} is not finite everywhere on [0, 1]"
                )

    def build_problem(self, alpha_entry) -> OscillatorProblem:
        order = build_order(alpha_entry)
        forcing = self.forcing
        if forcing not in ("forced", "force_free"):
            forcing = parse_expression(forcing)
        return OscillatorProblem(
            mu=self.mu, a=self.a, b=self.b, f=self.f, omega=self.omega,
            forcing=forcing, alpha=order,
            init_value=self.init_value, init_slope=self.init_slope,
        )


def build_order(entry) -> OrderFunction:
    """Order function from a constant or an expression string in t."""
    if isinstance(entry, OrderFunction):
        return entry
    if isinstance(entry, (int, float)):
        return OrderFunction.constant(float(entry))
    return _order_from_text(str(entry).strip())


@lru_cache(maxsize=256)
def _order_from_text(text: str) -> OrderFunction:
    # Order functions are immutable, and a run asks for each alpha entry's
    # order several times (preset defaults, validation, the problem, the
    # table metadata), so each text is parsed and range-checked once.
    try:
        return OrderFunction.constant(float(text))
    except ValueError:
        pass
    expression = parse_expression(text)
    return OrderFunction.from_callable(expression, label=text)


def preset_config(name: str, **overrides) -> ExperimentConfig:
    """Named experiment presets with table-matching defaults.

    With the default alpha = 2 the preset emits the absolute-error block
    (gamma in {0.5, 0.9, 1}, M = 5) next to the published comparison columns;
    fractional or variable alphas switch the default metric to the residual.
    """
    if name not in PRESET_PROBLEMS:
        raise ValueError(f"unknown preset {name!r}; valid: {sorted(PRESET_PROBLEMS)}")
    base = dict(PRESET_PROBLEMS[name])
    cfg = ExperimentConfig(
        **base,
        alpha=(2.0,),
        basis=((1, 5, 0.5), (1, 5, 0.9), (1, 5, 1.0)),
        metrics=("AE",),
        preset=name,
        include_published=True,
    )
    if overrides:
        cfg = replace(cfg, **_normalized(overrides))
    alpha_all_two = all(
        order.is_constant and order.value == 2.0 for order in map(build_order, cfg.alpha)
    )
    if not alpha_all_two and "metrics" not in overrides:
        cfg = replace(cfg, metrics=("residual",), include_published=False)
    cfg.validate()
    return cfg


def _normalized(fields: dict) -> dict:
    """Config fields with the sequence fields as tuples: a lone ``alpha``
    becomes a one-entry tuple, and each ``basis`` entry, a ``[k, M, gamma]``
    sequence or a ``{"k", "M", "gamma"}`` mapping (k defaults to 1), an
    ``(int, int, float)`` triple."""
    out = dict(fields)
    if "alpha" in out:
        alpha = out["alpha"]
        out["alpha"] = tuple(alpha) if isinstance(alpha, (list, tuple)) else (alpha,)
    if "basis" in out:
        triples = [
            (e.get("k", 1), e["M"], e["gamma"]) if isinstance(e, dict) else e
            for e in out["basis"]
        ]
        out["basis"] = tuple((int(k), int(M), float(g)) for k, M, g in triples)
    for key in ("output_grid", "metrics"):
        if key in out:
            out[key] = tuple(out[key])
    return out


def _column_label(metric: str, k: int, M: int, g: float, alpha_label: str, multi_alpha: bool) -> str:
    parts = [metric, f"gamma={g:g}", f"M={M}"]
    if k != 1:
        parts.insert(1, f"k={k}")
    if multi_alpha:
        parts.append(f"alpha={alpha_label}")
    return " ".join(parts)


def run_experiment(
    cfg: ExperimentConfig, approximants: list | None = None
) -> tuple[ErrorTable, bool]:
    """Solve every (basis, alpha) combination and tabulate the metrics.

    Returns the table and a success flag; a non-converged solve leaves a NaN
    sentinel column and flips the flag.  When ``approximants`` is a list,
    every converged solve is appended to it as ``(plot label, approximant)``,
    ready for :func:`emit_plot_data`.  The residual columns of all solves are
    sampled together, one :func:`residual_samples` call per run.
    """
    cfg.validate()
    grid = tuple(cfg.output_grid)
    points = np.array(grid)
    columns: dict[str, tuple] = {}
    failed: list[str] = []
    residual_columns: list[tuple] = []  # (label, approximant), sampled after the loop
    multi_alpha = len(cfg.alpha) > 1

    reference = None
    for alpha_entry in cfg.alpha:
        problem = cfg.build_problem(alpha_entry)
        alpha_label = problem.alpha.label
        if cfg.reference == "rk4" and reference is None and any(
            m in ("AE", "MAE") for m in cfg.metrics
        ):
            reference = rk4_integrate(problem, cfg.reference_step)
        for k, M, g in cfg.basis:
            spec = WaveletBasisSpec(k, M, g)
            labels = {
                metric: _column_label(metric, k, M, g, alpha_label, multi_alpha)
                for metric in cfg.metrics
            }
            clash = [lbl for lbl in labels.values() if lbl in columns]
            if clash:
                raise ValueError(f"duplicate (basis, alpha) combination: {clash[0]!r}")
            try:
                approx = solve_problem(problem, spec)
            except SolverError as exc:
                log.warning("solve failed for %s: %s", labels[cfg.metrics[0]], exc)
                for metric in cfg.metrics:
                    columns[labels[metric]] = tuple(math.nan for _ in grid)
                    failed.append(labels[metric])
                continue
            if approximants is not None:
                plot_label = _column_label("residual", k, M, g, alpha_label, True)
                approximants.append((plot_label, approx))
            for metric in cfg.metrics:
                if metric == "AE":
                    vals = tuple(absolute_error(approx, reference, points))
                elif metric == "MAE":
                    mae = float(absolute_error(approx, reference, points).max())
                    vals = tuple(mae for _ in grid)
                else:
                    vals = None  # holds the column's place until it is sampled
                    residual_columns.append((labels[metric], approx))
                columns[labels[metric]] = vals
    samples = residual_samples([approx for _, approx in residual_columns], points)
    for (label, _), vals in zip(residual_columns, samples):
        columns[label] = tuple(vals)

    if cfg.include_published and cfg.preset in COMPARISON_COLUMNS and grid == TABLE_POINTS:
        for method, vals in COMPARISON_COLUMNS[cfg.preset].items():
            columns[f"{method} (published)"] = vals

    meta = {
        "preset": cfg.preset,
        "alpha": [build_order(a).label for a in cfg.alpha],
        "metrics": list(cfg.metrics),
        "failed_columns": failed,
    }
    table = ErrorTable(grid, columns, meta)
    return table, not failed


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def render_csv(table: ErrorTable) -> str:
    header = "t," + ",".join(table.columns)
    lines = [header]
    for i, t in enumerate(table.grid):
        row = [f"{t:.6g}"] + [f"{table.columns[c][i]:.5e}" for c in table.columns]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_json(table: ErrorTable) -> str:
    payload = {
        "grid": list(table.grid),
        "columns": {label: list(vals) for label, vals in table.columns.items()},
        "meta": table.meta,
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_table_json(text: str) -> ErrorTable:
    payload = json.loads(text)
    return ErrorTable(
        tuple(payload["grid"]),
        {k: tuple(v) for k, v in payload["columns"].items()},
        payload.get("meta", {}),
    )


def emit_table(table: ErrorTable, format: str, path: str | None) -> str:
    """Render and optionally write the table; returns the rendered text."""
    if format == "csv":
        text = render_csv(table)
    elif format == "json":
        text = render_json(table)
    else:
        raise ValueError("format must be 'csv' or 'json'")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"could not write table to {path}: {exc}") from exc
    return text


def emit_plot_data(labeled_approximants, density: int = 401, path: str | None = None) -> str:
    """Dense residual curves as CSV, one column per labeled approximant.

    The grid is ``density`` uniform points on (0, 1]; the Caputo operator is
    defined for t > 0, so 0 itself is excluded.  The columns on one basis
    share its image tables (:func:`residual_samples`).
    """
    if density < 2:
        raise ValueError("density must be at least 2")
    grid = np.linspace(0.0, 1.0, density + 1)[1:]
    labels = [label for label, _ in labeled_approximants]
    curves = residual_samples([approx for _, approx in labeled_approximants], grid)
    lines = ["t," + ",".join(labels)]
    for i, t in enumerate(grid):
        lines.append(",".join([f"{t:.8g}"] + [f"{c[i]:.5e}" for c in curves]))
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
