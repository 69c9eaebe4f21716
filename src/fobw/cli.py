"""Command-line interface.

    fobw solve --config FILE [--out PATH] [--format csv|json]
    fobw preset NAME [--alpha ...] [--gamma ...] [--M ...] [--out PATH] ...
    fobw verify [--criterion IDENT ...]

The config file is a JSON document whose keys match the ExperimentConfig
field names; where the table goes, and in which format, only the flags
say.  The table is a run's whole outcome: the CLI writes its ``meta``
warnings, then the table, and exits 1 if a column failed.  With
``--plot-data``, the run also hands back the residual curve of each
converged solve, and the CLI writes those curves.  Every message
goes to stderr as one ``[ERROR] fobw: ...`` or ``[WARNING] fobw: ...`` line.
"""

from __future__ import annotations

import argparse
import sys

from .expr import ExpressionError, parse_expression
from .experiments import (
    ExperimentConfig,
    PRESET_PROBLEMS,
    PRESET_SWEEP,
    VALID_METRICS,
    basis_sweep,
    emit_plot_data,
    emit_table,
    preset_config,
    run_experiment,
)


def _say(level: str, message: object) -> None:
    """One ``[LEVEL] fobw: message`` line on stderr."""
    sys.stderr.write(f"[{level}] fobw: {message}\n")


def _number(text: str) -> float:
    """``text`` as one number of the expression language (see :mod:`fobw.expr`),
    which has no signed numbers; whether it is a valid k, M or gamma is the
    basis's to say.  An integral value is an int, as JSON reads ``3``, so the
    basis names a refused entry as ``(45, 3, 0.5)``, not ``(45.0, 3.0, 0.5)``."""
    try:
        number = parse_expression(text).number
    except ExpressionError:
        number = None
    if number is None:
        raise argparse.ArgumentTypeError(f"{text.strip()!r} is not an unsigned number")
    return int(number) if number.is_integer() else number


def _number_list(text: str) -> list[float]:
    return [_number(part) for part in text.split(",") if part.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fobw",
        description="Fractional-order Bernstein wavelet collocation for "
        "variable-order Duffing-Van der Pol oscillators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an experiment from a config file")
    p_solve.add_argument("--config", required=True, help="JSON config path")
    p_solve.add_argument("--out", default=None, help="output path (default: stdout)")
    p_solve.add_argument("--format", choices=("csv", "json"), default="csv")

    p_preset = sub.add_parser("preset", help="run a built-in experiment preset")
    p_preset.add_argument("name", choices=sorted(PRESET_PROBLEMS))
    p_preset.add_argument(
        "--alpha",
        default=None,
        help="comma list of constants and/or expressions in t, e.g. '1.5' or '1 + sin(t)'",
    )
    p_preset.add_argument("--gamma", type=_number_list, default=PRESET_SWEEP["gamma"],
                          help="comma list of numbers")
    p_preset.add_argument("--M", type=_number_list, default=PRESET_SWEEP["M"],
                          help="comma list of numbers")
    p_preset.add_argument("--k", type=_number, default=PRESET_SWEEP["k"])
    p_preset.add_argument("--metric", choices=VALID_METRICS, default=None)
    p_preset.add_argument("--out", default=None, help="output path (default: stdout)")
    p_preset.add_argument("--format", choices=("csv", "json"), default="csv")
    p_preset.add_argument("--plot-data", default=None,
                          help="write dense residual curves, 401 points, here")

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument(
        "--criterion", action="append", default=None, help="run only the named criterion"
    )
    return parser


def _emit(table, fmt: str, out: str | None, plot=None) -> int:
    """Write the table's warnings, the table and, if ``plot`` is given as
    the run's ``(label, curve)`` list and a path, ``emit_plot_data(*plot)``;
    exit code 2 if a file cannot be written, else 1 if a column failed, else 0."""
    for warning in table.meta["warnings"]:
        _say("WARNING", warning)
    try:
        text = emit_table(table, fmt, out)
        if plot is not None:
            emit_plot_data(*plot)
    except OSError as exc:
        _say("ERROR", exc)
        return 2
    if out is None:
        sys.stdout.write(text)
    return 1 if table.meta["failed_columns"] else 0


def _cmd_solve(args) -> int:
    import json

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        _say("ERROR", f"could not read config {args.config}: {exc}")
        return 2
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ValueError as exc:
        _say("ERROR", f"invalid config: {exc}")
        return 2
    return _emit(run_experiment(cfg), args.format, args.out)


def _cmd_preset(args) -> int:
    overrides = {"basis": basis_sweep(args.k, args.M, args.gamma)}
    if args.alpha is not None:
        overrides["alpha"] = tuple(part.strip() for part in args.alpha.split(",") if part.strip())
    if args.metric is not None:
        overrides["metrics"] = (args.metric,)
    try:
        cfg = preset_config(args.name, **overrides)
    except ValueError as exc:
        _say("ERROR", f"invalid preset options: {exc}")
        return 2
    curves = [] if args.plot_data is not None else None
    table = run_experiment(cfg, curves)
    plot = None if curves is None else (curves, args.plot_data)
    return _emit(table, args.format, args.out, plot)


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all(idents=args.criterion, stream=sys.stdout)
    if not results:
        _say("ERROR", "no matching criteria")
        return 2
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return 0 if not failed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "preset":
        return _cmd_preset(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
