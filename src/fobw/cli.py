"""Command-line interface.

    fobw solve --config FILE [--out PATH] [--format csv|json]
    fobw preset NAME [--alpha ...] [--gamma ...] [--M ...] [--out PATH] ...
    fobw verify [--criterion IDENT ...]

The config file is a JSON document whose keys match the ExperimentConfig
field names.  FOBW_LOG sets the log level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .experiments import (
    ExperimentConfig,
    PRESET_PROBLEMS,
    emit_plot_data,
    emit_table,
    preset_config,
    run_experiment,
)

log = logging.getLogger("fobw")


def _configure_logging() -> None:
    level_name = os.environ.get("FOBW_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="[%(levelname)s] %(name)s: %(message)s")


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _plot_points(text: str) -> int:
    points = int(text)
    if points < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {points}")
    return points


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
    p_solve.add_argument("--format", choices=("csv", "json"), default=None)

    p_preset = sub.add_parser("preset", help="run a built-in experiment preset")
    p_preset.add_argument("name", choices=sorted(PRESET_PROBLEMS))
    p_preset.add_argument(
        "--alpha",
        default=None,
        help="comma list of constants and/or expressions in t, e.g. '1.5' or '1 + sin(t)'",
    )
    p_preset.add_argument("--gamma", type=_float_list, default=None, help="comma list")
    p_preset.add_argument("--M", type=_int_list, default=None, help="comma list")
    p_preset.add_argument("--k", type=int, default=1)
    p_preset.add_argument("--metric", choices=("AE", "MAE", "residual"), default=None)
    p_preset.add_argument("--grid", type=_float_list, default=None, help="output grid")
    p_preset.add_argument("--out", default=None, help="output path (default: stdout)")
    p_preset.add_argument("--format", choices=("csv", "json"), default="csv")
    p_preset.add_argument("--plot-data", default=None, help="write dense residual curves here")
    p_preset.add_argument("--plot-points", type=_plot_points, default=401)
    p_preset.add_argument(
        "--no-published", action="store_true", help="omit the published comparison columns"
    )

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument(
        "--criterion", action="append", default=None, help="run only the named criterion"
    )
    return parser


def _emit(table, ok: bool, fmt: str, out: str | None, plot=None) -> int:
    """Write the table and, if ``plot`` is given, ``emit_plot_data(*plot)``; exit
    code 2 if a file cannot be written or an order function leaves (1, 2] at
    a plot point, else 1 if a column failed, else 0."""
    try:
        text = emit_table(table, fmt, out)
        if plot is not None:
            emit_plot_data(*plot)
    except (OSError, ValueError) as exc:
        log.error("%s", exc)
        return 2
    if out is None:
        sys.stdout.write(text)
    else:
        log.info("wrote %s", out)
    if plot is not None:
        log.info("wrote %s", plot[2])
    return 0 if ok else 1


def _cmd_solve(args) -> int:
    import json

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        log.error("could not read config %s: %s", args.config, exc)
        return 2
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ValueError as exc:
        log.error("invalid config: %s", exc)
        return 2
    fmt = args.format or cfg.format
    out = args.out if args.out is not None else cfg.out
    table, ok = run_experiment(cfg)
    return _emit(table, ok, fmt, out)


def _cmd_preset(args) -> int:
    overrides = {}
    if args.alpha is not None:
        overrides["alpha"] = tuple(part.strip() for part in args.alpha.split(",") if part.strip())
    if args.gamma is not None or args.M is not None or args.k != 1:
        gammas = args.gamma if args.gamma is not None else [1.0]
        ms = args.M if args.M is not None else [5]
        overrides["basis"] = tuple((args.k, m, g) for g in gammas for m in ms)
    if args.metric is not None:
        overrides["metrics"] = (args.metric,)
    if args.grid is not None:
        overrides["output_grid"] = tuple(args.grid)
    if args.no_published:
        overrides["include_published"] = False
    try:
        cfg = preset_config(args.name, **overrides)
    except ValueError as exc:
        log.error("invalid preset options: %s", exc)
        return 2
    labeled = [] if args.plot_data is not None else None
    table, ok = run_experiment(cfg, approximants=labeled)
    plot = None if labeled is None else (labeled, args.plot_points, args.plot_data)
    return _emit(table, ok, args.format, args.out, plot)


def _cmd_verify(args) -> int:
    from .acceptance import run_all

    results = run_all(idents=args.criterion, stream=sys.stdout)
    if not results:
        log.error("no matching criteria")
        return 2
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return 0 if not failed else 1


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "preset":
        return _cmd_preset(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
