"""Command-line interface.

    fobw solve --config FILE [--out PATH] [--format csv|json]
    fobw preset NAME [--alpha LIST] [--gamma LIST] [--M LIST] [--k K]
                [--metric AE|MAE|residual] [--out PATH] [--format csv|json]
                [--plot-data PATH]
    fobw verify [--criterion IDENT]...
    fobw --help

NAME is example1-single, example1-double, example1-hump or example2.  A
LIST is comma-separated: that of ``--alpha`` holds constants and
expressions in t, such as ``1.5`` or ``1 + sin(t)``, and those of
``--gamma`` and ``--M`` hold numbers.  The config file is a JSON document whose keys match the ExperimentConfig
field names; where the table goes, and in which format, only the flags
say.  A flag's value is the next argument or follows ``=``, as in
``--out=table.csv``; a repeated flag keeps its last value, but every
``--criterion`` runs.  The table is a run's whole outcome: the CLI writes
its ``meta`` warnings, then the table, and exits 1 if a column failed.
With ``--plot-data``, the run also hands back the residual curve of each
converged solve, and the CLI writes those curves to a file other than
``--out``'s.  ``--help`` prints this text.  Every message goes to stderr as
one ``[ERROR] fobw: ...`` or ``[WARNING] fobw: ...`` line, and an error, a
misused flag too, exits 2.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
        raise ValueError(f"{text.strip()!r} is not an unsigned number")
    return int(number) if number.is_integer() else number


def _number_list(text: str) -> list[float]:
    return [_number(part) for part in text.split(",") if part.strip()]


#: each command's flags as ``{flag: (reader, default)}`` and its positional
#: as ``(name, choices)``; a reader is a function of the flag's text, the
#: tuple of texts it may be, or ``list`` to collect every use, and a default
#: of ``...`` makes the flag required
_COMMANDS = {
    "solve": ({"--config": (str, ...), "--out": (str, None),
               "--format": (("csv", "json"), "csv")}, None),
    "preset": ({"--alpha": (str, None), "--gamma": (_number_list, PRESET_SWEEP["gamma"]),
                "--M": (_number_list, PRESET_SWEEP["M"]), "--k": (_number, PRESET_SWEEP["k"]),
                "--metric": (VALID_METRICS, None), "--out": (str, None),
                "--format": (("csv", "json"), "csv"), "--plot-data": (str, None)},
               ("name", tuple(sorted(PRESET_PROBLEMS)))),
    "verify": ({"--criterion": (list, None)}, None),
}


def _read(name: str, reader, text: str, old=None):
    """``text`` as the value of the argument ``name``, which a ValueError names."""
    if reader is list:
        return [*(old or ()), text]
    if isinstance(reader, tuple) and text not in reader:
        raise ValueError(f"argument {name}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, reader))})")
    try:
        return text if isinstance(reader, tuple) else reader(text)
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from None


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` as its command's flags, or None if it asks for ``--help``;
    a usage error raises ValueError."""
    if {"-h", "--help"} & set(argv):
        return None
    if not argv:
        raise ValueError("the following arguments are required: command")
    command, *rest = argv
    flags, positional = _COMMANDS[_read("command", tuple(_COMMANDS), command)]
    values, extras, args = {flag: default for flag, (_, default) in flags.items()}, [], iter(rest)
    if positional:
        values[positional[0]] = ...
    for arg in args:
        flag, eq, text = arg.partition("=")
        if flag in flags:
            if not eq and (text := next(args, "--")).startswith("--"):
                raise ValueError(f"argument {flag}: expected one argument")
            values[flag] = _read(flag, flags[flag][0], text, values[flag])
        elif positional and values[positional[0]] is ... and not arg.startswith("-"):
            values[positional[0]] = _read(*positional, arg)
        else:
            extras.append(arg)
    missing = [key for key, value in values.items() if value is ...]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **{key.lstrip("-").replace("-", "_"): value
                                               for key, value in values.items()})


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
    if args.out is not None and args.plot_data is not None and (
            os.path.realpath(args.out) == os.path.realpath(args.plot_data)):
        _say("ERROR", f"--out and --plot-data name the same file, {args.out}: "
                      "the plot data would overwrite the table")
        return 2
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
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except ValueError as exc:
        _say("ERROR", exc)
        return 2
    if args is None:
        sys.stdout.write(__doc__ or "")  # python -OO strips docstrings
        return 0
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "preset":
        return _cmd_preset(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
