#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``fobw`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; ``fobw`` is imported from ``src/``.  One
closed-loop client runs one process at a time.  A pass runs each command of
the workload in a fresh interpreter (``child.py``), so every pass pays the
memo-cache fills a CLI user pays.  An untimed first pass warms the file cache
and is the reference for the determinism check; timed passes follow until
``--seconds`` have elapsed.  Every pass checks the outputs.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones
report per-layer metrics (``tracing.py``).

Standard output ends with two JSON lines: the full report, then the summary
``{"correct", "attempted", "failed", "metrics"}`` holding exactly the metrics
``BENCHMARK.json`` lists for the mode.  ``perfbench/README.md`` describes the
workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

GAMMAS = (0.2, 0.5, 0.9, 1.0)
PRESETS = ("example1-single", "example1-double", "example1-hump", "example2")
CHILD_TIMEOUT_S = 120.0
#: the cli.main span sits inside the child's own timer around the call, so
#: the two differ by one wrapper call; clock reads agree to well under this
SPAN_REL_TOL, SPAN_ABS_TOL = 0.01, 1e-3
#: single set-up samples are noisy, so a run takes at least this many samples,
#: topping up with set-up-only interpreters when passes give fewer
MIN_SETUP_SAMPLES = 20
#: Reference duration of ``child.interpreter_loop()``, which every child runs
#: before set-up.  On a shared host the speed of a core drifts by up to 1.5x
#: over seconds to minutes, which moved raw medians by 10-20% between runs,
#: more than any useful bound; the loop drifts with it.  So times are rescaled
#: to this reference speed:
#:
#: - set-up, taken as the main thread's CPU time (which drops waits for the
#:   CPU and the disk), as ``cpu * LOOP_REF_S / loop_s`` with the loop of the
#:   same child, run just before it;
#: - a command, as ``t * LOOP_REF_S / loop_s`` with the mean of the loops of
#:   its own child and of the next child the run starts, so the speed is
#:   sampled on either side of a command that lasts seconds.
#:
#: The raw seconds stay in the report.  0.095 s is the median ``loop_s`` on a
#: 2-vCPU 2.1 GHz VM with Python 3.11 (run medians 0.075-0.117 s).
LOOP_REF_S = 0.095
#: what a child reports about its set-up
SETUP_KEYS = ("setup_s", "setup_wall_s", "loop_s")


# ---------------------------------------------------------------------------
# workloads: seed -> list of CLI argv
# ---------------------------------------------------------------------------

def _gamma(rng: random.Random) -> str:
    return f"{rng.choice(GAMMAS):g}"


def ae_tables(rng, plot):
    if rng is None:
        return [["preset", name] for name in PRESETS]
    return [
        ["preset", name, "--gamma", ",".join(f"{g:g}" for g in sorted(rng.sample(GAMMAS, 3)))]
        for name in PRESETS
    ]


def curves_const(rng, plot):
    alphas, gamma = "1.2,1.4,1.6,1.8", "0.2"
    if rng is not None:
        alphas = ",".join(f"{a / 1000:g}" for a in sorted(rng.sample(range(1100, 1901), 4)))
        gamma = _gamma(rng)
    return [["preset", "example1-single", "--alpha", alphas, "--gamma", gamma,
             "--M", "3,5", "--plot-data", plot]]


def curves_varorder(rng, plot):
    alpha, gamma = "1 + sin(t)", "0.2"
    if rng is not None:
        # amplitude below 1/2 keeps 1.5 + A*sin(B*t) inside (1, 2]
        amp = rng.randint(100, 450) / 1000
        freq = rng.randint(1000, 6000) / 1000
        alpha, gamma = f"1.5 + {amp:g}*sin({freq:g}*t)", _gamma(rng)
    return [["preset", "example1-single", "--alpha", alpha, "--gamma", gamma,
             "--M", "3,5", "--plot-data", plot]]


def multicell_k2(rng, plot):
    alpha, gamma = "1.5", "0.2"
    if rng is not None:
        alpha, gamma = f"{rng.randint(1100, 1900) / 1000:g}", _gamma(rng)
    return [["preset", "example1-single", "--k", "2", "--alpha", alpha, "--gamma", gamma,
             "--M", "5", "--plot-data", plot]]


WORKLOADS = {
    "ae_tables": ae_tables,
    "curves_const": curves_const,
    "curves_varorder": curves_varorder,
    "multicell_k2": multicell_k2,
}


def workload_commands(name: str, seed: int, plot: str) -> list[list[str]]:
    rng = None if seed == 0 else random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, plot)


# ---------------------------------------------------------------------------
# one command in a fresh interpreter
# ---------------------------------------------------------------------------

def run_child(argv: list[str] | None, trace: bool, loops: list[float]) -> tuple[dict | None, str]:
    """Result dict of child.py (None if it crashed) and its stderr.

    Appends the child's ``loop_s`` to ``loops``, the run's timeline of
    reference loops, and stores its position as ``loop_index``.
    """
    spec = json.dumps({"src": str(SRC), "argv": argv, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), spec],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S:g} s"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    result["loop_index"] = len(loops)
    loops.append(result["loop_s"])
    return result, proc.stderr


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    """Header labels (without ``t``) and value columns; raises ValueError."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("t,"):
        raise ValueError("missing 't,' header")
    labels = lines[0].split(",")[1:]
    columns = [[] for _ in labels]
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(labels) + 1:
            raise ValueError(f"row has {len(fields)} fields, header {len(labels) + 1}")
        float(fields[0])
        for column, field in zip(columns, fields[1:]):
            column.append(float(field))
    if not lines[1:]:
        raise ValueError("no rows")
    return labels, columns


def check_command(result: dict, plot_text: str | None) -> dict:
    """Operations, failures, table cells and curve values of one command."""
    out = {"ops": 0, "failed": 0, "cells": [], "curve": [], "errors": []}
    try:
        labels, columns = parse_csv(result["stdout"])
    except ValueError as exc:
        out["errors"].append(f"table does not parse: {exc}")
        return out
    computed = [c for label, c in zip(labels, columns) if not label.endswith("(published)")]
    out["ops"] = len(computed)
    for column in computed:
        if all(math.isnan(v) for v in column):
            out["failed"] += 1
        elif not all(math.isfinite(v) for v in column):
            out["errors"].append("non-finite cell in a column not marked failed")
        else:
            out["cells"].extend(column)
    if result["code"] not in ((1,) if out["failed"] else (0,)):
        out["errors"].append(f"exit code {result['code']} with {out['failed']} failed columns")
    if plot_text is not None:
        try:
            plot_labels, curves = parse_csv(plot_text)
        except ValueError as exc:
            out["errors"].append(f"plot data does not parse: {exc}")
            return out
        if len(plot_labels) != out["ops"] - out["failed"]:
            out["errors"].append(
                f"plot data has {len(plot_labels)} curves for "
                f"{out['ops'] - out['failed']} converged columns"
            )
        for curve in curves:
            if not all(math.isfinite(v) for v in curve):
                out["errors"].append("non-finite value in plot data")
            out["curve"].extend(curve)
    return out


def check_spans(result: dict) -> list[str]:
    """Errors in the span tree of one traced command.

    The tree must have exactly one root, the ``cli.main`` call, lasting as
    long as the child measured around that call, and no span may have a
    negative self time (children overlapping or outlasting their parent).
    Then the self times of all spans partition the ``cli.main`` span.
    """
    layers = result["layers"]
    roots = layers["roots"]
    if [name for name, _ in roots] != ["cli.main"]:
        return [f"root spans are {[name for name, _ in roots][:5]}, not one cli.main span"]
    errors = []
    if not math.isclose(roots[0][1], result["wall_s"], rel_tol=SPAN_REL_TOL, abs_tol=SPAN_ABS_TOL):
        errors.append(f"cli.main span is {roots[0][1]!r} s, the call took {result['wall_s']!r} s")
    if layers["min_self_s"] < -SPAN_ABS_TOL:
        errors.append(f"a span has negative self time {layers['min_self_s']!r} s")
    return errors


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(commands, trace: bool, plot_path: Path, reference: list | None,
             loops: list[float]) -> dict:
    """Run every command once; return timings, checks and trace summaries.

    ``timings`` holds ``(loop_index, seconds)`` per command; :func:`pass_wall_s`
    rescales them once the next child has run.
    """
    record = {"timings": [], "wall_raw_s": 0.0, "setup": [], "rss_kb": 0,
              "ops": 0, "failed": 0, "cells": [], "curve": [], "errors": [], "digests": [],
              "layers": [], "numpy": None, "numba": None}
    for index, argv in enumerate(commands):
        plot_path.unlink(missing_ok=True)
        result, stderr = run_child(argv, trace, loops)
        if result is None:
            record["errors"].append(f"command {index} crashed: {stderr.strip()[-500:]}")
            record["digests"].append(None)
            continue
        plot_text = plot_path.read_text() if "--plot-data" in argv and plot_path.exists() else None
        if "--plot-data" in argv and plot_text is None:
            record["errors"].append(f"command {index} wrote no plot data")
        checked = check_command(result, plot_text)
        digest = hashlib.sha256((result["stdout"] + "\0" + (plot_text or "")).encode()).hexdigest()
        if reference is not None and reference[index] != digest:
            checked["errors"].append(f"command {index} output differs from the first pass")
        record["digests"].append(digest)
        record["wall_raw_s"] += result["wall_s"]
        record["timings"].append((result["loop_index"], result["wall_s"]))
        record["setup"].append({key: result[key] for key in SETUP_KEYS})
        record["rss_kb"] = max(record["rss_kb"], result["maxrss_kb"])
        record["numpy"], record["numba"] = result["numpy"], result["using_numba"]
        for key in ("ops", "failed"):
            record[key] += checked[key]
        for key in ("cells", "curve", "errors"):
            record[key].extend(checked[key])
        if trace:
            record["errors"].extend(f"command {index}: {e}" for e in check_spans(result))
            record["layers"].append(result["layers"])
    if record["errors"]:
        record["failed"] = max(record["ops"], 1)
    return record


def pass_wall_s(record: dict, loops: list[float]) -> float:
    """Pass time rescaled to the reference speed (see ``LOOP_REF_S``)."""
    return sum(
        seconds * LOOP_REF_S / statistics.fmean(loops[index : index + 2])
        for index, seconds in record["timings"]
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _gmean(values) -> float | None:
    logs = [math.log(v) for v in values if v > 0.0]
    return math.exp(math.fsum(logs) / len(logs)) if logs else None


def _metric(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def end_to_end_metrics(timed: list[dict], setups: list[dict], loops: list[float],
                       reference: dict, fail_ratio: float) -> dict:
    walls = [p["wall_s"] for p in timed]
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s", samples=len(walls), passes=walls),
        "setup_s": _metric(
            statistics.median(s["setup_s"] * LOOP_REF_S / s["loop_s"] for s in setups), "s",
            samples=len(setups),
        ),
        "setup_cpu_s": _metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "setup_wall_s": _metric(statistics.median(s["setup_wall_s"] for s in setups), "s"),
        "loop_s": _metric(statistics.median(loops), "s"),
        "wall_raw_s": _metric(statistics.median(p["wall_raw_s"] for p in timed), "s"),
        "peak_rss_mb": _metric(statistics.median(p["rss_kb"] for p in timed) / 1024.0, "MB"),
        "fail_ratio": _metric(fail_ratio, "ratio"),
        "err_max": _metric(max(reference["cells"], default=None), "1"),
        "err_gmean": _metric(_gmean(reference["cells"]), "1"),
    }
    if reference["curve"]:
        metrics["curve_res_gmean"] = _metric(_gmean(reference["curve"]), "1")
    # the highest percentile with at least ten samples beyond it
    for pct in (99, 95, 90, 75):
        if len(walls) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(walls, n=100, method="inclusive")[pct - 1]
            metrics[f"wall_s_p{pct}"] = _metric(cut, "s", samples=len(walls))
            break
    return metrics


#: functions whose calls, total_s and self_s are reported per traced pass
TRACED_LAYERS = (
    "cli.main",
    "experiments.run_experiment",
    "experiments.emit_plot_data",
    "experiments.build_order",
    "reference.rk4_integrate",
    "kernels.rk4_sweep",
    "solver.solve_problem",
    "solver.assemble",
    "solver.newton_solve",
    "solver.residual_vector",
    "reference.residual_sample",
    "fracops.reconstruct",
    "fracops.caputo_on_approximant",
    "fracops.basis_images",
    "fracops.rl_integral_series",
    "fracops.adaptive_unit_integral",
    "basis.fobw_vector",
    "kernels.eval_powsum",
    "kernels.eval_powsum_batch",
    "special.gamma",
)


def layer_metrics(traced_pass: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    functions: dict[str, dict] = {}
    for layers in traced_pass["layers"]:
        for name, stats in layers["functions"].items():
            entry = functions.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in entry:
                entry[key] = None if stats[key] is None else entry[key] + stats[key]
    counters: dict[str, float] = {}
    hits = lookups = 0
    cache_gone = False
    for layers in traced_pass["layers"]:
        for key, value in layers["counters"].items():
            counters[key] = counters.get(key, 0) + value
        if layers["image_cache"] is None:
            cache_gone = True
        else:
            hits += layers["image_cache"]["hits"]
            lookups += layers["image_cache"]["hits"] + layers["image_cache"]["misses"]

    out = {}
    for name in TRACED_LAYERS:
        stats = functions.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = _metric(stats["calls"], "count")
        for key in ("total_s", "self_s"):
            out[f"{name}.{key}"] = (
                _metric(None, "s", reason="counted, not timed: see tracing.COUNT_ONLY")
                if stats[key] is None
                else _metric(stats[key], "s")
            )
    newton_calls = functions.get("solver.newton_solve", {}).get("calls", 0)
    solves = functions.get("solver.solve_problem", {}).get("calls", 0)
    pow_ops = counters.get("kernels.eval_powsum_batch.pow_ops", 0)
    out["kernels.rk4_sweep.steps"] = _metric(counters.get("kernels.rk4_sweep.steps", 0), "count")
    out["kernels.eval_powsum_batch.pow_ops"] = _metric(pow_ops, "count")
    out["kernels.eval_powsum_batch.computed_bytes"] = _metric(8 * pow_ops, "B", label="computed")
    out["solver.newton_iterations"] = _metric(counters.get("solver.newton_iterations", 0), "count")
    out["solver.solves_per_column"] = _metric(solves / max(traced_pass["ops"], 1), "ratio")
    # a ratio without a base reads 0 and says why, so the summary line
    # carries a number for every metric
    out["solver.converged_ratio"] = _metric(
        counters.get("solver.newton_converged", 0) / max(newton_calls, 1), "ratio",
        **({} if newton_calls else {"reason": "no Newton solve ran"}),
    )
    out["fracops.image_cache.hits"] = _metric(hits, "count")
    out["fracops.image_cache.lookups"] = _metric(lookups, "count")
    reason = (
        "fracops._image_series has no cache_info()" if cache_gone
        else "no lookups: k > 1 images bypass the cache" if lookups == 0
        else None
    )
    out["fracops.image_cache.hit_ratio"] = _metric(
        hits / max(lookups, 1), "ratio", **({"reason": reason} if reason else {})
    )
    return out


def median_metrics(samples: list[dict]) -> dict:
    """Metric-wise median over passes; a metric without a value stays null."""
    return {
        name: first if first["value"] is None
        else {**first, "value": statistics.median(s[name]["value"] for s in samples)}
        for name, first in samples[0].items()
    }


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(reference: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": reference["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "FOBW_PURE_NUMPY": os.environ.get("FOBW_PURE_NUMPY"),
        "kernels_path": "numba" if reference["numba"] else "numpy",
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fobw" / "__init__.py").is_file():
        sys.stderr.write(f"no fobw package under {SRC}; run from a repository checkout\n")
        return 2
    spec = json.loads(SPEC.read_text())
    # on SIGTERM, unwind so the running child is killed and reaped and the
    # temporary directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        plot = tmp / "plot.csv"
        commands = workload_commands(args.workload, args.seed, str(plot.relative_to(ROOT)))
        loops: list[float] = []
        reference = run_pass(commands, False, plot, None, loops)
        if reference["numpy"] is None:
            sys.stderr.write("\n".join(reference["errors"]) + "\n")
            return 1
        untraced, traced, setups = [], [], []
        start = time.perf_counter()
        topping_s = 0.0
        while True:
            share = min(1.0, (time.perf_counter() - start - topping_s) / args.seconds)
            # set-up-only interpreters keep pace with the passes, so the set-up
            # samples spread over the run as they do when passes supply them;
            # their time does not count against the passes' --seconds
            while len(setups) < MIN_SETUP_SAMPLES * share:
                topping = time.perf_counter()
                result, stderr = run_child(None, False, loops)
                if result is None:
                    sys.stderr.write(stderr)
                    return 1
                setups.append({key: result[key] for key in SETUP_KEYS})
                topping_s += time.perf_counter() - topping
            if share == 1.0 and untraced and (traced or not args.trace):
                break
            tracing = bool(args.trace) and len(traced) < len(untraced)
            record = run_pass(commands, tracing, plot, reference["digests"], loops)
            (traced if tracing else untraced).append(record)
            if not tracing:
                setups.extend(record["setup"])
        # the next child of the last command
        if run_child(None, False, loops)[0] is None:
            sys.stderr.write("set-up-only interpreter crashed\n")
            return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    every = [reference, *untraced, *traced]
    for record in every:
        record["wall_s"] = pass_wall_s(record, loops)
    errors = [e for p in every for e in p["errors"]]
    attempted = sum(p["ops"] for p in every)
    failed = sum(p["failed"] for p in every)
    # a pass whose checks failed may have skipped work, such as a crashed
    # command, so it gives no time; only when every pass failed are they
    # timed, and then the summary is not correct anyway
    clean = [p for p in untraced if not p["errors"]]
    traced_clean = [p for p in traced if not p["errors"]]
    timed, traced_ok = clean or untraced, traced_clean or traced
    e2e = end_to_end_metrics(timed, setups, loops, reference, failed / max(attempted, 1))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "argv": [["fobw", *argv] for argv in commands],
        "env": environment(reference),
        "passes": {"untraced": len(untraced), "traced": len(traced),
                   "untraced_clean": len(clean), "traced_clean": len(traced_clean)},
        "errors": errors[:20],
        "end_to_end": e2e,
    }
    measured = e2e
    if args.trace:
        measured = median_metrics([layer_metrics(p) for p in traced_ok])
        measured["trace.overhead_ratio"] = _metric(
            statistics.median(p["wall_s"] for p in traced_ok) / e2e["wall_s"]["value"], "ratio"
        )
        report["per_layer"] = measured
    # the summary carries exactly the metrics BENCHMARK.json names for this mode
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": measured[n]["value"], "unit": measured[n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
