#!/usr/bin/env python3
"""Compare saved ``run.py`` outputs of a base and a head commit.

    python3 perfbench/compare.py --base B1.txt B2.txt ... --head H1.txt H2.txt ...

Each file holds the standard output of one or more ``run.py`` runs; runs
with ``--trace 1`` are skipped.  For
every workload present on both sides and every end-to-end metric named in
``BENCHMARK.json``, it prints each side's median and quartiles, the change of
the head median against the base median (positive is worse), and a verdict:

``regressed``   worse by more than the metric's bound
``unresolved``  the base runs spread (quartile distance over median) wider
                than the bound, and not every head run beats every base run
``ok``          otherwise

A head run whose checks failed (its report lists errors) times less work
than it should, so its workload reads ``head failed checks`` instead of
timings.  A head run with a higher ``fail_ratio`` than the base run of the
same seed (or, without one, than the base median) reads ``more failures``:
a gain does not count when more operations fail.  Both count as regressed.

Results whose environment stamps disagree on the kernels path (numba or
numpy) are refused: they time different code.  Exit status: 0 when nothing
regressed, 1 when something did, 2 when the inputs are refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_reports(paths: list[str]) -> list[dict]:
    """Untraced reports from the files, one per run."""
    reports = [
        json.loads(line)["report"]
        for path in paths
        for line in Path(path).read_text().splitlines()
        if line.startswith('{"report"')
    ]
    return [r for r in reports if r["trace"] == 0]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[float, str]:
    sign = 1.0 if better == "lower" else -1.0
    b_low, b_med, b_high = quartiles(base)
    change = sign * (statistics.median(head) - b_med) / b_med
    spread = (b_high - b_low) / b_med
    all_better = all(sign * h < min(sign * b for b in base) for h in head)
    if spread > bound and not all_better:
        return change, "unresolved"
    return change, "regressed" if change > bound else "ok"


def failure_verdict(base: list[dict], head: list[dict]) -> str | None:
    """Why the head runs of one workload cannot be compared, if they cannot."""
    if any(r["errors"] for r in head):
        return "head failed checks"
    base_ratio = {r["seed"]: r["end_to_end"]["fail_ratio"]["value"] for r in base}
    base_median = statistics.median(base_ratio.values())
    for r in head:
        if r["end_to_end"]["fail_ratio"]["value"] > base_ratio.get(r["seed"], base_median):
            return "more failures"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args()
    base = load_reports(args.base)
    head = load_reports(args.head)
    paths = {r["env"]["kernels_path"] for r in base + head}
    if len(paths) > 1:
        print(f"refused: results disagree on the kernels path {sorted(paths)}")
        return 2

    metrics = json.loads(SPEC.read_text())["end_to_end"]
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in head})
    regressed = False
    print(f"{'workload':16} {'metric':12} {'base q1/med/q3':>30} {'head med':>10} {'change':>8} verdict")
    for workload in workloads:
        failure = failure_verdict(
            [r for r in base if r["workload"] == workload],
            [r for r in head if r["workload"] == workload],
        )
        if failure is not None:
            regressed = True
            print(f"{workload:16} {'-':12} {failure}")
            continue
        for metric in metrics:
            name = metric["name"]
            b = [r["end_to_end"][name]["value"] for r in base if r["workload"] == workload]
            h = [r["end_to_end"][name]["value"] for r in head if r["workload"] == workload]
            change, outcome = verdict(b, h, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            low, med, high = quartiles(b)
            print(
                f"{workload:16} {name:12} {low:10.4g}/{med:9.4g}/{high:9.4g} "
                f"{statistics.median(h):10.4g} {change:+8.1%} {outcome}"
                f"  (n={len(b)}/{len(h)}, bound {metric['bound']:.0%})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
