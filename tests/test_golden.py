"""Byte-identity of the benchmark's commands against committed outputs.

``golden_cli.json`` holds, for each command of perfbench seeds 0-3, its
argv, exit code, standard output and the sha256 of its ``--plot-data`` file
(the argv entry ``{plot}`` stands for that file's path).  A change that moves
a result on purpose regenerates the data, and the diff shows what moved:

    PYTHONPATH=src python tests/test_golden.py

Outputs depend on ``np.longdouble`` arithmetic, so the data records the
platform it was made on; on another platform the test skips and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from fobw.cli import main

DATA = Path(__file__).with_name("golden_cli.json")


def platform_stamp() -> dict:
    return {"machine": platform.machine(),
            "longdouble_precision": int(np.finfo(np.longdouble).precision)}


def run_command(argv: list[str], plot: Path) -> dict:
    """Exit code, standard output and the plot file's sha256 (None when the
    command writes no plot) of one in-process run of ``argv``."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(plot) if arg == "{plot}" else arg for arg in argv])
    digest = hashlib.sha256(plot.read_bytes()).hexdigest() if plot.exists() else None
    return {"exit": code, "stdout": stdout.getvalue(), "plot_sha256": digest}


GOLDEN = json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", GOLDEN["commands"], ids=lambda e: e["id"])
def test_command_matches_golden(entry, tmp_path):
    if GOLDEN["platform"] != platform_stamp():
        pytest.skip(f"golden data made on {GOLDEN['platform']}, this is {platform_stamp()}")
    got = run_command(entry["argv"], tmp_path / "plot.csv")
    assert got == {key: entry[key] for key in got}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for entry in GOLDEN["commands"]:
            plot = Path(tmp) / "plot.csv"
            plot.unlink(missing_ok=True)
            entry.update(run_command(entry["argv"], plot))
    GOLDEN["platform"] = platform_stamp()
    DATA.write_text(json.dumps(GOLDEN, indent=1) + "\n", encoding="utf-8")
