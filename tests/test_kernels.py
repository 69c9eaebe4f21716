import os
import subprocess
import sys

import fobw
from fobw import kernels


def test_warmup_runs():
    kernels.warmup()


def test_names_the_benchmark_reads():
    # perfbench/child.py imports fobw.cli, then calls fobw.kernels.warmup()
    # and records fobw.kernels.USING_NUMBA; a fresh interpreter shows that
    # the CLI import alone makes both reachable
    src = os.path.dirname(os.path.dirname(os.path.abspath(fobw.__file__)))
    code = (
        "import fobw.cli\n"
        "fobw.kernels.warmup()\n"
        "assert fobw.kernels.USING_NUMBA is False\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
