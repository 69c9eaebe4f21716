"""What a command's start-up loads: a fresh interpreter that imports the CLI
and runs a preset loads no oracle code, no ``numpy.polynomial`` and no
``json``, and the only dataclasses it builds are the five records that check
themselves when they are constructed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fobw

CHILD = """
import dataclasses, sys
import fobw.cli

code = fobw.cli.main(["preset", "example1-single", "--alpha", "1.5", "--gamma", "0.2", "--M", "3"])
loaded = [m for m in ("numpy.polynomial", "json", "fobw.oracles", "fobw.acceptance")
          if m in sys.modules]
records = sorted(
    obj.__name__
    for name, module in list(sys.modules.items()) if name.split(".")[0] == "fobw"
    for obj in vars(module).values()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == name
)
print(repr((code, loaded, records, callable(fobw.kernels.warmup))))
"""


def test_preset_loads_only_what_it_runs():
    pythonpath = [str(Path(fobw.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                          timeout=180, env=env)
    assert proc.returncode == 0, proc.stderr
    code, loaded, records, warmup = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []
    assert records == ["ErrorTable", "ExperimentConfig", "OscillatorProblem", "WaveletBasisSpec"]
    assert warmup
