"""Run one ``fobw`` CLI command in this fresh interpreter and report on it.

Invoked by ``run.py`` as ``python3 child.py SPEC`` where SPEC is a JSON object
with keys ``src`` (directory holding the ``fobw`` package), ``argv`` (the CLI
arguments, or null to stop after set-up) and ``trace`` (bool).  The last line
written to standard output is one JSON object:

``setup_s``   CPU seconds of the main thread for ``import fobw.cli`` plus
              ``fobw.kernels.warmup()``
``setup_wall_s``  the same set-up in elapsed seconds
``loop_s``    CPU seconds of the main thread for :func:`interpreter_loop`,
              run before set-up
``wall_s``    seconds from the end of set-up to the return of ``cli.main``
``code``      the exit code ``cli.main`` returned
``stdout``    everything the command wrote to standard output (the table)
``maxrss_kb`` this process's peak resident set size
``numpy``, ``using_numba``  the numpy version and the kernels path taken
``layers``    per-function span aggregates, only when tracing

With a null ``argv`` only ``setup_s``, ``setup_wall_s`` and ``loop_s`` are
written.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def interpreter_loop() -> float:
    """CPU seconds of the main thread for a fixed loop of dict and str work.

    Importing modules and the CLI's hot paths (scalar loops, adaptive
    quadrature) are interpreter work of the same kind, so a slower core slows
    them by about the same factor; ``run.py`` divides their times by it to
    rescale them to a reference speed.  It needs no import, so it runs before
    set-up, where ``fobw`` cannot affect it.
    """
    start = time.thread_time()
    table = {}
    for i in range(80000):
        table[str(i)] = (i, "x%d" % i)
        table.get(str(i // 2))
    return time.thread_time() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)

    # Set-up's elapsed time also holds waits for the CPU and the disk, which
    # on a shared host moved its median by up to 40% between runs minutes
    # apart; the main thread's CPU time holds only the work.
    loop_s = interpreter_loop()
    start, start_cpu = time.perf_counter(), time.thread_time()
    import fobw.cli

    fobw.kernels.warmup()
    setup_s = time.thread_time() - start_cpu
    setup_wall_s = time.perf_counter() - start

    if not os.path.abspath(fobw.__file__).startswith(src + os.sep):
        sys.stderr.write(f"fobw imported from {fobw.__file__}, not from {src}\n")
        return 3
    if spec["argv"] is None:
        sys.stdout.write(json.dumps(
            {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "loop_s": loop_s}
        ) + "\n")
        return 0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer("fobw")
        tracer.install()

    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = fobw.cli.main(spec["argv"])
    wall_s = time.perf_counter() - start

    import numpy

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "loop_s": loop_s,
        "wall_s": wall_s,
        "code": code,
        "stdout": captured.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "using_numba": bool(fobw.kernels.USING_NUMBA),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
