"""What the bench scripts share: the import path, a timed in-process CLI
command, the per-layer metrics of one traced command, and the result file.
Both run a full garbage collection first, so that none left over from
earlier work falls inside the command.

Importing this module puts ./src (the program) and ./perfbench (the
benchmark's generators, host calibration and span recorder) on the import
path, so the scripts run from the root of a checkout.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import sys
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import host  # noqa: E402
from tracer import Tracer  # noqa: E402

from vce import cli  # noqa: E402  (called as cli.main, which the span recorder wraps)


def _run(argv: list[str]) -> None:
    """`vce.cli.main(argv)`, its output discarded; a non-zero exit stops the run."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def timed(argv: list[str]) -> float:
    """Wall seconds of `vce.cli.main(argv)`, after a full garbage collection."""
    gc.collect()
    start = perf_counter()
    _run(argv)
    return perf_counter() - start


def layers(argv: list[str]) -> dict[str, float]:
    """The per-layer metrics of one traced `vce.cli.main(argv)`, after a full
    garbage collection."""
    gc.collect()
    tracer = Tracer()
    tracer.enable()
    try:
        tracer.begin_op(0)
        _run(argv)
        tracer.end_op()
    finally:
        tracer.disable()
    return tracer.metrics({0: 1.0})


def write(path: str, script: str, argv, repeats: int, chunks: list[float], **results) -> dict:
    """Write `results` to `path` as JSON under the run's header (the
    command line, the host and its slowdown over the timed chunks)."""
    result = {
        "argv": [script, *(argv if argv is not None else sys.argv[1:])],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": repeats,
        "host_factor": host.factor(chunks),
        **results,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result
