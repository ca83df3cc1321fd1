"""Set-up probe: run in a fresh process, time `import vce` plus one operation.

    python3 perfbench/probe.py ARGV...      # from the root of a checkout
    python3 perfbench/probe.py --reference

Prints the seconds from just before `import vce` to the end of one
`vce.cli.main(ARGV)` call with stdout captured; exits 1 if the operation
does not return 0.  With --reference it prints instead the seconds a fresh
process takes to import numpy and the standard modules vce imports: the
start-up counterpart of host.py's calibration chunk.
"""

import contextlib
import importlib
import io
import os
import sys
import time

REFERENCE_MODULES = ("numpy", "argparse", "csv", "json", "dataclasses", "functools", "itertools")


def main(argv: list[str]) -> int:
    if argv == ["--reference"]:
        start = time.perf_counter()
        for name in REFERENCE_MODULES:
            importlib.import_module(name)
        print(repr(time.perf_counter() - start))
        return 0
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    start = time.perf_counter()
    importlib.import_module("vce")
    cli = importlib.import_module("vce.cli")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
