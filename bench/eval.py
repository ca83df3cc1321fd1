"""Times in-process `vce eval` on chain-k models: the whole command, its
parse + validate step and its stratum table.

    python bench/eval.py --k 9 11 14 --repeats 5 --out BENCH.json

Run it from the root of a checkout: the program is imported from ./src, and
the chain-k models (X -> Z0 -> ... -> Z{k-1}, Y = X + sum(Z), 4 * 2^k joint
entries and Y slots) come from the benchmark's own generator,
perfbench/workloads.chain_model, with seed k.  For each k it records:

- `command_s`: the median wall time of `vce.cli.main` on
  `eval --cause X --outcome Y --format json`;
- `measures_s`: the median time of `parse_model` (parse + validate, which
  fills the outcome tables) and of `strata` on the model just parsed (so it
  pays for the observational joint, its two marginals and the gather of g);
- `layers`: the per-layer metrics of one traced command, from the span
  recorder in perfbench/tracer.py.

`host_factor` is the median slowdown of a fixed pure-Python chunk run
between commands (perfbench/host.py), against that chunk's reference time;
divide a time by it to compare runs made while the host ran at other speeds.
Times are raw wall seconds.  The repeats alternate across k, so a slow spell
of the host spreads over every size.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import sys
import tempfile
from time import perf_counter

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import host  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import chain_model  # noqa: E402

from vce import cli  # noqa: E402  (called as cli.main, which the span recorder wraps)
from vce.dsl import parse_model  # noqa: E402
from vce.variational import strata  # noqa: E402


def _command(path: str) -> float:
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["eval", path, "--cause", "X", "--outcome", "Y", "--format", "json"])
    if code != 0:
        raise SystemExit(f"eval on {path} exited {code}")
    return perf_counter() - start


def _measures(text: str) -> dict[str, float]:
    start = perf_counter()
    model = parse_model(text)
    parsed = perf_counter()
    strata(model, "X", "Y")
    return {"parse_model_s": parsed - start, "strata_s": perf_counter() - parsed}


def _layers(path: str) -> dict[str, float]:
    tracer = Tracer()
    tracer.enable()
    try:
        tracer.begin_op(0)
        _command(path)
        tracer.end_op()
    finally:
        tracer.disable()
    return tracer.metrics({0: 1.0})


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", type=int, nargs="+", default=[9, 11, 14])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", required=True, help="where to write the JSON results")
    args = parser.parse_args(argv)
    if args.repeats < 1 or any(k < 1 for k in args.k):
        parser.error("--repeats and every --k must be at least 1")
    with tempfile.TemporaryDirectory() as scratch:
        texts, paths = {}, {}
        for k in args.k:
            texts[k], _ = chain_model(random.Random(k), k)
            paths[k] = os.path.join(scratch, f"chain{k}.sem")
            with open(paths[k], "w", encoding="utf-8") as fh:
                fh.write(texts[k])
        runs = {k: [] for k in args.k}
        measures = {k: [] for k in args.k}
        chunks = []
        for _ in range(args.repeats):
            for k in args.k:
                chunks.append(host.timed_chunk())
                runs[k].append(_command(paths[k]))
                measures[k].append(_measures(texts[k]))
        chains = {}
        for k in args.k:
            chains[str(k)] = {
                "entries": 4 * 2 ** k,
                "command_s": statistics.median(runs[k]),
                "command_runs_s": runs[k],
                "measures_s": {name: statistics.median(m[name] for m in measures[k])
                               for name in measures[k][0]},
                "layers": _layers(paths[k]),
            }
    result = {
        "argv": ["bench/eval.py", *(argv if argv is not None else sys.argv[1:])],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "host_factor": host.factor(chunks),
        "chains": chains,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for k, row in chains.items():
        parts = "  ".join(f"{n} {v:.4f}" for n, v in row["measures_s"].items())
        print(f"chain-{k}: command {row['command_s']:.4f} s  ({parts})")
    return result


if __name__ == "__main__":
    main()
