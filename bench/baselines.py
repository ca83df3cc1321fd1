"""Times in-process `vce baselines` on chain-k models: the whole command, each
measure, and each layer.

    python bench/baselines.py --k 8 9 10 11 12 14 --repeats 5 --out BENCH.json

Run it from the root of a checkout: the program is imported from ./src, and
the chain-k models (X -> Z0 -> ... -> Z{k-1}, Y = X + sum(Z), 4 * 2^k joint
entries) come from the benchmark's own generator,
perfbench/workloads.chain_model, with seed k.  For each k it records:

- `command_s`: the median wall time of `vce.cli.main` on
  `baselines --format json` (ACE, ACDE, post-cutting strength, MI, CMI);
- `measures_s`: the median time of each of those measures, called in the
  command's order on a freshly loaded model (so `acde`, the first to need
  the observational joint, pays for building it), plus `load_s` for parsing
  and validating the model;
- `enumerations`: how many models one command enumerates in full
  (`engine._enumerate` calls);
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
import os
import random
import statistics
import tempfile
from time import perf_counter

from harness import host, layers, timed, write
from workloads import chain_model

from vce import baselines as bl
from vce import engine
from vce.dsl import parse_model

MEASURES = ("ace", "acde", "janzing", "mi", "cmi")


def _argv(path: str) -> list[str]:
    return ["baselines", path, "--cause", "X", "--outcome", "Y", "--format", "json"]


def _enumerations(path: str) -> int:
    real, calls = engine._enumerate, []
    engine._enumerate = lambda model: calls.append(model) or real(model)
    try:
        timed(_argv(path))
    finally:
        engine._enumerate = real
    return len(calls)


def _measures(text: str, k: int) -> dict[str, float]:
    times = {}
    start = perf_counter()
    model = parse_model(text)
    times["load_s"] = perf_counter() - start
    xs = model.support("X").values
    calls = {
        "ace": lambda: bl.ace(model, "X", xs[0], xs[-1], "Y"),
        "acde": lambda: bl.acde(model, "X", xs[0], xs[-1], "Y", [f"Z{i}" for i in range(k)]),
        "janzing": lambda: bl.janzing_strength(model, [("X", "Y")]),
        "mi": lambda: bl.mi_strength(model, "X", "Y"),
        "cmi": lambda: bl.cmi_strength(model, "X", "Y"),
    }
    for name in MEASURES:
        start = perf_counter()
        calls[name]()
        times[f"{name}_s"] = perf_counter() - start
    return times


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", type=int, nargs="+", default=[8, 9, 10, 11, 12, 14])
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
                runs[k].append(timed(_argv(paths[k])))
                measures[k].append(_measures(texts[k], k))
        chains = {}
        for k in args.k:
            chains[str(k)] = {
                "entries": 4 * 2 ** k,
                "command_s": statistics.median(runs[k]),
                "command_runs_s": runs[k],
                "measures_s": {name: statistics.median(m[name] for m in measures[k])
                               for name in measures[k][0]},
                "enumerations": _enumerations(paths[k]),
                "layers": layers(_argv(paths[k])),
            }
    result = write(args.out, "bench/baselines.py", argv, args.repeats, chunks, chains=chains)
    for k, row in chains.items():
        parts = "  ".join(f"{n} {v:.3f}" for n, v in row["measures_s"].items())
        print(f"chain-{k}: command {row['command_s']:.3f} s, {row['enumerations']} enumerations  ({parts})")
    return result


if __name__ == "__main__":
    main()
