"""Times in-process `vce estimate` on sampled CSVs: the whole command in each
of the benchmark's three shapes, each stage of the `--model` shape, and each
layer.

    python bench/estimate.py --rows 20000 200000 --repeats 5 --out BENCH.json

Run it from the root of a checkout: the program is imported from ./src, and
each CSV (columns C, R, S, V3, W) is drawn from
models/sprinkler_functional.sem at p = 0.3 by the benchmark's own sampler,
perfbench/workloads.sample_csv, with seed 14.  Those files hold a handful of
distinct records.  One more file is the draw at the smallest `--rows`
with each W moved off its value by its own amount below 1e-9 (within the
tolerance of the declared support), so that every record is distinct and W
real-valued; its row is keyed "<n> distinct".  For each file it records:

- `commands_s`: the median wall time of `vce.cli.main` on
  `estimate --cause R --outcome W` with
  `plain` = `--given S,V3`, `covariate` = `--given S --covariate C` and
  `model` = `--given S,V3 --model models/sprinkler_functional.sem --bind p=0.3`;
- `stages_s`: the median time of each stage of the `model` shape, called in
  the command's order on one dataset: `from_csv` (parse and checks),
  `table` (each column coded by its distinct values, built on first read,
  which the command meets in `validate_against`), `validate_against` (on
  the bound model, parsed untimed), `estimate_conditionals` (the stratum
  table over S, V3) and `aggregate` (PACE at d = 1);
- `layers`: the per-layer metrics of one traced `model` command, from the
  span recorder in perfbench/tracer.py;
- `read_peak_alloc_mb`: the peak of the memory that `from_csv` and `table`
  allocate (Python and numpy blocks, as tracemalloc counts them), in one
  untimed call.

`host_factor` is the median slowdown of a fixed pure-Python chunk run
between commands (perfbench/host.py), against that chunk's reference time;
divide a time by it to compare runs made while the host ran at other speeds.
Times are raw wall seconds.  The repeats alternate across row counts, so a
slow spell of the host spreads over every size.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import tempfile
import tracemalloc
from time import perf_counter

import numpy as np
from harness import host, layers, timed, write
from workloads import sample_csv

from vce import estimation as est
from vce.dsl import parse_model
from vce.model import bind

MODEL = os.path.join("models", "sprinkler_functional.sem")
SEED = 14
SHAPES = {
    "plain": ["--given", "S,V3"],
    "covariate": ["--given", "S", "--covariate", "C"],
    "model": ["--given", "S,V3", "--model", MODEL, "--bind", "p=0.3"],
}


def _argv(path: str, shape: str) -> list[str]:
    return ["estimate", path, "--cause", "R", "--outcome", "W", *SHAPES[shape]]


def _distinct_csv(path: str, rows: int) -> None:
    """The seed-14 draw of `rows` records, each W moved by a distinct
    amount in (0, 5e-10], written as the sampler writes its files."""
    columns, data = sample_csv(path, SEED, rows)
    data[:, columns.index("W")] += np.arange(1, rows + 1) * (5e-10 / rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([[str(int(v)) if v.is_integer() else repr(v) for v in row]
                          for row in data.tolist()])


def _read_peak(path: str) -> float:
    tracemalloc.start()
    try:
        est.Dataset.from_csv(path).table
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _stages(path: str, model) -> dict[str, float]:
    times = [perf_counter()]
    dataset = est.Dataset.from_csv(path)
    times.append(perf_counter())
    dataset.table
    times.append(perf_counter())
    dataset.validate_against(model)
    times.append(perf_counter())
    table = est.estimate_conditionals(dataset, "R", "W", ["S", "V3"])
    times.append(perf_counter())
    table.aggregate([1.0], "pace", "abs")
    times.append(perf_counter())
    names = ("from_csv_s", "table_s", "validate_against_s", "estimate_conditionals_s", "aggregate_s")
    return {name: b - a for name, a, b in zip(names, times, times[1:])}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, nargs="+", default=[20_000, 200_000])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", required=True, help="where to write the JSON results")
    args = parser.parse_args(argv)
    if args.repeats < 1 or min(args.rows) < 1:
        parser.error("--repeats and every --rows must be at least 1")
    with open(MODEL, encoding="utf-8") as fh:
        model = bind(parse_model(fh.read()), {"p": 0.3})
    with tempfile.TemporaryDirectory() as scratch:
        paths = {}
        for n in args.rows:
            paths[str(n)] = os.path.join(scratch, f"sample{n}.csv")
            sample_csv(paths[str(n)], SEED, n)
        key = f"{min(args.rows)} distinct"
        paths[key] = os.path.join(scratch, "distinct.csv")
        _distinct_csv(paths[key], min(args.rows))
        runs = {n: {shape: [] for shape in SHAPES} for n in paths}
        stages = {n: [] for n in paths}
        chunks = []
        for _ in range(args.repeats):
            for n in paths:
                for shape in SHAPES:
                    chunks.append(host.timed_chunk())
                    runs[n][shape].append(timed(_argv(paths[n], shape)))
                stages[n].append(_stages(paths[n], model))
        sizes = {}
        for n in paths:
            sizes[n] = {
                "commands_s": {shape: statistics.median(r) for shape, r in runs[n].items()},
                "command_runs_s": runs[n],
                "stages_s": {name: statistics.median(s[name] for s in stages[n])
                             for name in stages[n][0]},
                "layers": layers(_argv(paths[n], "model")),
                "read_peak_alloc_mb": _read_peak(paths[n]),
            }
    result = write(args.out, "bench/estimate.py", argv, args.repeats, chunks, rows=sizes)
    for n, row in sizes.items():
        commands = "  ".join(f"{s} {v:.4f}" for s, v in row["commands_s"].items())
        parts = "  ".join(f"{s} {v:.4f}" for s, v in row["stages_s"].items())
        print(f"{n} rows: commands {commands} s  (model stages: {parts}; "
              f"read allocates {row['read_peak_alloc_mb']:.1f} MB at peak)")
    return result


if __name__ == "__main__":
    main()
