"""Times the variation DP: an l = 128 `vce sweep` over the degree for each
variant, the aggregation alone on that sweep's stratum table, and the
aggregation of a chain-11 `vce eval`; and the exhaustive PACE oracle: `vce
check` on wide `fun` tables, and one brute-force row at l = 12 to 20.

    python bench/variation.py --repeats 7 --out BENCH.json

Run it from the root of a checkout: the program is imported from ./src.  The
wide model (Z with 4 strata -> X with l = 128 values, some of zero
probability, Y = a zig-zag of X and Z) comes from the benchmark's own
generator, perfbench/workloads.wide_model, the chain-11 model from
perfbench/workloads.chain_model and the `check` models from
perfbench/workloads.fun_model, all with seed 15.  It records:

- `sweep_s`: for each variant, the median wall time of `vce.cli.main` on
  `sweep --cause X --outcome Y --axis d=0:2:0.2 --variant V` (11 degrees);
- `aggregate_s`: for each variant, the median time of the sweep table's
  aggregation over those 11 degrees (`StratumTable.aggregate`, the table
  built untimed), for the sign `abs`;
- `aggregate_sign_s`: the same for each variant and sign (`abs` from the
  same runs as `aggregate_s`): the kernel takes a weight only for a pair
  whose signed difference is nonzero, so the signs cost differently;
- `values_s` and `values_sign_s`: the same two for the values-only mode
  that `sweep` takes (`StratumTable.effects`: no witness chains); on a tree
  without that mode, the times of `aggregate`, its only mode;
- `pace_sweep_5001`: one PACE `sweep` of the wide model over 5,001 degrees
  (`d=0:1:0.0002`) in a fresh process: its seconds and how far it raises
  the process's peak RSS (MB) above the peak after import, then, run again
  under `tracemalloc`, the peak of traced memory (MB);
- `chain_eval_s` and `chain_aggregate_s`: the median wall time of
  `eval --cause X --outcome Y` on chain-11 (2,048 strata of l = 4), and of
  its table's PACE aggregation at d = 1;
- `switch_s`: for each call shape and variant, the median time of one call
  on the kernel (`kernel`, `_kernel` called directly) and on the loops
  (`loops`, one `variation` call per row and degree): `l48`, 2 random rows
  of l = 48 at d = 1 (2,256 pair terms), and `l2`, 404 random rows of l = 2
  at d = 0, 0.25, ..., 1 (the stacked table of a `p=0:1:0.01` x
  `d=0:1:0.25` sweep of sprinkler_functional); `variations` takes the
  kernel where `on_kernel` has it cheaper;
- `check_s`: for (l, strata) = (10, 9) and (12, 6), the median wall time of
  `check --cause X --outcome Y` on a fun-table model (Z -> X, Y | X, Z), as
  the benchmark's wide_variation workload checks them;
- `brute_force_s`: for l = 12, 14 and 16, the median time of one
  `brute_force_total_variation` call on a random row at d = 1;
- `brute_force_l20`: one call at l = 20 in a fresh process: its seconds and
  how far it raises the process's peak RSS (MB) above the peak after import;
- `layers`: the per-layer metrics of one traced PACE sweep, from the span
  recorder in perfbench/tracer.py.

`host_factor` is the median slowdown of a fixed pure-Python chunk run
between commands (perfbench/host.py), against that chunk's reference time;
divide a time by it to compare runs made while the host ran at other speeds.
Times are raw wall seconds; the repeats alternate across the measures.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np
from harness import host, layers, timed, write
from workloads import chain_model, fun_model, grid_points, wide_model

from vce.dsl import parse_model
from vce.variational import SIGNS, VARIANTS, _kernel, brute_force_total_variation, strata, variation

SEED = 15
WIDE = (128, 4)  # (cause support l, strata)
CHAIN_K = 11
SWITCHES = {"l48": (48, 2, [1.0]), "l2": (2, 404, [0.0, 0.25, 0.5, 0.75, 1.0])}  # l, rows, degrees
AXIS = "d=0:2:0.2"
CHECKS = ((10, 9), (12, 6))  # (cause support l, strata) of wide_variation's slowest checks
BRUTE_LS = (12, 14, 16)
# One l = 20 row in a fresh process, so the peak RSS it adds is its own.
L20 = """
import json, random, resource, sys, time
sys.path.insert(0, "src")
from vce.variational import brute_force_total_variation
rng = random.Random(%d)
gs, ps = [rng.uniform(-1, 1) for _ in range(20)], [rng.random() / 10 for _ in range(20)]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
brute_force_total_variation(gs, ps, 1.0, "abs")
seconds = time.perf_counter() - start
added = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(json.dumps({"s": seconds, "added_peak_rss_mb": added}))
""" % SEED
# One 5,001-degree PACE sweep of the wide model in a fresh process, timed, then
# again under tracemalloc for the peak of its traced memory.
SWEEP_5001 = """
import contextlib, io, json, resource, sys, time, tracemalloc
sys.path.insert(0, "src")
from vce.cli import main
argv = ["sweep", sys.argv[1], "--cause", "X", "--outcome", "Y", "--axis", "d=0:1:0.0002"]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    assert main(argv) == 0
    seconds = time.perf_counter() - start
    added = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
    tracemalloc.start()
    main(argv)
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
print(json.dumps({"axis": argv[-1], "degrees": 5001, "s": seconds, "added_peak_rss_mb": added,
                  "tracemalloc_peak_mb": peak}))
"""


def _row(rng: random.Random, l: int) -> tuple[list[float], list[float]]:
    """Outcomes in [-1, 1) and probabilities that sum to 1."""
    ps = [rng.random() for _ in range(l)]
    return [rng.uniform(-1, 1) for _ in range(l)], [p / sum(ps) for p in ps]


def _aggregate(table, degrees: list[float], variant: str, sign: str = "abs"):
    """`table.aggregate` over `degrees`; a table whose aggregate takes one
    degree (before the batched kernel) is called once per degree."""
    try:
        return table.aggregate(degrees, variant, sign)
    except TypeError:
        return [table.aggregate(d, variant, sign) for d in degrees]


def _values(table, degrees: list[float], variant: str, sign: str = "abs"):
    """The values-only mode over `degrees`, or `aggregate` where there is none."""
    try:
        return table.effects(degrees, variant, sign)
    except AttributeError:
        return _aggregate(table, degrees, variant, sign)


def _timed_call(call) -> float:
    start = perf_counter()
    call()
    return perf_counter() - start


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", required=True, help="where to write the JSON results")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    rng = random.Random(SEED)
    wide_text, _ = wide_model(rng, *WIDE)
    chain_text, _ = chain_model(random.Random(SEED), CHAIN_K)
    degrees = grid_points(0.0, 2.0, 0.2)
    checks = {f"l{l}_s{n}": fun_model(random.Random(SEED), l, n) for l, n in CHECKS}
    brute_rows = {l: _row(random.Random(SEED), l) for l in BRUTE_LS}
    switch_rng = random.Random(SEED)
    switch_rows = {name: [_row(switch_rng, l) for _ in range(rows)]
                   for name, (l, rows, _) in SWITCHES.items()}
    with tempfile.TemporaryDirectory() as scratch:
        paths = {}
        for name, text in (("wide", wide_text), ("chain", chain_text), *checks.items()):
            paths[name] = os.path.join(scratch, f"{name}.sem")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        wide_table = strata(parse_model(wide_text), "X", "Y")
        chain_table = strata(parse_model(chain_text), "X", "Y")

        def sweep(variant):
            return ["sweep", paths["wide"], "--cause", "X", "--outcome", "Y", "--axis", AXIS,
                    "--variant", variant]

        kinds = ("sweep", *(f"{mode}{'' if sign == 'abs' else '_' + sign}"
                            for mode in ("aggregate", "values") for sign in SIGNS))
        runs = {(kind, v): [] for kind in kinds for v in VARIANTS}
        runs |= {(f"{name}_{side}", v): [] for name in SWITCHES for side in ("kernel", "loops")
                 for v in VARIANTS}
        chain_runs = {"chain_eval_s": [], "chain_aggregate_s": []}
        check_runs = {name: [] for name in checks}
        brute_runs = {l: [] for l in BRUTE_LS}
        chunks = []
        for _ in range(args.repeats):
            for variant in VARIANTS:
                chunks.append(host.timed_chunk())
                runs["sweep", variant].append(timed(sweep(variant)))
                for sign in SIGNS:
                    for mode, call in (("aggregate", _aggregate), ("values", _values)):
                        runs[mode if sign == "abs" else f"{mode}_{sign}", variant].append(
                            _timed_call(lambda: call(wide_table, degrees, variant, sign)))
                for name, rows in switch_rows.items():
                    ds, gs, ps = SWITCHES[name][2], *map(np.array, zip(*rows))
                    runs[f"{name}_kernel", variant].append(_timed_call(
                        lambda: _kernel(gs, ps, ds, variant, "abs")))
                    runs[f"{name}_loops", variant].append(_timed_call(
                        lambda: [[variation(g, p, d, variant, "abs") for g, p in rows] for d in ds]))
            chunks.append(host.timed_chunk())
            chain_runs["chain_eval_s"].append(
                timed(["eval", paths["chain"], "--cause", "X", "--outcome", "Y"]))
            chain_runs["chain_aggregate_s"].append(
                _timed_call(lambda: _aggregate(chain_table, [1.0], "pace")))
            for name in checks:
                chunks.append(host.timed_chunk())
                check_runs[name].append(
                    timed(["check", paths[name], "--cause", "X", "--outcome", "Y"]))
            for l, (gs, ps) in brute_rows.items():
                brute_runs[l].append(
                    _timed_call(lambda: brute_force_total_variation(gs, ps, 1.0, "abs")))
        l20 = subprocess.run([sys.executable, "-c", L20], check=True, capture_output=True,
                             text=True).stdout
        sweep_5001 = subprocess.run([sys.executable, "-c", SWEEP_5001, paths["wide"]], check=True,
                                    capture_output=True, text=True).stdout
        results = {
            "wide": {"l": WIDE[0], "strata": WIDE[1], "axis": AXIS},
            "chain_k": CHAIN_K,
            "sweep_s": {v: statistics.median(runs["sweep", v]) for v in VARIANTS},
            **{f"{mode}_s": {v: statistics.median(runs[mode, v]) for v in VARIANTS}
               for mode in ("aggregate", "values")},
            **{f"{mode}_sign_s": {v: {sign: statistics.median(
                runs[mode if sign == "abs" else f"{mode}_{sign}", v]) for sign in SIGNS} for v in VARIANTS}
               for mode in ("aggregate", "values")},
            "pace_sweep_5001": json.loads(sweep_5001),
            **{name: statistics.median(r) for name, r in chain_runs.items()},
            "switch": {name: {"l": l, "rows": rows, "degrees": ds}
                       for name, (l, rows, ds) in SWITCHES.items()},
            "switch_s": {name: {v: {side: statistics.median(runs[f"{name}_{side}", v])
                                    for side in ("kernel", "loops")} for v in VARIANTS}
                         for name in SWITCHES},
            "check_s": {name: statistics.median(r) for name, r in check_runs.items()},
            "brute_force_s": {str(l): statistics.median(r) for l, r in brute_runs.items()},
            "brute_force_l20": json.loads(l20),
            "runs_s": {f"{kind}_{v}": r for (kind, v), r in runs.items()} | chain_runs
            | {f"check_{name}": r for name, r in check_runs.items()}
            | {f"brute_force_{l}": r for l, r in brute_runs.items()},
            "layers": layers(sweep("pace")),
        }
    result = write(args.out, "bench/variation.py", argv, args.repeats, chunks, **results)
    for kind in ("sweep_s", "aggregate_s", "values_s"):
        print(f"l = 128 {kind}: " + "  ".join(f"{v} {t:.4f}" for v, t in result[kind].items()))
    for mode in ("aggregate", "values"):
        for sign in SIGNS:
            print(f"l = 128 {mode}_sign_s {sign}: " + "  ".join(
                f"{v} {t[sign]:.4f}" for v, t in result[f"{mode}_sign_s"].items()))
    big = result["pace_sweep_5001"]
    print(f"pace sweep {big['axis']} ({big['degrees']} degrees): {big['s']:.2f} s, "
          f"+{big['added_peak_rss_mb']:.1f} MB peak RSS, {big['tracemalloc_peak_mb']:.1f} MB tracemalloc peak")
    print(f"chain-{CHAIN_K}: eval {result['chain_eval_s']:.4f} s  "
          f"aggregate {result['chain_aggregate_s']:.4f} s")
    for name, shape in result["switch"].items():
        print(f"l = {shape['l']}, {shape['rows']} rows x {len(shape['degrees'])} degrees "
              "switch_s (kernel / loops): " + "  ".join(
                  f"{v} {t['kernel']:.4f} / {t['loops']:.4f}" for v, t in result["switch_s"][name].items()))
    print("check_s: " + "  ".join(f"{n} {t:.4f}" for n, t in result["check_s"].items()))
    print("brute_force_s: " + "  ".join(f"l = {l} {t:.4f}"
                                        for l, t in result["brute_force_s"].items())
          + f"  l = 20 {result['brute_force_l20']['s']:.4f} "
          f"(+{result['brute_force_l20']['added_peak_rss_mb']:.1f} MB peak RSS)")
    return result


if __name__ == "__main__":
    main()
