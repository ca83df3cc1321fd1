"""Times in-process `vce eval` on chain-k models: the whole command in JSON
and table format, its parse + validate step, its stratum table, the effect
and the printing of its report; and one `vce counterfactual`.

    python bench/eval.py --k 9 11 14 --repeats 5 --out BENCH.json

Run it from the root of a checkout: the program is imported from ./src, and
the chain-k models (X -> Z0 -> ... -> Z{k-1}, Y = X + sum(Z), 4 * 2^k joint
entries and Y slots) come from the benchmark's own generator,
perfbench/workloads.chain_model, with seed k.  For each k it records:

- `command_s`: the median wall time of `vce.cli.main` on
  `eval --cause X --outcome Y --format json`, and `table_command_s` on the
  same command in table format;
- `measures_s`: the median time of `parse_model` (parse + validate, which
  fills the outcome tables), of `strata` on the model just parsed (so it
  pays for the observational joint, P(z) and P(z, x) and the gather of g),
  `joint_s`, of `build_joint` plus the marginals onto Z and onto (Z, X) on
  another fresh parse, `effect_s`, of `effect` (PACE, d = 1) on a third
  fresh parse, and `print_s` and `print_table_s`, of printing that report
  in JSON and in table format (stdout captured);
- `counterfactual_s`: the median wall time of `vce.cli.main` on
  `counterfactual --evidence Z0=1 --context X=min --do X=max --target Y`
  (min and max of X's support);
- `layers`: the per-layer metrics of one traced `eval` command, from the
  span recorder in perfbench/tracer.py.

`parse` times `parse_model` alone (`parse_model_s`, the median over --repeats
rounds of the mean of 20 calls) and its tokenizer, `dsl._tokenize`
(`tokenize_s`, likewise), on three texts.  Two are built here with seed 23 in
the shape of the benchmark's wide_variation models: `wide`, Z (4 strata) -> X
(l = 128 values, about one probability in ten 0) with Y a zig-zag `def` of X
and Z, and `fun`, Z (6 strata) -> X (l = 12) with Y a `fun` table over (X, Z).
Their tables are thousands of plain decimal entries.  `chain` is chain-9 with
seed 9, the shape of the deep_enum models: many small `cpt` tables.

`small` times the same steps on one small model, models/sprinkler_functional.sem
bound at p = 0.3 with cause R and outcome W, as a parameter sweep pays them
at every grid point: `bind_s`, of a fresh `bind` (which validates the bound
model), and per bind, `joint_s` (which fills the bound `cpt` and `root`
outcome tables) and `strata_s`; each the median over --repeats rounds of the
mean of 200 calls.  `sweep_s` is the median over the rounds of the mean wall
time of 5 in-process `vce sweep` commands on that model and query, over
`p=0:1:0.01` x `d=0:1:0.25` (101 bindings, 505 grid points), and
`rare_sweep_s` the same for models/rare_disease.sem, cause X, outcome Y, over
`p=0:1:0.02` x `d=0:1:0.25` (51 bindings, 255 grid points).

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
import os
import random
import statistics
import tempfile
from time import perf_counter

from harness import ROOT, cli, host, layers, timed, write
from workloads import chain_model

from vce.dsl import _tokenize, parse_model
from vce.engine import build_joint, marginal
from vce.model import bind
from vce.variational import EffectQuery, effect, strata

SMALL_MODEL = os.path.join(ROOT, "models", "sprinkler_functional.sem")
SMALL_CALLS = 200
SWEEP_CALLS = 5
SWEEP_ARGV = ["sweep", SMALL_MODEL, "--cause", "R", "--outcome", "W",
              "--axis", "p=0:1:0.01", "--axis", "d=0:1:0.25"]
RARE_SWEEP_ARGV = ["sweep", os.path.join(ROOT, "models", "rare_disease.sem"), "--cause", "X",
                   "--outcome", "Y", "--axis", "p=0:1:0.02", "--axis", "d=0:1:0.25"]
PARSE_SEED = 23
PARSE_CALLS = 20
PARSE_SHAPES = {"wide": {"l": 128, "strata": 4}, "fun": {"l": 12, "strata": 6}, "chain": {"k": 9}}


def _probs(rng: random.Random, n: int) -> list[str]:
    """n decimal probabilities (millionths) summing to 1, about one in ten 0."""
    w = [0 if rng.random() < 0.1 else rng.randint(1, 1000) for _ in range(n)]
    w[0] += 1
    micro = [v * 10**6 // sum(w) for v in w]
    micro[w.index(max(w))] += 10**6 - sum(micro)
    return ["1" if m == 10**6 else f"0.{m:06d}" for m in micro]


def _cause_text(rng: random.Random, l: int, s: int) -> list[str]:
    lines = [f"var Z in {{{', '.join(map(str, range(s)))}}}",
             f"var X in {{{', '.join(map(str, range(l)))}}}",
             "root Z {" + ", ".join(f"{z}: {p}" for z, p in enumerate(_probs(rng, s))) + "}",
             "cpt X | Z {"]
    for z in range(s):
        lines.append(f"  ({z}): {{" + ", ".join(f"{x}: {p}" for x, p in enumerate(_probs(rng, l)))
                     + "},")
    return lines + ["}"]


def _wide_text(rng: random.Random, l: int, s: int) -> str:
    """Z (s strata) -> X (l values); Y = X up to t1 + c Z, falling to t2 + c Z, then rising."""
    t1, t2, c = l // 4, 5 * l // 8, 2

    def zigzag(x, z):
        if x < t1 + c * z:
            return x
        return 2 * (t1 + c * z) - x if x < t2 + c * z else x - 2 * (t2 - t1)

    ys = sorted({zigzag(x, z) for x in range(l) for z in range(s)})
    return "\n".join(_cause_text(rng, l, s) + [
        f"var Y in {{{', '.join(map(str, ys))}}}",
        f"def Y = if X < {t1} + {c} * Z then X else if X < {t2} + {c} * Z "
        f"then 2 * ({t1} + {c} * Z) - X else X - {2 * (t2 - t1)}"]) + "\n"


def _fun_text(rng: random.Random, l: int, s: int) -> str:
    """Z (s strata) -> X (l values); Y | X, Z a `fun` table of values 0-9."""
    rows = ["  " + " ".join(f"({x}, {z}): {rng.randint(0, 9)}," for z in range(s))
            for x in range(l)]
    return "\n".join(_cause_text(rng, l, s) + ["var Y in {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}",
                                                "fun Y | X, Z {", *rows, "}"]) + "\n"


def _mean_s(read, text: str) -> float:
    """Mean seconds of one `read(text)`."""
    start = perf_counter()
    for _ in range(PARSE_CALLS):
        read(text)
    return (perf_counter() - start) / PARSE_CALLS


def _argv(path: str, fmt: str = "json") -> list[str]:
    return ["eval", path, "--cause", "X", "--outcome", "Y", "--format", fmt]


def _printing(report, fmt: str) -> float:
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        cli._print_report(report, fmt)
    return perf_counter() - start


def _counterfactual(path: str, xs) -> float:
    return timed(["counterfactual", path, "--evidence", "Z0=1", "--context", f"X={xs[0]:g}",
                  "--do", f"X={xs[-1]:g}", "--target", "Y"])


def _joint(model, z_vars: list[str], cause: str) -> float:
    """Seconds for the joint and its marginals onto z_vars and z_vars + cause."""
    start = perf_counter()
    joint = build_joint(model)
    marginal(joint, z_vars)
    marginal(joint, z_vars + [cause])
    return perf_counter() - start


def _measures(text: str, k: int) -> dict[str, float]:
    start = perf_counter()
    model = parse_model(text)
    parsed = perf_counter()
    strata(model, "X", "Y")
    done = perf_counter()
    joint_s = _joint(parse_model(text), [f"Z{i}" for i in range(k)], "X")
    model = parse_model(text)
    begun = perf_counter()
    report = effect(model, EffectQuery("X", "Y"))
    effect_s = perf_counter() - begun
    return {"parse_model_s": parsed - start, "strata_s": done - parsed, "joint_s": joint_s,
            "effect_s": effect_s, "print_s": _printing(report, "json"),
            "print_table_s": _printing(report, "table")}


def _small(base) -> dict[str, float]:
    """Mean seconds of a bind of the small model, per fresh bind of its joint
    and strata, and of a sweep over its parameter and the degree."""
    bind_s = joint_s = strata_s = 0.0
    for _ in range(SMALL_CALLS):
        start = perf_counter()
        model = bind(base, {"p": 0.3})
        bind_s += perf_counter() - start
        joint_s += _joint(model, ["S", "V3"], "R")
        model = bind(base, {"p": 0.3})
        start = perf_counter()
        strata(model, "R", "W")
        strata_s += perf_counter() - start
    sweep_s = sum(timed(SWEEP_ARGV) for _ in range(SWEEP_CALLS)) / SWEEP_CALLS
    rare_sweep_s = sum(timed(RARE_SWEEP_ARGV) for _ in range(SWEEP_CALLS)) / SWEEP_CALLS
    return {"bind_s": bind_s / SMALL_CALLS, "joint_s": joint_s / SMALL_CALLS,
            "strata_s": strata_s / SMALL_CALLS, "sweep_s": sweep_s, "rare_sweep_s": rare_sweep_s}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--k", type=int, nargs="+", default=[9, 11, 14])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", required=True, help="where to write the JSON results")
    args = parser.parse_args(argv)
    if args.repeats < 1 or any(k < 1 for k in args.k):
        parser.error("--repeats and every --k must be at least 1")
    with tempfile.TemporaryDirectory() as scratch:
        texts, paths, xs = {}, {}, {}
        for k in args.k:
            texts[k], chain = chain_model(random.Random(k), k)
            xs[k] = chain.xs
            paths[k] = os.path.join(scratch, f"chain{k}.sem")
            with open(paths[k], "w", encoding="utf-8") as fh:
                fh.write(texts[k])
        runs = {k: [] for k in args.k}
        table_runs = {k: [] for k in args.k}
        cf_runs = {k: [] for k in args.k}
        measures = {k: [] for k in args.k}
        with open(SMALL_MODEL, encoding="utf-8") as fh:
            small_base = parse_model(fh.read())
        small = []
        parse_texts = {name: build(random.Random(PARSE_SEED), *PARSE_SHAPES[name].values())
                       for name, build in (("wide", _wide_text), ("fun", _fun_text))}
        chain_k = PARSE_SHAPES["chain"]["k"]
        parse_texts["chain"] = chain_model(random.Random(chain_k), chain_k)[0]
        parse_runs = {name: [] for name in parse_texts}
        tokenize_runs = {name: [] for name in parse_texts}
        chunks = []
        for _ in range(args.repeats):
            for k in args.k:
                chunks.append(host.timed_chunk())
                runs[k].append(timed(_argv(paths[k])))
                table_runs[k].append(timed(_argv(paths[k], "table")))
                cf_runs[k].append(_counterfactual(paths[k], xs[k]))
                measures[k].append(_measures(texts[k], k))
            small.append(_small(small_base))
            for name, text in parse_texts.items():
                parse_runs[name].append(_mean_s(parse_model, text))
                tokenize_runs[name].append(_mean_s(_tokenize, text))
        chains = {}
        for k in args.k:
            chains[str(k)] = {
                "entries": 4 * 2 ** k,
                "command_s": statistics.median(runs[k]),
                "command_runs_s": runs[k],
                "table_command_s": statistics.median(table_runs[k]),
                "table_command_runs_s": table_runs[k],
                "counterfactual_s": statistics.median(cf_runs[k]),
                "counterfactual_runs_s": cf_runs[k],
                "measures_s": {name: statistics.median(m[name] for m in measures[k])
                               for name in measures[k][0]},
                "layers": layers(_argv(paths[k])),
            }
    parse = {name: {**shape, "parse_model_s": statistics.median(parse_runs[name]),
                    "parse_model_runs_s": parse_runs[name],
                    "tokenize_s": statistics.median(tokenize_runs[name]),
                    "tokenize_runs_s": tokenize_runs[name]}
             for name, shape in PARSE_SHAPES.items()}
    result = write(args.out, "bench/eval.py", argv, args.repeats, chunks, chains=chains, small={
        "model": "models/sprinkler_functional.sem", "bind": {"p": 0.3},
        "cause": "R", "outcome": "W", "calls": SMALL_CALLS,
        "measures_s": {name: statistics.median(m[name] for m in small) for name in small[0]},
    }, parse=parse)
    for k, row in chains.items():
        parts = "  ".join(f"{n} {v:.4f}" for n, v in row["measures_s"].items())
        print(f"chain-{k}: command {row['command_s']:.4f} s  table {row['table_command_s']:.4f} s  "
              f"({parts})  "
              f"counterfactual {row['counterfactual_s']:.4f} s")
    for name, shape in PARSE_SHAPES.items():
        row = parse[name]
        print(f"{name} {', '.join(f'{n} = {v}' for n, v in shape.items())}: "
              f"parse_model {row['parse_model_s'] * 1e3:.3f} ms  "
              f"tokenize {row['tokenize_s'] * 1e3:.3f} ms")
    parts = "  ".join(f"{n} {v * 1e3:.4f} ms" for n, v in result["small"]["measures_s"].items())
    print(f"sprinkler_functional p=0.3, per bind: {parts}")
    return result


if __name__ == "__main__":
    main()
