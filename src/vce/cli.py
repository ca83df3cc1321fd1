"""Command-line front door.

    vce eval MODEL --cause X --outcome Y [--degree D] [--variant V] ...
    vce sweep MODEL --cause X --outcome Y --axis p=0:1:0.05 [--axis d=...]
    vce counterfactual MODEL --evidence "Y=1,X=0" [--context "R=0"] --do "X=1" --target Y
    vce baselines MODEL --cause X --outcome Y [--x0 V --x1 V] [...]
    vce estimate DATA.csv --cause X --outcome Y --given Z1,Z2 [...]
    vce check MODEL --cause X --outcome Y [--degree D]

Exit codes: 0 success, 1 parse/IO failure, 2 semantic/query failure,
3 oracle mismatch in `check`.  Degrees and bindings are finite numbers
and accept fractions (`--degree 1/3`).  JSON output (`--format json`) is
schema-stable with fields {query, degree, variant, sign, value, breakdown[]}.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager
from functools import cache
from itertools import chain, product
from typing import Sequence

import numpy as np

from . import baselines as bl
from . import counterfactual as cf
from . import estimation as est
from . import variational as vr
from .dsl import parse_model
from .errors import ParseError, VceError
from .model import Model, bind

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_QUERY = 2
EXIT_MISMATCH = 3

ORACLE_TOL = 1e-9
MAX_GRID_POINTS = 1_000_000
BASELINES = ("ace", "acde", "ande", "janzing", "mi", "cmi")


def _fraction(text: str) -> float:
    """A finite number, written as a decimal or as a fraction like 1/3."""
    num, slash, den = text.partition("/")
    try:
        value = float(num) / float(den) if slash else float(text)
    except (ValueError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise VceError(f"expected a finite number or fraction, got '{text}'")
    return value


def _parse_assignments(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = (part.strip() for part in piece.partition("="))
        if not sep:
            raise VceError(f"expected NAME=VALUE, got '{piece}'")
        if name in out:
            raise VceError(f"'{name}' is assigned twice")
        out[name] = _fraction(value)
    return out


@contextmanager
def _reading(path: str):
    """Name `path` in the error of a file that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise OSError(f"{path}: {err}") from None


def _read_model(path: str) -> Model:
    with _reading(path), open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_model(text)


def _bound(model: Model, bindings: dict[str, float]) -> Model:
    """`model` bound to `bindings`, or as it is if it has nothing to bind."""
    return bind(model, bindings) if bindings or not model.is_bound else model


def _load_model(path: str, bindings: Sequence[str]) -> Model:
    return _bound(_read_model(path), _parse_assignments(",".join(bindings)))


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _json_floats(values: list[float]) -> list[str]:
    """Each float as json.dumps writes it (repr, or NaN, Infinity, -Infinity)."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _z_strings(z, form, names) -> list[list[str]]:
    """Per z variable of `names` (positions in z.variables), each stratum's
    value as `form` writes that variable's values: each written once and
    gathered by code."""
    return [np.array(form(c), dtype=object)[z.codes[c]].tolist() for c in names]


def _report_json(report: vr.EffectReport) -> str:
    """json.dumps(..., indent=2, sort_keys=True) of the report, written from
    the stratum table's columns in its ascending row order."""
    q, table, per_row = report.query, report.breakdown.table, report.breakdown.per_row
    z, witness = table.z, {None: "null"}
    names = sorted(range(len(z.variables)), key=z.variables.__getitem__)  # as sort_keys orders
    cols = _z_strings(z, lambda c: [f"        {json.dumps(z.variables[c])}: {v}"
                                    for v in _json_floats(list(z.values[c]))], names)
    zs = ["{\n" + ",\n".join(t) + "\n      }" for t in zip(*cols)] if names else ["{}"] * len(per_row)
    rows = []
    for p, v, (_, chain), zz in zip(_json_floats(table.probability.tolist()),
                                   _json_floats([v for v, _ in per_row]), per_row, zs):
        if chain not in witness:
            spelt = ",\n        ".join(map(str, table.partition(chain).indices))
            witness[chain] = f"[\n        {spelt}\n      ]"
        rows.append(f'    {{\n      "partition": {witness[chain]},\n      "probability": {p},\n'
                    f'      "value": {v},\n      "z": {zz}\n    }}')
    rest = json.dumps({"query": {"cause": q.cause, "outcome": q.outcome}, "degree": q.degree,
                       "variant": q.variant, "sign": q.sign, "value": report.value},
                      indent=2, sort_keys=True)
    breakdown = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return '{\n  "breakdown": ' + breakdown + ",\n" + rest[2:]  # "breakdown" sorts first


def _print_report(report: vr.EffectReport, fmt: str):
    if fmt == "json":
        print(_report_json(report))
        return
    q = report.query
    lines = [f"{q.variant.upper()}_{_fmt(q.degree)}({q.cause} -> {q.outcome}) "
             f"[sign={q.sign}] = {_fmt(report.value)}"]
    if report.z_variables:
        table, per_row = report.breakdown.table, report.breakdown.per_row
        z, witness = table.z, {None: ""}
        lines.append(f"  per-z breakdown over ({', '.join(report.z_variables)}):")
        cols = _z_strings(z, lambda c: [_fmt(v) for v in z.values[c]], range(len(z.variables)))
        for assign, p, (v, chain) in zip(map(", ".join, zip(*cols)), table.probability.tolist(), per_row):
            if chain not in witness:
                witness[chain] = f"  partition={list(table.partition(chain).indices)}"
            lines.append(f"    z=({assign})  P(z)={p:.12g}  value={v:.12g}{witness[chain]}")
    print("\n".join(lines))


def cmd_eval(args) -> int:
    model = _load_model(args.model, args.bind)
    query = vr.EffectQuery(args.cause, args.outcome, args.degree, args.variant, args.sign)
    report = vr.effect(model, query)
    _print_report(report, args.format)
    return EXIT_OK


def _axis_size(start: float, stop: float, step: float) -> int:
    """Points on START:STOP:STEP, counted before any is built (the list may
    hold one fewer)."""
    if step <= 0:
        raise VceError("axis step must be positive")
    if stop < start:
        raise VceError("axis stop must be >= start")
    span = (stop - start + 1e-12) / step
    if span >= MAX_GRID_POINTS:
        raise VceError(f"sweep grid exceeds {MAX_GRID_POINTS} points")
    return math.floor(span) + 1


def _axis_values(start: float, stop: float, step: float, size: int) -> list[float]:
    points = (start + k * step for k in range(size + 1))
    return [round(v, 12) for v in points if v <= stop + 1e-12]


def cmd_sweep(args) -> int:
    if args.format != "table":
        raise VceError(f"sweep writes CSV only; --format {args.format} is not supported")
    specs: list[tuple[str, float, float, float, int]] = []
    for raw in args.axis:
        name, sep, rng = raw.partition("=")
        if not sep:
            raise VceError(f"expected AXIS=START:STOP:STEP, got '{raw}'")
        parts = rng.split(":")
        if len(parts) != 3:
            raise VceError(f"expected START:STOP:STEP in '{raw}'")
        start, stop, step = (_fraction(p) for p in parts)
        name = name.strip()
        if any(name == spec[0] for spec in specs):
            raise VceError(f"duplicate axis '{name}'")
        specs.append((name, start, stop, step, _axis_size(start, stop, step)))
    if math.prod(spec[-1] for spec in specs) > MAX_GRID_POINTS:
        raise VceError(f"sweep grid exceeds {MAX_GRID_POINTS} points")
    axes = [(name, _axis_values(*bounds)) for name, *bounds in specs]
    if not axes:
        raise VceError("sweep needs at least one --axis")

    base = _read_model(args.model)
    fixed = _parse_assignments(",".join(args.bind))
    param_names = {p.name for p in base.parameters}
    for name, _ in axes:
        if name != "d" and name not in param_names:
            raise VceError(f"axis '{name}' is neither a parameter nor the degree 'd'")

    names, grid = [name for name, _ in axes], [points for _, points in axes]
    params = {name: points for name, points in axes if name != "d"}
    degrees = dict(axes).get("d", [args.degree])

    def point(combo) -> tuple[dict, float]:  # a grid point's bindings and degree
        named = dict(zip(names, combo))
        return named, named.pop("d", args.degree)

    # The bindings are bound as one grid, a stack of points at a time, each point
    # evaluated at every degree (vr.effect_stacks); `order` puts the values back
    # in the order of the axes.  If that fails, the points of the stacks that
    # finished passed, and the others are evaluated one by one as `eval` does,
    # so the error raised is the one the first failing point raises.
    size = math.prod(map(len, params.values()))
    order = np.arange(size * len(degrees)).reshape([*map(len, params.values()), len(degrees)])
    order = np.moveaxis(order, -1, names.index("d") if "d" in names else -1).ravel().tolist()
    passed: list[float] = []  # the finished points' values, point by point, degree by degree
    try:
        swept = {name: c.ravel() for name, c in zip(params, np.meshgrid(*params.values(), indexing="ij"))}
        bindings = {**{name: np.full(size, value) for name, value in fixed.items()}, **swept}
        for stack in vr.effect_stacks(base, bindings, args.cause, args.outcome, degrees, args.variant, args.sign):
            passed += chain.from_iterable(stack)
        values = [passed[k] for k in order]
    except VceError:
        values = [passed[k] if k < len(passed) else vr.effect(
                      _bound(base, {**fixed, **named}),
                      vr.EffectQuery(args.cause, args.outcome, d, args.variant, args.sign)).value
                  for k, (named, d) in zip(order, map(point, product(*grid)))]

    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(names + ["value"])
        for combo, value in zip(product(*grid), values):
            writer.writerow([_fmt(v) for v in (*combo, value)])
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def cmd_counterfactual(args) -> int:
    model = _load_model(args.model, args.bind)
    evidence = cf.Evidence(
        observed=_parse_assignments(args.evidence),
        context=_parse_assignments(args.context) if args.context else {},
    )
    dist = cf.counterfactual_query(model, evidence, _parse_assignments(args.do), args.target)
    if args.format == "json":
        table = {str(k[0]): v for k, v in sorted(dist.items())}
        print(json.dumps({"target": args.target, "distribution": table}, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"counterfactual distribution of {args.target}:")
    for key in sorted(dist.entries):
        print(f"  P({args.target}={_fmt(key[0])}) = {_fmt(dist.entries[key])}")
    return EXIT_OK


def cmd_baselines(args) -> int:
    model = _load_model(args.model, args.bind)
    support = model.support(args.cause).values
    x0 = args.x0 if args.x0 is not None else support[0]
    x1 = args.x1 if args.x1 is not None else support[-1]
    selected = set(args.select.split(",")) if args.select else set(BASELINES) - {"ande"}
    unknown = selected - set(BASELINES)
    if unknown:
        raise VceError(
            f"unknown --select name(s) {sorted(unknown)}; choose from {','.join(BASELINES)}"
        )
    # Each measure in BASELINES order, computed only if selected (so are ACDE's default controls).
    measures = (
        ("ACE", lambda: bl.ace(model, args.cause, x0, x1, args.outcome)),
        ("ACDE", lambda: bl.acde(model, args.cause, x0, x1, args.outcome,
                                 [c for c in args.controlled.split(",") if c] if args.controlled
                                 else [p for p in model.parents(args.outcome) if p != args.cause])),
        ("ANDE", lambda: bl.ande(model, args.cause, x0, x1, args.outcome,
                                 [m for m in (args.mediators or "").split(",") if m])),
        ("Janzing", lambda: bl.janzing_strength(model, [(args.cause, args.outcome)], base=args.base)),
        ("MI", lambda: bl.mi_strength(model, args.cause, args.outcome)),
        ("CMI", lambda: bl.cmi_strength(model, args.cause, args.outcome)),
    )
    rows = [(name, measure()) for name, measure in measures if name.lower() in selected]
    if args.format == "json":
        print(json.dumps({name.lower(): value for name, value in rows}, indent=2, sort_keys=True))
        return EXIT_OK
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value)}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    if args.bind and not args.model:
        raise VceError("--bind needs --model: there is no model to bind")
    with _reading(args.data):
        dataset = est.Dataset.from_csv(args.data)
    if args.model:
        model = _load_model(args.model, args.bind)
        dataset.validate_against(model)
    z_vars = [z for z in (args.given or "").split(",") if z]
    if args.covariate:
        value = est.covariate_weighted_effect(
            dataset, args.cause, args.outcome, z_vars, args.covariate,
            args.degree, args.variant, args.sign, c0=args.c0,
        )
    else:
        value = est.identifiable_effect(
            dataset, args.cause, args.outcome, z_vars, args.degree, args.variant, args.sign
        )
    if args.format == "json":
        print(json.dumps({
            "query": {"cause": args.cause, "outcome": args.outcome, "given": z_vars},
            "degree": args.degree,
            "variant": args.variant,
            "sign": args.sign,
            "value": value,
            "records": len(dataset),
        }, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"estimated {args.variant.upper()}_{_fmt(args.degree)}"
          f"({args.cause} -> {args.outcome}) = {_fmt(value)}  [n={len(dataset)}]")
    return EXIT_OK


def cmd_check(args) -> int:
    if args.variant != "pace":
        raise VceError(f"check runs the pace DP only; --variant {args.variant} is not supported")
    if args.format != "table":
        raise VceError(f"check prints text only; --format {args.format} is not supported")
    model = _load_model(args.model, args.bind)
    query = vr.EffectQuery(args.cause, args.outcome, args.degree, "pace", args.sign)
    table = vr.strata(model, query.cause, query.outcome)
    d, sign = query.degree, query.sign
    worst = 0.0
    [(_, per_row)] = table.aggregate([d], "pace", sign)  # the DP that `eval` runs
    for gs, ps, (dp_value, chain) in zip(table.gs.tolist(), table.ps.tolist(), per_row):
        bf_value, _ = vr.brute_force_total_variation(gs, ps, d, sign)
        worst = max(worst, abs(dp_value - bf_value))
        if chain is not None:
            direct = vr.chain_value(gs, ps, chain, d, sign)
            matrix = vr.matrix_form_chain_value(gs, ps, chain, d, sign)
            worst = max(worst, abs(direct - matrix), abs(direct - dp_value))
    checked = len(per_row)
    if worst > ORACLE_TOL:
        print(f"MISMATCH: max deviation {worst:.3e} over {checked} z-strata")
        return EXIT_MISMATCH
    if worst < 1e-12:
        print(f"OK, max deviation < 1e-12 ({checked} z-strata)")
    else:
        print(f"OK, max deviation {worst:.3e} ({checked} z-strata)")
    return EXIT_OK


@cache  # one parser per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vce",
        description="Variational causal effects on finite structural models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_query=True):
        p.add_argument("model", help="path to a .sem model file")
        p.add_argument("--bind", action="append", default=[],
                       help="parameter bindings, e.g. --bind p=0.5 (repeatable)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        if with_query:
            p.add_argument("--cause", required=True)
            p.add_argument("--outcome", required=True)
            p.add_argument("--degree", type=_fraction, default=1.0,
                           help="degree d >= 0; fractions like 1/3 accepted")
            p.add_argument("--variant", choices=vr.VARIANTS, default="pace")
            p.add_argument("--sign", choices=vr.SIGNS, default="abs")

    p_eval = sub.add_parser("eval", help="evaluate one effect query")
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid-sweep parameters and/or degree to CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", action="append", default=[],
                         help="axis in the form NAME=START:STOP:STEP; NAME is a parameter or 'd'")
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="accepted and ignored; grid points run in order")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cf = sub.add_parser("counterfactual", help="abduction-action-prediction query")
    add_common(p_cf, with_query=False)
    p_cf.add_argument("--evidence", required=True, help='observed values, e.g. "Y=1,X=0"')
    p_cf.add_argument("--context", help='do() active while observing, e.g. "R=0"')
    p_cf.add_argument("--do", required=True, help="counterfactual intervention")
    p_cf.add_argument("--target", required=True)
    p_cf.set_defaults(func=cmd_counterfactual)

    p_base = sub.add_parser("baselines", help="ACE/ACDE/ANDE/Janzing/MI/CMI table")
    add_common(p_base, with_query=False)
    p_base.add_argument("--cause", required=True)
    p_base.add_argument("--outcome", required=True)
    p_base.add_argument("--x0", type=_fraction, help="low cause value (default min of support)")
    p_base.add_argument("--x1", type=_fraction, help="high cause value (default max of support)")
    p_base.add_argument("--controlled", help="comma list for ACDE (default other parents)")
    p_base.add_argument("--mediators", help="comma list for ANDE")
    p_base.add_argument("--select", help=f"comma subset of {','.join(BASELINES)}")
    p_base.add_argument("--base", type=float, default=2.0,
                        help="log base for the Janzing strength (default 2)")
    p_base.set_defaults(func=cmd_baselines)

    p_est = sub.add_parser("estimate", help="plug-in estimate from a CSV dataset")
    p_est.add_argument("data", help="CSV file, header row of variable names")
    p_est.add_argument("--model", help="optional .sem file to validate supports against")
    p_est.add_argument("--bind", action="append", default=[])
    p_est.add_argument("--format", choices=("table", "json"), default="table")
    p_est.add_argument("--cause", required=True)
    p_est.add_argument("--outcome", required=True)
    p_est.add_argument("--given", help="comma list of conditioning variables")
    p_est.add_argument("--degree", type=_fraction, default=1.0)
    p_est.add_argument("--variant", choices=vr.VARIANTS, default="pace")
    p_est.add_argument("--sign", choices=vr.SIGNS, default="abs")
    p_est.add_argument("--covariate", help="use the covariate-weighted estimator")
    p_est.add_argument("--c0", type=_fraction, help="designated covariate stratum")
    p_est.set_defaults(func=cmd_estimate)

    p_check = sub.add_parser("check", help="cross-check DP vs brute force and matrix form")
    add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except VceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_QUERY


if __name__ == "__main__":
    sys.exit(main())
