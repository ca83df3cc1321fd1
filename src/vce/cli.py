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
from itertools import product
from typing import Sequence

from . import baselines as bl
from . import counterfactual as cf
from . import estimation as est
from . import variational as vr
from .dsl import parse_model
from .errors import ParseError, VceError
from .model import Model, bind, default_state_limit

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
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, sep, value = piece.partition("=")
        if not sep:
            raise VceError(f"expected NAME=VALUE, got '{piece}'")
        out[name.strip()] = _fraction(value.strip())
    return out


def _load_model(path: str, bindings: Sequence[str]) -> Model:
    with open(path, encoding="utf-8") as fh:
        model = parse_model(fh.read(), state_limit=default_state_limit())
    merged = _parse_assignments(",".join(bindings))
    if model.parameters or merged:
        model = bind(model, merged)
    return model


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _report_json(report: vr.EffectReport) -> dict:
    breakdown = []
    for key in sorted(report.breakdown):
        z = report.breakdown[key]
        breakdown.append(
            {
                "z": {name: value for name, value in zip(report.z_variables, key)},
                "probability": z.probability,
                "value": z.value,
                "partition": list(z.partition.indices) if z.partition else None,
            }
        )
    return {
        "query": {"cause": report.query.cause, "outcome": report.query.outcome},
        "degree": report.query.degree,
        "variant": report.query.variant,
        "sign": report.query.sign,
        "value": report.value,
        "breakdown": breakdown,
    }


def _print_report(report: vr.EffectReport, fmt: str):
    if fmt == "json":
        print(json.dumps(_report_json(report), indent=2, sort_keys=True))
        return
    q = report.query
    print(f"{q.variant.upper()}_{_fmt(q.degree)}({q.cause} -> {q.outcome}) "
          f"[sign={q.sign}] = {_fmt(report.value)}")
    if report.z_variables:
        header = ", ".join(report.z_variables)
        print(f"  per-z breakdown over ({header}):")
        for key in sorted(report.breakdown):
            z = report.breakdown[key]
            assign = ", ".join(_fmt(v) for v in key)
            witness = ""
            if z.partition is not None:
                witness = f"  partition={list(z.partition.indices)}"
            print(f"    z=({assign})  P(z)={_fmt(z.probability)}  value={_fmt(z.value)}{witness}")


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

    with open(args.model, encoding="utf-8") as fh:
        base = parse_model(fh.read(), state_limit=default_state_limit())
    fixed = _parse_assignments(",".join(args.bind))
    param_names = {p.name for p in base.parameters}
    for name, _ in axes:
        if name != "d" and name not in param_names:
            raise VceError(f"axis '{name}' is neither a parameter nor the degree 'd'")

    # Consecutive grid points with equal bindings share one bound model and
    # one stratum table.  Each point binds before it validates its query, so
    # the first error a grid raises is the one a per-point evaluation raises.
    rows = []
    bound_for, table = None, None
    for combo in product(*(values for _, values in axes)):
        bindings = dict(fixed)
        degree = args.degree
        for (name, _), value in zip(axes, combo):
            if name == "d":
                degree = value
            else:
                bindings[name] = value
        if bindings != bound_for:
            model = bind(base, bindings) if (base.parameters or bindings) else base
            bound_for, table = bindings, None
        query = vr.EffectQuery(args.cause, args.outcome, degree, args.variant, args.sign)
        if table is None:
            table = vr.strata(model, query.cause, query.outcome)
        value, _ = table.aggregate(query.degree, query.variant, query.sign)
        rows.append(combo + (value,))

    header = [name for name, _ in axes] + ["value"]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
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
    for key in sorted(dist.table):
        print(f"  P({args.target}={_fmt(key[0])}) = {_fmt(dist.table[key])}")
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
    rows: list[tuple[str, float]] = []
    if "ace" in selected:
        rows.append(("ACE", bl.ace(model, args.cause, x0, x1, args.outcome)))
    if "acde" in selected:
        controlled = args.controlled.split(",") if args.controlled else [
            p for p in model.parents(args.outcome) if p != args.cause
        ]
        controlled = [c for c in controlled if c]
        rows.append(("ACDE", bl.acde(model, args.cause, x0, x1, args.outcome, controlled)))
    if "ande" in selected:
        mediators = [m for m in (args.mediators or "").split(",") if m]
        rows.append(("ANDE", bl.ande(model, args.cause, x0, x1, args.outcome, mediators)))
    if "janzing" in selected:
        rows.append(
            ("Janzing", bl.janzing_strength(model, [(args.cause, args.outcome)], base=args.base))
        )
    if "mi" in selected:
        rows.append(("MI", bl.mi_strength(model, args.cause, args.outcome)))
    if "cmi" in selected:
        rows.append(("CMI", bl.cmi_strength(model, args.cause, args.outcome)))
    if args.format == "json":
        print(json.dumps({name.lower(): value for name, value in rows}, indent=2, sort_keys=True))
        return EXIT_OK
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {_fmt(value)}")
    return EXIT_OK


def cmd_estimate(args) -> int:
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
    model = _load_model(args.model, args.bind)
    query = vr.EffectQuery(args.cause, args.outcome, args.degree, "pace", args.sign)
    table = vr.strata(model, query.cause, query.outcome)
    d, sign = query.degree, query.sign
    worst = 0.0
    for row in table.rows:
        dp_value, chain = vr.total_variation(row.gs, row.ps, d, sign)
        bf_value, _ = vr.brute_force_total_variation(row.gs, row.ps, d, sign)
        worst = max(worst, abs(dp_value - bf_value))
        if chain is not None:
            direct = vr.chain_value(row.gs, row.ps, chain, d, sign)
            matrix = vr.matrix_form_chain_value(row.gs, row.ps, chain, d, sign)
            worst = max(worst, abs(direct - matrix), abs(direct - dp_value))
    checked = len(table.rows)
    if worst > ORACLE_TOL:
        print(f"MISMATCH: max deviation {worst:.3e} over {checked} z-strata")
        return EXIT_MISMATCH
    if worst < 1e-12:
        print(f"OK, max deviation < 1e-12 ({checked} z-strata)")
    else:
        print(f"OK, max deviation {worst:.3e} ({checked} z-strata)")
    return EXIT_OK


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except VceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_QUERY


if __name__ == "__main__":
    sys.exit(main())
