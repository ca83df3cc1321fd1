"""The columnar effect path: stratum table columns, the lazy breakdown view
and the report emitters agree byte for byte and bit for bit with the
per-stratum path they replaced (tests/helpers.py): _tabulate's row builder,
effect's dict breakdown and the dict-walking printers.
"""

import contextlib
import io
import math
from itertools import product

import numpy as np
import pytest

from helpers import (
    chain_source,
    load_model_text,
    random_dsl_model,
    random_effect_model,
    random_probs,
    reference_breakdown,
    reference_print_report,
    reference_tabulate,
)
from vce import cli
from vce import variational as vr
from vce.dsl import parse_model
from vce.engine import Distribution
from vce.model import Deterministic, bind
from vce.variational import (
    KERNEL_MIN_TERMS,
    EffectQuery,
    EffectReport,
    StratumTable,
    _Breakdown,
    effect,
    strata,
    variation,
)

SIGNS = ("abs", "positive", "negative")
# Finite z values (supports hold no others) with -0.0, and floats for P(z)
# and per-z values with NaN, both infinities, -0.0 and ones `.12g` rounds.
Z_POOL = (-2.5, -0.0, 1.0, 1e-12, 3.0, 1 / 3, 1e300, 7.25)
F_POOL = (0.0, -0.0, 0.5, 1 / 3, 2 / 3, 1e-320, 1e300, math.nan, math.inf, -math.inf, 0.1 + 0.2)
NAMES = ("Z", "A", "Zé", "b", "Ω1", "a b", 'q"t', "Z10", "Z2")


def _printed(printer, report, fmt) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        printer(report, fmt)
    return out.getvalue()


def _rows_bits(rows):
    return [(repr(r.key), r.probability.hex(), [p.hex() for p in r.ps], [g.hex() for g in r.gs])
            for r in rows]


def _table_bits(table: StratumTable):
    keys = table.z.keys()
    return [(repr(k), p.hex(), [x.hex() for x in ps], [g.hex() for g in gs]) for k, p, ps, gs
            in zip(keys, table.probability.tolist(), table.ps.tolist(), table.gs.tolist())]


def _reference_report(model, query, support_subset=None):
    """effect as it ran one stratum at a time: rows, the loops, a dict."""
    z_vars = vr._query_context(model, query.cause, query.outcome)
    rows, indices = reference_tabulate(model, query.cause, query.outcome, z_vars, support_subset)
    per_row = [variation(r.gs, r.ps, query.degree, query.variant, query.sign) for r in rows]
    total = 0.0
    for row, (value, _) in zip(rows, per_row):
        total += row.probability * value
    return EffectReport(query, total, z_vars, reference_breakdown(rows, indices, per_row))


def _assert_same_report(report, ref):
    assert report.value.hex() == ref.value.hex()
    assert list(report.breakdown) == list(ref.breakdown) and len(report.breakdown) == len(ref.breakdown)
    for key, want in ref.breakdown.items():
        got = report.breakdown[key]
        assert (got.probability.hex(), got.value.hex(), got.partition) \
            == (want.probability.hex(), want.value.hex(), want.partition)
    for fmt in ("table", "json"):
        assert _printed(cli._print_report, report, fmt) == _printed(reference_print_report, ref, fmt)


def _models(rng, count):
    """(model, cause, outcome): random effect models (unvalidated, so g is
    read through g_in where the joint left a slot) and bound DSL models on
    every arrow into a deterministic node."""
    out = []
    while len(out) < count:
        if len(out) % 2:
            out.append(random_effect_model(rng, max_z=3))
            continue
        model = random_dsl_model(rng)
        model = bind(model, {"p": float(rng.uniform())}) if model.parameters else model
        out += [(model, cause, name) for name, mech in model.mechanisms.items()
                if isinstance(mech, Deterministic) for cause in mech.parents]
    return out


def test_strata_columns_match_the_row_builder():
    rng = np.random.default_rng(1601)
    seen = {"subset": 0, "several z": 0, "natural": 0}
    for model, cause, outcome in _models(rng, 320):
        z_vars = vr._query_context(model, cause, outcome)
        table = strata(model, cause, outcome)
        rows, indices = reference_tabulate(model, cause, outcome, z_vars)
        assert (table.z_variables, table.indices) == (z_vars, indices)
        assert _table_bits(table) == _rows_bits(rows) == _rows_bits(table.rows)
        support = model.support(cause).values
        if len(support) > 2:
            subset = sorted(rng.choice(support, size=int(rng.integers(1, len(support))), replace=False))
            sub = strata(model, cause, outcome, subset)
            want, indices = reference_tabulate(model, cause, outcome, z_vars, subset)
            assert sub.indices == indices and _table_bits(sub) == _rows_bits(want)
            seen["subset"] += 1
        seen["several z"] += len(z_vars) > 1
        if z_vars and rng.random() < 0.3:  # natural availability: g is the cause itself
            table = vr._tabulate(model, cause, None, z_vars[:1])
            assert _table_bits(table) == _rows_bits(reference_tabulate(model, cause, None, z_vars[:1])[0])
            seen["natural"] += 1
    assert min(seen.values()) >= 30, seen


def _wide_model(rng):
    """A 40- to 60-value cause over three strata: each call takes the kernel."""
    l = int(rng.integers(40, 61))
    px = ", ".join(f"{x}: {p!r}" for x, p in enumerate(random_probs(rng, l, allow_zero=True)))
    return parse_model(f"var X in {{{', '.join(map(str, range(l)))}}}\nvar Z in {{0, 1, 2}}\n"
                       f"var Y in {{0, 1, 2, 3}}\nroot X {{{px}}}\nroot Z {{0: 0.25, 1: 0.25, 2: 0.5}}\n"
                       "def Y = if X > 10 + Z then Z else if X < 5 then 3 else 1\n")


def test_effect_reports_match_the_per_stratum_path():
    rng = np.random.default_rng(1602)
    seen = {"kernel": 0, "loops": 0, "no z": 0}
    cases = _models(rng, 300) + [(parse_model(chain_source(k)), "X", "Y") for k in (2, 5, 9, 10)]
    cases += [(_wide_model(rng), "X", "Y") for _ in range(12)]
    for model, cause, outcome in cases:
        query = EffectQuery(cause, outcome, float(rng.choice((0.0, 1 / 3, 1.0, 2.0))),
                            str(rng.choice(vr.VARIANTS)), str(rng.choice(SIGNS)))
        report = effect(model, query)
        _assert_same_report(report, _reference_report(model, query))
        table = report.breakdown.table
        terms = table.gs.size * (table.gs.shape[1] - 1) // 2
        seen["kernel" if terms >= KERNEL_MIN_TERMS else "loops"] += 1
        seen["no z"] += not table.z_variables
    assert seen["loops"] >= 250 and seen["kernel"] >= 8 and seen["no z"] >= 20, seen


def _random_table(rng):
    """A stratum table as `stratify` leaves one: z values as codes into
    ascending value tables, strata in ascending key order, each once."""
    names = list(rng.choice(NAMES, size=int(rng.integers(0, 4)), replace=False))
    supports = [tuple(sorted(set(rng.choice(Z_POOL, size=int(rng.integers(1, 5))).tolist())))
                for _ in names]
    space = list(product(*(range(len(s)) for s in supports)))
    keep = sorted(rng.choice(len(space), size=int(rng.integers(1, min(len(space), 40) + 1)),
                             replace=False).tolist())
    codes = np.array([space[i] for i in keep], dtype=np.intp).reshape(len(keep), len(names))
    probability = rng.choice(F_POOL, size=len(keep))
    z = Distribution(names, columns=(supports, list(codes.T), probability))
    indices = tuple(sorted(rng.choice(8, size=int(rng.integers(1, 6)), replace=False).tolist()))
    blank = np.zeros((len(keep), len(indices)))
    return StratumTable(z, blank, blank, indices, "Y")


def _random_chain(rng, l):
    if l < 2 or rng.random() < 0.25:
        return None
    if rng.random() < 0.2:
        return (0, 1)  # every term 0
    return tuple(sorted(rng.choice(l, size=int(rng.integers(2, l + 1)), replace=False).tolist()))


def test_emitters_match_the_dict_printers_on_random_reports():
    rng = np.random.default_rng(1603)
    seen = {"nan": 0, "inf": 0, "-0.0": 0, "no z": 0, "null": 0, "non-ascii": 0, "one z": 0}
    for _ in range(400):
        table = _random_table(rng)
        l = len(table.indices)
        per_row = [(float(rng.choice(F_POOL)), _random_chain(rng, l)) for _ in table.probability]
        query = EffectQuery(str(rng.choice(NAMES)), "Yé" if rng.random() < 0.3 else "Y",
                            float(rng.choice((0.0, 1 / 3, 1.0, 1e-7))), str(rng.choice(vr.VARIANTS)),
                            str(rng.choice(SIGNS)))
        value = float(rng.choice(F_POOL))
        report = EffectReport(query, value, table.z_variables, _Breakdown(table, per_row))
        rows = table.rows
        ref = EffectReport(query, value, table.z_variables,
                           reference_breakdown(rows, table.indices, per_row))
        for fmt in ("table", "json"):
            assert _printed(cli._print_report, report, fmt) == _printed(reference_print_report, ref, fmt)
        floats = [value, *table.probability.tolist(), *(v for v, _ in per_row)]
        seen["nan"] += any(math.isnan(f) for f in floats)
        seen["inf"] += any(math.isinf(f) for f in floats)
        seen["-0.0"] += any(math.copysign(1.0, v) < 0 and v == 0 for s in table.z.values for v in s)
        seen["no z"] += not table.z_variables
        seen["one z"] += len(table.z_variables) == 1
        seen["null"] += any(chain is None for _, chain in per_row)
        seen["non-ascii"] += any(not name.isascii() for name in table.z_variables)
    assert min(seen.values()) >= 50, seen


def test_reports_of_the_example_models_match():
    for name in ("bsc", "crossover", "ramp_reset", "rare_disease", "sprinkler", "sprinkler_functional"):
        model = parse_model(load_model_text(f"{name}.sem"))
        model = bind(model, {"p": 0.3}) if model.parameters else model
        for outcome, mech in model.mechanisms.items():
            if isinstance(mech, Deterministic):
                for cause in mech.parents:
                    for variant, sign in product(vr.VARIANTS, SIGNS):
                        query = EffectQuery(cause, outcome, 1.0, variant, sign)
                        _assert_same_report(effect(model, query), _reference_report(model, query))


def test_len_of_a_breakdown_builds_nothing(monkeypatch):
    model = parse_model(chain_source(6))
    report = effect(model, EffectQuery("X", "Y"))  # builds no ZSlice either

    def refuse(*args, **kwargs):
        raise AssertionError("a per-stratum object was built")

    monkeypatch.setattr(vr, "ZSlice", refuse)
    monkeypatch.setattr(vr, "Partition", refuse)
    assert len(report.breakdown) == 64
    assert "_at" not in vars(report.breakdown)  # nor the key index
    cli._print_report(report, "json")  # the emitters read the columns
    monkeypatch.undo()
    key = next(iter(report.breakdown))
    assert isinstance(report.breakdown[key], vr.ZSlice)


def test_breakdown_is_a_read_only_mapping():
    report = effect(parse_model(chain_source(2)), EffectQuery("X", "Y"))
    assert list(report.breakdown) == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert (9.0, 9.0) not in report.breakdown
    with pytest.raises(TypeError):
        report.breakdown[(0.0, 0.0)] = None
    assert dict(report.breakdown) == {k: report.breakdown[k] for k in report.breakdown}
