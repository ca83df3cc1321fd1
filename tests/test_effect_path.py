"""The columnar effect path: stratum table columns, the lazy breakdown view,
the report emitters and the per-z functions' stratum lookup agree byte for
byte and bit for bit with the per-stratum path they replaced
(tests/helpers.py): _tabulate's row builder, effect's dict breakdown, the
dict-walking printers and the scan over every stratum's key.
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
    reference_per_z,
    reference_print_report,
    reference_tabulate,
    table_rows,
)
from vce import cli
from vce import variational as vr
from vce.dsl import parse_model
from vce.engine import Distribution
from vce.errors import ZeroProbabilityError
from vce.model import CPT, Deterministic, FiniteSupport, Model, Partition, Root, Variable, bind
from vce.variational import (
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
        assert _table_bits(table) == _rows_bits(rows) == _rows_bits(table_rows(table))
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
        seen["kernel" if vr.on_kernel(*table.gs.shape, 1, query.variant) else "loops"] += 1
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
        rows = table_rows(table)
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
    # The emitters read the columns, and spell each distinct witness once.
    built = []
    monkeypatch.setattr(vr, "Partition", lambda indices: built.append(indices) or Partition(indices))
    with contextlib.redirect_stdout(io.StringIO()):
        for fmt in ("json", "table"):
            cli._print_report(report, fmt)
    chains = {chain for _, chain in report.breakdown.per_row} - {None}
    assert len(built) == 2 * len(chains) and len(chains) < 64
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


# --- the per-z functions' stratum lookup ----------------------------------------

PER_Z = ("piv", "spiv", "apiv", "piev", "brute_force_piv", "matrix_form_piev")


def _per_z_outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return "error", type(err), str(err)
    value, partition = result if isinstance(result, tuple) else (result, None)
    return "value", value.hex(), partition


def _assert_per_z_match(model, query, z, partition) -> list:
    """Every per-z function against `reference_per_z`; returns the outcomes."""
    outcomes = []
    for name in PER_Z:
        extra = (partition,) if name.endswith("piev") else ()
        got = _per_z_outcome(getattr(vr, name), model, query, z, *extra)
        assert got == _per_z_outcome(reference_per_z, name, model, query, z, *extra), (name, z)
        outcomes.append(got)
    return outcomes


def _z_inputs(rng, model, table):
    """A stratum's key as it is, 5e-10 and 1e-6 off, NaN or infinite in one
    place; keys of the Z supports with no stratum (zero probability); and
    assignments that miss or add a name."""
    names, keys = table.z_variables, table.z.keys()
    key = keys[int(rng.integers(len(keys)))]
    out = [dict(zip(names, key)), {**dict(zip(names, key)), "extra": 0.0}]
    if names:
        i = int(rng.integers(len(names)))
        for off in (5e-10, -5e-10, 1e-6, -1e-6, math.nan, math.inf, -math.inf):
            out.append(dict(zip(names, key[:i] + (key[i] + off,) + key[i + 1:])))
        absent = sorted(set(product(*(model.support(name).values for name in names))) - set(keys))
        out += [dict(zip(names, absent[a])) for a in rng.permutation(len(absent))[:3]]
        out.append(dict(zip(names[1:], key[1:])))
    return out


def _partition(rng, l):
    if l < 2 or rng.random() < 0.2:
        return Partition((0, l))  # past the cause's support
    size = int(rng.integers(2, l + 1))
    return Partition(tuple(sorted(rng.choice(l, size=size, replace=False).tolist())))


def test_per_z_functions_match_the_row_scan_on_random_models():
    rng = np.random.default_rng(2201)
    seen = {"value": 0, "zero probability": 0, "z names": 0, "partition": 0, "zero-mass key": 0,
            "no z": 0}
    for model, cause, outcome in _models(rng, 160):
        if "Z0" in model.mechanisms and rng.random() < 0.5:  # Z0's first value of mass 0
            values = model.support("Z0").values
            dead = Root(dict(zip(values, [0.0] + random_probs(rng, len(values) - 1))))
            model = Model(model.variables, {**model.mechanisms, "Z0": dead})
        table = strata(model, cause, outcome)
        seen["no z"] += not table.z_variables
        query = EffectQuery(cause, outcome, float(rng.choice((0.0, 0.3, 1.0, 2.0))),
                            sign=str(rng.choice(SIGNS)))
        for z in _z_inputs(rng, model, table):
            key = tuple(z.get(name) for name in table.z_variables)
            seen["zero-mass key"] += (len(z) == len(key) and key not in table.z.keys()
                                      and all(v in model.support(n).values for n, v in z.items()))
            for kind, *rest in _assert_per_z_match(model, query, z, _partition(rng, len(table.indices))):
                text = rest[1] if kind == "error" else ""
                seen["value" if kind == "value" else "zero probability" if "zero probability" in text
                     else "z names" if text.startswith("z must") else "partition"] += 1
    assert min(seen.values()) >= 50, seen


def test_per_z_functions_take_the_first_stratum_within_tolerance():
    # Z's values 0 and 1e-10 both lie within 1e-9 of either.  Where P(Z = 0) is
    # 0, z = 0 reads the stratum Z = 1e-10, which snapping z to Z's first
    # support value would miss; where both strata are there, it reads Z = 0.
    x = Variable("X", FiniteSupport((0.0, 1.0, 2.0)))
    y = Variable("Y", FiniteSupport((0.0, 1.0, 2.0)))
    for masses in ({0.0: 0.0, 1e-10: 0.5, 1.0: 0.5}, {0.0: 0.25, 1e-10: 0.25, 1.0: 0.5}):
        z = Variable("Z", FiniteSupport(tuple(masses)))
        model = Model((z, x, y), {
            "Z": Root(masses),
            "X": CPT(("Z",), {(0.0,): {0.0: 0.2, 1.0: 0.3, 2.0: 0.5},
                              (1e-10,): {0.0: 0.6, 1.0: 0.1, 2.0: 0.3},
                              (1.0,): {0.0: 0.1, 1.0: 0.8, 2.0: 0.1}}),
            "Y": Deterministic(("X", "Z"), table={
                (a, b): {0.0: a, 1e-10: 2.0 - a, 1.0: min(a, 1.0)}[b]
                for a in x.support.values for b in z.support.values}),
        })
        query = EffectQuery("X", "Y", 0.5)
        got = {value: _assert_per_z_match(model, query, {"Z": value}, Partition((0, 2)))
               for value in (0.0, 5e-11, 1e-10, -5e-10, 6e-10, -1e-9, 1.05e-9, 1e-6, 1.0, 1.0 + 5e-10)}
        near = [got[value] for value in (0.0, 5e-11, 1e-10, -5e-10, 6e-10)]  # near both
        assert near == [near[0]] * 5 != [got[1.0]] * 5
        if masses[0.0]:  # those read Z = 0's stratum; 1e-9 off 0 still does, 1.05e-9 does not
            assert got[-1e-9] == near[0] != got[1.05e-9]
        else:  # those read Z = 1e-10's stratum; 1e-9 below 0 reads none
            assert got[1.05e-9] == near[0] and got[-1e-9][0][:2] == ("error", ZeroProbabilityError)
        assert got[1e-6][0][0] == "error" and got[1.0 + 5e-10] == got[1.0]
