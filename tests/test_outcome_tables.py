"""Each node's conditional is evaluated once per parent tuple, mechanism and
supports, into one array filled whole, and every reader of the outcome
tables sees what plain evaluation gives: the same joint bit for bit, the same
values, and the error of the first failing slot of the first failing table.
"""

import re
from itertools import product

import numpy as np
import pytest

from helpers import (
    chain_source,
    evaluate_slot,
    joint_bits,
    mixed_models,
    random_dsl_model,
    random_probs,
    reference_joint,
)
from vce import expr as ex
from vce.cli import main
from vce.dsl import parse_model
from vce.engine import build_joint, deterministic_value, intervene, joint_at, kl_divergence
from vce.errors import AbsoluteContinuityError, EngineError, EvalError, ModelError, VceError
from vce.model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    Root,
    TableRows,
    Variable,
    bind,
    snap_to_support,
)


def _bound(rng, model):
    return bind(model, {"p": float(rng.uniform())}) if model.parameters else model


def _pinned(model, do):
    """The intervened model built by hand, without engine.intervene."""
    mechanisms = dict(model.mechanisms)
    for name, value in do.items():
        mechanisms[name] = Root({snap_to_support(model.support(name), value): 1.0})
    return Model(model.variables, mechanisms, model.parameters)


@pytest.fixture()
def value_calls(monkeypatch):
    """Counts Deterministic.value calls: a `fun` table read, or a body
    evaluated at one parent tuple (the scalar path)."""
    calls = []
    real = Deterministic.value

    def counted(mech, parent_values):
        calls.append(parent_values)
        return real(mech, parent_values)

    monkeypatch.setattr(Deterministic, "value", counted)
    return calls


@pytest.fixture()
def grid_fills(monkeypatch):
    """The body of each expr.evaluate_grid call: one per `def` table block filled."""
    bodies = []
    real = ex.evaluate_grid

    def counted(body, columns):
        bodies.append(body)
        return real(body, columns)

    monkeypatch.setattr(ex, "evaluate_grid", counted)
    return bodies


def test_build_joint_matches_reference_on_random_models():
    rng = np.random.default_rng(51)
    interventions = 0
    for _ in range(300):
        model = _bound(rng, random_dsl_model(rng))
        assert joint_bits(build_joint(model)) == joint_bits(reference_joint(model))
        names = [v.name for v in model.variables]
        for _ in range(2):
            chosen = rng.choice(len(names), size=int(rng.integers(1, len(names) + 1)),
                                replace=False)
            do = {}
            for i in sorted(chosen):
                values = model.support(names[i]).values
                # Caller values within 1e-9 of a support value are snapped.
                do[names[i]] = float(rng.choice(values)) + float(rng.choice([0.0, 4e-10]))
            got = build_joint(intervene(model, do))
            assert joint_bits(got) == joint_bits(reference_joint(_pinned(model, do))), do
            interventions += 1
        # The tables filled above serve a second build of the same model.
        assert joint_bits(build_joint(model)) == joint_bits(reference_joint(model))
    assert interventions == 600


def test_shared_deterministic_instance_keeps_values_per_supports():
    shared = Deterministic(("X",), body=ex.Name("X"))

    def model(x_support, y_support):
        x = Variable("X", FiniteSupport(x_support))
        return Model(
            (x, Variable("Y", FiniteSupport(y_support))),
            {"X": Root({v: 1.0 / len(x_support) for v in x_support}), "Y": shared},
        )

    a = model((0.0, 1.0), (0.0, 1.0))
    b = model((0.0, 1.0), (-1.0, 0.0, 1.0))  # another support for the node
    c = model((1.0, 2.0), (0.0, 1.0, 2.0))
    d = model((0.0, 2.0), (0.0, 1.0, 2.0))  # c with another support for the parent
    for _ in range(2):
        for m in (a, b, c, d, a):
            assert joint_bits(build_joint(m)) == joint_bits(reference_joint(m))
            for x in m.support("X").values:
                assert deterministic_value(m, "Y", {"X": x}) == x
    assert build_joint(b).entries == {(0.0, 0.0): 0.5, (1.0, 1.0): 0.5}
    assert build_joint(c).entries == {(1.0, 1.0): 0.5, (2.0, 2.0): 0.5}
    assert build_joint(d).entries == {(0.0, 0.0): 0.5, (2.0, 2.0): 0.5}


def _failing_models(reach: float):
    """X = 1 has probability `reach`; each Y fails only at X = 1."""
    x = Variable("X", FiniteSupport((0.0, 1.0)))
    y = Variable("Y", FiniteSupport((0.0, 1.0)))
    root = Root({0.0: 1.0 - reach, 1.0: reach})
    bodies = {
        "unknown identifier": Deterministic(
            ("X",), body=ex.IfElse(ex.Binary("==", ex.Name("X"), ex.Num(0.0)),
                                   ex.Num(0.0), ex.Name("W"))),
        "value outside support": Deterministic(
            ("X",), body=ex.Binary("*", ex.Name("X"), ex.Num(2.0))),
        "missing table row": Deterministic(("X",), table={(0.0,): 0.0}),
    }
    return {k: Model((x, y), {"X": root, "Y": mech}) for k, mech in bodies.items()}


# Plain evaluation's error at X = 1, the first (and only) failing slot of Y.
_FIRST_FAILURES = {
    "unknown identifier": (EvalError, "unknown identifier 'W'"),
    "value outside support": (ModelError, "value 2.0 not in support (0.0, 1.0)"),
    "missing table row": (ModelError, "deterministic table has no row for (1.0,)"),
}


def test_failure_at_an_unreachable_parent_tuple_raises_at_the_fill():
    # P(X = 1) = 0: plain recursion never evaluates Y there and builds, but
    # Y's table is filled whole, so every reader of it raises.
    for kind, model in _failing_models(0.0).items():
        assert reference_joint(model).entries == {(0.0, 0.0): 1.0}
        kind_of, text = _FIRST_FAILURES[kind]
        with pytest.raises(kind_of, match=f"^{re.escape(text)}$"):
            evaluate_slot(model.support("Y"), model.mechanisms["Y"], (1.0,))
        with pytest.raises(kind_of, match=f"^{re.escape(text)}$"):
            build_joint(model)
        with pytest.raises(kind_of, match=f"^{re.escape(text)}$"):
            deterministic_value(model, "Y", {"X": 0.0})


@pytest.mark.parametrize("kind", ["unknown identifier", "value outside support",
                                  "missing table row"])
def test_failure_at_a_reached_parent_tuple_raises_as_plain_evaluation(kind):
    model = _failing_models(0.5)[kind]
    with pytest.raises((EvalError, ModelError)) as expected:
        reference_joint(model)
    assert (type(expected.value), str(expected.value)) == _FIRST_FAILURES[kind]
    for _ in range(2):  # a table with a failing slot is never kept
        with pytest.raises(type(expected.value)) as got:
            build_joint(model)
        assert str(got.value) == str(expected.value)
        for x in (0.0, 1.0):
            with pytest.raises(type(expected.value)) as got:
                deterministic_value(model, "Y", {"X": x})
            assert str(got.value) == str(expected.value)
    assert "_outcome_table" not in model.mechanisms["Y"].__dict__


def test_row_entries_are_pruned_as_plain_enumeration_prunes_them():
    x = Variable("X", FiniteSupport((0.0, 1.0, 2.0)))
    for row, array in [({0.0: 0.0, 1.0: 1.0}, [0.0, 1.0, 0.0]),
                       ({0.0: -1e-10, 1.0: 1.0, 2.0: 1e-10}, [0.0, 1.0, 1e-10])]:
        m = Model((x,), {"X": Root(row)})
        assert joint_bits(build_joint(m)) == joint_bits(reference_joint(m)), row
        assert m.outcome_table("X").array.tolist() == [array]
    # A NaN entry is kept, as plain enumeration keeps it, so the joint-mass
    # check sees it and rejects the joint.
    m = Model((x,), {"X": Root({0.0: float("nan"), 1.0: 1.0})})
    assert list(reference_joint(m).entries) == [(0.0,), (1.0,)]
    with pytest.raises(EngineError, match="joint mass nan deviates from 1"):
        build_joint(m)
    assert np.flatnonzero(m.outcome_table("X").array[0]).tolist() == [0, 1]


def test_caller_values_off_the_supports_are_evaluated_not_stored(value_calls):
    m = parse_model("var X in {0, 1}\nvar Y in {0, 1, 2}\nroot X {0: 0.5, 1: 0.5}\n"
                    "def Y = X * 2\n")
    before = len(value_calls)
    assert deterministic_value(m, "Y", {"X": 1.0}) == 2.0
    assert len(value_calls) == before  # validation filled every slot
    assert deterministic_value(m, "Y", {"X": 1.0 + 1e-12}) == 2.0
    assert deterministic_value(m, "Y", {"X": 1.0 + 1e-12}) == 2.0
    assert len(value_calls) == before + 2
    assert m.outcome_table("Y").array.tolist() == [0, 2]


def test_lookups_find_the_slot_of_each_support_value(value_calls):
    # Two parents, so a slot is a mixed-radix position; -0.0 == 0.0 finds 0.0's slot.
    m = parse_model("var A in {0, 1}\nvar B in {0, 1, 2}\nvar Y in {0, 1, 2, 3}\n"
                    "root A {0: 0.5, 1: 0.5}\nroot B {0: 0.25, 1: 0.25, 2: 0.5}\ndef Y = A + B\n"
                    "cpt W | A, B {(0, 0): {0: 1}, (0, 1): {0: 0.5, 1: 0.5}, (0, 2): {1: 1},\n"
                    "(1, 0): {0: 0.25, 1: 0.75}, (1, 1): {0: 0, 1: 1}, (1, 2): {0: 0.5, 1: 0.5}}\nvar W in {0, 1}\n")
    mech, table = m.mechanisms["Y"], m.outcome_table("Y")
    before = len(value_calls)
    for a, b in product((0.0, 1.0), (0.0, 1.0, 2.0)):
        assert table.read(mech, (a, b)) == a + b
    assert table.read(mech, (-0.0, 2.0)) == 2
    assert len(value_calls) == before
    assert table.read(mech, (1.0, 2.0 + 1e-12)) == 3  # off the support: evaluated, not stored
    assert len(value_calls) == before + 1
    assert table.array.tolist() == [0, 1, 2, 1, 2, 3]
    rows = TableRows(m.outcome_table("W"))
    assert len(rows) == 6 and list(rows) == list(product((0.0, 1.0), (0.0, 1.0, 2.0)))
    assert rows[(1.0, 0.0)] == {0.0: 0.25, 1.0: 0.75}
    assert rows[(-0.0, 1.0)] == rows[(0.0, 1.0)] == {0.0: 0.5, 1.0: 0.5}
    assert rows[(1.0, 1.0)] == {1.0: 1.0}  # its nonzero entries
    for key in [(0.0,), (0.0, 1.0, 2.0), (0.0, 3.0), (0.5, 1.0), (0.0, 1.0 + 1e-12)]:
        with pytest.raises(KeyError):
            rows[key]


def test_eval_chain10_evaluates_each_outcome_once(tmp_path, capsys, value_calls, grid_fills):
    source = chain_source(10)
    body = parse_model(source).mechanisms["Y"].body
    grid_fills.clear()
    path = tmp_path / "chain10.sem"
    path.write_text(source, encoding="utf-8")
    assert main(["eval", str(path), "--cause", "X", "--outcome", "Y"]) == 0
    assert "per-z breakdown" in capsys.readouterr().out
    # Y's 4 * 2^10 slots (one per joint entry) come from one grid fill of its
    # body; no slot fails, so the scalar evaluator never runs.
    assert grid_fills == [body]
    assert value_calls == []


def test_bind_keeps_parameter_free_mechanisms_and_their_values(value_calls, grid_fills):
    source = ("param p in [0, 1]\nvar X in {0, 1, 2}\nvar Y in {0, 1, 2, 3}\n"
              "var F in {0, 1}\nroot X {0: 0.5 * p, 1: 0.5 * p, 2: 1 - p}\n"
              "def Y = X + 1\nfun F | X {(0): 0, (1): 1, (2): 1}\n")
    base = parse_model(source)
    assert len(grid_fills) == 1 and value_calls == []  # Y's table, filled by parsing
    models = [bind(base, {"p": p}) for p in (0.0, 0.3, 1.0)]
    for m in models:
        assert m.mechanisms["Y"] is base.mechanisms["Y"]
        assert m.mechanisms["F"] is base.mechanisms["F"]
        build_joint(m)
    # Binding validates each model but finds Y's table full: no grid fill.
    assert len(grid_fills) == 1
    # F's table is read once per parent tuple in all.
    assert sorted(value_calls) == [(0.0,), (1.0,), (2.0,)]


def test_joint_at_matches_the_enumerated_joint():
    # Q re-weights (even i) or pins (odd i, so Q vanishes on P's support) P's
    # first root; Q at P's entries is bit for bit Q's own joint there.
    rng = np.random.default_rng(52)
    for i in range(200):
        p_model = _bound(rng, random_dsl_model(rng))
        first = p_model.variables[0]
        values = first.support.values
        if i % 2:
            root = Root({float(rng.choice(values)): 1.0})
        else:
            root = Root(dict(zip(values, random_probs(rng, len(values)))))
        q_model = Model(p_model.variables, {**p_model.mechanisms, first.name: root})
        joint, q_joint = build_joint(p_model), build_joint(q_model)
        q_at = joint_at(q_model, joint.entries)
        assert list(q_at.entries) == list(joint.entries)
        for key, q in q_at.items():
            assert q.hex() == q_joint.probability(key).hex(), key
        try:
            expected = kl_divergence(joint, q_joint, base=3.0)
        except AbsoluteContinuityError as err:
            assert i % 2
            with pytest.raises(AbsoluteContinuityError, match=re.escape(str(err))):
                kl_divergence(joint, q_at, base=3.0)
        else:
            assert kl_divergence(joint, q_at, base=3.0) == expected


def test_topological_order_is_computed_once():
    m = parse_model("var A in {0, 1}\nvar B in {0, 1}\nroot A {0: 0.5, 1: 0.5}\ndef B = A\n")
    assert m.topological_order() is m.topological_order()
    assert m.topological_order() == ("A", "B")


def test_cpt_rows_compile_to_positive_pairs_in_support_order():
    x = Variable("X", FiniteSupport((0.0, 1.0)))
    y = Variable("Y", FiniteSupport((0.0, 1.0, 2.0)))
    rows = {(0.0,): {2.0: 0.75, 0.0: 0.25}, (1.0,): {1.0: 1.0, 2.0: 0.0}}
    m = Model((x, y), {"X": Root({0.0: 0.5, 1.0: 0.5}), "Y": CPT(("X",), rows)})
    table = m.outcome_table("Y")
    assert table.read(m.mechanisms["Y"], (0.0,)).tolist() == [0.25, 0.0, 0.75]
    assert table.read(m.mechanisms["Y"], (1.0,)).tolist() == [0.0, 1.0, 0.0]
    assert table.array.tolist() == [[0.25, 0.0, 0.75], [0.0, 1.0, 0.0]]
    assert list(product(*table.parents)) == list(rows)


# --- the whole fill against plain evaluation, slot by slot --------------------


def _plain_array(model, name):
    """`name`'s outcome array by plain evaluation in slot order (support
    indices, or rows of float hex); raises at the first failing slot."""
    mech, support = model.mechanisms[name], model.support(name)
    out = []
    for key in product(*(model.support(p).values for p in mech.parents)):
        pairs = evaluate_slot(support, mech, key)
        if isinstance(mech, Deterministic):
            out.append(pairs[0][0])
            continue
        row = [0.0] * len(support)
        for i, p in pairs:
            row[i] = p
        out.append([p.hex() for p in row])
    return out


def _array(table):
    got = table.array.tolist()
    return got if table.array.ndim == 1 else [[p.hex() for p in row] for row in got]


def _broken(rng, model):
    """`model` with one mechanism that has parents failing at some slots: a
    CPT or `fun` table without one or two rows, a `fun` value off the
    support, or a body that fails at one value of its first parent, with a
    text that names the value of its last."""
    names = [n for n in model.topological_order() if model.mechanisms[n].parents]
    if not names:
        return None
    name = names[int(rng.integers(0, len(names)))]
    mech = model.mechanisms[name]
    if getattr(mech, "body", None) is not None:
        first, last = mech.parents[0], mech.parents[-1]
        at = ex.Binary("==", ex.Name(first), ex.Num(float(rng.choice(model.support(first).values))))
        fails = ex.Call("xor", (ex.Binary("+", ex.Name(last), ex.Num(0.5)), ex.Num(0.0)))
        broken = Deterministic(mech.parents, body=ex.IfElse(at, fails, mech.body))
    else:
        table = dict(mech.rows if isinstance(mech, CPT) else mech.table)
        keys = list(table)
        for i in rng.choice(len(keys), size=min(len(keys), int(rng.integers(1, 3))), replace=False):
            if isinstance(mech, CPT) or rng.random() < 0.5:
                del table[keys[int(i)]]
            else:
                table[keys[int(i)]] = 99.5
        broken = (CPT(mech.parents, table) if isinstance(mech, CPT)
                  else Deterministic(mech.parents, table=table))
    return Model(model.variables, {**model.mechanisms, name: broken}, model.parameters)


def test_tables_are_filled_whole_as_plain_evaluation_fills_them():
    seen = {"models": 0, "tables": 0, "nan": 0, "negative": 0, "failing": 0, "errors": set()}
    for rng, model in mixed_models(191, 300):
        for m in (model, _broken(rng, model)):
            if m is None:
                continue
            seen["models"] += 1
            first, want = None, {}
            for name in m.topological_order():
                try:
                    want[name] = _plain_array(m, name)
                except (VceError, KeyError) as err:  # KeyError: a CPT without the row
                    first = err
                    break
            if first is not None:
                # The first failing table in topological order raises at its
                # first failing slot, at every read, and is not kept.
                seen["failing"] += 1
                seen["errors"].add(type(first).__name__)
                for read in (build_joint, lambda m: m.outcome_table(name), build_joint):
                    with pytest.raises(type(first)) as got:
                        read(m)
                    assert str(got.value) == str(first)
            for name, array in want.items():
                assert _array(m.outcome_table(name)) == array, name
                seen["tables"] += 1
                seen["nan"] += "nan" in str(array)
                mech = m.mechanisms[name]
                rows = [mech.table] if isinstance(mech, Root) else getattr(mech, "rows", {}).values()
                seen["negative"] += any(p < 0.0 for row in rows for p in row.values())
    assert seen["models"] >= 600 and seen["tables"] >= 1500 and seen["failing"] >= 150, seen
    assert seen["nan"] >= 10 and seen["negative"] >= 10, seen
    assert seen["errors"] == {"KeyError", "ModelError", "EvalError"}, seen
