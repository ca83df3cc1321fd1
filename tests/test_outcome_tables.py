"""Each node's conditional is evaluated once per parent tuple, mechanism and
supports, and every reader of the outcome tables sees what plain evaluation
gives: the same joint bit for bit, the same values and the same errors.
"""

import re
from itertools import product

import numpy as np
import pytest

from helpers import chain_source, joint_bits, random_dsl_model, random_probs, reference_joint
from vce import expr as ex
from vce.cli import main
from vce.dsl import parse_model
from vce.engine import build_joint, deterministic_value, intervene, joint_at, kl_divergence
from vce.errors import AbsoluteContinuityError, EngineError, EvalError, ModelError
from vce.model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    Root,
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


def test_failure_at_an_unreachable_parent_tuple_still_builds():
    for model in _failing_models(0.0).values():
        assert build_joint(model).entries == {(0.0, 0.0): 1.0}
        assert deterministic_value(model, "Y", {"X": 0.0}) == 0.0


@pytest.mark.parametrize("kind", ["unknown identifier", "value outside support",
                                  "missing table row"])
def test_failure_at_a_reached_parent_tuple_raises_as_plain_evaluation(kind):
    model = _failing_models(0.5)[kind]
    with pytest.raises((EvalError, ModelError)) as expected:
        reference_joint(model)
    for _ in range(2):  # a failure is never stored
        with pytest.raises(type(expected.value)) as got:
            build_joint(model)
        assert str(got.value) == str(expected.value)
        with pytest.raises(type(expected.value)) as got:
            deterministic_value(model, "Y", {"X": 1.0})
        assert str(got.value) == str(expected.value)
    assert model.outcome_table("Y").slots == [((0, 1.0),), None]


def test_row_entries_are_pruned_as_plain_enumeration_prunes_them():
    x = Variable("X", FiniteSupport((0.0, 1.0, 2.0)))
    for row in ({0.0: 0.0, 1.0: 1.0}, {0.0: -1e-10, 1.0: 1.0, 2.0: 1e-10}):
        m = Model((x,), {"X": Root(row)})
        assert joint_bits(build_joint(m)) == joint_bits(reference_joint(m)), row
    # A NaN entry is kept, as plain enumeration keeps it, so the joint-mass
    # check sees it and rejects the joint.
    m = Model((x,), {"X": Root({0.0: float("nan"), 1.0: 1.0})})
    assert list(reference_joint(m).entries) == [(0.0,), (1.0,)]
    with pytest.raises(EngineError, match="joint mass nan deviates from 1"):
        build_joint(m)
    assert [i for i, _ in m.outcome_table("X").slots[0]] == [0, 1]


def test_caller_values_off_the_supports_are_evaluated_not_stored(value_calls):
    m = parse_model("var X in {0, 1}\nvar Y in {0, 1, 2}\nroot X {0: 0.5, 1: 0.5}\n"
                    "def Y = X * 2\n")
    before = len(value_calls)
    assert deterministic_value(m, "Y", {"X": 1.0}) == 2.0
    assert len(value_calls) == before  # validation filled every slot
    assert deterministic_value(m, "Y", {"X": 1.0 + 1e-12}) == 2.0
    assert deterministic_value(m, "Y", {"X": 1.0 + 1e-12}) == 2.0
    assert len(value_calls) == before + 2
    assert m.outcome_table("Y").slots == [((0, 1.0),), ((2, 1.0),)]


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
    assert table.read(m.mechanisms["Y"], (0.0,)) == ((0, 0.25), (2, 0.75))
    assert table.read(m.mechanisms["Y"], (1.0,)) == ((1, 1.0),)
    assert table.slots == [((0, 0.25), (2, 0.75)), ((1, 1.0),)]
    assert list(product(*table.parents)) == list(rows)
