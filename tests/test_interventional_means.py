"""Interventional means from one enumeration, the observational joint built
once per model, and joint_at with shared factor prefixes: each gives the
floats and the errors of the per-intervention and per-key paths they replace.
"""

import random
import re

import numpy as np
import pytest

from helpers import (
    chain_source,
    evaluate_slot,
    random_dsl_model,
    random_probs,
    reference_expectation_under,
    reference_joint_at,
)
from vce import engine
from vce import expr as ex
from vce.baselines import ace, acde, cace
from vce.cli import main
from vce.dsl import parse_model
from vce.engine import (
    build_joint,
    expectation_under,
    interventional_means,
    joint_at,
    kl_divergence,
    marginal,
)
from vce.errors import AbsoluteContinuityError, EvalError, StateSpaceError, VceError
from vce.model import CPT, Deterministic, FiniteSupport, Model, Root, Variable, bind
from vce.rewrites import _cut
from vce.variational import ace_flavored_effect, variation


def _bound(rng, model):
    return bind(model, {"p": float(rng.uniform())}) if model.parameters else model


def _outcome(fn, *args):
    """The value as exact hex, or the error's type and text."""
    try:
        return fn(*args).hex()
    except VceError as err:
        return type(err).__name__, str(err)


# The callers as they computed before, one intervened joint per mean.


def _ref_ace(model, cause, x0, x1, outcome):
    return (reference_expectation_under(model, outcome, {cause: x1})
            - reference_expectation_under(model, outcome, {cause: x0}))


def _ref_cace(model, cause, x0, x1, outcome, covariates):
    return (reference_expectation_under(model, outcome, {cause: x1}, covariates)
            - reference_expectation_under(model, outcome, {cause: x0}, covariates))


def _ref_acde(model, cause, x0, x1, outcome, controlled):
    if not controlled:
        return _ref_ace(model, cause, x0, x1, outcome)
    total = 0.0
    for m_key, pm in marginal(build_joint(model), list(controlled)).items():
        if pm <= 0.0:
            continue
        do = dict(zip(controlled, m_key))
        total += pm * (reference_expectation_under(model, outcome, {**do, cause: x1})
                       - reference_expectation_under(model, outcome, {**do, cause: x0}))
    return total


def _ref_ace_flavored(model, cause, outcome, degree, variant, sign):
    px = marginal(build_joint(model), [cause])
    xs = model.support(cause).values
    ms = [reference_expectation_under(model, outcome, {cause: x}) for x in xs]
    return variation(ms, [px.probability((x,)) for x in xs], degree, variant, sign)[0]


def _caller_value(rng, support):
    """A support value, 4e-10 off one (snapped), or off the support."""
    roll = rng.random()
    value = float(rng.choice(support.values))
    if roll < 0.25:
        return value + 4e-10
    if roll < 0.3:
        return support.values[-1] + 0.5
    return value


def test_interventional_means_match_one_joint_per_intervention_on_random_models():
    rng = np.random.default_rng(71)
    seen = {"values": 0, "errors": set(), "equal": 0, "zero": 0}
    for _ in range(320):
        model = _bound(rng, random_dsl_model(rng))
        names = [v.name for v in model.variables]
        if len(names) < 2:
            continue
        cause, outcome = (str(n) for n in rng.choice(names, size=2, replace=False))
        support = model.support(cause)
        x0, x1 = _caller_value(rng, support), _caller_value(rng, support)
        if rng.random() < 0.2:
            x1 = x0
            seen["equal"] += 1
        others = [n for n in names if n not in (cause, outcome)]
        controlled = [str(n) for n in rng.permutation(others)[: int(rng.integers(0, len(others) + 1))]]
        covariates = {str(n): float(rng.choice(model.support(n).values))
                      for n in rng.permutation(names)[: int(rng.integers(1, 3))]}
        do = {cause: x1, **{n: float(rng.choice(model.support(n).values)) for n in controlled}}
        degree = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        variant = str(rng.choice(["pace", "peace", "space", "apace"]))
        pairs = [
            (_outcome(expectation_under, model, outcome, do),
             _outcome(reference_expectation_under, model, outcome, do)),
            (_outcome(ace, model, cause, x0, x1, outcome),
             _outcome(_ref_ace, model, cause, x0, x1, outcome)),
            (_outcome(cace, model, cause, x0, x1, outcome, covariates),
             _outcome(_ref_cace, model, cause, x0, x1, outcome, covariates)),
            (_outcome(acde, model, cause, x0, x1, outcome, controlled),
             _outcome(_ref_acde, model, cause, x0, x1, outcome, controlled)),
            (_outcome(ace_flavored_effect, model, cause, outcome, degree, variant, "abs"),
             _outcome(_ref_ace_flavored, model, cause, outcome, degree, variant, "abs")),
        ]
        off = [x for x in (x0, x1) if x not in support]
        for got, want in pairs:
            if off and got != want:
                # All values are snapped before the one enumeration, so an
                # off-support value is reported ahead of the other key's error.
                assert got[0] == "ModelError" and got[1] in {
                    f"value {x!r} not in support {support.values}" for x in off}
                assert isinstance(want, tuple), (got, want)
                continue
            assert got == want, (cause, outcome, x0, x1, controlled, covariates)
            if isinstance(got, tuple):
                seen["errors"].add(got[0])
                seen["zero"] += "zero probability" in got[1]
            else:
                seen["values"] += 1
    # The draws reach values, snapped and x0 == x1 calls, and both errors.
    assert seen["values"] > 1000 and seen["equal"] > 30
    assert seen["errors"] == {"ModelError", "ZeroProbabilityError"} and seen["zero"] > 20


def test_interventional_means_keep_key_order_and_repeats():
    m = parse_model(chain_source(3))
    keys = [(1.0, 5.0), (0.0, 0.0), (1.0, 5.0), (0.0, 2.0 + 4e-10)]
    got = interventional_means(m, "Y", ["Z1", "X"], keys)
    want = [reference_expectation_under(m, "Y", {"Z1": z, "X": x}) for z, x in keys]
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("row", [{0.0: 0.25, 1.0: 0.25}, {0.0: float("nan"), 1.0: 1.0}])
def test_each_slice_gets_the_mass_check_of_its_intervened_joint(row):
    # An unvalidated model whose row at X = 1 is not a distribution: only the
    # do(X = 1) slice, as only that intervened joint, fails the check.
    binary = FiniteSupport((0.0, 1.0))
    m = Model((Variable("X", binary), Variable("Y", binary)), {
        "X": Root({0.0: 0.5, 1.0: 0.5}),
        "Y": CPT(("X",), {(0.0,): {0.0: 0.5, 1.0: 0.5}, (1.0,): row}),
    })
    assert _outcome(ace, m, "X", 0.0, 0.0, "Y") == _outcome(_ref_ace, m, "X", 0.0, 0.0, "Y")
    got = _outcome(ace, m, "X", 0.0, 1.0, "Y")
    assert got == _outcome(_ref_ace, m, "X", 0.0, 1.0, "Y")
    assert got[0] == "EngineError" and got[1].endswith("deviates from 1")


def test_joint_at_matches_the_per_key_products_on_random_models():
    # Q re-weights or pins P's first root (so Q may vanish on P's support), or
    # is the model with an arrow cut; keys in P's order, reversed and shuffled.
    rng = np.random.default_rng(72)
    vanished = 0
    for i in range(200):
        p_model = _bound(rng, random_dsl_model(rng))
        first = p_model.variables[0]
        values = first.support.values
        if i % 3 == 0:
            root = Root({float(rng.choice(values)): 1.0})
        else:
            root = Root(dict(zip(values, random_probs(rng, len(values)))))
        q_model = Model(p_model.variables, {**p_model.mechanisms, first.name: root})
        joint = build_joint(p_model)
        edges = [(s, t) for t in p_model.mechanisms for s in p_model.parents(t)]
        if i % 3 == 2 and edges:
            q_model = _cut(p_model, frozenset([edges[int(rng.integers(0, len(edges)))]]), joint)
        keys = list(joint.entries)
        for order in (keys, keys[::-1], [keys[j] for j in rng.permutation(len(keys))]):
            got, want = joint_at(q_model, order), reference_joint_at(q_model, order)
            assert list(got.entries) == list(want.entries) == order
            assert [q.hex() for q in got.entries.values()] == [q.hex() for q in want.entries.values()]
        try:
            expected = kl_divergence(joint, reference_joint_at(q_model, keys), base=3.0)
        except AbsoluteContinuityError as err:
            vanished += 1
            with pytest.raises(AbsoluteContinuityError, match=re.escape(str(err))):
                kl_divergence(joint, joint_at(q_model, keys), base=3.0)
        else:
            assert kl_divergence(joint, joint_at(q_model, keys), base=3.0) == expected
    assert vanished > 10


def test_joint_at_off_the_support_fails_as_the_per_key_products_do():
    m = parse_model("var X in {0, 1}\nvar Y in {0, 2}\nroot X {0: 1}\ndef Y = X * 2\n")
    # The mass vanishes at X = 1 before Y's value is looked up.
    keys = [(0.0, 0.0), (1.0, 2.0), (1.0, 7.0), (0.0, 2.0)]
    got, want = joint_at(m, keys), reference_joint_at(m, keys)
    assert list(got.entries.items()) == list(want.entries.items()) == [
        ((0.0, 0.0), 1.0), ((1.0, 2.0), 0.0), ((1.0, 7.0), 0.0), ((0.0, 2.0), 0.0)]
    for key in [(0.0, 1.0), (1e-12, 0.0)]:  # a value that is not exactly a support value
        with pytest.raises(ValueError):
            reference_joint_at(m, [(0.0, 0.0), key])
        with pytest.raises(ValueError):
            joint_at(m, [(0.0, 0.0), key])


def test_marginal_sums_in_entry_order():
    rng = random.Random(73)
    keys = [tuple(float(rng.randrange(3)) for _ in range(3)) for _ in range(60)]
    joint = engine.Distribution(("A", "B", "C"), {k: rng.random() for k in keys})
    for variables in ([], ["B"], ["C", "A"], ["A", "B", "C"]):
        cols = [joint.column(v) for v in variables]
        want: dict = {}
        for key, p in joint.entries.items():
            sub = tuple(key[c] for c in cols)
            want[sub] = want.get(sub, 0.0) + p
        got = marginal(joint, variables).entries
        assert list(got) == list(want) and [v.hex() for v in got.values()] == [
            v.hex() for v in want.values()]


# --- one observational joint per model -----------------------------------------


@pytest.fixture()
def enumerations(monkeypatch):
    """Counts full enumerations of a model (engine._enumerate calls)."""
    calls = []
    real = engine._enumerate

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(engine, "_enumerate", counted)
    return calls


def test_baselines_enumerations_do_not_grow_with_the_support(tmp_path, capsys, enumerations):
    counts = {}
    for k in (6, 9):
        path = tmp_path / f"chain{k}.sem"
        path.write_text(chain_source(k), encoding="utf-8")
        before = len(enumerations)
        assert main(["baselines", str(path), "--cause", "X", "--outcome", "Y",
                     "--select", "ace,acde,mi,cmi,janzing"]) == 0
        counts[k] = len(enumerations) - before
    assert "ACDE" in capsys.readouterr().out
    # The observational joint and one indicator model each for ACE and ACDE;
    # the cut target's rows are one gather over its parents, not an enumeration.
    assert counts == {6: 3, 9: 3}


def test_build_joint_is_kept_on_the_model(enumerations, monkeypatch):
    m = parse_model(chain_source(3))
    joint = build_joint(m)
    assert build_joint(m) is joint
    assert len(enumerations) == 1
    assert build_joint(parse_model(chain_source(3))) is not joint  # per model
    monkeypatch.setenv("VCE_STATE_LIMIT", "10")
    with pytest.raises(StateSpaceError, match="exceeds limit 10"):
        build_joint(m)


def test_acde_reads_every_slice_of_the_indicator_model():
    # M2 = 1 - M1, so (M1, M2) = (1, 1) has zero probability and no
    # intervened joint at it is ever built; Y's body fails only there.  Y's
    # table is filled whole, at its first slot that fails, (X, M1, M2) =
    # (0, 1, 1), so every controlled set raises plain evaluation's error there.
    binary = FiniteSupport((0.0, 1.0))
    both = ex.Binary("and", ex.Binary("==", ex.Name("M1"), ex.Num(1.0)),
                     ex.Binary("==", ex.Name("M2"), ex.Num(1.0)))
    m = Model(
        tuple(Variable(n, binary) for n in ("X", "M1", "M2", "Y")),
        {
            "X": Root({0.0: 0.5, 1.0: 0.5}),
            "M1": Root({0.0: 0.5, 1.0: 0.5}),
            "M2": Deterministic(("M1",), body=ex.Binary("-", ex.Num(1.0), ex.Name("M1"))),
            "Y": Deterministic(("X", "M1", "M2"),
                               body=ex.IfElse(both, ex.Name("W"), ex.Name("X"))),
        },
    )
    with pytest.raises(EvalError) as plain:
        evaluate_slot(m.support("Y"), m.mechanisms["Y"], (0.0, 1.0, 1.0))
    assert str(plain.value) == "unknown identifier 'W'"
    for controlled in (["M1", "M2"], ["M1"]):
        for fn in (acde, _ref_acde):
            with pytest.raises(EvalError, match=f"^{re.escape(str(plain.value))}$"):
                fn(m, "X", 0.0, 1.0, "Y", controlled)