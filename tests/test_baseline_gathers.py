"""Baselines without per-key Python: the cut target's rows as one gather and
a bincount, the interventional slices found by codes, and the information
measures' row loops in numpy.  Each is compared with the path it replaced
(kept in tests/helpers.py) as exact float hex values and error texts.
"""

import math

import numpy as np
import pytest

from helpers import (
    chain_source,
    dict_acde,
    dict_cond_entropy,
    dict_conditional_mutual_information,
    dict_entropy,
    dict_interventional_means,
    dict_joint_at,
    dict_kl_divergence,
    random_dsl_model,
    reference_cut,
    reference_joint,
)
from vce import expr as ex
from vce import model as model_module
from vce.baselines import acde, ace, cace, janzing_strength
from vce.dsl import parse_model
from vce.engine import (
    Distribution,
    build_joint,
    cond_entropy,
    conditional_mutual_information,
    entropy,
    interventional_means,
    joint_at,
    kl_divergence,
    marginal,
)
from vce.errors import VceError
from vce.model import CPT, Deterministic, FiniteSupport, Model, OutcomeTable, Root, Variable, bind
from vce.rewrites import _cut


def _outcome(fn, *args):
    """The value as exact hex, or the error's type and text."""
    try:
        got = fn(*args)
    except (VceError, ValueError) as err:
        return type(err).__name__, str(err)
    return got.hex() if isinstance(got, float) else got


def _tables(cut, model, arrows, joint):
    """Each cut target's parents, rows (zero entries dropped) and whole
    outcome array, as exact hex."""
    q_model = cut(model, arrows, joint)
    out = {}
    for target in sorted({t for _, t in arrows}):
        mech, table = q_model.mechanisms[target], q_model.outcome_table(target)
        rows = {key: {v: q.hex() for v, q in row.items() if q != 0.0} for key, row in mech.rows.items()}
        out[target] = mech.parents, rows, [q.hex() for q in table.array.ravel().tolist()]
    return out


def _reference_janzing(model, arrows, base):
    """janzing_strength over the cut, joint_at and KL as they were."""
    joint = build_joint(model)
    q = dict_joint_at(reference_cut(model, arrows, joint), list(joint.entries))
    return dict_kl_divergence(joint, q, base)


def _cace_as_it_was(model, cause, x0, x1, outcome, covariates):
    hi, lo = dict_interventional_means(model, outcome, [cause], [(x1,), (x0,)], covariates)
    return hi - lo


def _broken(rng, model):
    """The model with one CPT row halved or given a NaN entry (unvalidated):
    a row P never reads leaves P whole and breaks only the cut's local model."""
    cpts = [n for n, m in model.mechanisms.items() if isinstance(m, CPT)]
    if not cpts:
        return model
    name = cpts[int(rng.integers(0, len(cpts)))]
    rows = dict(model.mechanisms[name].rows)
    key = list(rows)[int(rng.integers(0, len(rows)))]
    if rng.random() < 0.5:
        rows[key] = {v: 0.5 * float(q) for v, q in rows[key].items()}
    else:
        rows[key] = {**rows[key], next(iter(rows[key])): math.nan}
    return Model(model.variables, {**model.mechanisms, name: CPT(model.mechanisms[name].parents, rows)})


def test_baselines_match_the_paths_they_replaced_on_random_models():
    rng = np.random.default_rng(181)
    seen = dict(models=0, several=0, shared=0, unreached=0, cut_only=0, vanish=0, zero=0,
                values=0, errors=set())
    while seen["models"] < 320:
        model = random_dsl_model(rng)
        if model.parameters:
            model = bind(model, {"p": float(rng.uniform())})
        edges = [(s, t) for t in model.mechanisms for s in model.parents(t)]
        if not edges:
            continue
        if rng.random() < 0.25:
            model = _broken(rng, model)
        seen["models"] += 1
        picked = rng.permutation(len(edges))[: int(rng.integers(1, len(edges) + 1))]
        arrows = frozenset(edges[i] for i in picked)
        targets = [t for _, t in arrows]
        seen["several"] += len(arrows) > 1
        seen["shared"] += len(targets) > len(set(targets))
        base = float(rng.choice([2.0, math.e, 3.0]))
        got = _outcome(janzing_strength, model, arrows, base)
        assert got == _outcome(_reference_janzing, model, arrows, base), arrows
        try:
            joint = build_joint(model)
        except VceError:
            continue
        tables = _outcome(_tables, _cut, model, arrows, joint)
        assert tables == _outcome(_tables, reference_cut, model, arrows, joint), arrows
        if isinstance(tables, tuple):
            seen["cut_only"] += 1
        else:
            for target, (kept, rows, _) in tables.items():
                seen["unreached"] += len(marginal(joint, list(kept))) < len(rows)

        names = [v.name for v in model.variables]
        y = names[int(rng.integers(0, len(names)))]
        given = [str(n) for n in rng.permutation([n for n in names if n != y])[: int(rng.integers(0, 3))]]
        pairs = [(entropy(marginal(joint, [y])), dict_entropy(marginal(joint, [y]))),
                 (entropy(joint), dict_entropy(joint)),
                 (cond_entropy(joint, y, given), dict_cond_entropy(joint, y, given))]
        if given:
            pairs.append((conditional_mutual_information(joint, given[0], y, given[1:]),
                          dict_conditional_mutual_information(joint, given[0], y, given[1:])))
        # Q pins the first variable's root to one value, so it may vanish where P is not 0.
        first = model.variables[0]
        pinned = Model(model.variables, {**model.mechanisms, first.name: Root(
            {float(rng.choice(first.support.values)): 1.0})})
        q = joint_at(pinned, joint)
        kl = _outcome(kl_divergence, joint, q, base)
        assert kl == _outcome(dict_kl_divergence, joint, q, base)
        seen["vanish"] += isinstance(kl, tuple)
        assert [a.hex() for a, _ in pairs] == [b.hex() for _, b in pairs]

        if len(names) < 2:
            continue
        cause, outcome = (str(n) for n in rng.choice(names, size=2, replace=False))
        support = model.support(cause)
        x0, x1 = (float(rng.choice(support.values)) for _ in range(2))
        others = [n for n in names if n not in (cause, outcome)]
        controlled = [str(n) for n in rng.permutation(others)[: int(rng.integers(0, len(others) + 1))]]
        covariates = {str(n): float(rng.choice(model.support(n).values))
                      for n in rng.permutation(names)[: int(rng.integers(1, 3))]}
        for got, want in [
            (_outcome(acde, model, cause, x0, x1, outcome, controlled),
             _outcome(dict_acde, model, cause, x0, x1, outcome, controlled)),
            (_outcome(cace, model, cause, x0, x1, outcome, covariates),
             _outcome(_cace_as_it_was, model, cause, x0, x1, outcome, covariates)),
        ]:
            assert got == want, (cause, outcome, controlled, covariates)
            if isinstance(got, tuple):
                seen["errors"].add(got[0])
                seen["zero"] += "zero probability" in got[1]
            else:
                seen["values"] += 1
    # Several arrows (into one target too), kept parent tuples that P never
    # reaches, a local model that fails only under the cut, a Q that vanishes
    # where P does not, and zero-probability conditioning events.
    assert seen["several"] > 100 and seen["shared"] > 20 and seen["unreached"] > 5, seen
    assert seen["cut_only"] > 3 and seen["vanish"] > 30 and seen["zero"] > 10, seen
    assert seen["values"] > 300 and {"ZeroProbabilityError", "EngineError"} <= seen["errors"], seen


@pytest.fixture()
def slot_reads(monkeypatch):
    """Counts outcome table fills and OutcomeTable.read calls."""
    calls = []
    fill, read = model_module._fill, OutcomeTable.read
    monkeypatch.setattr(model_module, "_fill", lambda *args: calls.append("fill") or fill(*args))
    monkeypatch.setattr(OutcomeTable, "read", lambda *args: calls.append("read") or read(*args))
    return calls


@pytest.mark.parametrize("source, arrows", [
    (chain_source(6), [("X", "Y")]),
    (chain_source(6), [("X", "Y"), ("Z2", "Y"), ("Z3", "Z4")]),
    ("var A in {0, 1}\nvar B in {0, 1, 2}\nvar C in {0, 1}\nroot A {0: 0.3, 1: 0.7}\n"
     "def B = A + A\ncpt C | A, B {(0, 0): {0: 0.9, 1: 0.1}, (0, 1): {0: 0.5, 1: 0.5}, "
     "(0, 2): {0: 0.2, 1: 0.8}, (1, 0): {0: 0.6, 1: 0.4}, (1, 1): {0: 0.25, 1: 0.75}, "
     "(1, 2): {0: 0.1, 1: 0.9}}\n", [("A", "C")]),
])
def test_joint_at_on_a_cut_model_reads_no_slot(slot_reads, source, arrows):
    model = parse_model(source)
    joint = build_joint(model)
    cut = _cut(model, frozenset(arrows), joint)
    before = len(slot_reads)
    q = joint_at(cut, joint)
    assert slot_reads[before:] == []
    assert [m.hex() for m in q.masses.tolist()] == [
        m.hex() for m in dict_joint_at(reference_cut(model, frozenset(arrows), joint),
                                       list(joint.entries)).masses.tolist()]


def test_acde_leaves_out_a_controlled_assignment_of_zero_mass():
    # M = 1 has mass 1e-200 * 1e-200, which underflows to 0.0: it stays in the
    # controlled law with mass 0 and gets no slice, so Y's row at M = 1 (an
    # unvalidated row summing to 0.5) fails no mass check.
    binary = FiniteSupport((0.0, 1.0))
    fair, half = {0.0: 0.5, 1.0: 0.5}, {0.0: 0.25, 1.0: 0.25}
    model = Model(tuple(Variable(n, binary) for n in "XMY"), {
        "X": Root({0.0: 1e-200, 1.0: 1.0}),
        "M": CPT(("X",), {(0.0,): {0.0: 1.0, 1.0: 1e-200}, (1.0,): {0.0: 1.0}}),
        "Y": CPT(("X", "M"), {(x, m): half if m else fair for x in (0.0, 1.0) for m in (0.0, 1.0)}),
    })
    law = marginal(build_joint(model), ["M"])
    assert law.masses.tolist() == [1.0, 0.0]
    got = _outcome(acde, model, "X", 0.0, 1.0, "Y", ["M"])
    assert got == _outcome(dict_acde, model, "X", 0.0, 1.0, "Y", ["M"]) == (0.0).hex()


def test_interventional_means_read_only_the_values_the_keys_use():
    # Y's row at X = 1 sums to 0.5 (unvalidated); do(X = 0) alone gives X = 1
    # no weight, so only a key at X = 1 meets that row's slice.
    binary = FiniteSupport((0.0, 1.0))
    model = Model((Variable("X", binary), Variable("Y", binary)), {
        "X": Root({0.0: 0.5, 1.0: 0.5}),
        "Y": CPT(("X",), {(0.0,): {0.0: 0.5, 1.0: 0.5}, (1.0,): {0.0: 0.25, 1.0: 0.25}}),
    })
    for x0, x1 in [(0.0, 0.0), (0.0, 1.0)]:
        assert _outcome(ace, model, "X", x0, x1, "Y") == _outcome(
            lambda *a: _cace_as_it_was(*a, None), model, "X", x0, x1, "Y")
    assert _outcome(ace, model, "X", 0.0, 0.0, "Y") == (0.0).hex()
    assert _outcome(ace, model, "X", 0.0, 1.0, "Y") == ("EngineError", "joint mass 0.5 deviates from 1")


def test_interventional_means_match_slices_whose_given_rows_come_in_another_order():
    # The joint meets do(X = 0) first, but Y = A xor X keeps X = 1's rows
    # first among those with Y = 1: the slices are matched by their codes.
    model = parse_model("var A in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                        "root A {0: 0.3, 1: 0.7}\nroot X {0: 0.5, 1: 0.5}\n"
                        "def Y = if A == X then 0 else 1\n")
    keys, given = [(0.0,), (1.0,)], {"Y": 1.0}
    got = interventional_means(model, "A", ["X"], keys, given)
    assert got == dict_interventional_means(model, "A", ["X"], keys, given) == [1.0, 0.0]


def test_cut_reads_the_target_where_only_the_cut_reaches():
    # B = A, so P reaches (A, B) = (0, 0) and (1, 1) only; cutting A -> C feeds
    # C every B with every A.  C's table is filled whole before the cut, so a
    # body that fails at A != B raises at the joint, at its first failing slot
    # (0, 1), although plain recursion never meets it.
    binary = FiniteSupport((0.0, 1.0))
    same = ex.Binary("==", ex.Name("A"), ex.Name("B"))
    arrows = frozenset([("A", "C")])
    for otherwise, want in [(ex.Num(1.0), None),
                            (ex.Name("W"), ("EvalError", "unknown identifier 'W'"))]:
        model = Model(tuple(Variable(n, binary) for n in "ABC"), {
            "A": Root({0.0: 0.5, 1.0: 0.5}),
            "B": Deterministic(("A",), body=ex.Name("A")),
            "C": Deterministic(("A", "B"), body=ex.IfElse(same, ex.Name("A"), otherwise)),
        })
        joint = reference_joint(model)
        assert list(joint.entries) == [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]
        if want is None:
            tables = _outcome(_tables, _cut, model, arrows, joint)
            assert tables == _outcome(_tables, reference_cut, model, arrows, joint)
            half, one = (0.5).hex(), (1.0).hex()
            assert tables["C"][1] == {(0.0,): {0.0: half, 1.0: half}, (1.0,): {1.0: one}}
            assert _outcome(janzing_strength, model, arrows, 2.0) == _outcome(
                _reference_janzing, model, arrows, 2.0)
        else:
            assert _outcome(build_joint, model) == want
            assert _outcome(janzing_strength, model, arrows) == want


def test_information_measures_stay_quiet_on_infinite_masses():
    # An unvalidated table may hold inf: inf / inf is NaN without a numpy
    # warning (RuntimeWarning is an error here), as the row loops gave it.
    p = Distribution(["A", "B"], {(0.0, 0.0): math.inf, (1.0, 1.0): 0.5, (1.0, 0.0): 1e-300})
    q = Distribution(["A", "B"], {(0.0, 0.0): math.inf, (1.0, 1.0): 0.25, (1.0, 0.0): 1e300})
    got = [_outcome(kl_divergence, p, q), _outcome(entropy, p), _outcome(cond_entropy, p, "B", ["A"])]
    want = [_outcome(dict_kl_divergence, p, q), _outcome(dict_entropy, p),
            _outcome(dict_cond_entropy, p, "B", ["A"])]
    assert got == want
