"""The columnar joint: support-index columns plus one mass vector, built node
by node.  Every table and every reader agrees bit for bit, in key order, with
plain recursive enumeration and with the dict readers it replaced
(tests/helpers.py), errors included.
"""

import math
import re
from itertools import product

import numpy as np
import pytest

from helpers import (
    chain_source,
    dict_cond_entropy,
    dict_conditional_mutual_information,
    dict_expectation,
    dict_interventional_means,
    dict_joint_at,
    dict_kl_divergence,
    dict_marginal,
    joint_bits,
    mixed_models,
    random_dsl_model,
    random_effect_model,
    random_probs,
    reference_conditional,
    reference_joint,
    reference_joint_at,
    table_rows,
)
from vce import engine
from vce.engine import (
    Distribution,
    _enumerate,
    build_joint,
    cond_entropy,
    conditional,
    conditional_mutual_information,
    expectation,
    interventional_means,
    intervene,
    joint_at,
    kl_divergence,
    marginal,
)
from vce.baselines import ande
from vce.counterfactual import Evidence, counterfactual_query
from vce.dsl import parse_model
from vce.errors import ModelError, VceError
from vce.model import CPT, Deterministic, FiniteSupport, Model, Root, Variable, bind
from vce.variational import strata


def _bound(rng, model):
    return bind(model, {"p": float(rng.uniform())}) if model.parameters else model


def _outcome(fn, *args):
    """The value as exact hex (a table as its keys and hex masses), or the
    error's type and text."""
    try:
        got = fn(*args)
    except (VceError, ValueError) as err:
        return type(err).__name__, str(err)
    if isinstance(got, Distribution):
        return got.variables, joint_bits(got)
    if isinstance(got, list):
        return [v.hex() for v in got]
    return got.hex()


def test_enumerate_matches_plain_recursion_on_random_models():
    seen = {"models": 0, "nan": 0, "zero": 0, "pruned": 0}
    for _, model in mixed_models(91, 330):
        want = reference_joint(model)
        got = _enumerate(model)
        assert joint_bits(got) == joint_bits(want)
        assert [len(vs) for vs in got.values] == [len(v.support) for v in model.variables]
        seen["models"] += 1
        seen["nan"] += any(math.isnan(p) for p in want.entries.values())
        seen["zero"] += 0.0 in want.entries.values()  # kept: pruning is by probability
        seen["pruned"] += len(want.entries) < model.state_space_size
    assert seen["models"] >= 300
    assert seen["nan"] >= 5 and seen["zero"] >= 5 and seen["pruned"] > 100, seen


def test_readers_match_the_dict_readers_on_random_models():
    seen = {"checks": 0, "errors": 0}
    for rng, model in mixed_models(92, 330):
        try:
            joint = build_joint(model)
        except VceError:
            continue
        names = [v.name for v in model.variables]
        oracle = Distribution(joint.variables, dict(joint.entries))  # built from a dict
        for _ in range(3):
            some = [str(n) for n in rng.permutation(names)[: int(rng.integers(0, len(names) + 1))]]
            given = {str(n): float(rng.choice(model.support(n).values) + rng.choice([0.0, 4e-10, 0.5]))
                     for n in rng.permutation(names)[: int(rng.integers(1, 3))]}
            target, x = str(rng.choice(names)), str(rng.choice(names))
            pairs = [
                (_outcome(marginal, joint, some), _outcome(dict_marginal, oracle, some)),
                (_outcome(conditional, joint, some, given),
                 _outcome(reference_conditional, oracle, some, given)),
                (_outcome(expectation, joint, target), _outcome(dict_expectation, oracle, target)),
                (_outcome(expectation, joint, target, given),
                 _outcome(dict_expectation, oracle, target, given)),
                (_outcome(cond_entropy, joint, target, some),
                 _outcome(dict_cond_entropy, oracle, target, some)),
                (_outcome(conditional_mutual_information, joint, x, target, some),
                 _outcome(dict_conditional_mutual_information, oracle, x, target, some)),
            ]
            for got, want in pairs:
                assert got == want
                seen["checks"] += 1
                seen["errors"] += isinstance(got[0], str)
    assert seen["checks"] > 3000 and seen["errors"] > 100, seen


def test_kl_divergence_and_joint_at_match_the_dict_readers():
    vanished = 0
    for rng, p_model in mixed_models(93, 300):
        try:
            joint = build_joint(p_model)
        except VceError:
            continue
        first = p_model.variables[0]
        values = first.support.values
        root = Root({float(rng.choice(values)): 1.0} if rng.random() < 0.3
                    else dict(zip(values, random_probs(rng, len(values)))))
        q_model = Model(p_model.variables, {**p_model.mechanisms, first.name: root})
        keys = list(joint.entries)
        order = [keys[j] for j in rng.permutation(len(keys))]
        for rows, listed in ((joint, keys), (keys, keys), (order, order)):
            got = _outcome(joint_at, q_model, rows)
            assert got == _outcome(dict_joint_at, q_model, listed)
            assert got == _outcome(reference_joint_at, q_model, listed)
        base = float(rng.choice([2.0, math.e, 3.0]))
        q_at = joint_at(q_model, joint)
        got = _outcome(kl_divergence, joint, q_at, base)
        from_dict = Distribution(q_at.variables, dict(q_at.entries))
        assert got == _outcome(dict_kl_divergence, joint, from_dict, base)
        vanished += got[0] == "AbsoluteContinuityError"
        # A table over other value tables, from a dict, in another order.
        shuffled = Distribution(joint.variables, dict(zip(order, map(joint.probability, order))))
        want = _outcome(dict_kl_divergence, joint, shuffled, base)
        assert _outcome(kl_divergence, joint, shuffled, base) == want
    assert vanished > 5


def test_a_mass_that_reaches_zero_stays_zero_through_a_nan_factor():
    # 1e-200 * 1e-200 underflows to 0.0 at Y; Z's row at Y = 0 is NaN.
    binary = FiniteSupport((0.0, 1.0))
    model = Model(tuple(Variable(n, binary) for n in "XYZ"), {
        "X": Root({0.0: 1e-200, 1.0: 1.0}),
        "Y": CPT(("X",), {(0.0,): {0.0: 1e-200, 1.0: 1.0}, (1.0,): {0.0: 0.5, 1.0: 0.5}}),
        "Z": CPT(("Y",), {(0.0,): {0.0: math.nan, 1.0: 1.0}, (1.0,): {0.0: 0.5, 1.0: 0.5}}),
    })
    keys = list(product((0.0, 1.0), repeat=3))
    got = joint_at(model, keys)
    assert _outcome(joint_at, model, keys) == _outcome(dict_joint_at, model, keys)
    assert _outcome(joint_at, model, keys) == _outcome(reference_joint_at, model, keys)
    assert got.probability((0.0, 0.0, 0.0)) == 0.0  # the prefix reached 0.0 before NaN
    assert math.isnan(got.probability((1.0, 0.0, 0.0)))
    # The enumeration multiplies on: 0.0 * NaN is NaN there, as plain recursion has it.
    assert joint_bits(_enumerate(model)) == joint_bits(reference_joint(model))


def test_interventional_means_match_the_per_slice_dict_path():
    seen = {"values": 0, "errors": set()}
    for rng, model in mixed_models(94, 320):
        names = [v.name for v in model.variables]
        if len(names) < 2:
            continue
        target = str(rng.choice(names))
        chosen = [str(n) for n in rng.permutation(names)[: int(rng.integers(1, len(names)))]]
        keys = [tuple(float(rng.choice(model.support(n).values)) for n in chosen)
                for _ in range(int(rng.integers(1, 5)))]
        given = None
        if rng.random() < 0.5:
            given = {str(n): float(rng.choice(model.support(n).values))
                     for n in rng.permutation(names)[: int(rng.integers(1, 3))]}
        got = _outcome(interventional_means, model, target, chosen, keys, given)
        assert got == _outcome(dict_interventional_means, model, target, chosen, keys, given)
        if isinstance(got, tuple):
            seen["errors"].add(got[0])
        else:
            seen["values"] += 1
    assert seen["values"] > 200
    assert {"EngineError", "ZeroProbabilityError"} <= seen["errors"], seen


def test_len_of_the_entries_builds_no_dict(monkeypatch):
    joint = _enumerate(parse_model(chain_source(4)))

    def refuse(self):
        raise AssertionError("the dict was built")

    monkeypatch.setattr(Distribution, "_dict", refuse)
    assert len(joint.entries) == len(joint.masses) == len(joint)
    monkeypatch.undo()
    assert len(joint.entries) == len(dict(joint.entries))


def test_grouping_numbers_groups_by_first_appearance():
    # Numbering, at every size, and the renumbering of wide keys give a
    # dict's first-appearance order.
    rng = np.random.default_rng(96)
    for n in (0, 1, 5, 64, 65, 700):
        for sizes in ([], [3], [2, 5], [40] * 6):
            codes = [rng.integers(0, s, n) for s in sizes]
            group, first = engine._group(codes, sizes, n)
            ids: dict = {}
            want = [ids.setdefault(key, len(ids)) for key in zip(*codes)] if sizes else [0] * n
            assert group.tolist() == want
            groups = len(ids) if sizes else min(n, 1)
            assert first.tolist() == [want.index(i) for i in range(groups)]


def test_interventional_means_keep_a_slice_without_rows_as_an_empty_joint():
    # Y's row at X = 1 is all zeros: the do(X = 1) slice has no rows, and its
    # mass check reads the mass of an empty joint.
    binary = FiniteSupport((0.0, 1.0))
    model = Model((Variable("X", binary), Variable("Y", binary)), {
        "X": Root({0.0: 0.5, 1.0: 0.5}),
        "Y": CPT(("X",), {(0.0,): {0.0: 0.5, 1.0: 0.5}, (1.0,): {0.0: 0.0, 1.0: 0.0}}),
    })
    want = ("EngineError", "joint mass 0 deviates from 1")
    assert _outcome(interventional_means, model, "Y", ["X"], [(1.0,)]) == want
    assert _outcome(build_joint, intervene(model, {"X": 1.0})) == want


def _dict_strata(model, cause, outcome):
    """(z, P(z), ps, gs) per stratum from dict marginals, sorted by z."""
    joint = Distribution(build_joint(model).variables, dict(build_joint(model).entries))
    parents = model.mechanisms[outcome].parents
    z_vars = [p for p in parents if p != cause]
    z_dist, xz = dict_marginal(joint, z_vars), dict_marginal(joint, [*z_vars, cause])
    rows = []
    for z in sorted(z_dist.entries):
        pz = z_dist.entries[z]
        if pz <= 0.0:
            continue
        at = dict(zip(z_vars, z))
        xs = model.support(cause).values
        rows.append((z, pz.hex(), [(xz.probability(z + (x,)) / pz).hex() for x in xs],
                     [model.mechanisms[outcome].value(tuple({**at, cause: x}[p] for p in parents))
                      for x in xs]))
    return rows


def test_strata_match_a_tabulation_from_dict_marginals():
    rng = np.random.default_rng(97)
    seen = {"one z": 0, "more z": 0}
    for i in range(300):
        if i % 2:
            model = random_effect_model(rng, max_z=3)[0]
        else:
            model = _bound(rng, random_dsl_model(rng))
        for name, mech in model.mechanisms.items():
            if isinstance(mech, Deterministic) and len(mech.parents) >= 1:
                for cause in mech.parents:
                    table = strata(model, cause, name)
                    got = [(r.key, r.probability.hex(), [p.hex() for p in r.ps], list(r.gs))
                           for r in table_rows(table)]
                    assert got == _dict_strata(model, cause, name)
                    seen["one z" if len(mech.parents) == 2 else "more z"] += len(mech.parents) > 1
    assert min(seen.values()) > 50, seen


def test_strata_skip_a_stratum_whose_mass_underflows_to_zero():
    # P(Z0 = 0, Z1 = 0) = 1e-200 * 1e-200 is 0.0: that stratum has no weights.
    binary = FiniteSupport((0.0, 1.0))
    y = Variable("Y", FiniteSupport((0.0, 1.0, 2.0, 3.0)))
    model = Model(tuple(Variable(n, binary) for n in ("Z0", "Z1", "X")) + (y,), {
        "Z0": Root({0.0: 1e-200, 1.0: 1.0 - 1e-200}),
        "Z1": CPT(("Z0",), {(0.0,): {0.0: 1e-200, 1.0: 1.0}, (1.0,): {0.0: 0.5, 1.0: 0.5}}),
        "X": Root({0.0: 0.5, 1.0: 0.5}),
        "Y": Deterministic(("X", "Z0", "Z1"), table={k: sum(k) for k in product((0.0, 1.0), repeat=3)}),
    })
    assert 0.0 in build_joint(model).entries.values()
    table = strata(model, "X", "Y")
    assert [r.key for r in table_rows(table)] == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert [(r.key, r.probability.hex(), [p.hex() for p in r.ps], list(r.gs)) for r in table_rows(table)] \
        == _dict_strata(model, "X", "Y")


def test_counterfactual_propagation_takes_snapped_values():
    # Y is a table over exact support values, so only a snapped pin reads it.
    binary = FiniteSupport((0.0, 1.0))
    pairs = list(product((0.0, 1.0), repeat=2))
    model = Model(tuple(Variable(n, binary) for n in ("U", "X", "M", "Y")), {
        "U": Root({0.0: 0.3, 1.0: 0.7}), "X": Root({0.0: 0.4, 1.0: 0.6}),
        "M": Deterministic(("X", "U"), table={k: float(k[0] != k[1]) for k in pairs}),
        "Y": Deterministic(("X", "M"), table={k: float(k[0] or k[1]) for k in pairs}),
    })
    exact = ande(model, "X", 0.0, 1.0, "Y", ["M"])
    assert ande(model, "X", 4e-10, 1.0 - 4e-10, "Y", ["M"]) == exact
    near = counterfactual_query(model, Evidence({"Y": 1.0 - 4e-10}, {"X": 4e-10}), {"X": 1 + 4e-10}, "Y")
    want = counterfactual_query(model, Evidence({"Y": 1.0}, {"X": 0.0}), {"X": 1.0}, "Y")
    assert near.entries == want.entries


def test_the_first_failing_row_decides_the_error():
    # Y's parents are (B, A) and A comes first in topological order, so the
    # joint's rows reach Y's slots out of position order: row (A, B) = (0, 1)
    # is slot 2 and fails before row (1, 0), slot 1, which fails too.  Y's
    # table is filled in slot order, so its first missing row, (B, A) =
    # (0, 1), decides the error; plain recursion meets the other first.
    binary = FiniteSupport((0.0, 1.0))
    model = Model(tuple(Variable(n, binary) for n in "ABY"), {
        "A": Root({0.0: 0.5, 1.0: 0.5}), "B": Root({0.0: 0.5, 1.0: 0.5}),
        "Y": Deterministic(("B", "A"), table={(0.0, 0.0): 0.0, (1.0, 1.0): 1.0}),
    })
    for build, row in [(_enumerate, "(0.0, 1.0)"), (reference_joint, "(1.0, 0.0)")]:
        with pytest.raises(ModelError, match=f"^{re.escape(f'deterministic table has no row for {row}')}$"):
            build(model)
