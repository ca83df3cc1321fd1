import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from helpers import local_distribution, random_dsl_model, random_effect_model, reference_conditional
from vce.baselines import cace
from vce.engine import (
    Distribution,
    build_joint,
    cond_entropy,
    conditional,
    conditional_mutual_information,
    deterministic_value,
    entropy,
    expectation,
    expectation_under,
    intervene,
    kl_divergence,
    marginal,
    mutual_information,
    sample,
)
from vce.errors import (
    AbsoluteContinuityError,
    EngineError,
    ModelError,
    QueryError,
    UnboundModelError,
    VceError,
    ZeroProbabilityError,
)
from vce.model import FiniteSupport, Model, Root, Variable, bind


def test_build_joint_rejects_a_nan_mass():
    # validate flags the NaN entry; build_joint, which does not validate,
    # must not return a joint with a NaN entry either.
    m = Model((Variable("A", FiniteSupport((0.0, 1.0))),), {"A": Root({0.0: math.nan, 1.0: 1.0})})
    with pytest.raises(EngineError, match="joint mass nan deviates from 1"):
        build_joint(m)


def test_build_joint_bsc(bsc):
    joint = build_joint(bsc)
    assert joint.total_mass() == pytest.approx(1.0, abs=1e-12)
    xz = marginal(joint, ["X", "Z"])
    for key in product((0.0, 1.0), repeat=2):
        assert xz.probability(key) == pytest.approx(0.25, abs=1e-12)
    # Y is forced: only consistent joint entries carry mass.
    for (x, z, y), p in joint.entries.items():
        assert y == float(int(x) ^ int(z))
        assert p == pytest.approx(0.25, abs=1e-12)


def test_build_joint_point_mass():
    m = Model((Variable("A", FiniteSupport((3.0,))),), {"A": Root({3.0: 1.0})})
    joint = build_joint(m)
    assert joint.entries == {(3.0,): 1.0}


def test_build_joint_requires_bound(sprinkler_functional_source):
    from vce.dsl import parse_model

    with pytest.raises(UnboundModelError):
        build_joint(parse_model(sprinkler_functional_source))


def test_sprinkler_marginals(sprinkler):
    joint = build_joint(sprinkler)
    assert marginal(joint, ["R"]).probability((1.0,)) == pytest.approx(0.5, abs=1e-12)
    assert marginal(joint, ["S"]).probability((1.0,)) == pytest.approx(0.3, abs=1e-12)


def test_sprinkler_conditionals(sprinkler):
    joint = build_joint(sprinkler)
    assert conditional(joint, ["S"], {"R": 1.0}).probability((1.0,)) == pytest.approx(0.18, abs=1e-9)
    assert conditional(joint, ["S"], {"R": 0.0}).probability((1.0,)) == pytest.approx(0.42, abs=1e-9)
    assert conditional(joint, ["R"], {"S": 0.0}).probability((1.0,)) == pytest.approx(41 / 70, abs=1e-9)


def test_sprinkler_functional_derived_conditionals(sprinkler_functional):
    # The disturbance's conditionals given one of rain/sprinkler alone.
    for p in (0.0, 0.5, 1.0):
        joint = build_joint(sprinkler_functional(p))
        assert conditional(joint, ["V3"], {"R": 1.0}).probability((1.0,)) == pytest.approx(
            0.082 + 0.18 * p, abs=1e-9
        )
        assert conditional(joint, ["V3"], {"R": 0.0}).probability((1.0,)) == pytest.approx(
            0.0478, abs=1e-9
        )
        assert conditional(joint, ["V3"], {"S": 1.0}).probability((1.0,)) == pytest.approx(
            0.07 + 0.3 * p, abs=1e-9
        )
        assert conditional(joint, ["V3"], {"S": 0.0}).probability((1.0,)) == pytest.approx(
            4.39 / 70, abs=1e-9
        )


def test_sprinkler_outcome_conditionals(sprinkler):
    joint = build_joint(sprinkler)
    assert conditional(joint, ["W"], {"R": 1.0}).probability((1.0,)) == pytest.approx(
        0.918, abs=1e-9
    )
    assert conditional(joint, ["W"], {"R": 0.0}).probability((1.0,)) == pytest.approx(
        0.3838, abs=1e-9
    )
    assert conditional(joint, ["W"], {"S": 1.0}).probability((1.0,)) == pytest.approx(
        0.93, abs=1e-9
    )
    assert conditional(joint, ["W"], {"S": 0.0}).probability((1.0,)) == pytest.approx(
        37.19 / 70, abs=1e-9
    )
    assert marginal(joint, ["W"]).probability((1.0,)) == pytest.approx(0.6509, abs=1e-9)


def test_conditional_on_full_assignment(bsc):
    joint = build_joint(bsc)
    dist = conditional(joint, ["Y"], {"X": 1.0, "Z": 1.0})
    assert dist.entries == {(0.0,): 1.0}


def test_conditional_zero_probability(bsc):
    joint = build_joint(bsc)
    with pytest.raises(ZeroProbabilityError):
        conditional(joint, ["X"], {"Y": 0.0, "Z": 1.0, "X": 0.0})


def _conditional_outcome(fn, joint, variables, given):
    """Keys in order and masses as exact hex, or the error's type and text."""
    try:
        dist = fn(joint, variables, given)
    except VceError as err:
        return type(err).__name__, str(err)
    return dist.variables, list(dist.entries), [p.hex() for p in dist.entries.values()]


def test_conditional_matches_the_single_pass_loop_on_random_models():
    # Given values are support values, values within 1e-9 of one, values off
    # the support or NaN (both a zero-probability event); names may be unknown.
    rng = np.random.default_rng(81)
    seen = Counter()
    for _ in range(240):
        model = random_dsl_model(rng)
        if model.parameters:
            model = bind(model, {"p": float(rng.uniform())})
        joint = build_joint(model)
        names = [v.name for v in model.variables]
        for _ in range(5):
            unknown = ["Q"] if rng.random() < 0.2 else []
            variables = [str(n) for n in rng.permutation(names + unknown)[: rng.integers(0, 3)]]
            given = {}
            for name in map(str, rng.permutation(names + unknown)[: rng.integers(0, 3)]):
                value = float(rng.choice(model.support(name).values)) if name in names else 0.0
                given[name] = value + float(rng.choice([0.0, 0.0, 4e-10, -9e-10, 0.5, math.nan]))
            got = _conditional_outcome(conditional, joint, variables, given)
            assert got == _conditional_outcome(reference_conditional, joint, variables, given)
            seen[got[0] if isinstance(got[0], str) else "ok"] += 1
    assert seen["ok"] > 500
    assert seen["ZeroProbabilityError"] > 50
    assert seen["EngineError"] > 20


def test_a_nan_condition_has_zero_probability(sprinkler):
    # A NaN is within 1e-9 of no value, so no row is kept (as for inf).
    joint = build_joint(sprinkler)
    for call in (lambda: conditional(joint, ["W"], {"R": math.nan}),
                 lambda: expectation(joint, "W", {"R": math.nan}),
                 lambda: cace(sprinkler, "R", 0.0, 1.0, "W", {"C": math.nan})):
        with pytest.raises(ZeroProbabilityError, match=r"^conditioning event \{'[RC]': nan\} has zero probability$"):
            call()


def test_conditional_reports_an_unknown_variable_before_an_unknown_given(bsc):
    joint = build_joint(bsc)
    with pytest.raises(EngineError, match="unknown variable 'A'"):
        conditional(joint, ["X", "A"], {"B": 0.0})
    with pytest.raises(EngineError, match="unknown variable 'B'"):
        conditional(joint, ["X"], {"B": 0.0, "Y": 7.0})
    with pytest.raises(ZeroProbabilityError):
        conditional(joint, ["X"], {"Y": 7.0})


def test_deterministic_value_requires_a_deterministic_node(sprinkler):
    with pytest.raises(EngineError, match="^'W' is not a deterministic node$"):
        deterministic_value(sprinkler, "W", {"R": 1.0, "S": 1.0})


def test_intervene_sprinkler_means(sprinkler):
    assert expectation_under(sprinkler, "W", {"R": 1.0}) == pytest.approx(0.93, abs=1e-9)
    assert expectation_under(sprinkler, "W", {"R": 0.0}) == pytest.approx(0.277, abs=1e-9)
    assert expectation_under(sprinkler, "W", {"S": 1.0}) == pytest.approx(0.95, abs=1e-9)
    assert expectation_under(sprinkler, "W", {"S": 0.0}) == pytest.approx(0.455, abs=1e-9)


def test_intervene_bsc(bsc):
    joint = build_joint(intervene(bsc, {"X": 1.0}))
    assert marginal(joint, ["Y"]).probability((1.0,)) == pytest.approx(0.5, abs=1e-12)


def test_intervene_noop_on_point_root():
    m = Model((Variable("A", FiniteSupport((3.0,))),), {"A": Root({3.0: 1.0})})
    assert build_joint(intervene(m, {"A": 3.0})).entries == build_joint(m).entries


def test_intervene_outside_support(bsc):
    with pytest.raises(ModelError):
        intervene(bsc, {"X": 2.0})


def test_expectation_point_mass():
    m = Model((Variable("A", FiniteSupport((3.0,))),), {"A": Root({3.0: 1.0})})
    assert expectation(build_joint(m), "A") == pytest.approx(3.0, abs=0)


def test_entropy_values(sprinkler):
    assert entropy(Distribution(("B",), {(0.0,): 0.5, (1.0,): 0.5})) == pytest.approx(1.0, abs=1e-12)
    joint = build_joint(sprinkler)
    assert entropy(marginal(joint, ["W"])) == pytest.approx(0.933262, abs=1e-5)
    assert cond_entropy(joint, "W", ["R", "S"]) == pytest.approx(0.31420749, abs=1e-5)


def test_mutual_information_bsc(bsc):
    joint = build_joint(bsc)
    assert mutual_information(joint, "X", "Y") == pytest.approx(0.0, abs=1e-12)
    assert conditional_mutual_information(joint, "X", "Y", ["Z"]) == pytest.approx(1.0, abs=1e-12)
    assert mutual_information(joint, "X", "X") == pytest.approx(
        entropy(marginal(joint, ["X"])), abs=1e-12
    )


def test_mutual_information_sprinkler(sprinkler):
    joint = build_joint(sprinkler)
    assert mutual_information(joint, "R", "W") == pytest.approx(0.2483275, abs=1e-5)
    assert conditional_mutual_information(joint, "R", "W", ["S"]) == pytest.approx(
        0.49359151, abs=1e-5
    )


def test_kl_divergence_basics():
    p = Distribution(("A",), {(0.0,): 0.3, (1.0,): 0.7})
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
    q = Distribution(("A",), {(0.0,): 0.5, (1.0,): 0.5})
    assert kl_divergence(p, q) >= 0.0
    zero = Distribution(("A",), {(1.0,): 1.0})
    with pytest.raises(AbsoluteContinuityError):
        kl_divergence(p, zero)
    # nats = bits * ln 2
    assert kl_divergence(p, q, base=math.e) == pytest.approx(
        kl_divergence(p, q) * math.log(2), abs=1e-12
    )


@pytest.mark.parametrize("base", [1.0, 0.0, -2.0, math.nan, math.inf])
def test_kl_rejects_bad_log_base(base):
    p = Distribution(("A",), {(0.0,): 0.3, (1.0,): 0.7})
    with pytest.raises(QueryError, match="log base"):
        kl_divergence(p, p, base=base)


def test_kl_requires_same_domain():
    p = Distribution(("A",), {(0.0,): 1.0})
    q = Distribution(("B",), {(0.0,): 1.0})
    with pytest.raises(Exception, match="domains differ"):
        kl_divergence(p, q)


def test_chain_rule_on_random_joints():
    rng = np.random.default_rng(11)
    for _ in range(25):
        model = random_dsl_model(rng)
        if model.parameters:
            continue
        joint = build_joint(model)
        names = [v.name for v in model.variables]
        if len(names) < 2:
            continue
        x, y = names[0], names[1]
        h_xy = entropy(marginal(joint, [x, y]))
        h_x = entropy(marginal(joint, [x]))
        assert h_xy == pytest.approx(h_x + cond_entropy(joint, y, [x]), abs=1e-9)


def test_mi_equals_kl_to_product():
    rng = np.random.default_rng(12)
    for _ in range(20):
        model, x, y = random_effect_model(rng, x_size=3)
        joint = build_joint(model)
        pxy = marginal(joint, [x, y])
        px = marginal(joint, [x])
        py = marginal(joint, [y])
        prod = Distribution(
            (x, y),
            {
                (a, b): px.probability((a,)) * py.probability((b,))
                for a in model.support(x).values
                for b in model.support(y).values
            },
        )
        assert mutual_information(joint, x, y) == pytest.approx(
            kl_divergence(pxy, prod), abs=1e-9
        )


def _truncated_factorization_oracle(model, do, query_var):
    """P(query | do) via the direct post-intervention product formula."""
    names = [v.name for v in model.variables]
    out = {}
    for combo in product(*(model.support(n).values for n in names)):
        assignment = dict(zip(names, combo))
        if any(assignment[n] != v for n, v in do.items()):
            continue
        p = 1.0
        for n in names:
            if n in do:
                continue
            p *= local_distribution(model, n, assignment)[assignment[n]]
        out[assignment[query_var]] = out.get(assignment[query_var], 0.0) + p
    return out


def test_truncated_factorization_against_oracle():
    rng = np.random.default_rng(13)
    done = 0
    while done < 50:
        model = random_dsl_model(rng)
        if model.parameters or model.state_space_size > 300:
            continue
        names = [v.name for v in model.variables]
        target = names[int(rng.integers(0, len(names)))]
        do_var = names[int(rng.integers(0, len(names)))]
        if do_var == target:
            continue
        do = {do_var: float(rng.choice(model.support(do_var).values))}
        oracle = _truncated_factorization_oracle(model, do, target)
        dist = marginal(build_joint(intervene(model, do)), [target])
        for value in model.support(target).values:
            assert dist.probability((value,)) == pytest.approx(
                oracle.get(value, 0.0), abs=1e-9
            )
        done += 1


def test_sample_shape_and_distribution(sprinkler):
    cols, rows = sample(sprinkler, 20000, seed=5)
    assert cols == ("C", "R", "S", "W")
    assert len(rows) == 20000
    r_mean = sum(r[1] for r in rows) / len(rows)
    assert r_mean == pytest.approx(0.5, abs=0.02)
