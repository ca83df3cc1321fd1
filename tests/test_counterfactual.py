import numpy as np
import pytest

from helpers import random_dsl_model, reference_configurations
from vce.counterfactual import Evidence, abduct, counterfactual_query, stochastic_nodes
from vce.dsl import parse_model
from vce.engine import build_joint, conditional, marginal
from vce.errors import QueryError, ZeroProbabilityError
from vce.model import bind


def _marginal_of(dist, names, wanted):
    """Sum posterior mass over configurations matching `wanted`."""
    idx = [dist.variables.index(n) for n in names]
    total = 0.0
    for key, p in dist.items():
        if all(key[i] == v for i, v in zip(idx, wanted)):
            total += p
    return total


def test_bsc_abduction_pins_noise(bsc):
    for y0 in (0.0, 1.0):
        post = abduct(bsc, Evidence({"Y": y0, "X": 0.0}))
        assert _marginal_of(post, ["Z"], (y0,)) == pytest.approx(1.0, abs=1e-12)


def test_bsc_counterfactual_point_mass(bsc):
    for y0 in (0.0, 1.0):
        dist = counterfactual_query(bsc, Evidence({"Y": y0, "X": 0.0}), {"X": 1.0}, "Y")
        flipped = float(1 - int(y0))
        assert dist.probability((flipped,)) == pytest.approx(1.0, abs=1e-12)


def test_no_evidence_posterior_is_prior(sprinkler):
    post = abduct(sprinkler, Evidence({}))
    joint = build_joint(sprinkler)
    prior = marginal(joint, list(post.variables))
    for key, p in prior.items():
        assert post.probability(key) == pytest.approx(p, abs=1e-12)
    assert post.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_sprinkler_abduction_formula(sprinkler_functional):
    # Observed W=0 under do(R=0): posterior of (S, V3) = (0, 0) is
    # 0.6561 / (0.6771 + 0.09 p).
    for p in (0.0, 0.5, 1.0):
        m = sprinkler_functional(p)
        post = abduct(m, Evidence({"W": 0.0}, context={"R": 0.0}))
        got = _marginal_of(post, ["S", "V3"], (0.0, 0.0))
        assert got == pytest.approx(0.6561 / (0.6771 + 0.09 * p), abs=1e-9)


def test_sprinkler_abduction_complement(sprinkler_functional):
    # The other consistent configuration under W=0: (S, V3) = (1, 1) with
    # posterior (0.021 + 0.09 p) / (0.6771 + 0.09 p).
    for p in (0.0, 0.5, 1.0):
        m = sprinkler_functional(p)
        post = abduct(m, Evidence({"W": 0.0}, context={"R": 0.0}))
        got = _marginal_of(post, ["S", "V3"], (1.0, 1.0))
        assert got == pytest.approx((0.021 + 0.09 * p) / (0.6771 + 0.09 * p), abs=1e-9)


def test_sprinkler_counterfactual_formula(sprinkler_functional):
    for p in (0.0, 0.5, 1.0):
        m = sprinkler_functional(p)
        dist = counterfactual_query(
            m, Evidence({"W": 1.0}, context={"R": 0.0}), {"R": 1.0}, "W"
        )
        assert dist.probability((0.0,)) == pytest.approx(
            0.0439 / (0.3229 - 0.09 * p), abs=1e-9
        )
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-9)


def test_consistency_under_factual_intervention(sprinkler_functional):
    m = sprinkler_functional(0.3)
    evidence = Evidence({"W": 1.0}, context={"R": 0.0})
    dist = counterfactual_query(m, evidence, {"R": 0.0}, "W")
    assert dist.probability((1.0,)) == pytest.approx(1.0, abs=1e-12)


def test_consistency_pure_conditioning(bsc):
    # With no context, counterfactual under the empty intervention is just
    # conditioning.
    evidence = Evidence({"X": 0.0})
    dist = counterfactual_query(bsc, evidence, {}, "Y")
    joint = build_joint(bsc)
    want = conditional(joint, ["Y"], {"X": 0.0})
    for key, p in want.items():
        assert dist.probability(key) == pytest.approx(p, abs=1e-12)


def test_zero_probability_evidence(bsc):
    with pytest.raises(ZeroProbabilityError):
        abduct(bsc, Evidence({"Y": 0.0, "X": 0.0, "Z": 1.0}))


def test_counterfactual_rejects_pinned_target(bsc):
    with pytest.raises(QueryError):
        counterfactual_query(bsc, Evidence({"Y": 1.0}), {"X": 1.0}, "X")


def test_deterministic_invertible_counterfactuals_are_point_masses(bsc):
    for x in (0.0, 1.0):
        for y in (0.0, 1.0):
            dist = counterfactual_query(
                bsc, Evidence({"X": x, "Y": y}), {"X": 1.0 - x}, "Y"
            )
            assert max(dist.entries.values()) == pytest.approx(1.0, abs=1e-12)


def test_cpt_latents_fixed_under_context():
    # The latent row draw of a CPT child of the intervened node keeps its
    # observational prior: the context only changes what propagates into
    # deterministic nodes.
    m = parse_model(
        "var X in {0, 1}\n"
        "var N in {0, 1}\n"
        "var Y in {0, 1}\n"
        "root X {0: 0.5, 1: 0.5}\n"
        "cpt N | X {(0): {0: 0.9, 1: 0.1}, (1): {0: 0.2, 1: 0.8}}\n"
        "def Y = xor(X, N)\n"
    )
    post = abduct(m, Evidence({}, context={"X": 0.0}))
    n1 = _marginal_of(post, ["N"], (1.0,))
    # Observational P(N=1) = 0.5*0.1 + 0.5*0.8 = 0.45, not the do(X=0) row 0.1.
    assert n1 == pytest.approx(0.45, abs=1e-12)


def test_configurations_match_recursive_reference():
    """The latent configurations counterfactuals abduct over are the joint's
    stochastic columns, in row order, with the joint's masses."""
    rng = np.random.default_rng(2208)
    for _ in range(250):
        model = random_dsl_model(rng)
        model = bind(model, {p.name: float(rng.uniform()) for p in model.parameters})
        joint = build_joint(model)
        names = stochastic_nodes(model)
        columns = [joint.values_of(n).tolist() for n in names]
        got = [(list(zip(names, latent)), mass)
               for *latent, mass in zip(*columns, joint.masses.tolist())]
        want = [(list(c.items()), prior) for c, prior in reference_configurations(model)]
        assert got == want
