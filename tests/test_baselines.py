import math

import numpy as np
import pytest

from helpers import (
    load_model_text,
    random_dsl_model,
    random_effect_model,
    reference_janzing_strength,
)
from vce.baselines import (
    ace,
    acde,
    ande,
    cace,
    cmi_strength,
    ipwe,
    janzing_strength,
    mi_strength,
)
from vce.dsl import parse_model
from vce.engine import build_joint, expectation_under, marginal, sample
from vce.errors import PositivityError, QueryError
from vce.estimation import Dataset
from vce.model import bind
from vce.variational import g_in


# --- ACE / CACE / ACDE -------------------------------------------------------


def test_ace_sprinkler(sprinkler):
    assert ace(sprinkler, "R", 0.0, 1.0, "W") == pytest.approx(0.653, abs=1e-9)
    assert ace(sprinkler, "S", 0.0, 1.0, "W") == pytest.approx(0.495, abs=1e-9)


def test_ace_bsc(bsc):
    assert ace(bsc, "X", 0.0, 1.0, "Y") == pytest.approx(0.0, abs=1e-12)


def test_ace_rare_disease(rare_disease):
    assert ace(rare_disease(0.01), "X", 0.0, 1.0, "Y") == pytest.approx(1.0, abs=1e-12)


def test_cace_conditions_on_covariate(sprinkler):
    # Conditioning on C blocks the backdoor, so CACE given C=c equals the
    # direct contrast of W's table averaged over S | C=c.
    got = cace(sprinkler, "R", 0.0, 1.0, "W", {"C": 1.0})
    joint_hi = build_joint(parse_model(load_model_text("sprinkler.sem")))
    del joint_hi
    ps1 = 0.1  # P(S=1 | C=1)
    want = (1.0 - 0.9) * ps1 + (0.9 - 0.01) * (1 - ps1)
    assert got == pytest.approx(want, abs=1e-9)


def test_acde_bsc_controlling_noise(bsc):
    assert acde(bsc, "X", 0.0, 1.0, "Y", ["Z"]) == pytest.approx(0.0, abs=1e-12)


def test_acde_sprinkler(sprinkler):
    assert acde(sprinkler, "R", 0.0, 1.0, "W", ["S"]) == pytest.approx(0.653, abs=1e-9)
    assert acde(sprinkler, "S", 0.0, 1.0, "W", ["R"]) == pytest.approx(0.495, abs=1e-9)


def test_acde_empty_control_is_ace(sprinkler):
    assert acde(sprinkler, "R", 0.0, 1.0, "W", []) == pytest.approx(
        ace(sprinkler, "R", 0.0, 1.0, "W"), abs=0
    )


def test_acde_rejects_cause_in_control(sprinkler):
    with pytest.raises(QueryError):
        acde(sprinkler, "R", 0.0, 1.0, "W", ["R"])


def test_acde_full_control_matches_g_in_differences(sprinkler_functional):
    m = sprinkler_functional(0.5)
    joint = build_joint(m)
    zdist = marginal(joint, ["S", "V3"])
    want = 0.0
    for (s, v3), pz in zdist.items():
        want += pz * (
            g_in(m, "W", {"R": 1.0, "S": s, "V3": v3})
            - g_in(m, "W", {"R": 0.0, "S": s, "V3": v3})
        )
    got = acde(m, "R", 0.0, 1.0, "W", ["S", "V3"])
    assert got == pytest.approx(want, abs=1e-9)


# --- ANDE ---------------------------------------------------------------------


def _direct_and_mediated_model():
    # U -> M, X -> M, X -> Y, M -> Y; Y = X or M.
    return parse_model(
        "var U in {0, 1}\n"
        "var X in {0, 1}\n"
        "var M in {0, 1}\n"
        "var Y in {0, 1}\n"
        "root U {0: 0.7, 1: 0.3}\n"
        "root X {0: 0.6, 1: 0.4}\n"
        "def M = xor(X, U)\n"
        "def Y = if X == 1 or M == 1 then 1 else 0\n"
    )


def test_ande_functional_toy_matches_enumeration_oracle():
    m = _direct_and_mediated_model()
    # Oracle: enumerate roots directly.
    want = 0.0
    for u, pu in ((0.0, 0.7), (1.0, 0.3)):
        for x, px in ((0.0, 0.6), (1.0, 0.4)):
            m_at_x0 = float(int(0) ^ int(u))
            y1 = 1.0 if (1 or m_at_x0) else 0.0
            y0 = 1.0 if (0 or m_at_x0) else 0.0
            y1 = 1.0  # x = 1 forces Y = 1
            y0 = m_at_x0
            want += pu * px * (y1 - y0)
    got = ande(m, "X", 0.0, 1.0, "Y", ["M"])
    assert got == pytest.approx(want, abs=1e-12)


def test_ande_pure_mediation_is_zero():
    m = parse_model(
        "var X in {0, 1}\n"
        "var M in {0, 1}\n"
        "var Y in {0, 1}\n"
        "root X {0: 0.5, 1: 0.5}\n"
        "def M = X\n"
        "def Y = M\n"
    )
    assert ande(m, "X", 0.0, 1.0, "Y", ["M"]) == pytest.approx(0.0, abs=1e-12)


def test_ande_mediator_unaffected_by_cause_equals_acde():
    m = parse_model(
        "var M in {0, 1}\n"
        "var X in {0, 1}\n"
        "var Y in {0, 1, 2}\n"
        "root M {0: 0.25, 1: 0.75}\n"
        "root X {0: 0.5, 1: 0.5}\n"
        "def Y = X + M\n"
    )
    assert ande(m, "X", 0.0, 1.0, "Y", ["M"]) == pytest.approx(
        acde(m, "X", 0.0, 1.0, "Y", ["M"]), abs=1e-12
    )


def test_ande_auto_converts_binary_cpt_outcome(sprinkler):
    # W is a CPT; the conversion to function-plus-noise happens under the
    # hood, and the noise stays frozen across both potential worlds.  Oracle:
    # enumerate the converted model's latent joint directly.
    from vce.rewrites import cpt_to_noise

    converted = cpt_to_noise(sprinkler, "W")
    joint = build_joint(converted)
    su = marginal(joint, ["S", "U_W"])
    w = converted.mechanisms["W"]
    want = sum(
        p * (w.value((1.0, s, u)) - w.value((0.0, s, u))) for (s, u), p in su.items()
    )
    got = ande(sprinkler, "R", 0.0, 1.0, "W", ["S"])
    assert got == pytest.approx(want, abs=1e-9)
    # Not equal to ACDE here: the noise row depends on R observationally.
    assert abs(got - acde(sprinkler, "R", 0.0, 1.0, "W", ["S"])) > 0.01


def test_ande_rejects_nonbinary_stochastic_mediator():
    m = parse_model(
        "var X in {0, 1}\n"
        "var M in {0, 1, 2}\n"
        "var Y in {0, 1, 2}\n"
        "root X {0: 0.5, 1: 0.5}\n"
        "cpt M | X {(0): {0: 0.5, 1: 0.25, 2: 0.25}, (1): {2: 1.0}}\n"
        "fun Y | M {(0): 0, (1): 1, (2): 2}\n"
    )
    with pytest.raises(Exception):
        ande(m, "X", 0.0, 1.0, "Y", ["M"])


def test_ande_rejects_a_mediator_named_twice():
    m = _direct_and_mediated_model()
    with pytest.raises(QueryError, match=r"^mediators name a variable twice: \['M', 'M'\]$"):
        ande(m, "X", 0.0, 1.0, "Y", ["M", "M"])


# --- Janzing strength ------------------------------------------------------------


def test_janzing_bsc_cut(bsc):
    assert janzing_strength(bsc, [("X", "Y")]) == pytest.approx(1.0, abs=1e-9)
    assert janzing_strength(bsc, [("Z", "Y")]) == pytest.approx(1.0, abs=1e-9)


def test_janzing_sprinkler_values_as_reported(sprinkler):
    # The reference figures for this example are in nats.
    assert janzing_strength(sprinkler, [("R", "W")], base=math.e) == pytest.approx(
        0.351431, abs=1e-5
    )
    assert janzing_strength(sprinkler, [("S", "W")], base=math.e) == pytest.approx(
        0.270828, abs=1e-5
    )


def test_janzing_irrelevant_arrow_is_zero():
    m = parse_model(
        "var A in {0, 1}\nvar B in {0, 1}\nvar Y in {0, 1}\n"
        "root A {0: 0.4, 1: 0.6}\nroot B {0: 0.3, 1: 0.7}\n"
        "cpt Y | A, B {(0,0): {0: 0.2, 1: 0.8}, (0,1): {0: 0.2, 1: 0.8},"
        " (1,0): {0: 0.9, 1: 0.1}, (1,1): {0: 0.9, 1: 0.1}}\n"
    )
    assert janzing_strength(m, [("B", "Y")]) == pytest.approx(0.0, abs=1e-12)
    assert janzing_strength(m, [("A", "Y")]) > 0.1


def test_janzing_equals_cmi_when_other_parents_independent(bsc):
    assert janzing_strength(bsc, [("X", "Y")]) == pytest.approx(
        cmi_strength(bsc, "X", "Y"), abs=1e-9
    )
    rng = np.random.default_rng(31)
    for _ in range(5):
        px, pb = rng.uniform(0.2, 0.8, size=2)
        rows = []
        for _k in range(4):
            q = rng.uniform(0.05, 0.95)
            rows.append(q)
        m = parse_model(
            "var A in {0, 1}\nvar B in {0, 1}\nvar Y in {0, 1}\n"
            f"root A {{0: {1-px}, 1: {px}}}\n"
            f"root B {{0: {1-pb}, 1: {pb}}}\n"
            "cpt Y | A, B {"
            f"(0,0): {{0: {1-rows[0]}, 1: {rows[0]}}},"
            f"(0,1): {{0: {1-rows[1]}, 1: {rows[1]}}},"
            f"(1,0): {{0: {1-rows[2]}, 1: {rows[2]}}},"
            f"(1,1): {{0: {1-rows[3]}, 1: {rows[3]}}}}}\n"
        )
        assert janzing_strength(m, [("A", "Y")]) == pytest.approx(
            cmi_strength(m, "A", "Y"), abs=1e-9
        )


def test_janzing_two_node_equals_mi(rare_disease):
    m = rare_disease(0.1)
    assert janzing_strength(m, [("X", "Y")]) == pytest.approx(
        mi_strength(m, "X", "Y"), abs=1e-9
    )


def test_janzing_nonnegative_random():
    rng = np.random.default_rng(32)
    from helpers import random_effect_model

    for _ in range(10):
        model, cause, outcome = random_effect_model(rng, x_size=3)
        assert janzing_strength(model, [(cause, outcome)]) >= -1e-12


def test_janzing_rejects_non_edges(bsc):
    with pytest.raises(QueryError):
        janzing_strength(bsc, [("Y", "X")])


@pytest.mark.parametrize("base", [1.0, 0.0, -2.0, math.nan, math.inf])
def test_janzing_rejects_bad_log_base(bsc, base):
    with pytest.raises(QueryError, match="log base"):
        janzing_strength(bsc, [("X", "Y")], base=base)


def _random_cuts(rng, model, cause, outcome):
    """The cause -> outcome arrow, then two random subsets of the edges."""
    edges = [(p, v.name) for v in model.variables for p in model.parents(v.name)]
    cuts = [[(cause, outcome)]]
    for _ in range(2):
        keep = rng.random(len(edges)) < 0.5
        cuts.append([e for e, k in zip(edges, keep) if k])
    return cuts


def test_janzing_matches_reference_on_random_models():
    rng = np.random.default_rng(33)
    two_targets = 0
    for _ in range(300):
        model, cause, outcome = random_effect_model(rng)
        for arrows in _random_cuts(rng, model, cause, outcome):
            two_targets += len({t for _, t in arrows}) >= 2
            assert janzing_strength(model, arrows) == pytest.approx(
                reference_janzing_strength(model, arrows), abs=1e-12
            ), arrows
    assert two_targets >= 30


def test_janzing_matches_reference_on_random_dsl_models():
    # Chains of def/fun/cpt nodes, parameters bound, three log bases.
    rng = np.random.default_rng(34)
    for _ in range(150):
        model = random_dsl_model(rng)
        if model.parameters:
            model = bind(model, {"p": float(rng.uniform())})
        names = [v.name for v in model.variables]
        for arrows in _random_cuts(rng, model, names[0], names[-1])[1:]:
            base = float(rng.choice([2.0, math.e, 10.0]))
            assert janzing_strength(model, arrows, base) == pytest.approx(
                reference_janzing_strength(model, arrows, base), abs=1e-12
            ), arrows


def test_janzing_cut_reaches_rows_p_never_reaches():
    # Cutting X -> Z decouples Z from X, so the other cut target Y needs rows
    # at (X, Z) = (0, 1) and (1, 0), which P never reaches.
    m = parse_model(
        "var X in {0, 1}\nvar W in {0, 1}\nvar Z in {0, 1}\nvar Y in {0, 1, 2, 3}\n"
        "root X {0: 0.5, 1: 0.5}\nroot W {0: 0.3, 1: 0.7}\n"
        "def Z = X\ndef Y = X + Z + W\n"
    )
    arrows = [("X", "Z"), ("W", "Y")]
    assert janzing_strength(m, arrows) == pytest.approx(
        reference_janzing_strength(m, arrows), abs=1e-12
    )
    # Cutting X -> Z costs I(X; Z) = 1 bit, cutting W -> Y costs H(W).
    h_w = -(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7))
    assert janzing_strength(m, arrows) == pytest.approx(1.0 + h_w, abs=1e-12)


# --- MI / CMI strengths ------------------------------------------------------------


def test_mi_cmi_bsc(bsc):
    assert mi_strength(bsc, "X", "Y") == pytest.approx(0.0, abs=1e-12)
    assert cmi_strength(bsc, "X", "Y") == pytest.approx(1.0, abs=1e-12)


def test_mi_cmi_rare_disease(rare_disease):
    p = 0.01
    m = rare_disease(p)
    h = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    assert mi_strength(m, "X", "Y") == pytest.approx(h, abs=1e-9)
    assert cmi_strength(m, "X", "Y") == pytest.approx(h, abs=1e-9)


def test_mi_cmi_sprinkler(sprinkler):
    assert mi_strength(sprinkler, "S", "W") == pytest.approx(0.125463, abs=1e-5)
    assert cmi_strength(sprinkler, "S", "W") == pytest.approx(0.37072701, abs=1e-5)


def test_mi_requires_parenthood(sprinkler):
    with pytest.raises(QueryError):
        mi_strength(sprinkler, "C", "W")


# --- IPWE ---------------------------------------------------------------------------


def test_ipwe_uniform_treatment_matches_stratified_mean():
    rng = np.random.default_rng(41)
    n = 4000
    t = rng.integers(0, 2, size=n).astype(float)
    c = rng.integers(0, 2, size=n).astype(float)
    y = (t + c + rng.integers(0, 2, size=n)).astype(float)
    data = Dataset(("T", "C", "Y"), tuple(zip(t, c, y)))
    got = ipwe(data, "T", 1.0, "Y", ["C"])
    # Stratified estimator of E(Y(1)) under randomization within strata.
    want = 0.0
    for cv in (0.0, 1.0):
        mask = (c == cv) & (t == 1.0)
        want += (c == cv).mean() * y[mask].mean()
    assert got == pytest.approx(want, abs=1e-9)


def test_ipwe_single_record():
    data = Dataset(("T", "Y"), ((1.0, 3.0),))
    assert ipwe(data, "T", 1.0, "Y", []) == pytest.approx(3.0, abs=0)


def test_ipwe_rejects_a_level_no_record_takes():
    data = Dataset(("T", "Y"), ((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(PositivityError, match=r"^no record has T = 7\.0$"):
        ipwe(data, "T", 7.0, "Y", [])


def test_ipwe_sprinkler_close_to_interventional_mean(sprinkler):
    cols, rows = sample(sprinkler, 100_000, seed=7)
    data = Dataset(cols, rows)
    got = ipwe(data, "R", 1.0, "W", ["C"])
    assert got == pytest.approx(0.93, abs=0.02)


def test_ipwe_population_limit_matches_do_expectation(sprinkler):
    # Substitute exact probabilities for the empirical frequencies: the
    # weighted sum collapses to the backdoor formula.
    joint = build_joint(sprinkler)
    zdist = marginal(joint, ["C"])
    from vce.engine import conditional

    total = 0.0
    for key, p in joint.entries.items():
        assignment = dict(zip(joint.variables, key))
        if assignment["R"] != 1.0:
            continue
        prop = conditional(joint, ["R"], {"C": assignment["C"]}).probability((1.0,))
        total += p * assignment["W"] / prop
    assert total == pytest.approx(
        expectation_under(sprinkler, "W", {"R": 1.0}), abs=1e-9
    )
    del zdist
