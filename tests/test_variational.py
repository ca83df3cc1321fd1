import numpy as np
import pytest

from helpers import random_effect_model
from vce import expr as ex
from vce.dsl import parse_model
from vce.engine import build_joint, marginal, expectation_under
from vce.errors import (
    NoiseConversionError,
    QueryError,
    UnboundModelError,
    ZeroProbabilityError,
)
from vce.model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    Partition,
    Root,
    Variable,
    bind,
    validate,
)
from vce.variational import (
    EffectQuery,
    ace_flavored_effect,
    apiv,
    brute_force_piv,
    cpt_to_noise,
    degree_grid,
    effect,
    eliminate_mediator,
    g_in,
    matrix_form_piev,
    natural_availability,
    pace_vector,
    piev,
    piv,
    spiv,
    weight,
)

DEGREES = (0.0, 0.3, 1.0, 2.0)


# --- weight -----------------------------------------------------------------


def test_weight_balanced_is_one_for_all_degrees():
    for d in DEGREES:
        assert weight(0.5, 0.5, d) == pytest.approx(1.0, abs=0)


def test_weight_zero_probability_is_zero_even_at_degree_zero():
    assert weight(0.0, 0.7, 0.0) == 0.0
    assert weight(0.3, 0.0, 0.0) == 0.0
    assert weight(0.0, 0.0, 2.0) == 0.0


def test_weight_binary_formula():
    for p in (0.001, 0.25, 0.9):
        assert weight(p, 1 - p, 1.0) == pytest.approx(4 * p * (1 - p), abs=1e-15)


def test_weight_rejects_negative_degree():
    with pytest.raises(QueryError):
        weight(0.5, 0.5, -1.0)


@pytest.mark.parametrize("degree", [float("nan"), float("inf")])
def test_non_finite_degrees_rejected(bsc, degree):
    with pytest.raises(QueryError, match="finite"):
        weight(0.5, 0.5, degree)
    with pytest.raises(QueryError, match="finite"):
        EffectQuery("X", "Y", degree)
    with pytest.raises(QueryError, match="finite"):
        pace_vector(bsc, "X", "Y", [0.0, degree])


# --- g_in -------------------------------------------------------------------


def test_g_in_bsc(bsc):
    assert g_in(bsc, "Y", {"X": 1.0, "Z": 0.0}) == 1.0


def test_g_in_sprinkler(sprinkler_functional):
    m = sprinkler_functional(0.5)
    for v3 in (0.0, 1.0):
        assert g_in(m, "W", {"R": 1.0, "S": 1.0, "V3": v3}) == 1.0


def test_g_in_ramp_reset(ramp_reset):
    assert g_in(ramp_reset, "Y", {"X": 4.0}) == 1.0


def test_g_in_requires_all_parents(bsc):
    with pytest.raises(QueryError):
        g_in(bsc, "Y", {"X": 1.0})


# --- golden values (four-level ramp/reset model) -----------------------------


def test_ramp_reset_all_variants(ramp_reset):
    expected = {"pace": 4 / 3, "peace": 41 / 36, "apace": 59 / 36, "space": 1.0}
    for variant, value in expected.items():
        report = effect(ramp_reset, EffectQuery("X", "Y", 1.0, variant))
        assert report.value == pytest.approx(value, abs=1e-12), variant


def test_ramp_reset_witness(ramp_reset):
    report = effect(ramp_reset, EffectQuery("X", "Y", 1.0, "pace"))
    assert report.breakdown[()].partition == Partition((0, 2, 3))
    assert report.breakdown[()].partition.values(ramp_reset.support("X")) == (1.0, 3.0, 4.0)


def test_piev_full_partition(ramp_reset):
    q = EffectQuery("X", "Y", 1.0)
    assert piev(ramp_reset, q, {}, Partition((0, 1, 2, 3))) == pytest.approx(41 / 36, abs=1e-12)


def test_piev_constant_outcome_is_zero():
    m = Model(
        (Variable("X", FiniteSupport((0.0, 1.0, 2.0))), Variable("Y", FiniteSupport((1.0,)))),
        {
            "X": Root({0.0: 0.2, 1.0: 0.3, 2.0: 0.5}),
            "Y": Deterministic(("X",), body=ex.Num(1.0)),
        },
    )
    q = EffectQuery("X", "Y", 1.0)
    assert piev(m, q, {}, Partition((0, 1, 2))) == 0.0


def test_piev_negative_sign_single_pair(ramp_reset):
    q = EffectQuery("X", "Y", 1.0, "pace", "negative")
    assert piev(ramp_reset, q, {}, Partition((2, 3))) == pytest.approx(1.0, abs=1e-12)


def test_piv_two_point_support_equals_piev(rare_disease):
    m = rare_disease(0.2)
    q = EffectQuery("X", "Y", 1.0)
    value, witness = piv(m, q, {})
    assert value == pytest.approx(piev(m, q, {}, Partition((0, 1))), abs=0)
    assert witness == Partition((0, 1))


def test_piv_zero_probability_z(sprinkler_functional):
    m = sprinkler_functional(0.0)
    # P(S=1, V3=1) = 0.3 * 0.07 > 0, but a full assignment off-support is 0.
    with pytest.raises(ZeroProbabilityError):
        piv(m, EffectQuery("R", "W", 1.0), {"S": 1.5, "V3": 0.0})


def test_spiv_apiv_golden(ramp_reset):
    q1 = EffectQuery("X", "Y", 1.0, "space")
    value, witness = spiv(ramp_reset, q1, {})
    assert value == pytest.approx(1.0, abs=1e-12)
    assert witness == Partition((2, 3))
    assert apiv(ramp_reset, EffectQuery("X", "Y", 1.0, "apace"), {}) == pytest.approx(
        59 / 36, abs=1e-12
    )


def test_crossover_witness_switch(crossover):
    low = effect(crossover, EffectQuery("X", "Y", 1 / 3, "pace"))
    assert low.breakdown[()].partition == Partition((0, 1, 2))
    high = effect(crossover, EffectQuery("X", "Y", 1.0, "pace"))
    assert high.breakdown[()].partition == Partition((0, 2))


def test_brute_force_agrees_on_crossover_instance(crossover):
    for d in (1 / 3, 1.0):
        q = EffectQuery("X", "Y", d, "pace")
        dp_value, dp_witness = piv(crossover, q, {})
        bf_value, bf_witness = brute_force_piv(crossover, q, {})
        assert dp_value == pytest.approx(bf_value, abs=1e-12)
        assert dp_witness == bf_witness


def test_brute_force_agrees_on_ramp_reset(ramp_reset):
    q = EffectQuery("X", "Y", 1.0, "pace")
    bf_value, bf_witness = brute_force_piv(ramp_reset, q, {})
    assert bf_value == pytest.approx(4 / 3, abs=1e-12)
    assert bf_witness == Partition((0, 2, 3))
    dp_value, dp_witness = piv(ramp_reset, q, {})
    assert (dp_value, dp_witness) == (bf_value, bf_witness)


# --- effect aggregation -------------------------------------------------------


def test_effect_requires_deterministic_outcome(sprinkler):
    with pytest.raises(QueryError, match="deterministic"):
        effect(sprinkler, EffectQuery("R", "W", 1.0))


def test_effect_requires_parent(bsc):
    m = bsc
    with pytest.raises(QueryError, match="not a parent"):
        effect(m, EffectQuery("Y", "Y", 1.0))
    with pytest.raises(QueryError, match="unknown variable"):
        effect(m, EffectQuery("Q", "Y", 1.0))


def test_effect_requires_bound_model(sprinkler_functional_source):
    with pytest.raises(UnboundModelError):
        effect(parse_model(sprinkler_functional_source), EffectQuery("R", "W", 1.0))


def test_effect_breakdown_recomposes(sprinkler_functional):
    m = sprinkler_functional(0.4)
    report = effect(m, EffectQuery("R", "W", 0.7))
    recomposed = sum(z.probability * z.value for z in report.breakdown.values())
    assert report.value == pytest.approx(recomposed, abs=1e-9)
    assert report.z_variables == ("S", "V3")


def test_bsc_pace_degree_invariant(bsc):
    for d in DEGREES:
        assert effect(bsc, EffectQuery("X", "Y", d)).value == pytest.approx(1.0, abs=1e-12)


def test_rare_disease_closed_form(rare_disease):
    for p in (0.001, 0.01, 0.1):
        m = rare_disease(p)
        for d in DEGREES:
            assert effect(m, EffectQuery("X", "Y", d)).value == pytest.approx(
                (4 * p * (1 - p)) ** d, abs=1e-12
            )


def test_pace_vector_grids(bsc, rare_disease):
    assert pace_vector(bsc, "X", "Y", [0.0, 0.5, 1.0]) == pytest.approx([1.0, 1.0, 1.0])
    m = rare_disease(0.1)
    assert pace_vector(m, "X", "Y", [0.0, 1.0]) == pytest.approx([1.0, 0.36], abs=1e-12)
    assert pace_vector(m, "X", "Y", [0.0]) == pytest.approx([1.0])
    with pytest.raises(QueryError):
        pace_vector(m, "X", "Y", [1.0, 0.5])


def test_degree_grid_helper():
    assert degree_grid(1.0, 4) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert degree_grid(2.0, 4)[-1] == 2.0
    with pytest.raises(QueryError):
        degree_grid(0.0, 4)


# --- DP vs brute force (fast local version; the 500-model run is acceptance) --


def test_dp_matches_brute_force_small():
    rng = np.random.default_rng(101)
    for _ in range(60):
        model, cause, outcome = random_effect_model(rng)
        d = float(rng.choice(DEGREES))
        joint = build_joint(model)
        z_vars = [p for p in model.parents(outcome) if p != cause]
        zdist = marginal(joint, z_vars)
        for sign in ("abs", "positive", "negative"):
            q = EffectQuery(cause, outcome, d, "pace", sign)
            for z_key, pz in zdist.items():
                if pz <= 0:
                    continue
                z = dict(zip(z_vars, z_key))
                dp_value, dp_witness = piv(model, q, z)
                bf_value, bf_witness = brute_force_piv(model, q, z)
                assert dp_value == pytest.approx(bf_value, abs=1e-9)
                assert dp_witness == bf_witness


# --- matrix representation ----------------------------------------------------


def test_matrix_form_golden(ramp_reset):
    q = EffectQuery("X", "Y", 1.0)
    full = Partition((0, 1, 2, 3))
    # Unnormalized value 41/144; the operation returns the normalized form.
    assert matrix_form_piev(ramp_reset, q, {}, full) == pytest.approx(41 / 36, abs=1e-12)
    assert matrix_form_piev(ramp_reset, q, {}, full) == pytest.approx(
        piev(ramp_reset, q, {}, full), abs=1e-12
    )


def test_matrix_form_single_pair(ramp_reset):
    q = EffectQuery("X", "Y", 1.0)
    pair = Partition((2, 3))
    assert matrix_form_piev(ramp_reset, q, {}, pair) == pytest.approx(
        piev(ramp_reset, q, {}, pair), abs=1e-12
    )


def test_matrix_form_random_agreement():
    rng = np.random.default_rng(55)
    for _ in range(40):
        model, cause, outcome = random_effect_model(rng, x_size=int(rng.integers(2, 6)))
        d = float(rng.choice(DEGREES))
        sign = str(rng.choice(("abs", "positive", "negative")))
        q = EffectQuery(cause, outcome, d, "pace", sign)
        z_vars = [p for p in model.parents(outcome) if p != cause]
        zdist = marginal(build_joint(model), z_vars)
        support_size = len(model.support(cause))
        for z_key, pz in zdist.items():
            if pz <= 0:
                continue
            z = dict(zip(z_vars, z_key))
            k = int(rng.integers(2, support_size + 1))
            idx = tuple(sorted(rng.choice(support_size, size=k, replace=False)))
            partition = Partition(idx)
            assert matrix_form_piev(model, q, z, partition) == pytest.approx(
                piev(model, q, z, partition), abs=1e-9
            )


# --- natural availability -----------------------------------------------------


def test_natural_availability_binary_independent(rare_disease):
    for p in (0.05, 0.3):
        m = rare_disease(p)
        for d in (0.5, 1.0, 2.0):
            for variant in ("pace", "peace", "space", "apace"):
                assert natural_availability(m, "X", [], d, variant) == pytest.approx(
                    (4 * p * (1 - p)) ** d, abs=1e-12
                )


def test_natural_availability_determined_cause_is_zero():
    m = Model(
        (Variable("Z", FiniteSupport((0.0, 1.0))), Variable("X", FiniteSupport((0.0, 1.0)))),
        {
            "Z": Root({0.0: 0.4, 1.0: 0.6}),
            "X": Deterministic(("Z",), body=ex.Name("Z")),
        },
    )
    for d in (0.0, 1.0, 2.0):
        assert natural_availability(m, "X", ["Z"], d) == 0.0


def test_natural_availability_single_value_support():
    m = Model((Variable("X", FiniteSupport((2.0,))),), {"X": Root({2.0: 1.0})})
    assert natural_availability(m, "X", [], 1.0) == 0.0


def test_natural_availability_rejects_cause_in_z(bsc):
    with pytest.raises(QueryError):
        natural_availability(bsc, "X", ["X"], 1.0)


# --- mediator elimination -------------------------------------------------------


def _chain_model():
    # Z -> W -> X -> Y with Y = g(X, Z); all deterministic beyond the roots.
    return parse_model(
        "var Z in {0, 1}\n"
        "var E in {0, 1}\n"
        "var W in {0, 1}\n"
        "var X in {0, 1}\n"
        "var Y in {0, 1, 2}\n"
        "root Z {0: 0.3, 1: 0.7}\n"
        "root E {0: 0.6, 1: 0.4}\n"
        "def W = xor(Z, E)\n"
        "def X = 1 - W\n"
        "def Y = X + Z\n"
    )


def test_eliminate_mediator_composes_functions():
    m = _chain_model()
    reduced = eliminate_mediator(m, "X")
    assert "X" not in [v.name for v in reduced.variables]
    assert validate(reduced) == []
    y = reduced.mechanisms["Y"]
    assert set(y.parents) == {"W", "Z"}
    # Y = (1 - W) + Z pointwise.
    for w in (0.0, 1.0):
        for z in (0.0, 1.0):
            assert g_in(reduced, "Y", {"W": w, "Z": z}) == (1 - w) + z
    # The reduced joint marginal over (Z, E, W, Y) is unchanged.
    old = marginal(build_joint(m), ["Z", "E", "W", "Y"]).table
    new = marginal(build_joint(reduced), ["Z", "E", "W", "Y"]).table
    for key, p in old.items():
        assert new.get(key, 0.0) == pytest.approx(p, abs=1e-12)


def test_eliminate_childless_node_is_plain_removal():
    m = _chain_model()
    reduced = eliminate_mediator(m, "Y")
    assert set(v.name for v in reduced.variables) == {"Z", "E", "W", "X"}
    assert validate(reduced) == []


def test_eliminate_mediator_rejects_stochastic(sprinkler):
    with pytest.raises(QueryError, match="stochastic"):
        eliminate_mediator(sprinkler, "R")


def test_eliminate_mediator_zero_effect_propagates():
    # Y depends on X only through Z, so PACE(X -> Y) = 0; after eliminating X,
    # PACE(W -> Y) must stay 0.
    m = parse_model(
        "var Z in {0, 1}\n"
        "var W in {0, 1}\n"
        "var X in {0, 1}\n"
        "var Y in {0, 1}\n"
        "root Z {0: 0.5, 1: 0.5}\n"
        "root W {0: 0.2, 1: 0.8}\n"
        "def X = xor(Z, W)\n"
        "def Y = Z\n"
    )
    # Make X a parent of Y without influence: Y = Z + 0*X is not expressible
    # via xor templates, so use a table.
    table = {
        (z, x): z for z in (0.0, 1.0) for x in (0.0, 1.0)
    }
    mechanisms = dict(m.mechanisms)
    mechanisms["Y"] = Deterministic(("Z", "X"), table=table)
    m = Model(m.variables, mechanisms)
    for d in (0.0, 1.0):
        assert effect(m, EffectQuery("X", "Y", d)).value == pytest.approx(0.0, abs=1e-12)
    reduced = eliminate_mediator(m, "X")
    for d in (0.0, 1.0):
        assert effect(reduced, EffectQuery("W", "Y", d)).value == pytest.approx(0.0, abs=1e-12)


# --- cpt_to_noise ----------------------------------------------------------------


def test_cpt_to_noise_sprinkler_rows(sprinkler):
    converted = cpt_to_noise(sprinkler, "W")
    noise = converted.mechanisms["U_W"]
    assert isinstance(noise, CPT)
    assert noise.parents == ("R", "S")
    assert noise.rows[(0.0, 0.0)][1.0] == pytest.approx(0.01, abs=1e-12)
    assert noise.rows[(0.0, 1.0)][1.0] == pytest.approx(0.1, abs=1e-12)
    assert noise.rows[(1.0, 0.0)][1.0] == pytest.approx(0.1, abs=1e-12)
    assert noise.rows[(1.0, 1.0)][1.0] == pytest.approx(0.5, abs=1e-12)  # uniform default
    w = converted.mechanisms["W"]
    assert isinstance(w, Deterministic)
    assert w.parents == ("R", "S", "U_W")
    # Piecewise xor shape: baseline r^s flipped by the noise except the pinned row.
    for r in (0.0, 1.0):
        for s in (0.0, 1.0):
            for u in (0.0, 1.0):
                got = w.value((r, s, u))
                if r == 1.0 and s == 1.0:
                    assert got == 1.0
                else:
                    assert got == float(int(r) ^ int(s) ^ int(u))
    # The observational joint over the original variables is preserved.
    old = marginal(build_joint(sprinkler), ["C", "R", "S", "W"]).table
    new = marginal(build_joint(converted), ["C", "R", "S", "W"]).table
    for key, p in old.items():
        assert new.get(key, 0.0) == pytest.approx(p, abs=1e-12)


def test_cpt_to_noise_free_parameter(sprinkler):
    converted = cpt_to_noise(sprinkler, "W", free_parameter="p")
    assert [p.name for p in converted.parameters] == ["p"]
    bound = bind(converted, {"p": 0.25})
    assert bound.mechanisms["U_W"].rows[(1.0, 1.0)][1.0] == pytest.approx(0.25, abs=1e-12)
    # Deterministic rows keep their outcomes regardless of the parameter.
    old = marginal(build_joint(sprinkler), ["C", "R", "S", "W"]).table
    new = marginal(build_joint(bound), ["C", "R", "S", "W"]).table
    for key, p_ in old.items():
        assert new.get(key, 0.0) == pytest.approx(p_, abs=1e-12)


def test_cpt_to_noise_all_deterministic_rows():
    m = parse_model(
        "var A in {0, 1}\nvar B in {0, 1}\n"
        "root A {0: 0.5, 1: 0.5}\n"
        "cpt B | A {(0): {0: 1.0}, (1): {1: 1.0}}\n"
    )
    converted = cpt_to_noise(m, "B")
    b = converted.mechanisms["B"]
    for a in (0.0, 1.0):
        for u in (0.0, 1.0):
            assert b.value((a, u)) == a  # outcome preserved, noise irrelevant


def test_cpt_to_noise_errors(sprinkler, bsc):
    with pytest.raises(QueryError):
        cpt_to_noise(bsc, "Y")  # deterministic, not a CPT
    wide = parse_model(
        "var A in {0, 1}\nvar B in {0, 1, 2}\n"
        "root A {0: 0.5, 1: 0.5}\n"
        "cpt B | A {(0): {0: 0.5, 1: 0.5}, (1): {1: 0.5, 2: 0.5}}\n"
    )
    with pytest.raises(NoiseConversionError):
        cpt_to_noise(wide, "B")
    no_det = parse_model(
        "var A in {0, 1}\nvar B in {0, 1}\n"
        "root A {0: 0.5, 1: 0.5}\n"
        "cpt B | A {(0): {0: 0.7, 1: 0.3}, (1): {0: 0.2, 1: 0.8}}\n"
    )
    with pytest.raises(NoiseConversionError, match="free parameter"):
        cpt_to_noise(no_det, "B", free_parameter="q")


def test_cpt_to_noise_matches_functional_model(sprinkler, sprinkler_functional):
    converted = bind(cpt_to_noise(sprinkler, "W", free_parameter="p"), {"p": 0.3})
    reference = sprinkler_functional(0.3)
    for cause in ("R", "S"):
        for d in (0.0, 0.5, 1.0):
            got = effect(converted, EffectQuery(cause, "W", d)).value
            want = effect(reference, EffectQuery(cause, "W", d)).value
            assert got == pytest.approx(want, abs=1e-12)


# --- ACE-flavored effects ---------------------------------------------------------


def test_ace_flavored_bsc_is_zero(bsc):
    for variant in ("pace", "peace", "space", "apace"):
        assert ace_flavored_effect(bsc, "X", "Y", 1.0, variant) == pytest.approx(0.0, abs=1e-12)


def test_ace_flavored_constant_outcome():
    m = Model(
        (Variable("X", FiniteSupport((0.0, 1.0))), Variable("Y", FiniteSupport((1.0,)))),
        {
            "X": Root({0.0: 0.5, 1.0: 0.5}),
            "Y": Deterministic(("X",), body=ex.Num(1.0)),
        },
    )
    assert ace_flavored_effect(m, "X", "Y", 1.0) == 0.0


def test_ace_flavored_binary_formula(sprinkler):
    # |ACE| * (4 P(x0) P(x1))^d with observational marginal weights.
    joint = build_joint(sprinkler)
    px = marginal(joint, ["R"])
    p0, p1 = px.probability((0.0,)), px.probability((1.0,))
    ace = expectation_under(sprinkler, "W", {"R": 1.0}) - expectation_under(
        sprinkler, "W", {"R": 0.0}
    )
    for d in (0.0, 0.7, 1.0):
        assert ace_flavored_effect(sprinkler, "R", "W", d) == pytest.approx(
            abs(ace) * (4 * p0 * p1) ** d, abs=1e-12
        )


def test_ace_flavored_signed_parts(sprinkler):
    pos = ace_flavored_effect(sprinkler, "R", "W", 1.0, "peace", "positive")
    neg = ace_flavored_effect(sprinkler, "R", "W", 1.0, "peace", "negative")
    absx = ace_flavored_effect(sprinkler, "R", "W", 1.0, "peace", "abs")
    assert absx == pytest.approx(pos + neg, abs=1e-12)
    assert neg == 0.0  # wetting the grass is monotone in rain


# --- invariants across variants ----------------------------------------------------


def _per_z_values(model, cause, outcome, d, sign):
    joint = build_joint(model)
    z_vars = [p for p in model.parents(outcome) if p != cause]
    zdist = marginal(joint, z_vars)
    out = []
    for z_key, pz in sorted(zdist.items()):
        if pz <= 0:
            continue
        z = dict(zip(z_vars, z_key))
        out.append((z, pz))
    return out


def test_theorem_inequalities_and_binary_coincidence():
    rng = np.random.default_rng(202)
    for _ in range(40):
        binary = bool(rng.random() < 0.4)
        model, cause, outcome = random_effect_model(rng, x_size=2 if binary else None)
        d = float(rng.choice(DEGREES))
        values = {
            variant: effect(model, EffectQuery(cause, outcome, d, variant)).value
            for variant in ("pace", "peace", "space", "apace")
        }
        assert values["peace"] <= values["pace"] + 1e-12
        assert values["space"] <= values["pace"] + 1e-12
        assert values["pace"] <= values["apace"] + 1e-12
        if len(model.support(cause)) == 2:
            assert values["pace"] == values["peace"] == values["space"] == values["apace"]


def test_signed_identities():
    rng = np.random.default_rng(203)
    for _ in range(30):
        model, cause, outcome = random_effect_model(rng)
        d = float(rng.choice(DEGREES))
        for variant in ("peace", "apace"):
            absv = effect(model, EffectQuery(cause, outcome, d, variant, "abs")).value
            pos = effect(model, EffectQuery(cause, outcome, d, variant, "positive")).value
            neg = effect(model, EffectQuery(cause, outcome, d, variant, "negative")).value
            assert absv == pytest.approx(pos + neg, abs=1e-9)
        absv = effect(model, EffectQuery(cause, outcome, d, "pace", "abs")).value
        pos = effect(model, EffectQuery(cause, outcome, d, "pace", "positive")).value
        neg = effect(model, EffectQuery(cause, outcome, d, "pace", "negative")).value
        assert max(pos, neg) <= absv + 1e-9
        assert absv <= pos + neg + 1e-9
        # Per-z supremum identity: SPIV = max(SPIV+, SPIV-).
        for z, _pz in _per_z_values(model, cause, outcome, d, "abs"):
            s_abs, _ = spiv(model, EffectQuery(cause, outcome, d, "space", "abs"), z)
            s_pos, _ = spiv(model, EffectQuery(cause, outcome, d, "space", "positive"), z)
            s_neg, _ = spiv(model, EffectQuery(cause, outcome, d, "space", "negative"), z)
            assert s_abs == pytest.approx(max(s_pos, s_neg), abs=1e-9)


def test_signed_bounds_strict_on_worked_instance():
    # Three-level cause tuned so the absolute total variation sits strictly
    # between the max and the sum of its signed parts; the negative part is
    # maximized by the outer pair, not the consecutive chain.
    a, b = 4 / 9, 1 / 9
    m = parse_model(
        "var X in {1, 2, 3}\n"
        "var Y in {1, 2, 4}\n"
        f"root X {{1: {a}, 2: {b}, 3: {a}}}\n"
        "def Y = if X == 3 then 1 else 2 * X\n"
    )
    absr = effect(m, EffectQuery("X", "Y", 1.0, "pace", "abs"))
    posr = effect(m, EffectQuery("X", "Y", 1.0, "pace", "positive"))
    negr = effect(m, EffectQuery("X", "Y", 1.0, "pace", "negative"))
    assert absr.value == pytest.approx(80 / 81, abs=1e-12)
    assert posr.value == pytest.approx(32 / 81, abs=1e-12)
    assert negr.value == pytest.approx(64 / 81, abs=1e-12)
    assert max(posr.value, negr.value) < absr.value < posr.value + negr.value
    assert absr.breakdown[()].partition == Partition((0, 1, 2))
    assert posr.breakdown[()].partition == Partition((0, 1))
    assert negr.breakdown[()].partition == Partition((0, 2))


def test_positive_variation_zero_iff_no_weighted_increase():
    rng = np.random.default_rng(204)
    for _ in range(40):
        model, cause, outcome = random_effect_model(rng, x_size=int(rng.integers(2, 6)))
        d = float(rng.choice((0.3, 1.0, 2.0)))
        joint = build_joint(model)
        z_vars = [p for p in model.parents(outcome) if p != cause]
        zdist = marginal(joint, z_vars)
        xs = model.support(cause).values
        for z_key, pz in zdist.items():
            if pz <= 0:
                continue
            z = dict(zip(z_vars, z_key))
            value, _ = piv(model, EffectQuery(cause, outcome, d, "pace", "positive"), z)
            from vce.engine import conditional

            cond = conditional(joint, [cause], z)
            gs = [g_in(model, outcome, dict(z, **{cause: x})) for x in xs]
            ps = [cond.probability((x,)) for x in xs]
            any_increase = any(
                gs[j] > gs[i] and ps[i] > 0 and ps[j] > 0
                for i in range(len(xs))
                for j in range(i + 1, len(xs))
            )
            assert (value > 1e-12) == any_increase


def test_npiv_bounded_by_unweighted_variation():
    rng = np.random.default_rng(205)
    for _ in range(40):
        model, cause, outcome = random_effect_model(rng)
        d = float(rng.choice(DEGREES))
        joint = build_joint(model)
        z_vars = [p for p in model.parents(outcome) if p != cause]
        zdist = marginal(joint, z_vars)
        xs = model.support(cause).values
        for z_key, pz in zdist.items():
            if pz <= 0:
                continue
            z = dict(zip(z_vars, z_key))
            value, _ = piv(model, EffectQuery(cause, outcome, d, "pace", "abs"), z)
            gs = [g_in(model, outcome, dict(z, **{cause: x})) for x in xs]
            iv = sum(abs(b - a) for a, b in zip(gs, gs[1:]))
            assert value <= iv + 1e-9


def test_support_restriction_never_increases_max_variants(ramp_reset):
    rng = np.random.default_rng(206)
    xs = ramp_reset.support("X").values
    for _ in range(50):
        size = int(rng.integers(2, len(xs) + 1))
        subset = sorted(rng.choice(xs, size=size, replace=False))
        for variant in ("pace", "space", "apace"):
            q = EffectQuery("X", "Y", 1.0, variant)
            full = effect(ramp_reset, q).value
            restricted = effect(ramp_reset, q, support_subset=subset).value
            assert restricted <= full + 1e-12


def test_peace_restriction_counterexample(ramp_reset):
    q = EffectQuery("X", "Y", 1.0, "peace")
    full = effect(ramp_reset, q).value
    restricted = effect(ramp_reset, q, support_subset=[1.0, 3.0, 4.0]).value
    assert restricted == pytest.approx(4 / 3, abs=1e-12)
    assert full == pytest.approx(41 / 36, abs=1e-12)
    assert restricted > full


def test_moment_property_binary_binary():
    rng = np.random.default_rng(207)
    for _ in range(30):
        model, cause, outcome = random_effect_model(rng, x_size=2, y_binary=True)
        base = effect(model, EffectQuery(cause, outcome, 1.0))
        for d in DEGREES:
            expected = 0.0
            for z in base.breakdown.values():
                term = 0.0 if z.value == 0.0 else z.value ** d
                expected += z.probability * term
            got = effect(model, EffectQuery(cause, outcome, d)).value
            assert got == pytest.approx(expected, abs=1e-9)


def test_monotonicity_in_degree_has_counterexamples(rare_disease, bsc):
    # The claimed monotonicity in d holds when every weight is 1 (the channel
    # model) but reverses when all weights are below 1: the rare-trigger
    # closed form (4p(1-p))^d strictly decreases in d.  Recorded as a finding,
    # not asserted as a universal invariant.
    values_bsc = pace_vector(bsc, "X", "Y", [0.0, 0.5, 1.0, 2.0])
    assert all(b >= a - 1e-12 for a, b in zip(values_bsc, values_bsc[1:]))
    m = rare_disease(0.1)
    values_rare = pace_vector(m, "X", "Y", [0.0, 0.5, 1.0, 2.0])
    assert all(b < a for a, b in zip(values_rare, values_rare[1:]))


# --- mediators with computed values ------------------------------------------

_COMPUTED_MEDIATOR = """var X in {0, 1, 2, 3}
root X {0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4}
var M in {0, 0.1, 0.2, 0.3}
def M = X * 0.1
var Y in {0, 1}
fun Y | M { (0): 0, (0.1): 1, (0.2): 0, (0.3): 1 }
var W in {0, 1}
cpt W | M { (0): {0: 1, 1: 0}, (0.1): {0: 0.5, 1: 0.5}, (0.2): {0: 0.2, 1: 0.8}, (0.3): {0: 0, 1: 1} }
var V in {0, 1}
def V = M == 0.3
"""


def test_eliminate_mediator_reads_snapped_mediator_values():
    # 3 * 0.1 is 0.30000000000000004; enumeration snaps it onto the support
    # value 0.3, and so must the rewrite, for table and expression children.
    m = parse_model(_COMPUTED_MEDIATOR)
    reduced = eliminate_mediator(m, "M")
    assert validate(reduced) == []
    old = marginal(build_joint(m), ["X", "Y", "W", "V"]).table
    new = marginal(build_joint(reduced), ["X", "Y", "W", "V"]).table
    assert new.keys() == old.keys()
    for key, p in old.items():
        assert new[key] == pytest.approx(p, abs=1e-12)
    assert old[(3.0, 1.0, 1.0, 1.0)] == pytest.approx(0.4, abs=1e-12)
