"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest hook prints one PASS/FAIL line per criterion at the end of the
run.  Golden numbers come from the worked examples; randomized suites pin
their seeds so failures reproduce.
"""

import math

import numpy as np
import pytest

from helpers import ZRow, load_model_text, random_dsl_model, random_effect_model, table_of_rows
from vce.baselines import ace, acde, cmi_strength, ipwe, janzing_strength, mi_strength
from vce.counterfactual import Evidence, counterfactual_query
from vce.dsl import parse_model, serialize_model
from vce.engine import build_joint, conditional, entropy, marginal, sample
from vce.engine import conditional_mutual_information, mutual_information
from vce.errors import ParseError
from vce.estimation import Dataset, identifiable_effect
from vce.model import Partition, bind
from vce.rewrites import cpt_to_noise
from vce.variational import (
    EffectQuery,
    brute_force_piv,
    effect,
    matrix_form_piev,
    piev,
    piv,
    spiv,
)

SIGNS = ("abs", "positive", "negative")
VARIANTS = ("pace", "peace", "space", "apace")


def _per_z(model, cause, outcome):
    joint = build_joint(model)
    z_vars = [p for p in model.parents(outcome) if p != cause]
    zdist = marginal(joint, z_vars)
    return [dict(zip(z_vars, k)) for k, p in sorted(zdist.items()) if p > 0]


def test_c01_four_level_example_golden_values(ramp_reset):
    expected = {"pace": 4 / 3, "peace": 41 / 36, "apace": 59 / 36, "space": 1.0}
    for variant, want in expected.items():
        got = effect(ramp_reset, EffectQuery("X", "Y", 1.0, variant)).value
        assert got == pytest.approx(want, abs=1e-12), variant
    report = effect(ramp_reset, EffectQuery("X", "Y", 1.0, "pace"))
    assert report.breakdown[()].partition == Partition((0, 2, 3))


def test_c02_crossover_witness_and_values(crossover):
    # Independent closed forms: full chain 3*(48/1225)^d vs outer pair
    # (256/1225)^d, each normalized by 4^d.
    a, b, g = 16 / 35, 3 / 35, 16 / 35
    for d, want_witness in ((1 / 3, Partition((0, 1, 2))), (1.0, Partition((0, 2)))):
        chain = 2 * (a * b) ** d + (b * g) ** d
        pair = (a * g) ** d
        want_value = (4.0 ** d) * max(chain, pair)
        report = effect(crossover, EffectQuery("X", "Y", d, "pace"))
        assert report.breakdown[()].partition == want_witness, d
        assert report.value == pytest.approx(want_value, abs=1e-12)
    # The crossover is real: different branches win at the two degrees.
    assert 2 * (a * b) ** (1 / 3) + (b * g) ** (1 / 3) > (a * g) ** (1 / 3)
    assert 2 * (a * b) ** 1.0 + (b * g) ** 1.0 < (a * g) ** 1.0


def test_c03_binary_channel(bsc):
    for d in (0.0, 0.5, 1.0, 2.0):
        assert effect(bsc, EffectQuery("X", "Y", d)).value == pytest.approx(1.0, abs=1e-9)
    assert acde(bsc, "X", 0.0, 1.0, "Y", ["Z"]) == pytest.approx(0.0, abs=1e-9)
    assert janzing_strength(bsc, [("X", "Y")]) == pytest.approx(1.0, abs=1e-9)
    joint = build_joint(bsc)
    assert mutual_information(joint, "X", "Y") == pytest.approx(0.0, abs=1e-9)
    assert conditional_mutual_information(joint, "X", "Y", ["Z"]) == pytest.approx(
        1.0, abs=1e-9
    )
    for y0 in (0.0, 1.0):
        dist = counterfactual_query(bsc, Evidence({"Y": y0, "X": 0.0}), {"X": 1.0}, "Y")
        assert dist.probability((float(1 - int(y0)),)) == pytest.approx(1.0, abs=1e-9)


def test_c04_rare_disease(rare_disease):
    for p in (0.001, 0.01, 0.1):
        m = rare_disease(p)
        for d in (0.0, 1.0):
            assert effect(m, EffectQuery("X", "Y", d)).value == pytest.approx(
                (4 * p * (1 - p)) ** d, abs=1e-9
            )
        assert acde(m, "X", 0.0, 1.0, "Y", []) == pytest.approx(1.0, abs=1e-9)
        h = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert mi_strength(m, "X", "Y") == pytest.approx(h, abs=1e-9)


def _closed_form_pace_r(p, d):
    def pw(base):
        return base ** d if base > 0 else 0.0

    c = 0.084 * p / (0.07 + 0.3 * p) ** 2 if p > 0 else 0.0
    return (
        0.6561 * pw(5231.6 / 5314.41)
        + 0.0439 * pw(4.756 / 19.2721)
        + 0.3 * (0.07 + 0.3 * p) * pw(c)
    )


def _closed_form_pace_s(p, d):
    def pw(base):
        return base ** d if base > 0 else 0.0

    c = 0.05904 * p / (0.082 + 0.18 * p) ** 2 if p > 0 else 0.0
    return (
        0.4761 * pw(267960 / 279841)
        + 0.0239 * pw(97440 / 228484)
        + 0.5 * (0.082 + 0.18 * p) * pw(c)
    )


def test_c05_sprinkler(sprinkler):
    joint = build_joint(sprinkler)
    assert conditional(joint, ["S"], {"R": 1.0}).probability((1.0,)) == pytest.approx(
        0.18, abs=1e-9
    )
    assert conditional(joint, ["R"], {"S": 0.0}).probability((1.0,)) == pytest.approx(
        41 / 70, abs=1e-9
    )
    assert ace(sprinkler, "R", 0.0, 1.0, "W") == pytest.approx(0.653, abs=1e-9)
    assert ace(sprinkler, "S", 0.0, 1.0, "W") == pytest.approx(0.495, abs=1e-9)
    # The reported post-cutting strengths for this example are in nats; the
    # default stays bits (the binary-channel figure above is in bits).
    assert janzing_strength(sprinkler, [("R", "W")], base=math.e) == pytest.approx(
        0.351431, abs=1e-5
    )
    assert janzing_strength(sprinkler, [("S", "W")], base=math.e) == pytest.approx(
        0.270828, abs=1e-5
    )
    assert mi_strength(sprinkler, "R", "W") == pytest.approx(0.2483275, abs=1e-5)
    assert mi_strength(sprinkler, "S", "W") == pytest.approx(0.125463, abs=1e-5)
    assert cmi_strength(sprinkler, "R", "W") == pytest.approx(0.49359151, abs=1e-5)
    assert cmi_strength(sprinkler, "S", "W") == pytest.approx(0.37072701, abs=1e-5)
    assert entropy(marginal(joint, ["W"])) == pytest.approx(0.933262, abs=1e-5)

    # Closed forms at 20 random (p, d); the functional model comes from the
    # engine's own noise conversion.
    rng = np.random.default_rng(20230905)
    template = cpt_to_noise(sprinkler, "W", free_parameter="p")
    at_zero = effect(bind(template, {"p": 0.0}), EffectQuery("R", "W", 1.0)).value
    assert at_zero == pytest.approx(0.65671, abs=1e-4)
    assert at_zero == pytest.approx(_closed_form_pace_r(0.0, 1.0), abs=1e-9)
    for _ in range(20):
        p, d = float(rng.random()), float(rng.random())
        m = bind(template, {"p": p})
        got_r = effect(m, EffectQuery("R", "W", d)).value
        got_s = effect(m, EffectQuery("S", "W", d)).value
        assert got_r == pytest.approx(_closed_form_pace_r(p, d), abs=1e-9)
        assert got_s == pytest.approx(_closed_form_pace_s(p, d), abs=1e-9)

    # Dominance on the 0.05 grid.
    for i in range(21):
        for j in range(21):
            p, d = round(i * 0.05, 2), round(j * 0.05, 2)
            m = bind(template, {"p": p})
            r = effect(m, EffectQuery("R", "W", d)).value
            s = effect(m, EffectQuery("S", "W", d)).value
            assert r > s, (p, d)


def test_c06_sprinkler_counterfactual(sprinkler_functional):
    for p in (0.0, 0.5, 1.0):
        m = sprinkler_functional(p)
        dist = counterfactual_query(
            m, Evidence({"W": 1.0}, context={"R": 0.0}), {"R": 1.0}, "W"
        )
        assert dist.probability((0.0,)) == pytest.approx(
            0.0439 / (0.3229 - 0.09 * p), abs=1e-9
        )


def test_c07_dp_equals_brute_force_500_models():
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(500):
        model, cause, outcome = random_effect_model(rng)
        d = float(rng.choice((0.0, 0.3, 1.0, 2.0)))
        for sign in SIGNS:
            q = EffectQuery(cause, outcome, d, "pace", sign)
            for z in _per_z(model, cause, outcome):
                dp_value, _ = piv(model, q, z)
                bf_value, _ = brute_force_piv(model, q, z)
                if abs(dp_value - bf_value) > 1e-9:
                    failures += 1
    assert failures == 0


def test_c08_inequalities_and_binary_coincidence():
    rng = np.random.default_rng(88)
    saw_binary = 0
    for _ in range(120):
        binary = bool(rng.random() < 0.4)
        model, cause, outcome = random_effect_model(rng, x_size=2 if binary else None)
        d = float(rng.choice((0.0, 0.3, 1.0, 2.0)))
        values = {
            v: effect(model, EffectQuery(cause, outcome, d, v)).value for v in VARIANTS
        }
        assert values["peace"] <= values["pace"] + 1e-12
        assert values["space"] <= values["pace"] + 1e-12
        assert values["pace"] <= values["apace"] + 1e-12
        if len(model.support(cause)) == 2:
            saw_binary += 1
            assert values["pace"] == values["peace"] == values["space"] == values["apace"]
    assert saw_binary >= 20


def test_c09_signed_identities():
    rng = np.random.default_rng(99)
    for _ in range(60):
        model, cause, outcome = random_effect_model(rng)
        d = float(rng.choice((0.0, 0.3, 1.0, 2.0)))

        def value(variant, sign):
            return effect(model, EffectQuery(cause, outcome, d, variant, sign)).value

        for variant in ("peace", "apace"):
            assert value(variant, "abs") == pytest.approx(
                value(variant, "positive") + value(variant, "negative"), abs=1e-9
            )
        p_abs = value("pace", "abs")
        p_pos = value("pace", "positive")
        p_neg = value("pace", "negative")
        assert max(p_pos, p_neg) <= p_abs + 1e-9
        assert p_abs <= p_pos + p_neg + 1e-9
        for z in _per_z(model, cause, outcome):
            s_abs, _ = spiv(model, EffectQuery(cause, outcome, d, "space", "abs"), z)
            s_pos, _ = spiv(model, EffectQuery(cause, outcome, d, "space", "positive"), z)
            s_neg, _ = spiv(model, EffectQuery(cause, outcome, d, "space", "negative"), z)
            assert s_abs == pytest.approx(max(s_pos, s_neg), abs=1e-9)


def test_c10_support_restriction_postulate(ramp_reset):
    rng = np.random.default_rng(1010)
    trials = 0
    while trials < 200:
        model, cause, outcome = random_effect_model(rng)
        xs = model.support(cause).values
        if len(xs) < 3:
            continue
        size = int(rng.integers(2, len(xs)))
        subset = sorted(float(v) for v in rng.choice(xs, size=size, replace=False))
        d = float(rng.choice((0.0, 0.3, 1.0, 2.0)))
        for variant in ("pace", "space", "apace"):
            q = EffectQuery(cause, outcome, d, variant)
            assert (
                effect(model, q, support_subset=subset).value
                <= effect(model, q).value + 1e-12
            )
        trials += 1
    # The easy variant violates the postulate on the four-level example.
    q = EffectQuery("X", "Y", 1.0, "peace")
    restricted = effect(ramp_reset, q, support_subset=[1.0, 3.0, 4.0]).value
    full = effect(ramp_reset, q).value
    assert restricted == pytest.approx(4 / 3, abs=1e-12)
    assert full == pytest.approx(41 / 36, abs=1e-12)
    assert restricted > full


def test_c11_matrix_form_and_moment_property():
    rng = np.random.default_rng(1111)
    # Matrix path equals the direct chain sum.
    for _ in range(40):
        model, cause, outcome = random_effect_model(rng, x_size=int(rng.integers(2, 6)))
        d = float(rng.choice((0.0, 0.3, 1.0, 2.0)))
        sign = str(rng.choice(SIGNS))
        q = EffectQuery(cause, outcome, d, "pace", sign)
        size = len(model.support(cause))
        for z in _per_z(model, cause, outcome):
            k = int(rng.integers(2, size + 1))
            indices = Partition(tuple(sorted(rng.choice(size, size=k, replace=False))))
            assert matrix_form_piev(model, q, z, indices) == pytest.approx(
                piev(model, q, z, indices), abs=1e-9
            )
    # Binary cause and {0,1} outcome: the degree-d effect is the d-th moment
    # of the degree-1 conditional variation (0^0 read as 0, as in weight()).
    for _ in range(40):
        model, cause, outcome = random_effect_model(rng, x_size=2, y_binary=True)
        base = effect(model, EffectQuery(cause, outcome, 1.0))
        for d in (0.0, 0.3, 1.0, 2.0):
            moment = sum(
                z.probability * (z.value ** d if z.value > 0 else 0.0)
                for z in base.breakdown.values()
            )
            got = effect(model, EffectQuery(cause, outcome, d)).value
            assert got == pytest.approx(moment, abs=1e-9)


def test_c12_estimation_consistency(ramp_reset, sprinkler, sprinkler_functional):
    # Exact plug-in equals the engine on random models.
    rng = np.random.default_rng(1212)
    for _ in range(20):
        model, cause, outcome = random_effect_model(rng)
        z_vars = [p for p in model.parents(outcome) if p != cause]
        joint = build_joint(model)
        xs = model.support(cause).values
        zdist = marginal(joint, z_vars)
        rows = []
        for z_key, pz in sorted(zdist.items()):
            if pz <= 0:
                continue
            cond = conditional(joint, [cause], dict(zip(z_vars, z_key)))
            ws, means = [], []
            for x in xs:
                px = cond.probability((x,))
                ws.append(px)
                if px > 0:
                    ydist = conditional(
                        joint, [outcome], dict(zip(z_vars, z_key), **{cause: x})
                    )
                    means.append(sum(y * p for (y,), p in ydist.items()))
                else:
                    means.append(0.0)  # weight 0 makes the value irrelevant
            rows.append(ZRow(z_key, pz, tuple(ws), tuple(means)))
        table = table_of_rows(z_vars, rows, range(len(xs)), outcome)
        d = float(rng.choice((0.0, 0.3, 1.0, 2.0)))
        for variant in VARIANTS:
            assert table.aggregate([d], variant, "abs")[0][0] == pytest.approx(
                effect(model, EffectQuery(cause, outcome, d, variant)).value, abs=1e-9
            )

    # Full-coverage dataset reproduces the four-level PACE exactly.
    counts = {1.0: 2, 2.0: 1, 3.0: 3, 4.0: 6}
    rows = []
    for x, k in counts.items():
        y = 1.0 if x == 4.0 else x
        rows.extend([(x, y)] * k)
    data = Dataset(("X", "Y"), tuple(rows))
    assert identifiable_effect(data, "X", "Y", [], 1.0, "pace") == pytest.approx(
        4 / 3, abs=1e-9
    )

    # Sampled-data estimates within 0.02 of exact on the sprinkler.
    m = sprinkler_functional(0.5)
    cols, srows = sample(m, 100_000, seed=1212)
    sdata = Dataset(cols, srows)
    for variant in ("pace", "peace"):
        got = identifiable_effect(sdata, "R", "W", ["S", "V3"], 1.0, variant)
        exact = effect(m, EffectQuery("R", "W", 1.0, variant)).value
        assert got == pytest.approx(exact, abs=0.02)

    # IPWE within 0.02 of E(W | do(R=1)) = 0.93.
    cols4, rows4 = sample(sprinkler, 100_000, seed=2121)
    data4 = Dataset(cols4, rows4)
    assert ipwe(data4, "R", 1.0, "W", ["C"]) == pytest.approx(0.93, abs=0.02)


def test_c13_dsl_round_trip_and_fuzz():
    rng = np.random.default_rng(1313)
    for _ in range(1000):
        model = random_dsl_model(rng)
        assert parse_model(serialize_model(model)) == model
    # Malformed inputs fail cleanly with ParseError, never crash.
    base = load_model_text("sprinkler_functional.sem")
    junk = ["{", "~", "var", "1/0", ")", "then", "cpt |", "0:", "\x00", "param p in [1, 0]"]
    for _ in range(300):
        pos = int(rng.integers(0, len(base)))
        ins = junk[int(rng.integers(0, len(junk)))]
        mutated = base[:pos] + ins + base[pos + 2 :]
        try:
            parse_model(mutated)
        except ParseError:
            pass
