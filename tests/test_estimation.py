import numpy as np
import pytest

from helpers import ZRow, random_effect_model, reference_row, table_of_rows
from vce.dsl import parse_model
from vce.engine import build_joint, conditional, marginal, sample
from vce.errors import DatasetError, UnavailableStratumError
from vce.estimation import (
    Dataset,
    covariate_weighted_effect,
    estimate_conditionals,
    identifiable_effect,
)
from vce.variational import EffectQuery, effect, g_in


# --- Dataset ------------------------------------------------------------------


def test_dataset_invariants():
    with pytest.raises(DatasetError):
        Dataset(("A",), ())
    with pytest.raises(DatasetError):
        Dataset(("A", "A"), ((0.0, 1.0),))
    with pytest.raises(DatasetError):
        Dataset(("A", "B"), ((0.0,),))


def test_dataset_csv_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("X,Y\n0,1\n1,0\n0.5,2\n", encoding="utf-8")
    data = Dataset.from_csv(str(path))
    assert data.columns == ("X", "Y")
    assert data.rows == ((0.0, 1.0), (1.0, 0.0), (0.5, 2.0))
    bad = tmp_path / "bad.csv"
    bad.write_text("X,Y\n0,oops\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        Dataset.from_csv(str(bad))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_dataset_rejects_non_finite_values(text, tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(f"X,Y\n0,1\n{text},2\n1,0\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="row 1 holds a non-finite value"):
        Dataset.from_csv(str(path))
    with pytest.raises(DatasetError, match="non-finite"):
        Dataset(("X", "Y"), ((0.0, float(text)),))


def test_dataset_validate_against_model(bsc, tmp_path):
    data = Dataset(("X", "Z"), ((0.0, 1.0), (1.0, 0.0)))
    data.validate_against(bsc)
    off = Dataset(("X", "Z"), ((0.0, 2.0),))
    with pytest.raises(DatasetError, match="outside the declared support"):
        off.validate_against(bsc)


# --- estimate_conditionals -------------------------------------------------------


def test_estimate_conditionals_deterministic_outcome_exact():
    rows = [(x, z, x * z) for x in (0.0, 1.0) for z in (0.0, 1.0) for _ in range(3)]
    data = Dataset(("X", "Z", "Y"), tuple(rows))
    table = estimate_conditionals(data, "X", "Y", ["Z"])
    for z in (0.0, 1.0):
        row = reference_row(table, {"Z": z})
        for i, x in enumerate((0.0, 1.0)):
            assert row.gs[i] == x * z
            assert row.ps[i] == pytest.approx(0.5, abs=0)
        assert row.probability == pytest.approx(0.5, abs=0)


def test_estimate_conditionals_single_row():
    data = Dataset(("X", "Y"), ((1.0, 2.0),))
    row = reference_row(estimate_conditionals(data, "X", "Y", []), {})
    assert row.probability == 1.0
    assert row.ps == (1.0,)
    assert row.gs == (2.0,)


def test_estimate_conditionals_sprinkler_sampling(sprinkler):
    cols, rows = sample(sprinkler, 100_000, seed=21)
    data = Dataset(cols, rows)
    table = estimate_conditionals(data, "S", "W", ["R"])
    assert reference_row(table, {"R": 1.0}).ps[1] == pytest.approx(0.18, abs=0.01)


def test_estimates_invariant_to_row_order(sprinkler):
    cols, rows = sample(sprinkler, 5000, seed=3)
    data = Dataset(cols, rows)
    shuffled = Dataset(cols, tuple(reversed(rows)))
    for variant in ("pace", "peace"):
        a = identifiable_effect(data, "R", "W", ["S"], 1.0, variant)
        b = identifiable_effect(shuffled, "R", "W", ["S"], 1.0, variant)
        assert a == pytest.approx(b, abs=1e-12)


# --- identifiable_effect -----------------------------------------------------------


def _exact_strata(model, cause, outcome, z_vars):
    """Population-level stratum table: the estimator's infinite-data limit."""
    joint = build_joint(model)
    xs = model.support(cause).values
    zdist = marginal(joint, list(z_vars))
    rows = []
    for z_key, pz in sorted(zdist.items()):
        if pz <= 0:
            continue
        z = dict(zip(z_vars, z_key))
        cond = conditional(joint, [cause], z)
        ws, means = [], []
        for x in xs:
            px = cond.probability((x,))
            ws.append(px)
            if px > 0:
                means.append(
                    sum(
                        y * p
                        for (y,), p in conditional(
                            joint, [outcome], dict(z, **{cause: x})
                        ).items()
                    )
                )
            else:
                means.append(0.0)  # weight 0 makes the value irrelevant
        rows.append(ZRow(z_key, pz, tuple(ws), tuple(means)))
    return table_of_rows(z_vars, rows, range(len(xs)), outcome)


def test_plugin_consistency_with_exact_probabilities():
    rng = np.random.default_rng(61)
    for _ in range(25):
        model, cause, outcome = random_effect_model(rng)
        z_vars = [p for p in model.parents(outcome) if p != cause]
        table = _exact_strata(model, cause, outcome, z_vars)
        d = float(rng.choice((0.0, 0.3, 1.0, 2.0)))
        for variant in ("pace", "peace", "space", "apace"):
            for sign in ("abs", "positive", "negative"):
                plug = table.aggregate([d], variant, sign)[0][0]
                exact = effect(model, EffectQuery(cause, outcome, d, variant, sign)).value
                assert plug == pytest.approx(exact, abs=1e-9), (variant, sign)


def test_full_coverage_dataset_reproduces_exact_value(ramp_reset):
    # Empirical distribution (2, 1, 3, 6)/12 equals the model's (1/6, 1/12,
    # 1/4, 1/2) exactly; Y is deterministic, so the estimate is exact.
    counts = {1.0: 2, 2.0: 1, 3.0: 3, 4.0: 6}
    rows = []
    for x, k in counts.items():
        y = g_in(ramp_reset, "Y", {"X": x})
        rows.extend([(x, y)] * k)
    data = Dataset(("X", "Y"), tuple(rows))
    assert identifiable_effect(data, "X", "Y", [], 1.0, "pace") == pytest.approx(
        4 / 3, abs=1e-9
    )
    assert identifiable_effect(data, "X", "Y", [], 1.0, "peace") == pytest.approx(
        41 / 36, abs=1e-9
    )


def test_degree_zero_unweighted_chain():
    data = Dataset(("X", "Y"), ((0.0, 0.0), (1.0, 2.0), (2.0, 1.0)))
    # All strata present; weights are all 1 at d = 0.
    assert identifiable_effect(data, "X", "Y", [], 0.0, "peace") == pytest.approx(
        abs(2 - 0) + abs(1 - 2), abs=1e-12
    )


def test_sampled_sprinkler_estimate_close_to_exact(sprinkler_functional):
    m = sprinkler_functional(0.5)
    cols, rows = sample(m, 100_000, seed=13)
    data = Dataset(cols, rows)
    for variant in ("pace", "peace"):
        got = identifiable_effect(data, "R", "W", ["S", "V3"], 1.0, variant)
        exact = effect(m, EffectQuery("R", "W", 1.0, variant)).value
        assert got == pytest.approx(exact, abs=0.02)


# --- covariate corollary -------------------------------------------------------------


def test_covariate_weights_collapse_to_plain_estimator():
    # Deterministic outcome and a covariate: the marginalized weights always
    # collapse to P(x|z); with Y deterministic the c0 means match every
    # stratum's means, so the two estimators coincide exactly.
    rng = np.random.default_rng(71)
    rows = []
    for _ in range(500):
        c = float(rng.integers(0, 2))
        z = float(rng.integers(0, 2))
        x = float(rng.integers(0, 3))
        y = x * (1 + z)
        rows.append((x, z, c, y))
    data = Dataset(("X", "Z", "C", "Y"), tuple(rows))
    for variant in ("pace", "peace", "apace"):
        a = covariate_weighted_effect(data, "X", "Y", ["Z"], "C", 1.0, variant)
        b = identifiable_effect(data, "X", "Y", ["Z"], 1.0, variant)
        assert a == pytest.approx(b, abs=1e-12)


def test_single_covariate_value_is_identity():
    rows = tuple((float(x), float(x % 2), 0.0) for x in range(10))
    data = Dataset(("X", "Y", "C"), rows)
    a = covariate_weighted_effect(data, "X", "Y", [], "C", 1.0, "peace")
    b = identifiable_effect(data, "X", "Y", [], 1.0, "peace")
    assert a == pytest.approx(b, abs=1e-12)


def test_linear_outcome_factorizes_through_natural_availability():
    # Y = 2 X + Z - U with U exogenous noise: the covariate estimate equals
    # alpha times the natural-availability estimate (same estimator with the
    # cause as its own outcome).
    m = parse_model(
        "var Cv in {0, 1}\n"
        "var Z in {0, 1}\n"
        "var U in {0, 1}\n"
        "var X in {0, 1, 2}\n"
        "var Y in {-1, 0, 1, 2, 3, 4, 5}\n"
        "root Cv {0: 0.4, 1: 0.6}\n"
        "root Z {0: 0.5, 1: 0.5}\n"
        "root U {0: 0.7, 1: 0.3}\n"
        "cpt X | Z, Cv {"
        "(0,0): {0: 0.5, 1: 0.3, 2: 0.2},"
        "(0,1): {0: 0.2, 1: 0.5, 2: 0.3},"
        "(1,0): {0: 0.3, 1: 0.3, 2: 0.4},"
        "(1,1): {0: 0.25, 1: 0.25, 2: 0.5}}\n"
        "def Y = 2 * X + Z - U\n"
    )
    cols, rows = sample(m, 100_000, seed=29)
    data = Dataset(cols, rows)
    alpha = 2.0
    for variant in ("pace", "peace"):
        est_y = covariate_weighted_effect(data, "X", "Y", ["Z"], "Cv", 1.0, variant)
        est_nat = covariate_weighted_effect(data, "X", "X", ["Z"], "Cv", 1.0, variant)
        assert est_y == pytest.approx(alpha * est_nat, abs=0.02)


def test_covariate_missing_c0_cells_raise():
    # x=2 never appears together with c0=0, but its marginalized weight is
    # positive, so the estimator must refuse.
    rows = (
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 2.0),
        (2.0, 1.0, 3.0),
        (0.0, 1.0, 1.0),
        (1.0, 1.0, 2.0),
    )
    data = Dataset(("X", "C", "Y"), rows)
    with pytest.raises(UnavailableStratumError):
        covariate_weighted_effect(data, "X", "Y", [], "C", 1.0, "peace", c0=0.0)


def test_covariate_c0_never_observed():
    data = Dataset(("X", "C", "Y"), ((0.0, 1.0, 1.0), (1.0, 1.0, 2.0)))
    with pytest.raises(UnavailableStratumError):
        covariate_weighted_effect(data, "X", "Y", [], "C", 1.0, "peace", c0=5.0)


@pytest.mark.parametrize("rows, means", [
    (((0.0, 1e308), (0.0, 1e308), (1.0, 0.0)), "[inf, 0.0]"),  # a sum, so a mean, overflows
    (((0.0, 1e308), (1.0, -1e308)), "[1e+308, -1e+308]"),  # their difference overflows
    (((0.0, -1e308), (0.0, -1e308), (1.0, 1.0)), "[-inf, 1.0]"),
])
def test_overflowing_outcome_means_are_rejected(rows, means):
    data = Dataset(("X", "Y"), rows)
    message = (f"'Y' means over 'X' = [0.0, 1.0] at z = () are {means}: not finite, "
               "or farther apart than the largest float")
    with pytest.raises(DatasetError) as err:
        estimate_conditionals(data, "X", "Y", [])
    assert str(err.value) == message
    for estimate in (lambda: identifiable_effect(data, "X", "Y", [], 1.0),
                     lambda: covariate_weighted_effect(Dataset(("X", "Y", "C"), [r + (0.0,) for r in rows]),
                                                       "X", "Y", [], "C", 1.0)):
        with pytest.raises(DatasetError, match="not finite"):
            estimate()


def test_an_overflow_is_reported_in_its_stratum():
    data = Dataset(("Z", "X", "Y"), ((0.0, 0.0, 1.0), (0.0, 1.0, 2.0), (-0.0, 1.0, 3.0),
                                     (1.0, 0.0, 1e308), (1.0, 0.0, 1e308), (1.0, 1.0, 5.0)))
    with pytest.raises(DatasetError, match=r"at z = \(1\.0,\) are \[inf, 5\.0\]"):
        estimate_conditionals(data, "X", "Y", ["Z"])
    estimate_conditionals(Dataset(("X", "Y"), ((0.0, 1e308), (1.0, 0.0))), "X", "Y", [])  # finite
