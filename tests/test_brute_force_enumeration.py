"""The exhaustive PACE oracle (`variational.brute_force_total_variation`, a
numpy enumeration of every increasing chain) against the loop it replaced,
one chain_value call per chain (`helpers.reference_brute_force_total_variation`):
float bits, witness chains and error texts on random rows with zero, equal
and NaN probabilities, tied and all-zero rows and sums that overflow; and
against the DP (`total_variation`) at l = 18 to 20, past the loop's reach."""

import math

import numpy as np
import pytest

from helpers import reference_brute_force_total_variation
from vce import variational as vr

ROWS = 2400
DEGREES = (0.0, 1 / 3, 0.5, 1.0, 2.0)
KINDS = ("real", "integer", "flat", "huge")


def _row(rng):
    """(gs, ps, degree, sign, kind): l = 1 to 14 values, most of them short.
    Integer outcomes and equal probabilities tie chains, flat rows tie every
    chain at 0.0, and huge outcomes overflow sums to inf (or a difference, so
    inf times a zero weight is NaN)."""
    l = int(rng.integers(11, 15)) if rng.random() < 0.03 else int(rng.integers(1, 11))
    kind = KINDS[int(rng.integers(len(KINDS)))]
    if kind == "real":
        gs = rng.normal(size=l) * 10.0 ** float(rng.integers(-3, 4))
    elif kind == "integer":
        gs = rng.integers(-2, 3, l).astype(float)
    elif kind == "flat":
        gs = np.full(l, float(rng.integers(-2, 3)))
    else:
        gs = rng.choice((0.0, 1.5e308, -1.5e308, 1e308), size=l)
    ps = np.full(l, 1.0) if rng.random() < 0.3 else rng.random(l)
    ps[rng.random(l) < 0.2] = 0.0
    ps /= max(ps.sum(), 1e-300)
    if rng.random() < 0.05:  # a library caller's NaN: weight() compares it as positive
        ps[rng.integers(l)] = math.nan
    degree = DEGREES[int(rng.integers(len(DEGREES)))]
    return gs.tolist(), ps.tolist(), degree, vr.SIGNS[int(rng.integers(3))], kind


def _outcome(fn, *args):
    """(value as float.hex, witness), or (error type, error text)."""
    try:
        value, chain = fn(*args)
    except Exception as error:  # noqa: BLE001 - the texts are what is compared
        return type(error).__name__, str(error)
    return float(value).hex(), chain


def test_enumeration_matches_the_loop_bit_for_bit():
    rng = np.random.default_rng(2020)
    seen = dict.fromkeys(("inf", "nan", "zero", "wide", *KINDS), 0)
    for _ in range(ROWS):
        gs, ps, degree, sign, kind = _row(rng)
        want = _outcome(reference_brute_force_total_variation, gs, ps, degree, sign)
        assert _outcome(vr.brute_force_total_variation, gs, ps, degree, sign) == want, \
            (gs, ps, degree, sign)
        seen[kind] += 1
        seen["inf"] += want[0] == "inf"
        seen["nan"] += want[0] == "nan"
        seen["zero"] += want[0] == "0x0.0p+0" and len(gs) > 2
        seen["wide"] += len(gs) > 10
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("gs, ps, degree, sign", [
    ([1.0] * 21, [1 / 21] * 21, 1.0, "abs"),  # past the cap
    ([0.0, 1.0], [0.5, 0.5], -1.0, "abs"),
    ([0.0, 1.0], [0.5, 0.5], math.inf, "abs"),
    ([0.0, 1.0], [0.5, 0.5], math.nan, "positive"),
    ([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], 1.0, "both"),
    ([0.0, 1.0, 2.0], [0.2, 0.3, 0.5], -1.0, "both"),  # the sign is checked first
    ([0.0, 1.0, 2.0], [1e100, 1e100, 1e100], 2.0, "abs"),  # (4e200) ** 2 overflows
    # Pair (0, 3) fails before (1, 2) only in the loop's order: by size, then
    # lexicographically, not end point by end point.
    ([0.0, 0.0, 0.0, None], [0.5, 1e100, 1e100, 0.5], 2.0, "abs"),
    ([5.0], [1.0], -1.0, "nonsense"),  # under 2 values nothing is checked
    ([], [], 1.0, "abs"),
])
def test_errors_and_short_rows_match_the_loop(gs, ps, degree, sign):
    want = _outcome(reference_brute_force_total_variation, gs, ps, degree, sign)
    assert _outcome(vr.brute_force_total_variation, gs, ps, degree, sign) == want


def test_nan_first_chain_wins_and_later_nan_chains_never_do():
    # (0, 1) is NaN: the loop keeps it against every later candidate.
    gs, ps = [0.0, 1.0, 5.0], [math.nan, 0.5, 0.5]
    assert _outcome(vr.brute_force_total_variation, gs, ps, 1.0, "abs") == ("nan", (0, 1))
    # Only chains through position 2 are NaN; the best other chain wins.
    gs, ps = [0.0, 1.0, 5.0, 2.0], [0.3, 0.3, math.nan, 0.4]
    value, chain = vr.brute_force_total_variation(gs, ps, 1.0, "abs")
    assert chain == (0, 3) and not math.isnan(value)


@pytest.mark.parametrize("l", [18, 19, 20])
def test_long_rows_match_the_dp(l):
    rng = np.random.default_rng(l)
    ps = rng.random(l)
    ps[rng.random(l) < 0.2] = 0.0
    ps = (ps / ps.sum()).tolist()
    rows = [(rng.normal(size=l).tolist(), ps, d, sign)
            for d, sign in ((1.0, "abs"), (1 / 3, "positive"), (2.0, "negative"))]
    rows.append(([1.0] * l, ps, 1.0, "abs"))  # every chain ties at 0.0: (0, 1) wins
    rows.append(([float(i % 3) for i in range(l)], [1 / l] * l, 0.0, "abs"))  # integer ties
    for gs, ps, degree, sign in rows:
        want = vr.total_variation(gs, ps, degree, sign)
        got = vr.brute_force_total_variation(gs, ps, degree, sign)
        assert (float(got[0]).hex(), got[1]) == (float(want[0]).hex(), want[1])
