"""The batched variation kernel (`variational.variations` and the numpy
`_kernel` behind it) against the row-at-a-time loops (`variation`): the
float bits of every value and every witness chain, on random stacks of
strata x degrees with ties, zero probabilities and -0.0 outcomes."""

import math

import numpy as np
import pytest

from vce import variational as vr
from vce.errors import QueryError

STACKS = 520
# 0.5 and 2.0 are where np.power takes sqrt and square shortcuts; 0.6000000000000001
# and 1.4000000000000001 are points of the `d=0:2:0.2` sweep grid.
DEGREES = (0.0, 1 / 3, 0.5, 0.6000000000000001, 1.0, 1.4000000000000001, 2.0, 40.0)


def _stack(rng):
    """(gs, ps, degrees): 1 to 2,048 rows over l = 1 to 130 cause values.
    Integer outcomes and equal or zero probabilities make ties; rows repeat
    now and then, some only up to a -0.0."""
    shape = rng.random()
    if shape < 0.1:
        l, n = int(rng.integers(48, 131)), int(rng.integers(1, 4))
    elif shape < 0.2:
        l, n = int(rng.integers(2, 5)), int(rng.integers(256, 2049))
    else:
        l, n = int(rng.choice((1, 2, 2, 3, 4, 5, 8, 12, 20))), int(rng.integers(1, 40))
    if rng.random() < 0.5:
        gs = rng.integers(-3, 4, (n, l)).astype(float)
        gs[rng.random((n, l)) < 0.3] = -0.0
    else:
        gs = rng.normal(size=(n, l)) * 10.0 ** float(rng.integers(-3, 4))
    ps = rng.random((n, l))
    if rng.random() < 0.3:
        ps[:] = 1.0
    ps[rng.random((n, l)) < 0.2] = 0.0
    ps /= np.maximum(ps.sum(axis=1, keepdims=True), 1e-300)
    if rng.random() < 0.1:  # 4 p q underflows to 0.0 while p, q > 0: (0.0) ** 0 is 1
        ps[rng.random((n, l)) < 0.3] = 1e-170
    if rng.random() < 0.3:  # repeated rows, some only up to a -0.0
        pick = rng.integers(0, max(1, n // 8), n)
        gs, ps = gs[pick], ps[pick]
        gs[gs == 0.0] = np.where(rng.random(np.count_nonzero(gs == 0.0)) < 0.5, -0.0, 0.0)
    k = int(rng.integers(1, 4)) if n * l * l < 40_000 else 1
    degrees = [float(d) for d in rng.choice(DEGREES, size=k, replace=k > len(DEGREES))]
    return [tuple(r) for r in gs.tolist()], [tuple(r) for r in ps.tolist()], degrees


def _bits(out):
    return [[(float(v).hex(), chain) for v, chain in per_row] for per_row in out]


def _pow(base: float, degree: float) -> float:
    try:
        return base ** degree
    except OverflowError:
        return math.inf


def test_float_power_is_python_pow_bit_for_bit():
    # The kernel's weights are np.float_power, the loops' Python `**`: both
    # must be libm `pow` on (4pq, d) with 4pq >= 0 and d >= 0 finite, and
    # float_power must give inf exactly where `**` raises OverflowError.
    rng = np.random.default_rng(2424)
    ps = rng.random((2, 200_000)) ** rng.integers(1, 40, (2, 200_000))
    bases = 4.0 * ps[0] * ps[1]
    degrees = np.where(rng.random(200_000) < 0.5, rng.choice(DEGREES, 200_000),
                       rng.random(200_000) * 10.0 ** rng.integers(-3, 4, 200_000))
    edge_bases = np.array([0.0, 5e-324, 2.2250738585072014e-308, 1e-170, 0.25,
                           np.nextafter(1.0, 0.0), 1.0])
    edge_degrees = np.array(DEGREES + (-0.0, 1e-300, 5e-324, 1e300, 1.9999999999999998))
    bases = np.concatenate([bases, np.repeat(edge_bases, len(edge_degrees))])
    degrees = np.concatenate([degrees, np.tile(edge_degrees, len(edge_bases))])
    with np.errstate(over="ignore"):
        got = np.float_power(bases, degrees).tolist()
    want = [_pow(b, d) for b, d in zip(bases.tolist(), degrees.tolist())]
    bad = [(b, d) for b, d, g, w in zip(bases.tolist(), degrees.tolist(), got, want)
           if g.hex() != w.hex()]
    assert not bad, (len(bad), bad[:5])


@pytest.mark.parametrize("variant", vr.VARIANTS)
def test_an_overflowing_weight_raises_what_the_loops_raise(variant):
    # Rows that are not distributions: 4pq = 2.25 > 1, and 2.25 ** 2000 is
    # past the largest float.  Row 0 is a distribution, so its first pair
    # is finite; only row 1 overflows, at the second degree.
    gs = [tuple(range(64))] * 2
    ps = [(1 / 64,) * 64, (0.75,) * 64]
    for call in (lambda: vr.variations(gs, ps, [1.0, 2000.0], variant, "abs"),
                 lambda: [vr.variation(g, p, d, variant, "abs") for d in (1.0, 2000.0)
                          for g, p in zip(gs, ps)]):
        with pytest.raises(QueryError) as raised:
            call()
        assert raised.value.args == ("the availability weight (4pq)^d overflows at d = 2000.0",)


def test_kernel_matches_the_loops_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(1515)
    ties = []
    chain = vr._chain
    monkeypatch.setattr(vr, "_chain", lambda *args: ties.append(1) or chain(*args))
    seen = dict.fromkeys(("l1", "l2", "wide", "tall", "mixed", "repeats", "negzero"), 0)
    for _ in range(STACKS):
        gs, ps, degrees = _stack(rng)
        l = len(gs[0])
        sign = str(rng.choice(vr.SIGNS))
        for variant in vr.VARIANTS:
            want = _bits([[vr.variation(g, p, d, variant, sign) for g, p in zip(gs, ps)]
                          for d in degrees])
            assert _bits(vr.variations(gs, ps, degrees, variant, sign)) == want, (variant, sign)
            if l > 1:
                got = vr._kernel(np.array(gs), np.array(ps), degrees, variant, sign)
                assert _bits(got) == want, (variant, sign, l, len(gs), degrees)
        seen["l1"] += l == 1
        seen["l2"] += l == 2
        seen["wide"] += l >= 100
        seen["tall"] += len(gs) >= 1024
        seen["mixed"] += len(set(degrees)) > 1
        seen["repeats"] += len(set(zip(gs, ps))) < len(gs)
        seen["negzero"] += any(math.copysign(1.0, g) < 0 for row in gs for g in row if g == 0.0)
    assert seen["l1"] >= 10 and seen["l2"] >= 30 and seen["wide"] >= 10, seen
    assert seen["tall"] >= 20 and seen["mixed"] >= 150, seen
    assert seen["repeats"] >= 100 and seen["negzero"] >= 150, seen
    assert len(ties) >= 100  # candidates that tie on value and points, settled by chain


def test_ties_settle_on_fewer_points_then_the_smallest_chain():
    # g rises by 1 at every step, all weights are 1 at d = 0: every chain
    # from 0 to 3 is worth 3; (0, 3) has the fewest points.
    gs, ps = [(0.0, 1.0, 2.0, 3.0)], [(0.25, 0.25, 0.25, 0.25)]
    assert vr._kernel(np.array(gs), np.array(ps), [0.0], "pace", "abs") == [[(3.0, (0, 3))]]
    # Two pairs worth 1 each: (0, 1) comes first, and no chain is worth more.
    gs = [(0.0, 1.0, 1.0, 0.0)]
    assert vr._kernel(np.array(gs), np.array(ps), [0.0], "pace", "positive") == [[(1.0, (0, 1))]]
    assert vr._kernel(np.array(gs), np.array(ps), [0.0], "space", "positive") == [[(1.0, (0, 1))]]


def test_every_term_zero_gives_the_first_pair():
    gs, ps = [(2.0, 1.0, 0.0)] * 2, [(0.5, 0.0, 0.5), (0.2, 0.3, 0.5)]
    for variant in ("pace", "space"):
        got = vr._kernel(np.array(gs), np.array(ps), [1.0, 0.0], variant, "positive")
        assert got == [[(0.0, (0, 1))] * 2] * 2


def test_an_infinite_difference_takes_the_loops():
    # 1e308 - (-1e308) overflows; the loops' NaN comparisons decide.
    gs, ps = [(-1e308, 1e308) * 32], [(0.0, 1 / 32) * 32]
    for variant in vr.VARIANTS:
        want = vr.variation(gs[0], ps[0], 1.0, variant, "abs")
        got = vr.variations(gs, ps, [1.0] * 11, variant, "abs")
        assert [repr(v) for [(v, _)] in got] == [repr(want[0])] * 11
        assert [chain for [(_, chain)] in got] == [want[1]] * 11


def test_a_nan_probability_takes_the_loops():
    # The loops weigh a pair with a NaN p as NaN ** d, where the kernel would weigh it 0.
    gs, ps = [tuple(range(64))] * 2, [(1 / 64,) * 63 + (math.nan,)] * 2
    for variant in vr.VARIANTS:
        want = [vr.variation(g, p, 1.0, variant, "abs") for g, p in zip(gs, ps)]
        assert _bits(vr.variations(gs, ps, [1.0], variant, "abs")) == _bits([want]), variant


@pytest.mark.parametrize("variant, sign, degree, message", [
    ("pace", "abs", -1.0, "degree must be >= 0, got -1.0"),
    ("space", "abs", math.inf, "degree must be finite, got inf"),
    ("apace", "up", 1.0, "unknown sign 'up'"),
    ("most", "abs", 1.0, "unknown variant 'most'"),
])
def test_the_kernel_raises_what_the_loops_raise(variant, sign, degree, message):
    gs, ps = [tuple(range(64))] * 2, [(1 / 64,) * 64] * 2
    for call in (lambda: vr.variations(gs, ps, [1.0, degree], variant, sign),
                 lambda: [vr.variation(g, p, d, variant, sign) for d in (1.0, degree)
                          for g, p in zip(gs, ps)]):
        with pytest.raises(vr.QueryError, match=f"^{message}$"):
            call()


def test_a_tie_between_chains_of_one_length_deep_in_the_dp():
    # At d = 40 every live pair weighs the same tiny amount, so sums of the
    # negative parts tie between chains that part early and meet again.
    gs = [(-0.04105949542588391, 0.034763413951044334, 0.043074284144778374, 0.028270851496307727,
           -0.02108961212635721, -0.07997222244194552, -0.20072130346228306, -0.11605634774578324,
           -0.06672047090089188, -0.04742359878822348, -0.030058039149591095, 0.14964197629814904,
           -0.01833449041402807, -0.1665848925680085, -0.09102573682192881, -0.05314929628702451,
           -0.1287709466687316, -0.03249011995362235, -0.005620788904710843, 0.030504059530461414)]
    ps = [(0.0, 1 / 18, 0.0) + (1 / 18,) * 17]
    want = vr.variation(gs[0], ps[0], 40.0, "pace", "negative")
    assert want[1] == (1, 5, 6, 11, 13, 15, 16)
    assert vr._kernel(np.array(gs), np.array(ps), [40.0], "pace", "negative") == [[want]]


def test_the_switch_takes_the_faster_side_of_the_timed_calls():
    # As timed on x86-64 (bench/variation.py `switch_s`, and the runs KERNEL_COSTS
    # is fitted to): chain-8 and chain-9 `eval` tables (256 and 512 rows of l = 4 at
    # one degree) and a 404-row l = 2 sweep over 5 degrees run faster on the kernel;
    # one-row per-z calls, `check`'s tables of 4 to 9 rows of l = 10 to 12, and the
    # few l = 2 rows of an `estimate` on the loops.  The loops serve every l < 2.
    for variant in vr.VARIANTS:
        assert vr.on_kernel(256, 4, 1, variant) and vr.on_kernel(512, 4, 1, variant), variant
        assert vr.on_kernel(404, 2, 5, variant), variant
        assert not any(vr.on_kernel(1, l, 1, variant) for l in range(1, 13)), variant
        assert not any(vr.on_kernel(rows, 2, 1, variant) for rows in range(1, 5)), variant
        assert not any(vr.on_kernel(rows, 1, 11, variant) for rows in (1, 100, 10**6)), variant
    assert not any(vr.on_kernel(1, l, 1, v) for l in range(13, 49) for v in ("pace", "peace"))
    assert not any(vr.on_kernel(rows, l, 1, "pace") for rows, l in ((9, 10), (5, 10), (4, 12), (6, 12)))
    assert not vr.on_kernel(10, 4, 1, "nope")  # the loops name an unknown variant
