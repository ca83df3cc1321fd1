"""Variational direct causal effects over deterministic outcome nodes.

For an outcome Y = g(X, Z) the per-z machinery accumulates weighted
outcome differences along increasing chains of X's support:

  easy      - the full consecutive chain (one term per adjacent pair)
  total     - the max over all increasing chains (dynamic programming)
  supremum  - the max over single pairs
  aggregated- the sum over all pairs

Each pair (x, x') contributes  delta(g) * weight(P(x'|z), P(x|z), d)
where weight(p, q, d) = (4pq)^d is the normalized natural availability
of the change and delta is the absolute, positive, or negative part of
the difference.  The effect is the expectation of the per-z value over
Z.  A change through a zero-probability value is never naturally
available, so weight(p, q, d) = 0 whenever p or q is 0 - for every d,
including d = 0 (0^0 is taken as 0 here).
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, combinations
from typing import Mapping, Sequence

import numpy as np

from .engine import (
    POINT,
    Distribution,
    build_joint,
    deterministic_value,
    interventional_means,
    marginal,
    stratify,
)
from .errors import QueryError, ZeroProbabilityError
from .model import VALUE_TOL, Deterministic, Grid, Model, Partition, _points, bind_grid

VARIANTS = ("pace", "peace", "space", "apace")
SIGNS = ("abs", "positive", "negative")

Chain = tuple[int, ...]


def _degree_error(degree: float) -> QueryError:
    if degree < 0:
        return QueryError(f"degree must be >= 0, got {degree}")
    return QueryError(f"degree must be finite, got {degree}")


def weight(p: float, q: float, degree: float) -> float:
    """Normalized availability weight (4pq)^d; 0 whenever p or q is 0."""
    if not 0 <= degree < math.inf:
        raise _degree_error(degree)
    if p <= 0.0 or q <= 0.0:
        return 0.0
    return _power(4.0 * p * q, degree)


def _power(base: float, degree: float) -> float:
    """base ** degree; a QueryError past the largest float (4pq > 1 by rounding)."""
    try:
        return base ** degree
    except OverflowError:
        raise QueryError(f"the availability weight (4pq)^d overflows at d = {degree!r}") from None


def signed_difference(later: float, earlier: float, sign: str) -> float:
    diff = later - earlier
    if sign == "abs":
        return abs(diff)
    if sign == "positive":
        return diff if diff > 0.0 else 0.0
    if sign == "negative":
        return -diff if diff < 0.0 else 0.0
    raise QueryError(f"unknown sign '{sign}'")


def _pair_term(gs, ps, i: int, j: int, degree: float, sign: str) -> float:
    return signed_difference(gs[j], gs[i], sign) * weight(ps[j], ps[i], degree)


def chain_value(gs, ps, chain: Sequence[int], degree: float, sign: str) -> float:
    total = 0.0
    for a, b in zip(chain, chain[1:]):
        total += _pair_term(gs, ps, a, b, degree, sign)
    return total


def _better(a: tuple[float, int, Chain], b: tuple[float, int, Chain]) -> bool:
    # Max value; ties broken by fewer points, then smallest index sequence.
    if a[0] != b[0]:
        return a[0] > b[0]
    return (a[1], a[2]) < (b[1], b[2])


def total_variation(gs, ps, degree: float, sign: str) -> tuple[float, Chain | None]:
    """Max-weight increasing chain via O(l^2) DP; returns (value, witness)."""
    l = len(gs)
    if l < 2:
        return 0.0, None
    best: list[tuple[float, int, Chain]] = []
    for j in range(l):
        cand = (0.0, 1, (j,))
        for i in range(j):
            e = _pair_term(gs, ps, i, j, degree, sign)
            v, length, chain = best[i]
            ext = (v + e, length + 1, chain + (j,))
            if _better(ext, cand):
                cand = ext
        best.append(cand)
    winner: tuple[float, int, Chain] | None = None
    for b in best:
        if b[1] >= 2 and (winner is None or _better(b, winner)):
            winner = b
    if winner is None:  # every pair contributes 0
        return 0.0, (0, 1)
    return winner[0], winner[2]


def brute_force_total_variation(gs, ps, degree: float, sign: str) -> tuple[float, Chain | None]:
    """Exhaustive max over all 2^l - l - 1 increasing chains (the DP's oracle).

    Every chain is enumerated, in numpy.  A chain with bitmask b (bit i set
    for each of its points i) sits at index b - 1 of one array, so the chains
    ending at j fill [2^j - 1, 2^(j+1) - 1): the singleton (j), worth 0.0,
    then the chains ending at each i < j in turn, each extended by the pair
    term t(i, j).  A value is thus built by chain_value's own additions, left
    to right from 0.0, and has its bits.  The winner is the one the loop over
    sizes and combinations keeps (`_better`): the largest value, then the
    fewest points, then the lexicographically smallest chain.  A NaN chain
    never wins, unless it is the loop's first candidate (0, 1), which then
    nothing beats.
    """
    l = len(gs)
    if l < 2:
        return 0.0, None
    if l > 20:
        raise QueryError(f"support too large for brute force ({l} values)")
    # In the loop's order, so the first pair term to raise is the loop's.
    terms = {(i, j): _pair_term(gs, ps, i, j, degree, sign) for i, j in combinations(range(l), 2)}
    values = np.zeros(2 ** l - 1)
    with np.errstate(over="ignore"):  # a Python float sum overflows to inf without a warning
        for j in range(1, l):
            for i in range(j):
                np.add(values[2 ** i - 1:2 ** (i + 1) - 1], terms[i, j],
                       out=values[2 ** j + 2 ** i - 1:2 ** j + 2 ** (i + 1) - 1])
    if math.isnan(values[2]):  # the chain (0, 1)
        return values[2].item(), (0, 1)
    # Terms are >= 0 or NaN, so the singletons' 0.0 never exceeds the best chain.
    hit = values == np.fmax.reduce(values)
    hit[(1 << np.arange(l)) - 1] = False
    one = points = np.ones(1, dtype=np.uint8)  # the chain at index b - 1 has popcount(b) points
    for _ in range(1, l):
        points = np.concatenate([points, one, points + 1])
    hit &= points == points[hit].min()
    chains = rest = np.flatnonzero(hit) + 1
    while len(chains) > 1:  # the smallest first point, then the smallest second, ...
        low = rest & -rest
        keep = low == low.min()
        chains, rest = chains[keep], (rest - low)[keep]
    chain = int(chains[0])
    return values[chain - 1].item(), tuple(i for i in range(l) if chain >> i & 1)


def supremum_variation(gs, ps, degree: float, sign: str) -> tuple[float, Chain | None]:
    l = len(gs)
    if l < 2:
        return 0.0, None
    winner: tuple[float, int, Chain] | None = None
    for i in range(l):
        for j in range(i + 1, l):
            cand = (_pair_term(gs, ps, i, j, degree, sign), 2, (i, j))
            if winner is None or _better(cand, winner):
                winner = cand
    return winner[0], winner[2]


def aggregated_variation(gs, ps, degree: float, sign: str) -> float:
    l = len(gs)
    total = 0.0
    for i in range(l):
        for j in range(i + 1, l):
            total += _pair_term(gs, ps, i, j, degree, sign)
    return total


def variation(gs, ps, degree: float, variant: str, sign: str) -> tuple[float, Chain | None]:
    """Dispatch on variant; returns (value, witness chain or None)."""
    if variant == "pace":
        return total_variation(gs, ps, degree, sign)
    if variant == "peace":
        return chain_value(gs, ps, range(len(gs)), degree, sign), None
    if variant == "space":
        return supremum_variation(gs, ps, degree, sign)
    if variant == "apace":
        return aggregated_variation(gs, ps, degree, sign), None
    raise QueryError(f"unknown variant '{variant}'")


# What a `variations` call costs on each path, in µs: the kernel's fixed cost and
# its cost per step, per row step and per pair term, then the loops' cost per row
# and per pair term.  A row is a (row, degree) pair.  PACE's kernel steps through
# the l - 1 columns of its DP with every row at once; the others step through the
# degrees.  PEACE has l - 1 pair terms per row, the others l (l - 1) / 2.  Fitted
# to timeit runs on x86-64 (Python 3.11, numpy 2.4) of 1 to 2,048 rows, l = 2 to
# 128 and 1 to 11 degrees.
KERNEL_COSTS = {
    "pace": (43.7, 28.5, 0.52, 0.0216, 0.887, 0.584),
    "peace": (14.6, 11.3, 0.0509, 0.0273, 0.78, 0.349),
    "space": (29.4, 7.54, 0.103, 0.0172, 0.575, 0.454),
    "apace": (30.2, 6.9, 0.0547, 0.0209, 0.687, 0.291),
}


def on_kernel(rows: int, l: int, degrees: int, variant: str) -> bool:
    """Whether `variations` serves `rows` rows of l values at `degrees`
    degrees on the kernel: where KERNEL_COSTS has it cheaper than the loops."""
    if l < 2 or variant not in KERNEL_COSTS:
        return False
    fixed, step, row_step, term, loop_row, loop_term = KERNEL_COSTS[variant]
    rows, steps = rows * degrees, l - 1 if variant == "pace" else degrees
    terms = rows * (l - 1 if variant == "peace" else l * (l - 1) // 2)
    kernel = fixed + step * steps + row_step * rows * (steps if variant == "pace" else 1) + term * terms
    return kernel < loop_row * rows + loop_term * terms


def variations(gs, ps, degrees: Sequence[float], variant: str, sign: str) -> list[list]:
    """`variation` of every row (gs[r], ps[r]) of two (rows x l) arrays at
    every degree, bit for bit: out[k][r] is its (value, witness) at
    degrees[k].  Where it pays (on_kernel), one numpy kernel serves all rows
    and degrees: the signed differences and bases 4 p_j p_i are built once, and
    only the weights (np.float_power: libm `pow`, as Python `**`; np.power
    differs in the last bit) depend on d.  Other calls run the loops."""
    gs, ps = np.asarray(gs, dtype=float), np.asarray(ps, dtype=float)
    if on_kernel(len(gs), gs.shape[-1], len(degrees), variant):
        with np.errstate(all="ignore"):  # Python floats overflow without a warning
            # Else the loops compare NaN their way, and weigh a NaN p as NaN ** d.
            if np.isfinite(np.ptp(gs, axis=1)).all() and not np.isnan(ps).any():
                return _kernel(gs, ps, list(degrees), variant, sign)
    rows = list(zip(gs.tolist(), ps.tolist()))
    return [[variation(g, p, d, variant, sign) for g, p in rows] for d in degrees]


def _kernel(gs, ps, degrees, variant, sign):
    l = gs.shape[1]
    if variant == "pace":  # column by column: (0, 1), (0, 2), (1, 2), (0, 3), ...
        j, i = np.tril_indices(l, -1)
    else:  # as the loops take them: the chain's steps, or every pair row by row
        i, j = (np.arange(l - 1), np.arange(1, l)) if variant == "peace" else np.triu_indices(l, 1)
    base = 4.0 * ps[:, j] * ps[:, i]
    live = (ps > 0.0)[:, j] & (ps > 0.0)[:, i]  # weight() is 0 for the others, at every d
    big = base[live & (base > 1.0)].tolist()  # the only weights that can overflow
    for d in degrees:  # raise what the loops raise, in their order
        variation(gs[0, :2].tolist(), ps[0, :2].tolist(), d, variant, sign)
        [_power(b, d) for b in big]  # where float_power would give inf
    diff = gs[:, j] - gs[:, i] if sign != "negative" else gs[:, i] - gs[:, j]
    diff = np.abs(diff) if sign == "abs" else np.where(diff > 0.0, diff, 0.0)  # 0.0, not -0.0
    if variant == "pace":
        return _total_variations(diff, base, live, np.array(degrees)[:, None, None], l)
    out, terms = [], np.zeros(base.shape)
    for d in degrees:
        np.float_power(base, d, out=terms, where=live)
        terms *= diff
        if variant == "space":  # the first largest term, as `_better` keeps it
            at = terms.argmax(axis=1)
            out.append(list(zip(terms[np.arange(len(terms)), at].tolist(),
                                zip(i[at].tolist(), j[at].tolist()))))
        else:  # added in order, as the loops add them
            out.append([(v, None) for v in np.cumsum(terms, axis=1)[:, -1].tolist()])
    return out


def _winner(value, points, pred):
    """Over the last axis, the positive candidate `_better` picks: the largest,
    then fewest points, then the smallest chain (through `pred`, in Python,
    only where two still tie); meaningless where none is positive (not won)."""
    best = value.max(axis=-1)
    won = best > 0.0
    hit = (value == best[..., None]) & won[..., None]
    points = np.where(hit, points, value.shape[-1] + 2)  # more than any chain here
    fewest = points.min(axis=-1)
    hit &= points == fewest[..., None]
    at = hit.argmax(axis=-1)
    if np.count_nonzero(hit) > np.count_nonzero(won):  # some row ties twice
        for r in zip(*np.nonzero(hit.sum(axis=-1) > 1)):
            at[r] = min(np.flatnonzero(hit[r]).tolist(), key=partial(_chain, pred[r].tolist()))
    return best, won, fewest, at


def _chain(pred: list[int], end: int) -> list[int]:
    chain = []
    while end >= 0:
        chain.append(end)
        end = pred[end]
    return chain[::-1]


def _total_variations(diff, base, live, degrees, l):
    """total_variation's DP over every (degree, row) at once, column by
    column; pair (i, j) sits at j (j - 1) / 2 + i."""
    shape = (len(degrees), len(diff), l)
    # The best chain ending at each point: its value, points and predecessor.
    value, points, pred = np.zeros(shape), np.ones(shape, dtype=np.intp), np.full(shape, -1)
    for j in range(1, l):
        a, b = j * (j - 1) // 2, j * (j + 1) // 2
        on = live[:, a:b]
        weights = np.float_power(base[:, a:b], degrees, out=np.zeros(shape[:2] + (j,)), where=on)
        best, won, fewest, at = _winner(value[..., :j] + diff[:, a:b] * weights,
                                        points[..., :j] + 1, pred)
        value[..., j] = best  # where not won, the single point (0.0, 1, (j,)) stands
        np.copyto(points[..., j], fewest, where=won)
        np.copyto(pred[..., j], at, where=won)
    best, won, size, end = (x.ravel() for x in _winner(value, points, pred))
    # Read every chain back from its end, all rows at once; a row whose every
    # term is 0 takes (0, 1).
    size, rows, pred = np.where(won, size, 2), np.arange(len(end)), pred.reshape(-1, l)
    nodes = [end]
    for _ in range(size.max() - 1):
        nodes.append(pred[rows, nodes[-1]])
    backward = np.array(nodes[::-1]).T.tolist()
    pairs = [(v, tuple(c[len(c) - n:]) if w else (0, 1))
             for v, w, c, n in zip(best.tolist(), won.tolist(), backward, size.tolist())]
    return [pairs[k:k + len(diff)] for k in range(0, len(pairs), len(diff))]


# --- queries over models --------------------------------------------------


@dataclass(frozen=True)
class EffectQuery:
    cause: str
    outcome: str
    degree: float = 1.0
    variant: str = "pace"
    sign: str = "abs"

    def __post_init__(self):
        if not 0 <= self.degree < math.inf:
            raise _degree_error(self.degree)
        if self.variant not in VARIANTS:
            raise QueryError(f"unknown variant '{self.variant}'")
        if self.sign not in SIGNS:
            raise QueryError(f"unknown sign '{self.sign}'")


@dataclass(frozen=True)
class ZSlice:
    """Per-z contribution: weight P(z), conditional variation, witness."""

    probability: float
    value: float
    partition: Partition | None


@dataclass(frozen=True)
class EffectReport:
    """An effect's value and its per-z `breakdown` (a _Breakdown view)."""

    query: EffectQuery
    value: float
    z_variables: tuple[str, ...]
    breakdown: Mapping[tuple[float, ...], ZSlice] = field(repr=False)


def _query_context(model: Model, cause: str, outcome: str) -> tuple[str, ...]:
    if cause not in model.variable_map:
        raise QueryError(f"unknown variable '{cause}'")
    mech = model.mechanisms.get(outcome)
    if mech is None:
        raise QueryError(f"unknown variable '{outcome}'")
    if not isinstance(mech, Deterministic):
        raise QueryError(f"outcome '{outcome}' must be a deterministic node")
    if cause not in mech.parents:
        raise QueryError(f"'{cause}' is not a parent of '{outcome}'")
    return tuple(p for p in mech.parents if p != cause)


def g_in(model: Model, outcome: str, assignment: Mapping[str, float]) -> float:
    """Outcome value under an intervention pinning all of its parents."""
    mech = model.mechanisms.get(outcome)
    if not isinstance(mech, Deterministic):
        raise QueryError(f"outcome '{outcome}' must be a deterministic node")
    missing = set(mech.parents) - set(assignment)
    if missing:
        raise QueryError(f"assignment misses parent(s) {sorted(missing)}")
    return deterministic_value(model, outcome, assignment)


@dataclass(frozen=True, eq=False)
class StratumTable:
    """The z strata of one bound model (or dataset), enumerated once and read
    as columns by every effect, grid and per-z oracle over it.

    `z` has one row per z with P(z) > 0, in ascending key order: its z values
    as codes (a model's support tables; a dataset's values as each stratum's
    first record spells them) and P(z) as its mass.  Row s of the (strata x l)
    arrays `ps` and `gs` holds P(x|z) and g(x, z) at the cause's support
    positions `indices`, which the chains run over; g is `outcome`'s value.
    A table of stacked models (see engine._enumerate) holds each model's
    strata in turn, model i's ending before row `ends[i]`; one model's has ().
    """

    z: Distribution
    ps: np.ndarray
    gs: np.ndarray
    indices: tuple[int, ...]
    outcome: str
    ends: tuple[int, ...] = ()

    @property
    def z_variables(self) -> tuple[str, ...]:
        return self.z.variables

    @property
    def probability(self) -> np.ndarray:
        return self.z.masses

    def partition(self, chain: Chain | None) -> Partition | None:
        """A witness chain over positions of `indices` as a support partition."""
        return None if chain is None else Partition(tuple(self.indices[i] for i in chain))

    def aggregate(
        self, degrees: Sequence[float], variant: str, sign: str
    ) -> list[tuple[float, list[tuple[float, Chain | None]]]]:
        """At each degree, the expectation over z of the per-z variation, with
        each row's (value, witness chain over positions of `indices`).  An
        effect that is not finite (the terms' sum overflows) is rejected."""
        per_degree = variations(self.gs, self.ps, degrees, variant, sign)
        [totals] = self.totals(degrees, variant, per_degree)
        return list(zip(totals, per_degree))

    def totals(self, degrees: Sequence[float], variant: str, per_degree: list[list]) -> list[list[float]]:
        """Each model's effect at each degree from its rows' `per_degree` values:
        P(z) * value added in row order from 0.0, rejected if not finite."""
        probability, ends = self.probability.tolist(), self.ends or (len(self.z),)  # one model: one slice
        return [[self._total(probability[a:b], per_row[a:b], a, variant, d) for d, per_row in zip(degrees, per_degree)]
                for a, b in zip((0, *ends), ends)]

    def _total(self, pz: list[float], per_row: list, a: int, variant: str, d: float) -> float:
        """One model's effect at d from its rows, the first being row a."""
        total = 0.0
        for p, (value, _) in zip(pz, per_row):
            total += p * value
        if not math.isfinite(total):  # P(z) > 0, so a row that is not finite makes it so
            partial = accumulate(p * value for p, (value, _) in zip(pz, per_row))
            self.finite(total, variant, d, next(r for r, t in enumerate(partial, a) if not math.isfinite(t)))
        return total

    def finite(self, value: float, variant: str, d: float, r: int) -> float:
        """`value`, the variant's variation at d of row r (or an effect whose
        sum first stops being finite at row r), if it is finite."""
        if math.isfinite(value):
            return value
        raise QueryError(f"the {variant} variation of '{self.outcome}' is not finite "
                         f"at d = {d!r}, z = {self.z.keys(np.array([r]))[0]}")


class _Breakdown(MappingABC):
    """EffectReport.breakdown: {z key: ZSlice} over a stratum table and each
    stratum's (value, witness chain), in the table's ascending row order.
    The key index is built on first use and a ZSlice (with its Partition)
    when one is read; len() builds nothing."""

    def __init__(self, table: StratumTable, per_row: list[tuple[float, Chain | None]]):
        self.table, self.per_row = table, per_row

    def __len__(self) -> int:
        return len(self.per_row)

    def __iter__(self):
        return iter(self._at)

    def __getitem__(self, key) -> ZSlice:
        r = self._at[key]
        value, chain = self.per_row[r]
        return ZSlice(self.table.probability[r].item(), value, self.table.partition(chain))

    @cached_property
    def _at(self) -> dict[tuple[float, ...], int]:
        return {key: r for r, key in enumerate(self.table.z.keys())}


def _tabulate(
    model: Model,
    cause: str,
    outcome: str | None,
    z_vars: tuple[str, ...],
    support_subset: Sequence[float] | None = None,
    grid: Grid | None = None,
) -> StratumTable:
    """Per-z conditional cause probabilities and outcome values.

    When outcome is None the cause's own values stand in for g (natural
    availability).  `support_subset` restricts the chain to the given cause
    values, keeping the original (unrenormalized) conditional probabilities.
    A grid of bindings of the model (see model.bind_grid) gives its stacked table.
    """
    joint = build_joint(model, grid) if grid else build_joint(model)
    support = model.support(cause)
    if support_subset is None:
        indices = tuple(range(len(support)))
    else:
        indices = tuple(sorted(support.index_of(v) for v in support_subset))
        if len(set(indices)) != len(indices):
            raise QueryError("support subset contains duplicate values")
    # P(z) and P(z, x) sum their rows' masses in row order, as marginal sums them;
    # a stack's strata are grouped by point first (POINT, the joint's last column).
    first, pz, (pxz,) = stratify(joint, joint.codes[joint.column(cause)], len(support),
                                 (POINT, *z_vars) if grid else z_vars)
    cols = [joint.column(v) for v in z_vars]
    z = Distribution(z_vars, columns=([joint.values[c] for c in cols],
                                      [joint.codes[c][first] for c in cols], pz))
    point = joint.codes[-1][first] if grid else None  # each stratum's point
    ps = pxz[:, list(indices)] / pz[:, None]
    if outcome is not None:
        # g(x, z) is the outcome table's slot at z's parent codes and x's (and its point's).
        mech = model.mechanisms[outcome]
        table = grid and grid.tables.get(outcome) or model.outcome_table(outcome)
        codes = [np.asarray(indices, dtype=np.intp)[None, :] if p == cause
                 else z.codes[z_vars.index(p)][:, None] for p in mech.parents]
        at = np.broadcast_to(np.ravel_multi_index(codes, [len(vs) for vs in table.parents]), ps.shape)
        values = table.supports[0].values
        gs = np.asarray(values)[table.array[(point[:, None], at) if grid and outcome in grid.tables else at]]
    else:
        values = support.values
        gs = np.broadcast_to(np.asarray(values)[list(indices)], ps.shape)
    for z_key, g in zip(z.keys(), gs.tolist()) if not math.isfinite(values[-1] - values[0]) else ():
        if g and not math.isfinite(max(g) - min(g)):  # inf times a zero weight is NaN
            raise QueryError(f"'{outcome or cause}' values {min(g)!r} and {max(g)!r} differ "
                             f"by more than the largest float at z = {z_key}")
    ends = np.bincount(point, minlength=grid.points).cumsum().tolist() if grid else ()
    return StratumTable(z, ps, gs, indices, outcome or cause, tuple(ends))


def strata(
    model: Model, cause: str, outcome: str, support_subset: Sequence[float] | None = None
) -> StratumTable:
    """Stratum table of an effect query; Z is the outcome's other parents."""
    z_vars = _query_context(model, cause, outcome)
    return _tabulate(model, cause, outcome, z_vars, support_subset)


def effect(
    model: Model,
    query: EffectQuery,
    support_subset: Sequence[float] | None = None,
) -> EffectReport:
    """Expected normalized variation of the outcome along the cause's support.

    Returns the aggregate value together with the per-z breakdown (and the
    witnessing partition for the max-based variants).  z values with zero
    probability are skipped; their conditional weights are undefined.
    """
    table = strata(model, query.cause, query.outcome, support_subset)
    [(value, per_row)] = table.aggregate([query.degree], query.variant, query.sign)
    return EffectReport(query, value, table.z_variables, _Breakdown(table, per_row))


def pace_vector(
    model: Model,
    cause: str,
    outcome: str,
    degrees: Sequence[float],
    variant: str = "pace",
    sign: str = "abs",
) -> list[float]:
    """Effect evaluated at each degree of an ascending grid."""
    degrees = list(degrees)
    if any(d < 0 for d in degrees):
        raise QueryError("grid degrees must be >= 0")
    if not all(math.isfinite(d) for d in degrees):
        raise QueryError("grid degrees must be finite")
    if any(b < a for a, b in zip(degrees, degrees[1:])):
        raise QueryError("grid degrees must be ascending")
    EffectQuery(cause, outcome, variant=variant, sign=sign)  # checks the variant and the sign
    table = strata(model, cause, outcome)
    return [value for value, _ in table.aggregate(degrees, variant, sign)]


STACK_BLOCK = 65_536  # most (points x joint states x cause values) `effects` stacks at once


def effects(model: Model, grid: Mapping[str, np.ndarray], cause: str, outcome: str,
            degrees: Sequence[float], variant: str = "pace", sign: str = "abs") -> list[list[float]]:
    """effect(bind(model, bindings), EffectQuery(cause, outcome, degrees[k],
    variant, sign)).value as out[i][k] for the bindings at the i-th point of
    `grid` (one array of values per parameter, see model.bind_grid), bit for
    bit, or an error; a model without parameters and an empty grid is one
    point, the model itself.  The points are bound and stacked (see
    engine._enumerate) STACK_BLOCK joint states times cause values at a
    time; each stack is stratified once and aggregated by one `variations` call."""
    for d in degrees:
        EffectQuery(cause, outcome, d, variant, sign)  # checks each degree, the variant and the sign
    bound = bool(grid) or not model.is_bound
    z_vars = _query_context(model, cause, outcome)
    points = _points(grid)
    size = max(1, STACK_BLOCK // (model.state_space_size * len(model.support(cause))))
    out = []
    for start in range(0, points, size):
        stack = bind_grid(model, {n: v[start:start + size] for n, v in grid.items()}) if bound else None
        table = _tabulate(model, cause, outcome, z_vars, grid=stack)
        out += table.totals(degrees, variant, variations(table.gs, table.ps, degrees, variant, sign))
    return out


def degree_grid(max_degree: float = 1.0, steps: int = 10) -> list[float]:
    """Evenly spaced degrees i * M / N for i = 0..N."""
    if not 0 < max_degree < math.inf or steps < 1:  # NaN fails too
        raise QueryError("need a finite max_degree > 0 and steps >= 1")
    return [i * max_degree / steps for i in range(steps + 1)]


def natural_availability(
    model: Model,
    cause: str,
    z_vars: Sequence[str],
    degree: float,
    variant: str = "pace",
) -> float:
    """Variation of the cause with respect to itself: how feasible changing
    the cause is, given the conditioning variables."""
    EffectQuery(cause, cause, degree, variant)  # checks the degree and the variant
    if cause in z_vars:
        raise QueryError("conditioning set must not contain the cause")
    for z in z_vars:
        model.variable(z)
    return _tabulate(model, cause, None, tuple(z_vars)).aggregate([degree], variant, "abs")[0][0]


# --- per-z operations (the oracle-facing surface) ---------------------------


def _stratum(model: Model, query: EffectQuery, z: Mapping[str, float], partition: Partition | None = None
             ) -> tuple[StratumTable, int, list[float], list[float]]:
    """The query's stratum table, the row whose key matches `z` within 1e-9
    (as supports match; the first in ascending key order) and its gs and ps."""
    table = strata(model, query.cause, query.outcome)
    if set(z) != set(table.z_variables):
        raise QueryError(f"z must assign exactly {table.z_variables}")
    hit = np.ones(len(table.z), dtype=bool)
    for name, values, codes in zip(table.z_variables, table.z.values, table.z.codes):
        hit &= np.array([abs(a - z[name]) <= VALUE_TOL for a in values], dtype=bool)[codes]
    if not hit.any():
        raise ZeroProbabilityError(f"z assignment {dict(z)} has zero probability")
    if partition is not None and partition.indices[-1] >= len(table.indices):
        raise QueryError(f"partition {partition.indices} exceeds the cause's support")
    r = int(hit.argmax())
    return table, r, table.gs[r].tolist(), table.ps[r].tolist()


def piev(
    model: Model, query: EffectQuery, z: Mapping[str, float], partition: Partition
) -> float:
    """Normalized easy variation along an explicit partition, at one z."""
    table, r, gs, ps = _stratum(model, query, z, partition)
    return table.finite(chain_value(gs, ps, partition.indices, query.degree, query.sign),
                        "peace", query.degree, r)


def piv(model: Model, query: EffectQuery, z: Mapping[str, float]) -> tuple[float, Partition | None]:
    """Normalized total variation at one z (DP), with a witnessing partition."""
    table, r, gs, ps = _stratum(model, query, z)
    [[(value, chain)]] = variations([gs], [ps], [query.degree], "pace", query.sign)
    return table.finite(value, "pace", query.degree, r), table.partition(chain)


def brute_force_piv(
    model: Model, query: EffectQuery, z: Mapping[str, float]
) -> tuple[float, Partition | None]:
    """Exhaustive-enumeration twin of piv; the DP's correctness oracle."""
    table, r, gs, ps = _stratum(model, query, z)
    value, chain = brute_force_total_variation(gs, ps, query.degree, query.sign)
    return table.finite(value, "pace", query.degree, r), table.partition(chain)


def spiv(model: Model, query: EffectQuery, z: Mapping[str, float]) -> tuple[float, Partition | None]:
    """Normalized supremum (single-pair) variation at one z."""
    table, r, gs, ps = _stratum(model, query, z)
    [[(value, chain)]] = variations([gs], [ps], [query.degree], "space", query.sign)
    return table.finite(value, "space", query.degree, r), table.partition(chain)


def apiv(model: Model, query: EffectQuery, z: Mapping[str, float]) -> float:
    """Normalized aggregated (all-pairs) variation at one z."""
    table, r, gs, ps = _stratum(model, query, z)
    [[(value, _)]] = variations([gs], [ps], [query.degree], "apace", query.sign)
    return table.finite(value, "apace", query.degree, r)


@np.errstate(all="ignore")  # a Python float overflows to inf without a warning
def matrix_form_chain_value(gs, ps, chain: Sequence[int], degree: float, sign: str) -> float:
    """chain_value computed independently as (v^d)^T A^(P) v^d with numpy.

    The probability vector zeroes entries with zero conditional probability
    before exponentiation so the d = 0 convention matches weight().
    """
    if degree >= 512:  # 4^512 = 2^1024 is past the largest double
        raise QueryError(f"degree {degree} is too large for the matrix form")
    l = len(gs)
    v = np.array([0.0 if p <= 0.0 else p ** degree for p in ps])
    a = np.zeros((l, l))
    for i, j in zip(chain, chain[1:]):
        a[j, i] = signed_difference(gs[j], gs[i], sign)
    return (4.0 ** degree) * float(v @ a @ v)


def matrix_form_piev(
    model: Model, query: EffectQuery, z: Mapping[str, float], partition: Partition
) -> float:
    """piev by the matrix form, at one z."""
    table, r, gs, ps = _stratum(model, query, z, partition)
    return table.finite(matrix_form_chain_value(gs, ps, partition.indices, query.degree, query.sign),
                        "peace", query.degree, r)


def ace_flavored_effect(
    model: Model,
    cause: str,
    outcome: str,
    degree: float,
    variant: str = "pace",
    sign: str = "abs",
) -> float:
    """Total-effect analogue: interventional means replace outcome values and
    marginal cause probabilities replace conditional weights (no E_Z), in one
    stratum of probability 1.  An effect that is not finite is rejected."""
    query = EffectQuery(cause, outcome, degree, variant, sign)
    model.variable(outcome)
    support = model.support(cause)
    joint = build_joint(model)
    px = marginal(joint, [cause])
    ps = [px.probability((x,)) for x in support.values]
    ms = interventional_means(model, outcome, [cause], [(x,) for x in support.values])
    z = Distribution((), columns=((), (), np.ones(1)))
    table = StratumTable(z, np.array([ps]), np.array([ms], dtype=float), tuple(range(len(ps))), outcome)
    return table.aggregate([query.degree], query.variant, query.sign)[0][0]
