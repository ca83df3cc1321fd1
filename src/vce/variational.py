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
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .engine import (
    Distribution,
    build_joint,
    deterministic_value,
    interventional_means,
    marginal,
)
from .errors import QueryError, UnboundModelError, ZeroProbabilityError
from .model import VALUE_TOL, Deterministic, Model, Partition

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
    return (4.0 * p * q) ** degree


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


def easy_variation(gs, ps, degree: float, sign: str) -> float:
    return chain_value(gs, ps, range(len(gs)), degree, sign)


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
    """Exhaustive max over all 2^l - l - 1 increasing chains (oracle)."""
    l = len(gs)
    if l < 2:
        return 0.0, None
    if l > 20:
        raise QueryError(f"support too large for brute force ({l} values)")
    winner: tuple[float, int, Chain] | None = None
    for size in range(2, l + 1):
        for chain in combinations(range(l), size):
            cand = (chain_value(gs, ps, chain, degree, sign), size, chain)
            if winner is None or _better(cand, winner):
                winner = cand
    return winner[0], winner[2]


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
        return easy_variation(gs, ps, degree, sign), None
    if variant == "space":
        return supremum_variation(gs, ps, degree, sign)
    if variant == "apace":
        return aggregated_variation(gs, ps, degree, sign), None
    raise QueryError(f"unknown variant '{variant}'")


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
    query: EffectQuery
    value: float
    z_variables: tuple[str, ...]
    breakdown: dict[tuple[float, ...], ZSlice] = field(repr=False)


def _query_context(model: Model, cause: str, outcome: str) -> tuple[str, ...]:
    if not model.is_bound:
        raise UnboundModelError("effect queries need a fully bound model")
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


@dataclass(frozen=True)
class _ZRow:
    key: tuple[float, ...]
    probability: float
    ps: tuple[float, ...]
    gs: tuple[float, ...]


@dataclass(frozen=True)
class StratumTable:
    """The z strata of one bound model, enumerated once and read by every
    effect, grid and per-z oracle over it.

    Rows cover every z with P(z) > 0 in ascending key order; `indices` are
    the cause's support positions the chains run over.
    """

    z_variables: tuple[str, ...]
    rows: tuple[_ZRow, ...]
    indices: tuple[int, ...]

    def row(self, z: Mapping[str, float]) -> _ZRow:
        """The stratum whose key matches `z` within 1e-9, as supports match."""
        if set(z) != set(self.z_variables):
            raise QueryError(f"z must assign exactly {self.z_variables}")
        for row in self.rows:
            if all(abs(a - z[v]) <= VALUE_TOL for a, v in zip(row.key, self.z_variables)):
                return row
        raise ZeroProbabilityError(f"z assignment {dict(z)} has zero probability")

    def aggregate(
        self, degree: float, variant: str, sign: str
    ) -> tuple[float, list[tuple[float, Chain | None]]]:
        """Expectation over z of the per-z variation, with each row's
        (value, witness chain over positions of `indices`)."""
        per_row = [variation(row.gs, row.ps, degree, variant, sign) for row in self.rows]
        total = 0.0
        for row, (value, _) in zip(self.rows, per_row):
            total += row.probability * value
        return total, per_row


def _tabulate(
    model: Model,
    cause: str,
    outcome: str | None,
    z_vars: tuple[str, ...],
    support_subset: Sequence[float] | None = None,
) -> StratumTable:
    """Per-z conditional cause probabilities and outcome values.

    When outcome is None the cause's own values stand in for g (natural
    availability).  `support_subset` restricts the chain to the given cause
    values, keeping the original (unrenormalized) conditional probabilities.
    """
    joint = build_joint(model)
    support = model.support(cause)
    if support_subset is None:
        indices = tuple(range(len(support)))
    else:
        indices = tuple(sorted(support.index_of(v) for v in support_subset))
        if len(set(indices)) != len(indices):
            raise QueryError("support subset contains duplicate values")
    xs = [support.values[i] for i in indices]
    # Each row's z, numbered in order of first appearance as marginal numbers
    # it: P(z) and P(z, x) sum their rows' masses in row order, as marginal
    # sums them.
    z_of, z_first = joint.group(z_vars)
    width = len(support)
    pz = np.bincount(z_of, weights=joint.masses, minlength=len(z_first))
    pxz = np.bincount(z_of * width + joint.codes[joint.column(cause)], weights=joint.masses,
                      minlength=len(z_first) * width).reshape(-1, width)
    z_codes = [joint.codes[joint.column(z)][z_first] for z in z_vars]
    # The codes index the increasing supports: sorted codes, sorted keys.
    order = np.lexsort(z_codes[::-1]) if z_vars else np.arange(len(z_first))
    order = order[pz[order] > 0.0]  # a checked joint has no NaN mass
    supports = [model.support(z).values for z in z_vars]
    z_keys = Distribution(z_vars, columns=(supports, z_codes, pz)).keys(order)
    pz = pz[order]
    ps = (pxz[order][:, list(indices)] / pz[:, None]).tolist()
    if outcome is not None:
        # g(x, z) is the outcome table's slot at z's parent codes and x's.
        table = model.outcome_table(outcome)
        first = z_first[order]
        codes = [np.asarray(indices, dtype=np.intp)[None, :] if p == cause
                 else joint.codes[joint.column(p)][first, None] for p in model.mechanisms[outcome].parents]
        at = np.ravel_multi_index(codes, [len(values) for values in table.parents]).tolist()
        ys = table.supports[0].values
        gs = []
        for z_key, z_at in zip(z_keys, at):
            g = []
            for x, pos in zip(xs, z_at):
                slot = table.slots[pos]  # None until read: evaluated by g_in
                g.append(ys[slot[0][0]] if slot else
                         g_in(model, outcome, {**dict(zip(z_vars, z_key)), cause: x}))
            gs.append(tuple(g))
    else:
        gs = [tuple(xs)] * len(order)
    rows = [_ZRow(z_key, p, tuple(z_ps), g)
            for z_key, p, z_ps, g in zip(z_keys, pz.tolist(), ps, gs)]
    return StratumTable(z_vars, tuple(rows), indices)


def strata(
    model: Model, cause: str, outcome: str, support_subset: Sequence[float] | None = None
) -> StratumTable:
    """Stratum table of an effect query; Z is the outcome's other parents."""
    z_vars = _query_context(model, cause, outcome)
    return _tabulate(model, cause, outcome, z_vars, support_subset)


def _witness(indices: tuple[int, ...], chain: Chain | None) -> Partition | None:
    if chain is None:
        return None
    return Partition(tuple(indices[i] for i in chain))


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
    value, per_row = table.aggregate(query.degree, query.variant, query.sign)
    breakdown = {
        row.key: ZSlice(row.probability, v, _witness(table.indices, chain))
        for row, (v, chain) in zip(table.rows, per_row)
    }
    return EffectReport(query, value, table.z_variables, breakdown)


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
    return [table.aggregate(d, variant, sign)[0] for d in degrees]


def degree_grid(max_degree: float = 1.0, steps: int = 10) -> list[float]:
    """Evenly spaced degrees i * M / N for i = 0..N."""
    if max_degree <= 0 or steps < 1:
        raise QueryError("need max_degree > 0 and steps >= 1")
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
    if not model.is_bound:
        raise UnboundModelError("natural availability needs a fully bound model")
    EffectQuery(cause, cause, degree, variant)  # checks the degree and the variant
    if cause in z_vars:
        raise QueryError("conditioning set must not contain the cause")
    for z in z_vars:
        model.variable(z)
    return _tabulate(model, cause, None, tuple(z_vars)).aggregate(degree, variant, "abs")[0]


# --- per-z operations (the oracle-facing surface) ---------------------------


def _z_row(model: Model, query: EffectQuery, z: Mapping[str, float]) -> tuple[_ZRow, tuple[int, ...]]:
    table = strata(model, query.cause, query.outcome)
    return table.row(z), table.indices


def piev(
    model: Model, query: EffectQuery, z: Mapping[str, float], partition: Partition
) -> float:
    """Normalized easy variation along an explicit partition, at one z."""
    row, _ = _z_row(model, query, z)
    if partition.indices[-1] >= len(row.gs):
        raise QueryError(f"partition {partition.indices} exceeds the cause's support")
    return chain_value(row.gs, row.ps, partition.indices, query.degree, query.sign)


def piv(model: Model, query: EffectQuery, z: Mapping[str, float]) -> tuple[float, Partition | None]:
    """Normalized total variation at one z (DP), with a witnessing partition."""
    row, indices = _z_row(model, query, z)
    value, chain = total_variation(row.gs, row.ps, query.degree, query.sign)
    return value, _witness(indices, chain)


def brute_force_piv(
    model: Model, query: EffectQuery, z: Mapping[str, float]
) -> tuple[float, Partition | None]:
    """Exhaustive-enumeration twin of piv; the DP's correctness oracle."""
    row, indices = _z_row(model, query, z)
    value, chain = brute_force_total_variation(row.gs, row.ps, query.degree, query.sign)
    return value, _witness(indices, chain)


def spiv(model: Model, query: EffectQuery, z: Mapping[str, float]) -> tuple[float, Partition | None]:
    """Normalized supremum (single-pair) variation at one z."""
    row, indices = _z_row(model, query, z)
    value, chain = supremum_variation(row.gs, row.ps, query.degree, query.sign)
    return value, _witness(indices, chain)


def apiv(model: Model, query: EffectQuery, z: Mapping[str, float]) -> float:
    """Normalized aggregated (all-pairs) variation at one z."""
    row, _ = _z_row(model, query, z)
    return aggregated_variation(row.gs, row.ps, query.degree, query.sign)


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
    row, _ = _z_row(model, query, z)
    if partition.indices[-1] >= len(row.gs):
        raise QueryError(f"partition {partition.indices} exceeds the cause's support")
    return matrix_form_chain_value(row.gs, row.ps, partition.indices, query.degree, query.sign)


def ace_flavored_effect(
    model: Model,
    cause: str,
    outcome: str,
    degree: float,
    variant: str = "pace",
    sign: str = "abs",
) -> float:
    """Total-effect analogue: interventional means replace outcome values and
    marginal cause probabilities replace conditional weights (no E_Z)."""
    query = EffectQuery(cause, outcome, degree, variant, sign)
    model.variable(outcome)
    support = model.support(cause)
    joint = build_joint(model)
    px = marginal(joint, [cause])
    ps = [px.probability((x,)) for x in support.values]
    ms = interventional_means(model, outcome, [cause], [(x,) for x in support.values])
    return variation(ms, ps, query.degree, query.variant, query.sign)[0]
