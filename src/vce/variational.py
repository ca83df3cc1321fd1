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

from . import expr as ex
from .engine import (
    build_joint,
    deterministic_value,
    expectation_under,
    marginal,
)
from .errors import NoiseConversionError, QueryError, UnboundModelError, ZeroProbabilityError
from .model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    Parameter,
    Partition,
    Variable,
    _parent_space,
)

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
        if set(z) != set(self.z_variables):
            raise QueryError(f"z must assign exactly {self.z_variables}")
        key = tuple(z[v] for v in self.z_variables)
        for row in self.rows:
            if row.key == key:
                return row
        raise ZeroProbabilityError(f"z assignment {dict(z)} has zero probability")

    def aggregate(
        self, degree: float, variant: str, sign: str
    ) -> tuple[float, dict[tuple[float, ...], ZSlice]]:
        """Expectation over z of the per-z variation, with the breakdown."""
        breakdown: dict[tuple[float, ...], ZSlice] = {}
        total = 0.0
        for row in self.rows:
            value, chain = variation(row.gs, row.ps, degree, variant, sign)
            breakdown[row.key] = ZSlice(row.probability, value, _witness(self.indices, chain))
            total += row.probability * value
        return total, breakdown


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
    z_dist = marginal(joint, z_vars)
    xz_dist = marginal(joint, list(z_vars) + [cause])
    rows: list[_ZRow] = []
    for z_key in sorted(z_dist.table):
        pz = z_dist.table[z_key]
        if pz <= 0.0:
            continue
        ps = tuple(xz_dist.probability(z_key + (x,)) / pz for x in xs)
        if outcome is None:
            gs = tuple(xs)
        else:
            assignment = dict(zip(z_vars, z_key))
            gs = []
            for x in xs:
                assignment[cause] = x
                gs.append(g_in(model, outcome, assignment))
            gs = tuple(gs)
        rows.append(_ZRow(z_key, pz, ps, gs))
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
    value, breakdown = table.aggregate(query.degree, query.variant, query.sign)
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
    if variant not in VARIANTS:
        raise QueryError(f"unknown variant '{variant}'")
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


# --- model rewrites ---------------------------------------------------------


def eliminate_mediator(model: Model, mediator: str) -> Model:
    """Substitute a deterministic mediator into its children and drop it.

    An expression child takes the mediator's body symbolically when that body
    yields exact support values (or the model is unbound); otherwise the child
    is tabulated over the expanded parent set from the mediator's value
    snapped onto its support, as enumeration reads it.
    """
    mech = model.mechanisms.get(mediator)
    if mech is None:
        raise QueryError(f"unknown variable '{mediator}'")
    if not isinstance(mech, Deterministic):
        raise QueryError(f"mediator '{mediator}' is stochastic; only deterministic "
                         "mediators can be eliminated")
    mechanisms = dict(model.mechanisms)
    for child in model.children(mediator):
        mechanisms[child] = _substitute_parent(model, child, mediator)
    del mechanisms[mediator]
    variables = tuple(v for v in model.variables if v.name != mediator)
    return Model(variables, mechanisms, model.parameters, state_limit=model.state_limit)


def _expanded_parents(
    child_parents: tuple[str, ...], mediator: str, mediator_parents: tuple[str, ...]
) -> tuple[str, ...]:
    out: list[str] = []
    for p in child_parents:
        subs = mediator_parents if p == mediator else (p,)
        for q in subs:
            if q not in out:
                out.append(q)
    return tuple(out)


def _substitute_parent(model: Model, child: str, mediator: str):
    mech, med = model.mechanisms[child], model.mechanisms[mediator]
    new_parents = _expanded_parents(mech.parents, mediator, med.parents)
    symbolic = isinstance(mech, Deterministic) and mech.body is not None and med.body is not None
    if symbolic and model.is_bound:  # a raw value the support would snap stays tabulated
        support = model.support(mediator).values
        symbolic = all(med.value(key) in support for key in _parent_space(model, med.parents))
    if symbolic:
        body = ex.substitute(mech.body, {mediator: med.body})
        order = [v.name for v in model.variables]
        referenced = ex.free_names(body) & set(order)
        return Deterministic(tuple(n for n in order if n in referenced), body=body)
    out = {}
    for combo in _parent_space(model, new_parents):
        values = dict(zip(new_parents, combo))
        values[mediator] = deterministic_value(model, mediator, values)
        if isinstance(mech, CPT):
            out[combo] = dict(mech.rows[tuple(values[p] for p in mech.parents)])
        else:
            out[combo] = deterministic_value(model, child, values)
    return CPT(new_parents, out) if isinstance(mech, CPT) else Deterministic(new_parents, table=out)


def cpt_to_noise(model: Model, node: str, free_parameter: str | None = None) -> Model:
    """Rewrite a binary-outcome CPT node as a deterministic function of its
    parents plus a fresh noise variable (a CPT over the original parents).

    Each stochastic row keeps its majority outcome as the baseline; the noise
    indicates a deviation from it.  Rows that are already deterministic ignore
    the noise: their noise row is uniform by convention, or Bernoulli in a
    fresh free parameter when `free_parameter` names one.
    """
    mech = model.mechanisms.get(node)
    if mech is None:
        raise QueryError(f"unknown variable '{node}'")
    if not isinstance(mech, CPT):
        raise QueryError(f"'{node}' is not a CPT node")
    support = model.support(node)
    if len(support) != 2:
        raise NoiseConversionError(f"'{node}' has {len(support)} outcomes; only binary supported")
    lo, hi = support.values
    for key, row in mech.rows.items():
        if any(not isinstance(e, (int, float)) for e in row.values()):
            raise UnboundModelError(f"'{node}' has parameterized rows; bind the model first")

    noise = f"U_{node}"
    taken = {v.name for v in model.variables} | {p.name for p in model.parameters}
    while noise in taken:
        noise += "_"

    parameters = list(model.parameters)
    det_entry: tuple[object, object]
    if free_parameter is not None:
        if free_parameter in taken:
            raise QueryError(f"name '{free_parameter}' is already declared")
        parameters.append(Parameter(free_parameter, 0.0, 1.0))
        p_name = ex.Name(free_parameter)
        det_entry = (ex.Binary("-", ex.Num(1.0), p_name), p_name)
    else:
        det_entry = (0.5, 0.5)

    outcome_table: dict[tuple[float, ...], float] = {}
    noise_rows: dict[tuple[float, ...], dict[float, object]] = {}
    used_free = False
    for key, row in mech.rows.items():
        q_hi = float(row.get(hi, 0.0))
        if q_hi >= 1.0 - 1e-12 or q_hi <= 1e-12:
            fixed = hi if q_hi >= 0.5 else lo
            outcome_table[key + (0.0,)] = fixed
            outcome_table[key + (1.0,)] = fixed
            noise_rows[key] = {0.0: det_entry[0], 1.0: det_entry[1]}
            used_free = True
        else:
            baseline = hi if q_hi > 0.5 else lo
            other = lo if baseline == hi else hi
            q_flip = 1.0 - q_hi if baseline == hi else q_hi
            outcome_table[key + (0.0,)] = baseline
            outcome_table[key + (1.0,)] = other
            noise_rows[key] = {0.0: 1.0 - q_flip, 1.0: q_flip}
    if free_parameter is not None and not used_free:
        raise NoiseConversionError(
            f"'{node}' has no deterministic rows; free parameter would be unused"
        )

    variables: list[Variable] = []
    for v in model.variables:
        if v.name == node:
            variables.append(Variable(noise, FiniteSupport((0.0, 1.0))))
        variables.append(v)
    mechanisms = dict(model.mechanisms)
    mechanisms[noise] = CPT(mech.parents, noise_rows)
    mechanisms[node] = Deterministic(mech.parents + (noise,), table=outcome_table)
    return Model(tuple(variables), mechanisms, tuple(parameters), state_limit=model.state_limit)


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
    if variant not in VARIANTS:
        raise QueryError(f"unknown variant '{variant}'")
    if sign not in SIGNS:
        raise QueryError(f"unknown sign '{sign}'")
    model.variable(outcome)
    support = model.support(cause)
    joint = build_joint(model)
    px = marginal(joint, [cause])
    ps = [px.probability((x,)) for x in support.values]
    ms = [expectation_under(model, outcome, {cause: x}) for x in support.values]
    return variation(ms, ps, degree, variant, sign)[0]
