"""Exact joint distributions over bound models, plus information measures.

The joint is built by enumeration in topological order, pruning zero-mass
branches; deterministic nodes contribute indicator factors, so the table
stays sparse.  All entropies and mutual informations are in bits; KL
divergence defaults to bits with an explicit base knob (the literature is
not consistent about this, see kl_divergence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    EngineError,
    ModelError,
    QueryError,
    StateSpaceError,
    UnboundModelError,
    ZeroProbabilityError,
)
from .model import (
    CPT,
    Deterministic,
    Model,
    Root,
    VALUE_TOL,
    default_state_limit,
    snap_to_support,
)

MASS_TOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """Probability table over an ordered tuple of variables."""

    variables: tuple[str, ...]
    table: dict[tuple[float, ...], float]

    def probability(self, key: tuple[float, ...]) -> float:
        return self.table.get(tuple(key), 0.0)

    def total_mass(self) -> float:
        return sum(self.table.values())

    def items(self):
        return self.table.items()


@dataclass(frozen=True)
class JointTable:
    """Exact joint over the full variable set; entries with zero mass omitted."""

    variables: tuple[str, ...]
    entries: dict[tuple[float, ...], float]

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.variables)}

    def column(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise EngineError(f"unknown variable '{name}'") from None

    def total_mass(self) -> float:
        return sum(self.entries.values())

    def probability(self, key: tuple[float, ...]) -> float:
        return self.entries.get(tuple(key), 0.0)

    def items(self):
        return self.entries.items()


def _row_lookup(rows: Mapping[tuple[float, ...], object], key: tuple[float, ...]):
    if key in rows:
        return rows[key]
    for rkey, row in rows.items():
        if len(rkey) == len(key) and all(abs(a - b) <= VALUE_TOL for a, b in zip(rkey, key)):
            return row
    raise ModelError(f"no table row for parent assignment {key}")


def local_distribution(model: Model, name: str, assignment: Mapping[str, float]) -> dict[float, float]:
    """P(name = . | parents), with `assignment` covering the parents."""
    mech = model.mechanisms[name]
    support = model.support(name)
    if isinstance(mech, Root):
        return {v: float(mech.table.get(v, 0.0)) for v in support}
    if isinstance(mech, CPT):
        key = tuple(assignment[p] for p in mech.parents)
        row = _row_lookup(mech.rows, key)
        return {v: float(row.get(v, 0.0)) for v in support}
    value = deterministic_value(model, name, assignment)
    return {v: (1.0 if v == value else 0.0) for v in support}


def deterministic_value(model: Model, name: str, assignment: Mapping[str, float]) -> float:
    mech = model.mechanisms[name]
    if not isinstance(mech, Deterministic):
        raise EngineError(f"'{name}' is not a deterministic node")
    raw = mech.value(tuple(assignment[p] for p in mech.parents))
    return snap_to_support(model.support(name), raw)


def build_joint(model: Model) -> JointTable:
    """Enumerate P(assignment) = prod over nodes of the node conditional."""
    if not model.is_bound:
        raise UnboundModelError("model has unbound parameters; call bind() first")
    limit = model.state_limit if model.state_limit is not None else default_state_limit()
    if model.state_space_size > limit:
        raise StateSpaceError(f"joint state space exceeds limit {limit}")
    order = model.topological_order()
    declaration = tuple(v.name for v in model.variables)
    entries: dict[tuple[float, ...], float] = {}

    def recurse(i: int, assignment: dict[str, float], mass: float):
        if i == len(order):
            key = tuple(assignment[n] for n in declaration)
            entries[key] = entries.get(key, 0.0) + mass
            return
        name = order[i]
        mech = model.mechanisms[name]
        if isinstance(mech, Deterministic):
            assignment[name] = deterministic_value(model, name, assignment)
            recurse(i + 1, assignment, mass)
            del assignment[name]
            return
        for value, p in local_distribution(model, name, assignment).items():
            if p <= 0.0:
                continue
            assignment[name] = value
            recurse(i + 1, assignment, mass * p)
            del assignment[name]

    recurse(0, {}, 1.0)
    joint = JointTable(declaration, entries)
    if abs(joint.total_mass() - 1.0) > MASS_TOL:
        raise EngineError(f"joint mass {joint.total_mass()} deviates from 1")
    return joint


def marginal(joint: JointTable, variables: Sequence[str]) -> Distribution:
    """Marginalize the joint onto `variables` (empty list gives a point mass)."""
    cols = [joint.column(v) for v in variables]
    table: dict[tuple[float, ...], float] = {}
    for key, p in joint.entries.items():
        sub = tuple(key[c] for c in cols)
        table[sub] = table.get(sub, 0.0) + p
    return Distribution(tuple(variables), table)


def conditional(
    joint: JointTable, variables: Sequence[str], given: Mapping[str, float]
) -> Distribution:
    """P(variables | given); requires P(given) > 0."""
    cols = [joint.column(v) for v in variables]
    gcols = [(joint.column(n), v) for n, v in given.items()]
    table: dict[tuple[float, ...], float] = {}
    mass = 0.0
    for key, p in joint.entries.items():
        if any(abs(key[c] - v) > VALUE_TOL for c, v in gcols):
            continue
        mass += p
        sub = tuple(key[c] for c in cols)
        table[sub] = table.get(sub, 0.0) + p
    if mass <= 0.0:
        raise ZeroProbabilityError(f"conditioning event {dict(given)} has zero probability")
    return Distribution(tuple(variables), {k: v / mass for k, v in table.items()})


def intervene(model: Model, do: Mapping[str, float]) -> Model:
    """Replace each intervened node's mechanism by a point mass (modularity)."""
    mechanisms = dict(model.mechanisms)
    for name, value in do.items():
        support = model.support(name)
        pinned = snap_to_support(support, value)
        mechanisms[name] = Root({pinned: 1.0})
    return Model(model.variables, mechanisms, model.parameters, state_limit=model.state_limit)


def expectation(
    source: JointTable | Model,
    target: str,
    given: Mapping[str, float] | None = None,
) -> float:
    """E(target | given) under the joint (a Model is enumerated first)."""
    joint = build_joint(source) if isinstance(source, Model) else source
    if given:
        dist = conditional(joint, [target], given)
    else:
        dist = marginal(joint, [target])
    return sum(k[0] * p for k, p in dist.items())


def expectation_under(model: Model, target: str, do: Mapping[str, float]) -> float:
    """E(target | do(...)): intervene, re-enumerate, take the mean."""
    return expectation(build_joint(intervene(model, do)), target)


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits; zero-probability outcomes contribute nothing."""
    return -sum(p * math.log2(p) for p in dist.table.values() if p > 0.0)


def cond_entropy(joint: JointTable, target: Sequence[str] | str, given: Sequence[str]) -> float:
    """H(target | given) = sum_g P(g) H(target | g), in bits."""
    targets = [target] if isinstance(target, str) else list(target)
    both = marginal(joint, list(given) + targets)
    gdist = marginal(joint, given)
    k = len(given)
    total = 0.0
    for key, p in both.items():
        if p <= 0.0:
            continue
        pg = gdist.probability(key[:k])
        total -= p * math.log2(p / pg)
    return total


def mutual_information(joint: JointTable, x: str, y: str) -> float:
    """I(X;Y) = H(Y) - H(Y|X), in bits (never below -1e-9)."""
    return entropy(marginal(joint, [y])) - cond_entropy(joint, y, [x])


def conditional_mutual_information(
    joint: JointTable, x: str, y: str, given: Sequence[str]
) -> float:
    """I(X;Y|Z) = H(Y|Z) - H(Y|X,Z), in bits."""
    return cond_entropy(joint, y, list(given)) - cond_entropy(joint, y, [x] + list(given))


def log_scale(base: float) -> float:
    """Factor that converts bits to log-`base` units."""
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise QueryError(f"log base must be finite, > 0 and != 1, got {base}")
    return math.log(2.0) / math.log(base) if base != 2.0 else 1.0


def kl_divergence(
    p: Distribution | JointTable, q: Distribution | JointTable, base: float = 2.0
) -> float:
    """D_KL(P || Q) over a shared domain (distributions or joints).

    Defaults to bits.  The base knob exists because reported reference
    values for post-cutting causal strength mix bases: worked binary
    examples use bits while the sprinkler figures are in nats.
    """
    if p.variables != q.variables:
        raise EngineError(f"KL domains differ: {p.variables} vs {q.variables}")
    scale = log_scale(base)
    total = 0.0
    for key, pv in p.items():
        if pv <= 0.0:
            continue
        qv = q.probability(key)
        if qv <= 0.0:
            raise AbsoluteContinuityError(f"Q vanishes at {key} where P = {pv}")
        total += pv * math.log2(pv / qv)
    return total * scale


def sample(
    model: Model, n: int, seed: int | None = None, rng: np.random.Generator | None = None
) -> tuple[tuple[str, ...], list[tuple[float, ...]]]:
    """Draw n iid assignments from the exact joint; returns (columns, rows)."""
    joint = build_joint(model)
    keys = list(joint.entries.keys())
    probs = np.array([joint.entries[k] for k in keys])
    probs = probs / probs.sum()
    if rng is None:
        rng = np.random.default_rng(seed)
    picks = rng.choice(len(keys), size=n, p=probs)
    return joint.variables, [keys[i] for i in picks]
