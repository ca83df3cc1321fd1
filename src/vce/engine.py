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
from operator import getitem, itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AbsoluteContinuityError,
    EngineError,
    QueryError,
    StateSpaceError,
    UnboundModelError,
    ZeroProbabilityError,
)
from .model import (
    Deterministic,
    Model,
    Root,
    VALUE_TOL,
    snap_to_support,
    state_space_limit,
)

MASS_TOL = 1e-9


@dataclass(frozen=True)
class Distribution:
    """Probability table over an ordered tuple of variables: a joint, a
    marginal, a conditional or a slice.  A joint omits zero-mass entries."""

    variables: tuple[str, ...]
    entries: dict[tuple[float, ...], float]

    def column(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise EngineError(f"unknown variable '{name}'") from None

    def total_mass(self) -> float:
        return sum(self.entries.values())

    def probability(self, key: tuple[float, ...]) -> float:
        return self.entries.get(tuple(key), 0.0)

    def items(self):
        return self.entries.items()


def local_distribution(model: Model, name: str, assignment: Mapping[str, float]) -> dict[float, float]:
    """P(name = . | parents), with `assignment` covering the parents."""
    mech = model.mechanisms[name]
    pairs = dict(model.outcome_table(name).read(mech, tuple(assignment[p] for p in mech.parents)))
    return {v: pairs.get(i, 0.0) for i, v in enumerate(model.support(name).values)}


def deterministic_value(model: Model, name: str, assignment: Mapping[str, float]) -> float:
    mech = model.mechanisms[name]
    if not isinstance(mech, Deterministic):
        raise EngineError(f"'{name}' is not a deterministic node")
    table = model.outcome_table(name)
    pairs = table.read(mech, tuple([assignment[p] for p in mech.parents]))
    return table.supports[0].values[pairs[0][0]]


def _check_size(model: Model) -> None:
    if not model.is_bound:
        raise UnboundModelError("model has unbound parameters; call bind() first")
    limit = state_space_limit()
    if model.state_space_size > limit:
        raise StateSpaceError(f"joint state space exceeds limit {limit}")


def _enumerate(model: Model) -> Distribution:
    """Every positive-mass assignment, depth first in topological order (mass unchecked)."""
    _check_size(model)
    order = model.topological_order()
    at = {name: i for i, name in enumerate(order)}
    tables = [model.outcome_table(name) for name in order]
    parents = [[at[p] for p in model.mechanisms[name].parents] for name in order]
    values = [table.supports[0].values for table in tables]
    columns = [at[v.name] for v in model.variables]
    state = [0] * len(order)  # support index of each node, in topological order
    entries: dict[tuple[float, ...], float] = {}

    def recurse(i: int, mass: float):
        if i == len(order):
            entries[tuple(values[c][state[c]] for c in columns)] = mass
            return
        pos = 0
        for j in parents[i]:
            pos = pos * len(values[j]) + state[j]
        outcomes = tables[i].slots[pos] or tables[i].read(
            model.mechanisms[order[i]], tuple(values[j][state[j]] for j in parents[i]))
        for index, p in outcomes:
            state[i] = index
            recurse(i + 1, mass * p)

    recurse(0, 1.0)
    return Distribution(tuple(v.name for v in model.variables), entries)


def _check_mass(mass: float) -> None:
    if not abs(mass - 1.0) <= MASS_TOL:  # a NaN mass fails too
        raise EngineError(f"joint mass {mass} deviates from 1")


def build_joint(model: Model) -> Distribution:
    """Enumerate P(assignment) = prod over nodes of the node conditional.
    The joint is kept on the model, built once and shared: never mutate it."""
    _check_size(model)  # before the lookup: VCE_STATE_LIMIT may have been lowered
    joint = model.__dict__.get("_joint")
    if joint is None:
        joint = _enumerate(model)
        _check_mass(joint.total_mass())
        object.__setattr__(model, "_joint", joint)
    return joint


def marginal(joint: Distribution, variables: Sequence[str]) -> Distribution:
    """Marginalize the joint onto `variables` (empty list gives a point mass)."""
    cols = [joint.column(v) for v in variables]
    project = itemgetter(*cols) if len(cols) > 1 else lambda key: tuple([key[c] for c in cols])
    table: dict[tuple[float, ...], float] = {}
    for key, p in joint.entries.items():
        sub = project(key)
        table[sub] = table.get(sub, 0.0) + p
    return Distribution(tuple(variables), table)


def conditional(
    joint: Distribution, variables: Sequence[str], given: Mapping[str, float]
) -> Distribution:
    """P(variables | given); requires P(given) > 0."""
    for name in variables:  # an unknown name here is reported before one in `given`
        joint.column(name)
    gcols = [(joint.column(n), v) for n, v in given.items()]
    kept = {key: p for key, p in joint.entries.items()
            if not any(abs(key[c] - v) > VALUE_TOL for c, v in gcols)}
    mass = 0.0
    for p in kept.values():  # in entry order: `sum` compensates from Python 3.12
        mass += p
    if mass <= 0.0:
        raise ZeroProbabilityError(f"conditioning event {dict(given)} has zero probability")
    table = marginal(Distribution(joint.variables, kept), variables).entries
    return Distribution(tuple(variables), {k: v / mass for k, v in table.items()})


def intervene(model: Model, do: Mapping[str, float]) -> Model:
    """Replace each intervened node's mechanism by a point mass (modularity)."""
    mechanisms = dict(model.mechanisms)
    for name, value in do.items():
        mechanisms[name] = Root({snap_to_support(model.support(name), value): 1.0})
    return Model(model.variables, mechanisms, model.parameters)


def expectation(
    joint: Distribution, target: str, given: Mapping[str, float] | None = None
) -> float:
    """E(target | given) under the joint."""
    if given:
        dist = conditional(joint, [target], given)
    else:
        dist = marginal(joint, [target])
    return sum(k[0] * p for k, p in dist.items())


def expectation_under(model: Model, target: str, do: Mapping[str, float]) -> float:
    """E(target | do(...)), as the mean under the intervened model's joint."""
    return interventional_means(model, target, list(do), [tuple(do.values())])[0]


def interventional_means(
    model: Model, target: str, names: Sequence[str], keys: Sequence[tuple[float, ...]],
    given: Mapping[str, float] | None = None,
) -> list[float]:
    """E(target | do(names = key), given) for each key, bit for bit as
    expectation(build_joint(intervene(model, do)), target, given), from one
    enumeration (truncated factorisation, Pearl 2009, §3.2): each named node is
    an indicator root, weight 1.0 on each value the keys use, so a key's slice
    is that intervened joint.  Only the slices the keys name are checked."""
    snaps = [{v: snap_to_support(model.support(name), v) for v in dict.fromkeys(k[i] for k in keys)}
             for i, name in enumerate(names)]
    mechanisms = dict(model.mechanisms)
    for name, snap in zip(names, snaps):
        mechanisms[name] = Root(dict.fromkeys(snap.values(), 1.0))
    joint = _enumerate(Model(model.variables, mechanisms, model.parameters))
    cols = [joint.column(n) for n in names]
    snapped = [tuple(map(getitem, snaps, key)) for key in keys]
    slices: dict[tuple[float, ...], dict] = {s: {} for s in snapped}
    for key, p in joint.entries.items():
        entries = slices.get(tuple([key[c] for c in cols]))
        if entries is not None:
            entries[key] = p
    means = {}
    for s, entries in slices.items():
        _check_mass(sum(entries.values()))
        means[s] = expectation(Distribution(joint.variables, entries), target, given)
    return [means[s] for s in snapped]


def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits; zero-probability outcomes contribute nothing."""
    return -sum(p * math.log2(p) for p in dist.entries.values() if p > 0.0)


def cond_entropy(joint: Distribution, target: Sequence[str] | str, given: Sequence[str]) -> float:
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


def mutual_information(joint: Distribution, x: str, y: str) -> float:
    """I(X;Y) = H(Y) - H(Y|X), in bits (never below -1e-9)."""
    return entropy(marginal(joint, [y])) - cond_entropy(joint, y, [x])


def conditional_mutual_information(
    joint: Distribution, x: str, y: str, given: Sequence[str]
) -> float:
    """I(X;Y|Z) = H(Y|Z) - H(Y|X,Z), in bits."""
    return cond_entropy(joint, y, list(given)) - cond_entropy(joint, y, [x] + list(given))


def log_scale(base: float) -> float:
    """Factor that converts bits to log-`base` units."""
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise QueryError(f"log base must be finite, > 0 and != 1, got {base}")
    return math.log(2.0) / math.log(base) if base != 2.0 else 1.0


def kl_divergence(p: Distribution, q: Distribution, base: float = 2.0) -> float:
    """D_KL(P || Q) over a shared domain.

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


def joint_at(model: Model, keys: Iterable[tuple[float, ...]]) -> Distribution:
    """The joint of `model` at full assignments `keys` (declaration order):
    build_joint's products, taken in its order, without enumerating; a key
    reuses the factors of the nodes it shares, as a prefix, with the one before."""
    column = {v.name: i for i, v in enumerate(model.variables)}
    values = [v.support.values for v in model.variables]
    nodes = [(model.outcome_table(n), model.mechanisms[n], column[n],
              [column[p] for p in model.mechanisms[n].parents]) for n in model.topological_order()]
    masses = {}
    prev, partial = (), [1.0]  # partial[i]: the product of the first i factors at `prev`
    for key in keys:
        i = 0
        while i < len(partial) - 1 and key[nodes[i][2]] == prev[nodes[i][2]]:
            i += 1
        del partial[i + 1:]
        for table, mech, col, parents in nodes[i:]:
            if partial[-1] == 0.0:
                break
            pos = 0  # the slot's mixed-radix position; each parent was found at its own node
            for c in parents:
                pos = pos * len(values[c]) + values[c].index(key[c])
            outcomes = table.slots[pos] or table.read(mech, tuple(key[c] for c in parents))
            partial.append(partial[-1] * dict(outcomes).get(values[col].index(key[col]), 0.0))
        masses[key] = partial[-1]
        prev = key
    return Distribution(tuple(column), masses)


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
