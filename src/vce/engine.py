"""Exact joint distributions over bound models, plus information measures.

The joint is built by enumeration in topological order, pruning zero-mass
branches; deterministic nodes contribute indicator factors, so the table
stays sparse.  It is held as columns (see Distribution), so the readers
group and sum rows in numpy, in row order.  All entropies and mutual
informations are in bits; KL divergence defaults to bits with an explicit
base knob (the literature is not consistent about this, see kl_divergence).
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
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
    Grid,
    Model,
    Root,
    VALUE_TOL,
    snap_to_support,
    state_space_limit,
)

MASS_TOL = 1e-9
POINT = "(point)"  # the model column of a stacked joint (see _enumerate), not a .sem name

# numpy warns where Python floats give inf or NaN quietly (0 * inf, an
# unvalidated model's probabilities): the columnar paths stay as quiet.
_quiet = np.errstate(all="ignore")


class Distribution:
    """Probability table over an ordered tuple of variables: a joint, a
    marginal, a conditional or a slice.  A joint omits zero-mass entries.
    (`Dataset.table` is none: its rows are records, keys repeating, of mass 1.)

    Row r gives variable i the value `values[i][codes[i][r]]` and has mass
    `masses[r]`.  `entries` is the same table as a {key: mass} mapping, keys
    in row order, built on first use; its len() builds nothing."""

    def __init__(self, variables: Sequence[str], entries: Mapping | None = None, columns=None):
        """From a {key: mass} mapping (value tables in order of first
        appearance) or from `columns`, (values, codes, masses)."""
        self.variables, self._table = tuple(variables), entries
        if columns is None:
            keyed = list(zip(*entries)) or [()] * len(self.variables)
            values = [tuple(dict.fromkeys(column)) for column in keyed]
            codes = [np.array(list(map(dict(zip(vs, range(len(vs)))).__getitem__, column)), dtype=np.intp)
                     for vs, column in zip(values, keyed)]
            columns = values, codes, np.array(list(entries.values()), dtype=float)
        values, codes, self.masses = columns
        self.values: tuple[tuple[float, ...], ...] = tuple(values)
        self.codes: tuple[np.ndarray, ...] = tuple(codes)

    @property
    def entries(self) -> Mapping[tuple[float, ...], float]:
        return _Entries(self)

    def _dict(self) -> dict[tuple[float, ...], float]:
        if self._table is None:
            self._table = dict(zip(self.keys(), self.masses.tolist()))
        return self._table

    def keys(self, rows: np.ndarray | None = None, names: Sequence[str] | None = None
             ) -> list[tuple[float, ...]]:
        """The key of each of `rows` (default: every row) over `names` (default: all)."""
        rows = np.arange(len(self)) if rows is None else rows
        cols = range(len(self.variables)) if names is None else map(self.column, names)
        columns = [list(map(self.values[c].__getitem__, self.codes[c][rows].tolist())) for c in cols]
        return list(zip(*columns)) if columns else [()] * len(rows)

    def __len__(self) -> int:
        return len(self.masses)

    def column(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise EngineError(f"unknown variable '{name}'") from None

    def values_of(self, name: str) -> np.ndarray:
        """`name`'s value at each row, as float64."""
        c = self.column(name)
        return np.asarray(self.values[c], dtype=float)[self.codes[c]]

    def near(self, given: Mapping[str, float]) -> np.ndarray:
        """Whether each row's every `given` value is within VALUE_TOL of it (a NaN is near none)."""
        keep = np.ones(len(self), dtype=bool)
        for name, v in given.items():
            c = self.column(name)
            keep &= np.array([abs(x - v) <= VALUE_TOL for x in self.values[c]], dtype=bool)[self.codes[c]]
        return keep

    def recode(self, name: str | int, values: Sequence[float], missing: int) -> np.ndarray:
        """Each row's index of its `name` (or column `name`) value in `values` (`missing` where absent)."""
        at = {v: i for i, v in enumerate(values)}
        c = name if isinstance(name, int) else self.column(name)
        return np.array([at.get(v, missing) for v in self.values[c]], dtype=np.intp)[self.codes[c]]

    def group(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Each row's group by its values of `names`, the groups numbered in
        order of first appearance (as a dict built by accumulation keeps
        them), and each group's first row."""
        cols = [self.column(n) for n in names]
        return _group([self.codes[c] for c in cols], [len(self.values[c]) for c in cols], len(self))

    def total_mass(self) -> float:
        return _sum(self.masses)

    def probability(self, key: tuple[float, ...]) -> float:
        return self._dict().get(tuple(key), 0.0)

    def items(self):
        return self._dict().items()


class _Entries(MappingABC):
    """A Distribution's {key: mass} mapping, in row order."""

    def __init__(self, dist: Distribution):
        self._dist = dist

    def __len__(self) -> int:
        return len(self._dist)

    def __iter__(self):
        return iter(self._dist._dict())

    def __getitem__(self, key):
        return self._dist._dict()[key]

    def items(self):
        return self._dist._dict().items()


def _sum(values: np.ndarray) -> float:
    """`values` added one at a time in order from 0, as Python's sum() adds
    floats up to 3.11 (from 3.12 it compensates; np.sum adds pairwise)."""
    if not len(values):
        return 0
    return float(np.bincount(np.zeros(len(values), dtype=np.intp), weights=values)[0])


def _group(codes: Sequence[np.ndarray], sizes: Sequence[int], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distribution.group over n rows of code columns taking `sizes` values each."""
    parts: list[np.ndarray] = []
    dims: list[int] = []
    for column, size in zip(codes, sizes):
        if parts and math.prod(dims) * size > 4 * n + 1024:  # renumber: keys stay below n * size
            key, first = _number(np.ravel_multi_index(parts, dims), math.prod(dims), n)
            parts, dims = [key], [len(first)]
        parts.append(column)
        dims.append(size)
    key = np.ravel_multi_index(parts, dims) if parts else np.zeros(n, dtype=np.intp)
    return _number(key, math.prod(dims), n)


def _number(key: np.ndarray, span: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Number the n keys (each below `span`) in order of first appearance."""
    if span > 4 * n + 1024:  # rank sparse keys first, so the tables take O(n)
        key, span = np.unique(key, return_inverse=True)[1].reshape(-1), n
    first_of = np.full(span, n)
    np.minimum.at(first_of, key, np.arange(n))
    # Each key's first row in row order, marked: a sort is no faster and pages in 0.3 MB of code.
    mark = np.zeros(n + 1, dtype=bool)  # mark[n]: the keys no row has
    mark[first_of] = True
    first = mark[:n].nonzero()[0]
    number = np.empty(span, dtype=np.intp)
    number[key[first]] = np.arange(len(first))
    return number[key], first


def deterministic_value(model: Model, name: str, assignment: Mapping[str, float]) -> float:
    mech = model.mechanisms[name]
    if not isinstance(mech, Deterministic):
        raise EngineError(f"'{name}' is not a deterministic node")
    table = model.outcome_table(name)
    return table.supports[0].values[table.read(mech, tuple([assignment[p] for p in mech.parents]))]


def _check_size(model: Model, grid: Grid | None = None) -> None:
    if grid is None and not model.is_bound:
        raise UnboundModelError("model has unbound parameters; call bind() first")
    limit = state_space_limit()
    if model.state_space_size > limit:
        raise StateSpaceError(f"joint state space exceeds limit {limit}")


@_quiet
def _enumerate(model: Model, grid: Grid | None = None) -> Distribution:
    """Every positive-mass assignment (mass unchecked), in the depth-first
    order of the nodes in topological order, each node's outcomes in support
    order: built node by node, each row so far expanded into the outcomes
    of its slot, with mass (its mass) * (the outcome's probability).

    The points of a `grid` (see model.bind_grid) are enumerated at once, as
    a stack: each point starts as one row, and each row reads a table of the
    grid at (its point, its slot) and the model's other tables at its slot,
    so the joint is each point's joint in turn, with the same bits.  Each
    row's point is in a last column, POINT; a model alone has none
    (gathering it costs a plain enumeration several percent)."""
    _check_size(model, grid)
    stacked = grid.tables if grid else {}
    codes = {POINT: np.arange(grid.points)} if grid else {}
    mass = np.ones(grid.points if grid else 1)
    for name in model.topological_order():
        mech, table = model.mechanisms[name], stacked.get(name) or model.outcome_table(name)
        pos = table.positions([codes[p] for p in mech.parents], len(mass))
        outcomes = table.array[codes[POINT], pos] if name in stacked else table.array[pos]
        if outcomes.ndim == 1:  # deterministic: each row's one outcome, probability 1.0
            codes[name] = outcomes
            continue
        rows, index = np.nonzero(outcomes)  # each row's outcomes: positive or NaN
        mass = mass[rows] * outcomes[rows, index]
        codes = {n: c[rows] for n, c in codes.items()}
        codes[name] = index.astype(np.min_scalar_type(len(table.supports[0]) - 1))
    names = [v.name for v in model.variables]
    values = [model.support(n).values for n in names]
    if grid:
        names.append(POINT)
        values.append(tuple(range(grid.points)))
    return Distribution(names, columns=(values, map(codes.get, names), mass))


def _check_mass(mass: float) -> None:
    if not abs(mass - 1.0) <= MASS_TOL:  # a NaN mass fails too
        raise EngineError(f"joint mass {mass} deviates from 1")


def build_joint(model: Model, grid: Grid | None = None) -> Distribution:
    """Enumerate P(assignment) = prod over nodes of the node conditional, and
    check its mass.  A model's joint is kept on the model, built once and
    shared: never mutate it.  The stacked joint of a grid (see _enumerate)
    is built anew, each point's mass checked in turn."""
    _check_size(model, grid)  # before the lookup: VCE_STATE_LIMIT may have been lowered
    if grid is not None:
        joint = _enumerate(model, grid)
        for mass in np.bincount(joint.codes[-1], joint.masses, grid.points).tolist():
            _check_mass(mass)  # each point's rows added in order, as total_mass adds them
        return joint
    if "_joint" not in model.__dict__:
        joint = _enumerate(model)
        _check_mass(joint.total_mass())
        object.__setattr__(model, "_joint", joint)
    return model.__dict__["_joint"]


def marginal(joint: Distribution, variables: Sequence[str]) -> Distribution:
    """Marginalize the joint onto `variables` (empty list gives a point mass)."""
    cols = [joint.column(v) for v in variables]
    group, first = joint.group(variables)
    return Distribution(variables, columns=(
        [joint.values[c] for c in cols], [joint.codes[c][first] for c in cols],
        np.bincount(group, weights=joint.masses, minlength=len(first))))


def stratify(dist: Distribution, x: np.ndarray, width: int, z_names: Sequence[str],
             weights: Sequence[np.ndarray] = ()) -> tuple[np.ndarray, np.ndarray, list]:
    """The grouped reduction of every stratum table, of a joint or a dataset:
    `dist`'s rows grouped by their values of `z_names` (value tables
    increasing) and split by `x`, a code column taking `width` values.
    Returns the groups of positive mass in ascending key order: each one's
    first row and mass, and per (group, x) the sums of the masses and of each
    of `weights` (one float per row), all added in row order."""
    z_of, first = dist.group(z_names)
    mass = np.bincount(z_of, weights=dist.masses, minlength=len(first))
    keys = [dist.codes[dist.column(z)][first] for z in z_names]
    order = np.lexsort(keys[::-1]) if keys else np.arange(len(first))
    order = order[mass[order] > 0.0]  # a checked joint has no NaN mass
    cells, size = z_of * width + x, len(first) * width
    sums = [np.bincount(cells, weights=w, minlength=size).reshape(-1, width)[order]
            for w in (dist.masses, *weights)]
    return first[order], mass[order], sums


def _given(joint: Distribution, given: Mapping[str, float]) -> Distribution:
    """The rows whose every `given` value is near the given one (Distribution.near)."""
    keep = joint.near(given)
    return Distribution(joint.variables, columns=(
        joint.values, [c[keep] for c in joint.codes], joint.masses[keep]))


@_quiet
def conditional(
    joint: Distribution, variables: Sequence[str], given: Mapping[str, float]
) -> Distribution:
    """P(variables | given); requires P(given) > 0."""
    for name in variables:  # an unknown name here is reported before one in `given`
        joint.column(name)
    kept = _given(joint, given)
    mass = kept.total_mass()
    if mass <= 0.0:
        raise ZeroProbabilityError(f"conditioning event {dict(given)} has zero probability")
    table = marginal(kept, variables)
    return Distribution(variables, columns=(table.values, table.codes, table.masses / mass))


def intervene(model: Model, do: Mapping[str, float]) -> Model:
    """Replace each intervened node's mechanism by a point mass (modularity)."""
    mechanisms = dict(model.mechanisms)
    for name, value in do.items():
        mechanisms[name] = Root({snap_to_support(model.support(name), value): 1.0})
    return Model(model.variables, mechanisms, model.parameters)


@_quiet
def expectation(
    joint: Distribution, target: str, given: Mapping[str, float] | None = None
) -> float:
    """E(target | given) under the joint."""
    if given:
        dist = conditional(joint, [target], given)
    else:
        dist = marginal(joint, [target])
    return _sum(dist.values_of(target) * dist.masses)


def expectation_under(model: Model, target: str, do: Mapping[str, float]) -> float:
    """E(target | do(...)), as the mean under the intervened model's joint."""
    return interventional_means(model, target, list(do), [tuple(do.values())])[0]


@_quiet
def interventional_means(
    model: Model, target: str, names: Sequence[str],
    keys: Distribution | Sequence[tuple[float, ...]], given: Mapping[str, float] | None = None,
) -> list[float]:
    """E(target | do(names = key), given) for each key (a row of `keys` over
    `names`, or a tuple), bit for bit as expectation(build_joint(intervene(model,
    do)), target, given), from one enumeration (truncated factorisation, Pearl
    2009, §3.2): each named node is an indicator root, weight 1.0 on each value
    the keys use, so a key's slice is that intervened joint.  Only the slices
    the keys name are checked, in the order the keys first name them."""
    if not isinstance(keys, Distribution):  # one slice per distinct tuple
        at = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        table = Distribution(names, dict.fromkeys(at, 0.0))
        means = interventional_means(model, target, names, table, given)
        return [means[at[key]] for key in keys]
    # Each key's snapped support index of each name (value tables snapped in order).
    codes = [np.array([model.support(n).index_of(v) for v in vs], dtype=np.intp)[c]
             for n, vs, c in zip(names, keys.values, keys.codes)]
    mechanisms = dict(model.mechanisms)
    for name, c in zip(names, codes):
        values = model.support(name).values
        mechanisms[name] = Root({values[i]: 1.0 for i in np.unique(c).tolist()})
    joint = _enumerate(Model(model.variables, mechanisms, model.parameters))
    # All slices at once: each one's mass, P(given) in it, and the target's
    # conditional marginal in it, summed as expectation sums it (cells and
    # in_slice number their slices alike: by first appearance in `kept`).
    kept = _given(joint, given or {})
    slices, in_slice = marginal(joint, names), marginal(kept, names)
    cells = marginal(kept, [*names, target])
    of, _ = cells.group(names)
    p = cells.masses / in_slice.masses[of] if given else cells.masses
    means = np.bincount(of, weights=cells.values_of(target) * p, minlength=len(in_slice))
    snapped = Distribution(names, columns=(slices.values, codes, keys.masses))
    found, inside = _rows_of(slices, snapped), _rows_of(in_slice, snapped)
    mass = np.append(slices.masses, 0.0)[found]
    vanishes = bool(given) & (np.append(in_slice.masses, 0.0)[inside] <= 0.0)
    bad = ~(np.abs(mass - 1.0) <= MASS_TOL) | vanishes
    if bad.any():  # the first key whose slice fails a check
        i = int(np.argmax(bad))
        _check_mass(mass[i].item() if found[i] >= 0 else 0)
        raise ZeroProbabilityError(f"conditioning event {dict(given)} has zero probability")
    return means[inside].tolist()


def _log2s(values: np.ndarray) -> np.ndarray:
    """math.log2 of each value, in order (np.log2's bits may differ)."""
    return np.fromiter(map(math.log2, values.tolist()), float, len(values))


@_quiet
def entropy(dist: Distribution) -> float:
    """Shannon entropy in bits; zero-probability outcomes contribute nothing."""
    p = dist.masses[dist.masses > 0.0]
    return -float(_sum(p * _log2s(p)))


@_quiet
def cond_entropy(joint: Distribution, target: Sequence[str] | str, given: Sequence[str]) -> float:
    """H(target | given) = sum_g P(g) H(target | g), in bits."""
    targets = [target] if isinstance(target, str) else list(target)
    both = marginal(joint, list(given) + targets)
    gdist = marginal(joint, given)
    # Both marginals order their rows by first appearance in the joint, so
    # both's rows meet their given values in gdist's row order.
    group, _ = both.group(given)
    keep = ~(both.masses <= 0.0)
    p = both.masses[keep]
    return float(_sum(-(p * _log2s(p / gdist.masses[group[keep]]))))


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


def _rows_of(dist: Distribution, keys: Distribution) -> np.ndarray:
    """The row of `dist` with each row's key of `keys` (same variables, matched
    column by column), or -1."""
    # Code len(vs) stands for a value that no row of `dist` has.
    codes = [np.concatenate([c, keys.recode(i, vs, len(vs))])
             for i, (vs, c) in enumerate(zip(dist.values, dist.codes))]
    group, first = _group(codes, [len(vs) + 1 for vs in dist.values], len(dist) + len(keys))
    row = np.full(len(first), -1)
    row[group[:len(dist)]] = np.arange(len(dist))
    return row[group[len(dist):]]


def kl_divergence(p: Distribution, q: Distribution, base: float = 2.0) -> float:
    """D_KL(P || Q) over a shared domain.

    Defaults to bits.  The base knob exists because reported reference
    values for post-cutting causal strength mix bases: worked binary
    examples use bits while the sprinkler figures are in nats.
    """
    if p.variables != q.variables:
        raise EngineError(f"KL domains differ: {p.variables} vs {q.variables}")
    scale = log_scale(base)
    return _kl_at(p, np.append(q.masses, 0.0)[_rows_of(q, p)], scale)  # row -1: the appended 0.0


@_quiet
def _kl_at(p: Distribution, q_at: np.ndarray, scale: float) -> float:
    """D_KL(P || Q) times `scale` (see log_scale), with Q's mass at each of P's rows in `q_at`."""
    keep = ~(p.masses <= 0.0)
    vanish = np.flatnonzero(keep & (q_at <= 0.0))
    stop = vanish[0] if len(vanish) else len(p)
    pv = p.masses[:stop][keep[:stop]]
    logs = _log2s(pv / q_at[:stop][keep[:stop]])  # a row loop meets these before row `stop`
    if len(vanish):
        at = p.keys([stop])[0]
        raise AbsoluteContinuityError(f"Q vanishes at {at} where P = {p.masses[stop].item()}")
    return _sum(pv * logs) * scale


@_quiet
def joint_at(model: Model, keys: Distribution | Iterable[tuple[float, ...]]) -> Distribution:
    """The joint of `model` at the rows of `keys`, a Distribution over its
    variables or full assignments in declaration order: build_joint's
    products, taken in its order, without enumerating.  A mass that reaches
    0.0 stays 0.0, whatever the later factors."""
    if not isinstance(keys, Distribution):
        keys = Distribution([v.name for v in model.variables], dict.fromkeys(keys, 0.0))
    # Each row's support index of each variable; -1 off the support.
    index = {v.name: keys.recode(v.name, v.support.values, -1) for v in model.variables}

    def at(name: str, rows: np.ndarray) -> np.ndarray:
        found = index[name][rows]
        if (found < 0).any():
            value = keys.keys([rows[np.argmax(found < 0)]])[0][keys.column(name)]
            raise ValueError(f"{value!r} is not in the support of '{name}'")
        return found

    mass = np.ones(len(keys))
    for name in model.topological_order():
        mech, table = model.mechanisms[name], model.outcome_table(name)
        live = np.flatnonzero(mass != 0.0)
        pos = table.positions([at(p, live) for p in mech.parents], len(live))
        outcomes, own = table.array, at(name, live)
        if outcomes.ndim == 1:
            factor = np.where(outcomes[pos] == own, 1.0, 0.0)
        else:
            factor = outcomes[pos, own]
        mass[live] = mass[live] * factor
    return Distribution(keys.variables, columns=(keys.values, keys.codes, mass))


def sample(
    model: Model, n: int, seed: int | None = None, rng: np.random.Generator | None = None
) -> tuple[tuple[str, ...], list[tuple[float, ...]]]:
    """Draw n iid assignments from the exact joint; returns (columns, rows)."""
    joint = build_joint(model)
    probs = joint.masses / joint.masses.sum()
    if rng is None:
        rng = np.random.default_rng(seed)
    picks = rng.choice(len(probs), size=n, p=probs)
    keys = list(joint.entries)
    return joint.variables, [keys[i] for i in picks]
