"""Domain types for variables, mechanisms, and acyclic structural models.

A model is a DAG of mechanisms over finite, ordered, real-valued supports:
root distributions, conditional probability tables, and deterministic
functional nodes.  Probability entries may be arithmetic expressions over
declared parameters; `bind` turns them into numbers and enforces the row
invariants that cannot be checked symbolically.
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import expr as ex
from .errors import BindingError, EvalError, ModelError, StateSpaceError

ROW_SUM_TOL = 1e-9
VALUE_TOL = 1e-9
DEFAULT_STATE_LIMIT = 10_000_000
GRID_BLOCK = 65_536  # parent positions a `def` body is evaluated at per numpy pass

Entry = Union[float, ex.Expr]


def _is_number(entry: Entry) -> bool:
    return isinstance(entry, (int, float))


@dataclass(frozen=True)
class FiniteSupport:
    """Ordered finite set of real values a variable may take."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ModelError("support must be non-empty")
        for v in values:
            if not math.isfinite(v):
                raise ModelError(f"support value {v!r} is not finite")
        for a, b in zip(values, values[1:]):
            if not a < b:
                raise ModelError(f"support values must be strictly increasing, got {values}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def index_of(self, value: float) -> int:
        """Index of `value` in the support, matching within 1e-9."""
        for i, v in enumerate(self.values):
            if abs(v - value) <= VALUE_TOL:
                return i
        raise ModelError(f"value {value!r} not in support {self.values}")

    def __contains__(self, value: float) -> bool:
        return any(abs(v - value) <= VALUE_TOL for v in self.values)


@dataclass(frozen=True)
class Variable:
    name: str
    support: FiniteSupport


@dataclass(frozen=True)
class Parameter:
    """Named free scalar with inclusive bounds, e.g. p in [0, 1]."""

    name: str
    lower: float
    upper: float

    def __post_init__(self):
        for bound in (self.lower, self.upper):
            if not math.isfinite(bound):
                raise ModelError(f"parameter {self.name}: bound {bound!r} is not finite")
        if not self.lower <= self.upper:
            raise ModelError(f"parameter {self.name}: lower bound exceeds upper bound")


@dataclass(frozen=True)
class Root:
    """Unconditional distribution: support value -> probability entry."""

    table: dict[float, Entry]

    @property
    def parents(self) -> tuple[str, ...]:
        return ()


@dataclass(frozen=True)
class CPT:
    """Conditional table: parent assignment -> (value -> probability entry)."""

    parents: tuple[str, ...]
    rows: dict[tuple[float, ...], dict[float, Entry]]


@dataclass(frozen=True)
class Deterministic:
    """Functional node, given either as an expression or a lookup table.

    Exactly one of `body` / `table` is set; both spell a total function
    from parent assignments to a value in the node's support.
    """

    parents: tuple[str, ...]
    body: ex.Expr | None = None
    table: dict[tuple[float, ...], float] | None = None

    def __post_init__(self):
        if (self.body is None) == (self.table is None):
            raise ModelError("deterministic mechanism needs exactly one of body or table")

    @cached_property
    def names(self) -> frozenset[str]:
        """The identifiers the body reads (none for a table)."""
        return frozenset(ex.free_names(self.body)) if self.body is not None else frozenset()

    def value(self, parent_values: tuple[float, ...]) -> float:
        if self.table is not None:
            try:
                return self.table[parent_values]
            except KeyError:
                raise ModelError(
                    f"deterministic table has no row for {parent_values}"
                ) from None
        env = dict(zip(self.parents, parent_values))
        return ex.evaluate(self.body, env)


Mechanism = Union[Root, CPT, Deterministic]


class OutcomeTable:
    """A node's conditional at every parent tuple, as one array: a
    deterministic node's (slot,) support indices, another node's (slot x
    support) probabilities, entries <= 0 as 0.0 and NaN kept (so that it
    shows in the joint).  Slot `pos` is the mixed-radix position of the
    parents' support indices, last parent fastest.  Filled whole by
    Model.outcome_table and kept on the mechanism for models giving the node
    and its parents these `supports`."""

    __slots__ = ("supports", "parents", "array")

    def __init__(self, supports: tuple[FiniteSupport, ...], array: np.ndarray):
        self.supports = supports
        self.parents = [s.values for s in supports[1:]]
        self.array = array

    def slot(self, parent_values: tuple[float, ...]) -> int:
        """The slot of `parent_values`, each `==` a support value (so -0.0
        finds 0.0); ValueError for a value that is none."""
        pos = 0
        for values, v in zip(self.parents, parent_values):
            pos = pos * len(values) + values.index(v)
        return pos

    def positions(self, codes: Sequence[np.ndarray], n: int) -> np.ndarray:
        """`slot` of n parent tuples, given as the parents' support indices (arrays that broadcast)."""
        if not codes:
            return np.zeros(n, dtype=np.intp)
        return np.ravel_multi_index(codes, [len(values) for values in self.parents])

    def read(self, mech: Mechanism, parent_values: tuple[float, ...]):
        """The array's entry at `parent_values`; a caller's value that is not
        exactly a support value is evaluated and not stored."""
        try:
            pos = self.slot(parent_values)
        except ValueError:
            return _entry(self.supports[0], mech, parent_values)
        return self.array[pos]


def _entry(support: FiniteSupport, mech: Mechanism, parent_values: tuple[float, ...]):
    """One slot's entry computed from `mech`: a support index, or a list of
    probabilities (see OutcomeTable)."""
    if isinstance(mech, Deterministic):
        return support.index_of(mech.value(parent_values))
    row = mech.rows[parent_values] if isinstance(mech, CPT) else mech.table
    return [0.0 if p <= 0.0 else p for p in [float(row.get(v, 0.0)) for v in support.values]]


def _fill(mech: Mechanism, supports: tuple[FiniteSupport, ...],
          params: Mapping[str, np.ndarray] | None = None) -> tuple[np.ndarray, list]:
    """The array of `mech`'s outcome table over `supports`, and the (point,
    parent values) of each slot a `def` body fails at or leaves the support
    at, in slot order; the array holds no entry there.  Other mechanisms take
    one pass in slot order and raise at their first failing slot.  A body that
    reads parameters is given their values at the points of a grid (`params`,
    see bind_grid): its array has a leading point axis."""
    support, parents = supports[0], [s.values for s in supports[1:]]
    dtype = np.min_scalar_type(len(support) - 1)
    if not isinstance(mech, Deterministic) or mech.body is None:
        entries = [_entry(support, mech, key) for key in product(*parents)]
        return np.array(entries, dtype=dtype if isinstance(mech, Deterministic) else float), []
    size, points = math.prod(map(len, parents)), _points(params or {})
    index, failures = np.empty(points * size, dtype=dtype), []
    for start in range(0, points * size, GRID_BLOCK):
        stop = min(start + GRID_BLOCK, points * size)
        # Each position's point and the parents' support indices, last parent fastest.
        point, rest = np.divmod(np.arange(start, stop), size) if params else (0, np.arange(start, stop))
        digits = []
        for vs in reversed(parents):
            rest, digit = np.divmod(rest, len(vs))
            digits.insert(0, digit)
        columns = {p: np.asarray(vs)[d] for p, vs, d in zip(mech.parents, parents, digits)}
        columns.update({name: values[point] for name, values in (params or {}).items()})
        values, failed = ex.evaluate_grid(mech.body, columns)
        index[start:stop], off = _snap_grid(support, np.broadcast_to(values, (stop - start,)))
        failures += [(int(point[j]) if params else 0, tuple([vs[d[j]] for vs, d in zip(parents, digits)]))
                     for j in np.flatnonzero(failed | off).tolist()]
    return index.reshape(points, size) if params else index, failures


def _points(grid: Mapping[str, np.ndarray]) -> int:
    """The number of points of a grid (see bind_grid); one if it binds nothing."""
    return len(next(iter(grid.values()))) if grid else 1


def _at(grid: Mapping[str, np.ndarray], k: int) -> dict[str, float]:
    """The bindings at point k of a grid."""
    return {name: values[k].item() for name, values in grid.items()}


def _fill_rows(mech: Root | CPT, supports: tuple[FiniteSupport, ...], grid) -> tuple[np.ndarray, np.ndarray]:
    """The (points x slots x support) array of a `root` or `cpt` table at each
    point of a grid, its entries evaluated as bind evaluates them (evaluate_grid;
    NaN where `evaluate` raises), and the points where a row fails validate's
    checks of a bound row: its range, and its sum (added in entry order), or
    where an entry fails."""
    support, points = supports[0], _points(grid)
    keys = product(*[s.values for s in supports[1:]])
    rows = [mech.table] if isinstance(mech, Root) else [mech.rows[key] for key in keys]
    at = {v: i for i, v in enumerate(support.values)}
    array, ok = np.zeros((points, len(rows), len(support))), np.ones(points, dtype=bool)
    for s, row in enumerate(rows):
        total = 0.0
        for value, entry in row.items():
            p, failed = (float(entry), False) if _is_number(entry) else ex.evaluate_grid(entry, grid)
            p = np.where(failed, math.nan, np.broadcast_to(p, (points,)))
            ok &= (-ROW_SUM_TOL <= p) & (p <= 1 + ROW_SUM_TOL)  # NaN fails
            total = total + p
            array[:, s, at[value]] = np.where(p <= 0.0, 0.0, p)
        ok &= np.abs(total - 1.0) <= ROW_SUM_TOL
    return array, ~ok


class TableRows(MappingABC):
    """The rows of a CPT given by its outcome table (see rewrites._cut): a row
    per parent assignment, in slot order, with its nonzero entries."""

    def __init__(self, table: OutcomeTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table.array)

    def __iter__(self):
        return product(*self._table.parents)

    def __getitem__(self, key):
        if len(key) != len(self._table.parents):
            raise KeyError(key)
        try:
            probs = self._table.array[self._table.slot(key)].tolist()
        except ValueError:
            raise KeyError(key) from None
        return {v: q for v, q in zip(self._table.supports[0].values, probs) if q != 0.0}


@dataclass(frozen=True)
class Partition:
    """Increasing subsequence of support indices; the chain variation runs on."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) < 2:
            raise ModelError("partition needs at least two points")
        for a, b in zip(idx, idx[1:]):
            if not a < b:
                raise ModelError(f"partition indices must strictly increase, got {idx}")
        if idx[0] < 0:
            raise ModelError("partition indices must be non-negative")

    def values(self, support: FiniteSupport) -> tuple[float, ...]:
        return tuple(support.values[i] for i in self.indices)


@dataclass(frozen=True)
class Model:
    """Structural model: variables plus one mechanism per variable (immutable but for caches)."""

    variables: tuple[Variable, ...]
    mechanisms: dict[str, Mechanism]
    parameters: tuple[Parameter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        limit = state_space_limit()
        if self.state_space_size > limit:
            raise StateSpaceError(
                f"joint state space exceeds limit {limit} ({len(self.variables)} variables)")

    @cached_property
    def variable_map(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    @cached_property
    def parameter_map(self) -> dict[str, Parameter]:
        return {p.name: p for p in self.parameters}

    def variable(self, name: str) -> Variable:
        try:
            return self.variable_map[name]
        except KeyError:
            raise ModelError(f"unknown variable '{name}'") from None

    def support(self, name: str) -> FiniteSupport:
        return self.variable(name).support

    def parents(self, name: str) -> tuple[str, ...]:
        mech = self.mechanisms.get(name)
        if mech is None:
            raise ModelError(f"variable '{name}' has no mechanism")
        return mech.parents

    def children(self, name: str) -> tuple[str, ...]:
        return tuple(
            v.name
            for v in self.variables
            if v.name in self.mechanisms and name in self.mechanisms[v.name].parents
        )

    @cached_property
    def state_space_size(self) -> int:
        return math.prod(len(v.support) for v in self.variables)

    def outcome_table(self, name: str) -> OutcomeTable:
        """`name`'s outcome table (see OutcomeTable).  Filling it raises the
        scalar evaluator's error at its first failing slot."""
        table, failures = _table(self, name)
        if failures:
            slot = failures[0][1]
            _entry(self.support(name), self.mechanisms[name], slot)
            raise ModelError(f"{name}: the array pass fails at {slot}, the scalar evaluator does not")
        return table

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; ties broken by declaration order (deterministic)."""
        return self._topological_order

    @cached_property
    def _topological_order(self) -> tuple[str, ...]:
        names = [v.name for v in self.variables]
        pending = {
            n: set(self.mechanisms[n].parents) & set(names)
            for n in names
            if n in self.mechanisms
        }
        for n in names:
            pending.setdefault(n, set())
        order: list[str] = []
        placed: set[str] = set()
        while len(order) < len(names):
            ready = [n for n in names if n not in placed and not (pending[n] - placed)]
            if not ready:
                remaining = [n for n in names if n not in placed]
                raise ModelError(f"cycle detected among {remaining}")
            order.extend(ready)
            placed.update(ready)
        return tuple(order)

    @cached_property
    def is_bound(self) -> bool:
        return not self.parameters and not any(_rebuilt(m, {}) for m in self.mechanisms.values())


def state_space_limit() -> int:
    """The joint-state-space limit: VCE_STATE_LIMIT, read at each call, else 10^7.

    An empty VCE_STATE_LIMIT counts as unset; any other value must be an
    integer >= 1.
    """
    raw = os.environ.get("VCE_STATE_LIMIT")
    if not raw:
        return DEFAULT_STATE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise StateSpaceError(f"VCE_STATE_LIMIT must be an integer >= 1, got {raw!r}")
    return limit


def _parent_space(model: Model, parents: tuple[str, ...]) -> Iterator[tuple[float, ...]]:
    return product(*[model.support(p).values for p in parents])


def _check_distribution_rows(
    model: Model,
    name: str,
    support: FiniteSupport,
    rows: Iterable[tuple[str, dict[float, Entry]]],
    diags: list[str],
) -> None:
    param_names = set(model.parameter_map)
    values = set(support.values)
    for label, row in rows:
        symbolic = False
        total = 0.0
        for value, entry in row.items():
            if value not in values:
                diags.append(f"{name}: {label} assigns probability to {value!r} outside support")
            if _is_number(entry):
                p = float(entry)
                if not -ROW_SUM_TOL <= p <= 1 + ROW_SUM_TOL:  # NaN and infinities fail too
                    diags.append(f"{name}: {label} probability {p} outside [0, 1]")
                total += p
            else:
                symbolic = True
                bad = ex.free_names(entry) - param_names
                if bad:
                    diags.append(
                        f"{name}: {label} references undeclared parameter(s) {sorted(bad)}"
                    )
        if not symbolic and not abs(total - 1.0) <= ROW_SUM_TOL:  # a NaN sum fails too
            diags.append(f"{name}: {label} sums to {total}, expected 1")


def validate(model: Model) -> list[str]:
    """Return diagnostics; empty iff the model satisfies all invariants.

    Rows containing parameter expressions are checked symbolically only;
    their numeric invariants are enforced at bind time.
    """
    return [diag for _, diag in diagnostics(model)]


def diagnostics(model: Model) -> list[tuple[str | None, str]]:
    """validate's diagnostics in order, each with the variable whose
    declaration or mechanism it is about (None: the model as a whole)."""
    owned: list[tuple[str | None, str]] = []
    diags: list[str] = []
    names = [v.name for v in model.variables]
    seen: set[str] = set()
    for n in names:
        if n in seen:
            diags.append(f"duplicate variable '{n}'")
        seen.add(n)
    pseen: set[str] = set()
    for p in model.parameters:
        if p.name in pseen:
            diags.append(f"duplicate parameter '{p.name}'")
        if p.name in seen:
            diags.append(f"parameter '{p.name}' collides with a variable name")
        pseen.add(p.name)

    owned += [(None, d) for d in diags]
    owned += [(n, f"variable '{n}' has no mechanism") for n in names if n not in model.mechanisms]
    owned += [(n, f"mechanism for undeclared variable '{n}'") for n in model.mechanisms if n not in seen]

    for n, mech in model.mechanisms.items():
        if n not in model.variable_map:
            continue
        diags = []
        support = model.variable_map[n].support
        parents = mech.parents
        undeclared = [p for p in parents if p not in seen]
        diags += [f"{n}: parent '{p}' is not a declared variable" for p in undeclared]
        if len(set(parents)) != len(parents):
            diags.append(f"{n}: duplicate parent")
        if n in parents:
            diags.append(f"{n}: node lists itself as a parent")

        if undeclared:
            pass  # there is no parent space to check its rows, table or body over
        elif isinstance(mech, Root):
            _check_distribution_rows(model, n, support, [("root table", mech.table)], diags)
        elif isinstance(mech, CPT):
            _check_cpt(model, n, support, mech, diags)
        else:
            _check_deterministic(model, n, support, mech, diags)
        owned += [(n, d) for d in diags]

    try:
        model.topological_order()
    except ModelError as err:
        owned.append((None, str(err)))
    return owned


def _check_cpt(model: Model, name: str, support: FiniteSupport, mech: CPT, diags: list[str]):
    expected = dict.fromkeys(_parent_space(model, mech.parents))
    for key in mech.rows:
        if key not in expected:
            diags.append(f"{name}: row key {key} does not match parent supports")
    for assignment in expected:
        if assignment not in mech.rows:
            diags.append(f"{name}: missing row for parent assignment {assignment}")
    _check_distribution_rows(
        model, name, support, [(f"row {k}", row) for k, row in mech.rows.items()], diags
    )


def _check_deterministic(
    model: Model, name: str, support: FiniteSupport, mech: Deterministic, diags: list[str]
):
    if mech.table is not None:
        expected = dict.fromkeys(_parent_space(model, mech.parents))
        for key, value in mech.table.items():
            if key not in expected:
                diags.append(f"{name}: table key {key} does not match parent supports")
            if value not in support.values:
                diags.append(f"{name}: table value {value!r} outside support")
        for assignment in expected:
            if assignment not in mech.table:
                diags.append(f"{name}: missing table row for {assignment}")
        return
    allowed = set(mech.parents) | set(model.parameter_map)
    bad = mech.names - allowed
    if bad:
        diags.append(f"{name}: body references unknown identifier(s) {sorted(bad)}")
        return
    if mech.names & set(model.parameter_map):
        return  # totality checked after binding
    for _, assignment in _table(model, name)[1]:  # a clean table is kept for every later reader
        try:
            value = mech.value(assignment)
        except EvalError as err:
            diags.append(f"{name}: body fails at {assignment}: {err}")
            continue
        if value in support:
            raise ModelError(f"{name}: the array pass fails at {assignment}, the scalar evaluator does not")
        diags.append(f"{name}: body yields {value!r} at {assignment}, outside support")


def _table(model: Model, name: str) -> tuple[OutcomeTable | None, list]:
    """`name`'s outcome table as kept on its mechanism, filled if it is not kept
    there for these supports, and the failing slots of that fill (see _fill); a
    table with a failing slot is not kept."""
    mech = model.mechanisms[name]
    supports = tuple([model.variable_map[n].support for n in (name, *mech.parents)])
    table = mech.__dict__.get("_outcome_table")
    if table is None or table.supports != supports:
        array, failures = _fill(mech, supports)
        if failures:
            return None, failures
        table = OutcomeTable(supports, array)
        object.__setattr__(mech, "_outcome_table", table)
    return table, []


@np.errstate(over="ignore")  # a distance past the largest float is rightly not near
def _snap_grid(support: FiniteSupport, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FiniteSupport.index_of over an array: each value's first support index
    within VALUE_TOL, and a mask of the values (NaN and infinities too) with none."""
    s = np.asarray(support.values)

    def near(i):
        return np.abs(s[i] - values) <= VALUE_TOL

    hi = np.minimum(np.searchsorted(s, values), len(s) - 1)  # s[hi - 1] < value <= s[hi]
    lo = np.maximum(hi - 1, 0)
    index = np.where(near(lo), lo, hi)
    found = near(index)
    # The matches are a run of the support (it increases); step back to its first.
    while True:
        back = found & (index > 0) & near(np.maximum(index - 1, 0))
        if not back.any():
            return index, ~found
        index = index - back


def snap_to_support(support: FiniteSupport, value: float) -> float:
    """Map a computed value onto the exact stored support value."""
    return support.values[support.index_of(value)]


def bind(model: Model, bindings: Mapping[str, float] | None = None) -> Model:
    """Evaluate every parameter expression, producing a fully numeric model.

    Requires a binding for each declared parameter, each within its bounds.
    Raises BindingError if any row invariant fails after substitution.
    """
    bindings = dict(bindings or {})
    declared = model.parameter_map
    unknown = set(bindings) - set(declared)
    if unknown:
        raise BindingError(f"bindings for undeclared parameter(s) {sorted(unknown)}")
    missing = set(declared) - set(bindings)
    if missing:
        raise BindingError(f"unbound parameter(s) {sorted(missing)}")
    for pname, value in bindings.items():
        p = declared[pname]
        if not (p.lower - 1e-12 <= value <= p.upper + 1e-12):
            raise BindingError(
                f"parameter {pname}={value} outside [{p.lower}, {p.upper}]"
            )

    def entry_value(entry: Entry) -> float:
        if _is_number(entry):
            return float(entry)
        try:
            return ex.evaluate(entry, bindings)
        except EvalError as err:
            raise BindingError(str(err)) from None

    # Mechanisms without parameters are kept, and with them their outcome tables.
    mechanisms: dict[str, Mechanism] = {}
    for name, mech in model.mechanisms.items():
        if not _rebuilt(mech, declared):
            mechanisms[name] = mech
        elif isinstance(mech, Root):
            mechanisms[name] = Root({v: entry_value(e) for v, e in mech.table.items()})
        elif isinstance(mech, CPT):
            mechanisms[name] = CPT(mech.parents, {key: {v: entry_value(e) for v, e in row.items()}
                                                  for key, row in mech.rows.items()})
        else:
            mechanisms[name] = Deterministic(mech.parents, body=ex.substitute(mech.body, bindings))

    bound = Model(model.variables, mechanisms, ())
    diags = validate(bound)
    if diags:
        raise BindingError("; ".join(diags))
    return bound


def _rebuilt(mech: Mechanism, declared: Mapping[str, Parameter]) -> bool:
    """Whether bind rebuilds `mech`: a table with an expression entry, or a
    body that reads a parameter."""
    if isinstance(mech, Root):
        return not all(map(_is_number, mech.table.values()))
    if isinstance(mech, CPT):
        return not all(_is_number(e) for row in mech.rows.values() for e in row.values())
    return bool(declared) and mech.body is not None and not mech.names.isdisjoint(declared)


class Grid(NamedTuple):
    """A model bound at `points` bindings at once (see bind_grid): `tables`
    holds the outcome table of each mechanism that bind rebuilds, its array
    with a leading point axis; the model's other mechanisms are shared."""

    points: int
    tables: dict[str, OutcomeTable]


def bind_grid(model: Model, grid: Mapping[str, np.ndarray]) -> Grid:
    """bind(model, {name: values[k] for name, values in grid.items()}) at each
    point k of `grid` (one float64 array per parameter, all of one length) at
    once, for a model that validates: the tables of the mechanisms bind
    rebuilds, the same bits at each point as the bound model's, with no
    model built.  A point that fails a bound, an entry, a row check or a
    `def` body is bound alone, so the error raised is bind's at the first
    failing point."""
    declared, points, tables = model.parameter_map, _points(grid), {}
    failed = np.full(points, set(grid) != set(declared))  # bind names the unknown or missing ones
    for name, values in grid.items() if not failed.any() else ():
        p = declared[name]
        failed |= ~((p.lower - 1e-12 <= values) & (values <= p.upper + 1e-12))
    for name, mech in model.mechanisms.items() if not failed.all() else ():
        if _rebuilt(mech, declared):
            supports = tuple([model.variable_map[n].support for n in (name, *mech.parents)])
            if isinstance(mech, Deterministic):
                array, failures = _fill(mech, supports, grid)
                failed[[k for k, _ in failures]] = True
            else:
                array, bad = _fill_rows(mech, supports, grid)
                failed |= bad
            tables[name] = OutcomeTable(supports, array)
    if failed.any():
        k = int(failed.argmax())
        bind(model, _at(grid, k))
        raise BindingError(f"binding fails at grid point {k}")  # not reached while bind agrees
    return Grid(points, tables)
