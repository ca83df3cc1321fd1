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
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, Union

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

Outcomes = tuple[tuple[int, float], ...]


@cache
def _point(index: int) -> Outcomes:  # a deterministic outcome
    return ((index, 1.0),)


class OutcomeTable:
    """A node's conditional at each parent tuple, evaluated at most once.
    Slot `pos` (the mixed-radix position of the parents' support indices, last
    parent fastest) holds its positive (support index, probability) pairs in
    support order, or None until first read.  Kept on the mechanism for models
    giving the node and its parents these `supports`; never holds a failure."""

    __slots__ = ("supports", "parents", "offsets", "slots", "_copy")

    def __init__(self, supports: tuple[FiniteSupport, ...]):
        self.supports = supports
        self.parents = [s.values for s in supports[1:]]
        # Per parent, each support value's share of the slot position.
        self.offsets: list[dict[float, int]] = []
        stride = 1
        for values in reversed(self.parents):
            self.offsets.insert(0, {v: i * stride for i, v in enumerate(values)})
            stride *= len(values)
        self.slots: list[Outcomes | None] = [None] * stride
        self._copy = None  # see array

    def read(self, mech: Mechanism, parent_values: tuple[float, ...]) -> Outcomes:
        """Outcomes at `parent_values`, evaluated on first read; a caller's value
        that is not exactly a support value is evaluated and not stored."""
        pos = 0
        for offsets, v in zip(self.offsets, parent_values):
            offset = offsets.get(v)
            if offset is None:
                return self.evaluate(mech, parent_values)
            pos += offset
        if self.slots[pos] is None:
            self.slots[pos] = self.evaluate(mech, parent_values)
        return self.slots[pos]

    def array(self, mech: Mechanism, positions: np.ndarray) -> np.ndarray:
        """The slots as one array: a deterministic node's (slot,) support
        indices, another node's (slot x support) probabilities, zero where a
        slot has no pair.  Each slot at `positions` is read first, the unread
        ones in the order they first appear there, so a failing read leaves
        the slots after it unread.  Rows of other slots may be zeros."""
        if self._copy is None:
            k = len(self.supports[0])
            self._copy = (np.zeros(len(self.slots), dtype=bool),
                          np.zeros(len(self.slots), np.min_scalar_type(k - 1))
                          if isinstance(mech, Deterministic) else np.zeros((len(self.slots), k)))
        # (which slots the array holds, or None once it holds all, the array);
        # taken as one pair, so a concurrent reader fills a consistent one.
        copied, array = self._copy
        todo = copied is not None and list(dict.fromkeys(positions[~copied[positions]].tolist()))
        if todo:
            unread = [pos for pos in todo if self.slots[pos] is None]
            keys = [()] * len(unread)  # each unread slot's parent values
            if unread and self.parents:
                digits = np.unravel_index(unread, [len(vs) for vs in self.parents])
                keys = zip(*[np.asarray(vs)[d].tolist() for vs, d in zip(self.parents, digits)])
            for pos, key in zip(unread, keys):
                self.read(mech, key)
            slots = [self.slots[pos] for pos in todo]
            if array.ndim == 1:
                array[todo] = [slot[0][0] for slot in slots]
            else:
                k = array.shape[1]
                pairs = [(pos * k + i, p) for pos, slot in zip(todo, slots) for i, p in slot]
                if pairs:
                    np.put(array, *zip(*pairs))
            copied[todo] = True
            if copied.all():
                self._copy = (None, array)
        return array

    def evaluate(self, mech: Mechanism, parent_values: tuple[float, ...]) -> Outcomes:
        """Outcomes at `parent_values` computed from `mech`, without the table."""
        support = self.supports[0]
        if isinstance(mech, Deterministic):
            return _point(support.index_of(mech.value(parent_values)))
        row = mech.rows[parent_values] if isinstance(mech, CPT) else mech.table
        probabilities = [float(row.get(v, 0.0)) for v in support.values]
        # Entries <= 0 are pruned; a NaN entry is kept, so that it shows in the joint.
        return tuple([(i, p) for i, p in enumerate(probabilities) if not p <= 0.0])


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
        size = 1
        for v in self.variables:
            size *= len(v.support)
            if size > limit:
                raise StateSpaceError(
                    f"joint state space exceeds limit {limit} "
                    f"({len(self.variables)} variables)"
                )

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
        size = 1
        for v in self.variables:
            size *= len(v.support)
        return size

    def outcome_table(self, name: str) -> OutcomeTable:
        """`name`'s outcome table, kept on its mechanism (see OutcomeTable) and
        looked up there once per model."""
        table = self._outcome_tables.get(name)
        if table is None:
            mech = self.mechanisms[name]
            supports = tuple([self.variable_map[n].support for n in (name, *mech.parents)])
            table = mech.__dict__.get("_outcome_table")
            if table is None or table.supports != supports:
                table = OutcomeTable(supports)
                object.__setattr__(mech, "_outcome_table", table)
            self._outcome_tables[name] = table
        return table

    @cached_property
    def _outcome_tables(self) -> dict[str, OutcomeTable]:
        return {}

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
        if self.parameters:
            return False
        return not any(True for _ in self._expression_entries())

    def _expression_entries(self) -> Iterator[ex.Expr]:
        for mech in self.mechanisms.values():
            if isinstance(mech, Root):
                for entry in mech.table.values():
                    if not _is_number(entry):
                        yield entry
            elif isinstance(mech, CPT):
                for row in mech.rows.values():
                    for entry in row.values():
                        if not _is_number(entry):
                            yield entry


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
    supports = []
    for p in parents:
        if p not in model.variable_map:
            return
        supports.append(model.variable_map[p].support.values)
    yield from product(*supports)


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

    for n in names:
        if n not in model.mechanisms:
            diags.append(f"variable '{n}' has no mechanism")
    for n in model.mechanisms:
        if n not in seen:
            diags.append(f"mechanism for undeclared variable '{n}'")

    for n, mech in model.mechanisms.items():
        if n not in model.variable_map:
            continue
        support = model.variable_map[n].support
        parents = mech.parents
        for p in parents:
            if p not in seen:
                diags.append(f"{n}: parent '{p}' is not a declared variable")
        if len(set(parents)) != len(parents):
            diags.append(f"{n}: duplicate parent")
        if n in parents:
            diags.append(f"{n}: node lists itself as a parent")

        if isinstance(mech, Root):
            _check_distribution_rows(model, n, support, [("root table", mech.table)], diags)
        elif isinstance(mech, CPT):
            _check_cpt(model, n, support, mech, diags)
        else:
            _check_deterministic(model, n, support, mech, diags)

    try:
        model.topological_order()
    except ModelError as err:
        diags.append(str(err))
    return diags


def _check_cpt(model: Model, name: str, support: FiniteSupport, mech: CPT, diags: list[str]):
    if any(p not in model.variable_map for p in mech.parents):
        return
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
    if any(p not in model.variable_map for p in mech.parents):
        return
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
    table = model.outcome_table(name)  # filled here, read by every later reader
    if None not in table.slots:
        return  # filled for a model sharing the mechanism (bind keeps parameter-free ones)
    points = [_point(i) for i in range(len(support))] + [None]  # None: a failing slot
    size = len(table.slots)
    for start in range(0, size, GRID_BLOCK):
        stop = min(start + GRID_BLOCK, size)
        # The parents' support indices at each position, last parent fastest.
        digits, rest = [], np.arange(start, stop)
        for vs in reversed(table.parents):
            rest, digit = np.divmod(rest, len(vs))
            digits.insert(0, digit)
        columns = {p: np.asarray(vs)[d] for p, vs, d in zip(mech.parents, table.parents, digits)}
        values, failed = ex.evaluate_grid(mech.body, columns)
        index, off = _snap_grid(support, np.broadcast_to(values, (stop - start,)))
        failed = failed | off
        fresh = [points[i] for i in np.where(failed, len(support), index).tolist()]
        table.slots[start:stop] = [old or new for old, new in zip(table.slots[start:stop], fresh)]
        # The scalar evaluator gives each failing slot its diagnostic.
        for j in np.flatnonzero(failed).tolist():
            pos = start + j
            assignment = tuple([vs[d[j]] for vs, d in zip(table.parents, digits)])
            try:
                table.slots[pos] = table.slots[pos] or table.evaluate(mech, assignment)
            except EvalError as err:
                diags.append(f"{name}: body fails at {assignment}: {err}")
            except ModelError:
                value = mech.value(assignment)
                diags.append(f"{name}: body yields {value!r} at {assignment}, outside support")


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

    # Mechanisms without parameters are kept, and with them their outcome
    # tables, so a sweep reads those once rather than once per grid point.
    mechanisms: dict[str, Mechanism] = {}
    for name, mech in model.mechanisms.items():
        if isinstance(mech, Root) and not all(map(_is_number, mech.table.values())):
            mechanisms[name] = Root({v: entry_value(e) for v, e in mech.table.items()})
        elif isinstance(mech, CPT) and not all(
                _is_number(e) for row in mech.rows.values() for e in row.values()):
            mechanisms[name] = CPT(
                mech.parents,
                {
                    key: {v: entry_value(e) for v, e in row.items()}
                    for key, row in mech.rows.items()
                },
            )
        elif (isinstance(mech, Deterministic) and mech.body is not None
              and mech.names & set(declared)):
            mechanisms[name] = Deterministic(
                mech.parents, body=ex.substitute(mech.body, bindings)
            )
        else:
            mechanisms[name] = mech

    bound = Model(model.variables, mechanisms, ())
    diags = validate(bound)
    if diags:
        raise BindingError("; ".join(diags))
    return bound
