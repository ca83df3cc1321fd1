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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Mapping, Union

from . import expr as ex
from .errors import BindingError, EvalError, ModelError, StateSpaceError

ROW_SUM_TOL = 1e-9
VALUE_TOL = 1e-9
DEFAULT_STATE_LIMIT = 10_000_000

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
    """Immutable structural model: variables plus one mechanism per variable."""

    variables: tuple[Variable, ...]
    mechanisms: dict[str, Mechanism]
    parameters: tuple[Parameter, ...] = ()
    state_limit: int | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "parameters", tuple(self.parameters))
        limit = self.state_limit if self.state_limit is not None else default_state_limit()
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

    def topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm; ties broken by declaration order (deterministic)."""
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


def default_state_limit() -> int:
    raw = os.environ.get("VCE_STATE_LIMIT")
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_STATE_LIMIT


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
                if p < -ROW_SUM_TOL or p > 1 + ROW_SUM_TOL:
                    diags.append(f"{name}: {label} probability {p} outside [0, 1]")
                total += p
            else:
                symbolic = True
                bad = ex.free_names(entry) - param_names
                if bad:
                    diags.append(
                        f"{name}: {label} references undeclared parameter(s) {sorted(bad)}"
                    )
        if not symbolic and abs(total - 1.0) > ROW_SUM_TOL:
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
    bad = ex.free_names(mech.body) - allowed
    if bad:
        diags.append(f"{name}: body references unknown identifier(s) {sorted(bad)}")
        return
    if ex.free_names(mech.body) & set(model.parameter_map):
        return  # totality checked after binding
    for assignment in _parent_space(model, mech.parents):
        try:
            value = mech.value(assignment)
        except EvalError as err:
            diags.append(f"{name}: body fails at {assignment}: {err}")
            continue
        if value not in support:
            diags.append(f"{name}: body yields {value!r} at {assignment}, outside support")


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

    mechanisms: dict[str, Mechanism] = {}
    for name, mech in model.mechanisms.items():
        if isinstance(mech, Root):
            mechanisms[name] = Root({v: entry_value(e) for v, e in mech.table.items()})
        elif isinstance(mech, CPT):
            mechanisms[name] = CPT(
                mech.parents,
                {
                    key: {v: entry_value(e) for v, e in row.items()}
                    for key, row in mech.rows.items()
                },
            )
        elif mech.body is not None:
            mechanisms[name] = Deterministic(
                mech.parents, body=ex.substitute(mech.body, bindings)
            )
        else:
            mechanisms[name] = mech

    bound = Model(model.variables, mechanisms, (), state_limit=model.state_limit)
    diags = validate(bound)
    if diags:
        raise BindingError("; ".join(diags))
    return bound
