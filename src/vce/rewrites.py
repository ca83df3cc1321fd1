"""Model rewrites, each a function from a model to a new model.

`eliminate_mediator` and `cpt_to_noise` (which `_functionalize` applies node
by node) keep the law of the variables they keep.  `_cut` builds the
post-cutting model of Janzing et al. (2013), which changes it on purpose.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import expr as ex
from .dsl import MAX_DEPTH
from .engine import Distribution, _check_mass, _quiet, _sum, deterministic_value
from .errors import NoiseConversionError, QueryError, UnboundModelError
from .model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    OutcomeTable,
    Parameter,
    TableRows,
    Variable,
    _parent_space,
    _rebuilt,
)

ArrowSet = frozenset[tuple[str, str]]


def eliminate_mediator(model: Model, mediator: str) -> Model:
    """Substitute a deterministic mediator into its children and drop it.

    An expression child takes the mediator's body symbolically when that body
    yields exact support values (or the model is unbound) and the result has at
    most dsl.MAX_DEPTH levels; otherwise the child is tabulated over the expanded
    parent set from the mediator's value snapped onto its support, as read.
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
    return Model(variables, mechanisms, model.parameters)


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
    body = ex.substitute(mech.body, {mediator: med.body}) if symbolic else None
    if body is not None and ex.depth(body) <= MAX_DEPTH:  # deeper would not parse back
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
    if _rebuilt(mech, {}):
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
    return Model(tuple(variables), mechanisms, tuple(parameters))


def _functionalize(model: Model, names: Iterable[str]) -> Model:
    """cpt_to_noise each named CPT node so potential outcomes propagate."""
    out = model
    for name in names:
        mech = out.mechanisms.get(name)
        if mech is None:
            raise QueryError(f"unknown variable '{name}'")
        if isinstance(mech, CPT):
            out = cpt_to_noise(out, name)
    return out


@_quiet
def _cut(model: Model, arrows: ArrowSet, joint: Distribution) -> Model:
    """The model after `arrows` are cut: each cut target is fed independent
    draws from its cut sources' observational marginals in `joint`.

    A cut target's mechanism becomes a CPT over its kept parents, with a row
    for every kept assignment (cutting can reach parent values that P never
    reaches): P(t | kept) = sum over the sources' values of prod P(source) *
    P(t | kept, sources).  The rows are those of a local model with the kept
    parents uniform roots and the sources roots with their marginals, times
    the number of kept assignments, taken as its enumeration takes them:
    one gather of the target's outcomes at every branch, factors multiplied
    in parent order, sums in depth-first row order.  The CPT comes with its
    outcome table, and its rows are a view of it.
    """
    mechanisms = dict(model.mechanisms)
    for target in {t for _, t in arrows}:
        parents, table = model.parents(target), model.outcome_table(target)
        kept = tuple(p for p in parents if (p, target) not in arrows)
        # The local model's branches, depth first in parent order: each
        # parent's values of nonzero weight (uniform if kept, else its marginal:
        # the joint's value tables are the supports), and per branch its mass,
        # its slot in the target's table and its kept assignment.
        mass, pos, row = np.ones(1), np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
        for p in parents:
            n = len(model.support(p))
            w = np.full(n, 1.0 / n) if p in kept else np.bincount(joint.codes[joint.column(p)], joint.masses, n)
            live = np.flatnonzero(w)
            mass = (mass[:, None] * w[live]).reshape(-1)
            pos = (pos[:, None] * n + live).reshape(-1)
            row = (row[:, None] * n + live).reshape(-1) if p in kept else row.repeat(len(live))
        outcomes, size = table.array, len(table.supports[0])
        if outcomes.ndim == 1:  # deterministic: each branch's one outcome, probability 1.0
            cell = row * size + outcomes[pos]
        else:
            branch, t = np.nonzero(outcomes[pos])
            cell, mass = row[branch] * size + t, mass[branch] * outcomes[pos][branch, t]
        _check_mass(_sum(mass))
        supports = tuple(map(model.support, (target, *kept)))
        assignments = math.prod(map(len, supports[1:]))
        filled = OutcomeTable(supports, np.bincount(cell, mass, assignments * size).reshape(
            assignments, size) * assignments)
        mechanisms[target] = CPT(kept, TableRows(filled))
        object.__setattr__(mechanisms[target], "_outcome_table", filled)  # where Model.outcome_table looks
    return Model(model.variables, mechanisms, model.parameters)
