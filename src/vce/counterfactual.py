"""Counterfactuals by abduction, action, and prediction.

Every stochastic node (Root or CPT) is treated as a latent whose realized
value is inferred from evidence; deterministic nodes are recomputed.  The
prior over a latent configuration is its observational probability in the
unmodified model - an intervention active while the evidence was observed
(the Evidence `context`) changes what propagates into deterministic nodes,
but never re-draws a latent.  Counterfactual prediction pushes the abducted
posterior through the model under the query intervention the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .engine import Distribution, _positions, _quiet, _sum, build_joint, marginal
from .errors import QueryError, UnboundModelError, ZeroProbabilityError
from .model import CPT, Deterministic, Model, Root


@dataclass(frozen=True)
class Evidence:
    """Observed values, plus the intervention in force while observing."""

    observed: dict[str, float]
    context: dict[str, float] = field(default_factory=dict)


def stochastic_nodes(model: Model) -> tuple[str, ...]:
    order = model.topological_order()
    return tuple(n for n in order if isinstance(model.mechanisms[n], (Root, CPT)))


def recompute(model: Model, rows: Distribution, pinned: Mapping[str, int | np.ndarray]) -> Distribution:
    """`rows` (coded by support index, as the joint is) with every node
    recomputed, over the nodes in topological order (keys may repeat): a
    `pinned` node holds its index (one, or one per row), another stochastic
    node its column, and a deterministic node is gathered from its outcome
    table at its parents' positions."""
    codes = {}
    for name in model.topological_order():
        mech = model.mechanisms[name]
        if name in pinned:
            codes[name] = np.broadcast_to(pinned[name], len(rows))
        elif not isinstance(mech, Deterministic):
            codes[name] = rows.codes[rows.column(name)]
        else:
            table = model.outcome_table(name)
            codes[name] = table.array[_positions(table, [codes[p] for p in mech.parents], len(rows))]
    return Distribution(list(codes), columns=(
        [model.support(v).values for v in codes], list(codes.values()), rows.masses))


def _indices(model: Model, assignment: Mapping[str, float]) -> dict[str, int]:
    return {name: model.support(name).index_of(value) for name, value in assignment.items()}


def _latent_joint(model: Model) -> Distribution:
    if not model.is_bound:
        raise UnboundModelError("counterfactuals need a fully bound model")
    return build_joint(model)


@_quiet
def abduct(model: Model, evidence: Evidence) -> Distribution:
    """Posterior over latent configurations given the evidence: the joint's
    rows whose values under the context match it, renormalised."""
    observed = _indices(model, evidence.observed)
    context = _indices(model, evidence.context)
    joint = _latent_joint(model)
    world = recompute(model, joint, context)
    keep = np.ones(len(joint), dtype=bool)
    for name, index in observed.items():
        keep &= world.codes[world.column(name)] == index
    total = _sum(joint.masses[keep])
    if total <= 0.0:
        raise ZeroProbabilityError("evidence has zero probability under the model")
    cols = [joint.column(n) for n in stochastic_nodes(model)]  # a row per configuration
    return Distribution(stochastic_nodes(model), columns=(
        [joint.values[c] for c in cols], [joint.codes[c][keep] for c in cols],
        joint.masses[keep] / total))


def counterfactual_query(
    model: Model,
    evidence: Evidence,
    intervention: Mapping[str, float],
    target: str,
) -> Distribution:
    """Distribution of `target` had `intervention` held, given the evidence."""
    model.variable(target)
    if target in intervention:
        raise QueryError(f"target '{target}' is pinned by the intervention")
    do = _indices(model, intervention)
    return marginal(recompute(model, abduct(model, evidence), do), [target])
