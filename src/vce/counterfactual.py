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
from typing import Iterator, Mapping

from .engine import Distribution, build_joint, deterministic_value
from .errors import QueryError, UnboundModelError, ZeroProbabilityError
from .model import CPT, Deterministic, Model, Root, snap_to_support


@dataclass(frozen=True)
class Evidence:
    """Observed values, plus the intervention in force while observing."""

    observed: dict[str, float]
    context: dict[str, float] = field(default_factory=dict)


def stochastic_nodes(model: Model) -> tuple[str, ...]:
    order = model.topological_order()
    return tuple(n for n in order if isinstance(model.mechanisms[n], (Root, CPT)))


def configurations(model: Model) -> Iterator[tuple[dict[str, float], float]]:
    """All positive-prior assignments of the stochastic nodes.

    Each is the projection of one joint entry onto the stochastic nodes, so
    the prior multiplies each node's conditional at its latent value, with
    parents evaluated by plain observational propagation.  Deterministic
    values are functions of the latents, so no two entries share a projection.
    """
    if not model.is_bound:
        raise UnboundModelError("counterfactuals need a fully bound model")
    joint = build_joint(model)
    columns = [(name, joint.column(name)) for name in stochastic_nodes(model)]
    for key, mass in joint.entries.items():
        yield {name: key[col] for name, col in columns}, mass


def propagate(model: Model, config: Mapping[str, float], do: Mapping[str, float]) -> dict[str, float]:
    """Values of every node given latent values and an intervention.

    Intervened nodes take the pinned value; other stochastic nodes keep
    their latent value; deterministic nodes are recomputed.
    """
    values: dict[str, float] = {}
    for name in model.topological_order():
        if name in do:
            values[name] = snap_to_support(model.support(name), do[name])
        elif isinstance(model.mechanisms[name], Deterministic):
            values[name] = deterministic_value(model, name, values)
        else:
            values[name] = config[name]
    return values


def _snap_assignment(model: Model, assignment: Mapping[str, float]) -> dict[str, float]:
    return {
        name: snap_to_support(model.support(name), value) for name, value in assignment.items()
    }


def _posterior(model: Model, evidence: Evidence) -> list[tuple[dict[str, float], float]]:
    observed = _snap_assignment(model, evidence.observed)
    context = _snap_assignment(model, evidence.context)
    weighted: list[tuple[dict[str, float], float]] = []
    total = 0.0
    for config, prior in configurations(model):
        values = propagate(model, config, context)
        if all(values[name] == v for name, v in observed.items()):
            weighted.append((config, prior))
            total += prior
    if total <= 0.0:
        raise ZeroProbabilityError("evidence has zero probability under the model")
    return [(config, p / total) for config, p in weighted]


def abduct(model: Model, evidence: Evidence) -> Distribution:
    """Posterior over latent configurations given the evidence."""
    nodes = stochastic_nodes(model)
    table: dict[tuple[float, ...], float] = {}
    for config, p in _posterior(model, evidence):
        key = tuple(config[n] for n in nodes)
        table[key] = table.get(key, 0.0) + p
    return Distribution(nodes, table)


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
    do = _snap_assignment(model, intervention)
    table: dict[tuple[float, ...], float] = {}
    for config, p in _posterior(model, evidence):
        value = propagate(model, config, do)[target]
        table[(value,)] = table.get((value,), 0.0) + p
    return Distribution((target,), table)
