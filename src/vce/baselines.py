"""Comparison measures: Neyman-Rubin/Pearl effects, post-cutting causal
strength, mutual-information strengths, and inverse probability weighting.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .counterfactual import configurations, propagate
from .engine import (
    build_joint,
    conditional_mutual_information,
    interventional_means,
    joint_at,
    kl_divergence,
    log_scale,
    marginal,
    mutual_information,
)
from .errors import PositivityError, QueryError
from .estimation import Dataset
from .model import CPT, Deterministic, Model, snap_to_support
from .rewrites import _cut, _functionalize


def ace(model: Model, cause: str, x0: float, x1: float, outcome: str) -> float:
    """Average causal effect E(Y|do(X=x1)) - E(Y|do(X=x0))."""
    hi, lo = interventional_means(model, outcome, [cause], [(x1,), (x0,)])
    return hi - lo


def cace(
    model: Model,
    cause: str,
    x0: float,
    x1: float,
    outcome: str,
    covariates: Mapping[str, float],
) -> float:
    """Conditional ACE: interventional means conditioned on a covariate event."""
    hi, lo = interventional_means(model, outcome, [cause], [(x1,), (x0,)], covariates)
    return hi - lo


def acde(
    model: Model,
    cause: str,
    x0: float,
    x1: float,
    outcome: str,
    controlled: Sequence[str],
) -> float:
    """Controlled direct effect, averaging the per-assignment contrast of
    do(X=x1, m) vs do(X=x0, m) over the controlled set's observational law."""
    if len(set(controlled)) != len(controlled):
        raise QueryError(f"controlled set names a variable twice: {list(controlled)}")
    overlap = set(controlled) & {cause, outcome}
    if overlap:
        raise QueryError(f"controlled set must exclude {sorted(overlap)}")
    if not controlled:
        return ace(model, cause, x0, x1, outcome)
    mdist = marginal(build_joint(model), list(controlled))
    ms = [(m, pm) for m, pm in mdist.items() if not pm <= 0.0]
    keys = [(*m, x) for m, _ in ms for x in (x1, x0)]
    means = interventional_means(model, outcome, [*controlled, cause], keys)
    total = 0.0
    for i, (_, pm) in enumerate(ms):
        total += pm * (means[2 * i] - means[2 * i + 1])
    return total


def ande(
    model: Model,
    cause: str,
    x0: float,
    x1: float,
    outcome: str,
    mediators: Sequence[str],
) -> float:
    """Natural direct effect E[Y(x1, M(x0)) - Y(x0, M(x0))].

    Needs functional propagation into the outcome and the mediators;
    binary CPT nodes among them are auto-rewritten as function plus noise.
    Remaining stochastic nodes act as latent context, enumerated exactly and
    held fixed across both potential worlds.
    """
    if cause in mediators or outcome in mediators:
        raise QueryError("mediators must exclude the cause and the outcome")
    model = _functionalize(model, [outcome, *mediators])
    if not isinstance(model.mechanisms[outcome], Deterministic):
        raise QueryError(f"outcome '{outcome}' is stochastic and not convertible")
    for m in mediators:
        if isinstance(model.mechanisms[m], CPT):
            raise QueryError(f"mediator '{m}' is stochastic and not convertible")
    support = model.support(cause)
    x0, x1 = snap_to_support(support, x0), snap_to_support(support, x1)
    total = 0.0
    for config, prior in configurations(model):
        baseline = propagate(model, config, {cause: x0})
        pinned = {m: baseline[m] for m in mediators}
        y1 = propagate(model, config, dict(pinned, **{cause: x1}))[outcome]
        y0 = propagate(model, config, dict(pinned, **{cause: x0}))[outcome]
        total += prior * (y1 - y0)
    return total


def janzing_strength(
    model: Model, arrows: Iterable[tuple[str, str]], base: float = 2.0
) -> float:
    """Post-cutting causal strength D_KL(P || P_S) of Janzing et al. (2013),
    where P_S is the joint of the model with `arrows` cut (see `_cut`) at P's entries."""
    log_scale(base)  # a bad base fails before any joint is built
    arrow_set = frozenset((str(s), str(t)) for s, t in arrows)
    for src, tgt in arrow_set:
        if src not in model.parents(tgt):
            raise QueryError(f"({src} -> {tgt}) is not an edge of the model")
    joint = build_joint(model)
    return kl_divergence(joint, joint_at(_cut(model, arrow_set, joint), joint), base)


def mi_strength(model: Model, cause: str, outcome: str) -> float:
    """I(X;Y) in bits; X must be a parent of Y."""
    if cause not in model.parents(outcome):
        raise QueryError(f"'{cause}' is not a parent of '{outcome}'")
    return mutual_information(build_joint(model), cause, outcome)


def cmi_strength(model: Model, cause: str, outcome: str) -> float:
    """I(X;Y | other parents of Y) in bits."""
    if cause not in model.parents(outcome):
        raise QueryError(f"'{cause}' is not a parent of '{outcome}'")
    others = [p for p in model.parents(outcome) if p != cause]
    return conditional_mutual_information(build_joint(model), cause, outcome, others)


def ipwe(
    dataset: Dataset,
    treatment: str,
    s: float,
    outcome: str,
    covariates: Sequence[str],
) -> float:
    """Inverse probability weighting estimate of E(Y(s)).

    Propensities are empirical conditional frequencies over exact covariate
    strata; a zero propensity on a contributing record is a positivity error.
    """
    ti = dataset.column_index(treatment)
    yi = dataset.column_index(outcome)
    ci = [dataset.column_index(c) for c in covariates]
    stratum_n: dict[tuple[float, ...], int] = {}
    stratum_s: dict[tuple[float, ...], int] = {}
    for row in dataset.rows:
        key = tuple(row[i] for i in ci)
        stratum_n[key] = stratum_n.get(key, 0) + 1
        if row[ti] == s:
            stratum_s[key] = stratum_s.get(key, 0) + 1
    total = 0.0
    for row in dataset.rows:
        if row[ti] != s:
            continue
        key = tuple(row[i] for i in ci)
        propensity = stratum_s.get(key, 0) / stratum_n[key]
        if propensity <= 0.0:
            raise PositivityError(f"zero estimated propensity in stratum {key}")
        total += row[yi] / propensity
    return total / len(dataset)
