"""Comparison measures: Neyman-Rubin/Pearl effects, post-cutting causal
strength, mutual-information strengths, and inverse probability weighting.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .counterfactual import recompute
from .engine import (
    Distribution,
    _kl_at,
    _quiet,
    _sum,
    build_joint,
    conditional_mutual_information,
    interventional_means,
    joint_at,
    log_scale,
    marginal,
    mutual_information,
)
from .errors import PositivityError, QueryError
from .estimation import Dataset
from .model import Deterministic, Model
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


@_quiet
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
    ms = np.flatnonzero(~(mdist.masses <= 0.0))
    # The keys (m, x1), (m, x0) for each m of the controlled set's law, as codes.
    keys = Distribution([*controlled, cause], columns=(
        [*mdist.values, (x1, x0)], [*(c[ms.repeat(2)] for c in mdist.codes), np.tile([0, 1], len(ms))],
        np.zeros(2 * len(ms))))
    means = np.array(interventional_means(model, outcome, [*controlled, cause], keys))
    return float(_sum(mdist.masses[ms] * (means[0::2] - means[1::2])))


@_quiet
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
    if len(set(mediators)) != len(mediators):
        raise QueryError(f"mediators name a variable twice: {list(mediators)}")
    if cause in mediators or outcome in mediators:
        raise QueryError("mediators must exclude the cause and the outcome")
    model = _functionalize(model, [outcome, *mediators])
    if not isinstance(model.mechanisms[outcome], Deterministic):
        raise QueryError(f"outcome '{outcome}' is stochastic and not convertible")
    i0, i1 = (model.support(cause).index_of(x) for x in (x0, x1))
    # Y(x0, M(x0)) is Y(x0): the x0 world's own outcome.
    x0_world = recompute(model, build_joint(model), {cause: i0})
    held = {m: x0_world.codes[x0_world.column(m)] for m in mediators}
    x1_world = recompute(model, x0_world, {cause: i1, **held})
    return _sum(x0_world.masses * (x1_world.values_of(outcome) - x0_world.values_of(outcome)))


def janzing_strength(
    model: Model, arrows: Iterable[tuple[str, str]], base: float = 2.0
) -> float:
    """Post-cutting causal strength D_KL(P || P_S) of Janzing et al. (2013),
    where P_S is the joint of the model with `arrows` cut (see `_cut`) at P's entries,
    row for row."""
    scale = log_scale(base)  # a bad base fails before any joint is built
    arrow_set = frozenset((str(s), str(t)) for s, t in arrows)
    for src, tgt in arrow_set:
        if src not in model.parents(tgt):
            raise QueryError(f"({src} -> {tgt}) is not an edge of the model")
    joint = build_joint(model)
    return _kl_at(joint, joint_at(_cut(model, arrow_set, joint), joint).masses, scale)


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
    strata; each is positive, as the record it weights is in its stratum.  A
    level `s` that no record takes has no estimate (PositivityError).
    """
    for name in (treatment, outcome, *covariates):
        dataset.column_index(name)  # an unknown name is a DatasetError
    table = dataset.table
    stratum = table.group(covariates)[0]
    hit = table.values_of(treatment) == s
    if not hit.any():
        raise PositivityError(f"no record has {treatment} = {s!r}")
    treated = stratum[hit]
    propensity = np.bincount(treated)[treated] / np.bincount(stratum)[treated]
    return _sum(table.values_of(outcome)[hit] / propensity) / len(dataset)
