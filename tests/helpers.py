"""Shared random generators for the property suites.

Generated models are always valid: deterministic bodies are built from
templates that stay total over the declared supports, and parameterized
probability rows sum to one for every admissible parameter value.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, groupby, product
from operator import add
from pathlib import Path

import numpy as np

from vce import expr as ex
from vce.engine import (
    Distribution,
    build_joint,
    deterministic_value,
    expectation,
    intervene,
    log_scale,
    marginal,
    stratify,
)
from vce.errors import (
    AbsoluteContinuityError,
    BindingError,
    DatasetError,
    EngineError,
    EvalError,
    ParseError,
    PositivityError,
    QueryError,
    UnavailableStratumError,
    UnboundModelError,
    ZeroProbabilityError,
)
from vce.model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    Parameter,
    Partition,
    Root,
    VALUE_TOL,
    Variable,
    bind,
    snap_to_support,
    validate,
)
from vce.rewrites import _functionalize
from vce.variational import (
    EffectQuery,
    StratumTable,
    ZSlice,
    _better,
    brute_force_total_variation,
    chain_value,
    matrix_form_chain_value,
    strata,
    variations,
)

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def load_model_text(name: str) -> str:
    return (MODELS_DIR / name).read_text(encoding="utf-8")


def random_probs(rng: np.random.Generator, k: int, allow_zero: bool = False) -> list[float]:
    w = rng.random(k) + 0.05
    if allow_zero and k >= 2 and rng.random() < 0.4:
        dead = rng.choice(k, size=int(rng.integers(1, k)), replace=False)
        w[dead] = 0.0
    total = w.sum()
    return [float(v / total) for v in w]


def random_support(rng: np.random.Generator, size: int, lo: int = -3, hi: int = 12) -> FiniteSupport:
    values = rng.choice(np.arange(lo, hi), size=size, replace=False)
    return FiniteSupport(tuple(sorted(float(v) for v in values)))


def random_effect_model(
    rng: np.random.Generator,
    x_size: int | None = None,
    y_binary: bool = False,
    max_z: int = 2,
) -> tuple[Model, str, str]:
    """A model with conditioning roots Z*, a cause X (root or CPT over Z),
    and a deterministic outcome Y over (X, Z*).  Returns (model, "X", "Y")."""
    variables: list[Variable] = []
    mechanisms: dict[str, object] = {}
    z_names: list[str] = []
    for i in range(int(rng.integers(0, max_z + 1))):
        name = f"Z{i}"
        support = random_support(rng, int(rng.integers(2, 4)), lo=0, hi=8)
        variables.append(Variable(name, support))
        mechanisms[name] = Root(dict(zip(support.values, random_probs(rng, len(support)))))
        z_names.append(name)

    if x_size is None:
        x_size = int(rng.choice([2, 2, 3, 3, 4, 5, 6, 8, 10]))
    x_support = random_support(rng, x_size)
    variables.append(Variable("X", x_support))
    if z_names and rng.random() < 0.5:
        rows = {}
        for key in product(*(v.support.values for v in variables[: len(z_names)])):
            rows[key] = dict(zip(x_support.values, random_probs(rng, x_size, allow_zero=True)))
        mechanisms["X"] = CPT(tuple(z_names), rows)
    else:
        mechanisms["X"] = Root(
            dict(zip(x_support.values, random_probs(rng, x_size, allow_zero=True)))
        )

    if y_binary:
        y_support = FiniteSupport((0.0, 1.0))
    else:
        y_values = rng.choice(np.linspace(-3, 3, 13), size=int(rng.integers(2, 5)), replace=False)
        y_support = FiniteSupport(tuple(sorted(float(v) for v in y_values)))
    variables.append(Variable("Y", y_support))
    parents = ("X",) + tuple(z_names)
    spaces = [x_support.values] + [mechanisms_support(variables, z) for z in z_names]
    table = {
        key: float(rng.choice(y_support.values)) for key in product(*spaces)
    }
    mechanisms["Y"] = Deterministic(parents, table=table)
    return Model(tuple(variables), mechanisms), "X", "Y"


def mechanisms_support(variables: list[Variable], name: str) -> tuple[float, ...]:
    for v in variables:
        if v.name == name:
            return v.support.values
    raise KeyError(name)


# --- random DSL models (round-trip fuzz) -----------------------------------


def _random_condition(rng: np.random.Generator, parents: list[Variable], depth: int = 0) -> ex.Expr:
    if depth < 2 and rng.random() < 0.4:
        kind = rng.choice(["and", "or", "not", "xor"])
        a = _random_condition(rng, parents, depth + 1)
        if kind == "not":
            return ex.Unary("not", a)
        b = _random_condition(rng, parents, depth + 1)
        if kind == "xor":
            return ex.Call("xor", (a, b))
        return ex.Binary(str(kind), a, b)
    p = parents[int(rng.integers(0, len(parents)))]
    op = str(rng.choice(["==", "!=", "<", "<=", ">", ">="]))
    threshold = float(rng.choice(p.support.values))
    return ex.Binary(op, ex.Name(p.name), ex.Num(threshold))


def _random_body(rng: np.random.Generator, parents: list[Variable], support: FiniteSupport) -> ex.Expr:
    lo = ex.Num(float(support.values[0]))
    hi = ex.Num(float(support.values[-1]))
    if not parents or rng.random() < 0.2:
        return ex.Num(float(rng.choice(support.values)))
    return ex.IfElse(_random_condition(rng, parents), hi, lo)


def _random_prob_entries(
    rng: np.random.Generator, values: tuple[float, ...], params: list[Parameter]
) -> dict[float, object]:
    if not params or rng.random() < 0.6:
        return dict(zip(values, random_probs(rng, len(values))))
    p = ex.Name(params[int(rng.integers(0, len(params)))].name)
    scale = round(float(rng.uniform(0.1, 1.0)), 3)
    head = ex.Binary("*", ex.Num(scale), p)  # in [0, scale] for p in [0, 1]
    remainder = ex.Binary("-", ex.Num(1.0), head)
    entries: dict[float, object] = {values[0]: head}
    if len(values) == 2:
        entries[values[1]] = remainder
        return entries
    rest = random_probs(rng, len(values) - 1)
    for v, w in zip(values[1:], rest):
        entries[v] = ex.Binary("*", remainder, ex.Num(w))
    return entries


def random_dsl_model(rng: np.random.Generator) -> Model:
    params: list[Parameter] = []
    if rng.random() < 0.4:
        params.append(Parameter("p", 0.0, 1.0))
    n = int(rng.integers(1, 6))
    variables: list[Variable] = []
    mechanisms: dict[str, object] = {}
    for i in range(n):
        name = f"V{i}"
        support = random_support(rng, int(rng.integers(2, 5)), lo=-2, hi=9)
        kind = rng.choice(["root", "cpt", "def", "fun"]) if variables else "root"
        if kind == "root":
            mechanisms[name] = Root(_random_prob_entries(rng, support.values, params))
        elif kind == "cpt":
            k = int(rng.integers(1, min(2, len(variables)) + 1))
            idx = rng.choice(len(variables), size=k, replace=False)
            parents = tuple(variables[j].name for j in sorted(idx))
            rows = {}
            for key in product(*(variables[j].support.values for j in sorted(idx))):
                rows[key] = _random_prob_entries(rng, support.values, params)
            mechanisms[name] = CPT(parents, rows)
        elif kind == "def":
            k = int(rng.integers(1, min(2, len(variables)) + 1))
            idx = sorted(rng.choice(len(variables), size=k, replace=False))
            chosen = [variables[j] for j in idx]
            body = _random_body(rng, chosen, support)
            referenced = ex.free_names(body)
            parents = tuple(v.name for v in variables if v.name in referenced)
            mechanisms[name] = Deterministic(parents, body=body)
        else:
            k = int(rng.integers(1, min(2, len(variables)) + 1))
            idx = sorted(rng.choice(len(variables), size=k, replace=False))
            parents = tuple(variables[j].name for j in idx)
            table = {}
            for key in product(*(variables[j].support.values for j in idx)):
                table[key] = float(rng.choice(support.values))
            mechanisms[name] = Deterministic(parents, table=table)
        variables.append(Variable(name, support))
    return Model(tuple(variables), mechanisms, tuple(params))


def raw_row(rng: np.random.Generator, values) -> dict[float, float]:
    """A probability row that may hold zeros, entries below zero, NaN and
    entries small enough for their products to underflow to 0.0."""
    probs = random_probs(rng, len(values), allow_zero=True)
    roll = rng.random()
    if roll < 0.08:
        probs[int(rng.integers(0, len(values)))] = math.nan
    elif roll < 0.35:
        probs[int(rng.integers(0, len(values)))] = float(rng.choice([1e-200, 1e-170, -1e-12]))
    return dict(zip(values, probs))


def raw_model(rng: np.random.Generator) -> Model:
    """An unvalidated model: roots and CPTs with rows as raw_row draws them,
    deterministic tables and indicator roots (weight 1.0 on several values,
    as interventional_means builds them)."""
    variables, mechanisms = [], {}
    for i in range(int(rng.integers(1, 6))):
        support = FiniteSupport(tuple(float(v) for v in sorted(
            rng.choice(np.arange(-2, 7), size=int(rng.integers(1, 4)), replace=False))))
        name = f"V{i}"
        parents = [v for v in variables if rng.random() < 0.5][:2]
        kind = rng.choice(["root", "indicator", "cpt", "fun"][: 4 if parents else 2])
        if kind == "root":
            mechanisms[name] = Root(raw_row(rng, support.values))
        elif kind == "indicator":
            size = int(rng.integers(1, len(support) + 1))
            chosen = rng.choice(support.values, size=size, replace=False)
            mechanisms[name] = Root(dict.fromkeys(sorted(float(v) for v in chosen), 1.0))
        else:
            space = list(product(*(v.support.values for v in parents)))
            names = tuple(v.name for v in parents)
            if kind == "cpt":
                mechanisms[name] = CPT(names, {key: raw_row(rng, support.values) for key in space})
            else:
                mechanisms[name] = Deterministic(
                    names, table={key: float(rng.choice(support.values)) for key in space})
        variables.append(Variable(name, support))
    return Model(tuple(variables), mechanisms)


def mixed_models(seed: int, count: int):
    """Random bound DSL models, each also under a random intervention, and
    raw models, each with the generator that drew it."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 3 == 2:
            yield rng, raw_model(rng)
            continue
        model = random_dsl_model(rng)
        if model.parameters:
            model = bind(model, {"p": float(rng.uniform())})
        yield rng, model
        names = [v.name for v in model.variables]
        name = names[int(rng.integers(0, len(names)))]
        yield rng, intervene(model, {name: float(rng.choice(model.support(name).values))})


# --- reference joint enumeration ---------------------------------------------


def reference_joint(model: Model) -> Distribution:
    """The joint by plain recursion in topological order, evaluating every
    conditional afresh from the mechanisms (oracle for engine.build_joint)."""
    order = model.topological_order()
    declaration = tuple(v.name for v in model.variables)
    entries: dict[tuple[float, ...], float] = {}

    def recurse(i, assignment, mass):
        if i == len(order):
            key = tuple(assignment[n] for n in declaration)
            entries[key] = entries.get(key, 0.0) + mass
            return
        name = order[i]
        mech = model.mechanisms[name]
        support = model.support(name)
        parent_values = tuple(assignment[p] for p in mech.parents)
        if isinstance(mech, Deterministic):
            assignment[name] = snap_to_support(support, mech.value(parent_values))
            recurse(i + 1, assignment, mass)
            del assignment[name]
            return
        row = mech.table if isinstance(mech, Root) else mech.rows[parent_values]
        for value in support.values:
            p = float(row.get(value, 0.0))
            if p <= 0.0:
                continue
            assignment[name] = value
            recurse(i + 1, assignment, mass * p)
            del assignment[name]

    recurse(0, {}, 1.0)
    return Distribution(declaration, entries)


def joint_bits(joint: Distribution) -> list:
    """Entries in order, keys and masses as exact float hex (bit identity)."""
    return [(tuple(v.hex() for v in key), p.hex()) for key, p in joint.entries.items()]


def chain_source(k: int) -> str:
    """X -> Z0 -> ... -> Z{k-1} with Y = X + sum(Z): 4 * 2^k joint entries."""
    lines = ["var X in {0, 2, 3, 5}"] + [f"var Z{i} in {{0, 1}}" for i in range(k)]
    lines += [f"var Y in {{{', '.join(str(v) for v in range(k + 6))}}}",
              "root X {0: 0.1, 2: 0.2, 3: 0.3, 5: 0.4}",
              "cpt Z0 | X {(0): {0: 0.5, 1: 0.5}, (2): {0: 0.25, 1: 0.75}, "
              "(3): {0: 0.6, 1: 0.4}, (5): {0: 0.125, 1: 0.875}}"]
    for j in range(1, k):
        lines.append(f"cpt Z{j} | Z{j - 1} {{(0): {{0: 0.7, 1: 0.3}}, (1): {{0: 0.2, 1: 0.8}}}}")
    lines.append("def Y = X + " + " + ".join(f"Z{i}" for i in range(k)))
    return "\n".join(lines) + "\n"


# --- reference interventional means and joint lookups ------------------------


def reference_expectation_under(model: Model, target: str, do, given=None) -> float:
    """E(target | do(...), given) from the intervened model's own joint
    (oracle for engine.interventional_means and its callers)."""
    return expectation(build_joint(intervene(model, do)), target, given)


def reference_conditional(joint: Distribution, variables, given) -> Distribution:
    """P(variables | given) in one pass over the joint, summing the kept mass
    and the kept table together (oracle for engine.conditional)."""
    cols = [joint.column(v) for v in variables]
    gcols = [(joint.column(n), v) for n, v in given.items()]
    table: dict[tuple[float, ...], float] = {}
    mass = 0.0
    for key, p in joint.entries.items():
        if not all(abs(key[c] - v) <= VALUE_TOL for c, v in gcols):  # a NaN matches no value
            continue
        mass += p
        sub = tuple(key[c] for c in cols)
        table[sub] = table.get(sub, 0.0) + p
    if mass <= 0.0:
        raise ZeroProbabilityError(f"conditioning event {dict(given)} has zero probability")
    return Distribution(tuple(variables), {k: v / mass for k, v in table.items()})


def evaluate_slot(support: FiniteSupport, mech, parent_values) -> tuple[tuple[int, float], ...]:
    """A node's conditional at `parent_values` by plain evaluation of its
    mechanism (oracle for the outcome tables): its positive (support index,
    probability) pairs in support order, a NaN entry kept."""
    if isinstance(mech, Deterministic):
        return ((support.index_of(mech.value(parent_values)), 1.0),)
    row = mech.rows[parent_values] if isinstance(mech, CPT) else mech.table
    probabilities = [float(row.get(v, 0.0)) for v in support.values]
    return tuple([(i, p) for i, p in enumerate(probabilities) if not p <= 0.0])


def reference_joint_at(model: Model, keys) -> Distribution:
    """The product of the node conditionals at each full assignment, every
    factor evaluated afresh (oracle for joint_at)."""
    column = {v.name: i for i, v in enumerate(model.variables)}
    nodes = [(model.support(n), model.mechanisms[n], column[n],
              [column[p] for p in model.mechanisms[n].parents]) for n in model.topological_order()]
    masses = {}
    for key in keys:
        mass = 1.0
        for support, mech, col, parents in nodes:
            pairs = dict(evaluate_slot(support, mech, tuple(key[c] for c in parents)))
            mass *= pairs.get(support.values.index(key[col]), 0.0)
            if mass == 0.0:
                break
        masses[key] = mass
    return Distribution(tuple(column), masses)


# --- the dict readers the columnar joint replaced ----------------------------
#
# engine's readers as they were when a Distribution was a dict of full-key
# tuples: one Python pass over the entries each, summing in entry order.  The
# columnar readers must give the same keys, order and float bits.


def dict_marginal(joint: Distribution, variables) -> Distribution:
    cols = [joint.column(v) for v in variables]
    table: dict[tuple[float, ...], float] = {}
    for key, p in joint.entries.items():
        sub = tuple(key[c] for c in cols)
        table[sub] = table.get(sub, 0.0) + p
    return Distribution(tuple(variables), table)


def dict_expectation(joint: Distribution, target: str, given=None) -> float:
    if given:
        dist = reference_conditional(joint, [target], given)
    else:
        dist = dict_marginal(joint, [target])
    total = 0.0
    for key, p in dist.entries.items():
        total += key[0] * p
    return total


def dict_entropy(dist: Distribution) -> float:
    total = 0.0
    for p in dist.masses.tolist():
        if p > 0.0:
            total += p * math.log2(p)
    return -total


def dict_cond_entropy(joint: Distribution, target, given) -> float:
    targets = [target] if isinstance(target, str) else list(target)
    both = dict_marginal(joint, list(given) + targets)
    gdist = dict_marginal(joint, given)
    k = len(given)
    total = 0.0
    for key, p in both.entries.items():
        if p <= 0.0:
            continue
        total -= p * math.log2(p / gdist.probability(key[:k]))
    return total


def dict_conditional_mutual_information(joint: Distribution, x: str, y: str, given) -> float:
    return dict_cond_entropy(joint, y, list(given)) - dict_cond_entropy(joint, y, [x] + list(given))


def dict_kl_divergence(p: Distribution, q: Distribution, base: float = 2.0) -> float:
    scale = log_scale(base)
    total = 0.0
    for key, pv in p.entries.items():
        if pv <= 0.0:
            continue
        qv = q.probability(key)
        if qv <= 0.0:
            raise AbsoluteContinuityError(f"Q vanishes at {key} where P = {pv}")
        total += pv * math.log2(pv / qv)
    return total * scale


def dict_interventional_means(model: Model, target: str, names, keys, given=None) -> list[float]:
    """One enumeration of the model with each named node an indicator root,
    then one mass check and one expectation per slice, in first-request order."""
    snaps = [{v: snap_to_support(model.support(name), v) for v in dict.fromkeys(k[i] for k in keys)}
             for i, name in enumerate(names)]
    mechanisms = dict(model.mechanisms)
    for name, snap in zip(names, snaps):
        mechanisms[name] = Root(dict.fromkeys(snap.values(), 1.0))
    joint = reference_joint(Model(model.variables, mechanisms, model.parameters))
    cols = [joint.column(n) for n in names]
    snapped = [tuple(snap[v] for snap, v in zip(snaps, key)) for key in keys]
    slices: dict[tuple[float, ...], dict] = {s: {} for s in snapped}
    for key, p in joint.entries.items():
        entries = slices.get(tuple(key[c] for c in cols))
        if entries is not None:
            entries[key] = p
    means = {}
    for s, entries in slices.items():
        mass = 0  # as sum() starts: an empty slice has mass 0
        for p in entries.values():
            mass += p
        if not abs(mass - 1.0) <= 1e-9:
            raise EngineError(f"joint mass {mass} deviates from 1")
        means[s] = dict_expectation(Distribution(joint.variables, entries), target, given)
    return [means[s] for s in snapped]


def dict_acde(model: Model, cause: str, x0: float, x1: float, outcome: str, controlled) -> float:
    """baselines.acde with the controlled law's keys as tuples: one slice per
    positive-mass assignment m, two keys (m, x1), (m, x0) each."""
    if not controlled:
        hi, lo = dict_interventional_means(model, outcome, [cause], [(x1,), (x0,)])
        return hi - lo
    ms = [(m, pm) for m, pm in marginal(build_joint(model), list(controlled)).items() if not pm <= 0.0]
    keys = [(*m, x) for m, _ in ms for x in (x1, x0)]
    means = dict_interventional_means(model, outcome, [*controlled, cause], keys)
    total = 0.0
    for i, (_, pm) in enumerate(ms):
        total += pm * (means[2 * i] - means[2 * i + 1])
    return total


def dict_joint_at(model: Model, keys) -> Distribution:
    """joint_at with each key reusing, as a prefix, the factors of the nodes
    it shares with the key before."""
    column = {v.name: i for i, v in enumerate(model.variables)}
    values = [v.support.values for v in model.variables]
    nodes = [(model.support(n), model.mechanisms[n], column[n],
              [column[p] for p in model.mechanisms[n].parents]) for n in model.topological_order()]
    masses = {}
    prev, partial = (), [1.0]  # partial[i]: the product of the first i factors at `prev`
    for key in keys:
        i = 0
        while i < len(partial) - 1 and key[nodes[i][2]] == prev[nodes[i][2]]:
            i += 1
        del partial[i + 1:]
        for support, mech, col, parents in nodes[i:]:
            if partial[-1] == 0.0:
                break
            for c in parents:
                values[c].index(key[c])  # a value off the support fails here
            outcomes = evaluate_slot(support, mech, tuple(key[c] for c in parents))
            partial.append(partial[-1] * dict(outcomes).get(values[col].index(key[col]), 0.0))
        masses[key] = partial[-1]
        prev = key
    return Distribution(tuple(column), masses)


# --- reference enumeration of latent configurations -------------------------


def reference_configurations(model: Model):
    """Positive-prior assignments of the stochastic nodes by their own
    recursion in topological order (oracle for the joint's stochastic columns,
    which counterfactuals take as their latent configurations)."""
    order = model.topological_order()

    def local_prob(name, value, values):
        mech = model.mechanisms[name]
        if isinstance(mech, Root):
            row = mech.table
        else:
            row = mech.rows[tuple(values[p] for p in mech.parents)]
        return float(row.get(value, 0.0))

    def recurse(i, values, config, prior):
        if i == len(order):
            yield dict(config), prior
            return
        name = order[i]
        mech = model.mechanisms[name]
        if isinstance(mech, Deterministic):
            values[name] = snap_to_support(
                model.support(name), mech.value(tuple(values[p] for p in mech.parents))
            )
            yield from recurse(i + 1, values, config, prior)
            del values[name]
            return
        for value in model.support(name).values:
            p = local_prob(name, value, values)
            if p <= 0.0:
                continue
            values[name] = value
            config[name] = value
            yield from recurse(i + 1, values, config, prior * p)
            del values[name]
            del config[name]

    yield from recurse(0, {}, {}, 1.0)


# --- reference counterfactuals: the scalar walk ------------------------------
#
# counterfactual.py and baselines.ande as they were before the propagation
# kernel: one graph walk per joint row (and per world), one dict per row.
# The column gathers must give the same keys, order, float bits, errors and
# error precedence.


def reference_propagate(model: Model, config, do) -> dict[str, float]:
    """Every node's value: `do` nodes pinned (snapped values), other
    stochastic nodes at their latent value, deterministic nodes recomputed."""
    values: dict[str, float] = {}
    for name in model.topological_order():
        if name in do:
            values[name] = do[name]
        elif isinstance(model.mechanisms[name], Deterministic):
            values[name] = deterministic_value(model, name, values)
        else:
            values[name] = config[name]
    return values


def _reference_snap(model: Model, assignment) -> dict[str, float]:
    return {name: snap_to_support(model.support(name), v) for name, v in assignment.items()}


def _reference_latents(model: Model):
    """(latent values, prior) of each joint row, in row order."""
    if not model.is_bound:
        raise UnboundModelError("counterfactuals need a fully bound model")
    joint = build_joint(model)
    names = [n for n in model.topological_order() if not isinstance(model.mechanisms[n], Deterministic)]
    columns = [joint.values_of(name).tolist() for name in names]
    for *latent, mass in zip(*columns, joint.masses.tolist()):
        yield dict(zip(names, latent)), mass


def reference_posterior(model: Model, evidence) -> list[tuple[dict[str, float], float]]:
    observed = _reference_snap(model, evidence.observed)
    context = _reference_snap(model, evidence.context)
    weighted = []
    total = 0.0
    for config, prior in _reference_latents(model):
        values = reference_propagate(model, config, context)
        if all(values[name] == v for name, v in observed.items()):
            weighted.append((config, prior))
            total += prior
    if total <= 0.0:
        raise ZeroProbabilityError("evidence has zero probability under the model")
    return [(config, p / total) for config, p in weighted]


def reference_abduct(model: Model, evidence) -> Distribution:
    nodes = tuple(n for n in model.topological_order()
                  if not isinstance(model.mechanisms[n], Deterministic))
    table: dict[tuple[float, ...], float] = {}
    for config, p in reference_posterior(model, evidence):
        key = tuple(config[n] for n in nodes)
        table[key] = table.get(key, 0.0) + p
    return Distribution(nodes, table)


def reference_counterfactual_query(model: Model, evidence, intervention, target: str) -> Distribution:
    model.variable(target)
    if target in intervention:
        raise QueryError(f"target '{target}' is pinned by the intervention")
    do = _reference_snap(model, intervention)
    table: dict[tuple[float, ...], float] = {}
    for config, p in reference_posterior(model, evidence):
        value = reference_propagate(model, config, do)[target]
        table[(value,)] = table.get((value,), 0.0) + p
    return Distribution((target,), table)


def reference_ande(model: Model, cause: str, x0: float, x1: float, outcome: str, mediators) -> float:
    """E[Y(x1, M(x0)) - Y(x0, M(x0))] with three walks per latent row."""
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
    for config, prior in _reference_latents(model):
        baseline = reference_propagate(model, config, {cause: x0})
        pinned = {m: baseline[m] for m in mediators}
        y1 = reference_propagate(model, config, dict(pinned, **{cause: x1}))[outcome]
        y0 = reference_propagate(model, config, dict(pinned, **{cause: x0}))[outcome]
        total += prior * (y1 - y0)
    return total


# --- reference post-cutting strength ----------------------------------------


def local_distribution(model: Model, name: str, assignment) -> dict[float, float]:
    """P(name = . | parents), with `assignment` covering the parents."""
    mech = model.mechanisms[name]
    pairs = dict(evaluate_slot(model.support(name), mech, tuple(assignment[p] for p in mech.parents)))
    return {v: pairs.get(i, 0.0) for i, v in enumerate(model.support(name).values)}


def reference_cut(model: Model, arrows, joint: Distribution) -> Model:
    """rewrites._cut as it read a cut target's rows off an enumeration of a
    local model: the kept parents uniform roots, the cut sources roots with
    their marginals in `joint`, the target with its mechanism."""
    mechanisms = dict(model.mechanisms)
    for target in {t for _, t in arrows}:
        local = {target: model.mechanisms[target]}
        kept = tuple(p for p in model.parents(target) if (p, target) not in arrows)
        for p in model.parents(target):
            values = model.support(p).values
            local[p] = Root(
                {v: 1.0 / len(values) for v in values} if p in kept
                else {key[0]: w for key, w in marginal(joint, [p]).items()}
            )
        sub = Model(tuple(map(model.variable, local)), local)
        assignments = math.prod(len(model.support(p)) for p in kept)
        rows: dict[tuple[float, ...], dict[float, float]] = {}
        for key, mass in marginal(build_joint(sub), [*kept, target]).items():
            rows.setdefault(key[:-1], {})[key[-1]] = mass * assignments
        mechanisms[target] = CPT(kept, rows)
    return Model(model.variables, mechanisms, model.parameters)


def reference_janzing_strength(model: Model, arrows, base: float = 2.0) -> float:
    """D_KL(P || P_S) with P_S(key) re-derived per joint entry from the local
    conditionals (oracle for baselines.janzing_strength)."""
    scale = log_scale(base)
    arrow_set = frozenset((str(s), str(t)) for s, t in arrows)
    for src, tgt in arrow_set:
        if src not in model.parents(tgt):
            raise QueryError(f"({src} -> {tgt}) is not an edge of the model")
    joint = build_joint(model)
    targets = {tgt for _, tgt in arrow_set}
    cut_sources = {
        tgt: tuple(p for p in model.parents(tgt) if (p, tgt) in arrow_set) for tgt in targets
    }
    source_marginals = {src: marginal(joint, [src]) for src, _ in arrow_set}

    names = tuple(v.name for v in model.variables)
    post = {}
    for key, p in joint.entries.items():
        if p <= 0.0:
            continue
        assignment = dict(zip(names, key))
        q = 1.0
        for name in names:
            value = assignment[name]
            if name not in cut_sources:
                q *= local_distribution(model, name, assignment)[value]
                continue
            cut = cut_sources[name]
            mixed = 0.0
            for alpha in product(*(model.support(s).values for s in cut)):
                weight_alpha = 1.0
                for s, a in zip(cut, alpha):
                    weight_alpha *= source_marginals[s].probability((a,))
                if weight_alpha <= 0.0:
                    continue
                fed = dict(assignment)
                fed.update(zip(cut, alpha))
                mixed += local_distribution(model, name, fed)[value] * weight_alpha
            q *= mixed
        post[key] = q
    total = 0.0
    for key, p in joint.entries.items():
        if p <= 0.0:
            continue
        total += p * math.log2(p / post[key])
    return total * scale


# --- the record-by-record CSV reader (oracle of the column-wise one) ---------


@dataclass(frozen=True)
class ReferenceDataset:
    """Dataset as a tuple of float rows: `from_csv` calls `float` on every
    cell and the constructor checks every value; `table` flattens the rows
    again and codes each column with `np.unique`."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if len(set(self.columns)) != len(self.columns):
            raise DatasetError("duplicate column names")
        if not self.rows:
            raise DatasetError("dataset must contain at least one record")
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise DatasetError(f"row {i} has {len(row)} values, expected {width}")
            for v in row:
                if not isinstance(v, float):
                    raise DatasetError(f"row {i} holds a non-numeric value {v!r}")
                if not math.isfinite(v):
                    raise DatasetError(f"row {i} holds a non-finite value {v!r}")

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def table(self) -> Distribution:
        data = np.fromiter(chain.from_iterable(self.rows), float, len(self) * len(self.columns))
        data = data.reshape(len(self), -1).T
        coded = [np.unique(c, return_index=True, return_inverse=True) for c in data]
        values = [tuple(c[first].tolist()) for c, (_, first, _) in zip(data, coded)]
        return Distribution(self.columns, columns=(values, [code for *_, code in coded], np.ones(len(self))))

    @classmethod
    def from_csv(cls, path: str) -> "ReferenceDataset":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:  # csv's own errors (a field over the limit; NUL before 3.11) come first
                header = next(reader, None)
                records = list(reader)
            except csv.Error as err:
                raise DatasetError(f"line {reader.line_num}: {err}") from None
        if header is None:
            raise DatasetError("empty CSV file")
        rows = []
        for lineno, record in enumerate(records, start=2):
            if not record:
                continue
            try:
                rows.append(tuple(float(v) for v in record))
            except ValueError:
                raise DatasetError(f"line {lineno}: non-numeric value") from None
        return cls(tuple(h.strip() for h in header), tuple(rows))


# --- the stratum rows as tuples and the per-z functions' scan over them ------


@dataclass(frozen=True)
class ZRow:
    key: tuple[float, ...]
    probability: float
    ps: tuple[float, ...]
    gs: tuple[float, ...]


def table_rows(table: StratumTable) -> tuple[ZRow, ...]:
    """One ZRow per stratum of `table`, in its (ascending key) row order."""
    return tuple(map(ZRow, table.z.keys(), table.probability.tolist(),
                     map(tuple, table.ps.tolist()), map(tuple, table.gs.tolist())))


def reference_row(table: StratumTable, z) -> ZRow:
    """The first stratum whose key matches `z` within 1e-9, as supports match,
    found by a scan over every row's key."""
    if set(z) != set(table.z_variables):
        raise QueryError(f"z must assign exactly {table.z_variables}")
    for row in table_rows(table):
        if all(abs(a - z[v]) <= VALUE_TOL for a, v in zip(row.key, table.z_variables)):
            return row
    raise ZeroProbabilityError(f"z assignment {dict(z)} has zero probability")


def reference_per_z(name: str, model: Model, query: EffectQuery, z, partition=None):
    """variational.<name> (piv, spiv, apiv, piev, brute_force_piv or
    matrix_form_piev) as it read its stratum through `reference_row`, with no
    check that the value is finite."""
    table = strata(model, query.cause, query.outcome)
    row = reference_row(table, z)
    if partition is not None and partition.indices[-1] >= len(row.gs):
        raise QueryError(f"partition {partition.indices} exceeds the cause's support")
    if name in ("piev", "matrix_form_piev"):
        form = chain_value if name == "piev" else matrix_form_chain_value
        return form(row.gs, row.ps, partition.indices, query.degree, query.sign)
    if name == "brute_force_piv":
        value, chain = brute_force_total_variation(row.gs, row.ps, query.degree, query.sign)
    else:
        variant = {"piv": "pace", "spiv": "space", "apiv": "apace"}[name]
        [[(value, chain)]] = variations([row.gs], [row.ps], [query.degree], variant, query.sign)
    return value if name == "apiv" else (value, table.partition(chain))


# --- the row-at-a-time dataset readers (oracle of the stratification kernel) -


def reference_validate_against(dataset, model: Model) -> None:
    """Dataset.validate_against as a scan row by row, value by value."""
    supports = [model.support(name) for name in dataset.columns]
    for i, row in enumerate(dataset.rows):
        for name, support, v in zip(dataset.columns, supports, row):
            if v not in support:
                raise DatasetError(f"row {i}: value {v!r} outside the declared support of '{name}'")


def table_of_rows(z_vars, rows, indices, outcome: str) -> StratumTable:
    """A StratumTable of `outcome` from one ZRow per stratum, in ascending key
    order; each z value keeps its key's spelling (-0.0 or 0.0)."""
    spelt = [tuple(row.key[i] for row in rows) for i in range(len(z_vars))]
    z = Distribution(tuple(z_vars), columns=(spelt, [np.arange(len(rows))] * len(z_vars),
                                             np.array([row.probability for row in rows], dtype=float)))
    shape = (len(rows), len(indices))
    return StratumTable(z, np.array([row.ps for row in rows], dtype=float).reshape(shape),
                        np.array([row.gs for row in rows], dtype=float).reshape(shape), tuple(indices),
                        outcome)


def reference_estimate_conditionals(dataset, cause: str, outcome: str, z_vars):
    """estimate_conditionals from three accumulation dicts, record by record."""
    xi = dataset.column_index(cause)
    yi = dataset.column_index(outcome)
    zi = [dataset.column_index(z) for z in z_vars]
    if len(set(z_vars)) != len(z_vars) or {cause, outcome} & set(z_vars):
        raise QueryError("the conditioning set must name distinct variables "
                         "other than the cause and the outcome")
    n = len(dataset)
    z_count: dict = {}
    xz_count: dict = {}
    y_sum: dict = {}
    seen: set = set()
    for row in dataset.rows:
        z = tuple(row[i] for i in zi)
        x = row[xi]
        seen.add(x)
        z_count[z] = z_count.get(z, 0) + 1
        xz_count[(z, x)] = xz_count.get((z, x), 0) + 1
        y_sum[(z, x)] = y_sum.get((z, x), 0.0) + row[yi]
    xs = sorted(seen)
    rows = []
    for z in sorted(z_count):
        counts = [xz_count.get((z, x), 0) for x in xs]
        ps = tuple(c / z_count[z] for c in counts)
        gs = tuple(y_sum[(z, x)] / c if c else 0.0 for x, c in zip(xs, counts))
        rows.append(ZRow(z, z_count[z] / n, ps, gs))
    return table_of_rows(z_vars, rows, range(len(xs)), outcome)


def reference_covariate_weighted_effect(dataset, cause, outcome, z_vars, covariate, degree,
                                        variant="pace", sign="abs", c0=None) -> float:
    """covariate_weighted_effect over reference_estimate_conditionals and
    list columns."""
    query = EffectQuery(cause, outcome, degree, variant, sign)
    if covariate in z_vars or covariate in (cause, outcome):
        raise QueryError("covariate must be distinct from the query variables")

    def column(name):
        i = dataset.column_index(name)
        return [r[i] for r in dataset.rows]

    cvalues = sorted(set(column(covariate)))
    if c0 is None:
        c0 = cvalues[0]
    elif c0 not in cvalues:
        raise UnavailableStratumError(f"covariate stratum c0={c0!r} never observed")
    zc = reference_estimate_conditionals(dataset, cause, outcome, list(z_vars) + [covariate])
    z_table = reference_estimate_conditionals(dataset, cause, outcome, z_vars)
    rows = []
    for z_row, (_, group) in zip(table_rows(z_table), groupby(table_rows(zc), key=lambda r: r.key[:-1])):
        cells = [(r, r.probability / z_row.probability) for r in group]
        ws = tuple(reduce(add, (r.ps[i] * pc for r, pc in cells), 0.0) for i in z_table.indices)
        at_c0 = next((r for r, _ in cells if r.key[-1] == c0), None)
        for i, w in enumerate(ws):
            if w > 0.0 and (at_c0 is None or at_c0.ps[i] == 0.0):
                x = sorted(set(column(cause)))[i]
                raise UnavailableStratumError(
                    f"no records for cause value {x!r} in stratum {z_row.key}"
                )
        rows.append(ZRow(z_row.key, z_row.probability, ws, at_c0.gs))
    table = table_of_rows(z_table.z_variables, rows, z_table.indices, outcome)
    return table.aggregate([query.degree], query.variant, query.sign)[0][0]


def reference_ipwe(dataset, treatment: str, s: float, outcome: str, covariates) -> float:
    """ipwe from two accumulation dicts and a second pass over the records."""
    ti = dataset.column_index(treatment)
    yi = dataset.column_index(outcome)
    ci = [dataset.column_index(c) for c in covariates]
    if not any(row[ti] == s for row in dataset.rows):
        raise PositivityError(f"no record has {treatment} = {s!r}")
    stratum_n: dict = {}
    stratum_s: dict = {}
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


def reference_brute_force_total_variation(gs, ps, degree: float, sign: str):
    """brute_force_total_variation as one chain_value call per chain: every
    chain of 2 or more points, by size and then lexicographically, kept when
    `_better` than the winner so far."""
    l = len(gs)
    if l < 2:
        return 0.0, None
    if l > 20:
        raise QueryError(f"support too large for brute force ({l} values)")
    winner = None
    for size in range(2, l + 1):
        for chain in combinations(range(l), size):
            cand = (chain_value(gs, ps, chain, degree, sign), size, chain)
            if winner is None or _better(cand, winner):
                winner = cand
    return winner[0], winner[2]


# --- the per-stratum effect path (oracle of the columnar one) ----------------


def reference_tabulate(model: Model, cause: str, outcome: str | None, z_vars, support_subset=None):
    """_tabulate's rows as it built them one stratum at a time: a ZRow per
    stratum, each g by plain evaluation; returns (rows, indices)."""
    joint = build_joint(model)
    support = model.support(cause)
    if support_subset is None:
        indices = tuple(range(len(support)))
    else:
        indices = tuple(sorted(support.index_of(v) for v in support_subset))
        if len(set(indices)) != len(indices):
            raise QueryError("support subset contains duplicate values")
    xs = [support.values[i] for i in indices]
    first, pz, (pxz,) = stratify(joint, joint.codes[joint.column(cause)], len(support), z_vars)
    z_keys = joint.keys(first, z_vars)
    ps = (pxz[:, list(indices)] / pz[:, None]).tolist()
    if outcome is not None:
        mech, ys = model.mechanisms[outcome], model.support(outcome).values
        gs = []
        for z_key in z_keys:
            g = []
            for x in xs:
                assignment = {**dict(zip(z_vars, z_key)), cause: x}
                ((index, _),) = evaluate_slot(model.support(outcome), mech,
                                              tuple(assignment[p] for p in mech.parents))
                g.append(ys[index])
            gs.append(tuple(g))
    else:
        gs = [tuple(xs)] * len(first)
    values = ys if outcome is not None else support.values
    for z_key, g in zip(z_keys, gs) if not math.isfinite(values[-1] - values[0]) else ():
        if g and not math.isfinite(max(g) - min(g)):
            raise QueryError(f"'{outcome or cause}' values {min(g)!r} and {max(g)!r} differ "
                             f"by more than the largest float at z = {z_key}")
    rows = [ZRow(z_key, p, tuple(z_ps), g)
            for z_key, p, z_ps, g in zip(z_keys, pz.tolist(), ps, gs)]
    return tuple(rows), indices


def reference_breakdown(rows, indices, per_row) -> dict:
    """effect's per-stratum dict: {key: ZSlice(P(z), value, witness partition)}."""
    return {row.key: ZSlice(row.probability, v, None if chain is None else
                            Partition(tuple(indices[i] for i in chain)))
            for row, (v, chain) in zip(rows, per_row)}


def reference_report_json(report) -> dict:
    breakdown = []
    for key in sorted(report.breakdown):
        z = report.breakdown[key]
        breakdown.append(
            {
                "z": {name: value for name, value in zip(report.z_variables, key)},
                "probability": z.probability,
                "value": z.value,
                "partition": list(z.partition.indices) if z.partition else None,
            }
        )
    return {
        "query": {"cause": report.query.cause, "outcome": report.query.outcome},
        "degree": report.query.degree,
        "variant": report.query.variant,
        "sign": report.query.sign,
        "value": report.value,
        "breakdown": breakdown,
    }


def reference_print_report(report, fmt: str):
    """The report printer over a dict breakdown, key by sorted key."""
    def _fmt(value):
        return f"{value:.12g}"

    if fmt == "json":
        print(json.dumps(reference_report_json(report), indent=2, sort_keys=True))
        return
    q = report.query
    print(f"{q.variant.upper()}_{_fmt(q.degree)}({q.cause} -> {q.outcome}) "
          f"[sign={q.sign}] = {_fmt(report.value)}")
    if report.z_variables:
        header = ", ".join(report.z_variables)
        print(f"  per-z breakdown over ({header}):")
        for key in sorted(report.breakdown):
            z = report.breakdown[key]
            assign = ", ".join(_fmt(v) for v in key)
            witness = ""
            if z.partition is not None:
                witness = f"  partition={list(z.partition.indices)}"
            print(f"    z=({assign})  P(z)={_fmt(z.probability)}  value={_fmt(z.value)}{witness}")


# --- random expressions paired with an independent Python oracle ------------


def random_paired_expr(rng: np.random.Generator, names: list[str], depth: int = 0):
    """Build (ast, python_fn) pairs bottom-up; the closure never touches the
    package evaluator, so agreement is a real two-implementation check."""

    def num():
        v = round(float(rng.uniform(-4, 4)), 3)
        return ex.Num(v), (lambda env, v=v: v)

    def name():
        n = names[int(rng.integers(0, len(names)))]
        return ex.Name(n), (lambda env, n=n: env[n])

    def boolean(d):
        roll = rng.random()
        if d >= 3 or roll < 0.45:
            op = str(rng.choice(["==", "!=", "<", "<=", ">", ">="]))
            a, fa = numeric(d + 1)
            b, fb = numeric(d + 1)
            table = {
                "==": lambda x, y: float(x == y),
                "!=": lambda x, y: float(x != y),
                "<": lambda x, y: float(x < y),
                "<=": lambda x, y: float(x <= y),
                ">": lambda x, y: float(x > y),
                ">=": lambda x, y: float(x >= y),
            }
            fn = table[op]
            return ex.Binary(op, a, b), (lambda env, fa=fa, fb=fb, fn=fn: fn(fa(env), fb(env)))
        if roll < 0.6:
            a, fa = boolean(d + 1)
            return ex.Unary("not", a), (lambda env, fa=fa: 1.0 - fa(env))
        if roll < 0.8:
            op = str(rng.choice(["and", "or"]))
            a, fa = boolean(d + 1)
            b, fb = boolean(d + 1)
            if op == "and":
                return ex.Binary("and", a, b), (
                    lambda env, fa=fa, fb=fb: float(bool(fa(env)) and bool(fb(env)))
                )
            return ex.Binary("or", a, b), (
                lambda env, fa=fa, fb=fb: float(bool(fa(env)) or bool(fb(env)))
            )
        a, fa = boolean(d + 1)
        b, fb = boolean(d + 1)
        return ex.Call("xor", (a, b)), (
            lambda env, fa=fa, fb=fb: float(bool(fa(env)) != bool(fb(env)))
        )

    def numeric(d):
        roll = rng.random()
        if d >= 3 or roll < 0.3:
            return num() if rng.random() < 0.5 else name()
        if roll < 0.65:
            op = str(rng.choice(["+", "-", "*"]))
            a, fa = numeric(d + 1)
            b, fb = numeric(d + 1)
            table = {
                "+": lambda x, y: x + y,
                "-": lambda x, y: x - y,
                "*": lambda x, y: x * y,
            }
            fn = table[op]
            return ex.Binary(op, a, b), (lambda env, fa=fa, fb=fb, fn=fn: fn(fa(env), fb(env)))
        if roll < 0.75:
            a, fa = numeric(d + 1)
            return ex.Unary("-", a) if not isinstance(a, ex.Num) else ex.Num(-a.value), (
                lambda env, fa=fa: -fa(env)
            )
        if roll < 0.85:
            return boolean(d)
        c, fc = boolean(d + 1)
        a, fa = numeric(d + 1)
        b, fb = numeric(d + 1)
        return ex.IfElse(c, a, b), (
            lambda env, fc=fc, fa=fa, fb=fb: fa(env) if bool(fc(env)) else fb(env)
        )

    return numeric(depth)


# --- the character-at-a-time `.sem` scanner (oracle for dsl._tokenize) ----------

REFERENCE_KEYWORDS = {
    "param", "var", "root", "cpt", "def", "fun", "in",
    "if", "then", "else", "and", "or", "not", "xor",
}
REFERENCE_SYMBOLS = ("==", "!=", "<=", ">=", "{", "}", "[", "]", "(", ")",
                     ":", ",", "|", "=", "+", "-", "*", "/", "<", ">")


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) of each token, read one character at a
    time with `str.isdigit`, `isalpha` and `isalnum`: the scanner the
    compiled pattern replaced."""
    tokens: list[tuple[str, str, int, int]] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lit = text[start:i]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"bad number literal '{lit}'", line, col)
            tokens.append(("number", lit, line, col))
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = word if word in REFERENCE_KEYWORDS else "ident"
            tokens.append((kind, word, line, col))
            col += i - start
            continue
        for sym in REFERENCE_SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


# --- sweeps and bindings as evaluated one binding at a time -----------------------


def reference_sweep(args) -> int:
    """`vce sweep` as it evaluated each run of grid points with equal
    bindings in turn: one bind, one stratum table and one aggregate over
    the run's degrees (the oracle for cli.cmd_sweep's stacked evaluation)."""
    from vce import cli

    specs = []
    for raw in args.axis:
        name, sep, rng = raw.partition("=")
        if not sep:
            raise cli.VceError(f"expected AXIS=START:STOP:STEP, got '{raw}'")
        parts = rng.split(":")
        if len(parts) != 3:
            raise cli.VceError(f"expected START:STOP:STEP in '{raw}'")
        start, stop, step = (cli._fraction(p) for p in parts)
        name = name.strip()
        if any(name == spec[0] for spec in specs):
            raise cli.VceError(f"duplicate axis '{name}'")
        specs.append((name, start, stop, step, cli._axis_size(start, stop, step)))
    if math.prod(spec[-1] for spec in specs) > cli.MAX_GRID_POINTS:
        raise cli.VceError(f"sweep grid exceeds {cli.MAX_GRID_POINTS} points")
    axes = [(name, cli._axis_values(*bounds)) for name, *bounds in specs]
    if not axes:
        raise cli.VceError("sweep needs at least one --axis")
    base = cli._read_model(args.model)
    fixed = cli._parse_assignments(",".join(args.bind))
    param_names = {p.name for p in base.parameters}
    for name, _ in axes:
        if name != "d" and name not in param_names:
            raise cli.VceError(f"axis '{name}' is neither a parameter nor the degree 'd'")

    def point(combo):
        named = dict(zip([name for name, _ in axes], combo))
        degree = named.pop("d", args.degree)
        return {**fixed, **named}, degree

    rows, variant = [], (args.variant, args.sign)
    grid = product(*(values for _, values in axes))
    for bindings, combos in groupby(grid, key=lambda combo: point(combo)[0]):
        model = bind(base, bindings) if (base.parameters or bindings) else base
        combos, table, degrees = list(combos), None, []
        for combo in combos:
            query = EffectQuery(args.cause, args.outcome, point(combo)[1], *variant)
            if table is None:
                table = strata(model, query.cause, query.outcome)
            degrees.append(query.degree)
        values = table.aggregate(degrees, *variant)
        rows += [combo + (value,) for combo, (value, _) in zip(combos, values)]
    writer = csv.writer(sys.stdout)
    writer.writerow([name for name, _ in axes] + ["value"])
    for row in rows:
        writer.writerow([cli._fmt(v) for v in row])
    return cli.EXIT_OK


def reference_bind(model: Model, bindings) -> Model:
    """bind as it validated the whole bound model, every mechanism afresh."""
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
            raise BindingError(f"parameter {pname}={value} outside [{p.lower}, {p.upper}]")

    def entry_value(entry) -> float:
        if isinstance(entry, (int, float)):
            return float(entry)
        try:
            return ex.evaluate(entry, bindings)
        except EvalError as err:
            raise BindingError(str(err)) from None

    mechanisms = {}
    for name, mech in model.mechanisms.items():
        if isinstance(mech, Root) and not all(isinstance(e, (int, float)) for e in mech.table.values()):
            mechanisms[name] = Root({v: entry_value(e) for v, e in mech.table.items()})
        elif isinstance(mech, CPT) and not all(
                isinstance(e, (int, float)) for row in mech.rows.values() for e in row.values()):
            mechanisms[name] = CPT(mech.parents, {key: {v: entry_value(e) for v, e in row.items()}
                                                  for key, row in mech.rows.items()})
        elif (isinstance(mech, Deterministic) and mech.body is not None
              and mech.names & set(declared)):
            mechanisms[name] = Deterministic(mech.parents, body=ex.substitute(mech.body, bindings))
        else:
            mechanisms[name] = mech
    bound = Model(model.variables, mechanisms, ())
    diags = validate(bound)
    if diags:
        raise BindingError("; ".join(diags))
    return bound
