"""Shared random generators for the property suites.

Generated models are always valid: deterministic bodies are built from
templates that stay total over the declared supports, and parameterized
probability rows sum to one for every admissible parameter value.
"""

from __future__ import annotations

import math
from itertools import product
from pathlib import Path

import numpy as np

from vce import expr as ex
from vce.engine import (
    Distribution,
    build_joint,
    expectation,
    intervene,
    local_distribution,
    log_scale,
    marginal,
)
from vce.errors import AbsoluteContinuityError, EngineError, QueryError, ZeroProbabilityError
from vce.model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    Parameter,
    Root,
    VALUE_TOL,
    Variable,
    snap_to_support,
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
        if any(abs(key[c] - v) > VALUE_TOL for c, v in gcols):
            continue
        mass += p
        sub = tuple(key[c] for c in cols)
        table[sub] = table.get(sub, 0.0) + p
    if mass <= 0.0:
        raise ZeroProbabilityError(f"conditioning event {dict(given)} has zero probability")
    return Distribution(tuple(variables), {k: v / mass for k, v in table.items()})


def reference_joint_at(model: Model, keys) -> Distribution:
    """The product of the node conditionals at each full assignment, every
    slot read by value and every factor taken afresh (oracle for joint_at)."""
    column = {v.name: i for i, v in enumerate(model.variables)}
    nodes = [(model.outcome_table(n), model.mechanisms[n], column[n],
              [column[p] for p in model.mechanisms[n].parents]) for n in model.topological_order()]
    masses = {}
    for key in keys:
        mass = 1.0
        for table, mech, col, parents in nodes:
            pairs = dict(table.read(mech, tuple(key[c] for c in parents)))
            mass *= pairs.get(table.supports[0].values.index(key[col]), 0.0)
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


def dict_joint_at(model: Model, keys) -> Distribution:
    """joint_at with each key reusing, as a prefix, the factors of the nodes
    it shares with the key before."""
    column = {v.name: i for i, v in enumerate(model.variables)}
    values = [v.support.values for v in model.variables]
    nodes = [(model.outcome_table(n), model.mechanisms[n], column[n],
              [column[p] for p in model.mechanisms[n].parents]) for n in model.topological_order()]
    masses = {}
    prev, partial = (), [1.0]  # partial[i]: the product of the first i factors at `prev`
    for key in keys:
        i = 0
        while i < len(partial) - 1 and key[nodes[i][2]] == prev[nodes[i][2]]:
            i += 1
        del partial[i + 1:]
        for table, mech, col, parents in nodes[i:]:
            if partial[-1] == 0.0:
                break
            pos = 0
            for c in parents:
                pos = pos * len(values[c]) + values[c].index(key[c])
            outcomes = table.slots[pos] or table.read(mech, tuple(key[c] for c in parents))
            partial.append(partial[-1] * dict(outcomes).get(values[col].index(key[col]), 0.0))
        masses[key] = partial[-1]
        prev = key
    return Distribution(tuple(column), masses)


# --- reference enumeration of latent configurations -------------------------


def reference_configurations(model: Model):
    """Positive-prior assignments of the stochastic nodes by their own
    recursion in topological order (oracle for counterfactual.configurations)."""
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


# --- reference post-cutting strength ----------------------------------------


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
