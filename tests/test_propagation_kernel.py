"""Counterfactuals and ANDE as column gathers over the joint, against the
scalar walk they replaced (tests/helpers.py): same keys, order, float bits,
error types, error texts and error precedence."""

import numpy as np
import pytest

from helpers import (
    evaluate_slot,
    random_dsl_model,
    reference_abduct,
    reference_ande,
    reference_counterfactual_query,
)
from vce.baselines import ande
from vce.counterfactual import Evidence, abduct, counterfactual_query
from vce.engine import Distribution
from vce.errors import ModelError
from vce.model import Deterministic, FiniteSupport, Model, Root, Variable, bind

CASES = 320


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return "error", type(err), str(err)
    if isinstance(result, Distribution):
        bits = [(tuple(v.hex() for v in key), p.hex()) for key, p in result.entries.items()]
        return "table", result.variables, bits
    return "value", type(result), float(result).hex()


def _assignment(rng, model, most):
    """Up to `most` random variables, each at a random support value (now and
    then one off the support)."""
    size = int(rng.integers(0, min(most, len(model.variables)) + 1))
    out = {}
    for i in rng.choice(len(model.variables), size=size, replace=False):
        var = model.variables[int(i)]
        out[var.name] = 99.5 if rng.random() < 0.03 else float(rng.choice(var.support.values))
    return out


def _case(rng):
    model = random_dsl_model(rng)
    model = bind(model, {p.name: float(rng.uniform()) for p in model.parameters})
    observed, context = _assignment(rng, model, 3), _assignment(rng, model, 2)
    if context and rng.random() < 0.2:  # evidence its context contradicts
        name, value = next(iter(context.items()))
        others = [v for v in model.support(name).values if v != value]
        observed[name] = float(rng.choice(others))
    do = _assignment(rng, model, 2)
    target = model.variables[int(rng.integers(0, len(model.variables)))].name
    return model, Evidence(observed, context), do, target


def test_counterfactual_query_and_abduct_match_the_scalar_walk():
    rng = np.random.default_rng(1303)
    kinds = {"table": 0, "error": 0}
    zero = 0
    for _ in range(CASES):
        model, evidence, do, target = _case(rng)
        got = _outcome(counterfactual_query, model, evidence, do, target)
        assert got == _outcome(reference_counterfactual_query, model, evidence, do, target)
        assert _outcome(abduct, model, evidence) == _outcome(reference_abduct, model, evidence)
        kinds[got[0]] += 1
        zero += got[0] == "error" and "zero probability" in got[2]
    assert kinds["table"] >= 100 and kinds["error"] >= 50 and zero >= 30, (kinds, zero)


def test_ande_matches_the_scalar_walk():
    rng = np.random.default_rng(1313)
    kinds = {"value": 0, "error": 0}
    for _ in range(CASES):
        model = random_dsl_model(rng)
        model = bind(model, {p.name: float(rng.uniform()) for p in model.parameters})
        names = [v.name for v in model.variables]
        cause = names[int(rng.integers(0, len(names)))]
        deterministic = [n for n in names if isinstance(model.mechanisms[n], Deterministic)]
        pool = deterministic if deterministic and rng.random() < 0.8 else names
        outcome = pool[int(rng.integers(0, len(pool)))]
        others = [n for n in names if n not in (cause, outcome)]
        mediators = [n for n in others if rng.random() < 0.5]
        if rng.random() < 0.05:
            mediators.append(cause)
        support = model.support(cause).values
        x0, x1 = (float(rng.choice(support)) for _ in range(2))
        args = (model, cause, x0, x1, outcome, mediators)
        got = _outcome(ande, *args)
        assert got == _outcome(reference_ande, *args)
        kinds[got[0]] += 1
    assert kinds["value"] >= 80 and kinds["error"] >= 50, kinds


# --- error precedence on unvalidated models ------------------------------------


def _binary(name):
    return Variable(name, FiniteSupport((0.0, 1.0)))


def _precedence_model() -> Model:
    """U and W fair coins (rows (U, W) = (0,0), (0,2), (1,0), (1,2)); X is
    observed only at 0.  A lacks the row (1, 1) and the later B lacks (1, 2):
    under do(X=1) a walk row by row meets B's failure first (row 1), but A's
    table, filled whole with the joint, fails first."""
    two = Variable("W", FiniteSupport((0.0, 2.0)))
    variables = (_binary("U"), two, _binary("X"), _binary("A"), _binary("B"))
    mechanisms = {
        "U": Root({0.0: 0.5, 1.0: 0.5}),
        "W": Root({0.0: 0.5, 2.0: 0.5}),
        "X": Root({0.0: 1.0}),
        "A": Deterministic(("X", "U"), table={(0.0, 0.0): 0.0, (0.0, 1.0): 1.0, (1.0, 0.0): 1.0}),
        "B": Deterministic(("X", "W"), table={(0.0, 0.0): 0.0, (0.0, 2.0): 1.0, (1.0, 0.0): 1.0}),
    }
    return Model(variables, mechanisms)


@pytest.mark.parametrize("query", [
    lambda m, cf, ab: cf(m, Evidence({}), {"X": 1.0}, "B"),
    lambda m, cf, ab: ab(m, Evidence({"U": 0.0}, context={"X": 1.0})),
    lambda m, cf, ab: cf(m, Evidence({}, context={"X": 1.0}), {}, "A"),
    # Evidence W=0 keeps rows 0 and 2, which a walk finds failing on A only.
    lambda m, cf, ab: cf(m, Evidence({"W": 0.0}), {"X": 1.0}, "B"),
])
def test_first_failing_row_decides_the_error(query):
    """The first table in topological order with a failing slot raises plain
    evaluation's error at its first failing slot (a missing table row),
    whatever the rows, as the scalar walk does."""
    model = _precedence_model()
    with pytest.raises(ModelError) as plain:
        evaluate_slot(model.support("A"), model.mechanisms["A"], (1.0, 1.0))
    got = _outcome(query, model, counterfactual_query, abduct)
    assert got[1:] == (ModelError, str(plain.value)) == (
        ModelError, "deterministic table has no row for (1.0, 1.0)")
    assert got == _outcome(query, model, reference_counterfactual_query, reference_abduct)


@pytest.mark.parametrize("x1, row", [(2.0, "(1.0, 1.0)"), (0.0, "(1.0, 1.0)")])
def test_ande_first_failing_row_across_worlds(x1, row):
    """X observed only at 0.  M lacks the row (1, 1) and Y the rows (2, m, 1):
    a walk row by row meets Y's failure first in the x1 = 2 world (row 1), M's
    in the x1 = 0 world.  Either way M's table, filled with the joint, raises."""
    three = Variable("X", FiniteSupport((0.0, 1.0, 2.0)))
    variables = (_binary("U"), _binary("W"), three, _binary("M"), _binary("Y"))
    m_rows = {(0.0, 0.0): 0.0, (0.0, 1.0): 1.0, (1.0, 0.0): 1.0, (2.0, 0.0): 0.0, (2.0, 1.0): 1.0}
    y_rows = {(x, m, w): 0.0 for x in (0.0, 1.0, 2.0) for m in (0.0, 1.0) for w in (0.0, 1.0)}
    del y_rows[(2.0, 1.0, 1.0)], y_rows[(2.0, 0.0, 1.0)]
    mechanisms = {
        "U": Root({0.0: 0.5, 1.0: 0.5}),
        "W": Root({0.0: 0.5, 1.0: 0.5}),
        "X": Root({0.0: 1.0}),
        "M": Deterministic(("X", "U"), table=m_rows),
        "Y": Deterministic(("X", "M", "W"), table=y_rows),
    }
    args = ("X", 1.0, x1, "Y", ["M"])
    got = _outcome(ande, Model(variables, mechanisms), *args)
    assert got == _outcome(reference_ande, Model(variables, mechanisms), *args)
    assert got[1:] == (ModelError, f"deterministic table has no row for {row}")
