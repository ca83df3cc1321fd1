"""`validate` fills each `def` table over the whole parent grid with
expr.evaluate_grid; the scalar evaluator stays the oracle.  Every filled slot
is the one a scalar fill gives, and failing slots give the scalar fill's
diagnostics, in its order, and the first one's error when the table is read.
The scalar evaluator runs only at the failing slots, and a slot it accepts
there is an error.
"""

import math
import re
from itertools import product

import numpy as np
import pytest

from helpers import evaluate_slot, random_dsl_model, random_probs, reference_joint, table_rows
from vce import expr as ex
from vce import variational
from vce.dsl import parse_model
from vce.engine import build_joint, deterministic_value
from vce.errors import BindingError, EvalError, ModelError, ParseError
from vce.model import (
    Deterministic,
    FiniteSupport,
    Model,
    Root,
    Variable,
    _snap_grid,
    bind,
    validate,
)


def _scalar_fill(model, name):
    """`name`'s table filled one parent tuple at a time by plain evaluation:
    each slot's support index (None where it fails), and the diagnostics of
    the failing tuples, as validate wrote them before the grid."""
    mech, support = model.mechanisms[name], model.support(name)
    slots, diags = [], []
    for assignment in product(*(model.support(p).values for p in mech.parents)):
        try:
            slots.append(evaluate_slot(support, mech, assignment)[0][0])
        except EvalError as err:
            slots.append(None)
            diags.append(f"{name}: body fails at {assignment}: {err}")
        except ModelError:
            slots.append(None)
            value = mech.value(assignment)
            diags.append(f"{name}: body yields {value!r} at {assignment}, outside support")
    return slots, diags


def _defs(model):
    return [n for n, m in model.mechanisms.items()
            if isinstance(m, Deterministic) and m.body is not None]


def test_grid_fill_matches_scalar_fill_on_random_models():
    rng = np.random.default_rng(61)
    compared = 0
    for _ in range(300):
        model = random_dsl_model(rng)
        if model.parameters:
            model = bind(model, {"p": float(rng.uniform())})
        else:
            assert validate(model) == []
        for name in _defs(model):
            slots, diags = _scalar_fill(model, name)
            assert diags == []
            assert model.outcome_table(name).array.tolist() == slots, name
            compared += 1
    assert compared >= 100


# --- bodies that fail -------------------------------------------------------

_LITERALS = (0.0, 1.0, 2.0, -1.0, 0.5, -0.0, 1e308, 3.0 + 4e-10)
_BINARY = tuple(ex.BINARY_PREC)


def _random_expr(rng, names, depth=0):
    """Any expression of the grammar over `names`; most fail somewhere."""
    if depth >= 4 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ex.Name(str(rng.choice(names)))
        return ex.Num(float(rng.choice(_LITERALS)))
    kind = str(rng.choice(["binary"] * 4 + ["-", "not", "xor", "if"]))
    sub = lambda: _random_expr(rng, names, depth + 1)  # noqa: E731
    if kind == "binary":
        return ex.Binary(str(rng.choice(_BINARY)), sub(), sub())
    if kind in ("-", "not"):
        return ex.Unary(kind, sub())
    if kind == "xor":
        return ex.Call("xor", (sub(), sub()))
    return ex.IfElse(sub(), sub(), sub())


def _failing_model(rng):
    """Roots with some zero-probability values (unreachable parent tuples)
    feeding two `def` nodes with random bodies."""
    supports = [(0.0, 1.0), (-1.0, 0.0, 1.0, 2.0), (0.0, 1.0, 3.0)]
    variables, mechanisms = [], {}
    for i in range(2):
        values = supports[int(rng.integers(0, len(supports)))]
        name = f"R{i}"
        variables.append(Variable(name, FiniteSupport(values)))
        mechanisms[name] = Root(dict(zip(values, random_probs(rng, len(values), allow_zero=True))))
    for i in range(2):
        names = [v.name for v in variables]
        body = _random_expr(rng, names)
        parents = tuple(n for n in names if n in ex.free_names(body))
        name = f"D{i}"
        variables.append(Variable(name, FiniteSupport((-1.0, 0.0, 1.0, 2.0, 3.0))))
        mechanisms[name] = Deterministic(parents, body=body)
    return Model(tuple(variables), mechanisms)


def test_failing_bodies_give_the_scalar_diagnostics_and_errors():
    rng = np.random.default_rng(62)
    kinds = {"fails": 0, "clean": 0, "reached": 0, "unreached": 0}
    for _ in range(400):
        model = _failing_model(rng)
        expected = []
        oracle = {}
        for name in _defs(model):
            oracle[name], diags = _scalar_fill(model, name)
            expected += diags
        assert validate(model) == expected  # same text, same order
        kinds["fails" if expected else "clean"] += 1
        first = None  # the error of the first failing table's first failing slot
        for name in [n for n in model.topological_order() if n in oracle]:
            mech = model.mechanisms[name]
            if None not in oracle[name]:
                assert model.outcome_table(name).array.tolist() == oracle[name], name
                continue
            # A table with a failing slot is not kept: each reader raises
            # plain evaluation's error at its first failing slot.
            assignment = list(product(*(model.support(p).values for p in mech.parents)))[
                oracle[name].index(None)]
            with pytest.raises((EvalError, ModelError)) as want:
                evaluate_slot(model.support(name), mech, assignment)
            first = first or want.value
            for read in (lambda: model.outcome_table(name),
                         lambda: deterministic_value(model, name, dict(zip(mech.parents, assignment)))):
                with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
                    read()
        if expected:
            # Plain recursion reaches a failing tuple or it does not; the
            # enumeration fills every table whole and raises the first failure.
            try:
                reference_joint(model)
            except (EvalError, ModelError):
                kinds["reached"] += 1
            else:
                kinds["unreached"] += 1
            with pytest.raises(type(first), match=f"^{re.escape(str(first))}$"):
                build_joint(model)
    assert min(kinds.values()) >= 10, kinds


def test_validate_evaluates_only_failing_slots(monkeypatch):
    calls = []
    real = Deterministic.value
    monkeypatch.setattr(Deterministic, "value", lambda m, pv: calls.append(pv) or real(m, pv))
    source = ("var X in {0, 1, 2, 3}\nvar Y in {0, 1, 2}\n"
              "root X {0: 0.25, 1: 0.25, 2: 0.25, 3: 0.25}\n"
              "def Y = if X < 2 then X else xor(X, 1)\n")
    with pytest.raises(ParseError) as err:
        parse_model(source)
    assert sorted(set(calls)) == [(2.0,), (3.0,)]  # the two failing tuples only
    assert str(err.value).endswith("Y: body fails at (2.0,): xor expects 0 or 1, got 2.0; "
                                   "Y: body fails at (3.0,): xor expects 0 or 1, got 3.0")


@pytest.mark.parametrize("body, message", [
    ("if p <= 0.5 or p then X else 0", r"Y: body fails at \(0.0,\): 'or' expects 0 or 1, got 0.6"),
    ("if p > 0.5 then X + 3 else X", r"Y: body yields 3.0 at \(0.0,\), outside support"),
])
def test_a_failing_grid_runs_the_scalar_evaluator_on_its_first_failing_point_only(monkeypatch, body, message):
    # The body fails at every slot for 0.5 < p < 1: the array pass marks the
    # slots of every failing point, and one `value` call explains each slot of
    # the first (p = 0.6), where bind binds it alone.
    model = parse_model("param p in [0, 1]\nvar X in {0, 1, 2}\nvar Y in {0, 1, 2}\n"
                        f"root X {{0: 0.25, 1: 0.25, 2: 0.5}}\ndef Y = {body}\n")
    calls = []
    real = Deterministic.value
    monkeypatch.setattr(Deterministic, "value", lambda m, pv: calls.append(pv) or real(m, pv))
    with pytest.raises(BindingError, match=f"^{message}"):
        variational.effects(model, {"p": np.linspace(0.0, 1.0, 11)}, "X", "Y", [1.0])
    assert calls == [(0.0,), (1.0,), (2.0,)]


def test_a_slot_the_array_pass_fails_and_the_scalar_evaluator_accepts_is_an_error(monkeypatch):
    real = ex.evaluate_grid

    def flag_slot_one(body, columns):
        values, failed = real(body, columns)
        failed = np.broadcast_to(failed, np.shape(values)).copy()
        failed[1] = True
        return values, failed

    monkeypatch.setattr(ex, "evaluate_grid", flag_slot_one)
    x = Variable("X", FiniteSupport((0.0, 1.0, 2.0)))
    model = Model((x, Variable("Y", x.support)), {"X": Root({0.0: 0.5, 1.0: 0.25, 2.0: 0.25}),
                                                   "Y": Deterministic(("X",), body=ex.Name("X"))})
    message = r"^Y: the array pass fails at \(1.0,\), the scalar evaluator does not$"
    for check in (lambda: model.outcome_table("Y"), lambda: validate(model)):
        with pytest.raises(ModelError, match=message):
            check()
    assert "_outcome_table" not in model.mechanisms["Y"].__dict__


def test_overflow_and_off_support_values_fail_as_scalar():
    x = Variable("X", FiniteSupport((0.0, 1.0, 2.0)))
    y = Variable("Y", FiniteSupport((0.0, 1.0)))
    bodies = [
        ex.Binary("*", ex.Num(1e308), ex.Binary("*", ex.Name("X"), ex.Num(10.0))),  # inf
        ex.Binary("-", ex.Binary("*", ex.Num(1e308), ex.Num(10.0)),
                  ex.Binary("*", ex.Num(1e308), ex.Num(10.0))),  # nan everywhere
        ex.Binary("*", ex.Name("X"), ex.Num(0.5)),  # 0.5 off the support at X = 1
        ex.Binary("+", ex.Name("X"), ex.Num(-4e-10)),  # snaps at 0 and 1, off at 2
    ]
    for body in bodies:
        model = Model((x, y), {"X": Root({0.0: 0.5, 1.0: 0.5, 2.0: 0.0}),
                               "Y": Deterministic(("X",), body=body)})
        _, expected = _scalar_fill(model, "Y")
        assert expected
        assert validate(model) == expected


def test_snap_grid_is_index_of():
    rng = np.random.default_rng(63)
    supports = [(0.0, 1.0, 2.0), (-3.0, 0.5, 7.0), (0.0,), (0.0, 1e-10, 2e-10, 3e-10, 1.0),
                (1.0, 1.0 + 1.5e-9, 1.0 + 3e-9)]
    for values in supports:
        support = FiniteSupport(values)
        probes = [v + d for v in values for d in (0.0, 1e-9, -1e-9, 9e-10, -9e-10, 2e-9, 1e-12)]
        probes += [float(v) for v in rng.uniform(-4.0, 8.0, size=50)]
        probes += [math.nan, math.inf, -math.inf, -0.0]
        index, off = _snap_grid(support, np.array(probes))
        for v, i, missing in zip(probes, index.tolist(), off.tolist()):
            if v in support:
                assert not missing and i == support.index_of(v), (values, v)
            else:
                assert missing, (values, v)


# --- the operator set -------------------------------------------------------


def _agrees_with_scalar(expr, columns):
    values, failed = ex.evaluate_grid(expr, columns)
    n = len(next(iter(columns.values())))
    values, failed = np.broadcast_to(values, (n,)), np.broadcast_to(failed, (n,))
    for j in range(n):
        env = {k: float(c[j]) for k, c in columns.items()}
        try:
            want = ex.evaluate(expr, env)
        except EvalError:
            assert failed[j], (expr, env)
        else:
            assert not failed[j], (expr, env)
            assert float(values[j]).hex() == float(want).hex(), (expr, env)


_GRID = list(product((0.0, 1.0, -0.0, 0.5, 2.0, -1.0, 1e308, math.inf, math.nan), repeat=2))
_COLUMNS = {"a": np.array([a for a, _ in _GRID]), "b": np.array([b for _, b in _GRID])}


def test_evaluate_grid_covers_exactly_the_grammars_operators():
    a, b = ex.Name("a"), ex.Name("b")
    # Every binary operator of the grammar, and nothing else, evaluates.
    assert set(ex._GRID_BINARY) | {"and", "or"} == set(ex.BINARY_PREC)
    for op in ex.BINARY_PREC:
        _agrees_with_scalar(ex.Binary(op, a, b), _COLUMNS)
        _agrees_with_scalar(ex.Binary(op, ex.Binary(op, a, b), ex.Num(1.0)), _COLUMNS)
    for op in ("/", "**", "%"):
        assert ex.evaluate_grid(ex.Binary(op, a, b), _COLUMNS)[1].all()
    # The unary and call forms, and their unknown relatives.
    for tree in (ex.Unary("-", a), ex.Unary("not", a), ex.Call("xor", (a, b)),
                 ex.IfElse(a, b, ex.Num(2.0)), ex.IfElse(a, ex.Name("c"), b),
                 ex.Call("xor", (a,)), ex.Call("max", (a, b)), ex.Name("c"),
                 ex.Binary("and", a, ex.Name("c")), ex.Binary("or", a, ex.Name("c")),
                 ex.Num(3.0)):
        _agrees_with_scalar(tree, _COLUMNS)
    assert ex.evaluate_grid(ex.Call("max", (a, b)), _COLUMNS)[1].all()


def test_strata_gathers_filled_slots_without_g_in(monkeypatch):
    calls = []
    real = variational.g_in
    monkeypatch.setattr(variational, "g_in", lambda *args: calls.append(args) or real(*args))
    model = parse_model("var X in {0, 1, 2}\nvar Z in {0, 1}\nvar Y in {0, 1, 2, 3}\n"
                        "root X {0: 0.4, 1: 0.6, 2: 0}\nroot Z {0: 0.5, 1: 0.5}\n"
                        "def Y = X + Z\n")
    table = variational.strata(model, "X", "Y")
    assert calls == []
    assert [row.gs for row in table_rows(table)] == [(0.0, 1.0, 2.0), (1.0, 2.0, 3.0)]
    # An unvalidated model's table is filled whole too, the X = 2 slots that
    # the joint never reaches included.
    fresh = Model(model.variables, {**model.mechanisms,
                                    "Y": Deterministic(("Z", "X"), body=model.mechanisms["Y"].body)})
    assert table_rows(variational.strata(fresh, "X", "Y")) == table_rows(table)
    assert fresh.outcome_table("Y").array.tolist() == _scalar_fill(fresh, "Y")[0] == [0, 1, 2, 1, 2, 3]
    assert calls == []
