import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import load_model_text, random_dsl_model, random_paired_expr
from vce import expr as ex
from vce.dsl import MAX_NESTING, parse_model, serialize_model
from vce.engine import build_joint, conditional, expectation
from vce.errors import ModelError, ParseError
from vce.model import Deterministic, FiniteSupport, Model, Root, Variable, bind


def test_parse_bsc_structure(bsc):
    assert [v.name for v in bsc.variables] == ["X", "Z", "Y"]
    assert isinstance(bsc.mechanisms["X"], Root)
    y = bsc.mechanisms["Y"]
    assert isinstance(y, Deterministic)
    assert y.parents == ("X", "Z")
    assert y.body == ex.Call("xor", (ex.Name("X"), ex.Name("Z")))


def test_parse_sprinkler_table_value(sprinkler):
    joint = build_joint(sprinkler)
    dist = conditional(joint, ["W"], {"S": 0.0, "R": 0.0})
    assert dist.probability((1.0,)) == pytest.approx(0.01, abs=1e-12)


def test_rational_literals():
    m = parse_model("var X in {0, 1}\nroot X {0: 29/70, 1: 41/70}\n")
    assert m.mechanisms["X"].table[1.0] == pytest.approx(41 / 70, abs=0)


def test_parse_error_empty_input():
    with pytest.raises(ParseError, match="no variables declared"):
        parse_model("")
    with pytest.raises(ParseError, match="no variables declared"):
        parse_model("# only a comment\n")


def test_parse_error_locations():
    with pytest.raises(ParseError) as err:
        parse_model("var X in {0, 1}\nroot X {0: 0.5, 1: 0.5}\nvar X in {0, 1}\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_model("var X in {0, 1}\ndef X = Q\n")
    assert "unknown identifier 'Q'" in str(err.value)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_model("var X in {0, 1} $\n")


def test_parse_error_cycle():
    text = "var A in {0, 1}\nvar B in {0, 1}\ndef A = B\ndef B = A\n"
    with pytest.raises(ParseError, match="cycle") as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == (1, 1)  # no one statement is at fault


@pytest.mark.parametrize("text, where, message", [
    # A def body failing on line 6 is reported at its statement.
    ("# comment\nvar X in {0, 1}\nvar Y in {0, 1}\n\nroot X {0: 0.5, 1: 0.5}\n"
     "def Y = if X * 0.75 then 1 else 0\n", (6, 1),
     "Y: body fails at (1.0,): 'if' condition expects 0 or 1, got 0.75"),
    # Every diagnostic is listed, at the first one's statement: an indented cpt.
    ("var X in {0, 1}\nvar W in {0, 1}\n  cpt W | X {(0): {0: 0.5, 1: 0.6}, "
     "(1): {0: 1, 1: 0}}\ndef Y = X\nvar Y in {0}\nroot X {0: 0.5, 1: 0.5}\n", (3, 3),
     "W: row (0.0,) sums to 1.1, expected 1; Y: body yields 1.0 at (1.0,), outside support"),
    # A variable without a mechanism is reported at its declaration.
    ("var X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n", (2, 1),
     "variable 'Y' has no mechanism"),
    # A mechanism stated before its variable is declared is still its statement.
    ("root X {0: 0.5, 1: 0.75}\nvar X in {0, 1}\n", (1, 1), "X: root table sums to 1.25, expected 1"),
    ("var X in {0, 1}\n\n   root X {0: 0.5, 1: 0.75}\n", (3, 4), "X: root table sums to 1.25, expected 1"),
])
def test_validation_errors_carry_the_statement_location(text, where, message):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == where
    assert str(err.value) == f"{where[0]}:{where[1]}: {message}"


def test_parse_error_malformed_table():
    with pytest.raises(ParseError):
        parse_model("var X in {0, 1}\nroot X {0: 0.5, 1 0.5}\n")
    with pytest.raises(ParseError, match="duplicate entry"):
        parse_model("var X in {0, 1}\nroot X {0: 0.5, 0: 0.5}\n")
    with pytest.raises(ParseError, match="row key"):
        parse_model(
            "var A in {0, 1}\nvar B in {0, 1}\nroot A {0: 0.5, 1: 0.5}\n"
            "cpt B | A {(0, 1): {0: 1}, (1): {0: 1}}\n"
        )


_XY = "var X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n"


@pytest.mark.parametrize("text, message", [
    # A row key given twice is reported at its `(`, an entry at its value.
    (_XY + "fun Y | X { (0): 0, (0): 1, (1): 1 }\n", "4:21: duplicate row (0.0,)"),
    (_XY + "cpt Y | X {\n  (0): {0: 1, 1: 0},\n  (0): {0: 0, 1: 1},\n}\n",
     "6:3: duplicate row (0.0,)"),
    ("var X in {0, 1}\nroot X {0: 0.5, -0: 0.5}\n", "2:17: duplicate entry for -0.0"),
    # A parameter bound that is not finite is reported at its first token.
    ("param p in [0, 1e400]\n" + _XY, "1:16: parameter 'p' bound inf is not finite"),
    ("param p in [-1e400, 0]\n" + _XY, "1:13: parameter 'p' bound -inf is not finite"),
    ("param p in [1e400/1e400, 1]\n" + _XY, "1:13: parameter 'p' bound nan is not finite"),
    ("param p in [1, 0]\n" + _XY, "1:7: parameter 'p' has empty range"),
    # A second mechanism for a variable is reported at its name.
    (_XY + "root X {0: 1, 1: 0}\n", "4:6: variable 'X' already has a mechanism"),
])
def test_table_and_bound_errors_carry_their_token_location(text, message):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == message


def test_forward_references_allowed():
    text = "def Y = X\nvar Y in {0, 1}\nvar X in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n"
    m = parse_model(text)
    assert m.mechanisms["Y"].parents == ("X",)


def _bits(model):
    """float.hex of every number a model holds, in declaration order: parameter
    bounds, supports, table keys and entries, and `def` literals."""
    def walk(x):
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return float(x).hex()
        if isinstance(x, dict):
            return [(walk(k), walk(v)) for k, v in x.items()]
        if isinstance(x, (tuple, list)):
            return [walk(y) for y in x]
        if dataclasses.is_dataclass(x):
            return [walk(getattr(x, f.name)) for f in dataclasses.fields(x)]
        return x

    return walk([model.parameters, model.variables, [model.mechanisms.get(v.name) for v in model.variables]])


def test_round_trip_golden_models():
    for name in (
        "bsc.sem",
        "rare_disease.sem",
        "sprinkler.sem",
        "sprinkler_functional.sem",
        "ramp_reset.sem",
        "crossover.sem",
    ):
        model = parse_model(load_model_text(name))
        again = parse_model(serialize_model(model))
        assert again == model and _bits(again) == _bits(model), name


def test_round_trip_bound_model(sprinkler_functional_source):
    bound = bind(parse_model(sprinkler_functional_source), {"p": 0.35})
    assert parse_model(serialize_model(bound)) == bound


def test_serialize_parameter_declaration(sprinkler_functional_source):
    text = serialize_model(parse_model(sprinkler_functional_source))
    assert "param p in [0, 1]" in text


def test_serialize_single_root_model():
    m = parse_model("var X in {0, 1}\nroot X {0: 0.25, 1: 0.75}\n")
    text = serialize_model(m)
    assert text.count("var ") == 1 and text.count("root ") == 1


def test_round_trip_random_models():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        model = random_dsl_model(rng)
        text = serialize_model(model)
        again = parse_model(text)
        assert again == model and _bits(again) == _bits(model), text


@pytest.mark.parametrize("text, spelled", [
    # -0 keeps its sign, in a support, a table key, an entry and a literal.
    ("var X in {-0, 1}\nroot X {-0: 0.5, 1: 0.5}\nvar Y in {-0, 1}\n"
     "cpt Y | X {(-0): {-0: -0, 1: 1}, (1): {-0: 1, 1: 0}}\n", "(-0): {-0: -0, 1: 1}"),
    (_XY + "def Y = X * -0 + X\n", "def Y = X * -0 + X"),
])
def test_round_trip_keeps_negative_zeros(text, spelled):
    model = parse_model(text)
    written = serialize_model(model)
    assert spelled in written
    again = parse_model(written)
    assert again == model and _bits(again) == _bits(model)


def test_serialize_names_a_nan():
    x, y = Variable("X", FiniteSupport((0.0, 1.0))), Variable("Y", FiniteSupport((0.0, 1.0)))
    body = ex.IfElse(ex.Binary(">", ex.Name("X"), ex.Num(math.nan)), ex.Num(1.0), ex.Name("X"))
    for model in (Model((x,), {"X": Root({0.0: math.nan, 1.0: 0.5})}),
                  Model((x, y), {"X": Root({0.0: 0.5, 1.0: 0.5}), "Y": Deterministic(("X",), body=body)})):
        with pytest.raises(ModelError, match="^NaN cannot be written as a number literal$"):
            serialize_model(model)


def test_an_infinity_built_in_code_is_written_1e999():
    # The reader rejects one in an expression (below), so no parsed model holds one.
    x, y = Variable("X", FiniteSupport((0.0, 1.0))), Variable("Y", FiniteSupport((0.0, 1.0)))
    body = ex.IfElse(ex.Binary(">", ex.Name("X"), ex.Num(-math.inf)), ex.Name("X"), ex.Num(math.inf))
    model = Model((x, y), {"X": Root({0.0: 0.5, 1.0: 0.5}), "Y": Deterministic(("X",), body=body)})
    assert "def Y = if X > -1e999 then X else 1e999\n" in serialize_model(model)


@pytest.mark.parametrize("text, message", [
    # A number literal in an expression that is not finite, alone or as a
    # quotient, is reported at its first token; param bounds say so their way.
    (_XY + "def Y = if X > 1e400 then 1 else X\n", "4:16: number literal inf is not finite"),
    (_XY + "def Y = if X > -1e400 then X else 1\n", "4:17: number literal inf is not finite"),
    (_XY + "def Y = if X > 1e400/1e400 then 1 else X\n", "4:16: number literal nan is not finite"),
    (_XY + "def Y = if X > 1e300 / 1e-300 then 1 else X\n", "4:16: number literal inf is not finite"),
    ("param p in [0, 1]\nvar X in {0, 1}\nroot X {0: if p < 1e400/1e400 then 0 else p, 1: 1 - p}\n",
     "3:19: number literal nan is not finite"),
])
def test_a_number_literal_that_is_not_finite_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == message
    # With the literal finite, the model reads back from its written form.
    model = parse_model(text.replace("1e400/1e400", "1e300/1e-3").replace("1e400", "1e300")
                        .replace("1e-300", "1e3"))
    assert parse_model(serialize_model(model)) == model


def test_expression_round_trip_random():
    rng = np.random.default_rng(99)
    names = ["X", "Y2", "w"]
    for _ in range(500):
        tree, _ = random_paired_expr(rng, names)
        text = ex.to_text(tree)
        reparsed = _parse_expr_text(text)
        assert reparsed == tree, text


_X, _ONE = ex.Name("X"), ex.Num(1.0)


@pytest.mark.parametrize("text, tree", [
    ("not X == 1", ex.Unary("not", ex.Binary("==", _X, _ONE))),
    ("X * -X - -1", ex.Binary("-", ex.Binary("*", _X, ex.Unary("-", _X)), ex.Num(-1.0))),
    ("X == 1 and X == 0 or not X", ex.Binary(
        "or",
        ex.Binary("and", ex.Binary("==", _X, _ONE), ex.Binary("==", _X, ex.Num(0.0))),
        ex.Unary("not", _X),
    )),
    ("if X then 1 else 2 + X", ex.IfElse(_X, _ONE, ex.Binary("+", ex.Num(2.0), _X))),
])
def test_precedence_level_boundaries(text, tree):
    assert _parse_expr_text(text) == tree


@pytest.mark.parametrize("text, message", [
    ("var X in {0, 1}\ndef Y = X < 1 < 2\n", "2:15: expected a statement keyword, got '<'"),
    ("var X in {0, 1}\ndef Y = not X < 1 < 2\n", "2:19: expected a statement keyword, got '<'"),
    ("var X in {0, 1}\ndef Y = X or X < 1 < 2\n", "2:20: expected a statement keyword, got '<'"),
    ("var X in {0, 1}\ndef Y = X + not X\n", "2:13: expected an expression, got 'not'"),
    ("in X", "1:1: unexpected keyword 'in' at statement level"),
    ("var X of {0}", "1:7: expected 'in', got 'of'"),
])
def test_precedence_and_keyword_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == message


def _parse_expr_text(text: str) -> ex.Expr:
    from vce.dsl import _Parser

    parser = _Parser(text)
    tree = parser.parse_expr()
    assert parser.peek()[0] == "eof"
    return tree


def test_evaluator_agrees_with_independent_oracle():
    rng = np.random.default_rng(7)
    names = ["a", "b", "c"]
    for _ in range(1000):
        tree, fn = random_paired_expr(rng, names)
        env = {n: round(float(rng.uniform(-3, 3)), 3) for n in names}
        assert ex.evaluate(tree, env) == pytest.approx(fn(env), abs=1e-12)


def test_truthiness_is_strict():
    with pytest.raises(Exception, match="expects 0 or 1"):
        ex.evaluate(ex.IfElse(ex.Num(0.5), ex.Num(1.0), ex.Num(0.0)), {})
    with pytest.raises(Exception, match="expects 0 or 1"):
        ex.evaluate(ex.Binary("and", ex.Num(2.0), ex.Num(1.0)), {})
    with pytest.raises(Exception, match="expects 0 or 1"):
        ex.evaluate(ex.Call("xor", (ex.Num(0.3), ex.Num(1.0))), {})


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_malformed_inputs_never_crash(text):
    try:
        parse_model(text)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_model_text_never_crashes(data):
    base = load_model_text("sprinkler_functional.sem")
    pos = data.draw(st.integers(0, len(base) - 1))
    junk = data.draw(st.text(max_size=8))
    mutated = base[:pos] + junk + base[pos + 1 :]
    try:
        parse_model(mutated)
    except ParseError:
        pass


# --- nesting depth -------------------------------------------------------------

# Each wrapper opens one level around an expression e (the body itself is one).
_WRAPPERS = {
    "paren": lambda e: f"({e})",
    "minus": lambda e: f"-{e}",
    "not": lambda e: f"not {e}",
    "if": lambda e: f"if X == 1 then 1 else {e}",
    "xor": lambda e: f"xor(X, {e})",
    "sum": lambda e: f"(0 + {e})",
}


def _nested_model(kinds) -> str:
    body = "X"
    for kind in kinds:
        body = _WRAPPERS[kind](body)
    return (
        "var X in {0, 1}\nroot X {0: 0.25, 1: 0.75}\n"
        f"var Y in {{-1, 0, 1}}\ndef Y = {body}\n"
    )


@pytest.mark.parametrize("kind", sorted(_WRAPPERS))
def test_nesting_at_limit_parses_and_evaluates(kind):
    depth = MAX_NESTING - 1
    model = parse_model(_nested_model([kind] * depth))
    x_is_one = 0.75
    want = {
        "paren": x_is_one,
        "minus": x_is_one * (-1) ** depth,
        "not": x_is_one if depth % 2 == 0 else 1 - x_is_one,
        "if": x_is_one,
        "xor": x_is_one if depth % 2 == 0 else 0.0,
        "sum": x_is_one,
    }[kind]
    assert expectation(build_joint(model), "Y") == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("depth", [MAX_NESTING, 500, 5000])
@pytest.mark.parametrize("kind", sorted(_WRAPPERS))
def test_nesting_past_limit_is_parse_error(kind, depth):
    with pytest.raises(ParseError, match="nested deeper") as err:
        parse_model(_nested_model([kind] * depth))
    assert err.value.line == 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(_WRAPPERS)), max_size=3 * MAX_NESTING))
def test_mixed_nesting_never_crashes(kinds):
    # Mixed wrappers need not be valid (`-not X`); whatever fails is a
    # ParseError, and only bodies past the limit fail for their depth.
    try:
        parse_model(_nested_model(kinds))
    except ParseError as err:
        assert len(kinds) >= MAX_NESTING or "nested deeper" not in str(err)
