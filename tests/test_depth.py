"""Expression trees are at most MAX_DEPTH levels deep.

A flat operator chain nests one level yet builds a tree as deep as it is
long; past the bound it is a parse error at the start of the expression,
and every accepted body evaluates, substitutes and round-trips.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vce import expr as ex
from vce.cli import main
from vce.dsl import MAX_DEPTH, parse_model, serialize_model
from vce.engine import build_joint, expectation
from vce.errors import ParseError
from vce.model import bind


def _chain(op: str, terms: int) -> str:
    """A left-deep chain of `terms` operands whose value is X."""
    operands = {
        "+": ["0"] * (terms - 1) + ["X"],
        "-": ["X"] + ["0"] * (terms - 1),
        "*": ["1"] * (terms - 1) + ["X"],
        "and": ["X"] * terms,
        "or": ["X"] * terms,
    }[op]
    return f" {op} ".join(operands)


def _model(body: str) -> str:
    return f"var X in {{0, 1}}\nroot X {{0: 0.25, 1: 0.75}}\nvar Y in {{0, 1}}\ndef Y = {body}\n"


def test_depth_counts_levels():
    assert ex.depth(ex.Num(1.0)) == 1
    assert ex.depth(ex.Binary("+", ex.Name("X"), ex.Num(0.0))) == 2
    tree = ex.IfElse(ex.Name("c"), ex.Num(1.0), ex.Unary("-", ex.Call("xor", (ex.Name("a"),))))
    assert ex.depth(tree) == 4


@pytest.mark.parametrize("terms", [200, MAX_DEPTH])
@pytest.mark.parametrize("op", ["+", "-", "*", "and", "or"])
def test_chain_within_bound_parses_evaluates_and_round_trips(op, terms):
    model = parse_model(_model(_chain(op, terms)))
    assert ex.depth(model.mechanisms["Y"].body) == terms
    assert expectation(build_joint(model), "Y") == pytest.approx(0.75, abs=1e-12)
    assert parse_model(serialize_model(model)) == model


@pytest.mark.parametrize("terms", [MAX_DEPTH + 1, 600, 2000])
@pytest.mark.parametrize("op", ["+", "-", "*", "and", "or"])
def test_chain_past_bound_is_parse_error(op, terms):
    with pytest.raises(ParseError, match=f"expression tree deeper than {MAX_DEPTH}") as err:
        parse_model(_model(_chain(op, terms)))
    assert (err.value.line, err.value.column) == (4, 9)


def test_probability_entry_chain():
    head = "param p in [0, 1]\nvar X in {0, 1}\nroot X {0: "
    model = parse_model(head + _chain("+", MAX_DEPTH).replace("X", "p") + ", 1: 1 - p}\n")
    assert parse_model(serialize_model(model)) == model
    assert bind(model, {"p": 0.25}).mechanisms["X"].table == {0.0: 0.25, 1.0: 0.75}
    with pytest.raises(ParseError, match="expression tree deeper") as err:
        parse_model(head + _chain("+", MAX_DEPTH + 1).replace("X", "p") + ", 1: 1 - p}\n")
    assert (err.value.line, err.value.column) == (3, 12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 80), max_size=8))
def test_grouped_chains_are_bounded_by_total_depth(chains):
    # Each group `(e) + 0 + ... + 0` adds its chain length to the depth.
    body = "X"
    for k in chains:
        body = f"({body})" + " + 0" * k
    if 1 + sum(chains) > MAX_DEPTH:
        with pytest.raises(ParseError, match="expression tree deeper") as err:
            parse_model(_model(body))
        assert (err.value.line, err.value.column) == (4, 9)
        return
    model = parse_model(_model(body))
    assert parse_model(serialize_model(model)) == model
    tree = model.mechanisms["Y"].body
    assert ex.evaluate(ex.substitute(tree, {"X": 1.0}), {}) == 1.0


@pytest.mark.parametrize("op", ["+", "and"])
def test_cli_long_chain_exits_1(capsys, tmp_path, op):
    path = tmp_path / "chain.sem"
    path.write_text(_model(_chain(op, 2000)), encoding="utf-8")
    code = main(["eval", str(path), "--cause", "X", "--outcome", "Y"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"parse error: 4:9: expression tree deeper than {MAX_DEPTH} levels\n"
