"""Table literals must equal a declared support value exactly.

A literal within 1e-9 of a support value but not equal to it is a parse
error that names the literal; only computed values and values given by the
caller are matched within 1e-9.
"""

import re

import pytest

from vce import expr as ex
from vce.cli import main
from vce.dsl import parse_model
from vce.engine import build_joint, expectation, intervene
from vce.errors import ParseError
from vce.model import CPT, Deterministic, FiniteSupport, Model, Root, Variable, validate

NEAR = "0.333333333333"  # within 1e-9 of the support value 1/3, not equal to it
NAMED = re.compile(r"0\.333333333333(?!3)")

MODELS = {
    "root value": "var X in {0, 1/3}\nroot X {0: 0.5, LIT: 0.5}\n",
    "cpt row value": (
        "var X in {0, 1}\nroot X {0: 0.5, 1: 0.5}\nvar W in {0, 1/3}\n"
        "cpt W | X {(0): {0: 0.5, LIT: 0.5}, (1): {0: 1, 1/3: 0}}\n"
    ),
    "cpt row key": (
        "var X in {0, 1/3}\nroot X {0: 0.5, 1/3: 0.5}\nvar W in {0, 1}\n"
        "cpt W | X {(0): {0: 0.5, 1: 0.5}, (LIT): {0: 1, 1: 0}}\n"
    ),
    "fun key": (
        "var X in {0, 1/3}\nroot X {0: 0.5, 1/3: 0.5}\nvar Y in {0, 1}\n"
        "fun Y | X {(0): 0, (LIT): 1}\n"
    ),
    "fun value": (
        "var X in {0, 1}\nroot X {0: 0.5, 1: 0.5}\nvar Y in {0, 1/3}\n"
        "fun Y | X {(0): 0, (1): LIT}\n"
    ),
}


@pytest.mark.parametrize("case", sorted(MODELS))
def test_near_literal_is_parse_error_naming_it(case):
    with pytest.raises(ParseError) as err:
        parse_model(MODELS[case].replace("LIT", NEAR))
    assert NAMED.search(str(err.value)), str(err.value)


@pytest.mark.parametrize("spelling", ["1/3", "0.3333333333333333"])
@pytest.mark.parametrize("case", sorted(MODELS))
def test_exact_spellings_parse_and_enumerate(case, spelling):
    model = parse_model(MODELS[case].replace("LIT", spelling))
    assert build_joint(model).total_mass() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("case", sorted(MODELS))
def test_near_literal_exits_1(capsys, tmp_path, case):
    path = tmp_path / "near.sem"
    path.write_text(MODELS[case].replace("LIT", NEAR), encoding="utf-8")
    code = main(["eval", str(path), "--cause", "X", "--outcome", "Y"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert NAMED.search(err), err


def test_caller_values_still_match_within_tolerance():
    model = parse_model(MODELS["fun key"].replace("LIT", "1/3"))
    pinned = intervene(model, {"X": 1 / 3 + 1e-12})
    assert pinned.mechanisms["X"].table == {1 / 3: 1.0}
    assert expectation(build_joint(model), "Y", {"X": 1 / 3 - 1e-12}) == 1.0


def test_diagnostics_keep_text_and_order():
    third = Variable("X", FiniteSupport((0.0, 1 / 3, 1.0)))
    w = Variable("W", FiniteSupport((0.0, 1.0)))
    y = Variable("Y", FiniteSupport((0.0, 1.0)))
    near = 1 / 3 + 1e-12
    model = Model(
        (third, w, y),
        {
            "X": Root({0.0: 0.5, near: 0.25, 1.0: 0.25}),
            "W": CPT(("X",), {(2.0,): {0.0: 1.0}, (near,): {0.0: 1.0}, (0.0,): {0.0: 1.0}}),
            "Y": Deterministic(("X",), table={(near,): 1.0, (0.0,): near}),
        },
    )
    assert validate(model) == [
        f"X: root table assigns probability to {near!r} outside support",
        "W: row key (2.0,) does not match parent supports",
        f"W: row key ({near!r},) does not match parent supports",
        f"W: missing row for parent assignment ({1 / 3!r},)",
        "W: missing row for parent assignment (1.0,)",
        f"Y: table key ({near!r},) does not match parent supports",
        f"Y: table value {near!r} outside support",
        f"Y: missing table row for ({1 / 3!r},)",
        "Y: missing table row for (1.0,)",
    ]


def test_a_python_int_literal_is_a_float():
    # The .sem reader makes every number a float; a model built in Python gets the same.
    assert type(ex.Num(1).value) is float and ex.Num(1).value == 1.0
    assert ex.Num(1) == ex.Num(1.0)
