import math

import pytest

from vce.errors import BindingError, ModelError, StateSpaceError
from vce.model import (
    CPT,
    Deterministic,
    FiniteSupport,
    Model,
    Parameter,
    Partition,
    Root,
    Variable,
    bind,
    validate,
)
from vce import expr as ex
from vce.dsl import parse_model


def binary(name):
    return Variable(name, FiniteSupport((0.0, 1.0)))


def test_support_invariants():
    with pytest.raises(ModelError):
        FiniteSupport(())
    with pytest.raises(ModelError):
        FiniteSupport((1.0, 1.0))
    with pytest.raises(ModelError):
        FiniteSupport((2.0, 1.0))
    with pytest.raises(ModelError):
        FiniteSupport((0.0, math.inf))
    s = FiniteSupport((0.0, 0.5, 2.0))
    assert s.index_of(0.5) == 1
    assert 0.5 + 1e-12 in s
    assert 0.7 not in s


@pytest.mark.parametrize("lower, upper, message", [
    (0.0, math.inf, "parameter p: bound inf is not finite"),
    (-math.inf, 1.0, "parameter p: bound -inf is not finite"),
    (math.nan, 1.0, "parameter p: bound nan is not finite"),
    (0.0, math.nan, "parameter p: bound nan is not finite"),
    (1.0, 0.0, "parameter p: lower bound exceeds upper bound"),
])
def test_parameter_bounds_are_finite_and_ordered(lower, upper, message):
    with pytest.raises(ModelError) as err:
        Parameter("p", lower, upper)
    assert str(err.value) == message


def test_partition_invariants():
    Partition((0, 2, 3))
    with pytest.raises(ModelError):
        Partition((2,))
    with pytest.raises(ModelError):
        Partition((2, 1))
    with pytest.raises(ModelError):
        Partition((-1, 0))


def test_validate_clean_bsc(bsc):
    assert validate(bsc) == []


def test_validate_point_mass_root():
    m = Model((binary("A"),), {"A": Root({0.0: 1.0})})
    assert validate(m) == []


def test_validate_cycle():
    m = Model(
        (binary("A"), binary("B")),
        {
            "A": Deterministic(("B",), body=ex.Name("B")),
            "B": Deterministic(("A",), body=ex.Name("A")),
        },
    )
    diags = validate(m)
    assert any("cycle" in d for d in diags)


def test_validate_bad_rows():
    m = Model((binary("A"),), {"A": Root({0.0: 0.5, 1.0: 0.6})})
    assert any("sums to" in d for d in validate(m))
    m = Model((binary("A"),), {"A": Root({0.0: 1.5, 1.0: -0.5})})
    assert any("outside [0, 1]" in d for d in validate(m))


def test_validate_rejects_non_finite_probabilities():
    nan_root = Model((binary("A"),), {"A": Root({0.0: math.nan, 1.0: 1.0})})
    assert "A: root table probability nan outside [0, 1]" in validate(nan_root)
    inf_cpt = Model(
        (binary("A"), binary("B")),
        {
            "A": Root({0.0: 0.5, 1.0: 0.5}),
            "B": CPT(("A",), {(0.0,): {0.0: 1.0}, (1.0,): {0.0: math.inf, 1.0: 0.0}}),
        },
    )
    assert "B: row (1.0,) probability inf outside [0, 1]" in validate(inf_cpt)


def test_validate_missing_pieces():
    m = Model((binary("A"), binary("B")), {"A": Root({0.0: 1.0})})
    assert any("no mechanism" in d for d in validate(m))
    m = Model(
        (binary("A"), binary("B")),
        {
            "A": Root({0.0: 1.0}),
            "B": CPT(("Q",), {(0.0,): {0.0: 1.0}}),
        },
    )
    assert any("not a declared variable" in d for d in validate(m))


@pytest.mark.parametrize("mechanism, parameters, diag", [
    # A mechanism over an undeclared parent: its rows, table or body are not checked.
    (CPT(("Q",), {(5.0,): {0.0: 2.0}}), (), "B: parent 'Q' is not a declared variable"),
    (Deterministic(("Q",), body=ex.Name("Q")), (), "B: parent 'Q' is not a declared variable"),
    (Deterministic(("Q",), table={(0.0,): 7.0}), (), "B: parent 'Q' is not a declared variable"),
    (Deterministic(("A", "A"), body=ex.Name("A")), (), "B: duplicate parent"),
    (Deterministic(("A",), body=ex.Name("q")), (), "B: body references unknown identifier(s) ['q']"),
    (Root({0.0: ex.Name("q"), 1.0: 0.5}), (), "B: root table references undeclared parameter(s) ['q']"),
    (Root({0.0: 1.0}), (Parameter("p", 0.0, 1.0),) * 2, "duplicate parameter 'p'"),
    (Root({0.0: 1.0}), (Parameter("A", 0.0, 1.0),), "parameter 'A' collides with a variable name"),
])
def test_validate_reports_each_fault_once(mechanism, parameters, diag):
    m = Model((binary("A"), binary("B")), {"A": Root({0.0: 0.5, 1.0: 0.5}), "B": mechanism}, parameters)
    assert validate(m) == [diag]


def test_model_questions_name_what_is_missing():
    with pytest.raises(ModelError, match="^deterministic mechanism needs exactly one of body or table$"):
        Deterministic(("A",))
    with pytest.raises(ModelError, match="^variable 'A' has no mechanism$"):
        Model((binary("A"),), {}).parents("A")


def test_validate_deterministic_totality():
    m = Model(
        (binary("A"), binary("B")),
        {
            "A": Root({0.0: 0.5, 1.0: 0.5}),
            "B": Deterministic(("A",), body=ex.Binary("+", ex.Name("A"), ex.Num(3.0))),
        },
    )
    assert any("outside support" in d for d in validate(m))
    m = Model(
        (binary("A"), binary("B")),
        {
            "A": Root({0.0: 0.5, 1.0: 0.5}),
            "B": Deterministic(("A",), table={(0.0,): 0.0}),
        },
    )
    assert any("missing table row" in d for d in validate(m))


def test_topological_order_stable():
    # Parallel chains; declaration order breaks ties deterministically.
    m = Model(
        (binary("B"), binary("A"), binary("C")),
        {
            "B": Root({0.0: 1.0}),
            "A": Root({0.0: 1.0}),
            "C": Deterministic(("A", "B"), body=ex.Name("A")),
        },
    )
    assert m.topological_order() == ("B", "A", "C")
    assert m.topological_order() == m.topological_order()


def test_state_space_guard():
    variables = tuple(binary(f"V{i}") for i in range(24))
    mechanisms = {v.name: Root({0.0: 0.5, 1.0: 0.5}) for v in variables}
    with pytest.raises(StateSpaceError):
        Model(variables, mechanisms)


def test_state_limit_env_override(monkeypatch):
    monkeypatch.setenv("VCE_STATE_LIMIT", "4")
    variables = tuple(binary(f"V{i}") for i in range(3))
    mechanisms = {v.name: Root({0.0: 0.5, 1.0: 0.5}) for v in variables}
    with pytest.raises(StateSpaceError):
        Model(variables, mechanisms)
    monkeypatch.delenv("VCE_STATE_LIMIT")
    Model(variables, mechanisms)


def test_bind_sprinkler_parameter(sprinkler_functional_source):
    m = parse_model(sprinkler_functional_source)
    bound = bind(m, {"p": 0.5})
    row = bound.mechanisms["V3"].rows[(1.0, 1.0)]
    assert row[1.0] == pytest.approx(0.5, abs=1e-12)
    assert bound.parameters == ()
    assert bound.is_bound


def test_bind_errors(sprinkler_functional_source):
    m = parse_model(sprinkler_functional_source)
    with pytest.raises(BindingError):
        bind(m, {"p": 1.2})  # out of range
    with pytest.raises(BindingError):
        bind(m, {})  # unbound
    with pytest.raises(BindingError):
        bind(m, {"p": 0.5, "q": 0.1})  # undeclared
    failing = parse_model("param p in [0, 1]\nvar X in {0, 1}\nroot X {0: if p then 1 else 0, 1: 1 - p}\n")
    with pytest.raises(BindingError, match=r"^'if' condition expects 0 or 1, got 0.3$"):
        bind(failing, {"p": 0.3})  # an entry that fails to evaluate


def test_bind_substitutes_through_not_xor_and_negation():
    m = parse_model("param p in [0, 1]\nvar X in {0, 1}\nvar Y in {-1, 0, 1}\nroot X {0: 0.5, 1: 0.5}\n"
                    "def Y = xor(not X, p > 0.5) + -X\n")
    assert ex.to_text(bind(m, {"p": 0.9}).mechanisms["Y"].body) == "xor(not X, 0.9 > 0.5) + -X"


def test_bind_rejects_bad_row_after_substitution():
    m = Model(
        (binary("A"),),
        {"A": Root({0.0: ex.Name("p"), 1.0: ex.Name("p")})},
        (Parameter("p", 0.0, 1.0),),
    )
    with pytest.raises(BindingError):
        bind(m, {"p": 0.7})
    bind(m, {"p": 0.5})


def test_bind_idempotent_on_parameterless(bsc):
    assert bind(bsc, {}) == bsc


def test_bound_rows_sum_to_one(sprinkler_functional_source):
    bound = bind(parse_model(sprinkler_functional_source), {"p": 0.3})
    for mech in bound.mechanisms.values():
        if isinstance(mech, Root):
            assert sum(mech.table.values()) == pytest.approx(1.0, abs=1e-9)
        elif isinstance(mech, CPT):
            for row in mech.rows.values():
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
