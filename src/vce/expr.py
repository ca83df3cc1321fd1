"""Expression trees used by model tables and deterministic mechanisms.

Values are plain floats.  Comparisons and logical operators yield 0.0/1.0;
logical operators, `xor`, and `if` conditions insist their inputs are
exactly 0 or 1 so silent coercions cannot hide a modelling mistake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import EvalError

Expr = Union["Num", "Name", "Unary", "Binary", "Call", "IfElse"]


@dataclass(frozen=True)
class Num:
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))  # `Num(1)` is 1.0, as the reader makes it


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "not"
    operand: Expr


@dataclass(frozen=True)
class Binary:
    op: str  # a key of BINARY_PREC
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call:
    func: str  # only "xor" for now
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class IfElse:
    cond: Expr
    then: Expr
    orelse: Expr


def _as_bool(value: float, where: str) -> bool:
    if value == 0.0:
        return False
    if value == 1.0:
        return True
    raise EvalError(f"{where} expects 0 or 1, got {value!r}")


def evaluate(expr: Expr, env: Mapping[str, float]) -> float:
    """Evaluate `expr` with `env` supplying every free identifier."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Name):
        try:
            return env[expr.ident]
        except KeyError:
            raise EvalError(f"unknown identifier '{expr.ident}'") from None
    if isinstance(expr, Unary):
        v = evaluate(expr.operand, env)
        if expr.op == "-":
            return -v
        return 0.0 if _as_bool(v, "'not'") else 1.0
    if isinstance(expr, Binary):
        a = evaluate(expr.left, env)
        if expr.op == "and":
            return float(_as_bool(a, "'and'") and _as_bool(evaluate(expr.right, env), "'and'"))
        if expr.op == "or":
            return float(_as_bool(a, "'or'") or _as_bool(evaluate(expr.right, env), "'or'"))
        b = evaluate(expr.right, env)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "==":
            return float(a == b)
        if expr.op == "!=":
            return float(a != b)
        if expr.op == "<":
            return float(a < b)
        if expr.op == "<=":
            return float(a <= b)
        if expr.op == ">":
            return float(a > b)
        if expr.op == ">=":
            return float(a >= b)
        raise EvalError(f"unknown operator '{expr.op}'")
    if isinstance(expr, Call):
        if expr.func != "xor" or len(expr.args) != 2:
            raise EvalError(f"unknown function '{expr.func}'")
        a = _as_bool(evaluate(expr.args[0], env), "xor")
        b = _as_bool(evaluate(expr.args[1], env), "xor")
        return float(a != b)
    if isinstance(expr, IfElse):
        if _as_bool(evaluate(expr.cond, env), "'if' condition"):
            return evaluate(expr.then, env)
        return evaluate(expr.orelse, env)
    raise EvalError(f"not an expression: {expr!r}")


# The arithmetic and comparison operators of BINARY_PREC as numpy ufuncs; `and`
# and `or` short-circuit, so evaluate_grid spells them out.  On float64 each
# is IEEE-identical to the Python float operation `evaluate` applies.
_GRID_BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def evaluate_grid(expr: Expr, columns: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate `expr` at every position of equally long float64 `columns`.

    Returns (values, failed): `failed` marks each position where `evaluate`
    on that position's identifiers would raise EvalError, following its
    short-circuits; `values` holds `evaluate`'s exact float elsewhere.  A
    body without identifiers gives 0-d arrays.
    """
    with np.errstate(all="ignore"):
        return _grid(expr, columns)


def _not_bool(v: np.ndarray) -> np.ndarray:
    return (v != 0.0) & (v != 1.0)


def _grid(expr: Expr, columns: Mapping[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(expr, Num):
        return np.asarray(expr.value, dtype=np.float64), np.asarray(False)
    elif isinstance(expr, Name):
        if expr.ident in columns:
            return np.asarray(columns[expr.ident], dtype=np.float64), np.asarray(False)
    elif isinstance(expr, Unary):
        v, failed = _grid(expr.operand, columns)
        if expr.op == "-":
            return -v, failed
        return (v == 0.0).astype(np.float64), failed | _not_bool(v)
    elif isinstance(expr, Binary):
        a, fa = _grid(expr.left, columns)
        b, fb = _grid(expr.right, columns)
        if expr.op in ("and", "or"):
            # The right operand counts only where the left one does not decide.
            undecided = a == (1.0 if expr.op == "and" else 0.0)
            failed = fa | _not_bool(a) | (undecided & (fb | _not_bool(b)))
            if expr.op == "and":
                return ((a == 1.0) & (b == 1.0)).astype(np.float64), failed
            return ((a == 1.0) | (b == 1.0)).astype(np.float64), failed
        ufunc = _GRID_BINARY.get(expr.op)
        if ufunc is not None:
            return ufunc(a, b).astype(np.float64), fa | fb
    elif isinstance(expr, Call):
        if expr.func == "xor" and len(expr.args) == 2:
            a, fa = _grid(expr.args[0], columns)
            b, fb = _grid(expr.args[1], columns)
            failed = fa | _not_bool(a) | fb | _not_bool(b)
            return ((a == 1.0) != (b == 1.0)).astype(np.float64), failed
    elif isinstance(expr, IfElse):
        c, fc = _grid(expr.cond, columns)
        t, ft = _grid(expr.then, columns)
        e, fe = _grid(expr.orelse, columns)
        taken = c == 1.0
        return np.where(taken, t, e), fc | _not_bool(c) | np.where(taken, ft, fe)
    # An unknown identifier, operator, function or node fails wherever it is reached.
    return np.asarray(np.nan), np.asarray(True)


def _children(expr: Expr) -> tuple[Expr, ...]:
    if isinstance(expr, (Num, Name)):
        return ()
    if isinstance(expr, Unary):
        return (expr.operand,)
    if isinstance(expr, Binary):
        return (expr.left, expr.right)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, IfElse):
        return (expr.cond, expr.then, expr.orelse)
    raise EvalError(f"not an expression: {expr!r}")


def free_names(expr: Expr) -> set[str]:
    names: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Name):
            names.add(node.ident)
        stack.extend(_children(node))
    return names


def depth(expr: Expr) -> int:
    """Levels of the tree, a leaf being one; counted without recursion."""
    level, frontier = 0, [expr]
    while frontier:
        level += 1
        frontier = [child for node in frontier for child in _children(node)]
    return level


def substitute(expr: Expr, env: Mapping[str, Union[float, Expr]]) -> Expr:
    """Replace named identifiers; values may be numbers or whole subtrees."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Name):
        if expr.ident in env:
            repl = env[expr.ident]
            return Num(repl) if isinstance(repl, (int, float)) else repl
        return expr
    if isinstance(expr, Unary):
        return Unary(expr.op, substitute(expr.operand, env))
    if isinstance(expr, Binary):
        return Binary(expr.op, substitute(expr.left, env), substitute(expr.right, env))
    if isinstance(expr, Call):
        return Call(expr.func, tuple(substitute(a, env) for a in expr.args))
    if isinstance(expr, IfElse):
        return IfElse(
            substitute(expr.cond, env),
            substitute(expr.then, env),
            substitute(expr.orelse, env),
        )
    raise EvalError(f"not an expression: {expr!r}")


# The grammar's binding levels, loosest first, read by the printer below and
# by the parser in dsl.py: `if` and `not` are prefixes at their own levels,
# unary `-` binds tightest, and comparisons do not chain.
PREC_IF = 0
PREC_OR = 1
PREC_AND = 2
PREC_NOT = 3
PREC_CMP = 4
PREC_ADD = 5
PREC_MUL = 6
PREC_NEG = 7
PREC_ATOM = 8

# Every binary operator of the grammar and its level.
BINARY_PREC = {
    "or": PREC_OR,
    "and": PREC_AND,
    "==": PREC_CMP,
    "!=": PREC_CMP,
    "<": PREC_CMP,
    "<=": PREC_CMP,
    ">": PREC_CMP,
    ">=": PREC_CMP,
    "+": PREC_ADD,
    "-": PREC_ADD,
    "*": PREC_MUL,
}


def to_text(expr: Expr, min_prec: int = 0) -> str:
    """Render `expr` so that dsl.parse of the result reproduces it exactly."""
    text, prec = _render(expr)
    if prec < min_prec:
        return f"({text})"
    return text


def _render(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, Num):
        return format_number(expr.value), PREC_ATOM
    if isinstance(expr, Name):
        return expr.ident, PREC_ATOM
    if isinstance(expr, Unary):
        if expr.op == "-":
            return f"-{to_text(expr.operand, PREC_NEG)}", PREC_NEG
        return f"not {to_text(expr.operand, PREC_NOT)}", PREC_NOT
    if isinstance(expr, Binary):
        prec = BINARY_PREC[expr.op]
        # Comparisons do not chain, so both operands need strictly tighter
        # precedence; left-associative operators only constrain the right.
        left_min = prec + 1 if prec == PREC_CMP else prec
        left = to_text(expr.left, left_min)
        right = to_text(expr.right, prec + 1)
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, Call):
        args = ", ".join(to_text(a) for a in expr.args)
        return f"{expr.func}({args})", PREC_ATOM
    if isinstance(expr, IfElse):
        cond = to_text(expr.cond, PREC_OR)
        then = to_text(expr.then, PREC_OR)
        orelse = to_text(expr.orelse, PREC_IF)
        return f"if {cond} then {then} else {orelse}", PREC_IF
    raise EvalError(f"not an expression: {expr!r}")


def format_number(value: float) -> str:
    """Shortest decimal text that round-trips through float()."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
