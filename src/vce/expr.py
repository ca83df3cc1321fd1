"""Expression trees used by model tables and deterministic mechanisms.

Values are plain floats.  Comparisons and logical operators yield 0.0/1.0;
logical operators, `xor`, and `if` conditions insist their inputs are
exactly 0 or 1 so silent coercions cannot hide a modelling mistake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .errors import EvalError

Expr = Union["Num", "Name", "Unary", "Binary", "Call", "IfElse"]

ARITH_OPS = ("+", "-", "*")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
BOOL_OPS = ("and", "or")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "not"
    operand: Expr


@dataclass(frozen=True)
class Binary:
    op: str  # arithmetic, comparison, or and/or
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
            return Num(float(repl)) if isinstance(repl, (int, float)) else repl
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


# Precedence levels for the printer; must mirror the parser in dsl.py.
_PREC_IF = 0
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_CMP = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_NEG = 7
_PREC_ATOM = 8

_BIN_PREC = {
    "or": _PREC_OR,
    "and": _PREC_AND,
    "==": _PREC_CMP,
    "!=": _PREC_CMP,
    "<": _PREC_CMP,
    "<=": _PREC_CMP,
    ">": _PREC_CMP,
    ">=": _PREC_CMP,
    "+": _PREC_ADD,
    "-": _PREC_ADD,
    "*": _PREC_MUL,
}


def to_text(expr: Expr, min_prec: int = 0) -> str:
    """Render `expr` so that dsl.parse of the result reproduces it exactly."""
    text, prec = _render(expr)
    if prec < min_prec:
        return f"({text})"
    return text


def _render(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, Num):
        return format_number(expr.value), _PREC_ATOM
    if isinstance(expr, Name):
        return expr.ident, _PREC_ATOM
    if isinstance(expr, Unary):
        if expr.op == "-":
            return f"-{to_text(expr.operand, _PREC_NEG)}", _PREC_NEG
        return f"not {to_text(expr.operand, _PREC_NOT)}", _PREC_NOT
    if isinstance(expr, Binary):
        prec = _BIN_PREC[expr.op]
        # Comparisons do not chain, so both operands need strictly tighter
        # precedence; left-associative operators only constrain the right.
        left_min = prec + 1 if expr.op in CMP_OPS else prec
        left = to_text(expr.left, left_min)
        right = to_text(expr.right, prec + 1)
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, Call):
        args = ", ".join(to_text(a) for a in expr.args)
        return f"{expr.func}({args})", _PREC_ATOM
    if isinstance(expr, IfElse):
        cond = to_text(expr.cond, _PREC_OR)
        then = to_text(expr.then, _PREC_OR)
        orelse = to_text(expr.orelse, _PREC_IF)
        return f"if {cond} then {then} else {orelse}", _PREC_IF
    raise EvalError(f"not an expression: {expr!r}")


def format_number(value: float) -> str:
    """Shortest decimal text that round-trips through float()."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
