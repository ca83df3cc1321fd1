"""Text format for structural models (the `.sem` wire format).

Statements, in any order, `#` starts a line comment:

    param p in [0, 1]
    var X in {0, 1}
    root X {0: 0.5, 1: 0.5}
    cpt W | R, S { (0, 0): {0: 0.99, 1: 0.01}, ... }
    def Y = xor(X, Z)
    fun Y | X { (1): 1, (2): 2, ... }

Numeric literals accept decimals and rationals (`41/70`), both read in
double precision.  Probability entries may be expressions over declared
parameters; `def` bodies may reference parent variables and parameters.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from . import expr as ex
from . import model as md
from .errors import ParseError

KEYWORDS = {
    "param", "var", "root", "cpt", "def", "fun", "in",
    "if", "then", "else", "and", "or", "not", "xor",
}

# Expression levels the parser descends into before it gives up with a
# ParseError; each level is an expression, a bracketed or `xor(...)`
# argument, an `else` branch, or a unary `-`/`not`.  About nine interpreter
# frames per level keeps this well inside Python's recursion limit.
MAX_NESTING = 64

# Levels of the tree one expression may build.  A flat chain like
# `0 + 0 + ... + X` nests one level yet builds a tree as deep as it is long,
# and evaluating, substituting and printing recurse once or twice per level.
MAX_DEPTH = 256

_SYMBOLS = ("==", "!=", "<=", ">=", "{", "}", "[", "]", "(", ")",
            ":", ",", "|", "=", "+", "-", "*", "/", "<", ">")


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "ident", "keyword", symbol text, or "eof"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(Token("number", lit, line, col))
            col += i - start
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += i - start
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, state_limit: int | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.state_limit = state_limit
        self.variables: list[md.Variable] = []
        self.parameters: list[md.Parameter] = []
        self.mechanisms: dict[str, md.Mechanism] = {}
        # name -> token of first declaration, for duplicate reporting
        self.declared: dict[str, Token] = {}
        # deferred identifier references checked once declarations are in
        self.pending_refs: list[tuple[str, Token, str]] = []
        self.depth = 0

    # --- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def accept_keyword(self, word: str) -> Token | None:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text == word:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind}, got '{tok.text or 'end of input'}'",
                tok.line, tok.column,
            )
        return self.next()

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "keyword" or tok.text != word:
            raise ParseError(
                f"expected '{word}', got '{tok.text or 'end of input'}'",
                tok.line, tok.column,
            )
        return self.next()

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    @contextmanager
    def nested(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested deeper than {MAX_NESTING} levels")
        try:
            yield
        finally:
            self.depth -= 1

    # --- statements -----------------------------------------------------

    def parse(self) -> md.Model:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "keyword":
                self.fail(f"expected a statement keyword, got '{tok.text}'")
            if tok.text == "param":
                self.parse_param()
            elif tok.text == "var":
                self.parse_var()
            elif tok.text == "root":
                self.parse_root()
            elif tok.text == "cpt":
                self.parse_cpt()
            elif tok.text == "def":
                self.parse_def()
            elif tok.text == "fun":
                self.parse_fun()
            else:
                self.fail(f"unexpected keyword '{tok.text}' at statement level")
        if not self.variables:
            raise ParseError("no variables declared", 1, 1)
        self.resolve_references()
        model = md.Model(
            tuple(self.variables),
            self.mechanisms,
            tuple(self.parameters),
            state_limit=self.state_limit,
        )
        diags = md.validate(model)
        if diags:
            raise ParseError("; ".join(diags), 1, 1)
        return model

    def declare(self, tok: Token):
        if tok.text in self.declared:
            self.fail(f"duplicate declaration of '{tok.text}'", tok)
        self.declared[tok.text] = tok

    def parse_param(self):
        self.expect_keyword("param")
        name = self.expect("ident", "parameter name")
        self.declare(name)
        self.expect_keyword("in")
        self.expect("[")
        lower = self.parse_number()
        self.expect(",")
        upper = self.parse_number()
        self.expect("]")
        if lower > upper:
            self.fail(f"parameter '{name.text}' has empty range", name)
        self.parameters.append(md.Parameter(name.text, lower, upper))

    def parse_var(self):
        self.expect_keyword("var")
        name = self.expect("ident", "variable name")
        self.declare(name)
        self.expect_keyword("in")
        self.expect("{")
        values = [self.parse_number()]
        while self.accept(","):
            if self.peek().kind == "}":
                break
            values.append(self.parse_number())
        self.expect("}")
        try:
            support = md.FiniteSupport(tuple(values))
        except md.ModelError as err:
            self.fail(str(err), name)
        self.variables.append(md.Variable(name.text, support))

    def mechanism_target(self) -> Token:
        name = self.expect("ident", "variable name")
        if name.text in self.mechanisms:
            self.fail(f"variable '{name.text}' already has a mechanism", name)
        self.pending_refs.append((name.text, name, "variable"))
        return name

    def parse_parent_list(self) -> tuple[str, ...]:
        self.expect("|")
        parents = [self.expect("ident", "parent name")]
        while self.accept(","):
            parents.append(self.expect("ident", "parent name"))
        for p in parents:
            self.pending_refs.append((p.text, p, "variable"))
        return tuple(p.text for p in parents)

    def parse_root(self):
        self.expect_keyword("root")
        name = self.mechanism_target()
        table = self.parse_prob_row()
        self.mechanisms[name.text] = md.Root(table)

    def parse_prob_row(self) -> dict[float, md.Entry]:
        self.expect("{")
        table: dict[float, md.Entry] = {}
        while True:
            tok = self.peek()
            value = self.parse_number()
            if value in table:
                self.fail(f"duplicate entry for {value!r}", tok)
            self.expect(":")
            table[value] = self.parse_prob_entry()
            if not self.accept(",") or self.peek().kind == "}":
                break
        self.expect("}")
        return table

    def parse_body(self) -> ex.Expr:
        start = self.peek()
        body = self.parse_expr()
        if ex.depth(body) > MAX_DEPTH:
            self.fail(f"expression tree deeper than {MAX_DEPTH} levels", start)
        return body

    def parse_prob_entry(self) -> md.Entry:
        start = self.peek()
        entry = self.parse_body()
        if isinstance(entry, ex.Num):
            return entry.value
        for ident in sorted(ex.free_names(entry)):
            self.pending_refs.append((ident, start, "parameter"))
        return entry

    def parse_cpt(self):
        self.expect_keyword("cpt")
        name = self.mechanism_target()
        parents = self.parse_parent_list()
        self.expect("{")
        rows: dict[tuple[float, ...], dict[float, md.Entry]] = {}
        while True:
            key = self.parse_key(len(parents))
            if key in rows:
                self.fail(f"duplicate row {key}")
            self.expect(":")
            rows[key] = self.parse_prob_row()
            if not self.accept(",") or self.peek().kind == "}":
                break
        self.expect("}")
        self.mechanisms[name.text] = md.CPT(parents, rows)

    def parse_key(self, arity: int) -> tuple[float, ...]:
        tok = self.expect("(")
        values = [self.parse_number()]
        while self.accept(","):
            values.append(self.parse_number())
        self.expect(")")
        if len(values) != arity:
            self.fail(f"row key has {len(values)} values, expected {arity}", tok)
        return tuple(values)

    def parse_def(self):
        self.expect_keyword("def")
        name = self.mechanism_target()
        self.expect("=")
        body = self.parse_body()
        for ident in sorted(ex.free_names(body)):
            self.pending_refs.append((ident, name, "variable or parameter"))
        # Parents are resolved after all declarations are known.
        self.mechanisms[name.text] = ("def", body)  # type: ignore[assignment]

    def parse_fun(self):
        self.expect_keyword("fun")
        name = self.mechanism_target()
        parents = self.parse_parent_list()
        self.expect("{")
        table: dict[tuple[float, ...], float] = {}
        while True:
            key = self.parse_key(len(parents))
            if key in table:
                self.fail(f"duplicate row {key}")
            self.expect(":")
            table[key] = self.parse_number()
            if not self.accept(",") or self.peek().kind == "}":
                break
        self.expect("}")
        self.mechanisms[name.text] = md.Deterministic(parents, table=table)

    def resolve_references(self):
        names = {v.name for v in self.variables}
        params = {p.name for p in self.parameters}
        for ident, tok, role in self.pending_refs:
            if role == "variable" and ident not in names:
                self.fail(f"unknown variable '{ident}'", tok)
            if role == "parameter" and ident not in params:
                self.fail(f"unknown parameter '{ident}'", tok)
            if role == "variable or parameter" and ident not in names | params:
                self.fail(f"unknown identifier '{ident}'", tok)
        order = [v.name for v in self.variables]
        for name, mech in list(self.mechanisms.items()):
            if isinstance(mech, tuple):  # deferred `def`
                body = mech[1]
                referenced = ex.free_names(body) & names
                parents = tuple(n for n in order if n in referenced)
                self.mechanisms[name] = md.Deterministic(parents, body=body)

    # --- numbers and expressions ----------------------------------------

    def parse_number(self) -> float:
        negative = False
        while self.accept("-"):
            negative = not negative
        tok = self.expect("number")
        value = float(tok.text)
        if self.peek().kind == "/":
            self.next()
            denom_tok = self.expect("number", "denominator")
            denom = float(denom_tok.text)
            if denom == 0:
                self.fail("zero denominator", denom_tok)
            value /= denom
        return -value if negative else value

    def parse_expr(self) -> ex.Expr:
        with self.nested():
            if self.peek().kind == "keyword" and self.peek().text == "if":
                self.next()
                cond = self.parse_or()
                self.expect_keyword("then")
                then = self.parse_or()
                self.expect_keyword("else")
                orelse = self.parse_expr()
                return ex.IfElse(cond, then, orelse)
            return self.parse_or()

    def parse_or(self) -> ex.Expr:
        node = self.parse_and()
        while self.accept_keyword("or"):
            node = ex.Binary("or", node, self.parse_and())
        return node

    def parse_and(self) -> ex.Expr:
        node = self.parse_not()
        while self.accept_keyword("and"):
            node = ex.Binary("and", node, self.parse_not())
        return node

    def parse_not(self) -> ex.Expr:
        if self.accept_keyword("not"):
            with self.nested():
                return ex.Unary("not", self.parse_not())
        return self.parse_cmp()

    def parse_cmp(self) -> ex.Expr:
        node = self.parse_add()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.peek().kind == op:
                self.next()
                return ex.Binary(op, node, self.parse_add())
        return node

    def parse_add(self) -> ex.Expr:
        node = self.parse_mul()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = ex.Binary(op, node, self.parse_mul())
        return node

    def parse_mul(self) -> ex.Expr:
        node = self.parse_unary()
        while self.peek().kind == "*":
            self.next()
            node = ex.Binary("*", node, self.parse_unary())
        return node

    def parse_unary(self) -> ex.Expr:
        if self.accept("-"):
            with self.nested():
                inner = self.parse_unary()
            if isinstance(inner, ex.Num):  # fold so printing round-trips
                return ex.Num(-inner.value)
            return ex.Unary("-", inner)
        return self.parse_atom()

    def parse_atom(self) -> ex.Expr:
        tok = self.peek()
        if tok.kind == "number":
            return ex.Num(self.parse_number())
        if tok.kind == "keyword" and tok.text == "xor":
            self.next()
            self.expect("(")
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect(")")
            return ex.Call("xor", (a, b))
        if tok.kind == "keyword" and tok.text == "if":
            return self.parse_expr()
        if tok.kind == "ident":
            self.next()
            return ex.Name(tok.text)
        if tok.kind == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        self.fail(f"expected an expression, got '{tok.text or 'end of input'}'")


def parse_model(text: str, state_limit: int | None = None) -> md.Model:
    """Parse `.sem` source into a validated Model.

    Raises ParseError (with line/column) on lexical errors, unknown or
    duplicate identifiers, malformed tables, and cycles.
    """
    return _Parser(text, state_limit).parse()


# --- serialization -------------------------------------------------------


def _fmt(value: float) -> str:
    return ex.format_number(float(value))


def _fmt_entry(entry: md.Entry) -> str:
    if isinstance(entry, (int, float)):
        return _fmt(entry)
    return ex.to_text(entry)


def _prob_row(table: dict[float, md.Entry]) -> str:
    inner = ", ".join(f"{_fmt(v)}: {_fmt_entry(e)}" for v, e in table.items())
    return "{" + inner + "}"


def serialize_model(model: md.Model) -> str:
    """Canonical text form; parse_model(serialize_model(m)) equals m."""
    lines: list[str] = []
    for p in model.parameters:
        lines.append(f"param {p.name} in [{_fmt(p.lower)}, {_fmt(p.upper)}]")
    for v in model.variables:
        values = ", ".join(_fmt(x) for x in v.support.values)
        lines.append(f"var {v.name} in {{{values}}}")
    for v in model.variables:
        mech = model.mechanisms.get(v.name)
        if mech is None:
            continue
        if isinstance(mech, md.Root):
            lines.append(f"root {v.name} {_prob_row(mech.table)}")
        elif isinstance(mech, md.CPT):
            lines.append(f"cpt {v.name} | {', '.join(mech.parents)} {{")
            for key, row in mech.rows.items():
                key_text = ", ".join(_fmt(k) for k in key)
                lines.append(f"  ({key_text}): {_prob_row(row)},")
            lines.append("}")
        elif mech.body is not None:
            lines.append(f"def {v.name} = {ex.to_text(mech.body)}")
        else:
            lines.append(f"fun {v.name} | {', '.join(mech.parents)} {{")
            for key, value in mech.table.items():
                key_text = ", ".join(_fmt(k) for k in key)
                lines.append(f"  ({key_text}): {_fmt(value)},")
            lines.append("}")
    return "\n".join(lines) + "\n"
