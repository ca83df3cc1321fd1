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

import math
import re
from contextlib import contextmanager
from functools import partial

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

# One match per token, after any spaces, tabs and carriage returns; a comment
# matches no group, and `other` any character no group takes (`finditer` would
# skip it silently).  A `number` has decimal digits and at most one point, so
# `float` reads it.  The language's rules are `str.isdigit` and `isalpha`,
# wider than `\d` and narrower than `[^\W\d]`; `_scalar` decides where they
# may differ: a number followed by a point or a non-ASCII letter or digit,
# maybe after an exponent mark (`odd`), or a word starting non-ASCII (`wide`).
# A `block` is a whole `{ ... }` of plain ASCII numbers, each with at most one
# `-` before it: bare values (`{0, 1}`) or `key: value` pairs (`{0: 0.25}`), a
# trailing comma allowed.  Only these shapes match, so a block holds no bad
# literal (those are reported before any parse error, wherever they are) and
# reads as ordinary tokens: the parser takes it in one split (`_Parser.block`)
# or re-reads it token by token (`_unblock`), with the same result either way.
_CELL = r"[ \t\r\n]*-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[ \t\r\n]*"
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<nl>\n)
  | \#[^\n]*
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    (?=(?P<odd>\.|(?:[eE][+-]?)?[^\W\d_a-zA-Z])|)
  | (?P<ident>[a-zA-Z_]\w*)
  | (?P<wide>[^\W\d]\w*)
  | (?P<block>\{(?:CELL(?:,CELL)*|CELL:CELL(?:,CELL:CELL)*),?[ \t\r\n]*\})
  | (?P<symbol>[=!<>]=|[{}\[\]():,|=+\-*/<>])
  | (?P<other>[^ \t\r])
)""".replace("CELL", _CELL), re.VERBOSE)

# A token is [kind, text, line, column]; kind is "number", "ident", "block",
# keyword or symbol text, or "eof".  A list, not a tuple: CPython keeps up to
# 2,000 freed tuples of each length for reuse, and kept token tuples, spread
# over memory, raised peak RSS by about 1 MB over 5,000 operations of
# perfbench's wide_variation workload (CPython 3.11, x86-64).
Token = list


def _scalar(text: str, i: int, line: int, column: int) -> str:
    """The number literal at `i` by the character rules (`str.isdigit` digits
    and points, then an exponent if a digit follows its mark; `_TOKEN` matched
    it if valid), or the ParseError for a bad literal or a stray character."""
    c, n, j = text[i], len(text), i + 1
    if not (c.isdigit() or (c == "." and text[j:j + 1].isdigit())):
        raise ParseError(f"unexpected character {c!r}", line, column)
    while j < n and (text[j].isdigit() or text[j] == "."):
        j += 1
    if j < n and text[j] in "eE":
        k = j + 2 if j + 1 < n and text[j + 1] in "+-" else j + 1
        if k < n and text[k].isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
    try:
        float(text[i:j])
    except ValueError:
        raise ParseError(f"bad number literal '{text[i:j]}'", line, column) from None
    return text[i:j]


def _tokenize(text: str, line: int = 1, base: int = -1) -> list[Token]:
    """The tokens of `text`, which starts on `line` at column `-base`."""
    tokens: list[Token] = []
    # base: the offset of the line's newline; column = offset - base
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # a comment
            continue
        if kind == "nl":
            line += 1
            base = m.end() - 1
            continue
        if kind == "odd":
            kind = "number"
            _scalar(text, m.start(kind), line, m.start(kind) - base)  # same literal, or raises
        word = m[kind]
        column = m.end() - len(word) - base
        if kind == "symbol" or (kind == "ident" and word in KEYWORDS):
            kind = word
        elif kind == "wide" and word[0].isalpha():
            kind = "ident"
        elif kind in ("wide", "other"):  # no letter or decimal digit starts it: `_scalar` raises
            _scalar(text, m.start(kind), line, column)
        tokens.append([kind, word, line, column])
        if kind == "block" and "\n" in word:  # its line ends
            line += word.count("\n")
            base = m.end() - len(word) + word.rindex("\n")
    # A comment on the last line runs to the end of the text, and the end is at its `#`.
    end = text.find("#", base + 1)
    tokens.append(["eof", "", line, (len(text) if end < 0 else end) - base])
    return tokens


def _unblock(token: Token) -> list[Token]:
    """A block token as the ordinary tokens of its text, at its place."""
    _, text, line, column = token
    return [["{", "{", line, column], *_tokenize(text[1:], line, -column - 1)[:-1]]


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables: list[md.Variable] = []
        self.parameters: list[md.Parameter] = []
        self.mechanisms: dict[str, md.Mechanism] = {}
        # name -> token of first declaration, for duplicate reporting
        self.declared: dict[str, Token] = {}
        # deferred identifier references checked once declarations are in
        self.pending_refs: list[tuple[str, Token, str]] = []
        # variable -> first token of its mechanism statement (else of its
        # declaration), where validation diagnostics about it are reported
        self.statements: dict[str, Token] = {}
        self.statement: Token | None = None
        self.depth = 0

    # --- token plumbing -------------------------------------------------

    def peek(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] == "block":  # not read in one split: the descent reads its tokens
            self.tokens[self.pos:self.pos + 1] = _unblock(tok)
            tok = self.tokens[self.pos]
        return tok

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def block(self, pairs: bool) -> list[float] | dict[float, float] | None:
        """The numbers of a block token at the cursor, read in one split: its
        values, or its `key: value` pairs as a dict when `pairs`.  None if the
        next token is no block of that shape, or a key repeats: the descent
        then reads the same text, and reports any error at its place."""
        kind, text = self.tokens[self.pos][:2]
        if kind != "block" or (":" in text) != pairs:
            return None
        cells = text[1:-1].replace(":", ",").split(",")
        if not cells[-1].strip():  # a trailing comma
            cells.pop()
        numbers = list(map(float, cells))
        if not pairs:
            self.pos += 1
            return numbers
        table = dict(zip(numbers[::2], numbers[1::2]))
        if 2 * len(table) < len(numbers):  # a key repeats
            return None
        self.pos += 1
        return table

    def accept(self, kind: str) -> Token | None:
        if self.peek()[0] == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok[0] != kind:
            what = what or (f"'{kind}'" if kind in KEYWORDS else kind)
            raise ParseError(
                f"expected {what}, got '{tok[1] or 'end of input'}'",
                tok[2], tok[3],
            )
        return self.next()

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

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
        while (tok := self.next())[0] != "eof":
            statement = self.STATEMENTS.get(tok[0])
            if statement is not None:
                self.statement = tok
                statement(self)
            elif tok[0] in KEYWORDS:
                self.fail(f"unexpected keyword '{tok[1]}' at statement level", tok)
            else:
                self.fail(f"expected a statement keyword, got '{tok[1]}'", tok)
        if not self.variables:
            raise ParseError("no variables declared", 1, 1)
        self.resolve_references()
        model = md.Model(tuple(self.variables), self.mechanisms, tuple(self.parameters))
        diags = md.diagnostics(model)
        if diags:  # at the statement the first diagnostic is about
            tok = self.statements.get(diags[0][0], ["", "", 1, 1])
            raise ParseError("; ".join(diag for _, diag in diags), tok[2], tok[3])
        return model

    def declare(self, tok: Token):
        if tok[1] in self.declared:
            self.fail(f"duplicate declaration of '{tok[1]}'", tok)
        self.declared[tok[1]] = tok

    def parse_param(self):
        name = self.expect("ident", "parameter name")
        self.declare(name)
        self.expect("in")
        self.expect("[")
        bounds = []
        for end in (",", "]"):
            tok = self.peek()
            bounds.append(self.parse_number())
            if not math.isfinite(bounds[-1]):
                self.fail(f"parameter '{name[1]}' bound {bounds[-1]!r} is not finite", tok)
            self.expect(end)
        lower, upper = bounds
        if lower > upper:
            self.fail(f"parameter '{name[1]}' has empty range", name)
        self.parameters.append(md.Parameter(name[1], lower, upper))

    def parse_var(self):
        name = self.expect("ident", "variable name")
        self.declare(name)
        self.expect("in")
        values = self.block(pairs=False)
        if values is None:
            self.expect("{")
            values = [self.parse_number()]
            while self.accept(","):
                if self.peek()[0] == "}":
                    break
                values.append(self.parse_number())
            self.expect("}")
        try:
            support = md.FiniteSupport(tuple(values))
        except md.ModelError as err:
            self.fail(str(err), name)
        self.variables.append(md.Variable(name[1], support))
        self.statements.setdefault(name[1], self.statement)

    def mechanism_target(self) -> Token:
        name = self.expect("ident", "variable name")
        if name[1] in self.mechanisms:
            self.fail(f"variable '{name[1]}' already has a mechanism", name)
        self.pending_refs.append((name[1], name, "variable"))
        self.statements[name[1]] = self.statement
        return name

    def parse_parent_list(self) -> tuple[str, ...]:
        self.expect("|")
        parents = [self.expect("ident", "parent name")]
        while self.accept(","):
            parents.append(self.expect("ident", "parent name"))
        for p in parents:
            self.pending_refs.append((p[1], p, "variable"))
        return tuple(p[1] for p in parents)

    def parse_root(self):
        name = self.mechanism_target()
        self.mechanisms[name[1]] = md.Root(self.parse_prob_row())

    def parse_table(self, parse_key, parse_value, what: str) -> dict:
        """`{key: value, ...}`, a trailing comma allowed; a key given twice is
        reported at its first token."""
        self.expect("{")
        table = {}
        while True:
            tok = self.peek()
            key = parse_key()
            if key in table:
                self.fail(f"duplicate {what} {key!r}", tok)
            self.expect(":")
            table[key] = parse_value()
            if not self.accept(",") or self.peek()[0] == "}":
                break
        self.expect("}")
        return table

    def parse_prob_row(self) -> dict[float, md.Entry]:
        row = self.block(pairs=True)
        if row is None:
            row = self.parse_table(self.parse_number, self.parse_prob_entry, "entry for")
        return row

    def parse_body(self, plain: bool = False) -> ex.Expr:
        """An expression, with no literal that is not finite unless `plain` and it
        is the whole body (a table entry: the model checks it, as for blocks)."""
        start, self.nonfinite = self.peek(), None
        body = self.parse_expr()
        if ex.depth(body) > MAX_DEPTH:
            self.fail(f"expression tree deeper than {MAX_DEPTH} levels", start)
        if self.nonfinite and not (plain and isinstance(body, ex.Num)):
            tok, value = self.nonfinite
            self.fail(f"number literal {value!r} is not finite", tok)
        return body

    def parse_prob_entry(self) -> md.Entry:
        start = self.peek()
        entry = self.parse_body(plain=True)
        if isinstance(entry, ex.Num):
            return entry.value
        for ident in sorted(ex.free_names(entry)):
            self.pending_refs.append((ident, start, "parameter"))
        return entry

    def parse_cpt(self):
        name = self.mechanism_target()
        parents = self.parse_parent_list()
        rows = self.parse_table(partial(self.parse_key, len(parents)), self.parse_prob_row, "row")
        self.mechanisms[name[1]] = md.CPT(parents, rows)

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
        name = self.mechanism_target()
        self.expect("=")
        body = self.parse_body()
        for ident in sorted(ex.free_names(body)):
            self.pending_refs.append((ident, name, "variable or parameter"))
        # Parents are resolved after all declarations are known.
        self.mechanisms[name[1]] = ("def", body)  # type: ignore[assignment]

    def parse_fun(self):
        name = self.mechanism_target()
        parents = self.parse_parent_list()
        table = self.parse_table(partial(self.parse_key, len(parents)), self.parse_number, "row")
        self.mechanisms[name[1]] = md.Deterministic(parents, table=table)

    # Each statement keyword's parser: looked up, not spelled as a method name.
    STATEMENTS = {"param": parse_param, "var": parse_var, "root": parse_root,
                  "cpt": parse_cpt, "def": parse_def, "fun": parse_fun}

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
        value = float(tok[1])
        if self.peek()[0] == "/":
            self.next()
            denom_tok = self.expect("number", "denominator")
            denom = float(denom_tok[1])
            if denom == 0:
                self.fail("zero denominator", denom_tok)
            value /= denom
        return -value if negative else value

    def parse_expr(self) -> ex.Expr:
        with self.nested():
            if self.accept("if"):
                cond = self.parse_binary(ex.PREC_OR)
                self.expect("then")
                then = self.parse_binary(ex.PREC_OR)
                self.expect("else")
                return ex.IfElse(cond, then, self.parse_expr())
            return self.parse_binary(ex.PREC_OR)

    def parse_binary(self, level: int) -> ex.Expr:
        """Precedence climbing over ex.BINARY_PREC: an operand, then every
        operator binding at `level` or tighter.  `not` is a prefix at its own
        level, and comparisons do not chain."""
        if level <= ex.PREC_NOT and self.accept("not"):
            with self.nested():
                node = ex.Unary("not", self.parse_binary(ex.PREC_NOT))
            below = ex.PREC_NOT
        else:
            node = self.parse_unary()
            below = ex.PREC_ATOM
        # Left-associative: after an operator only a looser or equal one may
        # follow here, as the right operand took every tighter one.
        while level <= (prec := ex.BINARY_PREC.get(self.peek()[0], -1)) < below:
            op = self.next()[0]
            node = ex.Binary(op, node, self.parse_binary(prec + 1))
            below = prec if prec == ex.PREC_CMP else prec + 1
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
        if tok[0] == "number":
            value = self.parse_number()
            if not math.isfinite(value):  # 1e400, or a quotient like 1e400/1e400
                self.nonfinite = self.nonfinite or (tok, value)
            return ex.Num(value)
        if tok[0] == "xor":
            self.next()
            self.expect("(")
            a = self.parse_expr()
            self.expect(",")
            b = self.parse_expr()
            self.expect(")")
            return ex.Call("xor", (a, b))
        if tok[0] == "if":
            return self.parse_expr()
        if tok[0] == "ident":
            self.next()
            return ex.Name(tok[1])
        if tok[0] == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        self.fail(f"expected an expression, got '{tok[1] or 'end of input'}'")


def parse_model(text: str) -> md.Model:
    """Parse `.sem` source into a validated Model.

    Raises ParseError (with line/column) on lexical errors, unknown or
    duplicate identifiers, malformed tables, and cycles.
    """
    return _Parser(text).parse()


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
