"""Number-only `{ ... }` blocks read in one split (`dsl._Parser.block`)
against the token-by-token descent: the same parser fed the character-at-a-time
scanner's stream (`helpers.reference_tokenize`), which has no block tokens.
Both must give the same model, to the bit of every support value and table
entry, or the same ParseError text, line and column."""

import random
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from helpers import MODELS_DIR, load_model_text, random_dsl_model, reference_tokenize
from vce import dsl
from vce import expr as ex
from vce import model as md
from vce.errors import ParseError

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import chain_model, fun_model, wide_model  # noqa: E402


def _bits(x) -> str:
    return f"{type(x).__name__} {float.hex(x)}" if isinstance(x, float) else ex.to_text(x)


def _numbers(model: md.Model) -> list:
    out = [[_bits(x) for x in v.support.values] for v in model.variables]
    for mech in model.mechanisms.values():
        if isinstance(mech, md.Root):
            rows = {(): mech.table}
        elif isinstance(mech, md.CPT):
            rows = mech.rows
        else:
            continue
        out += [[_bits(k) for k in key] + [(_bits(v), _bits(e)) for v, e in row.items()]
                for key, row in rows.items()]
    return out


def _outcome(text: str):
    try:
        model = dsl.parse_model(text)
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.column)
    return dsl.serialize_model(model), _numbers(model)


def _assert_same(texts) -> list:
    """Assert each text parses as the descent parses it; the outcomes."""
    texts = list(texts)
    got = [_outcome(text) for text in texts]
    with mock.patch.object(dsl, "_tokenize", reference_tokenize):
        want = [_outcome(text) for text in texts]
    for text, g, w in zip(texts, got, want):
        assert g == w, repr(text)
    return got


def _blocks(text: str) -> int:
    return sum(tok[0] == "block" for tok in dsl._tokenize(text))


def _example_texts() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(MODELS_DIR.glob("*.sem"))]


def _perfbench_texts() -> list[str]:
    rng = random.Random(26)
    texts = [chain_model(rng, k)[0] for k in (2, 5, 9)]
    texts += [wide_model(rng, l, s)[0] for l, s in ((48, 6), (128, 4))]
    return texts + [fun_model(rng, l, s) for l, s in ((10, 9), (12, 6))]


def _c13_texts() -> list[str]:
    rng = np.random.default_rng(1313)
    texts = [dsl.serialize_model(random_dsl_model(rng)) for _ in range(1000)]
    base = load_model_text("sprinkler_functional.sem")
    junk = ["{", "~", "var", "1/0", ")", "then", "cpt |", "0:", "\x00", "param p in [1, 0]"]
    for _ in range(300):
        pos = int(rng.integers(0, len(base)))
        texts.append(base[:pos] + junk[int(rng.integers(0, len(junk)))] + base[pos + 2:])
    return texts


def test_c13_corpus_examples_and_perfbench_models():
    texts = _c13_texts() + _example_texts() + _perfbench_texts()
    got = _assert_same(texts)
    assert all(_blocks(text) for text in _example_texts() + _perfbench_texts())
    errors = sum(g[0] == "ParseError" for g in got)
    assert 0 < errors < len(texts)


# Number-only blocks, the shapes the tokenizer takes in one match, and some
# that it leaves to the ordinary tokens.
BLOCK = re.compile(r"\{[-+.,:0-9eE \t\r\n]*\}")
CELLS = ["- -0.5", "+1", "1e", "1.2.3", "-0", "1e999", "-1e999", "- 0.5", "--1", "1e+5",
         "1E-3", ".5", "1.", "-.5", "0x1", "1_0", "١", "1١", "²", "1/2", "(1)", "p", "1 2", ""]
INSERTS = ["#", "/", "(", ")", "\r", "\n", "\t", " ", "\xa0", "\x0c", "-", "+", ".", ":", ",",
           "{", "}", "e", "x", "١"]


def _mutate(text: str, rng: random.Random) -> str:
    """`text` with one edit inside one of its number-only blocks."""
    spans = [m.span() for m in BLOCK.finditer(text)]
    a, b = rng.choice(spans)  # text[a] is `{`, text[b - 1] is `}`
    block = text[a:b]
    edit = rng.randrange(9)
    if edit == 0:  # a digit replaced by a letter or a non-ASCII digit
        digits = [i for i, c in enumerate(block) if c.isdigit()]
        if digits:
            i = rng.choice(digits)
            block = block[:i] + rng.choice("xeE١²") + block[i + 1:]
    elif edit == 1:  # a character inserted
        i = rng.randrange(1, len(block))
        block = block[:i] + rng.choice(INSERTS) + block[i:]
    elif edit == 2:  # a `:` or `,` doubled
        marks = [i for i, c in enumerate(block) if c in ":,"]
        if marks:
            i = rng.choice(marks)
            block = block[:i] + block[i] + block[i:]
    elif edit == 3:  # one number replaced by an odd cell
        numbers = list(re.finditer(r"[0-9.eE+-]+", block))
        if numbers:
            m = rng.choice(numbers)
            block = block[:m.start()] + rng.choice(CELLS) + block[m.end():]
    elif edit == 4:  # a key or value repeated, or written as `-0`
        numbers = [m.group() for m in re.finditer(r"-?[0-9.eE+]+", block)]
        if len(numbers) > 1:
            i, j = rng.sample(range(len(numbers)), 2)
            parts = re.split(r"(-?[0-9.eE+]+)", block)
            parts[2 * j + 1] = "-0" if numbers[i] == "0" and rng.random() < 0.5 else numbers[i]
            block = "".join(parts)
    elif edit == 5:  # no closing brace
        block = block[:-1]
    elif edit == 6:
        block = rng.choice(["{}", "{ }", "{,}", "{\n}"])
    elif edit == 7:  # a trailing comma, and blanks or line ends around it
        block = block[:-1] + rng.choice([",", ", ", ",\n", " ,", "\n,\n", ",,"]) + "}"
    else:  # the block split over lines
        commas = [i for i, c in enumerate(block) if c == ","]
        for i in sorted(rng.sample(commas, min(len(commas), 2)), reverse=True):
            block = block[:i + 1] + "\n  " + block[i + 1:]
    return text[:a] + block + text[b:]


def test_mutations_inside_blocks():
    rng = random.Random(2626)
    perfbench = _perfbench_texts()
    sources = _example_texts() + perfbench[:3] + perfbench[5:]  # not the 8 kB wide models
    sources += [dsl.serialize_model(random_dsl_model(np.random.default_rng(s))) for s in range(40)]
    texts = [_mutate(rng.choice(sources), rng) for _ in range(4000)]
    got = _assert_same(texts)
    errors = sum(g[0] == "ParseError" for g in got)
    assert 0 < errors < len(texts)  # both models and errors are compared


HEAD = "var Z in {0, 1}\nvar X in {0, 1, 2}\n"
CASES = [
    # a var block in a root position and the reverse
    HEAD + "root X {0, 1, 2}",
    "var X in {0: 0.5, 1: 0.5}",
    # duplicate keys, and `0` and `-0`
    HEAD + "root X {0: 0.5, 1: 0.25, 0: 0.25}",
    HEAD + "root X {0: 0.5, -0: 0.25, 2: 0.25}",
    HEAD + "root Z {0: 1, 1: 0}\ncpt X | Z {(0): {0: 1, 1: 0, 2: 0}, (1): {1: 0.5, 1: 0.5, 2: 0}}",
    # equal support values
    "var X in {1, 1.0}",
    "var X in {0, -0}",
    "var X in {0,\n 1,\n 0}",
    # odd cells
    "var X in {- -0.5, 1}",
    "var X in {+1, 2}",
    "var X in {1e, 2}",
    "var X in {1.2.3}",
    "var X in {0, 1}\nvar X in {1.2.3}",
    "var X in {-0, 1e999}",
    HEAD + "root X {0: -0, 1: 1e999, 2: 0}",
    HEAD + "root X {0: 1e-400, 1: -1e-400, 2: 1}",
    HEAD + "root X {0: 0.5, 1: 0.5, 2: - 0}",
    # empty blocks, trailing commas
    "var X in {}",
    "var X in {0, 1,}",
    "var X in {0, 1,\n}",
    HEAD + "root X {0: 0.5, 1: 0.5, 2: 0,}",
    HEAD + "root X {}",
    # a block where an expression or a `cpt`/`fun` table is expected
    HEAD + "def Y = {1}",
    HEAD + "def Y = X + {0: 1}",
    HEAD + "root X {0: 0.5, 1: {0.5}, 2: 0}",
    HEAD + "root Z {0: 1, 1: 0}\ncpt X | Z {0: 1}",
    HEAD + "root Z {0: 1, 1: 0}\ncpt X | Z {}",
    HEAD + "fun X | Z {0, 1}",
    HEAD + "fun X | Z {}",
    HEAD + "fun X | Z {(0): {1}, (1): 2}",
    "param p in {0, 1}",
    "{0, 1}",
    "var X in {0, 1} {2}",
    HEAD + "root X {0: 0.5, 1: 0.5, 2: 0} {1: 0}",
    # no closing brace
    "var X in {0, 1",
    HEAD + "root X {0: 0.5, 1: 0.5, 2: 0\n",
    # multi-line blocks followed by tokens, and by a comment on the last line
    "var X in {0,\n 1,\n 2} var Y in {0: 1}",
    "var X in {0,\n 1,\n 2}\nroot X {0: 0.25,\n 1: 0.75,\n\t2: 0} root # c",
    "var X in {0,\n 1,\n 2}\nroot X {0: 0.25,\n 1: 0.75,\n\t2: 0} ~",
    "var X in {0,\r\n 1,\r\n 2}\r\nroot X {0: 0.25,\r\n 1: 0.75, 2: 0}\r\n",
    "var X in {0,\n 1}   # c",
    "var X in {0,\n 1} root X {0: 0.5,\n1: 0.5} cpt",
]


@pytest.mark.parametrize("text", CASES)
def test_blocks_at_their_edges(text):
    _assert_same([text])


@pytest.mark.parametrize("block, taken", [
    ("{0, 1}", True),
    ("{-0, 1e999, .5, 1., 1E-3, 1e+5}", True),
    ("{0: 0.5, -1: 0.5,}", True),
    ("{ 0 :\t0.5 ,\r\n 1: 0.5\n}", True),
    ("{0: 0.5, 0: 0.5}", True),  # its keys repeat: the parser re-reads it
    ("{}", False),
    ("{,}", False),
    ("{0, 1: 2}", False),
    ("{0: 1: 2}", False),
    ("{0,, 1}", False),
    ("{- -0.5}", False),
    ("{- 0.5}", False),
    ("{+1}", False),
    ("{1e}", False),
    ("{1/2}", False),
    ("{١}", False),
    ("{1 2}", False),
    ("{0: p}", False),
])
def test_the_tokenizer_takes_only_number_only_shapes(block, taken):
    assert (_blocks(block) == 1) == taken
    assert _blocks("var X in {0, 1}\nroot X " + block + " # c") == 1 + taken
