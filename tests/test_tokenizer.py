"""The compiled `.sem` tokenizer against the character-at-a-time scanner it
replaced (`helpers.reference_tokenize`): the same (kind, text, line, column)
stream once each block token is re-read into ordinary tokens, or a
ParseError with the same text, line and column."""

import random
import re

import numpy as np
import pytest

from helpers import MODELS_DIR, load_model_text, random_dsl_model, reference_tokenize
from vce.dsl import _tokenize, _unblock, serialize_model
from vce.errors import ParseError


def _unblocked(text: str):
    """`_tokenize(text)` with each block token re-read into ordinary tokens."""
    return [t for tok in _tokenize(text) for t in (_unblock(tok) if tok[0] == "block" else [tok])]


def _read(tokenize, text: str):
    try:
        return [tuple(tok) for tok in tokenize(text)]
    except ParseError as err:
        return ("ParseError", str(err), err.line, err.column)


def _assert_same(texts):
    for text in texts:
        assert _read(_unblocked, text) == _read(reference_tokenize, text), repr(text)


# Each case pins the behaviour of the character rules, where `\d`, `\w` and
# `[^\W\d]` would read otherwise, or where a column is easy to get wrong.
TRAPS = [
    ("²", ("ParseError", "1:1: bad number literal '²'", 1, 1)),
    ("X = ²", ("ParseError", "1:5: bad number literal '²'", 1, 5)),
    ("1²", ("ParseError", "1:1: bad number literal '1²'", 1, 1)),
    ("1e²", ("ParseError", "1:1: bad number literal '1e²'", 1, 1)),
    ("1e+²", ("ParseError", "1:1: bad number literal '1e+²'", 1, 1)),
    ("1e5²", ("ParseError", "1:1: bad number literal '1e5²'", 1, 1)),
    (" .²", ("ParseError", "1:2: bad number literal '.²'", 1, 2)),
    ("½", ("ParseError", "1:1: unexpected character '½'", 1, 1)),
    ("1.2.3", ("ParseError", "1:1: bad number literal '1.2.3'", 1, 1)),
    ("1..", ("ParseError", "1:1: bad number literal '1..'", 1, 1)),
    (".", ("ParseError", "1:1: unexpected character '.'", 1, 1)),
    ("a\xa0b", ("ParseError", "1:2: unexpected character '\\xa0'", 1, 2)),
    ("\t\r!", ("ParseError", "1:3: unexpected character '!'", 1, 3)),
    ("١", [("number", "١", 1, 1), ("eof", "", 1, 2)]),
    ("1١.٥e٣", [("number", "1١.٥e٣", 1, 1), ("eof", "", 1, 7)]),
    ("é x² x½ _é", [("ident", "é", 1, 1), ("ident", "x²", 1, 3), ("ident", "x½", 1, 6),
                    ("ident", "_é", 1, 9), ("eof", "", 1, 11)]),
    ("1e", [("number", "1", 1, 1), ("ident", "e", 1, 2), ("eof", "", 1, 3)]),
    ("1e+", [("number", "1", 1, 1), ("ident", "e", 1, 2), ("+", "+", 1, 3), ("eof", "", 1, 4)]),
    ("1eé", [("number", "1", 1, 1), ("ident", "eé", 1, 2), ("eof", "", 1, 4)]),
    ("1é", [("number", "1", 1, 1), ("ident", "é", 1, 2), ("eof", "", 1, 3)]),
    ("0x1", [("number", "0", 1, 1), ("ident", "x1", 1, 2), ("eof", "", 1, 4)]),
    ("1_0", [("number", "1", 1, 1), ("ident", "_0", 1, 2), ("eof", "", 1, 4)]),
    (".5 1. 1.e5 1e5.5", [("number", ".5", 1, 1), ("number", "1.", 1, 4),
                          ("number", "1.e5", 1, 7), ("number", "1e5", 1, 12),
                          ("number", ".5", 1, 15), ("eof", "", 1, 17)]),
    ("var X in {1}  # c", [("var", "var", 1, 1), ("ident", "X", 1, 5), ("in", "in", 1, 7),
                           ("{", "{", 1, 10), ("number", "1", 1, 11), ("}", "}", 1, 12),
                           ("eof", "", 1, 15)]),
    ("x # c\n  ", [("ident", "x", 1, 1), ("eof", "", 2, 3)]),
    ("\tx\r\n\ty <= 1\n", [("ident", "x", 1, 2), ("ident", "y", 2, 2), ("<=", "<=", 2, 4),
                           ("number", "1", 2, 7), ("eof", "", 3, 1)]),
    ("a#b#c\n#\nnot", [("ident", "a", 1, 1), ("not", "not", 3, 1), ("eof", "", 3, 4)]),
]


@pytest.mark.parametrize("text, want", TRAPS)
def test_traps_read_as_the_character_rules_read_them(text, want):
    assert _read(reference_tokenize, text) == want
    assert _read(_unblocked, text) == want


def test_c13_fuzz_corpus():
    # The texts c13 parses: 1,000 random models, then 300 junk insertions.
    rng = np.random.default_rng(1313)
    texts = [serialize_model(random_dsl_model(rng)) for _ in range(1000)]
    base = load_model_text("sprinkler_functional.sem")
    junk = ["{", "~", "var", "1/0", ")", "then", "cpt |", "0:", "\x00", "param p in [1, 0]"]
    for _ in range(300):
        pos = int(rng.integers(0, len(base)))
        texts.append(base[:pos] + junk[int(rng.integers(0, len(junk)))] + base[pos + 2:])
    _assert_same(texts)


def _example_texts() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in sorted(MODELS_DIR.glob("*.sem"))]


def test_example_and_random_models():
    rng = np.random.default_rng(2323)
    _assert_same(_example_texts() + [serialize_model(random_dsl_model(rng)) for _ in range(300)])


def _mutate(text: str, rng: random.Random) -> str:
    """`text` with one to three characters deleted, doubled, or swapped with the next."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) - 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        elif edit == 1:
            text = text[:i] + text[i] + text[i:]
        else:
            text = text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text


def test_character_mutations_of_models():
    rng = random.Random(2323)
    sources = _example_texts()
    sources += [serialize_model(random_dsl_model(np.random.default_rng(s))) for s in range(20)]
    texts = [_mutate(rng.choice(sources), rng) for _ in range(3000)]
    _assert_same(texts)
    errors = sum(isinstance(_read(reference_tokenize, t), tuple) for t in texts)
    assert 0 < errors < len(texts)  # both streams and errors are compared


# Characters where the character rules and the pattern's classes meet.
ALPHABET = (list("0123456789.eE+-xX_ \t\r\n#{}[]():,|=!<>*/~$")
            + ["²", "½", "١", "é", "ǅ", "\xa0", "　", "1e", "2.5", "var", "in", "not"])


def test_random_strings_over_the_tricky_alphabet():
    rng = random.Random(23)
    _assert_same("".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 14)))
                 for _ in range(20000))


def test_one_character_of_each_unicode_class_in_every_context():
    # The tokens depend on a character only through these predicates (and on
    # ASCII characters by value), so one character of each class stands for it.
    everything = "".join(map(chr, range(0x110000)))
    word, decimal = set(re.findall(r"\w", everything)), set(re.findall(r"\d", everything))
    classes = {}
    for c in everything:
        key = c if c.isascii() else (c.isdigit(), c.isdecimal(), c.isalpha(), c.isalnum(),
                                     c.isnumeric(), c.isspace(), c in word, c in decimal)
        classes.setdefault(key, []).append(c)
    contexts = ("{}", "1{}", "x{}", "1e{}", "1E-{}", ".{}", "1.{}", "{}1", "{}x", "{}.5",
                "1.5{}5", "# {}\n{}", "x {}")
    texts = [ctx.format(c, c) for chars in classes.values() for c in {chars[0], chars[-1]}
             for ctx in contexts]
    assert len(classes) > 128
    _assert_same(texts)
