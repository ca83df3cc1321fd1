"""Property test of the CLI's error contract.

Every argv built from a small grammar of subcommands, fixture models and
hostile values ends in exit 0, 1 or 2: `main()` returns, it never raises.
Accepted sweep grids stay below a few hundred points so each example is fast.
"""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MODELS_DIR
from vce.cli import main
from vce.dsl import parse_model
from vce.engine import sample
from vce.model import bind

TINY = """param p in [0, 1]
var X in {0, 1, 2}
var Z in {0, 1}
var Y in {0, 1, 2, 3}
root X {0: 0.25, 1: 0.5, 2: 0.25}
cpt Z | X { (0): {0: 1 - p, 1: p}, (1): {0: 0.5, 1: 0.5}, (2): {0: p, 1: 1 - p} }
def Y = X + Z
"""

NEAR_LITERAL = """var X in {0, 1/3}
root X {0: 0.5, 0.333333333333: 0.5}
var Y in {0, 1/3}
def Y = X
"""


# `def` bodies with a number literal that is not finite, alone or as a
# quotient: the reader rejects each at the literal (exit 1).
NONFINITE = {f"nonfinite{i}": TINY.replace("def Y = X + Z", f"def Y = if X > {literal} then X else Z")
             for i, literal in enumerate(("1e400", "-1e400", "1e400/1e400", "1e300/1e-300", "1e999"))}


def _chain_model(terms: int) -> str:
    body = " + ".join(["0"] * (terms - 2) + ["X", "Z"])
    return TINY.replace("def Y = X + Z", f"def Y = {body}")


NAMES = ["X", "Y", "Z", "R", "W", "Q"]
PAIRS = [f"--cause={c} --outcome={o}" for c in NAMES for o in NAMES]
NUMBERS = ["0", "1", "2", "0.5", "1/3", "-1", "nan", "inf", "-inf", "1/0", "1e308",
           "-1e308", "abc", ""]
ASSIGNMENTS = [f"{name}={value}" for name in NAMES + ["p", "q"] for value in NUMBERS]
BASES = ["2", "10", "1", "0", "-2", "nan", "inf", "1e308"]  # argparse's float() takes these
AXES = [f"{name}={start}:{stop}:{step}"
        for name in ("p", "d", "q")
        for start in ("0", "-1", "nan")
        for stop in ("1", "0.5", "1/0", "abc")
        for step in ("0.25", "1/3", "0", "-1", "nan", "1/0", "1e-300", "1e308")]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    sources = {"tiny": TINY, "near": NEAR_LITERAL, "chain200": _chain_model(200),
               "chain2000": _chain_model(2000), **NONFINITE}
    paths = {}
    for name, text in sources.items():
        paths[name] = root / f"{name}.sem"
        paths[name].write_text(text, encoding="utf-8")
    for name in ("bsc", "sprinkler_functional"):
        paths[name] = MODELS_DIR / f"{name}.sem"
    paths["missing"] = root / "missing.sem"
    columns, rows = sample(bind(parse_model(TINY), {"p": 0.3}), 200, seed=0)
    paths["data"] = root / "data.csv"
    with open(paths["data"], "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([columns, *rows])
    return {name: str(path) for name, path in paths.items()}


# Each model with the cause and outcome of its effect query.  The 2,000-term
# chain takes ~30 ms to reject, so it is drawn less often than the others.
MODELS = {"tiny": "X Y", "bsc": "X Y", "sprinkler_functional": "R W", "chain200": "X Y",
          "near": "X Y", "chain2000": "X Y", "missing": "X Y", **dict.fromkeys(NONFINITE, "X Y")}
DRAWN = ["tiny", "bsc", "sprinkler_functional", "chain200", "near", "missing"] * 6 + ["chain2000", *NONFINITE]


@st.composite
def argvs(draw):
    """An argv whose file arguments are keys of the `files` fixture."""
    def opt(flag, values):  # FLAG=VALUE, so that "-inf" is not read as a flag
        value = draw(st.sampled_from([None, *values]))
        return [] if value is None else [f"{flag}={value}"]

    command = draw(st.sampled_from(
        ["eval", "sweep", "counterfactual", "baselines", "estimate", "check"]))
    name = draw(st.sampled_from(DRAWN))
    cause, outcome = MODELS[name].split()
    query = (draw(st.sampled_from([None] * 6 + PAIRS))
             or f"--cause={cause} --outcome={outcome}").split()
    common = [name] + opt("--format", ["table", "json"]) + opt("--bind", ASSIGNMENTS)
    common += opt("--bind", ASSIGNMENTS[::5])
    degree = opt("--degree", NUMBERS) + opt("--variant", ["pace", "peace", "space", "apace"])
    degree += opt("--sign", ["abs", "positive", "negative"])
    if command in ("eval", "check"):
        return [command] + common + query + degree
    if command == "sweep":
        return [command] + common + query + degree + opt("--axis", AXES) + opt("--axis", AXES)
    if command == "counterfactual":
        argv = [command] + common + opt("--context", ASSIGNMENTS)
        for flag, values in (("--evidence", ASSIGNMENTS), ("--do", ASSIGNMENTS), ("--target", NAMES)):
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
        return argv
    if command == "baselines":
        argv = [command] + common + query + opt("--x0", NUMBERS) + opt("--x1", NUMBERS)
        argv += opt("--select", ["ace", "acde", "ande", "janzing", "mi,cmi", "foo", ","])
        argv += opt("--controlled", ["Z", "Q", "X,Z"]) + opt("--mediators", ["Z", "Q", ""])
        return argv + opt("--base", BASES)
    data = draw(st.sampled_from(["data", "data", "missing", "near"]))
    argv = [command, data] + query + degree + opt("--given", ["Z", "X", "Q", "Z,X"])
    argv += opt("--covariate", NAMES) + opt("--c0", NUMBERS)
    return argv + opt("--model", sorted(MODELS))


@settings(max_examples=500, deadline=None)
@given(argv=argvs())
def test_cli_exits_0_1_or_2(files, argv):
    argv = [files.get(arg, arg) for arg in argv]
    assert main(argv) in (0, 1, 2), argv
