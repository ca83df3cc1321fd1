"""Golden digests of in-process `vce` CLI runs.

Each line of `cli_golden.json` is an argv and the sha256 of its
(exit code, stdout, stderr).  `test_cli_golden.py` reruns every argv and
compares digests, so any change in output, message or exit code shows.
Regenerate only when a change of output is intended:

    PYTHONPATH=src python tests/cli_golden.py

Argvs name models as `{models}/NAME.sem`, the dataset as `{csv}`, the small
datasets of `BAD_CSVS` as `{csvs}/NAME.csv` and the malformed models as
`{mutants}/NAME.sem` (with the models of `BAD_MODELS`); each is substituted before a run and put back in the
output before hashing.  The dataset and the malformed models (token-level
mutations of `models/*.sem`) are written from fixed seeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from vce.cli import main as vce_main
from vce.dsl import parse_model
from vce.model import Deterministic

HERE = Path(__file__).resolve().parent
MODELS_DIR = HERE.parent / "models"
GOLDEN = HERE / "cli_golden.json"
CSV_SEED = 20240607
CSV_ROWS = 400

DEGREES = ("0", "1/3", "1", "2")
VARIANTS = ("pace", "peace", "space", "apace")
SIGNS = ("abs", "positive", "negative")
FORMATS = ("table", "json")
BASES = ("2", repr(math.e))
BOUND = {"rare_disease.sem": "p=0.3", "sprinkler_functional.sem": "p=0.3"}
MUTANT_SEED = 20241018
MUTANTS = 200
# Keywords, operators, brackets and literals of the `.sem` grammar.
MUTANT_POOL = ("param", "var", "root", "cpt", "def", "fun", "in", "if", "then", "else",
               "and", "or", "not", "xor", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*",
               "/", "=", "(", ")", "{", "}", "[", "]", ",", ":", "|", "0", "1", "2", "0.5",
               "X", "p")
# Small datasets that `estimate` rejects or reads at an edge: a value outside
# sprinkler's {0, 1} supports (row 1's W before row 2's C), non-finite,
# non-numeric, ragged and header-only files, and a given column holding both
# -0 and 0 (in zeros.csv X = 1 is seen only at C = 1, so c0 = 0 lacks it).
BAD_CSVS = {
    "off": "C,R,S,W\n0,1,0,1\n1,0,1,2\n3,1,1,1\n0,0,0,0\n",
    "nan": "C,R,S,W\n0,1,0,1\n1,nan,1,0\n",
    "text": "C,R,S,W\n0,1,0,1\n1,0,yes,0\n",
    "ragged": "C,R,S,W\n0,1,0,1\n1,0,1\n",
    "header": "C,R,S,W\n",
    "zeros": "S,T,C,X,Y\n-0,1,0,0,1\n0,0,0,0,1\n0,0,1,1,2\n-0,1,1,1,3\n",
    # Y's sums over X = 0 overflow; Y's two means differ by more than the largest float.
    "big": "X,Y\n0,1e308\n0,1e308\n1,0\n",
    "spread": "X,Y\n0,1e308\n1,-1e308\n",
    # Y's means 0, 1.5e308, 0 are finite, but at d = 0 their variation is not.
    "peak": "X,Y\n0,0\n1,1.5e308\n2,0\n",
}
# Models that fail to parse or validate: a `def` on line 6 whose condition is
# not 0 or 1, failures in two mechanisms (the first an indented `cpt` on line
# 4), a variable without a mechanism, and a cycle; a valid model whose
# variation overflows at d = 0 (Y = 0, 1.5e308, 0 along X); parameter bounds
# that are not finite (an overflowing literal and inf/inf); a row key
# given twice in a `fun` and in a `cpt`; a second mechanism for X; and number
# literals that are not finite in a `def` body (1e400, inf/inf) and in a
# `root` entry (inf/inf).
# BOUND_MODELS are valid models whose binding fails for some p: a `root` entry
# that fails to evaluate for 0.5 <= p < 1, a `def` that leaves Y's support for
# p > 0.5, a `def` whose body fails for 0.5 < p < 1, and a `def` of `not`,
# `xor` and unary `-` that bind rebuilds.
BAD_MODELS = {
    "bad_if": "# a def whose 'if' condition is not 0 or 1\nvar X in {0, 1}\nvar Y in {0, 1}\n\n"
              "root X {0: 0.5, 1: 0.5}\ndef Y = if X * 0.75 then 1 else 0\n",
    "bad_two": "var X in {0, 1}\nvar Y in {0, 1, 2}\nvar W in {0, 1}\n"
               "  cpt W | X {(0): {0: 0.5, 1: 0.6}, (1): {0: 1, 1: 0}}\n"
               "root X {0: 0.5, 1: 0.5}\ndef Y = if X * 0.75 then 1 else 3\n",
    "bad_unset": "var X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n",
    "bad_cycle": "var X in {0, 1}\nvar Y in {0, 1}\ndef X = Y\ndef Y = X\n",
    "big": "var X in {0, 1, 2}\nvar Y in {0, 1.5e308}\nroot X {0: 0.25, 1: 0.5, 2: 0.25}\n"
           "fun Y | X {(0): 0, (1): 1.5e308, (2): 0}\n",
    "param_inf": "param p in [0, 1e400]\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                 "root X {0: p, 1: 1 - p}\ndef Y = X\n",
    "param_nan": "param p in [1e400/1e400, 1]\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                 "root X {0: p, 1: 1 - p}\ndef Y = X\n",
    "dup_fun": "var X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n"
               "fun Y | X { (0): 0, (0): 1, (1): 1 }\n",
    "dup_cpt": "var X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n"
               "cpt Y | X {\n  (0): {0: 1, 1: 0},\n  (0): {0: 0, 1: 1},\n  (1): {0: 0, 1: 1},\n}\n",
    "dup_mech": "var X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\nroot X {0: 1, 1: 0}\n"
                "def Y = X\n",
    "def_inf": "var X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n"
               "def Y = if X > 1e400 then 1 else X\n",
    "def_nan": "var X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n"
               "def Y = if X > 1e400/1e400 then 1 else X\n",
    "entry_nan": "param p in [0, 1]\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                 "root X {0: if p < 1e400/1e400 then 0 else p, 1: 1 - p}\ndef Y = X\n",
}
BOUND_MODELS = {
    "bind_entry": "param p in [0, 1]\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                  "root X {0: if p < 0.5 or p then p else 0, 1: 1 - p}\ndef Y = X\n",
    "bind_def": "param p in [0, 1]\nvar X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n"
                "def Y = if p > 0.5 then 2 * X else X\n",
    "bind_body": "param p in [0, 1]\nvar X in {0, 1}\nvar Y in {0, 1}\nroot X {0: 0.5, 1: 0.5}\n"
                 "def Y = if p <= 0.5 or p then X else 0\n",
    "bind_unary": "param p in [0, 1]\nvar X in {0, 1}\nvar Y in {-1, 0, 1}\nroot X {0: p, 1: 1 - p}\n"
                  "def Y = xor(not X, p > 0.5) + -X\n",
}
_TOKEN = re.compile(r"#[^\n]*|[\d.]+(?:[eE][+-]?\d+)?|\w+|[=!<>]=|\S")


def write_csv(path: Path) -> None:
    """Records of the sprinkler model's variables, drawn from random.Random."""
    rng = random.Random(CSV_SEED)
    lines = ["C,R,S,W"]
    for _ in range(CSV_ROWS):
        c = int(rng.random() < 0.5)
        r = int(rng.random() < (0.8 if c else 0.2))
        s = int(rng.random() < (0.1 if c else 0.5))
        w = int(rng.random() < (0.01, 0.9, 0.9, 1.0)[2 * r + s])
        lines.append(f"{c},{r},{s},{w}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def mutate(text: str, rng: random.Random) -> str:
    """`text` with one to three tokens deleted, doubled, replaced by a grammar
    token or joined by one; half the picks fall on `def` lines."""
    for _ in range(rng.choice((1, 1, 2, 3))):
        spans = [m.span() for m in _TOKEN.finditer(text) if m.group()[0] != "#"]
        body = [s for s in spans if text.startswith("def", text.rfind("\n", 0, s[0]) + 1)]
        start, end = rng.choice(body if body and rng.random() < 0.5 else spans)
        tok, new = text[start:end], rng.choice(MUTANT_POOL)
        edit = rng.choice(("", f"{tok} {tok}", new, f"{tok} {new}", f"{new} {tok}"))
        text = text[:start] + edit + text[end:]
    return text


def mutants() -> list[tuple[str, str, str]]:
    """(file name, source model, text) of each malformed model."""
    rng = random.Random(MUTANT_SEED)
    sources = sorted(MODELS_DIR.glob("*.sem"))
    out = []
    for i in range(MUTANTS):
        source = rng.choice(sources)
        out.append((f"m{i:03d}.sem", source.name, mutate(source.read_text(encoding="utf-8"), rng)))
    return out


def write_inputs(tmp: Path) -> dict[str, str]:
    """Write the datasets and the malformed models under `tmp`; return the
    placeholder -> path substitutions for `digest`."""
    csv_path = tmp / "data.csv"
    write_csv(csv_path)
    csv_dir = tmp / "csvs"
    csv_dir.mkdir()
    for name, text in BAD_CSVS.items():
        (csv_dir / f"{name}.csv").write_text(text, encoding="utf-8")
    mutant_dir = tmp / "mutants"
    mutant_dir.mkdir()
    for name, _, text in mutants():
        (mutant_dir / name).write_text(text, encoding="utf-8")
    for name, text in {**BAD_MODELS, **BOUND_MODELS}.items():
        (mutant_dir / f"{name}.sem").write_text(text, encoding="utf-8")
    return {"{models}": str(MODELS_DIR), "{csv}": str(csv_path), "{csvs}": str(csv_dir),
            "{mutants}": str(mutant_dir)}


def digest(argv: list[str], subs: dict[str, str]) -> str:
    """sha256 of (exit code, stdout, stderr) for one in-process run; an argv
    that argparse rejects exits with its SystemExit code."""
    real = list(argv)
    for placeholder, path in subs.items():
        real = [a.replace(placeholder, path) for a in real]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = vce_main(real)
        except SystemExit as exc:
            code = exc.code
    texts = [out.getvalue(), err.getvalue()]
    for placeholder, path in subs.items():
        texts = [t.replace(path, placeholder) for t in texts]
    return hashlib.sha256(json.dumps([code, *texts]).encode()).hexdigest()


def _arrows():
    """(model file, model, binding argv, parent, child) for each arrow."""
    for path in sorted(MODELS_DIR.glob("*.sem")):
        model = parse_model(path.read_text(encoding="utf-8"))
        bind = ["--bind", BOUND[path.name]] if path.name in BOUND else []
        for name in model.topological_order():
            for parent in model.parents(name):
                yield path.name, model, bind, parent, name


def commands() -> list[list[str]]:
    """Effect queries, checks, sweeps and counterfactuals on every arrow into
    a deterministic node, baselines (and ANDE with the outcome's other parents
    as mediators) on every arrow, one zero-probability counterfactual per
    model, estimates on one CSV and on the small datasets (their errors), an
    effect query on each malformed model, effects that overflow, bindings and
    sweeps of BOUND_MODELS, unknown names, a CMI of a non-parent and malformed
    --bind and --axis options."""
    out: list[list[str]] = []
    queries: dict[str, list[str]] = {}
    for name, model, bind, cause, outcome in _arrows():
        path = f"{{models}}/{name}"
        query = [path, *bind, "--cause", cause, "--outcome", outcome]
        first = name not in queries
        queries.setdefault(name, query[1:])
        for base in BASES:
            for fmt in FORMATS:
                out.append(["baselines", *query, "--base", base, "--format", fmt])
        others = ",".join(p for p in model.parents(outcome) if p != cause)
        mediators = ["--mediators", others] if others else []
        for fmt in FORMATS:
            out.append(["baselines", *query, "--select", "ande", *mediators, "--format", fmt])
        support = [f"{v:g}" for v in model.support(cause).values]
        if first:  # evidence that its --context contradicts: zero probability, exit 2
            out.append(["counterfactual", path, *bind, "--evidence", f"{cause}={support[-1]}",
                        "--context", f"{cause}={support[0]}", "--do", f"{cause}={support[-1]}",
                        "--target", outcome])
        if not isinstance(model.mechanisms[outcome], Deterministic):
            continue
        for variant in VARIANTS:
            for degree in DEGREES:
                for fmt in FORMATS:
                    out.append(["eval", *query, "--variant", variant, "--degree", degree,
                                "--format", fmt])
            for sign in ("positive", "negative"):
                out.append(["eval", *query, "--variant", variant, "--sign", sign])
        for degree in DEGREES:
            out.append(["check", *query, "--degree", degree])
        out.append(["sweep", *query, "--axis", "d=0:2:0.25"])
        if bind:
            out.append(["sweep", *query, "--axis", "p=0:1:0.25", "--axis", "d=0:2:1"])
            out.append(["sweep", *query, "--axis", "d=0:2:1", "--axis", "p=0:1:0.25"])
            for variant in VARIANTS:
                for sign in SIGNS:
                    out.append(["sweep", *query, "--axis", "p=0:1:0.05", "--variant", variant,
                                "--sign", sign])
        for y in (f"{v:g}" for v in model.support(outcome).values):
            for x in support:
                cf = ["counterfactual", path, *bind, "--evidence", f"{outcome}={y}",
                      "--do", f"{cause}={x}", "--target", outcome]
                for fmt in FORMATS:
                    out.append([*cf, "--format", fmt])
                out.append([*cf[:4], "--context", f"{cause}={support[0]}", *cf[4:]])
    for given in ([], ["--given", "C"], ["--given", "C,S"]):
        for variant in VARIANTS:
            for degree in DEGREES:
                out.append(["estimate", "{csv}", "--cause", "R", "--outcome", "W", *given,
                            "--variant", variant, "--degree", degree])
        out.append(["estimate", "{csv}", "--cause", "R", "--outcome", "W", *given,
                    "--format", "json"])
    for c0 in ("0", "1"):
        out.append(["estimate", "{csv}", "--cause", "R", "--outcome", "W", "--given", "S",
                    "--covariate", "C", "--c0", c0])
    out.append(["estimate", "{csv}", "--model", "{models}/sprinkler.sem", "--cause", "S",
                "--outcome", "W", "--given", "C"])
    rw = ["--cause", "R", "--outcome", "W"]
    out.append(["estimate", "{csvs}/off.csv", "--model", "{models}/sprinkler.sem", *rw])
    for name in ("nan", "text", "ragged", "header"):
        out.append(["estimate", f"{{csvs}}/{name}.csv", *rw])
    out.append(["estimate", "{csv}", *rw, "--given", "S", "--covariate", "C", "--c0", "5"])
    xy = ["--cause", "X", "--outcome", "Y"]
    for given in ("S", "S,T"):
        out.append(["estimate", "{csvs}/zeros.csv", *xy, "--given", given, "--covariate", "C",
                    "--c0", "0"])
        out.append(["estimate", "{csvs}/zeros.csv", *xy, "--given", given, "--format", "json"])
    for given in ("Q", "R", "S,S"):
        out.append(["estimate", "{csv}", *rw, "--given", given])
    for name in ("big", "spread"):
        for fmt in FORMATS:
            out.append(["estimate", f"{{csvs}}/{name}.csv", *xy, "--format", fmt])
    for name in BAD_MODELS:
        out.append(["eval", f"{{mutants}}/{name}.sem", *xy])
    big, d0 = ["{mutants}/big.sem", *xy], ["--degree", "0"]
    for fmt in FORMATS:
        out.append(["eval", *big, *d0, "--format", fmt])
        out.append(["estimate", "{csvs}/peak.csv", *xy, *d0, "--format", fmt])
    out += [["eval", *big, *d0, "--variant", "apace"], ["sweep", *big, "--axis", "d=0:1:0.5"],
            ["check", *big, *d0]]
    for name, source, _ in mutants():
        out.append(["eval", f"{{mutants}}/{name}", *queries[source]])
    for name in BOUND_MODELS:
        model = ["{mutants}/" + name + ".sem", *xy]
        for p in ("0.3", "0.9"):
            out.append(["eval", *model, "--bind", f"p={p}"])
        out.append(["sweep", *model, "--axis", "p=0:1:0.25"])
        out.append(["sweep", *model, "--axis", "d=0:2:1", "--axis", "p=0:1:0.25"])
    sprinkler = "{models}/sprinkler.sem"
    out += [["eval", "{models}/sprinkler_functional.sem", "--bind", "p=0.3", "--cause", "R",
             "--outcome", "Q"],
            ["baselines", sprinkler, "--cause", "C", "--outcome", "W", "--select", "cmi"],
            ["baselines", sprinkler, "--cause", "R", "--outcome", "W", "--select", "ande",
             "--mediators", "Q"]]
    rare = ["{models}/rare_disease.sem", *xy]
    out.append(["eval", *rare, "--bind", "p"])
    for axis in ("d=0:1:0", "d", "d=0:1", "p=1:0:0.1"):
        out.append(["sweep", *rare, "--bind", "p=0.3", "--axis", axis])
    return out


def main() -> None:
    os.environ.pop("VCE_STATE_LIMIT", None)
    with tempfile.TemporaryDirectory() as tmp:
        subs = write_inputs(Path(tmp))
        entries = [json.dumps([argv, digest(argv, subs)]) for argv in commands()]
    GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} digests to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
