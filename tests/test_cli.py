import csv
import json
import math
import sys

import pytest

from helpers import MODELS_DIR, load_model_text
from vce import engine, variational
from vce.cli import MAX_GRID_POINTS, main
from vce.engine import sample
from vce.dsl import parse_model
from vce.model import bind
from vce.variational import EffectQuery, effect

BSC = str(MODELS_DIR / "bsc.sem")
RAMP = str(MODELS_DIR / "ramp_reset.sem")
RARE = str(MODELS_DIR / "rare_disease.sem")
SPRINKLER = str(MODELS_DIR / "sprinkler.sem")
SPRINKLER_F = str(MODELS_DIR / "sprinkler_functional.sem")
CROSSOVER = str(MODELS_DIR / "crossover.sem")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_bsc(capsys):
    code, out, _ = run(capsys, "eval", BSC, "--cause", "X", "--outcome", "Y", "--degree", "1")
    assert code == 0
    assert "= 1" in out


def test_eval_apace_ramp(capsys):
    code, out, _ = run(
        capsys, "eval", RAMP, "--cause", "X", "--outcome", "Y",
        "--degree", "1", "--variant", "apace",
    )
    assert code == 0
    assert f"{59 / 36:.12g}"[:10] in out


def test_eval_fractional_degree(capsys):
    code, out, _ = run(
        capsys, "eval", CROSSOVER, "--cause", "X", "--outcome", "Y", "--degree", "1/3"
    )
    assert code == 0


def test_eval_json_schema(capsys):
    code, out, _ = run(
        capsys, "eval", SPRINKLER_F, "--bind", "p=0.5", "--cause", "R",
        "--outcome", "W", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"query", "degree", "variant", "sign", "value", "breakdown"}
    assert doc["query"] == {"cause": "R", "outcome": "W"}
    assert {"z", "probability", "value", "partition"} == set(doc["breakdown"][0])
    recomposed = sum(b["probability"] * b["value"] for b in doc["breakdown"])
    assert doc["value"] == pytest.approx(recomposed, abs=1e-9)


def test_eval_unknown_variable_exit_2(capsys):
    code, _, err = run(capsys, "eval", BSC, "--cause", "Q", "--outcome", "Y")
    assert code == 2
    assert "unknown variable" in err


def test_eval_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.sem"
    bad.write_text("var X in {0, 1}\nroot X {0: 0.5, 1: 0.7}\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", str(bad), "--cause", "X", "--outcome", "X")
    assert code == 1
    assert "parse error" in err


def test_eval_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "eval", "/nonexistent.sem", "--cause", "X", "--outcome", "Y")
    assert code == 1


def test_eval_past_the_state_limit_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("VCE_STATE_LIMIT", "4")
    code, out, err = run(capsys, "eval", SPRINKLER_F, "--bind", "p=0.5",
                         "--cause", "R", "--outcome", "W")
    assert code == 2
    assert out == ""
    assert "exceeds limit 4" in err


@pytest.mark.parametrize("raw", ["abc", "1.5e3", "0", "-5"])
def test_malformed_state_limit_exit_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("VCE_STATE_LIMIT", raw)
    code, out, err = run(capsys, "eval", BSC, "--cause", "X", "--outcome", "Y")
    assert code == 2
    assert out == ""
    assert err == f"error: VCE_STATE_LIMIT must be an integer >= 1, got '{raw}'\n"


def test_state_limit_with_surrounding_spaces_is_accepted(capsys, monkeypatch):
    monkeypatch.setenv("VCE_STATE_LIMIT", " 12 ")
    code, out, err = run(capsys, "eval", BSC, "--cause", "X", "--outcome", "Y")
    assert code == 0
    assert err == ""


def test_sweep_rare_disease_closed_form(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", RARE, "--cause", "X", "--outcome", "Y",
        "--axis", "p=0:1:0.25", "--degree", "1", "--out", str(out_csv),
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "value"]
    assert len(rows) == 6
    for p_text, v_text in rows[1:]:
        p, v = float(p_text), float(v_text)
        assert v == pytest.approx(4 * p * (1 - p), abs=1e-9)


def test_sweep_two_axes_shape_and_order(capsys, tmp_path):
    out_csv = tmp_path / "grid.csv"
    code, _, _ = run(
        capsys, "sweep", SPRINKLER_F, "--cause", "R", "--outcome", "W",
        "--axis", "p=0:1:0.5", "--axis", "d=0:1:0.5", "--out", str(out_csv),
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "d", "value"]
    assert len(rows) == 10  # 3 x 3 grid + header
    grid = [(float(r[0]), float(r[1])) for r in rows[1:]]
    assert grid == sorted(grid)  # lexicographic over axes


def test_sweep_full_grid_dominance(capsys, tmp_path):
    # 21 p-values x 11 degrees = 231 rows; R's sweep dominates S's pointwise.
    out_r = tmp_path / "r.csv"
    out_s = tmp_path / "s.csv"
    for cause, path in (("R", out_r), ("S", out_s)):
        code, _, _ = run(
            capsys, "sweep", SPRINKLER_F, "--cause", cause, "--outcome", "W",
            "--axis", "p=0:1:0.05", "--axis", "d=0:1:0.1", "--out", str(path),
        )
        assert code == 0
    with open(out_r, newline="") as fh:
        rows_r = list(csv.reader(fh))
    with open(out_s, newline="") as fh:
        rows_s = list(csv.reader(fh))
    assert len(rows_r) == len(rows_s) == 232  # header + 231 grid points
    for (pr, dr, vr), (ps, ds, vs) in zip(rows_r[1:], rows_s[1:]):
        assert (pr, dr) == (ps, ds)
        assert float(vr) > float(vs), (pr, dr)


def test_sweep_jobs_output_identical(capsys, tmp_path):
    out_1 = tmp_path / "seq.csv"
    out_4 = tmp_path / "par.csv"
    for jobs, path in ((1, out_1), (4, out_4)):
        code, _, _ = run(
            capsys, "sweep", SPRINKLER_F, "--cause", "R", "--outcome", "W",
            "--axis", "p=0:1:0.2", "--axis", "d=0:1:0.25",
            "--jobs", str(jobs), "--out", str(path),
        )
        assert code == 0
    assert out_1.read_text() == out_4.read_text()


def test_sweep_single_point_equals_eval(capsys):
    code, out, _ = run(
        capsys, "sweep", RARE, "--cause", "X", "--outcome", "Y",
        "--axis", "p=0.3:0.3:1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,value"
    assert float(lines[1].split(",")[1]) == pytest.approx(4 * 0.3 * 0.7, abs=1e-9)


def test_sweep_unknown_axis(capsys):
    code, _, err = run(
        capsys, "sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "q=0:1:0.5"
    )
    assert code == 2
    assert "axis" in err


def test_counterfactual_bsc(capsys):
    code, out, _ = run(
        capsys, "counterfactual", BSC, "--evidence", "Y=1,X=0", "--do", "X=1",
        "--target", "Y",
    )
    assert code == 0
    assert "P(Y=0) = 1" in out


def test_counterfactual_sprinkler_context(capsys):
    p = 0.5
    code, out, _ = run(
        capsys, "counterfactual", SPRINKLER_F, "--bind", f"p={p}",
        "--evidence", "W=1", "--context", "R=0", "--do", "R=1",
        "--target", "W", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["distribution"]["0.0"] == pytest.approx(0.0439 / (0.3229 - 0.09 * p), abs=1e-9)


def test_baselines_controlled_set_named_twice_exit_2(capsys):
    code, out, err = run(capsys, "baselines", SPRINKLER, "--cause", "R", "--outcome", "W",
                         "--select", "acde", "--controlled", "S,S")
    assert (code, out) == (2, "")
    assert err == "error: controlled set names a variable twice: ['S', 'S']\n"


def test_baselines_mediator_named_twice_exit_2(capsys):
    code, out, err = run(capsys, "baselines", BSC, "--cause", "X", "--outcome", "Y",
                         "--select", "ande", "--mediators", "Z,Z")
    assert (code, out) == (2, "")
    assert err == "error: mediators name a variable twice: ['Z', 'Z']\n"


def test_baselines_sprinkler_table(capsys):
    code, out, _ = run(
        capsys, "baselines", SPRINKLER, "--cause", "R", "--outcome", "W",
        "--base", str(math.e),
    )
    assert code == 0
    assert "0.653" in out
    assert "0.351431" in out
    code, out, _ = run(
        capsys, "baselines", SPRINKLER, "--cause", "S", "--outcome", "W",
        "--base", str(math.e), "--format", "json",
    )
    doc = json.loads(out)
    assert doc["ace"] == pytest.approx(0.495, abs=1e-9)
    assert doc["janzing"] == pytest.approx(0.270828, abs=1e-5)
    assert doc["mi"] == pytest.approx(0.125463, abs=1e-5)
    assert doc["cmi"] == pytest.approx(0.37072701, abs=1e-5)


def test_estimate_csv(capsys, tmp_path):
    model = parse_model(load_model_text("sprinkler.sem"))
    cols, rows = sample(model, 20000, seed=3)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        w.writerows(rows)
    code, out, _ = run(
        capsys, "estimate", str(path), "--cause", "S", "--outcome", "W",
        "--given", "R", "--degree", "1", "--variant", "peace", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["records"] == 20000
    assert 0 <= doc["value"] <= 4.0


def test_estimate_covariate_flags(capsys, tmp_path):
    rows = ["X,C,Y"]
    for x in (0, 1, 2):
        for c in (0, 1):
            for _ in range(4):
                rows.append(f"{x},{c},{x * 2}")
    path = tmp_path / "cov.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "estimate", str(path), "--cause", "X", "--outcome", "Y",
        "--covariate", "C", "--c0", "1", "--degree", "1", "--variant", "peace",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    # Uniform X: each consecutive pair weighs (4/9)^1; differences are 2.
    assert doc["value"] == pytest.approx(2 * (4 / 9) * 2, abs=1e-9)


def test_check_reports_ok(capsys):
    code, out, _ = run(
        capsys, "check", SPRINKLER_F, "--bind", "p=0.37", "--cause", "R",
        "--outcome", "W", "--degree", "0.8",
    )
    assert code == 0
    assert out.startswith("OK, max deviation")


@pytest.mark.parametrize("offset, code, line", [
    (1e-11, 0, "OK, max deviation 1.000e-11 (2 z-strata)"),
    (1e-3, 3, "MISMATCH: max deviation 1.000e-03 over 2 z-strata"),
])
def test_check_reports_the_brute_force_deviation(capsys, monkeypatch, offset, code, line):
    # The brute force is shifted by `offset`: within the tolerance it is reported, past it a mismatch.
    real = variational.brute_force_total_variation

    def shifted(*args):
        value, chain = real(*args)
        return value + offset, chain

    monkeypatch.setattr(variational, "brute_force_total_variation", shifted)
    assert run(capsys, "check", BSC, "--cause", "X", "--outcome", "Y") == (code, line + "\n", "")


@pytest.mark.parametrize("argv, message", [
    (["eval", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p"], "expected NAME=VALUE, got 'p'"),
    (["sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "d=0:1:0"], "axis step must be positive"),
    (["sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "d"], "expected AXIS=START:STOP:STEP, got 'd'"),
    (["sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "d=0:1"], "expected START:STOP:STEP in 'd=0:1'"),
    (["eval", BSC, "--cause", "X", "--outcome", "Q"], "unknown variable 'Q'"),
    (["baselines", SPRINKLER, "--cause", "C", "--outcome", "W", "--select", "cmi"], "'C' is not a parent of 'W'"),
    (["baselines", SPRINKLER, "--cause", "R", "--outcome", "W", "--select", "ande", "--mediators", "Q"],
     "unknown variable 'Q'"),
])
def test_malformed_options_and_unknown_names_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_check_ramp(capsys):
    code, out, _ = run(capsys, "check", RAMP, "--cause", "X", "--outcome", "Y")
    assert code == 0
    assert "OK" in out


def test_check_ten_value_random_model(capsys, tmp_path):
    import numpy as np

    from helpers import random_effect_model
    from vce.dsl import serialize_model

    rng = np.random.default_rng(404)
    model, cause, outcome = random_effect_model(rng, x_size=10)
    path = tmp_path / "wide.sem"
    path.write_text(serialize_model(model), encoding="utf-8")
    code, out, _ = run(
        capsys, "check", str(path), "--cause", cause, "--outcome", outcome,
        "--degree", "0.3",
    )
    assert code == 0
    assert out.startswith("OK, max deviation")


def test_check_builds_joint_once(capsys, monkeypatch):
    builds = []
    real = engine.build_joint

    def counted(model):
        builds.append(model)
        return real(model)

    for name, module in list(sys.modules.items()):
        if name.startswith("vce") and getattr(module, "build_joint", None) is real:
            monkeypatch.setattr(module, "build_joint", counted)
    code, out, _ = run(
        capsys, "check", SPRINKLER_F, "--bind", "p=0.37", "--cause", "R", "--outcome", "W",
    )
    assert code == 0
    assert len(builds) == 1
    model = bind(parse_model(load_model_text("sprinkler_functional.sem")), {"p": 0.37})
    strata = len(effect(model, EffectQuery("R", "W")).breakdown)
    assert out.endswith(f"({strata} z-strata)\n")


def test_sweep_degree_axis_first_matches_eval(capsys):
    code, out, _ = run(
        capsys, "sweep", SPRINKLER_F, "--cause", "R", "--outcome", "W",
        "--axis", "d=0:1:0.5", "--axis", "p=0:1:0.25", "--variant", "space",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,p,value"
    assert len(lines) == 16
    for line in lines[1:]:
        d, p, value = line.split(",")
        code, single, _ = run(
            capsys, "eval", SPRINKLER_F, "--bind", f"p={p}", "--cause", "R",
            "--outcome", "W", "--degree", d, "--variant", "space", "--format", "json",
        )
        assert code == 0
        assert value == f"{json.loads(single)['value']:.12g}"


def test_sweep_binds_before_validating_degree(capsys):
    code, out, err = run(
        capsys, "sweep", SPRINKLER_F, "--cause", "R", "--outcome", "W", "--axis", "d=-1:1:0.5"
    )
    assert code == 2
    assert out == ""
    assert err == "error: unbound parameter(s) ['p']\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", BSC, "--cause", "X", "--outcome", "Y", "--degree", "1/0"],
        ["eval", BSC, "--cause", "X", "--outcome", "Y", "--degree", "nan"],
        ["eval", BSC, "--cause", "X", "--outcome", "Y", "--degree", "inf"],
        ["eval", BSC, "--cause", "X", "--outcome", "Y", "--degree=-inf"],
        ["eval", BSC, "--cause", "X", "--outcome", "Y", "--degree", "abc"],
        ["eval", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p=1/0"],
        ["eval", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p=nan"],
        ["eval", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p=x"],
        ["baselines", SPRINKLER, "--cause", "R", "--outcome", "W", "--x0", "nan"],
        ["baselines", SPRINKLER, "--cause", "R", "--outcome", "W", "--x1", "1/0"],
        ["estimate", "data.csv", "--cause", "X", "--outcome", "Y", "--c0", "inf"],
        ["counterfactual", BSC, "--evidence", "Y=nan", "--do", "X=1", "--target", "Y"],
        ["counterfactual", BSC, "--evidence", "Y=1", "--context", "X=1/0", "--do", "X=1",
         "--target", "Y"],
        ["counterfactual", BSC, "--evidence", "Y=1", "--do", "X=inf", "--target", "Y"],
        ["sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "p=0:1:1/0"],
        ["sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "d=0:inf:0.5"],
        ["sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "d=nan:1:0.5"],
    ],
)
def test_non_finite_numbers_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: expected a finite number") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, name",
    [
        (["counterfactual", BSC, "--evidence", "Y=1,Y=0", "--do", "X=1", "--target", "Y"], "Y"),
        (["counterfactual", BSC, "--evidence", "Y=1", "--do", "X=1, X=0", "--target", "Y"], "X"),
        (["counterfactual", BSC, "--evidence", "Y=1", "--context", "X=0,X=0", "--do", "X=1",
          "--target", "Y"], "X"),
        (["eval", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p=0.3", "--bind", "p=0.4"],
         "p"),
        (["eval", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p=0.3,p=0.3"], "p"),
        (["sweep", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p=0.3", "--bind", "p=0.4",
          "--axis", "d=0:1:1"], "p"),
    ],
)
def test_a_name_assigned_twice_exits_2(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: '{name}' is assigned twice\n")


@pytest.mark.parametrize("base", ["1", "-2", "0", "nan", "inf"])
def test_baselines_bad_log_base_exit_2(capsys, base):
    code, out, err = run(
        capsys, "baselines", SPRINKLER, "--cause", "R", "--outcome", "W", "--base", base
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: log base must be") and err.count("\n") == 1


@pytest.mark.parametrize("select", ["foo", "ace,foo", ",", "ACE"])
def test_baselines_unknown_select_exit_2(capsys, select):
    code, out, err = run(
        capsys, "baselines", SPRINKLER_F, "--bind", "p=0.3", "--cause", "S", "--outcome", "W",
        "--select", select,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown --select name") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_estimate_non_finite_csv_exit_2(capsys, tmp_path, value):
    path = tmp_path / "data.csv"
    path.write_text(f"X,Y\n0,1\n{value},2\n1,0\n1,1\n0,0\n", encoding="utf-8")
    code, out, err = run(capsys, "estimate", str(path), "--cause", "X", "--outcome", "Y")
    assert code == 2
    assert out == ""
    assert err.startswith("error: row 1 holds a non-finite value") and err.count("\n") == 1


@pytest.mark.parametrize("command, name, data", [
    ("estimate", "data.csv", b"X,Y\n0,1\n1,\xff\n"),
    ("eval", "model.sem", b"var X in {0, 1}\n# caf\xe9\nroot X {0: 0.5, 1: 0.5}\n"
                          b"var Y in {0, 1}\ndef Y = X\n"),
])
def test_undecodable_input_exit_1(capsys, tmp_path, command, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = run(capsys, command, str(path), "--cause", "X", "--outcome", "Y")
    assert code == 1
    assert out == ""
    assert err.startswith(f"io error: {path}: 'utf-8' codec can't decode byte") and err.count("\n") == 1


def test_estimate_undecodable_byte_past_the_first_chunk_exit_1(capsys, tmp_path):
    # The position is counted within the 8 KB chunk that holds the bad byte.
    data = ("X,Y\n" + "".join(f"{i % 2},{i % 3}\n" for i in range(6000))).encode()
    path = tmp_path / "data.csv"
    path.write_bytes(data[:20_004] + b"\xff" + data[20_005:])
    code, out, err = run(capsys, "estimate", str(path), "--cause", "X", "--outcome", "Y")
    assert (code, out) == (1, "")
    assert err == (f"io error: {path}: 'utf-8' codec can't decode byte 0xff in position 3620: "
                   "invalid start byte\n")


def test_estimate_oversized_field_exit_2(capsys, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(f"X,Y\n0,1\n1,{'1' * 131_073}\n0,0\n", encoding="utf-8")
    code, out, err = run(capsys, "estimate", str(path), "--cause", "X", "--outcome", "Y")
    assert code == 2
    assert out == ""
    assert err == "error: line 3: field larger than field limit (131072)\n"


def test_estimate_reads_past_a_byte_order_mark(capsys, tmp_path):
    # Spreadsheet exports start with a UTF-8 BOM; the first name is still 'X'.
    text = "X,Y\n0,1\n1,0\n1,1\n0,0\n1,1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfX,")
    want = run(capsys, "estimate", str(plain), "--cause", "X", "--outcome", "Y")
    assert want[0] == 0
    assert run(capsys, "estimate", str(marked), "--cause", "X", "--outcome", "Y") == want


@pytest.mark.parametrize("covariate", [[], ["--covariate", "C"]])
@pytest.mark.parametrize("given", ["X", "Y", "Z,Z", "Z,X"])
def test_estimate_bad_conditioning_set_exit_2(capsys, tmp_path, given, covariate):
    path = tmp_path / "data.csv"
    path.write_text("X,Y,Z,C\n0,1,0,0\n1,0,1,1\n1,1,0,0\n0,0,1,1\n2,1,1,0\n", encoding="utf-8")
    code, out, err = run(
        capsys, "estimate", str(path), "--cause", "X", "--outcome", "Y", "--given", given,
        *covariate,
    )
    assert code == 2
    assert out == ""
    assert err == ("error: the conditioning set must name distinct variables other than "
                   "the cause and the outcome\n")


def test_estimate_negative_degree_exit_2(capsys, tmp_path):
    # A cause with one observed value has no pairs, so only the query check
    # can catch the degree.
    path = tmp_path / "data.csv"
    path.write_text("X,Y\n1,0\n1,1\n1,2\n", encoding="utf-8")
    code, out, err = run(
        capsys, "estimate", str(path), "--cause", "X", "--outcome", "Y", "--degree=-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: degree must be >= 0, got -1.0\n"


@pytest.mark.parametrize("depth", [500, 5000])
def test_eval_deep_nesting_exit_1(capsys, tmp_path, depth):
    path = tmp_path / "deep.sem"
    path.write_text(
        "var X in {0, 1}\nroot X {0: 0.5, 1: 0.5}\nvar Y in {0, 1}\n"
        f"def Y = {'(' * depth}X{')' * depth}\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "eval", str(path), "--cause", "X", "--outcome", "Y")
    assert code == 1
    assert out == ""
    assert err.startswith("parse error: 4:") and "nested deeper" in err
    assert err.count("\n") == 1


def test_sweep_duplicate_axis_exit_2(capsys):
    code, out, err = run(
        capsys, "sweep", SPRINKLER_F, "--cause", "R", "--outcome", "W",
        "--axis", "p=0:1:0.5", "--axis", "p=0:1:0.5",
    )
    assert code == 2
    assert out == ""
    assert err == "error: duplicate axis 'p'\n"


@pytest.mark.parametrize(
    "axes",
    [
        ["p=0:1:1e-12"],
        ["p=0:1:1e-300"],
        ["p=0:1:0.001", "d=0:1:0.001"],
        [f"p=0:1:1/{MAX_GRID_POINTS}"],
    ],
)
def test_sweep_oversized_grid_exit_2(capsys, axes):
    argv = ["sweep", SPRINKLER_F, "--cause", "R", "--outcome", "W"]
    for axis in axes:
        argv += ["--axis", axis]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: sweep grid exceeds {MAX_GRID_POINTS} points\n"


@pytest.mark.parametrize("degree", ["512", "1000", "1e308"])
def test_check_degree_past_matrix_form_exit_2(capsys, degree):
    code, out, err = run(
        capsys, "check", BSC, "--cause", "X", "--outcome", "Y", "--degree", degree
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: degree") and "too large for the matrix form" in err
    code, _, _ = run(capsys, "check", BSC, "--cause", "X", "--outcome", "Y", "--degree", "511")
    assert code == 0


# --- one parser per process --------------------------------------------------------


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse errors and --help exit from parse_args
        code = ("exit", stop.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_reused_across_calls_matches_a_fresh_parser(capsys, monkeypatch):
    from vce import cli

    sequence = [
        ["eval", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p=0.1"],
        ["eval", RARE, "--cause", "X", "--outcome", "Y", "--bind", "p=0.2", "--bind", ""],
        ["eval", RARE, "--cause", "X", "--outcome", "Y"],  # no --bind left over
        ["sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "p=0:1:0.5"],
        ["sweep", RARE, "--cause", "X", "--outcome", "Y", "--axis", "d=0:1:0.5",
         "--bind", "p=0.3"],
        ["baselines", SPRINKLER, "--cause", "R", "--outcome", "W", "--format", "json"],
        ["counterfactual", SPRINKLER_F, "--bind", "p=0.5", "--evidence", "W=0",
         "--context", "R=0", "--do", "R=1", "--target", "W"],
        ["check", RAMP, "--cause", "X", "--outcome", "Y", "--degree", "1/3"],
        ["eval", RAMP, "--cause", "X", "--outcome", "Y", "--degree", "abc"],
        ["eval", RAMP, "--cause", "X"],
        ["bogus"],
        [],
        ["eval", "--help"],
        ["eval", RAMP, "--cause", "X", "--outcome", "Y", "--variant", "space"],
    ]
    shared = [_outcome(capsys, argv) for argv in sequence + sequence]
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # one per call
    fresh = [_outcome(capsys, argv) for argv in sequence + sequence]
    assert shared == fresh
    assert [code for code, _, _ in fresh[:3]] == [0, 0, 2]
    assert "unbound parameter(s) ['p']" in fresh[2][2]


OVERFLOW = """var X in {0, 1, 2}
var Y in {-1e308, 1e308}
root X {0: 0.5, 1: 0, 2: 0.5}
def Y = if X == 1 then 1e308 else -1e308
"""


@pytest.mark.parametrize("variant", ["pace", "peace", "space", "apace"])
def test_eval_rejects_outcome_differences_past_the_largest_float(capsys, tmp_path, variant):
    # 1e308 - (-1e308) is inf, and inf times a zero weight is NaN.
    path = tmp_path / "overflow.sem"
    path.write_text(OVERFLOW)
    code, out, err = run(capsys, "eval", str(path), "--cause", "X", "--outcome", "Y",
                         "--variant", variant, "--format", "json")
    assert code == 2 and out == ""
    assert "'Y' values -1e+308 and 1e+308 differ by more than the largest float at z = ()" in err


PEAK = """var X in {0, 1, 2}
var Y in {0, 1.5e308}
root X {0: 0.25, 1: 0.5, 2: 0.25}
fun Y | X {(0): 0, (1): 1.5e308, (2): 0}
"""


@pytest.mark.parametrize("command", [
    ["eval", "{sem}"], ["eval", "{sem}", "--format", "json"], ["eval", "{sem}", "--variant", "apace"],
    ["check", "{sem}"], ["sweep", "{sem}", "--axis", "d=0:1:0.5"], ["estimate", "{csv}"],
    ["estimate", "{csv}", "--format", "json"],
])
def test_an_effect_that_overflows_exits_2(capsys, tmp_path, command):
    # Each difference is 1.5e308, but at d = 0 every weight is 1 and their sum is inf.
    (tmp_path / "peak.sem").write_text(PEAK)
    (tmp_path / "peak.csv").write_text("X,Y\n0,0\n1,1.5e308\n2,0\n")
    argv = [a.format(sem=tmp_path / "peak.sem", csv=tmp_path / "peak.csv") for a in command]
    if command[0] != "sweep":
        argv += ["--degree", "0"]
    code, out, err = run(capsys, *argv, "--cause", "X", "--outcome", "Y")
    variant = "apace" if "apace" in command else "pace"
    assert (code, out) == (2, "")
    assert err == f"error: the {variant} variation of 'Y' is not finite at d = 0.0, z = ()\n"


def test_check_caps_the_brute_force_at_20_values(capsys, tmp_path):
    for l, want in ((20, 0), (21, 2)):
        xs = ", ".join(map(str, range(l)))
        path = tmp_path / f"wide{l}.sem"
        path.write_text(f"var X in {{{xs}}}\nvar Y in {{{xs}}}\n"
                        f"root X {{{', '.join(f'{x}: 1/{l}' for x in range(l))}}}\ndef Y = X\n")
        code, out, err = run(capsys, "check", str(path), "--cause", "X", "--outcome", "Y")
        assert code == want
        if want:
            assert (out, err) == ("", "error: support too large for brute force (21 values)\n")
        else:
            assert out.startswith("OK, max deviation")


def test_validating_a_model_with_far_apart_support_values_warns_nothing():
    # Snapping a def table onto {-1e308, 1e308} measures a distance past the
    # largest float; the suite turns any RuntimeWarning into an error.
    parse_model(OVERFLOW)


ROUNDED = """var W in {0, 1}
var X in {0, 1}
var Y in {0, 1}
root W {0: 0.3, 1: 0.7}
root X {0: 0.5, 1: 0.5}
def Y = X
"""


@pytest.mark.parametrize("command", [
    ["eval", "--variant", "pace"], ["eval", "--variant", "peace"], ["eval", "--variant", "space"],
    ["eval", "--variant", "apace"], ["eval", "--format", "json"], ["check"],
    ["sweep", "--axis", "d=1e300:2e300:1e300"], ["sweep", "--variant", "apace", "--axis", "d=1e300:1e300:1"],
])
def test_a_weight_past_the_largest_float_exits_2(capsys, tmp_path, command):
    # P(x) adds up to 0.5000000000000001, so 4pq is 1.0000000000000004 and its 1e300th power overflows.
    (tmp_path / "ovf.sem").write_text(ROUNDED)
    degree = [] if command[0] == "sweep" else ["--degree", "1e300"]
    code, out, err = run(capsys, command[0], str(tmp_path / "ovf.sem"), *command[1:], *degree,
                         "--cause", "X", "--outcome", "Y")
    assert (code, out, err) == (2, "", "error: the availability weight (4pq)^d overflows at d = 1e+300\n")


@pytest.mark.parametrize("argv", [
    ["check", SPRINKLER_F, "--bind", "p=0.42", "--cause", "R", "--outcome", "W", "--variant", "space"],
    ["check", SPRINKLER_F, "--bind", "p=0.42", "--cause", "R", "--outcome", "W", "--format", "json"],
    ["sweep", SPRINKLER_F, "--cause", "R", "--outcome", "W", "--axis", "p=0:1:0.5", "--format", "json"],
    ["estimate", "{csv}", "--cause", "S", "--outcome", "W", "--given", "R", "--bind", "p=0.3"],
])
def test_an_option_the_command_would_ignore_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "data.csv"
    path.write_text("R,S,W\n0,0,0\n0,1,1\n1,0,1\n1,1,1\n", encoding="utf-8")
    code, out, err = run(capsys, *[a.format(csv=path) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["check", SPRINKLER_F, "--bind", "p=0.42", "--cause", "R", "--outcome", "W"],
    ["sweep", SPRINKLER_F, "--cause", "R", "--outcome", "W", "--axis", "p=0:1:0.5"],
])
def test_the_options_a_command_follows_keep_its_output(capsys, command):
    plain = run(capsys, *command)
    assert plain[0] == 0
    extra = ["--format", "table"] + (["--variant", "pace"] if command[0] == "check" else [])
    assert run(capsys, *command, *extra) == plain


CONSTANT = """var Z in {0, 1}
var X in {0, 1}
var Y in {0, 1, 2}
root Z {0: 1 - 0.75, 1: 0.75}
cpt X | Z {(0): {0: 0.5 * 0.5, 1: 0.75}, (1): {0: 0.5, 1: 0.5}}
def Y = X + Z
"""


@pytest.mark.parametrize("command", [
    ["eval", "{sem}", "--cause", "X", "--outcome", "Y"],
    ["eval", "{sem}", "--cause", "X", "--outcome", "Y", "--format", "json", "--variant", "space"],
    ["sweep", "{sem}", "--cause", "X", "--outcome", "Y", "--axis", "d=0:1:0.5"],
    ["check", "{sem}", "--cause", "X", "--outcome", "Y"],
    ["baselines", "{sem}", "--cause", "X", "--outcome", "Y"],
    ["counterfactual", "{sem}", "--evidence", "Y=1", "--do", "X=1", "--target", "Y"],
    ["estimate", "{csv}", "--model", "{sem}", "--cause", "X", "--outcome", "Y", "--given", "Z"],
])
def test_constant_expressions_need_no_param(capsys, tmp_path, command):
    # `1 - 0.75` and `0.5 * 0.5` are 0.25 exactly: the model answers as the one written with 0.25.
    (tmp_path / "data.csv").write_text("Z,X,Y\n0,0,0\n0,1,1\n1,0,1\n1,1,2\n1,1,2\n", encoding="utf-8")
    outputs = []
    for text in (CONSTANT, CONSTANT.replace("1 - 0.75", "0.25").replace("0.5 * 0.5", "0.25")):
        (tmp_path / "m.sem").write_text(text, encoding="utf-8")
        outputs.append(run(capsys, *[a.format(sem=tmp_path / "m.sem", csv=tmp_path / "data.csv")
                                     for a in command]))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0, outputs
