import csv
import json
import math
import sys

import pytest

from helpers import MODELS_DIR, load_model_text
from vce import engine
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
