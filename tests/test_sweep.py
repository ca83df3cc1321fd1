"""`vce sweep`'s grid evaluation (the bindings bound as one array axis by
`model.bind_grid`, enumerated, stratified and aggregated together) against the
evaluation one run of equal bindings at a time it replaced
(`helpers.reference_sweep`): CSV bytes, error text and exit code on random
models with two parameters, in root and cpt entries and in `def` bodies,
whose strata vanish at p = 0 or 1, over both axis orders, the degree first
and last, `--bind`, stacks of one to three points or of all, causes with one
value, and grids that fail part-way (a negative d included where no weight
is computed to reject it); a grid that binds is never walked point by point.
Also grids of int-literal entries, of a parameter only in a `def` body, of
`--bind` plus an axis, of end points at a bound +- 1e-12 and past it, and
grids failing at point k in a root row, a cpt row and a def body; and
`bind_grid` against `helpers.reference_bind` at every point of random grids,
and `bind` against `reference_bind`, which validated the whole bound model."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from helpers import random_dsl_model, reference_bind, reference_sweep
from vce import cli
from vce import variational as vr
from vce import expr as ex
from vce.dsl import parse_model
from vce.errors import BindingError, QueryError
from vce.model import CPT, Deterministic, Model, Parameter, Root, bind, bind_grid
from vce.variational import EffectQuery, effect, effects

CASES = 300
STEPS = ("0.25", "0.5", "1/3", "0.2", "0.1")
FAILURES = ("range", "mass", "overflow", "degree")


def _row(rng, values, head=None) -> str:
    """A probability row over `values`: random decimals (a zero now and then),
    or `head` on the first value and 1 - head spread over the others."""
    if head is None:
        w = rng.random(len(values)) + 0.05
        if len(values) > 2 and rng.random() < 0.3:
            w[int(rng.integers(0, len(values)))] = 0.0
        micro = np.floor(w / w.sum() * 1e6)
        micro[int(np.argmax(micro))] += 1e6 - micro.sum()
        entries = [repr(m / 1e6) for m in micro.tolist()]
    else:
        rest = _row(rng, values[1:]) if len(values) > 2 else "{_: 1.0}"
        shares = [e.split(": ")[1] for e in rest[1:-1].split(", ")]
        entries = [head] + [f"(1 - {head}) * {w}" for w in shares]
    return "{" + ", ".join(f"{v}: {e}" for v, e in zip(values, entries)) + "}"


def _head(rng, failures=()) -> str:
    name = str(rng.choice(["p", "q"]))
    if "range" in failures:  # 2 p > 1 past p = 0.5
        return f"2 * {name}"
    return name if rng.random() < 0.6 else f"{rng.uniform(0.1, 1.0):.3f} * {name}"


def _model(rng, failures) -> str:
    """A model over Z -> X -> Y (Y also reads Z, and W when there is one) with
    parameters p and q, failing as `failures` name."""
    zs = list(range(int(rng.integers(2, 4))))
    # Now and then a cause with one value: its variations are 0 without a weight computed.
    l = 1 if rng.random() < 0.1 else int(rng.integers(2, 5))
    xs = sorted(int(v) for v in rng.choice(np.arange(-2, 9), l, replace=False))
    if "overflow" in failures:
        xs = [0, 1, 2]
    lines = ["param p in [0, 1]", "param q in [0, 1]",
             f"var Z in {{{', '.join(map(str, zs))}}}", f"var X in {{{', '.join(map(str, xs))}}}"]
    z_head = _head(rng, failures) if "range" in failures or rng.random() < 0.7 else None
    mechs = ["root Z " + _row(rng, zs, z_head)]
    mechs.append("cpt X | Z {")
    for z in zs:
        head = _head(rng) if rng.random() < 0.5 and len(xs) > 1 else None
        mechs.append(f"  ({z}): {_row(rng, xs, head)},")
    mechs.append("}")
    parents = "X, Z"
    if rng.random() < 0.5:  # a parameter in a def body
        lines.append("var W in {0, 1}")
        cut = rng.choice(["X > 4 * q", f"Z == {zs[-1]} and p > 0.5", f"X >= {xs[0]}"])
        mechs.append(f"def W = if {cut} then 1 else 0")
        parents += ", W"
    if "overflow" in failures:  # Y = 0, 1.5e308, 0 along X: not finite at d = 0 where all three weigh
        lines.append("var Y in {0, 1.5e308}")
        mechs.append("fun Y | X, Z {")
        mechs += [f"  ({x}, {z}): {1.5e308 if x == 1 else 0}," for x in xs for z in zs]
        mechs.append("}")
    elif rng.random() < 0.5:
        ys = sorted(int(v) for v in rng.choice(np.arange(-3, 4), int(rng.integers(2, 4)), replace=False))
        lines.append(f"var Y in {{{', '.join(map(str, ys))}}}")
        cond = rng.choice([f"X > {xs[0]} + 3 * p", f"X > {xs[len(xs) // 2]}", f"X + Z > {xs[0] + 1}",
                           f"X > {xs[0]} and {'W == 1' if 'W' in parents else 'Z == 0'}"])
        mechs.append(f"def Y = if {cond} then {ys[-1]} else {ys[0]}")
    else:
        ys = sorted(int(v) for v in rng.choice(np.arange(-3, 4), int(rng.integers(2, 4)), replace=False))
        lines.append(f"var Y in {{{', '.join(map(str, ys))}}}")
        mechs.append("fun Y | X, Z {")
        mechs += [f"  ({x}, {z}): {rng.choice(ys)}," for x in xs for z in zs]
        mechs.append("}")
    if "mass" in failures:  # each row within 1e-9 of 1, the joint past it for p near 1
        lines += ["var U in {0, 1}", "var V in {0, 1}"]
        mechs += ["root U {0: p, 1: 1 - p + 9e-10 * p}", "root V {0: p, 1: 1 - p + 9e-10 * p}"]
    return "\n".join(lines + mechs) + "\n"


def _argv(rng, path: str, failures) -> list[str]:
    argv = ["sweep", path, "--cause", "X", "--outcome", "Y",
            "--variant", str(rng.choice(["pace", "peace", "space", "apace"])),
            "--sign", "abs" if "overflow" in failures else str(rng.choice(["abs", "positive", "negative"]))]
    swept = [str(n) for n in rng.permutation(["p", "q"])[:int(rng.integers(1, 3))]]
    axes = [f"{n}=0:1:{rng.choice(STEPS)}" for n in swept]
    if "degree" in failures:
        axes.insert(int(rng.integers(0, len(axes) + 1)), "d=-0.5:1:0.5")
    elif "overflow" in failures or rng.random() < 0.7:
        axes.insert(0 if rng.random() < 0.5 else len(axes), f"d=0:2:{rng.choice(STEPS)}")
    else:
        argv += ["--degree", str(rng.choice(["0", "1/3", "1", "2"]))]
    for axis in axes:
        argv += ["--axis", axis]
    fixed = [n for n in ("p", "q") if n not in swept or rng.random() < 0.2]
    for n in fixed:
        argv += ["--bind", f"{n}={rng.choice(['0', '0.3', '1'])}"]
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _walked(monkeypatch) -> list:
    """Count the grid points `vce sweep` evaluates one at a time (its fallback)."""
    calls = []
    real = vr.effect
    monkeypatch.setattr(vr, "effect", lambda *args: calls.append(1) or real(*args))
    return calls


def _reference_run(argv: list[str], monkeypatch) -> tuple[int, str, str]:
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_sweep", reference_sweep)
        cli.build_parser.cache_clear()  # the parser holds the sweep function it was built with
        try:
            return _run(argv)
        finally:
            cli.build_parser.cache_clear()


def test_sweeps_match_the_one_binding_at_a_time_evaluation(tmp_path, monkeypatch):
    rng = np.random.default_rng(2501)
    seen = dict.fromkeys(("ok", "vanish", "def_p", "two_axes", "d_first", "d_last", "bind",
                          "two_failures", "one_value", *FAILURES), 0)
    for i in range(CASES):
        # None, one or two ways to fail: the stacked evaluation meets them in
        # another order than a walk through the grid does.
        failures = set(rng.choice(FAILURES, int(rng.choice([0, 0, 0, 1, 2])), replace=False).tolist())
        text = _model(rng, failures)
        path = tmp_path / f"m{i}.sem"
        path.write_text(text, encoding="utf-8")
        argv = _argv(rng, str(path), failures)
        # Stacks of 1 to 3 bound models, or of every one.
        model = parse_model(text)
        per_model = model.state_space_size * len(model.support("X"))
        monkeypatch.setattr(vr, "STACK_BLOCK", per_model * int(rng.choice([1, 2, 3, 10**6])))
        with monkeypatch.context() as patch:
            walked = _walked(patch)
            got = _run(argv)
        assert got == _reference_run(argv, monkeypatch), (text, argv)
        assert not (got[0] == 0 and walked), (text, argv)  # a grid that binds is never walked
        axes = [a.split("=")[0] for a in argv[argv.index("--axis") + 1::2]]
        seen["ok"] += got[0] == 0
        for failure in failures:
            seen[failure] += got[0] == 2
        seen["two_failures"] += len(failures) == 2 and got[0] == 2
        seen["vanish"] += got[0] == 0 and ("root Z {0: p," in text or "root Z {0: q," in text)
        seen["def_p"] += any(s in text for s in ("X > 4 * q", "p > 0.5", "+ 3 * p"))
        seen["two_axes"] += sum(a in ("p", "q") for a in axes) == 2
        seen["d_first"] += axes[0] == "d" and len(axes) > 1
        seen["d_last"] += axes[-1] == "d" and len(axes) > 1
        seen["bind"] += "--bind" in argv
        seen["one_value"] += "var X in {" in text and "," not in text.split("var X in {")[1].split("}")[0]
    assert seen["ok"] >= 100 and seen["vanish"] >= 40 and seen["def_p"] >= 60, seen
    assert min(seen["two_axes"], seen["d_first"], seen["d_last"], seen["bind"]) >= 30, seen
    assert min(seen[f] for f in FAILURES) >= 10 and seen["two_failures"] >= 20, seen
    assert seen["one_value"] >= 15, seen


def test_a_negative_degree_fails_where_no_weight_is_computed(tmp_path, monkeypatch):
    # With one cause value every variation is 0 without a weight computed,
    # so only the degree's own check rejects a negative d.
    path = tmp_path / "one.sem"
    path.write_text("param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0}\nvar Y in {0, 1}\n"
                    "root Z {0: p, 1: 1 - p}\nroot X {0: 1.0}\n"
                    "def Y = if Z == 1 and X == 0 then 1 else 0\n", encoding="utf-8")
    head = ["sweep", str(path), "--cause", "X", "--outcome", "Y"]
    for axes in (["--axis", "p=0:1:0.5", "--degree", "-1"], ["--axis", "p=0:1:0.5", "--axis", "d=-1:0:1"],
                 ["--axis", "d=-1:0:1", "--axis", "p=0:1:0.5"], ["--axis", "d=0:1:1", "--degree", "-1", "--bind", "p=0.5"]):
        got, want = _run(head + axes), _reference_run(head + axes, monkeypatch)
        assert got == want, axes
    assert got[0] == 0 and _run(head + ["--axis", "p=0:1:0.5", "--degree", "-1"])[2] == \
        "error: degree must be >= 0, got -1.0\n"


def test_effects_is_effect_at_every_binding_and_degree():
    model = parse_model("var X in {0}\nvar Y in {0, 1}\nroot X {0: 1.0}\ndef Y = if X == 0 then 1 else 0\n")
    with pytest.raises(QueryError, match="degree must be >= 0"):
        effects(model, {}, "X", "Y", [1.0, -1.0])
    text = ("param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1, 2}\nvar Y in {0, 1, 2}\n"
            "root Z {0: p, 1: 1 - p}\ncpt X | Z {(0): {0: 0.2, 1: 0.3, 2: 0.5}, "
            "(1): {0: p, 1: 0, 2: 1 - p}}\ndef Y = if X + Z > 3 * p then 2 else 0\n")
    model = parse_model(text)
    bindings = [{"p": v} for v in (0.0, 0.25, 0.5, 1.0, 0.5)]
    degrees = [0.0, 1 / 3, 2.0]
    for variant in ("pace", "peace", "space", "apace"):
        got = effects(model, {"p": np.array([b["p"] for b in bindings])}, "X", "Y", degrees, variant, "abs")
        want = [[effect(bind(model, b), EffectQuery("X", "Y", d, variant)).value.hex()
                 for d in degrees] for b in bindings]
        assert [[v.hex() for v in row] for row in got] == want, variant


# --- bind keeps the diagnostics of the mechanisms it keeps --------------------------


def _broken(rng, model: Model) -> Model:
    """`model` with its structure, or one of its mechanisms (whether or not
    it reads a parameter), broken."""
    mechanisms, variables = dict(model.mechanisms), list(model.variables)
    name = variables[int(rng.integers(0, len(variables)))].name
    mech, kind = mechanisms[name], int(rng.integers(0, 8))
    support = model.support(name).values
    if kind == 0 and isinstance(mech, Root):  # a row that does not sum to 1
        mechanisms[name] = Root({**mech.table, support[0]: 0.5})
    elif kind == 1 and isinstance(mech, CPT):  # a missing row
        mechanisms[name] = CPT(mech.parents, dict(list(mech.rows.items())[1:]))
    elif kind == 2 and isinstance(mech, Deterministic) and mech.table is not None:
        key = next(iter(mech.table))  # a value outside the support
        mechanisms[name] = Deterministic(mech.parents, table={**mech.table, key: support[-1] + 7.0})
    elif kind == 3 and isinstance(mech, Deterministic):  # a body outside the support
        mechanisms[name] = Deterministic(mech.parents, body=ex.Num(support[-1] + 0.5))
    elif kind == 4:  # a variable declared twice
        variables.append(variables[0])
    elif kind == 5:  # a mechanism for an undeclared variable
        mechanisms["Ghost"] = Root({0.0: 1.0})
    elif kind == 6:  # a cycle
        mechanisms[variables[0].name] = CPT((name,), {(v,): {variables[0].support.values[0]: 1.0}
                                                      for v in support})
    else:  # an undeclared parent
        mechanisms[name] = CPT(("Nowhere",), {})
    return Model(tuple(variables), mechanisms, model.parameters)


def _outcome(call):
    try:
        bound = call()
    except BindingError as err:
        return "error", str(err)
    return "ok", {n: repr(m) for n, m in bound.mechanisms.items()}


def test_bind_gives_the_diagnostics_a_whole_validation_gives():
    rng = np.random.default_rng(2502)
    seen = {"ok": 0, "error": 0}
    for i in range(300):
        model = random_dsl_model(rng)
        if not model.parameters:
            model = Model(model.variables, model.mechanisms, (Parameter("p", 0.0, 1.0),))
        if i % 3:
            model = _broken(rng, model)
        for value in (0.0, 0.3, 1.0, 0.3):  # the same base model bound again and again
            got = _outcome(lambda: bind(model, {"p": value}))
            assert got == _outcome(lambda: reference_bind(model, {"p": value})), (i, value)
            seen[got[0]] += 1
    assert seen["ok"] >= 200 and seen["error"] >= 200, seen


# --- the grid bound as one array axis ------------------------------------------------

# Each model swept over p (and the degree), the grids of the parameters bind rebuilds
# in one place each: `1 - p` entries (the .sem reader makes every literal a float, and
# `Num` makes the int literals of models built in Python floats too, see `_int_literals`),
# a parameter only in a `def` body, and grids that fail at point k in
# a root row (its range; an entry past 1 + 1e-9 in a row whose sum is within 1e-9 of
# 1; a sum 1.5e-9 past 1), a cpt row (its sum, then a range) and a def body (off the
# support, and an `if` condition that is not 0 or 1).
GRID_MODELS = {
    "one_minus_p": "param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 1, 2}\n"
                   "root Z {0: 1 - p, 1: p}\ncpt X | Z {(0): {0: 0.5, 1: 0.5}, (1): {0: 1 - p, 1: p}}\n"
                   "def Y = X + Z\n",
    "def_only": "param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1, 2}\nvar Y in {0, 1}\n"
                "root Z {0: 0.25, 1: 0.75}\ncpt X | Z {(0): {0: 0.2, 1: 0.3, 2: 0.5}, (1): {0: 0.6, 1: 0.3, 2: 0.1}}\n"
                "def Y = if X + Z > 3 * p then 1 else 0\n",
    "root_fails": "param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                  "root Z {0: 2 * p, 1: 1 - 2 * p}\ncpt X | Z {(0): {0: 0.5, 1: 0.5}, (1): {0: 0.1, 1: 0.9}}\n"
                  "def Y = if X == Z then 1 else 0\n",
    "cpt_fails": "param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                 "root Z {0: 0.5, 1: 0.5}\ncpt X | Z {(0): {0: 0.5, 1: 0.5 * (1 + (p > 0.6))}, "
                 "(1): {0: 1.25 * p, 1: 1 - 1.25 * p}}\n"
                 "def Y = if X == Z then 1 else 0\n",
    "def_off_support": "param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 0.5, 1.5}\n"
                       "root Z {0: 0.5, 1: 0.5}\ncpt X | Z {(0): {0: 0.5, 1: 0.5}, (1): {0: p, 1: 1 - p}}\n"
                       "def Y = if X == 1 then 3 * p else 0\n",
    "def_eval_error": "param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                      "root Z {0: 0.5, 1: 0.5}\ncpt X | Z {(0): {0: 0.5, 1: 0.5}, (1): {0: p, 1: 1 - p}}\n"
                      "def Y = if (p > 0.3) + X then 1 else 0\n",
    "range_fails": "param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                   "root Z {0: 1 + 0.0000000015 * p, 1: -0.000000001 * p}\n"
                   "cpt X | Z {(0): {0: 0.5, 1: 0.5}, (1): {0: 0.1, 1: 0.9}}\ndef Y = if X == Z then 1 else 0\n",
    "sum_fails": "param p in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 1}\n"
                 "root Z {0: p, 1: 1 - p + 0.0000000015 * p}\n"
                 "cpt X | Z {(0): {0: 0.5, 1: 0.5}, (1): {0: 0.1, 1: 0.9}}\ndef Y = if X == Z then 1 else 0\n",
    "bounds": "param p in [0.2, 0.8]\nparam q in [0, 1]\nvar Z in {0, 1}\nvar X in {0, 1}\nvar Y in {0, 1}\n"
              "root Z {0: p, 1: 1 - p}\ncpt X | Z {(0): {0: q, 1: 1 - q}, (1): {0: 1 - p, 1: p}}\n"
              "def Y = if X == Z then 1 else 0\n",
}
GRID_AXES = {
    "one_minus_p": [["--axis", "p=0:1:0.1"], ["--axis", "d=0:1:0.5", "--axis", "p=0:1:0.05"]],
    "range_fails": [["--axis", "p=0:1:0.25"], ["--axis", "p=0:0.5:0.25"]],
    "sum_fails": [["--axis", "p=0:1:0.25", "--axis", "d=0:1:1"], ["--axis", "p=0:0.5:0.25"]],
    "def_only": [["--axis", "p=0:1:0.05", "--axis", "d=0:2:0.5"], ["--axis", "p=0:1:1/3"]],
    "root_fails": [["--axis", "p=0:1:0.1"], ["--axis", "d=0:1:0.5", "--axis", "p=0:1:0.25"],
                   ["--axis", "p=0:0.5:0.125"]],
    "cpt_fails": [["--axis", "p=0:1:0.1"], ["--axis", "p=0:0.5:0.25"]],
    "def_off_support": [["--axis", "p=0.5:1:0.5"], ["--axis", "p=0:1:0.25", "--axis", "d=0:1:1"],
                        ["--axis", "d=0:1:0.5", "--axis", "p=0:0.5:0.5"]],
    "def_eval_error": [["--axis", "p=0:1:0.5"], ["--axis", "p=0:1:1", "--axis", "d=0:1:0.5"],
                       ["--axis", "p=0:0.3:0.1"]],
    # --bind plus an axis (an axis overrides a --bind of its parameter), and end points
    # at a bound +- 1e-12 and just past it.
    "bounds": [["--bind", "q=0.3", "--axis", "p=0.2:0.8:0.3"],
               ["--bind", "p=0.5", "--axis", "q=0:1:0.5", "--axis", "p=0.2:0.8:0.2"],
               ["--bind", "q=1", "--axis", "p=0.199999999999:0.800000000001:0.200000000001"],
               ["--bind", "q=1", "--axis", "p=0.199999999998:0.8:0.3"],
               ["--bind", "q=0", "--axis", "p=0.2:0.800000000002:0.300000000001"],
               ["--bind", "p=0.800000000001", "--axis", "q=0:1:0.5"],
               ["--bind", "p=0.799999999999", "--axis", "d=0:1:1"]],
}


@pytest.mark.parametrize("name", sorted(GRID_MODELS))
def test_grids_match_the_one_binding_at_a_time_evaluation(name, tmp_path, monkeypatch):
    path = tmp_path / f"{name}.sem"
    path.write_text(GRID_MODELS[name], encoding="utf-8")
    model = parse_model(GRID_MODELS[name])
    per_model = model.state_space_size * len(model.support("X"))
    codes = []
    for axes in GRID_AXES[name]:
        for variant in ("pace", "peace", "space", "apace"):
            argv = ["sweep", str(path), "--cause", "X", "--outcome", "Y", "--variant", variant, *axes]
            for points in (1, 2, 10**6):  # stacks of one point, two, or all
                with monkeypatch.context() as patch:
                    patch.setattr(vr, "STACK_BLOCK", per_model * points)
                    walked = _walked(patch)
                    got = _run(argv)
                    assert got == _reference_run(argv, patch), (argv, points)
                assert not (got[0] == 0 and walked), argv  # a grid that binds is never walked
                codes.append(got[0])
    fails = name.endswith("fails") or name.startswith("def_") and name != "def_only"
    assert (2 in codes) == (fails or name == "bounds") and 0 in codes, codes


def _grid_outcome(model, grid):
    try:
        stack = bind_grid(model, grid)
    except BindingError as err:
        return "error", str(err)
    return "ok", {name: [a.hex() for a in table.array.ravel().tolist()] if table.array.dtype.kind == "f"
                  else table.array.tolist() for name, table in stack.tables.items()}


def _reference_grid_outcome(model, grid):
    """bind at each point in turn: the first failing point's error, or each
    rebuilt mechanism's outcome table at every point, stacked."""
    points = len(next(iter(grid.values()))) if grid else 1
    bound = []
    for k in range(points):
        try:
            bound.append(reference_bind(model, {n: v[k].item() for n, v in grid.items()}))
        except BindingError as err:
            return "error", str(err)
    rebuilt = [n for n, mech in model.mechanisms.items() if bound[0].mechanisms[n] is not mech]
    tables = {}
    for n in rebuilt:
        arrays = np.stack([b.outcome_table(n).array for b in bound])
        tables[n] = [a.hex() for a in arrays.ravel().tolist()] if arrays.dtype.kind == "f" else arrays.tolist()
    return "ok", tables


def _int_literals(expr):
    """`expr` with each integral float literal an int, as a model built in Python may hold."""
    if isinstance(expr, ex.Num):
        return ex.Num(int(expr.value)) if expr.value == int(expr.value) else expr
    if isinstance(expr, ex.Binary):
        return ex.Binary(expr.op, _int_literals(expr.left), _int_literals(expr.right))
    if isinstance(expr, ex.IfElse):
        return ex.IfElse(*map(_int_literals, (expr.cond, expr.then, expr.orelse)))
    return expr


def _with_int_literals(model: Model) -> Model:
    def entries(row):
        return {v: e if isinstance(e, (int, float)) else _int_literals(e) for v, e in row.items()}

    mechanisms = {}
    for name, mech in model.mechanisms.items():
        if isinstance(mech, Root):
            mech = Root(entries(mech.table))
        elif isinstance(mech, CPT):
            mech = CPT(mech.parents, {key: entries(row) for key, row in mech.rows.items()})
        elif mech.body is not None:
            mech = Deterministic(mech.parents, body=_int_literals(mech.body))
        mechanisms[name] = mech
    return Model(model.variables, mechanisms, model.parameters)


def test_bind_grid_is_bind_at_every_point():
    # Random models of the sweep test (parameters in root and cpt entries and def
    # bodies; rows that leave [0, 1] or sum past 1) and the models above, half of
    # them with int literals (`1 - p`, `2 * p`, `X > 4 * q`), on grids of random
    # values, values at the bounds and 1e-12 past them, values just past that, and
    # names bind rejects.
    rng = np.random.default_rng(2701)
    texts = [_model(rng, set(rng.choice(FAILURES[:2], int(rng.integers(0, 3)), replace=False).tolist()))
             for _ in range(200)] + list(GRID_MODELS.values()) * 2
    seen = {"ok": 0, "error": 0, "edge ok": 0, "past": 0, "names": 0, "int ok": 0, "int error": 0}
    for i, text in enumerate(texts):
        model = _with_int_literals(parse_model(text)) if i % 2 else parse_model(text)
        for _ in range(4):
            points = int(rng.integers(1, 5))
            grid = {}
            for p in model.parameters:
                pool = [p.lower, p.upper, p.lower - 1e-12, p.upper + 1e-12, p.lower - 2e-12, p.upper + 2e-12,
                        float(np.nextafter(p.lower - 1e-12, -1)), float(np.nextafter(p.upper + 1e-12, 2))]
                values = rng.uniform(p.lower, p.upper, points)
                edge = rng.random(points) < 0.15
                values[edge] = rng.choice(pool, int(edge.sum()))
                grid[p.name] = values
            roll = rng.random()
            if roll < 0.05:
                grid.pop(model.parameters[0].name)
            elif roll < 0.1:
                grid["r"] = np.zeros(points)
            got = _grid_outcome(model, grid)
            assert got == _reference_grid_outcome(model, grid), (text, grid)
            seen[got[0]] += 1
            values = np.concatenate(list(grid.values()) or [np.zeros(0)])
            seen["edge ok"] += got[0] == "ok" and bool(np.isin(values, [0.2 - 1e-12, 1 + 1e-12, -1e-12]).any())
            seen["past"] += got[0] == "error" and "outside" in got[1]
            seen["names"] += roll < 0.1
            seen[f"int {got[0]}"] += i % 2
    assert seen["ok"] >= 250 and seen["error"] >= 250 and min(seen.values()) >= 20, seen
    for text in GRID_MODELS.values():  # each model's first failing point on a fixed grid
        for model in (parse_model(text), _with_int_literals(parse_model(text))):
            for points in (1, 2, 9):
                grid = {p.name: np.linspace(p.lower, p.upper, points) for p in model.parameters}
                assert _grid_outcome(model, grid) == _reference_grid_outcome(model, grid), (text, points)


def test_effects_raises_bind_error_of_the_first_failing_point():
    model = parse_model(GRID_MODELS["root_fails"])
    grid = {"p": np.array([0.1, 0.5, 0.75, 0.9])}
    with pytest.raises(BindingError) as err:
        effects(model, grid, "X", "Y", [1.0])
    with pytest.raises(BindingError) as want:
        bind(model, {"p": 0.75})
    assert str(err.value) == str(want.value)
    got = effects(model, {"p": grid["p"][:2]}, "X", "Y", [0.0, 1.0], "space", "positive")
    assert [[v.hex() for v in row] for row in got] == [
        [effect(bind(model, {"p": p}), EffectQuery("X", "Y", d, "space", "positive")).value.hex()
         for d in (0.0, 1.0)] for p in (0.1, 0.5)]
