"""Smoke self-test of the benchmark itself.

    python3 perfbench/selftest.py                # from the root of a checkout
    python3 perfbench/selftest.py --seed-counts  # also require the recorded counts

Checks, at tiny sizes, that every workload runs with and without tracing,
reports exactly the metrics BENCHMARK.json names and fails no operation;
that a deliberately corrupted reference is counted as a failure; that the
benchmark refuses to run without the program's sources; and that the layer
self times account for the traced operation wall time.  It then traces
three full-size operations and prints the count relations recorded when the
benchmark was introduced; with --seed-counts they must hold exactly.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

# (operation, counter, value) at the commit that introduced the benchmark.
SEED_COUNTS = (
    ("eval chain-10", "expr.det_evals", 12_288),
    ("eval chain-10", "engine.joint_entries", 4_096),
    ("check 9 strata", "engine.joint_builds", 37),
    ("sweep 11 x 5", "engine.joint_builds", 55),
    ("sweep 11 x 5", "engine.distinct_models", 11),
)


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


def check_workloads(spec: dict) -> None:
    for workload in wl.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(doc) == ["attempted", "correct", "failed", "metrics"], doc
            assert doc["correct"] and doc["failed"] == 0, proc.stderr
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            print(f"ok  {workload} --trace {trace}: {doc['attempted']} attempted, 0 failed")


def check_corrupted_reference() -> None:
    """Shift one eval reference by 1e-6: exactly that operation must fail."""
    import vce.cli

    real = ref.chain_effect
    calls = []

    def corrupted(*args):
        value, per_z0 = real(*args)
        calls.append(args)
        return (value + 1e-6 if len(calls) == 1 else value), per_z0

    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as work:
        ref.chain_effect = corrupted
        try:
            ops = wl.deep_enum(os.path.relpath(work, ROOT), 7, wl.Sizes(tiny=True))[:20]
        finally:
            ref.chain_effect = real
        victim = next(op for op in ops if op.label.startswith("eval"))
        loop = run.Loop(vce.cli, ops)
        loop.run_count(len(ops))
    assert len(loop.failures) == 1, loop.failures
    assert loop.failures[0].startswith(f"{victim.label}: {' '.join(victim.argv)}: effect")
    print(f"ok  a corrupted reference counts as 1 failure of {len(ops)} operations")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "deep_enum", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")


def traced_counts() -> dict[str, dict]:
    """Trace one chain-10 eval, one 9-strata check and one 11 x 5 sweep."""
    import vce.cli

    out = {}
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as work:
        rel = os.path.relpath(work, ROOT)
        text, _ = wl.chain_model(random.Random(1), 10)
        chain = wl._write(os.path.join(rel, "chain10.sem"), text)
        fun = wl._write(os.path.join(rel, "fun.sem"), wl.fun_model(random.Random(1), 10, 9))
        ops = [
            wl.Op("eval chain-10", ["eval", chain, "--cause", "X", "--outcome", "Y"],
                  lambda out: None),
            wl.Op("check 9 strata", ["check", fun, "--cause", "X", "--outcome", "Y"],
                  wl._check_ok(9)),
            wl.Op("sweep 11 x 5", ["sweep", "models/sprinkler_functional.sem", "--cause", "R",
                                   "--outcome", "W", "--axis", "p=0:1:0.1", "--axis",
                                   wl.D_AXIS], lambda out: None),
        ]
        loop = run.Loop(vce.cli, ops)
        tracer = Tracer()
        tracer.enable()
        try:
            loop.run_count(len(ops), tracer)
        finally:
            tracer.disable()
        assert not loop.failures, loop.failures
        metrics = tracer.metrics({i: 1.0 for i in range(len(ops))})
        accounted = tracer.layer_self_total(metrics)
        assert abs(accounted - metrics["trace.op_wall_s"]) <= 1e-6 * metrics["trace.op_wall_s"]
        print(f"ok  layer self times sum to {accounted:.6f} s of {metrics['trace.op_wall_s']:.6f}"
              " s traced op wall")
        for op, counts in tracer.op_log:
            out[ops[op].label] = counts
    return out


def main() -> int:
    strict = "--seed-counts" in sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    check_workloads(spec)
    check_corrupted_reference()
    check_refuses_without_program()
    counts = traced_counts()
    differ = 0
    for label, name, seed_value in SEED_COUNTS:
        got = counts[label][name]
        differ += got != seed_value
        print(f"{'ok ' if got == seed_value else 'NEW'} {label}: {name} = {got} "
              f"(when introduced: {seed_value})")
    e = counts["eval chain-10"]
    print(f"    eval chain-10: {e['expr.det_evals'] / e['engine.joint_entries']:g} "
          "Deterministic.value calls per joint entry")
    s = counts["sweep 11 x 5"]
    print(f"    sweep 11 x 5: engine.joint_useful_ratio = {s['engine.distinct_models']}/"
          f"{s['engine.joint_builds']}")
    return 1 if strict and differ else 0


if __name__ == "__main__":
    sys.exit(main())
