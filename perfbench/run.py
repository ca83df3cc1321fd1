"""Closed-loop benchmark of the vce CLI, end to end and by layer.

    python3 perfbench/run.py --workload deep_enum --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src.  One
client, one thread, one process: each operation is a `vce.cli.main(argv)`
call with stdout captured, sent only after the previous one returned, and
checked against a reference.  Inputs are generated from --seed into a
scratch directory under .perfbench/ that is removed at the end.  Timings
are host-normalised (host.py): a calibration chunk runs between operations.

--trace 0 measures for --seconds and reports the end-to-end metrics;
set-up time comes from fresh processes (probe.py).  --trace 1 runs a fixed
prefix of the operation list, each operation once untraced and then once
under the span recorder (tracer.py), and reports the per-layer metrics; the
fixed prefix makes every count repeat exactly for a given seed, and the
pairing makes the tracing overhead immune to host drift.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import host  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 7
# The set-up probe's operation: the first of this kind, so its cost is the
# same for every seed.
SETUP_OP = {"deep_enum": "eval k=8", "wide_variation": "check l=10 s=5",
            "param_sweep": "sweep sprinkler_functional.sem R p/0.1",
            "estimate_csv": "estimate given=S"}
# Operations in the traced prefix: whole cycles of each workload's pattern.
TRACE_OPS = {"deep_enum": 40, "wide_variation": 20, "param_sweep": 36, "estimate_csv": 24}
UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB",
         "setup_s": "s"}


class Loop:
    """Runs operations one after another, timing `vce.cli.main`, checking
    outputs, and timing a calibration chunk before the first operation and
    after every operation."""

    def __init__(self, cli, ops: list[wl.Op]):
        self.cli = cli
        self.ops = ops
        self.latencies: list[float] = []
        self.chunks: list[float] = [host.timed_chunk()]
        self.failures: list[str] = []

    def run_one(self, index: int, tracer=None) -> None:
        op = self.ops[index % len(self.ops)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.begin_op(len(self.latencies))
            start = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception as exc:  # a traceback is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        self.latencies.append(elapsed)
        self.chunks.append(host.timed_chunk())
        try:
            ref.expect_equal(code, 0, "exit code")
            op.check(out.getvalue())
        except (ref.Mismatch, ValueError, KeyError, IndexError) as exc:
            detail = f" / {err.getvalue().strip()}" if err.getvalue() else ""
            self.failures.append(f"{op.label}: {' '.join(op.argv)}: {exc}{detail}")

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            self.run_one(i)
            i += 1

    def run_count(self, count: int, tracer=None) -> None:
        for i in range(count):
            self.run_one(i, tracer)

    def normalised(self) -> list[float]:
        factors = host.factors(self.chunks, len(self.latencies))
        return [t / f for t, f in zip(self.latencies, factors)]


def setup_seconds(argv: list[str]) -> tuple[float, int]:
    """Set-up time of one fresh process, and the number of failed probes.

    Start-up time does not follow host.py's chunk; it follows the start-up of
    another fresh process.  So reference probes (numpy and the standard
    modules vce imports) alternate with the vce probes, and the median vce
    time is scaled by host.STARTUP_REFERENCE_S over the median reference
    time.  Over 37 blocks of 9 pairs this ratio spread 0.066 against 0.248
    for the raw median.
    """
    probe = [sys.executable, os.path.join(HERE, "probe.py")]
    times, refs, failed = [], [], 0
    for _ in range(SETUP_PROBES):
        ref_run = subprocess.run([*probe, "--reference"], capture_output=True, text=True,
                                 timeout=120)
        refs.append(float(ref_run.stdout.split()[-1]))
        proc = subprocess.run([*probe, *argv], capture_output=True, text=True, timeout=120)
        if proc.returncode == 0:
            times.append(float(proc.stdout.split()[-1]))
        else:
            failed += 1
    if not times:
        return float("nan"), failed
    return statistics.median(times) * host.STARTUP_REFERENCE_S / statistics.median(refs), failed


def end_to_end(lat: list[float], setup_s: float) -> dict[str, float]:
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def traced(loop: Loop, count: int, spans_path: str) -> dict[str, float]:
    """Each prefix operation untraced, then traced; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer()
    for i in range(count):
        loop.run_one(i)
        tracer.enable()
        try:
            loop.run_one(i, tracer)
        finally:
            tracer.disable()
    lat = loop.normalised()
    scale = {i: t / raw for i, (t, raw) in enumerate(zip(lat, loop.latencies))}
    metrics = tracer.metrics(scale)
    metrics["trace.overhead_ratio"] = sum(lat[1::2]) / sum(lat[0::2])
    tracer.write(spans_path)
    for line in cross_checks(loop, tracer):
        print(line)
    return metrics


def cross_checks(loop: Loop, tracer) -> list[str]:
    """The count relations recorded when the benchmark was introduced."""
    lines = set()
    for op, counts in tracer.op_log:
        label = loop.ops[(op // 2) % len(loop.ops)].label
        entries = counts["engine.joint_entries"]
        if label == "eval k=10" and entries:
            lines.add(f"cross-check {label}: Deterministic.value calls per joint entry = "
                      f"{counts['expr.det_evals'] / entries:g} "
                      f"({counts['expr.det_evals']} / {entries})")
        elif label.startswith("check") or label.endswith("p/0.1 x d"):
            lines.add(f"cross-check {label}: joint builds = {counts['engine.joint_builds']}, "
                      f"distinct models = {counts['engine.distinct_models']}")
    return sorted(lines)


def report(workload: str, seed: int, loop: Loop, metrics: dict, units: dict,
           raw: dict | None) -> None:
    n = len(loop.latencies)
    factors = host.factors(loop.chunks, n)
    print(f"workload {workload}  seed {seed}  operations {n}  failed {len(loop.failures)}  "
          f"host factor median {statistics.median(factors):.3f}")
    for name, value in metrics.items():
        extra = f"  raw {raw[name]:.6g}" if raw and raw[name] != value else ""
        print(f"  {name:<32} {value:>14.6g} {units[name]:<6} (n={n}){extra}")
    print(f"  {'fail_ratio':<32} {len(loop.failures) / max(n, 1):>14.6g} {'ratio':<6} (n={n})")
    for line in loop.failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vce", "cli.py")):
        print("perfbench: no program under ./src/vce; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import vce.cli

    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    raw = None
    with tempfile.TemporaryDirectory(dir=scratch, prefix=f"{args.workload}-") as work:
        ops = wl.WORKLOADS[args.workload](os.path.relpath(work, root), args.seed,
                                           wl.Sizes(args.tiny))
        if args.trace:
            loop = Loop(vce.cli, ops)
            count = min(TRACE_OPS[args.workload], len(ops))
            spans = os.path.join(scratch, f"spans-{args.workload}-{args.seed}.tsv.gz")
            metrics = traced(loop, count, spans)
            setup_failed = 0
            units = {name: _unit(name) for name in metrics}
        else:
            first = next((op for op in ops if op.label == SETUP_OP[args.workload]), ops[0])
            setup_s, setup_failed = setup_seconds(first.argv)
            warm = Loop(vce.cli, ops)
            warm.run_one(0)  # fill caches before timing
            loop = Loop(vce.cli, ops)
            loop.run_for(args.seconds)
            loop.failures += warm.failures
            metrics = end_to_end(loop.normalised(), setup_s)
            raw = end_to_end(loop.latencies, setup_s)
            units = UNITS
    report(args.workload, args.seed, loop, metrics, units, raw)
    failed = len(loop.failures) + setup_failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(loop.latencies) + (0 if args.trace else SETUP_PROBES),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
