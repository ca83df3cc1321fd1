"""Host-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by up to 2x over seconds
(other tenants, SMT siblings, frequency), and CPU time drifts with wall
time, so raw timings of the same code spread widely from run to run.  The
benchmark therefore runs a fixed pure-Python chunk of dict, tuple and float
work between operations and divides each operation's wall time by the host
factor: the median time of the chunks around it over REFERENCE_S.  Timings
reported this way read as wall time on the host at its reference speed.

REFERENCE_S is the chunk's 5th-percentile time over 2,000 runs on the
2-core x86-64 container the benchmark was written on; it only scales the
reported numbers and never changes between the two sides of a comparison.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.00125
# Start-up time follows neither wall time nor the chunk: it is scaled by the
# time a fresh process takes to import numpy and the standard modules vce
# uses (probe.py --reference), whose median on that container is 0.09 s.
STARTUP_REFERENCE_S = 0.09


def chunk() -> float:
    d: dict = {}
    acc = 0.0
    for i in range(4000):
        key = (i % 61, i % 7)
        d[key] = d.get(key, 0.0) + i * 0.5
        acc += abs(i - 2000) ** 0.5
    return acc


def timed_chunk() -> float:
    start = perf_counter()
    chunk()
    return perf_counter() - start


def factor(chunk_times: list[float]) -> float:
    """Host slowdown relative to the reference speed."""
    return statistics.median(chunk_times) / REFERENCE_S


def factors(chunk_times: list[float], ops: int) -> list[float]:
    """Per-operation factors when chunk i ran just before operation i and
    chunk i + 1 just after it: the median of chunks i - 1 .. i + 2.  Of the
    windows tried (2 to 40 chunks), this one left the least spread between
    operations of one kind within a run."""
    return [factor(chunk_times[max(0, i - 1):i + 3]) for i in range(ops)]
