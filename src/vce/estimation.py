"""Plug-in estimators of the variational effects from observational data.

Under the identifiability assumptions (separable outcome, one-to-one noise,
conditional independence) the per-pair variation is expressible through
observable conditionals:

    |E(Y|x',z) - E(Y|x,z)| * (4 P(x'|z) P(x|z))^d

so the estimators fill the exact engine's `StratumTable` from empirical
strata and aggregate it as `effect` does.  No smoothing: strata the data
never observed are hard errors when an estimate needs them.  The
covariate-weighted form replaces the weights by
(4 * sum_c P(x'|z,c)P(c|z) * sum_c P(x|z,c)P(c|z))^d with outcome
differences read off a designated covariate stratum c0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import add
from typing import Sequence

from .errors import DatasetError, QueryError, UnavailableStratumError
from .model import Model
from .variational import EffectQuery, StratumTable, _ZRow


@dataclass(frozen=True)
class Dataset:
    """Rectangular table of real-valued observations, one row per record."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if len(set(self.columns)) != len(self.columns):
            raise DatasetError("duplicate column names")
        if not self.rows:
            raise DatasetError("dataset must contain at least one record")
        width = len(self.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise DatasetError(f"row {i} has {len(row)} values, expected {width}")
            for v in row:
                if not isinstance(v, float):
                    raise DatasetError(f"row {i} holds a non-numeric value {v!r}")
                if not math.isfinite(v):
                    raise DatasetError(f"row {i} holds a non-finite value {v!r}")

    def __len__(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DatasetError(f"unknown column '{name}'") from None

    def column(self, name: str) -> list[float]:
        i = self.column_index(name)
        return [r[i] for r in self.rows]

    @classmethod
    def from_csv(cls, path: str) -> "Dataset":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DatasetError("empty CSV file") from None
            rows = []
            for lineno, record in enumerate(reader, start=2):
                if not record:
                    continue
                try:
                    rows.append(tuple(float(v) for v in record))
                except ValueError:
                    raise DatasetError(f"line {lineno}: non-numeric value") from None
        return cls(tuple(h.strip() for h in header), tuple(rows))

    def validate_against(self, model: Model) -> None:
        """Check every value lies in the named variable's declared support."""
        supports = []
        for name in self.columns:
            supports.append(model.support(name))
        for i, row in enumerate(self.rows):
            for name, support, v in zip(self.columns, supports, row):
                if v not in support:
                    raise DatasetError(
                        f"row {i}: value {v!r} outside the declared support of '{name}'"
                    )


def estimate_conditionals(
    dataset: Dataset, cause: str, outcome: str, z_vars: Sequence[str]
) -> StratumTable:
    """Empirical P(z), P(x|z) and E(Y|x,z) from exact-stratum frequencies.

    One row per observed z, in ascending order, over the sorted observed
    cause values.  A cause value never seen with z has weight 0 and mean 0.0.
    """
    xi = dataset.column_index(cause)
    yi = dataset.column_index(outcome)
    zi = [dataset.column_index(z) for z in z_vars]
    if len(set(z_vars)) != len(z_vars) or {cause, outcome} & set(z_vars):
        raise QueryError("the conditioning set must name distinct variables "
                         "other than the cause and the outcome")
    n = len(dataset)
    z_count: dict[tuple[float, ...], int] = {}
    xz_count: dict[tuple[tuple[float, ...], float], int] = {}
    y_sum: dict[tuple[tuple[float, ...], float], float] = {}
    seen: set[float] = set()
    for row in dataset.rows:
        z = tuple(row[i] for i in zi)
        x = row[xi]
        seen.add(x)
        z_count[z] = z_count.get(z, 0) + 1
        xz_count[(z, x)] = xz_count.get((z, x), 0) + 1
        y_sum[(z, x)] = y_sum.get((z, x), 0.0) + row[yi]
    xs = sorted(seen)
    rows = []
    for z in sorted(z_count):
        counts = [xz_count.get((z, x), 0) for x in xs]
        ps = tuple(c / z_count[z] for c in counts)
        gs = tuple(y_sum[(z, x)] / c if c else 0.0 for x, c in zip(xs, counts))
        rows.append(_ZRow(z, z_count[z] / n, ps, gs))
    return StratumTable(tuple(z_vars), tuple(rows), tuple(range(len(xs))))


def identifiable_effect(
    dataset: Dataset,
    cause: str,
    outcome: str,
    z_vars: Sequence[str],
    degree: float,
    variant: str = "pace",
    sign: str = "abs",
) -> float:
    """Plug-in estimate of the chosen variational effect from data alone."""
    query = EffectQuery(cause, outcome, degree, variant, sign)
    table = estimate_conditionals(dataset, cause, outcome, z_vars)
    return table.aggregate(query.degree, query.variant, query.sign)[0]


def covariate_weighted_effect(
    dataset: Dataset,
    cause: str,
    outcome: str,
    z_vars: Sequence[str],
    covariate: str,
    degree: float,
    variant: str = "pace",
    sign: str = "abs",
    c0: float | None = None,
) -> float:
    """Covariate-weighted estimate: weights marginalize the covariate away,
    outcome differences are taken inside the designated c0 stratum."""
    query = EffectQuery(cause, outcome, degree, variant, sign)
    if covariate in z_vars or covariate in (cause, outcome):
        raise QueryError("covariate must be distinct from the query variables")
    cvalues = sorted(set(dataset.column(covariate)))
    if c0 is None:
        c0 = cvalues[0]
    elif c0 not in cvalues:
        raise UnavailableStratumError(f"covariate stratum c0={c0!r} never observed")

    # The (z, c) rows give both the weights and the c0-stratum means; sorted
    # keys put each z's rows together, in ascending c.
    zc = estimate_conditionals(dataset, cause, outcome, list(z_vars) + [covariate])
    z_table = estimate_conditionals(dataset, cause, outcome, z_vars)
    rows = []
    for z_row, (_, group) in zip(z_table.rows, groupby(zc.rows, key=lambda r: r.key[:-1])):
        cells = [(r, r.probability / z_row.probability) for r in group]  # (row, P(c|z))
        # Added in order (`sum` compensates from Python 3.12).
        ws = tuple(reduce(add, (r.ps[i] * pc for r, pc in cells), 0.0) for i in z_table.indices)
        at_c0 = next((r for r, _ in cells if r.key[-1] == c0), None)
        for i, w in enumerate(ws):
            if w > 0.0 and (at_c0 is None or at_c0.ps[i] == 0.0):
                x = sorted(set(dataset.column(cause)))[i]
                raise UnavailableStratumError(
                    f"no records for cause value {x!r} in stratum {z_row.key}"
                )
        rows.append(_ZRow(z_row.key, z_row.probability, ws, at_c0.gs))
    table = StratumTable(z_table.z_variables, tuple(rows), z_table.indices)
    return table.aggregate(query.degree, query.variant, query.sign)[0]
