"""Plug-in estimators of the variational effects from observational data.

Under the identifiability assumptions (separable outcome, one-to-one noise,
conditional independence) the per-pair variation is expressible through
observable conditionals:

    |E(Y|x',z) - E(Y|x,z)| * (4 P(x'|z) P(x|z))^d

so the exact engine's chain/max/sum machinery reruns unchanged on empirical
strata.  No smoothing: strata the data never observed are hard errors when
an estimate needs them.  The covariate-weighted form replaces the weights by
(4 * sum_c P(x'|z,c)P(c|z) * sum_c P(x|z,c)P(c|z))^d with outcome
differences read off a designated covariate stratum c0.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DatasetError, QueryError, UnavailableStratumError
from .model import Model
from .variational import SIGNS, VARIANTS, variation


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


@dataclass(frozen=True)
class StratumTable:
    """Empirical conditionals per (x, z) stratum.

    Strata absent from the data are simply missing from the mappings.
    """

    xs: tuple[float, ...]
    z_variables: tuple[str, ...]
    p_z: dict[tuple[float, ...], float]
    p_x_given_z: dict[tuple[tuple[float, ...], float], float]
    mean_y: dict[tuple[tuple[float, ...], float], float]


def estimate_conditionals(
    dataset: Dataset, cause: str, outcome: str, z_vars: Sequence[str]
) -> StratumTable:
    """Empirical E(Y|x,z), P(x|z), and P(z) from exact-stratum frequencies."""
    xi = dataset.column_index(cause)
    yi = dataset.column_index(outcome)
    zi = [dataset.column_index(z) for z in z_vars]
    n = len(dataset)
    z_count: dict[tuple[float, ...], int] = {}
    xz_count: dict[tuple[tuple[float, ...], float], int] = {}
    y_sum: dict[tuple[tuple[float, ...], float], float] = {}
    xs: set[float] = set()
    for row in dataset.rows:
        z = tuple(row[i] for i in zi)
        x = row[xi]
        xs.add(x)
        z_count[z] = z_count.get(z, 0) + 1
        xz_count[(z, x)] = xz_count.get((z, x), 0) + 1
        y_sum[(z, x)] = y_sum.get((z, x), 0.0) + row[yi]
    return StratumTable(
        xs=tuple(sorted(xs)),
        z_variables=tuple(z_vars),
        p_z={z: c / n for z, c in z_count.items()},
        p_x_given_z={k: c / z_count[k[0]] for k, c in xz_count.items()},
        mean_y={k: s / xz_count[k] for k, s in y_sum.items()},
    )


def _plugin_value(
    xs: Sequence[float],
    strata: Mapping[tuple[float, ...], tuple[float, Sequence[float], Sequence[float | None]]],
    degree: float,
    variant: str,
    sign: str,
) -> float:
    """Shared plug-in aggregation: strata map z -> (P(z), weights, means).

    `weights` feed the availability factor (probabilities, or marginalized
    sums in the covariate case); a None mean with a positive weight pair is
    an unavailable stratum.
    """
    total = 0.0
    for z_key in sorted(strata):
        pz, ws, means = strata[z_key]
        if pz <= 0.0:
            continue
        gs = []
        for x, w, m in zip(xs, ws, means):
            if m is None:
                if w > 0.0:
                    raise UnavailableStratumError(
                        f"no records for cause value {x!r} in stratum {z_key}"
                    )
                gs.append(0.0)  # weight 0 makes the value irrelevant
            else:
                gs.append(m)
        value, _ = variation(gs, ws, degree, variant, sign)
        total += pz * value
    return total


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
    if variant not in VARIANTS:
        raise QueryError(f"unknown variant '{variant}'")
    if sign not in SIGNS:
        raise QueryError(f"unknown sign '{sign}'")
    table = estimate_conditionals(dataset, cause, outcome, z_vars)
    strata = {}
    for z_key, pz in table.p_z.items():
        ws = [table.p_x_given_z.get((z_key, x), 0.0) for x in table.xs]
        means = [table.mean_y.get((z_key, x)) for x in table.xs]
        strata[z_key] = (pz, ws, means)
    return _plugin_value(table.xs, strata, degree, variant, sign)


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
    if variant not in VARIANTS:
        raise QueryError(f"unknown variant '{variant}'")
    if sign not in SIGNS:
        raise QueryError(f"unknown sign '{sign}'")
    if covariate in z_vars or covariate in (cause, outcome):
        raise QueryError("covariate must be distinct from the query variables")
    cvalues = sorted(set(dataset.column(covariate)))
    if c0 is None:
        c0 = cvalues[0]
    elif c0 not in cvalues:
        raise UnavailableStratumError(f"covariate stratum c0={c0!r} never observed")

    # (z, c) strata give both the weights and the c0-stratum means.
    zc = estimate_conditionals(dataset, cause, outcome, list(z_vars) + [covariate])
    z_table = estimate_conditionals(dataset, cause, outcome, z_vars)

    # P(c|z) from the (z, c) counts.
    pc_given_z: dict[tuple[tuple[float, ...], float], float] = {}
    for zc_key, p in zc.p_z.items():
        z_key, c = zc_key[:-1], zc_key[-1]
        pc_given_z[(z_key, c)] = p / z_table.p_z[z_key]

    xs = z_table.xs
    strata = {}
    for z_key, pz in z_table.p_z.items():
        ws = []
        for x in xs:
            marginalized = sum(
                zc.p_x_given_z.get((z_key + (c,), x), 0.0) * pc_given_z[(z_key, c)]
                for c in cvalues
                if (z_key, c) in pc_given_z
            )
            ws.append(marginalized)
        means = [zc.mean_y.get((z_key + (c0,), x)) for x in xs]
        strata[z_key] = (pz, ws, means)
    return _plugin_value(xs, strata, degree, variant, sign)
