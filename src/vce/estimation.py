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
from functools import cached_property
from itertools import chain, groupby
from typing import Sequence

import numpy as np

from .engine import Distribution, stratify
from .errors import DatasetError, QueryError, UnavailableStratumError
from .model import Model, _snap_grid
from .variational import EffectQuery, StratumTable


@dataclass(frozen=True)
class Dataset:
    """Rectangular table of real-valued observations, one row per record;
    `table` holds them as a Distribution of unit masses whose keys repeat (no
    probability table), each column coded by its distinct values, ascending,
    each spelled as it first appears."""

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

    @cached_property
    def table(self) -> Distribution:
        data = np.fromiter(chain.from_iterable(self.rows), float, len(self) * len(self.columns))
        data = data.reshape(len(self), -1).T
        coded = [np.unique(c, return_index=True, return_inverse=True) for c in data]
        values = [tuple(c[first].tolist()) for c, (_, first, _) in zip(data, coded)]
        return Distribution(self.columns, columns=(values, [code for *_, code in coded], np.ones(len(self))))

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
        supports = [model.support(name) for name in self.columns]
        off = np.transpose([_snap_grid(support, np.asarray(vs))[1][c]
                            for support, vs, c in zip(supports, self.table.values, self.table.codes)])
        if off.any():  # the first failure in row order, as a scan row by row meets it
            i, c = divmod(int(np.argmax(off)), len(self.columns))
            raise DatasetError(f"row {i}: value {self.rows[i][c]!r} outside the declared "
                               f"support of '{self.columns[c]}'")


def estimate_conditionals(
    dataset: Dataset, cause: str, outcome: str, z_vars: Sequence[str]
) -> StratumTable:
    """Empirical P(z), P(x|z) and E(Y|x,z) from exact-stratum frequencies.

    One row per observed z, in ascending order, over the sorted observed
    cause values.  A cause value never seen with z has weight 0 and mean 0.0.
    Outcome sums, and so means, or a stratum's spread of means that overflow
    are rejected.
    """
    xi, _, *zi = [dataset.column_index(name) for name in (cause, outcome, *z_vars)]
    if len(set(z_vars)) != len(z_vars) or {cause, outcome} & set(z_vars):
        raise QueryError("the conditioning set must name distinct variables "
                         "other than the cause and the outcome")
    table = dataset.table
    width = len(table.values[xi])
    first, count_z, (count_xz, y_sum) = stratify(
        table, table.codes[xi], width, z_vars, [table.values_of(outcome)])
    ps = count_xz / count_z[:, None]
    gs = np.divide(y_sum, count_xz, out=np.zeros_like(y_sum), where=count_xz > 0)
    # Each z value as its stratum's first record spells it (-0.0 or 0.0).
    spelt = [tuple(dataset.rows[r][i] for r in first.tolist()) for i in zi]
    z = Distribution(z_vars, columns=(spelt, [np.arange(len(first))] * len(zi), count_z / len(dataset)))
    with np.errstate(all="ignore"):  # where a sum, so a mean, or two means' difference overflow
        wide = np.flatnonzero(~np.isfinite(np.ptp(gs, axis=1)))
    if len(wide):
        raise DatasetError(f"'{outcome}' means over '{cause}' = {list(table.values[xi])} at z = "
                           f"{z.keys(wide[:1])[0]} are {gs[wide[0]].tolist()}: not finite, or "
                           f"farther apart than the largest float")
    return StratumTable(z, ps, gs, tuple(range(width)))


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
    return table.aggregate([query.degree], query.variant, query.sign)[0][0]


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
    cvalues = dataset.table.values[dataset.column_index(covariate)]  # ascending
    if c0 is None:
        c0 = cvalues[0]
    elif c0 not in cvalues:
        raise UnavailableStratumError(f"covariate stratum c0={c0!r} never observed")

    # The (z, c) rows give both the weights and the c0-stratum means; sorted
    # keys put each z's rows together, in ascending c.
    zc = estimate_conditionals(dataset, cause, outcome, list(z_vars) + [covariate])
    z_table = estimate_conditionals(dataset, cause, outcome, z_vars)
    sizes = [len(list(rows)) for _, rows in groupby(key[:-1] for key in zc.z.keys())]
    group = np.repeat(np.arange(len(sizes)), sizes)  # each (z, c) row's z row
    # P(x|z) = sum over c of P(x|z,c) P(c|z), added in row order as bincount adds.
    terms = zc.ps * (zc.probability / z_table.probability[group])[:, None]
    l = terms.shape[1]
    cells = (group[:, None] * l + np.arange(l)).ravel()
    ws = np.bincount(cells, weights=terms.ravel(), minlength=len(sizes) * l).reshape(-1, l)
    at_c0 = np.flatnonzero(np.asarray(zc.z.values[-1]) == c0)  # at most one row per z
    ps_c0, gs_c0 = np.zeros_like(ws), np.zeros_like(ws)
    ps_c0[group[at_c0]], gs_c0[group[at_c0]] = zc.ps[at_c0], zc.gs[at_c0]
    lacking = (ws > 0.0) & (ps_c0 == 0.0)
    if lacking.any():
        s, i = divmod(int(lacking.argmax()), l)
        x = dataset.table.values[dataset.column_index(cause)][i]
        raise UnavailableStratumError(
            f"no records for cause value {x!r} in stratum {z_table.z.keys(np.array([s]))[0]}"
        )
    table = StratumTable(z_table.z, ws, gs_c0, z_table.indices)
    return table.aggregate([query.degree], query.variant, query.sign)[0][0]
