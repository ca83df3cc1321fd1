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
import io
import math
from collections import defaultdict
from functools import cached_property
from itertools import chain, count, groupby, repeat
from typing import Sequence

import numpy as np

from .engine import Distribution, stratify
from .errors import DatasetError, QueryError, UnavailableStratumError
from .model import Model, _snap_grid
from .variational import EffectQuery, StratumTable


class Dataset:
    """Rectangular table of real-valued observations, `cells` a read-only
    (records x columns) float64 array; built on first read, `rows` holds them
    as tuples and `table` as a Distribution of unit masses whose keys repeat
    (no probability table), each column coded by its distinct values,
    ascending, each spelled as it first appears."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Sequence[float]]):
        columns, rows = tuple(columns), tuple(map(tuple, rows))
        _check_shape(columns, len(rows))
        for i, row in enumerate(rows):
            _check_row(i, row, len(columns))
        self._hold(columns, np.array(rows, dtype=float).reshape(len(rows), len(columns)))

    def _hold(self, columns: tuple[str, ...], distinct: np.ndarray, codes=slice(None)) -> None:
        """Hold record i as row codes[i] of `distinct`, whose rows are in order of first appearance."""
        self.columns, self._distinct, self._codes = columns, distinct, codes
        self.cells = distinct[codes]  # a view, not a copy, when each record is its own row
        self.cells.flags.writeable = False

    def __len__(self) -> int:
        return len(self.cells)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise DatasetError(f"unknown column '{name}'") from None

    @cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.cells.tolist()))

    @cached_property
    def table(self) -> Distribution:
        # Each column is coded over the distinct records, then gathered by record.  The
        # first distinct record holding a value is the first record holding it.
        coded = [np.unique(c, return_index=True, return_inverse=True) for c in self._distinct.T]
        values = [tuple(c[first].tolist()) for c, (_, first, _) in zip(self._distinct.T, coded)]
        codes = [inverse[self._codes] for *_, inverse in coded]
        return Distribution(self.columns, columns=(values, codes, np.ones(len(self))))

    @classmethod
    def from_csv(cls, path: str) -> "Dataset":
        """A header row of names, then records of spellings `float` accepts;
        each error is the one a scan record by record meets first.  Records
        are numbered as they first appear and each distinct one is parsed once."""
        with open(path, "rb") as fh:
            data = fh.read()
        # Distinct record 0 is the blank one, which holds no cells.
        header, widths, cells, codes = _lines(data) or _csv_records(data)
        ends, unread = np.cumsum(widths), iter(cells)
        try:
            flat = np.fromiter(map(float, unread), float, len(cells))
        except ValueError:  # the cells left unread place the one `float` rejects, in
            # the first distinct record that holds one, which first appears lowest
            k = np.searchsorted(ends, len(cells) - sum(1 for _ in unread) - 1, side="right")
            raise DatasetError(f"line {int(np.argmax(codes == k)) + 2}: non-numeric value") from None
        columns = tuple(h.strip() for h in header)
        codes = codes[codes > 0]  # blank records skipped
        _check_shape(columns, len(codes))
        odd = widths != len(columns)
        odd[np.searchsorted(ends, np.flatnonzero(~np.isfinite(flat)), side="right")] = True
        odd = odd[codes]
        if odd.any():  # the first record that is ragged or holds a non-finite value
            i = int(np.argmax(odd))
            k = codes[i]
            _check_row(i, flat[ends[k] - widths[k]:ends[k]].tolist(), len(columns))
        dataset = cls.__new__(cls)
        distinct = flat.reshape(-1, len(columns))  # all records distinct: each is its own row
        dataset._hold(columns, distinct, codes - 1 if len(codes) > len(distinct) else slice(None))
        return dataset

    def validate_against(self, model: Model) -> None:
        """Check every value lies in the named variable's declared support."""
        off = [_snap_grid(model.support(name), np.asarray(vs))[1]  # per value-table entry
               for name, vs in zip(self.columns, self.table.values)]
        if any(map(np.any, off)):  # the first failure in row order, as a scan row by row meets it
            first = np.argmax(np.transpose([o[c] for o, c in zip(off, self.table.codes)]))
            i, c = divmod(int(first), len(self.columns))
            raise DatasetError(f"row {i}: value {self.cells[i, c].item()!r} outside the declared "
                               f"support of '{self.columns[c]}'")


def _lines(data: bytes):
    """The header's fields, each distinct record's width, all their cells and
    each record's number, from UTF-8 text split at line feeds as `csv.reader`
    reads it; None for text that is empty or not UTF-8, quotes, holds NUL or
    a bare carriage return, or has a line longer than the field limit."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        return None
    crlf = text.count("\r\n")
    if not text or '"' in text or "\0" in text or text.count("\r") != crlf:
        return None
    # Not splitlines: csv keeps \x0c, \x85, \u2028, ... inside a cell.
    lines = text.split("\r\n") if crlf == text.count("\n") else text.replace("\r\n", "\n").split("\n")
    records, codes = _number(lines[1:], "")
    if max(map(len, [lines[0], *records])) > csv.field_size_limit():
        return None
    widths = np.fromiter(map(str.count, records, repeat(",")), np.intp, len(records)) + 1
    widths[0] = 0  # a blank line is an empty record, as to csv
    cells = ",".join(records).split(",")[1:]  # the first cell is the blank record's
    return lines[0].split(",") if lines[0] else [], widths, cells, codes


def _csv_records(data: bytes):
    """`_lines` by `csv.reader`, which reads undecodable text as a stream
    and so raises the decode error at the position it meets the bad byte."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        header = next(reader, None)
        records = list(map(tuple, reader))  # tuples of strings drop out of gc tracking
    except csv.Error as err:
        raise DatasetError(f"line {reader.line_num}: {err}") from None
    if header is None:
        raise DatasetError("empty CSV file")
    records, codes = _number(records, ())
    widths = np.fromiter(map(len, records), np.intp, len(records))
    return header, widths, list(chain.from_iterable(records)), codes


def _number(records: list, blank) -> tuple[list, np.ndarray]:
    """The distinct `records`, `blank` first whether or not it appears and the
    rest in order of first appearance, and each record's index among them."""
    index = defaultdict(count(1).__next__, {blank: 0})
    codes = np.fromiter(map(index.__getitem__, records), np.intp, len(records))
    return list(index), codes


def _check_shape(columns: tuple[str, ...], records: int) -> None:
    if len(set(columns)) != len(columns):
        raise DatasetError("duplicate column names")
    if not records:
        raise DatasetError("dataset must contain at least one record")


def _check_row(i: int, row: Sequence, width: int) -> None:
    if len(row) != width:
        raise DatasetError(f"row {i} has {len(row)} values, expected {width}")
    for v in row:
        if not isinstance(v, float):
            raise DatasetError(f"row {i} holds a non-numeric value {v!r}")
        if not math.isfinite(v):
            raise DatasetError(f"row {i} holds a non-finite value {v!r}")


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
    spelt = [tuple(dataset.cells[first, i].tolist()) for i in zi]
    z = Distribution(z_vars, columns=(spelt, [np.arange(len(first))] * len(zi), count_z / len(dataset)))
    with np.errstate(all="ignore"):  # where a sum, so a mean, or two means' difference overflow
        wide = np.flatnonzero(~np.isfinite(np.ptp(gs, axis=1)))
    if len(wide):
        raise DatasetError(f"'{outcome}' means over '{cause}' = {list(table.values[xi])} at z = "
                           f"{z.keys(wide[:1])[0]} are {gs[wide[0]].tolist()}: not finite, or "
                           f"farther apart than the largest float")
    return StratumTable(z, ps, gs, tuple(range(width)), outcome)


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
    return table.effects([query.degree], query.variant, query.sign)[0][0]


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
    table = StratumTable(z_table.z, ws, gs_c0, z_table.indices, outcome)
    return table.effects([query.degree], query.variant, query.sign)[0][0]
