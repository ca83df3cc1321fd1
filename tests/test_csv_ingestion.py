"""The column-wise CSV reader (`Dataset.from_csv`) against the record-by-record
reader it replaced (`helpers.ReferenceDataset`): same columns, record count,
rows by `float.hex`, table values and codes, error types and error texts, on
random messy files."""

import numpy as np
import pytest

from helpers import ReferenceDataset
from vce.errors import DatasetError
from vce.estimation import Dataset

CASES = 2400
NAMES = ("A", "B", "C", "D")
# Spellings of a name that the header's stripping may merge with another.
ODD_NAMES = (" A", "B ", '"C"', '" D "', '"a,b"')
# Each zero spelled several ways, values `float` reads alike from several
# spellings, non-finite spellings (1e400 overflows to inf) and text `float`
# rejects; quoted cells may hold the field separator.
NUMBERS = ("0", "-0", "0.0", "-0.0", "0e5", "1", "1e0", " 1", "1.0 ", "1_0", "10", "2.5",
           "-2.5", '"3"', '" -0 "', "1e-10", "7")
NON_FINITE = ("nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400")
NON_NUMERIC = ("x", "", " ", "1__0", "0x1", '"1,5"', "--1", "1e", '""')


def _cell(rng, messy: bool) -> str:
    u = rng.random() if messy else 0.0
    pool = NUMBERS if u < 0.9 else NON_FINITE if u < 0.96 else NON_NUMERIC
    return str(rng.choice(pool))


def _record(rng, width: int, messy: bool) -> str:
    """Usually `width` cells; now and then blank, and in a messy file now and
    then ragged, with a ragged record's extra cell sometimes non-numeric."""
    u = rng.random()
    if u < 0.06:
        return ""
    size = width
    if u < 0.1 and messy:
        size = max(1, width + int(rng.choice([-2, -1, 1, 2])))
    cells = [_cell(rng, messy) for _ in range(size)]
    if size > width and rng.random() < 0.3:
        cells[-1] = str(rng.choice(NON_NUMERIC[:5]))
    return ",".join(cells)


def _csv_text(rng) -> str:
    width = int(rng.integers(1, 5))
    messy = rng.random() < 0.5
    header = [str(rng.choice(ODD_NAMES)) if messy and rng.random() < 0.15 else name
              for name in NAMES[:width]]
    n = 0 if rng.random() < 0.04 else int(rng.integers(1, 12))
    lines = [",".join(header), *(_record(rng, width, messy) for _ in range(n))]
    newline = "\r\n" if rng.random() < 0.2 else "\n"
    return newline.join(lines) + (newline if rng.random() < 0.8 else "")


def _outcome(read, path):
    try:
        data = read(path)
    except DatasetError as err:
        return "error", type(err), str(err)
    table = data.table
    return (data.columns, len(data), [[v.hex() for v in r] for r in data.rows],
            [[v.hex() for v in vs] for vs in table.values], [c.tolist() for c in table.codes])


def test_from_csv_matches_record_by_record_reader(tmp_path):
    rng = np.random.default_rng(1717)
    path = str(tmp_path / "data.csv")
    kinds = dict.fromkeys(("ok", "non-numeric", "duplicate", "record", "values", "non-finite"), 0)
    for _ in range(CASES):
        text = _csv_text(rng)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        want = _outcome(ReferenceDataset.from_csv, path)
        assert _outcome(Dataset.from_csv, path) == want, text
        kinds[next((k for k in kinds if k in want[2]), "ok") if want[0] == "error" else "ok"] += 1
    assert kinds["ok"] > CASES // 3 and min(kinds.values()) >= 30, kinds  # every outcome covered


@pytest.mark.parametrize("text", ["", "A,B\n", "A,B\n\n\n", "A,A\n1,2\n", "A,B\n1,2,3\nx,1\n",
                                  "A,B\n1\n2,nan\n", "A,B\n1,nan\n2\n", "A,B\n\n1,x\n",
                                  "A,B\n1,inf,2\n", 'A,B\n"1","2"\n-0,0\n0.0,-0.0\n'])
def test_from_csv_edges(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(Dataset.from_csv, str(path)) == _outcome(ReferenceDataset.from_csv, str(path))


@pytest.mark.parametrize("columns, rows", [
    (("A", "B"), ((0.0, 1.0), (1.0, 2.0))),
    (("A", "B"), ((0.0, 1), (1.0, 2.0))),
    (("A", "B"), ((0.0, float("nan"), 1.0), (1.0, 2.0))),
    (("A", "B"), ((0.0, float("inf")), (1.0,))),
    (("A", "B"), ((0.0, 1.0), (1.0, "2"))),
    (("A", "B"), ()),
    (("A", "A"), ((0.0, 1.0),)),
    (("A", "B"), [[-0.0, np.float64(2.5)], (0.0, -0.0)]),
])
def test_constructor_matches_reference(columns, rows):
    assert _outcome(lambda _: Dataset(columns, rows), None) \
        == _outcome(lambda _: ReferenceDataset(columns, rows), None)


def test_cells_are_read_only_and_rows_lazy(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("X,Y\n-0,1\n0.0,2\n", encoding="utf-8")
    data = Dataset.from_csv(str(path))
    assert data.cells.dtype == np.float64 and data.cells.shape == (2, 2)
    assert not data.cells.flags.writeable
    assert "rows" not in vars(data)
    assert repr(data.rows) == "((-0.0, 1.0), (0.0, 2.0))"
