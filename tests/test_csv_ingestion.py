"""The column-wise CSV reader (`Dataset.from_csv`) against the record-by-record
reader it replaced (`helpers.ReferenceDataset`): same columns, record count,
rows by `float.hex`, table values and codes, error types and error texts, on
random messy files.  Plain text is read as lines and everything else by
`csv.reader`; both paths are checked, on the traps that tell them apart."""

import numpy as np
import pytest

from helpers import ReferenceDataset
from vce import estimation
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


def _write(path, text: str) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def test_from_csv_matches_record_by_record_reader(tmp_path):
    rng = np.random.default_rng(1717)
    path = str(tmp_path / "data.csv")
    kinds = dict.fromkeys(("ok", "non-numeric", "duplicate", "record", "values", "non-finite"), 0)
    for _ in range(CASES):
        text = _csv_text(rng)
        want = _outcome(ReferenceDataset.from_csv, _write(path, text))
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


# Characters `str.splitlines` breaks a line at but csv keeps inside a cell
# (float strips the whitespace among them and rejects the rest mid-number).
INSIDE = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
# What sends a text to csv.reader: a quote, NUL and a bare carriage return.
TRAPS = ('"', "\x00", "\r")
UNQUOTED = [tuple(c for c in pool if '"' not in c) for pool in (NUMBERS, NON_FINITE, NON_NUMERIC)]


def _line_cell(rng, i: int, distinct: bool) -> str:
    if distinct:
        return repr(float(rng.normal())) if rng.random() < 0.9 else str(i)
    u = rng.random()
    cell = str(rng.choice(UNQUOTED[0] if u < 0.95 else UNQUOTED[1] if u < 0.98 else UNQUOTED[2]))
    u = rng.random()
    if u < 0.05:  # at either end, or now and then splitting the number
        at = int(rng.integers(0, len(cell) + 1)) if u < 0.01 else int(rng.choice([0, len(cell)]))
        cell = cell[:at] + str(rng.choice(INSIDE)) + cell[at:]
    return cell


def _line_text(rng) -> str:
    """A few distinct records repeated (or every record distinct), with blank
    lines, LF and CRLF endings, cells holding the characters above and now
    and then one trap."""
    width = int(rng.integers(1, 5))
    distinct = rng.random() < 0.2
    u = rng.random()
    header = "" if u < 0.04 else ",".join(NAMES[:width] if u > 0.08 else "A" * width)
    pool = [",".join(_line_cell(rng, i, distinct) for _ in range(width)) for i in range(6)]
    n = 0 if rng.random() < 0.04 else int(rng.integers(1, 40))
    lines = [header]
    for i in range(n):
        u = rng.random()
        if u < 0.06:
            lines.append("")
        elif distinct or u < 0.1:
            size = width if distinct or u < 0.08 else max(1, width + int(rng.choice([-1, 1])))
            lines.append(",".join(_line_cell(rng, i, distinct) for _ in range(size)))
        else:
            lines.append(str(rng.choice(pool[:int(rng.integers(1, 7))])))
    crlf = rng.random()
    text = "".join(line + ("\r\n" if rng.random() < crlf else "\n") for line in lines)
    if rng.random() < 0.2:
        text = text.rstrip("\r\n")
    if rng.random() < 0.2:
        at = int(rng.integers(0, len(text) + 1))
        text = text[:at] + str(rng.choice(TRAPS)) + text[at:]
    return text


def test_line_path_matches_record_by_record_reader(tmp_path):
    rng = np.random.default_rng(2121)
    path = tmp_path / "data.csv"
    paths = {"lines": 0, "csv": 0}
    kinds = dict.fromkeys(("ok", "non-numeric", "duplicate", "record", "values", "non-finite"), 0)
    for _ in range(CASES):
        text = _line_text(rng)
        want = _outcome(ReferenceDataset.from_csv, _write(path, text))
        assert _outcome(Dataset.from_csv, str(path)) == want, text
        paths["lines" if estimation._lines(text.encode()) else "csv"] += 1
        kinds[next((k for k in kinds if k in want[2]), "ok") if want[0] == "error" else "ok"] += 1
    assert paths["csv"] > CASES // 10 and paths["lines"] > CASES // 2, paths
    assert kinds["ok"] > CASES // 3 and min(kinds.values()) >= 20, kinds


@pytest.mark.parametrize("text", [
    'A,B\n"1",2\n3,4\n', 'A,B\n1,2\r3,4\n', "A,B\n1,2\r\r\n3,4\n", "A,B\r1,2\r",
    "A,B\n1,\x002\n", "A\x00,B\n1,2\n", "A,B\n1,2\n\x00\n",
    "A,B\n\x0c1,2\x85\n1\u2028,3\u2029\n", "A,B\n1\x0c2,3\n", "A,B\n1,2\x855\n",
    "A\x0bB,C\n1,2\n", "A,B\n1,2\x1c\n\x1d3,\x1e4\n",
    "\n1,2\n", "\n", "\n\n", "\r\n1\r\n", "A\n\n1\n\nx\n", "A,B\n\n1,2\n\n3\n",
    "A,B\n\n1,nan\n", "A,A\n\nx\n", "A,A\n\n\n",
    "A,B\r\n1,2\r\n-0,0\r\n0,-0.0\r\n", "A,B\r\n1,2\n3,4\r\n", "A,B\r\n1,2\r\n\r\n",
    "A,B\n1,2", "A,B\r\n1,2", "A,B", "A,B\n1,2\n1,2\n1.0,2\n1,2.0\n1,2,3\n1,2\n",
    f"A\n{'0' * 131_072}\n", f"A,B\n{'0' * 131_072},1\n", f"{'A' * 131_072}\n0\n",
])
def test_line_path_traps(tmp_path, text):
    path = _write(tmp_path / "data.csv", text)
    assert _outcome(Dataset.from_csv, path) == _outcome(ReferenceDataset.from_csv, path)


@pytest.mark.parametrize("line, text", [
    (3, f"A,B\n0,1\n1,{'1' * 131_073}\n"), (3, f"A,B\n0,1\r\n1,{'1' * 131_073}"),
    (3, f"A,B\nx,1\n1,{'1' * 131_073}\n0,x\n"), (1, f"{'A' * 131_073}\n0\n"),
])
def test_field_over_the_limit_is_a_csv_error(tmp_path, line, text):
    path = _write(tmp_path / "data.csv", text)
    want = ("error", DatasetError, f"line {line}: field larger than field limit (131072)")
    assert _outcome(Dataset.from_csv, path) == _outcome(ReferenceDataset.from_csv, path) == want


@pytest.mark.parametrize("repeat", [1, 3])
def test_real_valued_records_all_distinct_or_each_repeated(tmp_path, repeat):
    rng = np.random.default_rng(21)
    rows = [",".join(repr(float(v)) for v in rng.normal(size=3)) for _ in range(300)]
    path = _write(tmp_path / "data.csv", "A,B,C\r\n" + "\r\n".join(rows * repeat) + "\r\n")
    want = _outcome(ReferenceDataset.from_csv, path)
    assert want[1] == 300 * repeat
    assert _outcome(Dataset.from_csv, path) == want


def test_undecodable_text_reports_the_streamed_position(tmp_path):
    # Past the first 8 KB a whole-text decode would count from the file's
    # start; the stream counts from its 8 KB chunk, as the reader always has.
    text = "X,Y\n" + "".join(f"{i % 2},{i % 3}\n" for i in range(6000))
    data = text.encode()
    path = tmp_path / "data.csv"
    path.write_bytes(data[:20_004] + b"\xff" + data[20_005:])
    with pytest.raises(UnicodeDecodeError, match="position 3620: invalid start byte"):
        Dataset.from_csv(str(path))
