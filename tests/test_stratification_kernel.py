"""The dataset readers on the engine's stratification kernel, against the
row-at-a-time dict readers they replaced (tests/helpers.py): same keys (a
zero keeps its -0.0 or 0.0 spelling), order, float bits, error types and
error texts."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    reference_covariate_weighted_effect,
    reference_estimate_conditionals,
    reference_ipwe,
    reference_validate_against,
    table_rows,
)
from vce.baselines import ipwe
from vce.engine import stratify
from vce.errors import DatasetError
from vce.estimation import Dataset, covariate_weighted_effect, estimate_conditionals
from vce.model import FiniteSupport, Model, Root, Variable
from vce.variational import StratumTable

CASES = 320
NAMES = ("A", "B", "C", "D", "E")
# Both zeros, negatives, fractions and a value 5e-10 off 1.0 (within the
# supports' 1e-9 tolerance); "F" names no column.
POOL = (-0.0, 0.0, 1.0, 1.0 + 5e-10, -1.0, 2.5, 3.0, -2.25)
SUPPORT_POOL = (-2.25, -1.0, 0.0, 1.0, 2.5, 2.5 + 3e-9, 3.0, 4.0)


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 - the error itself is compared
        return "error", type(err), str(err)
    if isinstance(result, StratumTable):
        rows = [(repr(r.key), r.probability.hex(), [p.hex() for p in r.ps], [g.hex() for g in r.gs])
                for r in table_rows(result)]
        return "table", result.z_variables, result.indices, rows
    return "value", type(result), None if result is None else float(result).hex()


def _dataset(rng):
    """2 to 5 columns over 1 to 3 values of POOL each, four in ten of them
    holding both zeros as well; one record in ten datasets."""
    width = int(rng.integers(2, len(NAMES) + 1))
    n = 1 if rng.random() < 0.1 else int(rng.integers(2, 150))
    pools = [[*rng.choice(POOL, size=int(rng.integers(1, 4)), replace=False),
              *((-0.0, 0.0) if rng.random() < 0.4 else ())] for _ in range(width)]
    rows = tuple(tuple(float(rng.choice(pool)) for pool in pools) for _ in range(n))
    return Dataset(NAMES[:width], rows)


def _names(rng, data, most, avoid=()):
    """Up to `most` distinct column names, mostly outside `avoid`; now and
    then one named twice, one in `avoid` or one that no column has."""
    free = [c for c in data.columns if c not in avoid]
    size = min(int(rng.integers(0, most + 1)), len(free))
    names = [str(c) for c in rng.choice(free, size=size, replace=False)] if size else []
    if rng.random() < 0.15:
        names.append(str(rng.choice(data.columns + ("F",))))
    return names


def _model(rng, data):
    """Roots named after the columns (now and then one short).  In half the
    models each support is its column's values plus some of SUPPORT_POOL,
    but for one column in two of those; other supports are random parts of
    SUPPORT_POOL."""
    names = data.columns[:-1] if rng.random() < 0.1 else data.columns
    covered = rng.random() < 0.5
    odd = int(rng.integers(0, 2 * len(names)))
    variables, mechanisms = [], {}
    for i, name in enumerate(names):
        values = set(rng.choice(SUPPORT_POOL, size=int(rng.integers(1, 5)), replace=False).tolist())
        if covered and i != odd:
            values |= {r[i] for r in data.rows}
        variables.append(Variable(name, FiniteSupport(tuple(sorted(values)))))
        mechanisms[name] = Root({v: 1.0 / len(values) for v in variables[-1].support.values})
    return Model(tuple(variables), mechanisms)


def _zero_spellings(data, z_vars):
    """Whether a z column holds both -0.0 and 0.0."""
    signs = [{math.copysign(1.0, r[data.column_index(z)]) for r in data.rows
              if r[data.column_index(z)] == 0.0} for z in z_vars]
    return {-1.0, 1.0} in signs


def test_dataset_readers_match_the_dict_readers():
    rng = np.random.default_rng(1414)
    seen = dict.fromkeys(("tables", "errors", "zeros", "single", "same", "empty", "covariate",
                          "covariate_errors", "ipwe", "ipwe_unseen", "valid", "invalid"), 0)
    for _ in range(CASES):
        data = _dataset(rng)
        cause, outcome = (str(rng.choice(data.columns)) if rng.random() < 0.97 else "F"
                          for _ in range(2))
        z_vars = _names(rng, data, 2, (cause, outcome))
        got = _outcome(estimate_conditionals, data, cause, outcome, z_vars)
        assert got == _outcome(reference_estimate_conditionals, data, cause, outcome, z_vars)
        seen["tables" if got[0] == "table" else "errors"] += 1
        if got[0] == "table":
            seen["zeros"] += _zero_spellings(data, z_vars)
            seen["single"] += len(data) == 1
            seen["same"] += cause == outcome
            seen["empty"] += not z_vars

        others = [c for c in data.columns if c not in (cause, outcome, *z_vars[:1])]
        covariate = str(rng.choice(others if others and rng.random() < 0.85 else data.columns + ("F",)))
        c0 = None if rng.random() < 0.6 else float(rng.choice(POOL + (7.0,)))
        args = (data, cause, outcome, z_vars[:1], covariate, float(rng.choice((0.0, 0.5, 1.0))),
                str(rng.choice(("pace", "peace", "space", "apace"))),
                str(rng.choice(("abs", "positive", "negative"))))
        got = _outcome(covariate_weighted_effect, *args, c0=c0)
        assert got == _outcome(reference_covariate_weighted_effect, *args, c0=c0)
        seen["covariate" if got[0] == "value" else "covariate_errors"] += 1

        treatment = str(rng.choice(data.columns))
        s = float(rng.choice(POOL + (7.0,)))
        covariates = _names(rng, data, 2)
        got = _outcome(ipwe, data, treatment, s, outcome, covariates)
        assert got == _outcome(reference_ipwe, data, treatment, s, outcome, covariates)
        seen["ipwe"] += got[0] == "value"
        seen["ipwe_unseen"] += (got[0] == "error" and outcome in data.columns and s not in
                                [r[data.column_index(treatment)] for r in data.rows])

        model = _model(rng, data)
        got = _outcome(data.validate_against, model)
        assert got == _outcome(reference_validate_against, data, model)
        seen["valid" if got[0] == "value" else "invalid"] += 1
    assert seen["tables"] >= 150 and seen["errors"] >= 30, seen
    assert seen["zeros"] >= 30 and seen["single"] >= 10 and seen["same"] >= 30, seen
    assert seen["empty"] >= 30 and seen["covariate"] >= 50 and seen["covariate_errors"] >= 50, seen
    assert seen["ipwe"] >= 80 and seen["ipwe_unseen"] >= 150, seen
    assert seen["valid"] >= 30 and seen["invalid"] >= 100, seen


def test_a_stratum_key_keeps_its_first_record_spelling():
    # S's first zero is -0.0, but stratum (0, 0) first appears with S = 0.0.
    data = Dataset(("S", "T", "X", "Y"),
                   ((-0.0, 1.0, 0.0, 1.0), (0.0, 0.0, 1.0, 2.0), (0.0, 0.0, 0.0, 3.0)))
    table = estimate_conditionals(data, "X", "Y", ["S", "T"])
    assert [repr(r.key) for r in table_rows(table)] == ["(0.0, 0.0)", "(-0.0, 1.0)"]
    assert repr(table_rows(estimate_conditionals(data, "X", "Y", ["S"]))[0].key) == "(-0.0,)"
    assert data.table.values[0] == (-0.0,) and repr(data.table.values[0][0]) == "-0.0"


def test_validate_against_reports_the_first_failure_in_row_order():
    model = Model((Variable("A", FiniteSupport((0.0, 1.0))), Variable("B", FiniteSupport((0.0,)))),
                  {"A": Root({0.0: 0.5, 1.0: 0.5}), "B": Root({0.0: 1.0})})
    data = Dataset(("A", "B"), ((0.0, -0.0), (0.0, 2.0), (5.0, 3.0), (-0.0, 1e-10)))
    with pytest.raises(DatasetError, match=r"^row 1: value 2\.0 outside the declared support of 'B'$"):
        data.validate_against(model)
    Dataset(("A", "B"), ((1.0 + 1e-10, -0.0),)).validate_against(model)


def test_stratify_sums_in_row_order_and_sorts_strata():
    # Strata (z = 1) then (z = 0) by first appearance, reported ascending;
    # the weights sum in row order: 0.1 + 0.2 + 0.3, not a pairwise sum.
    data = Dataset(("Z", "X", "W"), ((1.0, 0.0, 0.1), (0.0, 1.0, 5.0), (1.0, 0.0, 0.2),
                                     (1.0, 1.0, 7.0), (1.0, 0.0, 0.3)))
    table = data.table
    first, mass, (count, w) = stratify(table, table.codes[1], 2, ["Z"], [table.values_of("W")])
    assert first.tolist() == [1, 0] and mass.tolist() == [1.0, 4.0]
    assert count.tolist() == [[0.0, 1.0], [3.0, 1.0]]
    assert w[1, 0].hex() == ((0.1 + 0.2) + 0.3).hex() and w[0, 1] == 5.0


def test_dataset_length_and_table_are_the_records():
    data = Dataset(("A", "B"), ((2.0, 1.0), (0.0, 1.0), (2.0, -1.0)))
    assert len(data) == 3 and len(data.table) == 3
    assert data.table.values == ((0.0, 2.0), (-1.0, 1.0))
    assert [c.tolist() for c in data.table.codes] == [[1, 0, 1], [1, 1, 0]]
    assert data.table.masses.tolist() == [1.0, 1.0, 1.0]


def _distinct_strata(n, seed):
    """n records whose S and T columns are all distinct reals (but for a
    -0.0 and a 0.0 in each), with a binary cause X and a real outcome Y."""
    rng = np.random.default_rng(seed)
    s, t = rng.permutation(n) - n / 2 + 0.25, rng.normal(size=n)
    s[:2], t[:2] = (-0.0, 0.0), (0.0, -0.0)
    x, y = rng.integers(0, 2, size=n).astype(float), rng.normal(size=n)
    return Dataset(("S", "T", "X", "Y"), tuple(zip(s.tolist(), t.tolist(), x.tolist(), y.tolist())))


def test_readers_match_the_dict_readers_on_all_distinct_strata():
    for n, seed in ((65, 1), (300, 2), (1000, 3)):
        data = _distinct_strata(n, seed)
        for z_vars in (["S", "T"], ["T", "S"], ["S"]):
            assert (_outcome(estimate_conditionals, data, "X", "Y", z_vars)
                    == _outcome(reference_estimate_conditionals, data, "X", "Y", z_vars))
            for s in (0.0, 1.0):
                assert (_outcome(ipwe, data, "X", s, "Y", z_vars)
                        == _outcome(reference_ipwe, data, "X", s, "Y", z_vars))
        args = (data, "X", "Y", ["S"], "T", 1.0)
        assert (_outcome(covariate_weighted_effect, *args)
                == _outcome(reference_covariate_weighted_effect, *args))


def test_grouping_all_distinct_columns_takes_memory_linear_in_the_records():
    # Two all-distinct columns make 3000 ** 2 joint keys: a table with a slot
    # per key would take 72 MB, the records' own columns take 24 kB each.
    data = _distinct_strata(3000, 4)
    table = data.table
    tracemalloc.start()
    try:
        table.group(["S", "T", "X"])
        estimate_conditionals(data, "X", "Y", ["S", "T"])
        ipwe(data, "X", 1.0, "Y", ["S", "T"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak
    for names in (["S", "T", "X"], ["T", "S"]):
        group, first = table.group(names)
        ids: dict = {}
        number = [ids.setdefault(key, len(ids)) for key in table.keys(names=names)]
        assert group.tolist() == number
        assert first.tolist() == [number.index(i) for i in range(len(ids))]
