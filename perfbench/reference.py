"""Independent reference values and output checks for the benchmark.

Nothing here imports `vce`: every expected number is computed from the
generated inputs with numpy, so a wrong answer from the program cannot also
be the reference.  Numbers parsed from the program's stdout are compared
within TOL; witness partitions, z order and exit codes must match exactly.
"""

from __future__ import annotations

import json
import math
import re
from itertools import combinations

import numpy as np

TOL = 1e-9


class Mismatch(Exception):
    """An operation's output disagrees with its reference."""


def expect_close(got: float, want: float, what: str) -> None:
    if not math.isclose(got, want, rel_tol=TOL, abs_tol=TOL):
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def expect_equal(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


# --- the variation family, written from the definitions ---------------------


def pair_terms(gs, ps, degree: float, sign: str) -> np.ndarray:
    """e[i, j] = delta(g_j - g_i) * (4 p_i p_j)^d for i < j, else 0.

    A pair through a zero-probability value weighs 0 for every d.
    """
    gs = np.asarray(gs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    diff = gs[None, :] - gs[:, None]
    if sign == "abs":
        delta = np.abs(diff)
    elif sign == "positive":
        delta = np.maximum(diff, 0.0)
    else:
        delta = np.maximum(-diff, 0.0)
    pq = 4.0 * ps[:, None] * ps[None, :]
    positive = (ps[:, None] > 0.0) & (ps[None, :] > 0.0)
    weight = np.where(positive, np.power(np.where(positive, pq, 1.0), degree), 0.0)
    return np.triu(delta * weight, k=1)


def _chain_sum(e: np.ndarray, chain) -> float:
    total = 0.0
    for a, b in zip(chain, chain[1:]):
        total += float(e[a, b])
    return total


def best_chain(e: np.ndarray, chains) -> tuple[float, tuple[int, ...]]:
    """Max value; ties go to fewer points, then the smallest index tuple."""
    best = None
    for chain in chains:
        key = (-_chain_sum(e, chain), len(chain), chain)
        if best is None or key < best:
            best = key
    return -best[0], best[2]


def variation(gs, ps, degree: float, variant: str, sign: str, witness: bool = False):
    """Per-z variation; with `witness`, also the max-variant's chain (or None).

    The witness search is exhaustive, so ask for it only on short supports.
    """
    e = pair_terms(gs, ps, degree, sign)
    l = len(gs)
    if variant == "peace":
        value = float(sum(e[i, i + 1] for i in range(l - 1)))
        return (value, None) if witness else value
    if variant == "apace":
        value = float(e.sum())
        return (value, None) if witness else value
    if witness:
        if l < 2:
            return 0.0, None
        if variant == "space":
            return best_chain(e, combinations(range(l), 2))
        return best_chain(e, (c for n in range(2, l + 1) for c in combinations(range(l), n)))
    if variant == "space":
        return float(e.max()) if l >= 2 else 0.0
    # Max-weight increasing chain: best[j] = max(0, max_{i<j} best[i] + e[i, j]).
    best = np.zeros(l)
    for j in range(1, l):
        best[j] = max(0.0, float(np.max(best[:j] + e[:j, j])))
    return float(best.max())


# --- chain-k models ---------------------------------------------------------


class ChainModel:
    """X (4 values) -> Z0 -> Z1 -> ... -> Zk-1, with Y = X + sum(Zi).

    `px[i]` is P(X = xs[i]); `a[i]` is P(Z0 = 1 | X = xs[i]); `t[j][b]` is
    P(Zj = 1 | Zj-1 = b) for j >= 1.
    """

    def __init__(self, xs, px, a, t):
        self.xs = tuple(float(x) for x in xs)
        self.px = np.asarray(px, dtype=float)
        self.a = np.asarray(a, dtype=float)
        self.t = [np.asarray(row, dtype=float) for row in t]
        self.k = len(t) + 1

    def dense(self) -> np.ndarray:
        """P(x, z) as shape (4, 2^k); z index bits run Z0 (high) .. Zk-1 (low),
        which is the lexicographic order of z tuples."""
        z0 = np.stack([1.0 - self.a, self.a], axis=1)
        arr = self.px[:, None] * z0  # (4, 2)
        for tj in self.t:
            trans = np.stack([1.0 - tj, tj], axis=1)  # [prev, next]
            arr = (arr.reshape(4, -1, 2)[:, :, :, None] * trans[None, None, :, :]).reshape(4, -1)
        return arr

    def z_bits(self) -> np.ndarray:
        n = 2 ** self.k
        idx = np.arange(n)
        return (idx[:, None] >> np.arange(self.k - 1, -1, -1)[None, :]) & 1

    def pz(self) -> np.ndarray:
        """P(z) in lexicographic z order."""
        return self.dense().sum(axis=0)

    def px_given_z0(self) -> np.ndarray:
        """P(x | z0) as shape (2, 4): depends on z only through z0."""
        joint = np.stack([self.px * (1.0 - self.a), self.px * self.a])
        return joint / joint.sum(axis=1, keepdims=True)

    def pz0(self) -> np.ndarray:
        return np.array([(self.px * (1.0 - self.a)).sum(), (self.px * self.a).sum()])


def chain_effect(model: ChainModel, degree: float, variant: str, sign: str):
    """(value, per-z0 (value, witness)) via the two-stratum sum."""
    cond = model.px_given_z0()
    per_z0 = [variation(model.xs, cond[b], degree, variant, sign, witness=True) for b in (0, 1)]
    pz0 = model.pz0()
    value = float(sum(pz0[b] * per_z0[b][0] for b in (0, 1)))
    return value, per_z0


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def chain_baselines(model: ChainModel, janzing: bool) -> dict[str, float]:
    """ACE/ACDE (x0 = min, x1 = max), MI, CMI, Janzing for X -> Y."""
    dense = model.dense()
    s = model.z_bits().sum(axis=1)
    xs = np.array(model.xs)
    ez = []
    for i in (0, 3):
        p1 = model.a[i]
        mean = p1
        for tj in model.t:
            p1 = p1 * tj[1] + (1.0 - p1) * tj[0]
            mean += p1
        ez.append(mean)
    out = {
        "ace": (xs[3] + ez[1]) - (xs[0] + ez[0]),
        "acde": xs[3] - xs[0],
    }
    if janzing:
        out["janzing"] = _entropy(model.px)
    # Y = x + s: joint over (x, s).
    pxs = np.zeros((4, model.k + 1))
    for j in range(model.k + 1):
        pxs[:, j] = dense[:, s == j].sum(axis=1)
    py: dict[float, float] = {}
    for i, x in enumerate(model.xs):
        for j in range(model.k + 1):
            py[x + j] = py.get(x + j, 0.0) + pxs[i, j]
    h_y_given_x = sum(model.px[i] * _entropy(pxs[i] / model.px[i]) for i in range(4))
    out["mi"] = _entropy(np.array(list(py.values()))) - h_y_given_x
    # Given all of Z, Y determines X, so I(X;Y|Z) = H(X|Z) = H(X|Z0).
    cond = model.px_given_z0()
    pz0 = model.pz0()
    out["cmi"] = float(sum(pz0[b] * _entropy(cond[b]) for b in (0, 1)))
    return out


def chain_counterfactual(
    model: ChainModel, y_obs: float | None, z0_obs: int | None, context_x: float | None,
    do_x: float, target: str,
) -> dict[float, float]:
    """Twin-world distribution of `target` (Y or Zk-1) under do(X = do_x),
    given evidence on Y and/or Z0 observed while X was pinned to `context_x`."""
    dense = model.dense()
    bits = model.z_bits()
    s = bits.sum(axis=1)
    xs = np.array(model.xs)
    seen_x = xs[:, None] if context_x is None else np.full((4, 1), context_x)
    mask = np.ones(dense.shape, dtype=bool)
    if y_obs is not None:
        mask &= (seen_x + s[None, :]) == y_obs
    if z0_obs is not None:
        mask &= (bits[:, 0] == z0_obs)[None, :]
    post = np.where(mask, dense, 0.0)
    post = post / post.sum()
    if target == "Y":
        value = np.broadcast_to(do_x + s[None, :], post.shape)
    else:
        value = np.broadcast_to(bits[:, -1][None, :].astype(float), post.shape)
    out: dict[float, float] = {}
    for v, p in zip(value.ravel(), post.ravel()):
        if p > 0.0:
            out[float(v)] = out.get(float(v), 0.0) + float(p)
    return out


# --- wide-cause models ------------------------------------------------------


def strata_effect(pz, ps_rows, gs_rows, degree: float, variant: str, sign: str) -> float:
    """E_Z of the per-z variation, skipping zero-probability strata."""
    total = 0.0
    for p, ps, gs in zip(pz, ps_rows, gs_rows):
        if p > 0.0:
            total += p * variation(gs, ps, degree, variant, sign)
    return total


# --- plug-in estimates from a data table --------------------------------------


def plugin_effect(data: np.ndarray, columns, cause, outcome, given, degree, variant, sign,
                  covariate=None) -> float:
    """The plug-in estimator on exact-stratum frequencies (see vce.estimation)."""
    col = {name: i for i, name in enumerate(columns)}
    x = data[:, col[cause]]
    y = data[:, col[outcome]]
    xs = np.unique(x)
    n = len(data)

    def strata(names):
        if not names:
            return np.zeros(n, dtype=int), [()]
        keys, inverse = np.unique(data[:, [col[v] for v in names]], axis=0, return_inverse=True)
        return inverse.ravel(), [tuple(k) for k in keys]

    zi, zkeys = strata(given)
    total = 0.0
    if covariate is None:
        for z in range(len(zkeys)):
            inz = zi == z
            nz = int(inz.sum())
            ws, gs = [], []
            for xv in xs:
                sel = inz & (x == xv)
                c = int(sel.sum())
                ws.append(c / nz)
                gs.append(float(y[sel].sum()) / c if c else 0.0)
            total += (nz / n) * variation(gs, ws, degree, variant, sign)
        return total
    c = data[:, col[covariate]]
    c0 = float(np.min(c))
    for z in range(len(zkeys)):
        inz = zi == z
        nz = int(inz.sum())
        ws = np.zeros(len(xs))
        for cv in np.unique(c[inz]):
            inzc = inz & (c == cv)
            nzc = int(inzc.sum())
            for j, xv in enumerate(xs):
                ws[j] += (int((inzc & (x == xv)).sum()) / nzc) * ((nzc / n) / (nz / n))
        gs = []
        for xv in xs:
            sel = inz & (c == c0) & (x == xv)
            cnt = int(sel.sum())
            gs.append(float(y[sel].sum()) / cnt if cnt else 0.0)
        total += (nz / n) * variation(gs, list(ws), degree, variant, sign)
    return total


# --- parsers for the CLI's stdout ---------------------------------------------

_HEAD = re.compile(
    r"^(?P<variant>[A-Z]+)_(?P<degree>\S+)\((?P<cause>\w+) -> (?P<outcome>\w+)\) "
    r"\[sign=(?P<sign>\w+)\] = (?P<value>\S+)$"
)
_ZLINE = re.compile(
    r"^    z=\((?P<z>[^)]*)\)  P\(z\)=(?P<p>\S+)  value=(?P<v>\S+)"
    r"(?:  partition=\[(?P<part>[^\]]*)\])?$"
)


def _ints(text: str | None):
    if text is None:
        return None
    return tuple(int(t) for t in text.split(",") if t.strip())


def parse_eval(out: str, fmt: str, z_names: list[str]) -> dict:
    """{value, variant, sign, degree, lines: [(z tuple, P(z), value, witness)]}.

    z tuples follow `z_names`; the JSON form keys z by name.
    """
    if fmt == "json":
        doc = json.loads(out)
        lines = []
        for b in doc["breakdown"]:
            expect_equal(sorted(b["z"]), sorted(z_names), "z variables")
            z = tuple(float(b["z"][name]) for name in z_names)
            part = tuple(b["partition"]) if b["partition"] is not None else None
            lines.append((z, b["probability"], b["value"], part))
        return {"value": doc["value"], "variant": doc["variant"], "sign": doc["sign"],
                "degree": float(doc["degree"]), "lines": lines}
    rows = out.splitlines()
    head = _HEAD.match(rows[0])
    if head is None:
        raise Mismatch(f"unparsable eval header {rows[0]!r}")
    lines = []
    for row in rows[2:]:
        m = _ZLINE.match(row)
        if m is None:
            raise Mismatch(f"unparsable breakdown line {row!r}")
        z = tuple(float(v) for v in m["z"].split(","))
        lines.append((z, float(m["p"]), float(m["v"]), _ints(m["part"])))
    expect_equal(rows[1], f"  per-z breakdown over ({', '.join(z_names)}):", "z variables")
    return {"value": float(head["value"]), "variant": head["variant"].lower(),
            "sign": head["sign"], "degree": float(head["degree"]), "lines": lines}


def parse_table(out: str) -> dict[str, float]:
    """`NAME  value` rows (baselines table) keyed by lower-case name."""
    table = {}
    for row in out.splitlines():
        name, value = row.split()
        table[name.lower()] = float(value)
    return table


_CF_LINE = re.compile(r"^  P\((?P<t>\w+)=(?P<v>\S+)\) = (?P<p>\S+)$")


def parse_counterfactual(out: str, fmt: str) -> list[tuple[float, float]]:
    if fmt == "json":
        doc = json.loads(out)
        return [(float(k), p) for k, p in doc["distribution"].items()]
    rows = out.splitlines()
    pairs = []
    for row in rows[1:]:
        m = _CF_LINE.match(row)
        if m is None:
            raise Mismatch(f"unparsable counterfactual line {row!r}")
        pairs.append((float(m["v"]), float(m["p"])))
    return pairs


def parse_csv(out: str) -> tuple[list[str], list[list[float]]]:
    rows = out.strip().splitlines()
    header = rows[0].split(",")
    return header, [[float(v) for v in row.split(",")] for row in rows[1:]]
