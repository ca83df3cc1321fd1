"""Span recorder for the benchmark's traced run.

The recorder wraps the layer-boundary functions of `vce` from outside the
program: each function listed in SPANS is replaced, in every `vce` module
namespace that binds it by name, by a wrapper that records a span (name,
start, end, parent span, operation).  `Deterministic.value` is wrapped on
the class as a leaf timer that counts and times calls without storing a
span, because it runs once per joint entry.  A span's self time is its
duration minus the time its child spans and leaf calls cover.  Spans stay
in memory and are written out when the run ends.

Functions that a later version of the program no longer has are skipped;
the metrics built on them then read 0.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import Counter
from time import perf_counter

# Layer boundaries, by defining module: the public entry points of each layer.
# Per-element helpers (g_in, weight, local_distribution, ...) stay inside
# their caller's self time, which keeps the span count per operation small.
SPANS = {
    "cli": ("main",),
    "dsl": ("parse_model", "serialize_model"),
    "model": ("validate", "bind"),
    "engine": ("build_joint", "marginal", "conditional", "intervene", "expectation",
               "expectation_under", "entropy", "cond_entropy", "mutual_information",
               "conditional_mutual_information", "kl_divergence", "sample"),
    "variational": ("effect", "pace_vector", "natural_availability", "piv", "brute_force_piv",
                    "piev", "spiv", "apiv", "matrix_form_piev", "ace_flavored_effect",
                    "eliminate_mediator", "cpt_to_noise"),
    "counterfactual": ("counterfactual_query", "abduct"),
    "baselines": ("ace", "cace", "acde", "ande", "janzing_strength", "mi_strength",
                  "cmi_strength", "ipwe"),
    "estimation": ("Dataset.from_csv", "Dataset.validate_against", "estimate_conditionals",
                   "identifiable_effect", "covariate_weighted_effect"),
}
ORACLES = ("variational.piv", "variational.brute_force_piv", "variational.piev",
           "variational.matrix_form_piev")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, parent id, op, name id, start, end, self)
        self.stack: list[list] = []  # [span id, time covered by children]
        self.next_id = 0
        self.op = -1
        self.op_log: list[tuple[int, Counter]] = []
        self.counts = Counter()
        self._patched: list[tuple[object, str, object, object]] = []

    # --- per-operation bookkeeping -------------------------------------------

    def begin_op(self, index: int):
        self.op = index
        self.counts = Counter()
        self._distinct_evals: set = set()
        self._mech_ids: dict[int, tuple] = {}
        self._mech_keys: dict = {}
        self._models: dict[int, tuple] = {}
        self._model_keys: set = set()

    def end_op(self):
        self.counts["expr.distinct"] = len(self._distinct_evals)
        self.counts["engine.distinct_models"] = len(self._model_keys)
        self.op_log.append((self.op, self.counts))
        self._mech_ids, self._models = {}, {}

    def _mech_key(self, mech) -> int:
        """A small id for a deterministic mechanism's content (parents + body)."""
        entry = self._mech_ids.get(id(mech))
        if entry is None:
            if mech.body is not None:
                content = ("body", mech.parents, mech.body)
            else:
                content = ("table", mech.parents, id(mech.table))
            entry = (mech, self._mech_keys.setdefault(content, len(self._mech_keys)))
            self._mech_ids[id(mech)] = entry
        return entry[1]

    def _model_key(self, model) -> None:
        entry = self._models.get(id(model))
        if entry is None:
            entry = (model, repr(model))
            self._models[id(model)] = entry
        self._model_keys.add(entry[1])

    # --- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn, post=None):
        nid = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((sid, parent[0] if parent else -1, tracer.op, nid,
                                     start, end, duration - frame[1]))
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _leaf_value(self, fn):
        tracer = self

        @functools.wraps(fn)
        def value(mech, parent_values):
            start = perf_counter()
            try:
                return fn(mech, parent_values)
            finally:
                elapsed = perf_counter() - start
                counts = tracer.counts
                counts["expr.det_s"] += elapsed
                counts["expr.det_evals"] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed
                tracer._distinct_evals.add((tracer._mech_key(mech), parent_values))

        return value

    def _counted_configurations(self, fn):
        tracer = self

        @functools.wraps(fn)
        def configurations(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.counts["counterfactual.configurations"] += 1
                yield item

        return configurations

    def _post(self, name: str):
        """The count hook run on a span function's result, if it has one."""

        def joint(args, result):
            self.counts["engine.joint_builds"] += 1
            self.counts["engine.joint_entries"] += len(result.entries)
            self._model_key(args[0])

        def report(args, result):
            self.counts["variational.strata"] += len(result.breakdown)

        def records(args, result):
            self.counts["estimation.records"] += len(result)

        return {"engine.build_joint": joint, "variational.effect": report,
                "estimation.Dataset.from_csv": records}.get(name)

    # --- install / restore -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr], new))

    def enable(self) -> None:
        """Swap the wrappers in (they are built on the first call)."""
        if not self._patched:
            self._build()
        for owner, attr, _, new in self._patched:
            setattr(owner, attr, new)

    def disable(self) -> None:
        """Put the program's own functions back."""
        for owner, attr, old, _ in reversed(self._patched):
            setattr(owner, attr, old)

    def _build(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "vce" or n.startswith("vce.")) and m is not None]
        for layer, names in SPANS.items():
            home = sys.modules.get(f"vce.{layer}")
            if home is None:
                continue
            for qual in names:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(home, cls_name, None)
                    raw = cls.__dict__.get(attr) if cls is not None else None
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(
                            self._span(name, raw.__func__, self._post(name))))
                    else:
                        self._patch(cls, attr, self._span(name, raw, self._post(name)))
                    continue
                fn = home.__dict__.get(qual)
                if fn is None:
                    continue
                wrapped = self._span(name, fn, self._post(name))
                for mod in modules:
                    if mod.__dict__.get(qual) is fn:
                        self._patch(mod, qual, wrapped)
        model = sys.modules.get("vce.model")
        det = getattr(model, "Deterministic", None)
        if det is not None and "value" in det.__dict__:
            self._patch(det, "value", self._leaf_value(det.__dict__["value"]))
        cf = sys.modules.get("vce.counterfactual")
        gen = cf.__dict__.get("configurations") if cf is not None else None
        if gen is not None:
            counted = self._counted_configurations(gen)
            for mod in modules:
                if mod.__dict__.get("configurations") is gen:
                    self._patch(mod, "configurations", counted)

    # --- results -----------------------------------------------------------------

    def metrics(self, scale: dict[int, float]) -> dict[str, float]:
        """Per-layer metrics summed over the traced operations; the times of
        operation i are multiplied by scale[i] (see host.py)."""
        self_s = Counter()
        incl = Counter()
        calls = Counter()
        for _, _, op, nid, start, end, own in self.spans:
            name = self.names[nid]
            self_s[name] += own * scale[op]
            incl[name] += (end - start) * scale[op]
            calls[name] += 1
        total = Counter()
        det_s = 0.0
        for op, counts in self.op_log:
            total.update(counts)
            det_s += counts["expr.det_s"] * scale[op]
        layer_self = Counter()
        for name, own in self_s.items():
            layer_self[name.split(".")[0]] += own

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "cli.self_s": layer_self["cli"],
            "dsl.parse_model_s": incl["dsl.parse_model"],
            "dsl.parse_model.calls": calls["dsl.parse_model"],
            "dsl.self_s": layer_self["dsl"],
            "model.validate_s": incl["model.validate"],
            "model.validate.calls": calls["model.validate"],
            "model.bind_s": incl["model.bind"],
            "model.bind.calls": calls["model.bind"],
            "model.self_s": layer_self["model"],
            "expr.det_evals": total["expr.det_evals"],
            "expr.distinct_ratio": ratio(total["expr.distinct"], total["expr.det_evals"]),
            "expr.det_s": det_s,
            "engine.build_joint_s": incl["engine.build_joint"],
            "engine.build_joint.calls": calls["engine.build_joint"],
            "engine.joint_entries": total["engine.joint_entries"],
            "engine.joint_useful_ratio": ratio(total["engine.distinct_models"],
                                               calls["engine.build_joint"]),
            "engine.marginal_s": incl["engine.marginal"],
            "engine.self_s": layer_self["engine"],
            "variational.effect_self_s": self_s["variational.effect"]
            + self_s["variational.pace_vector"],
            "variational.effect.calls": calls["variational.effect"]
            + calls["variational.pace_vector"],
            "variational.strata": total["variational.strata"],
            "variational.oracle_s": sum(incl[n] for n in ORACLES),
            "variational.oracle.calls": sum(calls[n] for n in ORACLES),
            "variational.self_s": layer_self["variational"],
            "counterfactual.query_s": incl["counterfactual.counterfactual_query"],
            "counterfactual.configurations": total["counterfactual.configurations"],
            "counterfactual.self_s": layer_self["counterfactual"],
            "baselines.self_s": layer_self["baselines"],
            "baselines.calls": sum(c for n, c in calls.items() if n.startswith("baselines.")),
            "estimation.from_csv_s": incl["estimation.Dataset.from_csv"],
            "estimation.validate_against_s": incl["estimation.Dataset.validate_against"],
            "estimation.effect_s": incl["estimation.identifiable_effect"]
            + incl["estimation.covariate_weighted_effect"],
            "estimation.records": total["estimation.records"],
            "estimation.self_s": layer_self["estimation"],
            "trace.op_wall_s": incl["cli.main"],
            "trace.spans": len(self.spans),
        }

    def layer_self_total(self, metrics: dict[str, float]) -> float:
        return sum(metrics[f"{layer}.self_s"] for layer in SPANS) + metrics["expr.det_s"]

    def write(self, path: str) -> None:
        """Spans as gzipped TSV: id, parent, op, name, start, end, self."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\tself_s\n")
            for sid, parent, op, nid, start, end, own in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{self.names[nid]}\t{start!r}\t{end!r}\t{own!r}\n")
