"""Spans around calls into ``quasiloop`` layers, installed from outside.

The tracer replaces each traced function with a wrapper in every
``quasiloop`` module namespace that binds it (and on the class, for
methods), and restores the originals on :meth:`Tracer.uninstall`.  The
program's source is not touched.  A span is ``(id, name, start_ns,
end_ns, parent_id, op_id)``; a direct recursive call of the same traced
function stays inside its caller's span, so ``calls`` counts calls made
from outside the function.  Self time is a span's duration minus the time
covered by its child spans and by the tracer's own bookkeeping for them.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

# (metric prefix, module, class or None, attribute)
TARGETS = (
    ("words.canonical_conjugacy", "words", None, "canonical_conjugacy"),
    ("words.Word.mul", "words", "Word", "__mul__"),
    ("ring.LoopCombination.add", "ring", "LoopCombination", "__add__"),
    ("ring.project_to_classes", "ring", None, "project_to_classes"),
    ("ring.GroupRingElement.mul", "ring", "GroupRingElement", "__mul__"),
    ("surface.build", "surface", None, "build"),
    ("surface.word_from_edge_path", "surface", "QuasiSurface", "word_from_edge_path"),
    ("surface.cyclic_edge_path", "surface", "QuasiSurface", "cyclic_edge_path"),
    ("surface.gate_derivative", "surface", "QuasiSurface", "gate_derivative"),
    ("diagrams.word_to_diagram", "diagrams", None, "word_to_diagram"),
    ("diagrams.combine_generic", "diagrams", None, "combine_generic"),
    ("diagrams.GenericFamily.rotation_word", "diagrams", "GenericFamily", "rotation_word"),
    ("fox.algebraic_brace", "fox", None, "algebraic_brace"),
    ("fox.FoxDerivative.delta", "fox", "FoxDerivative", "delta"),
    ("homology.first_form", "homology", None, "first_form"),
    ("homology.gram_matrix", "homology", None, "gram_matrix"),
    ("homology.gate_dual", "homology", None, "gate_dual"),
    ("homotopy.bullet", "homotopy", None, "bullet"),
    ("homotopy.second_bracket", "homotopy", None, "second_bracket"),
    ("homotopy.gate_brace_geometric", "homotopy", None, "gate_brace_geometric"),
    ("homotopy.kk_pairing", "homotopy", None, "kk_pairing"),
    ("quasilie.jacobiator", "quasilie", None, "jacobiator"),
    ("quasilie.mu_total", "quasilie", None, "mu_total"),
    ("traceeval.mat_mul", "traceeval", None, "mat_mul"),
    ("traceeval.mat_inverse", "traceeval", None, "mat_inverse"),
    ("traceeval.mat_det", "traceeval", None, "mat_det"),
    ("traceeval.RepresentationPoint.eval_trace", "traceeval", "RepresentationPoint", "eval_trace"),
)

# Counts taken at the traced boundaries; the ``repeats`` ones only feed
# the repeat ratios.
COUNTERS = (
    "words.canonical_conjugacy.letters",
    "words.canonical_conjugacy.repeats",
    "ring.LoopCombination.add.terms_in",
    "ring.LoopCombination.add.terms_out",
    "diagrams.combine_generic.crossings",
    "diagrams.combine_generic.repeats",
    "traceeval.mat_mul.scalar_mults",
)

MAX_SPANS = 50_000


class Tracer:
    """Per-function call counts and self times, counters, and the first
    ``MAX_SPANS`` spans of a traced run."""

    def __init__(self):
        self.calls = {name: 0 for name, *_ in TARGETS}
        self.self_ns = {name: 0 for name, *_ in TARGETS}
        self.counters = {name: 0 for name in COUNTERS}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._seen_words: set[int] = set()
        self._seen_families: set[int] = set()
        self._spec_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._patched: list[tuple[object, str, object]] = []

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "quasiloop" or n.startswith("quasiloop."))]
        for name, module, cls, attr in TARGETS:
            owner = sys.modules[f"quasiloop.{module}"]
            if cls is not None:
                klass = getattr(owner, cls)
                original = klass.__dict__[attr]
                self._patch(klass, attr, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self._spans_append
        clock = time.perf_counter_ns
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id = stack[-1][2] if stack else -1
            frame = [name, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_ns[name] += end - start - frame[1]
                spans((span_id, name, start, end, parent_id, tracer.op_id))
            if after is not None:
                after(args, result)
            if stack:
                stack[-1][1] += clock() - start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _spans_append(self, span: tuple) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped_spans += 1

    # --- counters at the boundaries ---------------------------------------

    def _after_words_canonical_conjugacy(self, args, result) -> None:
        letters = args[0].letters
        self.counters["words.canonical_conjugacy.letters"] += len(letters)
        key = hash(letters)
        if key in self._seen_words:
            self.counters["words.canonical_conjugacy.repeats"] += 1
        else:
            self._seen_words.add(key)

    def _after_ring_LoopCombination_add(self, args, result) -> None:
        self.counters["ring.LoopCombination.add.terms_in"] += len(args[0].terms) + len(args[1].terms)
        self.counters["ring.LoopCombination.add.terms_out"] += len(result.terms)

    def _after_diagrams_combine_generic(self, args, result) -> None:
        qs, inputs = args[0], args[1]
        self.counters["diagrams.combine_generic.crossings"] += sum(
            len(result.gate_sequence(g)) for g in qs.gates
        )
        spec_key = self._spec_keys.get(qs)
        if spec_key is None:
            spec_key = hash(json.dumps(qs.spec.to_json_dict(), sort_keys=True))
            self._spec_keys[qs] = spec_key
        key = hash((spec_key, tuple(inputs)))
        if key in self._seen_families:
            self.counters["diagrams.combine_generic.repeats"] += 1
        else:
            self._seen_families.add(key)

    def _after_traceeval_mat_mul(self, args, result) -> None:
        self.counters["traceeval.mat_mul.scalar_mults"] += len(args[0]) ** 3

    # --- results ----------------------------------------------------------

    def aggregates(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "counters": dict(self.counters)}

    def merge(self, other: dict) -> None:
        """Add another process's :meth:`aggregates` (the CLI children)."""
        for name, value in other["calls"].items():
            self.calls[name] += value
        for name, value in other["self_ns"].items():
            self.self_ns[name] += value
        for name, value in other["counters"].items():
            self.counters[name] += value

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                                 "dropped": self.dropped_spans}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(agg: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metric values and units from :meth:`Tracer.aggregates`."""
    out: dict[str, tuple[float, str]] = {}
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = (agg["calls"][name], "count")
        out[f"{name}.self_s"] = (agg["self_ns"][name] / 1e9, "s")
    c = agg["counters"]
    for name in COUNTERS:
        if not name.endswith(".repeats"):
            out[name] = (c[name], "count")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["words.canonical_conjugacy.repeat_ratio"] = (
        ratio(c["words.canonical_conjugacy.repeats"], agg["calls"]["words.canonical_conjugacy"]),
        "ratio")
    out["diagrams.combine_generic.repeat_ratio"] = (
        ratio(c["diagrams.combine_generic.repeats"], agg["calls"]["diagrams.combine_generic"]),
        "ratio")
    out["ring.cancel_ratio"] = (
        ratio(c["ring.LoopCombination.add.terms_out"], c["ring.LoopCombination.add.terms_in"]),
        "ratio")
    return out
