"""Spans and tape-node counts for the traced benchmark run, recorded from outside.

The himie modules bind their collaborators with `from .x import y`, so a call
is intercepted by replacing the attribute on the module that makes the call
(for example `himie.model.encode_text`, not `himie.encoders.encode_text`).
`Tensor.backward` and the `Tensor._result` tape hook are replaced on the class.

A span is [name, parent index, start, end, phase, document id]; spans stay in
memory until `write` is called at the end of the run.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

import himie.dffm
import himie.encoders
import himie.evaluate
import himie.heads
import himie.model
import himie.trainer
from himie.autodiff import Tensor

# (module or class, attribute, span name) for every call site that is timed.
SPAN_SITES = (
    (himie.trainer, "adam_step", "trainer.adam_step"),
    (himie.model, "encode_text", "encoders.encode_text"),
    (himie.model, "encode_frames", "encoders.encode_frames"),
    (himie.encoders, "multi_head_attention", "autodiff.multi_head_attention"),
    (himie.dffm, "multi_head_attention", "autodiff.multi_head_attention"),
    (himie.model, "fuse_g_to_x", "dffm.fuse_g_to_x"),
    (himie.model, "fuse_x_to_g", "dffm.fuse_x_to_g"),
    (himie.model, "construct_text_from_image", "mmcm.construct"),
    (himie.model, "construct_image_from_text", "mmcm.construct"),
    (himie.model, "compute_losses", "heads.compute_losses"),
    (himie.heads, "crf_nll", "heads.crf_nll"),
    (himie.model, "crf_decode", "heads.crf_decode"),
    (himie.evaluate, "score_document", "evaluate.score_document"),
)
# Per-document roots: they open the span that every layer span nests under and
# mark which document the tape nodes created inside them belong to.
ROOT_SITES = (
    (himie.trainer, "forward", "model.forward"),
    (himie.evaluate, "predict", "model.predict"),
)


class Patches:
    """Attribute replacements that `undo` restores in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        # vars() keeps a staticmethod wrapper intact when it is put back
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def op_kind(vjp) -> str:
    """Tape op kind from its VJP closure: `matmul.<locals>.vjp` -> `matmul`."""
    return vjp.__qualname__.split(".", 1)[0]


class Tracer:
    """Records spans and per-document tape-node counts while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = ""
        self._doc_id = ""
        self._nodes: Counter = Counter()
        self.doc_nodes: dict[tuple[str, str], Counter] = {}
        self.doc_regime: dict[str, str] = {}
        self._patches = Patches()

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0, self.phase,
                          self._doc_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = perf_counter()
        return traced

    def _root(self, name: str, fn):
        inner = self._span(name, fn)

        def root(doc, *args, **kwargs):
            self._doc_id = doc.id
            self.doc_regime[doc.id] = doc.modality_mask
            self._nodes = Counter()
            try:
                return inner(doc, *args, **kwargs)
            finally:
                # first visit only: later epochs and passes rebuild the same tape
                self.doc_nodes.setdefault((self.phase, doc.id), self._nodes)
                self._doc_id = ""
        return root

    def install(self, phase: str) -> None:
        """Start recording; spans and node counts are filed under `phase`."""
        self.phase = phase
        for owner, attr, name in ROOT_SITES:
            self._patches.set(owner, attr, self._root(name, getattr(owner, attr)))
        for owner, attr, name in SPAN_SITES:
            self._patches.set(owner, attr, self._span(name, getattr(owner, attr)))
        self._patches.set(Tensor, "backward", self._span("autodiff.backward", Tensor.backward))
        make_result = Tensor._result

        def counted_result(data, parents, vjp):
            out = make_result(data, parents, vjp)
            if out.requires_grad:
                self._nodes[op_kind(vjp)] += 1
            return out
        self._patches.set(Tensor, "_result", staticmethod(counted_result))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- summaries --------------------------------------------------------

    def totals(self, phase: str) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Inclusive seconds, self seconds and call counts per span name."""
        incl: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, parent, t0, t1, ph, _doc in self.spans:
            if ph != phase:
                continue
            incl[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        for i, (name, _parent, t0, t1, ph, _doc) in enumerate(self.spans):
            if ph == phase:
                own[name] += (t1 - t0) - child[i]
        return incl, own, calls

    def nodes_by(self, phase: str) -> tuple[dict[str, list[int]], Counter, int]:
        """Per-regime node totals per document, op-kind totals, document count."""
        by_regime: dict[str, list[int]] = defaultdict(list)
        kinds: Counter = Counter()
        n = 0
        for (ph, doc_id), counts in self.doc_nodes.items():
            if ph != phase:
                continue
            by_regime[self.doc_regime[doc_id]].append(sum(counts.values()))
            kinds.update(counts)
            n += 1
        return by_regime, kinds, n

    def write(self, path, meta: dict) -> None:
        doc = dict(meta, span_fields=["name", "parent", "start_s", "end_s", "phase", "doc"],
                   spans=self.spans,
                   nodes={f"{ph}/{d}": dict(c) for (ph, d), c in self.doc_nodes.items()})
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
