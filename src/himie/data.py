"""Document/corpus data model, JSONL serialization and validation.

A document couples a token sequence with a sequence of patch-feature frames
and carries four gold annotation layers: typed entity spans, coreference
chains (a partition of the entities), directed typed relations between
chains, and per-frame grounded regions with normalized center boxes.

The JSONL form is one object per line with exactly the keys
    id, tokens, frames, entities, chains, relations, regions, modality_mask
where frames is a list of {"patches": [[float]*d_in]*n_p} objects. Floats
survive the round trip exactly (shortest-repr encoding both ways).
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODALITIES = ("full", "no_text", "no_video")


@dataclass(frozen=True)
class Entity:
    start: int  # token index, inclusive
    end: int    # token index, exclusive
    type: str


@dataclass(frozen=True)
class Relation:
    sub: int  # chain index
    obj: int  # chain index
    type: str


@dataclass(frozen=True)
class Region:
    frame: int
    type: str
    cx: float
    cy: float
    w: float
    h: float

    def box(self) -> tuple[float, float, float, float]:
        return (self.cx, self.cy, self.w, self.h)


@dataclass
class Document:
    id: str
    tokens: list[str]
    frames: list[np.ndarray]          # each [n_p, d_in] float64
    entities: list[Entity]
    chains: list[list[int]]           # partition of entity indices
    relations: list[Relation]
    regions: list[Region]
    modality_mask: str = "full"

    @property
    def n_tokens(self) -> int:
        return len(self.tokens)

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def chain_of(self) -> dict[int, int]:
        """entity index -> chain index (assumes a valid partition)."""
        out = {}
        for ci, members in enumerate(self.chains):
            for e in members:
                out[e] = ci
        return out


@dataclass
class Corpus:
    documents: list[Document]

    def __len__(self) -> int:
        return len(self.documents)


# -- validation ----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    path: str
    message: str


def validate(doc: Document) -> list[Violation]:
    """Total check of every document invariant; never raises."""
    out: list[Violation] = []
    n_tok = len(doc.tokens)
    n_ent = len(doc.entities)

    if doc.modality_mask not in MODALITIES:
        out.append(Violation("MODALITY_VALUE", "modality_mask",
                             f"modality_mask {doc.modality_mask!r} not in {MODALITIES}"))

    # frames: rectangular patch grids, uniform within the document
    shape = None
    for i, fr in enumerate(doc.frames):
        arr = np.asarray(fr)
        if arr.ndim != 2:
            out.append(Violation("FRAME_SHAPE", f"frames[{i}]",
                                 f"patches must be 2-D, got ndim={arr.ndim}"))
            continue
        if shape is None:
            shape = arr.shape
        elif arr.shape != shape:
            out.append(Violation("FRAME_SHAPE", f"frames[{i}]",
                                 f"patch grid {arr.shape} differs from first frame {shape}"))
        if not np.all(np.isfinite(arr)):
            out.append(Violation("FRAME_FINITE", f"frames[{i}]", "non-finite patch values"))

    # entities: ordered in-range spans with non-empty types, pairwise disjoint
    for i, e in enumerate(doc.entities):
        if not (0 <= e.start < e.end <= n_tok):
            code = "ENTITY_ORDER" if e.start >= e.end else "ENTITY_RANGE"
            if e.start < 0 or e.end > n_tok:
                code = "ENTITY_RANGE"
            out.append(Violation(code, f"entities[{i}]",
                                 f"span [{e.start}, {e.end}) invalid for {n_tok} tokens"))
        if not e.type:
            out.append(Violation("ENTITY_TYPE", f"entities[{i}].type", "empty entity type"))
    spans = sorted(range(n_ent), key=lambda i: (doc.entities[i].start, doc.entities[i].end))
    for a, b in zip(spans, spans[1:]):
        ea, eb = doc.entities[a], doc.entities[b]
        if max(ea.start, eb.start) < min(ea.end, eb.end):
            out.append(Violation("ENTITY_OVERLAP", f"entities[{b}]",
                                 f"span [{eb.start},{eb.end}) overlaps entities[{a}] [{ea.start},{ea.end})"))

    # chains: non-empty lists forming a partition of entity indices
    seen: dict[int, int] = {}
    for ci, members in enumerate(doc.chains):
        if not members:
            out.append(Violation("CHAIN_EMPTY", f"chains[{ci}]", "empty chain"))
        for m in members:
            if not (0 <= m < n_ent):
                out.append(Violation("CHAIN_INDEX", f"chains[{ci}]",
                                     f"entity index {m} out of range"))
            elif m in seen:
                out.append(Violation("CHAIN_PARTITION", f"chains[{ci}]",
                                     f"entity {m} already in chains[{seen[m]}]"))
            else:
                seen[m] = ci
    missing = [i for i in range(n_ent) if i not in seen]
    if missing:
        out.append(Violation("CHAIN_PARTITION", "chains",
                             f"entities {missing} belong to no chain"))

    # relations: distinct in-range chain endpoints, typed, no duplicates
    n_ch = len(doc.chains)
    seen_rel: set[tuple[int, int, str]] = set()
    for ri, r in enumerate(doc.relations):
        if not (0 <= r.sub < n_ch) or not (0 <= r.obj < n_ch):
            out.append(Violation("RELATION_INDEX", f"relations[{ri}]",
                                 f"chain indices ({r.sub}, {r.obj}) out of range for {n_ch} chains"))
            continue
        if r.sub == r.obj:
            out.append(Violation("SELF_RELATION", f"relations[{ri}]",
                                 f"chain {r.sub} related to itself"))
        if not r.type:
            out.append(Violation("RELATION_TYPE", f"relations[{ri}].type", "empty relation type"))
        key = (r.sub, r.obj, r.type)
        if key in seen_rel:
            out.append(Violation("RELATION_DUP", f"relations[{ri}]", f"duplicate triple {key}"))
        seen_rel.add(key)

    # regions: valid frame, typed, box inside the unit square, one per frame
    n_fr = len(doc.frames)
    frames_used: dict[int, int] = {}
    for gi, rg in enumerate(doc.regions):
        if not (0 <= rg.frame < n_fr):
            out.append(Violation("REGION_FRAME", f"regions[{gi}]",
                                 f"frame {rg.frame} out of range for {n_fr} frames"))
        elif rg.frame in frames_used:
            out.append(Violation("REGION_DUP_FRAME", f"regions[{gi}]",
                                 f"frame {rg.frame} already grounded by regions[{frames_used[rg.frame]}]"))
        else:
            frames_used[rg.frame] = gi
        if not rg.type:
            out.append(Violation("REGION_TYPE", f"regions[{gi}].type", "empty region type"))
        vals = (rg.cx, rg.cy, rg.w, rg.h)
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
            out.append(Violation("BOX_RANGE", f"regions[{gi}]", f"non-finite box {vals}"))
            continue
        if rg.w <= 0 or rg.h <= 0:
            out.append(Violation("BOX_RANGE", f"regions[{gi}]",
                                 f"non-positive box size w={rg.w}, h={rg.h}"))
        if not (0.0 <= rg.cx - rg.w / 2 and rg.cx + rg.w / 2 <= 1.0
                and 0.0 <= rg.cy - rg.h / 2 and rg.cy + rg.h / 2 <= 1.0):
            out.append(Violation("BOX_RANGE", f"regions[{gi}]", f"box corners leave [0,1]: {vals}"))

    return out


# -- serialization -------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    def __init__(self, doc_id: str, violations: list[Violation]):
        head = "; ".join(f"{v.code} at {v.path}: {v.message}" for v in violations[:5])
        super().__init__(f"document {doc_id!r}: {head}")
        self.doc_id = doc_id
        self.violations = violations


def document_to_obj(doc: Document) -> dict:
    return {
        "id": doc.id,
        "tokens": list(doc.tokens),
        "frames": [{"patches": np.asarray(fr).tolist()} for fr in doc.frames],
        "entities": [{"start": e.start, "end": e.end, "type": e.type} for e in doc.entities],
        "chains": [list(c) for c in doc.chains],
        "relations": [{"sub": r.sub, "obj": r.obj, "type": r.type} for r in doc.relations],
        "regions": [{"frame": g.frame, "type": g.type, "cx": g.cx, "cy": g.cy,
                     "w": g.w, "h": g.h} for g in doc.regions],
        "modality_mask": doc.modality_mask,
    }


_DOC_KEYS = {"id", "tokens", "frames", "entities", "chains", "relations",
             "regions", "modality_mask"}


def _req(obj, key, types, where):
    if key not in obj:
        raise KeyError(f"missing key {key!r} in {where}")
    return _typed(obj[key], types, f"{where}.{key}")


def _typed(val, types, where):
    # exact JSON types: true is not an int, and 1.9 is not an index to truncate
    if type(val) not in types:
        raise TypeError(f"{where} has type {type(val).__name__}")
    return val


def _each(vals: list, types, where):
    """`vals`, once every item has one of the exact `types` (one set test per list)."""
    if not set(map(type, vals)) <= set(types):
        for i, v in enumerate(vals):  # name the first item that fails
            _typed(v, types, f"{where}[{i}]")
    return vals


def _grid(rows: list, where) -> np.ndarray:
    """A list of lists of JSON numbers as a float64 array."""
    _each(rows, (list,), where)
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        for i, row in enumerate(rows):
            _each(row, (int, float), f"{where}[{i}]")
    return np.asarray(rows, dtype=np.float64)


def _items(obj, key, doc_id):
    """(path, item) for each item of the document's list `key`."""
    return [(f"{doc_id}.{key}[{i}]", v) for i, v in enumerate(_req(obj, key, (list,), doc_id))]


def document_from_obj(obj: dict) -> Document:
    if not isinstance(obj, dict):
        raise TypeError(f"document must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _DOC_KEYS
    if unknown:
        raise KeyError(f"unknown document keys {sorted(unknown)}")
    missing = _DOC_KEYS - set(obj)
    if missing:
        raise KeyError(f"missing document keys {sorted(missing)}")
    doc_id = _req(obj, "id", (str,), "document")
    idx, num, name = (int,), (int, float), (str,)
    tokens = _each(_req(obj, "tokens", (list,), doc_id), name, f"{doc_id}.tokens")
    frames = [_grid(_req(fr, "patches", (list,), w), f"{w}.patches")
              for w, fr in _items(obj, "frames", doc_id)]
    entities = [Entity(_req(e, "start", idx, w), _req(e, "end", idx, w), _req(e, "type", name, w))
                for w, e in _items(obj, "entities", doc_id)]
    chains = [[_typed(m, idx, w) for m in _typed(c, (list,), w)]
              for w, c in _items(obj, "chains", doc_id)]
    relations = [Relation(_req(r, "sub", idx, w), _req(r, "obj", idx, w),
                          _req(r, "type", name, w))
                 for w, r in _items(obj, "relations", doc_id)]
    regions = [Region(_req(g, "frame", idx, w), _req(g, "type", name, w),
                      *(float(_req(g, k, num, w)) for k in ("cx", "cy", "w", "h")))
               for w, g in _items(obj, "regions", doc_id)]
    mask = _req(obj, "modality_mask", (str,), doc_id)
    return Document(doc_id, tokens, frames, entities, chains, relations, regions, mask)


def serialize_corpus(corpus: Corpus, path: str | Path | None = None) -> str:
    lines = [json.dumps(document_to_obj(d), sort_keys=True, ensure_ascii=True)
             for d in corpus.documents]
    text = "\n".join(lines) + ("\n" if lines else "")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def parse_corpus(source: str | Path, *, is_path: bool | None = None) -> Corpus:
    """Parse JSONL text (or a file path) into a validated Corpus.

    Malformed lines raise ParseError with the 1-based line number; documents
    violating invariants raise ValidationError naming the document and field.
    """
    if is_path is None:
        is_path = isinstance(source, Path)
    if is_path:
        data = Path(source).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(data.count(b"\n", 0, e.start) + 1,
                             f"invalid UTF-8: {e.reason}") from None
    else:
        text = str(source)
    docs = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise ParseError(ln, f"invalid JSON: {e.msg}") from e
        try:
            doc = document_from_obj(obj)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise ParseError(ln, str(e)) from e
        bad = validate(doc)
        if bad:
            raise ValidationError(doc.id, bad)
        docs.append(doc)
    return Corpus(docs)


def load_corpus(path: str | Path) -> Corpus:
    return parse_corpus(Path(path), is_path=True)


# -- modality regimes --------------------------------------------------


def regime_counts(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder apportionment of n documents over the three regimes."""
    if min(fractions) < 0 or abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"regime fractions must be non-negative and sum to 1, got {fractions}")
    floors = [int(n * f) for f in fractions]
    rem = n - sum(floors)
    order = sorted(range(3), key=lambda i: (-(n * fractions[i] - floors[i]), i))
    for i in range(rem):
        floors[order[i]] += 1
    return tuple(floors)


def assign_modality_regime(corpus: Corpus, fractions: tuple[float, float, float],
                           seed: int = 0) -> Corpus:
    """Re-mask documents to (full, no_text, no_video) in the given proportions.

    Assignment is a seeded permutation; document order is preserved.
    """
    n = len(corpus.documents)
    counts = regime_counts(n, fractions)
    perm = np.random.default_rng(seed).permutation(n)
    mask_of = {}
    pos = 0
    for mask, cnt in zip(MODALITIES, counts):
        for i in perm[pos:pos + cnt]:
            mask_of[int(i)] = mask
        pos += cnt
    docs = [dataclasses.replace(d, modality_mask=mask_of[i])
            for i, d in enumerate(corpus.documents)]
    return Corpus(docs)
