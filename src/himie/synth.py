"""Seeded synthetic corpus generator with a fully recoverable planted signal.

The model config sets the corpus shape (frame grid n_p x d_in, vocab) and its
label sets (entity, relation and grounding types), GenConfig the sizes, rates
and seed, so a corpus fits its model's heads by construction. Construction,
deterministic given the seed:

* The hash-bucket space [0, vocab) is partitioned: the lower half belongs to
  background tokens, the upper half is split evenly among the entity types.
  Surface forms are rejection-sampled letter strings whose buckets land in
  the owning range (pairwise distinct buckets), so a token's bucket alone
  reveals whether it is part of an entity and of which type.
* An entity is a run of 1-3 tokens from its type's pool, always followed by a
  background token, so gold spans coincide with maximal same-type runs.
* Entities repeating the same surface form belong to one chain; a fresh form
  opens a fresh chain (merge decided by chain_merge_prob).
* Relations are a pure function of the two chains' head token ids: a hash
  threshold realizes relation_rate and a second hash picks the label, so the
  gold relation set is recoverable from the text alone.
* A grounded chain (grounding_rate, grounding types only) plants, in a frame
  chosen by its head id, a grid-aligned box at least 2 cells per side; the
  patches inside carry the type's unit direction vector plus N(0, 0.1^2)
  noise, outside pure noise. One region per frame at most.

`oracle_predict` recovers all four annotation layers from the raw inputs by
brute force as a `data.Prediction` and reaches F1 = 1.0 on corpora from this
generator, which makes it both the recoverability check and the
perfect-prediction metrics fixture.
"""
from __future__ import annotations

import itertools
import math
import string
import struct
import zlib

import numpy as np

from .autodiff import ConfigError
from .config import GenConfig, ModelConfig
from .data import Corpus, Document, Entity, Prediction, Region, Relation
from .encoders import hash_bucket

NOISE_SIGMA = 0.1
_LETTERS = string.ascii_lowercase


def _mix(a: int, b: int, salt: int) -> int:
    return zlib.crc32(struct.pack("<III", a & 0xFFFFFFFF, b & 0xFFFFFFFF, salt))


def type_ranges(model: ModelConfig) -> dict[str, range]:
    """Bucket ranges: background gets [0, vocab//2), entity types split the rest."""
    half = model.vocab // 2
    width = (model.vocab - half) // len(model.entity_types)
    out = {"": range(0, half)}
    for i, t in enumerate(model.entity_types):
        out[t] = range(half + i * width, half + (i + 1) * width)
    return out


def type_of_bucket(bucket: int, model: ModelConfig) -> str:
    """Entity type owning the bucket, or '' for background."""
    for t, rng in type_ranges(model).items():
        if bucket in rng:
            return t
    return ""


def build_pools(seed: int, model: ModelConfig) -> dict[str, list[str]]:
    """Deterministic surface-form pools per entity type plus background ('')."""
    ranges = type_ranges(model)
    sizes = {t: min(48 if t == "" else 10, len(r)) for t, r in ranges.items()}
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3001)))
    used_buckets: set[int] = set()
    pools: dict[str, list[str]] = {}
    for t, want in ranges.items():
        pool: list[str] = []
        tries = 0
        while len(pool) < sizes[t]:
            tries += 1
            if tries > 200000:
                raise ConfigError(f"could not sample {sizes[t]} surface forms for range {want}")
            L = int(rng.integers(3, 9))
            word = "".join(_LETTERS[int(c)] for c in rng.integers(0, 26, size=L))
            b = hash_bucket(word, model.vocab)
            if b in want and b not in used_buckets:
                used_buckets.add(b)
                pool.append(word)
        pools[t] = pool
    return pools


def type_directions(seed: int, model: ModelConfig) -> dict[str, np.ndarray]:
    """Orthonormal unit direction per grounding type (QR of a seeded matrix)."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3002)))
    m = rng.normal(size=(model.d_in, len(model.grounding_types)))
    q, _ = np.linalg.qr(m)
    return {t: q[:, i].copy() for i, t in enumerate(model.grounding_types)}


def _grid_box(g: int, a: int) -> tuple[int, int, int, int]:
    """Deterministic cell rectangle (row0, hcells, col0, wcells), >= 2 per side."""
    if g >= 3:
        i0 = a % (g - 1)
        hc = 2 + ((a >> 8) % (g - i0 - 1))
        j0 = (a >> 16) % (g - 1)
        wc = 2 + ((a >> 24) % (g - j0 - 1))
    else:
        i0, hc, j0, wc = 0, g, 0, g
    return i0, hc, j0, wc


def _box_coords(g: int, i0: int, hc: int, j0: int, wc: int) -> tuple[float, float, float, float]:
    # power-of-two g keeps every coordinate an exact dyadic float
    return ((j0 + wc / 2.0) / g, (i0 + hc / 2.0) / g, wc / float(g), hc / float(g))


def _relations(heads: list[int], cfg: GenConfig, model: ModelConfig) -> list[Relation]:
    """Relations over every ordered pair of chains, a pure function of their head ids."""
    labels, out = model.relation_types, []
    for i, j in itertools.permutations(range(len(heads)), 2):
        # decided on the unordered pair so both directions carry the same label:
        # pair scorers built on commutative features can then reach perfect F1
        lo, hi = sorted((heads[i], heads[j]))
        if (_mix(lo, hi, 0xA5) % (1 << 20)) / float(1 << 20) < cfg.relation_rate:
            out.append(Relation(i, j, labels[_mix(lo, hi, 0x5A) % len(labels)]))
    return out


def generate(cfg: GenConfig, model: ModelConfig | None = None) -> Corpus:
    """A corpus whose frames, token buckets and relation labels fit `model`.

    `None` means `ModelConfig()`, for callers that pass only the `gen` of a
    default-model RunConfig, as `perfbench/run.py` does.
    """
    model = ModelConfig() if model is None else model
    cfg.validate()
    model.validate()
    if model.vocab < 32:
        raise ConfigError(f"model.vocab must be >= 32 to generate a corpus, got {model.vocab}")
    buckets = model.vocab - model.vocab // 2
    if buckets < len(model.entity_types):
        raise ConfigError(f"model.vocab={model.vocab} leaves {buckets} hash buckets for "
                          f"{len(model.entity_types)} model.entity_types; each needs one")
    g = math.isqrt(model.n_p)
    if cfg.grounding_rate > 0.0:
        if g * g != model.n_p:
            raise ConfigError(f"model.n_p={model.n_p} must be a perfect square for grounding")
        if g & (g - 1) != 0:
            # power-of-two grid => box coordinates are exact dyadic floats
            raise ConfigError(f"model.n_p grid side {g} must be a power of two for grounding")
        if model.d_in < len(model.grounding_types):
            raise ConfigError(f"model.d_in={model.d_in} must be >= {len(model.grounding_types)} "
                              f"for grounding, one direction per model.grounding_types entry")
    if cfg.relation_rate > 0.0 and not model.relation_types:
        raise ConfigError("model.relation_types must be non-empty when relation_rate > 0")
    pools = build_pools(cfg.seed, model)
    dirs = type_directions(cfg.seed, model) if cfg.grounding_rate > 0 else {}
    docs = []
    for di in range(cfg.docs):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 3003, di)))
        n_tok = int(rng.integers(cfg.tokens_per_doc[0], cfg.tokens_per_doc[1] + 1))
        n_fr = int(rng.integers(cfg.frames_per_doc[0], cfg.frames_per_doc[1] + 1))
        patches = NOISE_SIGMA * rng.standard_normal((n_fr, model.n_p, model.d_in))

        tokens: list[str] = []
        entities: list[Entity] = []
        chains: list[list[int]] = []
        chain_surface: list[tuple[str, ...]] = []
        chain_type: list[str] = []
        used_surfaces: set[tuple[str, ...]] = set()

        while len(tokens) < n_tok:
            room = n_tok - len(tokens)
            if rng.random() < cfg.entity_rate:
                etype = model.entity_types[int(rng.integers(len(model.entity_types)))]
                candidates = [ci for ci, t in enumerate(chain_type)
                              if t == etype and len(chain_surface[ci]) <= room]
                ci = None
                if candidates and rng.random() < cfg.chain_merge_prob:
                    ci = candidates[int(rng.integers(len(candidates)))]
                    surface = chain_surface[ci]
                else:
                    max_len = min(3, room)
                    surface = None
                    for _ in range(64):
                        L = int(rng.integers(1, max_len + 1))
                        cand = tuple(pools[etype][int(k)]
                                     for k in rng.integers(0, len(pools[etype]), size=L))
                        if cand not in used_surfaces:
                            surface = cand
                            break
                    if surface is None:
                        tokens.append(pools[""][int(rng.integers(len(pools[""])))])
                        continue
                    used_surfaces.add(surface)
                    chains.append([])
                    chain_surface.append(surface)
                    chain_type.append(etype)
                    ci = len(chains) - 1
                start = len(tokens)
                tokens.extend(surface)
                entities.append(Entity(start, start + len(surface), etype))
                chains[ci].append(len(entities) - 1)
                if len(tokens) < n_tok:  # separator keeps runs maximal
                    tokens.append(pools[""][int(rng.integers(len(pools[""])))])
            else:
                tokens.append(pools[""][int(rng.integers(len(pools[""])))])

        chain_head = [hash_bucket(s[0], model.vocab) for s in chain_surface]

        relations = _relations(chain_head, cfg, model)

        regions: list[Region] = []
        occupied: set[int] = set()
        for ci in range(len(chains)):
            if chain_type[ci] not in model.grounding_types or n_fr == 0:
                continue
            if rng.random() >= cfg.grounding_rate:
                continue
            fr = _mix(chain_head[ci], 0, 0x11) % n_fr
            if fr in occupied:
                continue
            occupied.add(fr)
            i0, hc, j0, wc = _grid_box(g, _mix(chain_head[ci], 0, 0x22))
            cx, cy, w, h = _box_coords(g, i0, hc, j0, wc)
            regions.append(Region(int(fr), chain_type[ci], cx, cy, w, h))
            d = dirs[chain_type[ci]]
            for row in range(i0, i0 + hc):
                for col in range(j0, j0 + wc):
                    patches[fr, row * g + col] += d

        docs.append(Document(
            id=f"doc-{di:05d}",
            tokens=tokens,
            frames=[patches[k] for k in range(n_fr)],
            entities=entities,
            chains=chains,
            relations=relations,
            regions=regions,
            modality_mask="full",
        ))
    return Corpus(docs)


# -- brute-force recoverability oracle ------------------------------------


def oracle_predict(doc: Document, cfg: GenConfig, model: ModelConfig) -> Prediction:
    """Recover all four gold layers from raw tokens and patches alone."""
    # (i) entities: maximal runs of buckets owned by one type range
    tok_types = [type_of_bucket(hash_bucket(t, model.vocab), model) for t in doc.tokens]
    entities: list[Entity] = []
    i = 0
    n = len(doc.tokens)
    while i < n:
        t = tok_types[i]
        if not t:
            i += 1
            continue
        j = i + 1
        while j < n and tok_types[j] == t:
            j += 1
        entities.append(Entity(i, j, t))
        i = j

    # (ii) chains: group mentions by their token id tuple (first-seen order)
    def key(e: Entity) -> tuple[int, ...]:
        return tuple(hash_bucket(doc.tokens[k], model.vocab) for k in range(e.start, e.end))

    chains: list[list[int]] = []
    index_of: dict[tuple[int, ...], int] = {}
    for ei, e in enumerate(entities):
        k = key(e)
        if k not in index_of:
            index_of[k] = len(chains)
            chains.append([])
        chains[index_of[k]].append(ei)

    # (iii) relations: replay the deterministic head-id rule
    relations = _relations([key(entities[members[0]])[0] for members in chains], cfg, model)

    # (iv) regions: exhaustive grid search maximizing inside-vs-outside contrast
    regions: list[Region] = []
    if cfg.grounding_rate > 0:
        dirs = type_directions(cfg.seed, model)
        g = math.isqrt(model.n_p)
        for fi, frame in enumerate(doc.frames):
            best = None  # (gain, type, rect)
            for t, d in dirs.items():
                proj = (np.asarray(frame) @ d).reshape(g, g)
                # 2-D prefix sums of (proj - 0.5) give every rectangle's gain
                ps = np.zeros((g + 1, g + 1))
                ps[1:, 1:] = np.cumsum(np.cumsum(proj - 0.5, axis=0), axis=1)
                for i0 in range(g):
                    for i1 in range(i0 + 1, g + 1):
                        for j0 in range(g):
                            for j1 in range(j0 + 1, g + 1):
                                gain = ps[i1, j1] - ps[i0, j1] - ps[i1, j0] + ps[i0, j0]
                                if best is None or gain > best[0]:
                                    best = (gain, t, (i0, i1 - i0, j0, j1 - j0))
            if best is not None and best[0] > 1.0:
                i0, hc, j0, wc = best[2]
                cx, cy, w, h = _box_coords(g, i0, hc, j0, wc)
                regions.append(Region(fi, best[1], cx, cy, w, h))
    return Prediction(entities, entities, chains, chains, relations, regions)
