"""Evaluation protocols: entity F1, chain score (MUC, B-cubed, CEAF-e),
chain-level relation F1, IoU-thresholded grounding F1, error taxonomy.

Chain metrics are computed from per-document numerator/denominator
decompositions so multi-document aggregation is exact and order-independent.
Count metrics aggregate tp/fp/fn. Mentions are identified by (start, end,
type) keys, which lets gold and predicted partitions live in different
mention universes: unmatched predicted mentions hurt precision, unmatched
gold mentions hurt recall.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import Entity, Region


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float
    tp: int = 0
    fp: int = 0
    fn: int = 0


def _safe_div(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def prf_from_counts(tp: int, fp: int, fn: int) -> PRF:
    p = _safe_div(tp, tp + fp)
    r = _safe_div(tp, tp + fn)
    return PRF(p, r, _f1(p, r), tp, fp, fn)


# -- entities -----------------------------------------------------------------


def mention_key(e: Entity) -> tuple:
    return (e.start, e.end, e.type)


def entity_counts(gold: list[Entity], pred: list[Entity]) -> tuple[int, int, int]:
    """Multiset intersection on exact (start, end, type)."""
    remaining: dict[tuple, int] = {}
    for e in gold:
        k = mention_key(e)
        remaining[k] = remaining.get(k, 0) + 1
    tp = 0
    for e in pred:
        k = mention_key(e)
        if remaining.get(k, 0) > 0:
            remaining[k] -= 1
            tp += 1
    return tp, len(pred) - tp, len(gold) - tp


# -- coreference chains -------------------------------------------------------


def check_partition(chains) -> None:
    seen = set()
    for c in chains:
        if len(c) == 0:
            raise PartitionError("empty chain")
        for m in c:
            if m in seen:
                raise PartitionError(f"mention {m!r} appears in more than one chain")
            seen.add(m)


@dataclass(frozen=True)
class ChainCounts:
    """Additive per-document decomposition of the three chain metrics."""
    muc_rn: float = 0.0
    muc_rd: float = 0.0
    muc_pn: float = 0.0
    muc_pd: float = 0.0
    b3_rn: float = 0.0
    b3_rd: float = 0.0
    b3_pn: float = 0.0
    b3_pd: float = 0.0
    ceaf_phi: float = 0.0
    ceaf_ng: float = 0.0
    ceaf_np: float = 0.0

    def __add__(self, other: "ChainCounts") -> "ChainCounts":
        import dataclasses
        return ChainCounts(*(a + b for a, b in zip(dataclasses.astuple(self),
                                                   dataclasses.astuple(other))))


def _muc_side(chains: list[set], other: list[set]) -> tuple[float, float]:
    """(numerator, denominator) of Sum(|K| - |p(K)|) / Sum(|K| - 1)."""
    num = den = 0.0
    for k in chains:
        parts = {id(c) for m in k for c in other if m in c}
        orphans = sum(1 for m in k if not any(m in c for c in other))
        num += len(k) - (len(parts) + orphans)
        den += len(k) - 1
    return num, den


def _phi4(a: set, b: set) -> float:
    return 2.0 * len(a & b) / (len(a) + len(b))


def chain_counts(gold: list[set], pred: list[set]) -> ChainCounts:
    check_partition(gold)
    check_partition(pred)
    muc_rn, muc_rd = _muc_side(gold, pred)
    muc_pn, muc_pd = _muc_side(pred, gold)

    b3_rn = sum(len(g & p) ** 2 / len(g) for g in gold for p in pred)
    b3_pn = sum(len(g & p) ** 2 / len(p) for g in gold for p in pred)
    b3_rd = float(sum(len(g) for g in gold))
    b3_pd = float(sum(len(p) for p in pred))

    phi = 0.0
    if gold and pred:
        m = np.array([[_phi4(g, p) for p in pred] for g in gold])
        ri, ci = linear_sum_assignment(m, maximize=True)
        phi = float(m[ri, ci].sum())
    return ChainCounts(muc_rn, muc_rd, muc_pn, muc_pd,
                       b3_rn, b3_rd, b3_pn, b3_pd,
                       phi, float(len(gold)), float(len(pred)))


def muc_prf(c: ChainCounts) -> PRF:
    r = _safe_div(c.muc_rn, c.muc_rd)
    p = _safe_div(c.muc_pn, c.muc_pd)
    return PRF(p, r, _f1(p, r))


def b_cubed_prf(c: ChainCounts) -> PRF:
    r = _safe_div(c.b3_rn, c.b3_rd)
    p = _safe_div(c.b3_pn, c.b3_pd)
    return PRF(p, r, _f1(p, r))


def ceaf_e_prf(c: ChainCounts) -> PRF:
    r = _safe_div(c.ceaf_phi, c.ceaf_ng)
    p = _safe_div(c.ceaf_phi, c.ceaf_np)
    return PRF(p, r, _f1(p, r))


def chain_score_prf(c: ChainCounts) -> PRF:
    three = [muc_prf(c), b_cubed_prf(c), ceaf_e_prf(c)]
    return PRF(sum(x.precision for x in three) / 3,
               sum(x.recall for x in three) / 3,
               sum(x.f1 for x in three) / 3)


# -- relations ----------------------------------------------------------------

# a relation instance is (sub members, obj members, type); members are
# mention-key frozensets so the chain-level intersection rule applies


def relation_matches(pred, gold) -> bool:
    return (pred[2] == gold[2] and len(pred[0] & gold[0]) > 0
            and len(pred[1] & gold[1]) > 0)


def relation_counts(gold: list, pred: list) -> tuple[int, int, int]:
    """Greedy in prediction order; each gold consumed at most once."""
    used = [False] * len(gold)
    tp = 0
    for pr in pred:
        for gi, gd in enumerate(gold):
            if not used[gi] and relation_matches(pr, gd):
                used[gi] = True
                tp += 1
                break
    return tp, len(pred) - tp, len(gold) - tp


# -- grounding ----------------------------------------------------------------


def to_corners(box) -> tuple[float, float, float, float]:
    cx, cy, w, h = box
    return (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)


def iou(a, b) -> float:
    ax1, ay1, ax2, ay2 = to_corners(a)
    bx1, by1, bx2, by2 = to_corners(b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union if union > 0 else 0.0


def _check_region(r: Region) -> None:
    # center-format fields normalized to [0,1]; corners may overhang the
    # unit square (a sigmoid box flush to an edge does), IoU handles that
    if not all(0.0 <= v <= 1.0 for v in r.box()) or r.w <= 0 or r.h <= 0:
        raise ValueError(f"invalid box {r.box()} on frame {r.frame}")


def grounding_counts(gold: list[Region], pred: list[Region]) -> tuple[int, int, int]:
    """Per frame, greedy match by descending IoU among same-type pairs; a
    pair counts iff IoU > 0.5 strictly."""
    for r in list(gold) + list(pred):
        _check_region(r)
    frames = {r.frame for r in gold} | {r.frame for r in pred}
    tp = 0
    for f in sorted(frames):
        g = [r for r in gold if r.frame == f]
        p = [r for r in pred if r.frame == f]
        cand = [(iou(pr.box(), gr.box()), pi, gi)
                for pi, pr in enumerate(p) for gi, gr in enumerate(g)
                if pr.type == gr.type]
        cand = [(v, pi, gi) for v, pi, gi in cand if v > 0.5]
        cand.sort(key=lambda t: (-t[0], t[1], t[2]))
        used_p: set[int] = set()
        used_g: set[int] = set()
        for v, pi, gi in cand:
            if pi in used_p or gi in used_g:
                continue
            used_p.add(pi)
            used_g.add(gi)
            tp += 1
    return tp, len(pred) - tp, len(gold) - tp


# -- error taxonomy -----------------------------------------------------------


@dataclass
class TaskOutputs:
    """One side (gold or predicted) of a document's four task outputs."""
    entities: list[Entity]
    chains: list[set]
    relations: list
    regions: list[Region]


ERROR_KEYS = ("ent_boundary", "ent_type", "cha_wrong_members", "cha_missing_members",
              "rel_false", "rel_type", "gro_boundary", "gro_type")
PRED_KEYS = ("ent_pred", "cha_pred", "rel_pred", "gro_pred")


def empty_taxonomy() -> dict[str, int]:
    return {k: 0 for k in ERROR_KEYS + PRED_KEYS}


def add_taxonomy(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    return {k: a[k] + b[k] for k in a}


def error_breakdown(gold: TaskOutputs, pred: TaskOutputs) -> dict[str, int]:
    """Classify each erroneous prediction into one taxonomy category."""
    out = empty_taxonomy()
    out["ent_pred"] = len(pred.entities)
    out["cha_pred"] = len(pred.chains)
    out["rel_pred"] = len(pred.relations)
    out["gro_pred"] = len(pred.regions)

    gold_keys = {mention_key(e) for e in gold.entities}
    gold_spans = {(e.start, e.end) for e in gold.entities}
    for e in pred.entities:
        if mention_key(e) in gold_keys:
            continue
        if (e.start, e.end) in gold_spans:
            out["ent_type"] += 1
        else:
            out["ent_boundary"] += 1

    for c in pred.chains:
        overlaps = [(len(c & g), gi) for gi, g in enumerate(gold.chains)]
        best = max(overlaps, key=lambda t: (t[0], -t[1]), default=(0, -1))
        aligned = gold.chains[best[1]] if best[0] > 0 else set()
        if c - aligned:
            out["cha_wrong_members"] += 1
        elif aligned - c:
            out["cha_missing_members"] += 1

    used = [False] * len(gold.relations)
    for pr in pred.relations:
        hit = next((gi for gi, gd in enumerate(gold.relations)
                    if not used[gi] and relation_matches(pr, gd)), None)
        if hit is not None:
            used[hit] = True
            continue
        type_only = any(len(pr[0] & gd[0]) > 0 and len(pr[1] & gd[1]) > 0
                        and pr[2] != gd[2] for gd in gold.relations)
        out["rel_type" if type_only else "rel_false"] += 1

    g_used: set[int] = set()
    for r in pred.regions:
        same_frame = [(gi, gr) for gi, gr in enumerate(gold.regions)
                      if gr.frame == r.frame and gi not in g_used]
        exact = next((gi for gi, gr in same_frame
                      if gr.type == r.type and iou(r.box(), gr.box()) > 0.5), None)
        if exact is not None:
            g_used.add(exact)
            continue
        if any(iou(r.box(), gr.box()) > 0.5 and gr.type != r.type for _, gr in same_frame):
            out["gro_type"] += 1
        else:
            out["gro_boundary"] += 1
    return out


def error_rates(tax: dict[str, int]) -> dict[str, float]:
    return {
        "entity": _safe_div(tax["ent_boundary"] + tax["ent_type"], tax["ent_pred"]),
        "chain": _safe_div(tax["cha_wrong_members"] + tax["cha_missing_members"],
                           tax["cha_pred"]),
        "relation": _safe_div(tax["rel_false"] + tax["rel_type"], tax["rel_pred"]),
        "grounding": _safe_div(tax["gro_boundary"] + tax["gro_type"], tax["gro_pred"]),
    }
