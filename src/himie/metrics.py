"""Evaluation protocols: entity F1, chain score (MUC, B-cubed, CEAF-e),
chain-level relation F1, IoU-thresholded grounding F1, error taxonomy.

Chain metrics are computed from per-document numerator/denominator
decompositions so multi-document aggregation is exact and order-independent.
Count metrics aggregate tp/fp/fn. Mentions are identified by (start, end,
type) keys, which lets gold and predicted partitions live in different
mention universes: unmatched predicted mentions hurt precision, unmatched
gold mentions hurt recall.

Each task has one matcher. The chains' is one sparse overlap table, built
through a mention-to-chain map, that MUC, B-cubed, CEAF-e and the chain
taxonomy all read. The others return the predictions they leave unmatched;
the counts derive from these, and the taxonomy classifies exactly them.

CEAF-e aligns gold and predicted chains one to one for the largest total
phi4 (Luo 2005). Only the table's entries have phi4 > 0, so the alignment
matches each connected component of them on its own: a component with one
chain on either side takes its largest entry, a larger one runs Kuhn-Munkres
on its dense block. The matched values are summed in the layout of a dense
solver's `m[rows, cols].sum()`, which keeps the totals bitwise equal to its
totals on the benchmark documents; where ties allow other matchings or other
zero rows, the two agree within 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

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


def _counts(gold: list, pred: list, misses: list) -> tuple[int, int, int]:
    """(tp, fp, fn) of a one-to-one matching that left `misses` unmatched."""
    tp = len(pred) - len(misses)
    return tp, len(misses), len(gold) - tp


# -- entities -----------------------------------------------------------------


def mention_key(e: Entity) -> tuple:
    return (e.start, e.end, e.type)


def _entity_misses(gold: list[Entity], pred: list[Entity]) -> list[Entity]:
    """Predictions outside the multiset intersection on exact (start, end, type)."""
    remaining: dict[tuple, int] = {}
    for e in gold:
        k = mention_key(e)
        remaining[k] = remaining.get(k, 0) + 1
    misses = []
    for e in pred:
        k = mention_key(e)
        if remaining.get(k, 0) > 0:
            remaining[k] -= 1
        else:
            misses.append(e)
    return misses


def entity_counts(gold: list[Entity], pred: list[Entity]) -> tuple[int, int, int]:
    return _counts(gold, pred, _entity_misses(gold, pred))


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
    """Additive per-document decomposition of the three chain metrics. MUC's
    numerator, the common links, is the same from either side; its denominators
    (mentions - chains) are b3_rd - ceaf_ng and b3_pd - ceaf_np."""
    muc_n: float = 0.0
    b3_rn: float = 0.0
    b3_rd: float = 0.0
    b3_pn: float = 0.0
    b3_pd: float = 0.0
    ceaf_phi: float = 0.0
    ceaf_ng: float = 0.0
    ceaf_np: float = 0.0

    def __add__(self, other: "ChainCounts") -> "ChainCounts":
        return ChainCounts(*(a + b for a, b in zip(astuple(self), astuple(other))))


def _overlaps(gold: list[set], pred: list[set]) -> list[dict[int, int]]:
    """Row i: {j: |gold[i] & pred[j]|} over the predicted chains that share a
    mention with gold chain i, read through one mention-to-chain map. Every
    other pair has no mention in common."""
    owner = {m: j for j, p in enumerate(pred) for m in p}
    table = []
    for g in gold:
        row: dict[int, int] = {}
        for m in g:
            if m in owner:
                row[owner[m]] = row.get(owner[m], 0) + 1
        table.append(row)
    return table


def _assign(w: list[list[float]]) -> list[tuple[int, int]]:
    """(row, column) pairs of a maximum-weight assignment of the dense block
    `w`: Kuhn-Munkres with potentials, one shortest augmenting path per row
    of the shorter side (Kuhn 1955). Plain Python, as the blocks are small."""
    if len(w) > len(w[0]):
        return sorted((r, c) for c, r in _assign([list(col) for col in zip(*w)]))
    n, m = len(w), len(w[0])
    u, v = [0.0] * (n + 1), [0.0] * (m + 1)
    row_of = [0] * (m + 1)   # 1-based row in each 1-based column, 0 if free
    for i in range(1, n + 1):
        row_of[0], j0 = i, 0
        dist, via, done = [math.inf] * (m + 1), [0] * (m + 1), [False] * (m + 1)
        while row_of[j0]:
            done[j0] = True
            i0, delta, j1 = row_of[j0], math.inf, 0
            wi = w[i0 - 1]
            for j in range(1, m + 1):
                if not done[j]:
                    cur = -wi[j - 1] - u[i0] - v[j]
                    if cur < dist[j]:
                        dist[j], via[j] = cur, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(m + 1):
                if done[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:
            row_of[j0] = row_of[via[j0]]
            j0 = via[j0]
    return sorted((row_of[j] - 1, j - 1) for j in range(1, m + 1) if row_of[j])


def _ceaf_phi(table: list[dict[int, int]], gold: list[set], pred: list[set]) -> float:
    """Total phi4 of a maximum-weight one-to-one alignment of gold to predicted
    chains (CEAF-e, Luo 2005), from the overlap table's entries only."""
    rows = [{j: 2.0 * k / (len(gold[i]) + len(pred[j])) for j, k in row.items()}
            for i, row in enumerate(table)]
    cols: list[list[int]] = [[] for _ in pred]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].append(i)

    # each connected component of the nonzero entries is matched on its own
    matched = [0.0] * len(gold)
    seen: set[int] = set()
    for start in range(len(gold)):
        if start in seen or not rows[start]:
            continue
        comp_rows, comp_cols, stack = {start}, set(), [start]
        while stack:
            for j in rows[stack.pop()]:
                if j not in comp_cols:
                    comp_cols.add(j)
                    new = [i for i in cols[j] if i not in comp_rows]
                    comp_rows.update(new)
                    stack.extend(new)
        seen |= comp_rows
        rs, cs = sorted(comp_rows), sorted(comp_cols)
        if len(rs) == 1 or len(cs) == 1:
            # one chain on either side: its largest entry is the whole matching
            value, neg_row = max((v, -i) for i in rs for v in rows[i].values())
            matched[-neg_row] = value
        else:
            block = [[rows[i].get(j, 0.0) for j in cs] for i in rs]
            for r, c in _assign(block):
                matched[rs[r]] = block[r][c]

    if len(gold) > len(pred):
        # a full assignment of a taller matrix covers len(pred) rows; keep the
        # lowest unmatched rows at phi4 = 0, so numpy's pairwise sum adds the
        # values in the order of a dense solver's `m[rows, cols].sum()`
        unmatched = [i for i, v in enumerate(matched) if not v]
        dropped = set(unmatched[len(pred) - len(gold) + len(unmatched):])
        matched = [v for i, v in enumerate(matched) if i not in dropped]
    return float(np.array(matched).sum())


def chain_counts(gold: list[set], pred: list[set]) -> ChainCounts:
    check_partition(gold)
    check_partition(pred)
    table = _overlaps(gold, pred)
    # in (i, j) order, so B-cubed adds its nonzero terms in a dense double loop's order
    cells = sorted((i, j, k) for i, row in enumerate(table) for j, k in row.items())
    # k shared mentions form one block of both chains, holding k - 1 common links
    return ChainCounts(float(sum(k - 1 for _, _, k in cells)),
                       sum(k ** 2 / len(gold[i]) for i, _, k in cells),
                       float(sum(len(g) for g in gold)),
                       sum(k ** 2 / len(pred[j]) for _, j, k in cells),
                       float(sum(len(p) for p in pred)),
                       _ceaf_phi(table, gold, pred), float(len(gold)), float(len(pred)))


def muc_prf(c: ChainCounts) -> PRF:
    r = _safe_div(c.muc_n, c.b3_rd - c.ceaf_ng)
    p = _safe_div(c.muc_n, c.b3_pd - c.ceaf_np)
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


def _relation_misses(gold: list, pred: list) -> list:
    """Predictions left unmatched by a greedy pass in prediction order; each
    gold is consumed at most once."""
    used = [False] * len(gold)
    misses = []
    for pr in pred:
        hit = next((gi for gi, gd in enumerate(gold)
                    if not used[gi] and relation_matches(pr, gd)), None)
        if hit is None:
            misses.append(pr)
        else:
            used[hit] = True
    return misses


def relation_counts(gold: list, pred: list) -> tuple[int, int, int]:
    return _counts(gold, pred, _relation_misses(gold, pred))


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


def _grounding_misses(gold: list[Region], pred: list[Region]) -> list[Region]:
    """Predictions left unmatched by a maximum matching, per frame, of the
    same-type pairs whose IoU is > 0.5 strictly: `_assign` on their 0/1 block."""
    for r in list(gold) + list(pred):
        _check_region(r)
    misses = []
    for f in sorted({r.frame for r in pred}):   # a frame without predictions has no misses
        g = [r for r in gold if r.frame == f]
        p = [r for r in pred if r.frame == f]
        hit = [[float(pr.type == gr.type and iou(pr.box(), gr.box()) > 0.5) for gr in g]
               for pr in p]
        matched = {pi for pi, gi in (_assign(hit) if g else []) if hit[pi][gi]}
        misses += [pr for pi, pr in enumerate(p) if pi not in matched]
    return misses


def grounding_counts(gold: list[Region], pred: list[Region]) -> tuple[int, int, int]:
    return _counts(gold, pred, _grounding_misses(gold, pred))


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
    """Classify each prediction the task's matcher left unmatched into one
    taxonomy category; a predicted chain errs unless it equals its best gold
    chain, the one sharing the most mentions (the lowest index on a tie)."""
    out = empty_taxonomy()
    out.update(ent_pred=len(pred.entities), cha_pred=len(pred.chains),
               rel_pred=len(pred.relations), gro_pred=len(pred.regions))

    gold_spans = {(e.start, e.end) for e in gold.entities}
    for e in _entity_misses(gold.entities, pred.entities):
        out["ent_type" if (e.start, e.end) in gold_spans else "ent_boundary"] += 1

    best: dict[int, tuple[int, int]] = {}   # predicted chain: (overlap, size of its best gold)
    for g, row in zip(gold.chains, _overlaps(gold.chains, pred.chains)):
        for j, k in row.items():
            if k > best.get(j, (0, 0))[0]:
                best[j] = (k, len(g))
    for j, c in enumerate(pred.chains):
        k, size = best.get(j, (0, 0))
        if k < len(c):
            out["cha_wrong_members"] += 1
        elif k < size:
            out["cha_missing_members"] += 1

    for pr in _relation_misses(gold.relations, pred.relations):
        type_only = any(len(pr[0] & gd[0]) > 0 and len(pr[1] & gd[1]) > 0
                        and pr[2] != gd[2] for gd in gold.relations)
        out["rel_type" if type_only else "rel_false"] += 1

    for r in _grounding_misses(gold.regions, pred.regions):
        type_only = any(gr.frame == r.frame and gr.type != r.type
                        and iou(r.box(), gr.box()) > 0.5 for gr in gold.regions)
        out["gro_type" if type_only else "gro_boundary"] += 1
    return out


def error_rates(tax: dict[str, int]) -> dict[str, float]:
    return {
        "entity": _safe_div(tax["ent_boundary"] + tax["ent_type"], tax["ent_pred"]),
        "chain": _safe_div(tax["cha_wrong_members"] + tax["cha_missing_members"],
                           tax["cha_pred"]),
        "relation": _safe_div(tax["rel_false"] + tax["rel_type"], tax["rel_pred"]),
        "grounding": _safe_div(tax["gro_boundary"] + tax["gro_type"], tax["gro_pred"]),
    }
