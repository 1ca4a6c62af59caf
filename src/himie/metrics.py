"""Evaluation protocols: entity F1, chain score (MUC, B-cubed, CEAF-e),
chain-level relation F1, IoU-thresholded grounding F1, error taxonomy.

Chain metrics are computed from per-document numerator/denominator
decompositions so multi-document aggregation is exact and order-independent.
Count metrics aggregate tp/fp/fn. Mentions are identified by (start, end,
type) keys, which lets gold and predicted partitions live in different
mention universes: unmatched predicted mentions hurt precision, unmatched
gold mentions hurt recall.

Each task has one scorer, `score_<task>(gold, pred) -> (counts, errors)`,
which matches the task once and reads both its counts and its two taxonomy
entries off that match. The chains' match is one sparse overlap table, built
through a mention-to-chain map, that MUC, B-cubed, CEAF-e and the chain
taxonomy all read. The other tasks' matchers return what the taxonomy reads
of each prediction they leave unmatched (the entity itself, or a relation's
or region's error flag), so a task's error count is its false positives.
Relations are matched in one scan of the gold list per prediction, which
gives both its match and its flag.

CEAF-e aligns gold and predicted chains one to one for the largest total
phi4 (Luo 2005). Only the table's entries have phi4 > 0, so the alignment
runs Kuhn-Munkres on the dense block of each connected component of them on
its own. The total is the `math.fsum` of the matched values, the correctly
rounded sum, so it does not depend on the order of the components or on
where a dense solver would put its zero rows.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

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


# a count task's (tp, fp, fn) and its two taxonomy entries
Scored = tuple[tuple[int, int, int], dict[str, int]]


def _score(gold: list, pred: list, second: list[bool], keys: tuple[str, str]) -> Scored:
    """(tp, fp, fn) of a one-to-one matching that left one prediction unmatched
    per flag in `second`, and those misses split between the task's two error
    keys: a true flag files its miss under the second."""
    tp, n = len(pred) - len(second), sum(second)
    return (tp, len(second), len(gold) - tp), {keys[0]: len(second) - n, keys[1]: n}


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


def score_entities(gold: list[Entity], pred: list[Entity]) -> Scored:
    """Entity (tp, fp, fn) and errors: a miss on a gold span has the wrong type,
    any other miss the wrong boundary."""
    spans = {(e.start, e.end) for e in gold}
    return _score(gold, pred, [(e.start, e.end) in spans for e in _entity_misses(gold, pred)],
                  ("ent_boundary", "ent_type"))


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
    matched: list[float] = []
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
        block = [[rows[i].get(j, 0.0) for j in sorted(comp_cols)] for i in sorted(comp_rows)]
        matched += [block[r][c] for r, c in _assign(block)]
    return math.fsum(matched)


def score_chains(gold: list[set], pred: list[set]) -> tuple[ChainCounts, dict[str, int]]:
    """Chain counts and errors from one overlap table: a predicted chain errs
    unless it equals its best gold chain, the one sharing the most mentions
    (the lowest index on a tie)."""
    check_partition(gold)
    check_partition(pred)
    table = _overlaps(gold, pred)
    # in (i, j) order, so each predicted chain's best gold is the lowest index on a tie;
    # B-cubed's float sums are `math.fsum`, correctly rounded on every Python version
    cells = sorted((i, j, k) for i, row in enumerate(table) for j, k in row.items())
    # k shared mentions form one block of both chains, holding k - 1 common links
    counts = ChainCounts(float(sum(k - 1 for _, _, k in cells)),
                         math.fsum(k ** 2 / len(gold[i]) for i, _, k in cells),
                         float(sum(len(g) for g in gold)),
                         math.fsum(k ** 2 / len(pred[j]) for _, j, k in cells),
                         float(sum(len(p) for p in pred)),
                         _ceaf_phi(table, gold, pred), float(len(gold)), float(len(pred)))
    best: dict[int, tuple[int, int]] = {}   # predicted chain: (overlap, size of its best gold)
    for i, j, k in cells:
        if k > best.get(j, (0, 0))[0]:
            best[j] = (k, len(gold[i]))
    fits = [(len(c), *best.get(j, (0, 0))) for j, c in enumerate(pred)]
    return counts, {"cha_wrong_members": sum(k < n for n, k, _ in fits),
                    "cha_missing_members": sum(k == n < size for n, k, size in fits)}


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
    return PRF(math.fsum(x.precision for x in three) / 3,
               math.fsum(x.recall for x in three) / 3,
               math.fsum(x.f1 for x in three) / 3)


# -- relations ----------------------------------------------------------------

# a relation instance is (sub members, obj members, type); members are
# mention-key frozensets so the chain-level intersection rule applies


def _relation_misses(gold: list, pred: list) -> list[bool]:
    """One flag per prediction left unmatched by a greedy pass in prediction
    order, each gold consumed at most once. One scan finds the golds whose two
    arguments each share a mention with the prediction's; they give its match,
    the first unused one of its type, and its flag: true when one has another type."""
    used = [False] * len(gold)
    misses = []
    for pr in pred:
        near = [gi for gi, gd in enumerate(gold)
                if not pr[0].isdisjoint(gd[0]) and not pr[1].isdisjoint(gd[1])]
        hit = next((gi for gi in near if not used[gi] and gold[gi][2] == pr[2]), None)
        if hit is None:
            misses.append(any(gold[gi][2] != pr[2] for gi in near))
        else:
            used[hit] = True
    return misses


def score_relations(gold: list, pred: list) -> Scored:
    """Relation (tp, fp, fn) and errors: a miss that matches some gold instance
    on both arguments has the wrong type, any other miss is false."""
    return _score(gold, pred, _relation_misses(gold, pred), ("rel_false", "rel_type"))


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
    # unit square (a sigmoid box flush to an edge does), IoU handles that,
    # and a saturated sigmoid's zero-width box scores IoU 0
    if not all(0.0 <= v <= 1.0 for v in r.box()):
        raise ValueError(f"invalid box {r.box()} on frame {r.frame}")


def _grounding_misses(gold: list[Region], pred: list[Region]) -> list[bool]:
    """One flag per prediction left unmatched by a maximum matching, per frame,
    of the same-type pairs whose IoU is > 0.5 strictly (`_assign` on their 0/1
    block): true when a gold box of another type on its frame overlaps it that
    much."""
    for r in list(gold) + list(pred):
        _check_region(r)
    misses = []
    for f in sorted({r.frame for r in pred}):   # a frame without predictions has no misses
        g = [r for r in gold if r.frame == f]
        p = [r for r in pred if r.frame == f]
        near = [[iou(pr.box(), gr.box()) > 0.5 for gr in g] for pr in p]
        hit = [[float(n and pr.type == gr.type) for n, gr in zip(row, g)]
               for pr, row in zip(p, near)]
        matched = {pi for pi, gi in (_assign(hit) if g else []) if hit[pi][gi]}
        misses += [any(n and pr.type != gr.type for n, gr in zip(near[pi], g))
                   for pi, pr in enumerate(p) if pi not in matched]
    return misses


def score_grounding(gold: list[Region], pred: list[Region]) -> Scored:
    """Grounding (tp, fp, fn) and errors: a miss that a gold box of another type
    would have matched has the wrong type, any other miss the wrong boundary."""
    return _score(gold, pred, _grounding_misses(gold, pred), ("gro_boundary", "gro_type"))


# -- error taxonomy -----------------------------------------------------------


ERROR_KEYS = ("ent_boundary", "ent_type", "cha_wrong_members", "cha_missing_members",
              "rel_false", "rel_type", "gro_boundary", "gro_type")


def error_rates(tax: dict[str, int]) -> dict[str, float]:
    return {
        "entity": _safe_div(tax["ent_boundary"] + tax["ent_type"], tax["ent_pred"]),
        "chain": _safe_div(tax["cha_wrong_members"] + tax["cha_missing_members"],
                           tax["cha_pred"]),
        "relation": _safe_div(tax["rel_false"] + tax["rel_type"], tax["rel_pred"]),
        "grounding": _safe_div(tax["gro_boundary"] + tax["gro_type"], tax["gro_pred"]),
    }
