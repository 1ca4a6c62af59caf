"""Scoring protocols vs hand fixtures and brute-force reference evaluators."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from himie.data import Entity, Region
from himie.metrics import (
    ERROR_KEYS,
    ChainCounts,
    PartitionError,
    TaskOutputs,
    add_taxonomy,
    b_cubed_prf,
    ceaf_e_prf,
    chain_counts,
    chain_score_prf,
    empty_taxonomy,
    entity_counts,
    error_breakdown,
    error_rates,
    grounding_counts,
    iou,
    muc_prf,
    prf_from_counts,
    relation_counts,
    relation_matches,
    to_corners,
)

# the worked example used throughout: gold merges a,b,c; prediction splits c off
GOLD_ABC = [{"a", "b", "c"}]
PRED_AB_C = [{"a", "b"}, {"c"}]


def random_partition(rng, items, ensure_link=False):
    chains = []
    for it in items:
        if chains and rng.random() < 0.5:
            chains[int(rng.integers(0, len(chains)))].add(it)
        else:
            chains.append({it})
    if ensure_link and len(chains) > 1 and all(len(c) == 1 for c in chains):
        # MUC is 0/0 on singleton-only partitions; force one real link
        chains[0] |= chains.pop()
    return chains


class TestPrf:
    def test_perfect(self):
        assert prf_from_counts(5, 0, 0) == PRFApprox(1, 1, 1)

    def test_zero_everything(self):
        p = prf_from_counts(0, 0, 0)
        assert (p.precision, p.recall, p.f1) == (0.0, 0.0, 0.0)

    def test_bounds_property(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, fp, fn = rng.integers(0, 10, size=3)
            p = prf_from_counts(int(tp), int(fp), int(fn))
            assert 0.0 <= p.precision <= 1.0
            assert 0.0 <= p.recall <= 1.0
            assert min(p.precision, p.recall) - 1e-12 <= p.f1 <= max(p.precision, p.recall) + 1e-12


class PRFApprox:
    def __init__(self, p, r, f):
        self.vals = (p, r, f)

    def __eq__(self, other):
        return all(abs(a - b) < 1e-12 for a, b in
                   zip(self.vals, (other.precision, other.recall, other.f1)))


class TestEntities:
    def test_exact_triple_match(self):
        gold = [Entity(0, 2, "PER"), Entity(3, 4, "LOC")]
        pred = [Entity(0, 2, "PER"), Entity(3, 4, "ORG")]
        assert entity_counts(gold, pred) == (1, 1, 1)
        assert prf_from_counts(*entity_counts(gold, pred)).f1 == 0.5

    def test_multiset_duplicates_not_double_counted(self):
        gold = [Entity(0, 1, "PER")]
        pred = [Entity(0, 1, "PER"), Entity(0, 1, "PER")]
        assert entity_counts(gold, pred) == (1, 1, 0)

    def test_empty_both_sides(self):
        assert entity_counts([], []) == (0, 0, 0)
        assert prf_from_counts(*entity_counts([], [])).f1 == 0.0


class TestChainFixture:
    """Hand-derived values for gold {a,b,c} vs predicted {a,b},{c}."""

    def test_muc_two_thirds(self):
        assert abs(muc_prf(chain_counts(GOLD_ABC, PRED_AB_C)).f1 - 2.0 / 3.0) < 1e-9

    def test_b_cubed_five_sevenths(self):
        assert abs(b_cubed_prf(chain_counts(GOLD_ABC, PRED_AB_C)).f1 - 5.0 / 7.0) < 1e-9

    def test_ceaf_e_eight_fifteenths(self):
        assert abs(ceaf_e_prf(chain_counts(GOLD_ABC, PRED_AB_C)).f1 - 8.0 / 15.0) < 1e-9

    def test_chain_score_is_arithmetic_mean(self):
        expect = (2.0 / 3.0 + 5.0 / 7.0 + 8.0 / 15.0) / 3.0
        assert abs(chain_score_prf(chain_counts(GOLD_ABC, PRED_AB_C)).f1 - expect) < 1e-9

    def test_component_directions(self):
        # prediction splits, so recall suffers and precision is perfect
        m = muc_prf(chain_counts(GOLD_ABC, PRED_AB_C))
        assert m.precision == 1.0 and abs(m.recall - 0.5) < 1e-12
        b = b_cubed_prf(chain_counts(GOLD_ABC, PRED_AB_C))
        assert b.precision == 1.0 and abs(b.recall - 5.0 / 9.0) < 1e-12


class TestChainProperties:
    @pytest.mark.parametrize("seed", range(50))
    def test_perfect_prediction_scores_one(self, seed):
        rng = np.random.default_rng(seed)
        items = [f"m{i}" for i in range(int(rng.integers(2, 12)))]
        gold = random_partition(rng, items, ensure_link=True)
        pred = [set(c) for c in gold]
        s = chain_score_prf(chain_counts(gold, pred))
        assert abs(s.f1 - 1.0) < 1e-12 and abs(s.precision - 1.0) < 1e-12

    def test_ceaf_hungarian_equals_permutation_maximum(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            items = [f"m{i}" for i in range(int(rng.integers(2, 10)))]
            gold = random_partition(rng, items)
            pred = random_partition(rng, items)
            if len(gold) > 6 or len(pred) > 6:
                continue
            c = chain_counts(gold, pred)

            def phi4(a, b):
                return 2.0 * len(a & b) / (len(a) + len(b))

            small, big = (gold, pred) if len(gold) <= len(pred) else (pred, gold)
            best = max(
                sum(phi4(s, big[j]) for s, j in zip(small, perm))
                for perm in itertools.permutations(range(len(big)), len(small)))
            assert abs(c.ceaf_phi - best) < 1e-12

    def test_counts_additive_across_documents(self):
        rng = np.random.default_rng(11)
        total = ChainCounts()
        golds, preds = [], []
        for d in range(4):
            items = [f"d{d}m{i}" for i in range(6)]
            golds.append(random_partition(rng, items))
            preds.append(random_partition(rng, items))
            total = total + chain_counts(golds[-1], preds[-1])
        joint = chain_counts([c for g in golds for c in g],
                             [c for p in preds for c in p])
        # mention universes are disjoint across documents, so summing
        # per-document counts equals scoring the concatenation
        assert abs(total.muc_n - joint.muc_n) < 1e-12
        assert abs(total.b3_pn - joint.b3_pn) < 1e-12
        assert abs(total.ceaf_phi - joint.ceaf_phi) < 1e-12

    def test_rejects_non_partition(self):
        with pytest.raises(PartitionError):
            chain_counts([{"a"}, {"a"}], [{"a"}])
        with pytest.raises(PartitionError):
            chain_counts([{"a"}], [set()])

    def test_disjoint_universes_score_zero(self):
        s = chain_score_prf(chain_counts([{"a", "b"}], [{"x", "y"}]))
        assert s.f1 == 0.0

    def test_singleton_only_muc_denominators_are_zero(self):
        c = chain_counts([{"a"}, {"b"}], [{"a"}, {"b"}])
        assert c.b3_rd - c.ceaf_ng == 0.0 and c.b3_pd - c.ceaf_np == 0.0
        s = chain_score_prf(c)
        # MUC is 0/0 -> 0 on singletons; B3 and CEAF are perfect
        assert abs(s.f1 - 2.0 / 3.0) < 1e-12


def muc_side_oracle(chains, other):
    """(numerator, denominator) of Sum(|K| - |p(K)|) / Sum(|K| - 1), scanning
    every chain of the other side for each mention."""
    num = den = 0.0
    for k in chains:
        parts = {id(c) for m in k for c in other if m in c}
        orphans = sum(1 for m in k if not any(m in c for c in other))
        num += len(k) - (len(parts) + orphans)
        den += len(k) - 1
    return num, den


def b_cubed_oracle(gold, pred):
    """(recall numerator, precision numerator) over every gold x predicted pair."""
    return (sum(len(g & p) ** 2 / len(g) for g in gold for p in pred),
            sum(len(g & p) ** 2 / len(p) for g in gold for p in pred))


def chain_taxonomy_oracle(gold, pred):
    """(wrong members, missing members), aligning each predicted chain to the
    gold chain it shares the most mentions with by a dense scan."""
    wrong = missing = 0
    for c in pred:
        overlaps = [(len(c & g), gi) for gi, g in enumerate(gold)]
        best = max(overlaps, key=lambda t: (t[0], -t[1]), default=(0, -1))
        aligned = gold[best[1]] if best[0] > 0 else set()
        if c - aligned:
            wrong += 1
        elif aligned - c:
            missing += 1
    return wrong, missing


def oracle_prf(num_r, den_r, num_p, den_p):
    r = num_r / den_r if den_r > 0 else 0.0
    p = num_p / den_p if den_p > 0 else 0.0
    return p, r, 2 * p * r / (p + r) if p + r > 0 else 0.0


def random_pair(rng, prefix=""):
    """A gold and a predicted partition; some predicted mentions may lie
    outside gold's universe, as in predicted-pairs mode, and either side may
    be empty."""
    n = int(rng.integers(0, 16))
    items = [f"{prefix}m{i}" for i in range(n)]
    pool = items + [f"{prefix}x{i}" for i in range(int(rng.integers(0, n + 1)))]
    gold = random_partition(rng, items)
    pred = random_partition(rng, [pool[i] for i in rng.permutation(len(pool))[:n]])
    return gold, pred


class TestChainOracles:
    """The overlap table against the dense scans it replaced, bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_muc_b_cubed_and_taxonomy_equal_the_dense_scans(self, seed):
        rng = np.random.default_rng(2000 + seed)
        empties = 0
        for _ in range(100):
            gold, pred = random_pair(rng)
            empties += not gold or not pred
            c = chain_counts(gold, pred)
            rn, rd = muc_side_oracle(gold, pred)
            pn, pd = muc_side_oracle(pred, gold)
            assert (c.muc_n, c.muc_n, c.b3_rd - c.ceaf_ng, c.b3_pd - c.ceaf_np) == (rn, pn, rd, pd)
            m = muc_prf(c)
            assert (m.precision, m.recall, m.f1) == oracle_prf(rn, rd, pn, pd)
            assert (c.b3_rn, c.b3_pn) == b_cubed_oracle(gold, pred)
            tax = error_breakdown(TaskOutputs([], gold, [], []), TaskOutputs([], pred, [], []))
            assert (tax["cha_wrong_members"], tax["cha_missing_members"]) == \
                chain_taxonomy_oracle(gold, pred)
        assert empties > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_multi_document_sums_equal_the_dense_scans(self, seed):
        rng = np.random.default_rng(3000 + seed)
        total = ChainCounts()
        muc = [0.0] * 4
        b3 = [0.0] * 4
        for d in range(int(rng.integers(1, 12))):
            gold, pred = random_pair(rng, prefix=f"d{d}")
            total = total + chain_counts(gold, pred)
            parts = muc_side_oracle(gold, pred) + muc_side_oracle(pred, gold)
            muc = [a + b for a, b in zip(muc, parts)]
            b3 = [a + b for a, b in zip(b3, (*b_cubed_oracle(gold, pred),
                                             float(sum(map(len, gold))),
                                             float(sum(map(len, pred)))))]
        m, b = muc_prf(total), b_cubed_prf(total)
        assert (m.precision, m.recall, m.f1) == oracle_prf(*muc)
        assert (b.precision, b.recall, b.f1) == oracle_prf(b3[0], b3[2], b3[1], b3[3])


def ceaf_oracle(gold, pred) -> float:
    """Total phi4 of scipy's dense maximum-weight assignment, the reference for
    the sparse matching in `chain_counts`."""
    if not gold or not pred:
        return 0.0
    m = np.array([[2.0 * len(g & p) / (len(g) + len(p)) for p in pred] for g in gold])
    ri, ci = linear_sum_assignment(m, maximize=True)
    return float(m[ri, ci].sum())


class TestCeafAssignment:
    """CEAF-e's alignment against the dense assignment oracle."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_partitions_equal_dense_assignment(self, seed):
        rng = np.random.default_rng(1000 + seed)
        shapes = set()
        for _ in range(40):
            n = int(rng.integers(1, 41))
            items = [f"m{i}" for i in range(n)]
            gold = random_partition(rng, items)
            # predicted-pairs mode: some predicted mentions lie outside gold's universe
            pool = items
            if rng.random() < 0.3:
                pool = items + [f"x{i}" for i in range(int(rng.integers(0, n + 1)))]
            pred = random_partition(rng, [pool[i] for i in rng.permutation(len(pool))[:n]])
            phi = chain_counts(gold, pred).ceaf_phi
            assert abs(phi - ceaf_oracle(gold, pred)) <= 1e-12, (gold, pred)
            shapes.add((len(gold) > len(pred)) - (len(gold) < len(pred)))
        assert shapes == {-1, 0, 1}

    def test_tall_sums_add_in_the_dense_order(self):
        # with more gold than predicted chains, a dense assignment's
        # m[rows, cols] holds len(pred) rows, some at phi4 = 0, and numpy sums
        # 9 or more values pairwise, so the zero rows' places change the last
        # bits; laying them out as the lowest unmatched rows matches the dense
        # total bit for bit in all but a few tie cases (3 of these 300, against
        # 74 when all gold rows are summed)
        rng = np.random.default_rng(5)
        tall = differ = 0
        while tall < 300:
            n = int(rng.integers(12, 41))
            items = [f"m{i}" for i in range(n)]
            gold = random_partition(rng, items)
            pred = random_partition(rng, [items[i] for i in rng.permutation(n)])
            if len(pred) >= len(gold) or len(pred) < 9:
                continue
            tall += 1
            differ += chain_counts(gold, pred).ceaf_phi != ceaf_oracle(gold, pred)
        assert differ <= 6

    @pytest.mark.parametrize("gold,pred,phi", [
        # every entry ties at 1/2; two optimal matchings
        ([{"a", "b"}, {"c", "d"}], [{"a", "c"}, {"b", "d"}], 1.0),
        # one predicted chain, two gold rows tie for it
        ([{"a"}, {"b"}], [{"a", "b"}], 2.0 / 3.0),
        ([{"a", "b"}], [{"a"}, {"b"}], 2.0 / 3.0),
        # one predicted chain shares mentions with two gold chains
        ([{"a", "b", "c"}, {"d"}], [{"a", "b", "c", "d"}, {"x"}], 6.0 / 7.0),
        ([{"a", "b", "c"}, {"d", "e"}], [{"a", "b", "c", "d"}, {"e"}],
         6.0 / 7.0 + 2.0 / 3.0),
        # the largest entry (3/4) is not in the best matching (2/5 + 2/5)
        ([{"a", "b", "c", "d"}, {"e"}], [{"a", "b", "c", "e"}, {"d"}], 0.8),
    ])
    def test_hand_cases_and_ties(self, gold, pred, phi):
        got = chain_counts(gold, pred).ceaf_phi
        assert abs(got - phi) <= 1e-12
        assert abs(got - ceaf_oracle(gold, pred)) <= 1e-12
        flipped = chain_counts(pred, gold).ceaf_phi
        assert abs(flipped - phi) <= 1e-12

    @pytest.mark.parametrize("gold,pred", [([], []), ([], [{"a"}]), ([{"a", "b"}], []),
                                           ([{"a"}, {"b"}], [{"x"}, {"y", "z"}])])
    def test_empty_side_or_disjoint_universes_score_zero(self, gold, pred):
        c = chain_counts(gold, pred)
        assert c.ceaf_phi == 0.0 == ceaf_oracle(gold, pred)
        assert (c.ceaf_ng, c.ceaf_np) == (len(gold), len(pred))


def rel(sub, obj, t):
    return (frozenset(sub), frozenset(obj), t)


class TestRelations:
    def test_intersection_rule(self):
        gold = [rel({"a", "b"}, {"c"}, "R1")]
        assert relation_matches(rel({"b"}, {"c", "d"}, "R1"), gold[0])
        assert not relation_matches(rel({"x"}, {"c"}, "R1"), gold[0])
        assert not relation_matches(rel({"a"}, {"c"}, "R2"), gold[0])

    def test_counts_basic(self):
        gold = [rel({"a"}, {"b"}, "R1"), rel({"c"}, {"d"}, "R2")]
        pred = [rel({"a"}, {"b"}, "R1"), rel({"c"}, {"d"}, "R1")]
        assert relation_counts(gold, pred) == (1, 1, 1)

    def test_gold_consumed_once(self):
        gold = [rel({"a"}, {"b"}, "R1")]
        pred = [rel({"a"}, {"b"}, "R1"), rel({"a"}, {"b"}, "R1")]
        assert relation_counts(gold, pred) == (1, 1, 0)

    @pytest.mark.parametrize("seed", range(30))
    def test_greedy_counts_match_bruteforce_maximum(self, seed):
        # prediction-order greedy is provably maximal here because the
        # match relation between our generated instances is bipartite
        # one-to-one tested against exhaustive assignment search
        rng = np.random.default_rng(seed)
        universe = [f"m{i}" for i in range(6)]

        def rand_rel():
            sub = frozenset(rng.choice(universe, size=int(rng.integers(1, 3)), replace=False))
            obj = frozenset(rng.choice(universe, size=int(rng.integers(1, 3)), replace=False))
            return (sub, obj, f"R{int(rng.integers(0, 2))}")

        gold = [rand_rel() for _ in range(int(rng.integers(0, 4)))]
        pred = [rand_rel() for _ in range(int(rng.integers(0, 4)))]
        tp, fp, fn = relation_counts(gold, pred)

        best = 0
        for perm in itertools.permutations(range(len(gold))):
            used_p = set()
            cnt = 0
            for gi in perm:
                for pi in range(len(pred)):
                    if pi not in used_p and relation_matches(pred[pi], gold[gi]):
                        used_p.add(pi)
                        cnt += 1
                        break
            best = max(best, cnt)
        assert tp <= best
        assert fp == len(pred) - tp and fn == len(gold) - tp


def box_region(frame, t, cx, cy, w, h):
    return Region(frame, t, cx, cy, w, h)


class TestIou:
    def test_hand_example(self):
        # unit squares offset by half in one axis: inter 0.5, union 1.5
        a = (0.5, 0.5, 1.0, 1.0)
        b = (1.0, 0.5, 1.0, 1.0)
        assert abs(iou(a, b) - 1.0 / 3.0) < 1e-12

    def test_quarter_overlap(self):
        a = (0.25, 0.25, 0.5, 0.5)
        b = (0.5, 0.5, 0.5, 0.5)
        # inter = 0.25^2, union = 2*0.25 - 0.0625
        assert abs(iou(a, b) - 0.0625 / 0.4375) < 1e-12

    def test_identical_boxes(self):
        a = (0.3, 0.4, 0.2, 0.6)
        assert iou(a, a) == 1.0

    def test_disjoint_and_touching(self):
        a = (0.2, 0.2, 0.2, 0.2)
        b = (0.8, 0.8, 0.2, 0.2)
        assert iou(a, b) == 0.0
        c = (0.4, 0.2, 0.2, 0.2)  # shares an edge with a
        assert iou(a, c) == 0.0

    def test_corners_conversion(self):
        assert to_corners((0.5, 0.5, 0.5, 0.25)) == (0.25, 0.375, 0.75, 0.625)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_pixel_grid(self, seed):
        # test-owned oracle: rasterize both boxes on a 1000x1000 grid; box
        # corners are drawn on the pixel lattice so the raster count is exact
        rng = np.random.default_rng(seed)
        n = 1000
        ys, xs = np.mgrid[0:n, 0:n]
        cell = (xs + 0.5) / n, (ys + 0.5) / n
        for _ in range(20):
            boxes = []
            for _ in range(2):
                w = rng.integers(10, 300) * 2 / n
                h = rng.integers(10, 300) * 2 / n
                cx = rng.integers(w * n / 2, n - w * n / 2 + 1) / n
                cy = rng.integers(h * n / 2, n - h * n / 2 + 1) / n
                boxes.append((cx, cy, w, h))
            masks = []
            for cx, cy, w, h in boxes:
                inx = (np.abs(cell[0] - cx) <= w / 2) & (np.abs(cell[1] - cy) <= h / 2)
                masks.append(inx)
            inter = float(np.sum(masks[0] & masks[1])) / n ** 2
            union = float(np.sum(masks[0] | masks[1])) / n ** 2
            approx = inter / union if union else 0.0
            assert abs(iou(boxes[0], boxes[1]) - approx) < 1e-3


class TestGrounding:
    def test_strict_threshold(self):
        g = [box_region(0, "PER", 0.5, 0.5, 0.4, 0.4)]
        p_hit = [box_region(0, "PER", 0.52, 0.5, 0.4, 0.4)]
        p_half = [box_region(0, "PER", 0.5, 0.5, 0.2, 0.4)]  # IoU exactly 0.5
        assert grounding_counts(g, p_hit) == (1, 0, 0)
        assert grounding_counts(g, p_half) == (0, 1, 1)

    def test_type_must_match(self):
        g = [box_region(0, "PER", 0.5, 0.5, 0.4, 0.4)]
        p = [box_region(0, "LOC", 0.5, 0.5, 0.4, 0.4)]
        assert grounding_counts(g, p) == (0, 1, 1)

    def test_frame_must_match(self):
        g = [box_region(0, "PER", 0.5, 0.5, 0.4, 0.4)]
        p = [box_region(1, "PER", 0.5, 0.5, 0.4, 0.4)]
        assert grounding_counts(g, p) == (0, 1, 1)

    def test_greedy_prefers_highest_iou(self):
        g = [box_region(0, "PER", 0.3, 0.5, 0.4, 0.8),
             box_region(1, "PER", 0.7, 0.5, 0.4, 0.8)]
        p = [box_region(0, "PER", 0.32, 0.5, 0.4, 0.8),
             box_region(1, "PER", 0.33, 0.5, 0.4, 0.8)]
        # frame separation forces the pairing; frame 1 prediction misses badly
        assert grounding_counts(g, p) == (1, 1, 1)

    def test_invalid_center_fields_rejected(self):
        with pytest.raises(ValueError, match="invalid box"):
            grounding_counts([box_region(0, "PER", 1.5, 0.5, 0.2, 0.2)], [])
        with pytest.raises(ValueError, match="invalid box"):
            grounding_counts([], [box_region(0, "PER", 0.5, 0.5, 0.0, 0.2)])

    def test_overhanging_corners_allowed(self):
        # cx=0.9, w=0.4: right corner 1.1 > 1; still a legal sigmoid output
        g = [box_region(0, "PER", 0.9, 0.5, 0.38, 0.4)]
        p = [box_region(0, "PER", 0.9, 0.5, 0.4, 0.4)]
        tp, fp, fn = grounding_counts(g, p)
        assert tp == 1

    @pytest.mark.parametrize("seed", range(30))
    def test_matcher_agrees_with_bruteforce(self, seed):
        rng = np.random.default_rng(1000 + seed)

        def rand_regions(n, frame):
            out = []
            for _ in range(n):
                w, h = rng.uniform(0.1, 0.5, size=2)
                out.append(Region(frame, rng.choice(["PER", "LOC"]),
                                  float(rng.uniform(w / 2, 1 - w / 2)),
                                  float(rng.uniform(h / 2, 1 - h / 2)),
                                  float(w), float(h)))
            return out

        gold = rand_regions(int(rng.integers(0, 3)), 0)
        pred = rand_regions(int(rng.integers(0, 3)), 0)
        tp, fp, fn = grounding_counts(gold, pred)

        best = 0
        for perm in itertools.permutations(range(len(pred))):
            used_g = set()
            cnt = 0
            for pi in perm:
                for gi in range(len(gold)):
                    if gi in used_g:
                        continue
                    if (pred[pi].type == gold[gi].type
                            and iou(pred[pi].box(), gold[gi].box()) > 0.5):
                        used_g.add(gi)
                        cnt += 1
                        break
            best = max(best, cnt)
        assert tp == best  # greedy by descending IoU is optimal per frame
        assert fp == len(pred) - tp and fn == len(gold) - tp


class TestTaxonomy:
    def _gold(self):
        return TaskOutputs(
            entities=[Entity(0, 2, "PER"), Entity(3, 4, "LOC")],
            chains=[{(0, 2, "PER")}, {(3, 4, "LOC")}],
            relations=[rel({(0, 2, "PER")}, {(3, 4, "LOC")}, "R1")],
            regions=[box_region(0, "PER", 0.5, 0.5, 0.4, 0.4)])

    def test_perfect_prediction_no_errors(self):
        g = self._gold()
        tax = error_breakdown(g, g)
        assert all(tax[k] == 0 for k in empty_taxonomy() if not k.endswith("_pred"))
        assert tax["ent_pred"] == 2 and tax["rel_pred"] == 1

    def test_entity_boundary_vs_type(self):
        g = self._gold()
        p = TaskOutputs(
            entities=[Entity(0, 2, "ORG"), Entity(2, 4, "LOC")],
            chains=[], relations=[], regions=[])
        tax = error_breakdown(g, p)
        assert tax["ent_type"] == 1      # right span, wrong label
        assert tax["ent_boundary"] == 1  # shifted span

    def test_chain_member_errors(self):
        g = self._gold()
        merged = TaskOutputs([], [{(0, 2, "PER"), (3, 4, "LOC")}], [], [])
        split = TaskOutputs([], [{(0, 2, "PER")}], [], [])
        assert error_breakdown(g, merged)["cha_wrong_members"] == 1
        g2 = TaskOutputs([], [{(0, 2, "PER"), (3, 4, "LOC")}], [], [])
        assert error_breakdown(g2, split)["cha_missing_members"] == 1

    def test_relation_type_vs_false(self):
        g = self._gold()
        p_type = TaskOutputs([], [], [rel({(0, 2, "PER")}, {(3, 4, "LOC")}, "R2")], [])
        p_false = TaskOutputs([], [], [rel({(9, 9, "X")}, {(8, 8, "Y")}, "R1")], [])
        assert error_breakdown(g, p_type)["rel_type"] == 1
        assert error_breakdown(g, p_false)["rel_false"] == 1

    def test_grounding_boundary_vs_type(self):
        g = self._gold()
        p_t = TaskOutputs([], [], [], [box_region(0, "LOC", 0.5, 0.5, 0.4, 0.4)])
        p_b = TaskOutputs([], [], [], [box_region(0, "PER", 0.1, 0.1, 0.1, 0.1)])
        assert error_breakdown(g, p_t)["gro_type"] == 1
        assert error_breakdown(g, p_b)["gro_boundary"] == 1

    def test_one_error_per_bad_prediction(self):
        g = self._gold()
        p = TaskOutputs(
            entities=[Entity(0, 2, "ORG")],
            chains=[{(7, 8, "Q")}],
            relations=[rel({(1, 1, "Z")}, {(2, 2, "Z")}, "R9")],
            regions=[box_region(0, "LOC", 0.1, 0.1, 0.1, 0.1)])
        tax = error_breakdown(g, p)
        errs = sum(tax[k] for k in empty_taxonomy() if not k.endswith("_pred"))
        assert errs == 4

    @staticmethod
    def _errors(tax, task):
        return sum(tax[k] for k in ERROR_KEYS if k.startswith(task))

    def test_hand_case_errors_equal_false_positives(self):
        # the grounding greedy pairs the 0.46 box with the 0.50 gold (IoU 0.82)
        # and leaves the 0.54 box unmatched, as its IoU with the 0.40 gold is 0.48
        gold = TaskOutputs([Entity(0, 2, "PER")], [], [],
                           [box_region(0, "PER", 0.40, 0.5, 0.4, 0.4),
                            box_region(0, "PER", 0.50, 0.5, 0.4, 0.4)])
        pred = TaskOutputs([Entity(0, 2, "PER"), Entity(0, 2, "PER")], [], [],
                           [box_region(0, "PER", 0.46, 0.5, 0.4, 0.4),
                            box_region(0, "PER", 0.54, 0.5, 0.4, 0.4)])
        assert grounding_counts(gold.regions, pred.regions) == (1, 1, 1)
        assert entity_counts(gold.entities, pred.entities) == (1, 1, 0)
        tax = error_breakdown(gold, pred)
        assert self._errors(tax, "gro") == 1 == tax["gro_boundary"]
        assert self._errors(tax, "ent") == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_errors_equal_false_positives(self, seed):
        rng = np.random.default_rng(4000 + seed)
        types = ["PER", "LOC"]
        keys = [(s, s + 1 + int(rng.integers(0, 2)), t) for s in range(4) for t in types]

        def entities(n):
            return [Entity(*keys[int(rng.integers(0, len(keys)))]) for _ in range(n)]

        def regions(n_frames):
            out = []
            for f in range(n_frames):
                for _ in range(int(rng.integers(0, 4))):
                    # crowded boxes, so several pairs on a frame pass IoU 0.5
                    w, h = rng.uniform(0.3, 0.4, size=2)
                    out.append(Region(f, types[int(rng.integers(0, 2))],
                                      float(rng.uniform(0.4, 0.6)), float(rng.uniform(0.4, 0.6)),
                                      float(w), float(h)))
            return out

        def relations(n):
            mk = [frozenset(rng.choice(["a", "b", "c", "d"], size=int(rng.integers(1, 3)),
                                       replace=False)) for _ in range(4)]
            out = [rel(mk[int(rng.integers(0, 4))], mk[int(rng.integers(0, 4))],
                       f"R{int(rng.integers(0, 2))}") for _ in range(n)]
            return out + out[:int(rng.integers(0, n + 1))]   # repeated instances

        for _ in range(30):
            n_frames = int(rng.integers(1, 4))
            gold = TaskOutputs(entities(int(rng.integers(0, 5))), [],
                               relations(int(rng.integers(0, 4))), regions(n_frames))
            pred_ents = entities(int(rng.integers(0, 5)))
            pred = TaskOutputs(pred_ents + pred_ents[:int(rng.integers(0, 3))], [],
                               relations(int(rng.integers(0, 4))), regions(n_frames))
            tax = error_breakdown(gold, pred)
            for task, field, counts in [("ent", "entities", entity_counts),
                                        ("rel", "relations", relation_counts),
                                        ("gro", "regions", grounding_counts)]:
                fp = counts(getattr(gold, field), getattr(pred, field))[1]
                assert self._errors(tax, task) == fp, (task, gold, pred)

    def test_rates(self):
        tax = empty_taxonomy()
        tax.update(ent_pred=4, ent_boundary=1, ent_type=1, gro_pred=2, gro_type=1)
        r = error_rates(tax)
        assert r["entity"] == 0.5 and r["grounding"] == 0.5
        assert r["relation"] == 0.0  # no predictions -> rate 0

    def test_add_taxonomy(self):
        a = empty_taxonomy()
        a["ent_type"] = 2
        b = empty_taxonomy()
        b["ent_type"] = 3
        assert add_taxonomy(a, b)["ent_type"] == 5


class TestPermutationInvariance:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_scores_invariant_under_input_order(self, seed):
        rng = np.random.default_rng(seed)
        items = [f"m{i}" for i in range(8)]
        gold = random_partition(rng, items)
        pred = random_partition(rng, items)
        a = chain_score_prf(chain_counts(gold, pred))
        b = chain_score_prf(chain_counts(list(reversed(gold)), list(reversed(pred))))
        assert abs(a.f1 - b.f1) < 1e-12

        ents_g = [Entity(i, i + 1, "PER") for i in range(5)]
        ents_p = [Entity(i, i + 1, "PER") for i in range(3, 8)]
        assert entity_counts(ents_g, ents_p) == entity_counts(ents_g[::-1], ents_p[::-1])
