"""Task heads: CRF against enumeration, BIO handling, pair heads, losses."""
import itertools

import numpy as np
import pytest

from himie.autodiff import (ParamTree, Tensor, add, gradcheck, logsumexp, matmul,
                            reshape, tsum)
from himie.config import LossConfig, ModelConfig
from himie.data import Document, Entity, Region, Relation
from himie.heads import (
    TagSet,
    check_bio,
    chain_reprs,
    compute_losses,
    crf_decode,
    crf_nll,
    cross_entropy_mean,
    decode_chains,
    entity_reprs,
    gold_tag_ids,
    grounding_predict,
    init_heads,
    pair_logit_matrix,
    repair_bio,
    spans_from_tags,
    total_loss,
)

CFG = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, vocab=64, max_len=32)
TAGS = TagSet.for_types(CFG.entity_types)


def head_params(seed=0) -> ParamTree:
    p = ParamTree()
    init_heads(p.scoped("heads"), CFG, np.random.default_rng(seed))
    return p


def zero_crf(n_tags: int, d: int) -> ParamTree:
    p = ParamTree()
    c = p.scoped("crf")
    c.add("emission", np.zeros((d, n_tags)))
    c.add("trans", np.zeros((n_tags, n_tags)))
    c.add("start", np.zeros(n_tags))
    c.add("end", np.zeros(n_tags))
    return p


def crf_log_z_bruteforce(emis, trans, start, end) -> float:
    """log Z by enumerating every tag path."""
    L, K = emis.shape
    scores = []
    for path in itertools.product(range(K), repeat=L):
        p = np.array(path)
        scores.append(start[p[0]] + end[p[-1]] + emis[np.arange(L), p].sum()
                      + trans[p[:-1], p[1:]].sum())
    m = max(scores)
    return m + np.log(np.sum(np.exp(np.array(scores) - m)))


def reference_crf_nll(h_text, gold_ids, scope, tagset):
    """The CRF loss as a per-token tape recursion: the oracle for the fused node."""
    gold_ids = np.asarray(gold_ids, dtype=np.intp)
    emis = matmul(h_text, scope["emission"])
    L = emis.data.shape[0]
    trans, start, end = scope["trans"], scope["start"], scope["end"]

    score = tsum(emis[np.arange(L), gold_ids]) + start[int(gold_ids[0])] + end[int(gold_ids[-1])]
    if L > 1:
        score = score + tsum(trans[gold_ids[:-1], gold_ids[1:]])

    alpha = add(emis[0], start)
    for t in range(1, L):
        prev = reshape(alpha, (len(tagset.tags), 1))
        alpha = add(logsumexp(add(prev, trans), axis=0), emis[t])
    log_z = logsumexp(add(alpha, end), axis=0)
    return log_z - score


def random_crf(L: int, seed: int, scale: float = 1.0) -> tuple[ParamTree, np.ndarray]:
    """A trainable `h` [L, d_h] and a `crf` scope with random transitions and
    boundary scores, plus a random valid BIO gold sequence."""
    rng = np.random.default_rng(seed)
    K = len(TAGS)
    p = ParamTree()
    p.add("h", rng.normal(size=(L, CFG.d_h)))
    c = p.scoped("crf")
    c.add("emission", rng.normal(size=(CFG.d_h, K)) * scale / np.sqrt(CFG.d_h))
    c.add("trans", rng.normal(size=(K, K)))
    c.add("start", rng.normal(size=K))
    c.add("end", rng.normal(size=K))
    return p, np.asarray(repair_bio(rng.integers(0, K, size=L), TAGS))


def make_doc(**over) -> Document:
    base = dict(
        id="d", tokens=["t0", "t1", "t2", "t3", "t4", "t5"],
        frames=[np.zeros((CFG.n_p, CFG.d_in))],
        entities=[Entity(0, 2, "PER"), Entity(3, 4, "LOC")],
        chains=[[0], [1]], relations=[Relation(0, 1, "R1")],
        regions=[Region(0, "PER", 0.5, 0.5, 0.25, 0.25)], modality_mask="full")
    base.update(over)
    return Document(**base)


class TestTagSet:
    def test_layout(self):
        ts = TagSet.for_types(("PER", "LOC"))
        assert ts.tags == ("O", "B-PER", "I-PER", "B-LOC", "I-LOC")
        assert ts.begin("LOC") == 3 and ts.inside("PER") == 2
        assert ts.type_of(0) is None and ts.type_of(4) == "LOC"
        assert ts.is_begin(1) and ts.is_inside(2) and not ts.is_begin(0)

    def test_gold_ids_roundtrip_through_spans(self):
        doc = make_doc()
        ids = gold_tag_ids(doc, TAGS)
        assert spans_from_tags(ids, TAGS) == doc.entities

    def test_gold_ids_layout(self):
        doc = make_doc()
        ids = gold_tag_ids(doc, TAGS).tolist()
        b, i = TAGS.begin("PER"), TAGS.inside("PER")
        assert ids[:3] == [b, i, 0]
        assert ids[3] == TAGS.begin("LOC") and ids[4] == 0

    def test_check_bio_rejects_orphan_inside(self):
        with pytest.raises(ValueError, match="BIO"):
            check_bio([0, TAGS.inside("PER")], TAGS)
        with pytest.raises(ValueError, match="BIO"):
            check_bio([TAGS.begin("LOC"), TAGS.inside("PER")], TAGS)

    def test_repair_bio_promotes_orphans(self):
        fixed = repair_bio([0, TAGS.inside("PER"), TAGS.inside("PER")], TAGS)
        assert fixed == [0, TAGS.begin("PER"), TAGS.inside("PER")]
        check_bio(fixed, TAGS)

    def test_spans_adjacent_b_tags_split(self):
        b = TAGS.begin("PER")
        assert spans_from_tags([b, b], TAGS) == [Entity(0, 1, "PER"), Entity(1, 2, "PER")]

    def test_span_ending_at_sequence_end(self):
        b, i = TAGS.begin("ORG"), TAGS.inside("ORG")
        assert spans_from_tags([0, b, i], TAGS) == [Entity(1, 3, "ORG")]


class TestCrf:
    def test_zero_params_log_z_is_uniform(self):
        # all scores 0: Z = K^L so NLL = L log K exactly
        K, L = len(TAGS), 2
        p = zero_crf(K, CFG.d_h)
        h = Tensor(np.zeros((L, CFG.d_h)))
        nll = crf_nll(h, [0, 0], p.scoped("crf"), TAGS)
        assert abs(nll.data - L * np.log(K)) < 1e-12

    @pytest.mark.parametrize("trial", range(20))
    def test_log_z_matches_enumeration(self, trial):
        rng = np.random.default_rng(trial)
        K = len(TAGS)
        L = int(rng.integers(1, 6))
        p = head_params(seed=trial)
        h = Tensor(rng.normal(size=(L, CFG.d_h)))
        crf = p.scoped("heads.crf")
        # valid random BIO sequence via repair
        gold = repair_bio(rng.integers(0, K, size=L), TAGS)

        emis = h.data @ crf["emission"].data
        trans, start, end = crf["trans"].data, crf["start"].data, crf["end"].data
        log_z = crf_log_z_bruteforce(emis, trans, start, end)
        score = emis[np.arange(L), gold].sum() + start[gold[0]] + end[gold[-1]]
        score += trans[np.asarray(gold)[:-1], np.asarray(gold)[1:]].sum() if L > 1 else 0.0

        nll = crf_nll(h, gold, crf, TAGS)
        assert abs(nll.data - (log_z - score)) < 1e-8

    @pytest.mark.parametrize("trial", range(20))
    def test_decode_matches_best_enumerated_path(self, trial):
        rng = np.random.default_rng(100 + trial)
        K = len(TAGS)
        L = int(rng.integers(1, 5))
        p = head_params(seed=trial)
        crf = p.scoped("heads.crf")
        # continuous random scores: ties have probability zero
        crf["trans"].data[:] = rng.normal(size=(K, K))
        crf["start"].data[:] = rng.normal(size=K)
        crf["end"].data[:] = rng.normal(size=K)
        h = Tensor(rng.normal(size=(L, CFG.d_h)))
        emis = h.data @ crf["emission"].data

        best, best_s = None, -np.inf
        idx = np.zeros(L, dtype=int)
        while True:
            s = crf["start"].data[idx[0]] + crf["end"].data[idx[-1]]
            s += emis[np.arange(L), idx].sum()
            if L > 1:
                s += crf["trans"].data[idx[:-1], idx[1:]].sum()
            if s > best_s:
                best, best_s = idx.copy(), s
            k = L - 1
            while k >= 0:
                idx[k] += 1
                if idx[k] < K:
                    break
                idx[k] = 0
                k -= 1
            if k < 0:
                break

        assert crf_decode(h, crf, TAGS) == repair_bio(best, TAGS)

    def test_all_ties_decode_to_outside(self):
        p = zero_crf(len(TAGS), CFG.d_h)
        h = Tensor(np.zeros((4, CFG.d_h)))
        assert crf_decode(h, p.scoped("crf"), TAGS) == [0, 0, 0, 0]

    def test_nll_rejects_invalid_gold(self):
        p = head_params()
        h = Tensor(np.zeros((2, CFG.d_h)))
        with pytest.raises(ValueError, match="BIO"):
            crf_nll(h, [0, TAGS.inside("PER")], p.scoped("heads.crf"), TAGS)

    def test_nll_gradcheck(self):
        p = head_params(seed=5)
        rng = np.random.default_rng(5)
        h = Tensor(rng.normal(size=(4, CFG.d_h)))
        gold = gold_tag_ids(make_doc(tokens=["a", "b", "c", "d"],
                                     entities=[Entity(0, 2, "PER")],
                                     chains=[[0]], relations=[], regions=[]), TAGS)
        report = gradcheck(lambda: crf_nll(h, gold, p.scoped("heads.crf"), TAGS),
                           p, samples=40, seed=2)
        assert report.ok(1e-4), report.worst()


class TestFusedCrf:
    """`crf_nll` is one tape node; the per-token tape recursion is its oracle."""

    @staticmethod
    def value_and_grads(fn, p, gold):
        """The loss and the gradients of 0.37 * loss (a non-unit upstream gradient)."""
        p.zero_grad()
        loss = fn(p["h"], gold, p.scoped("crf"), TAGS)
        (loss * 0.37).backward()
        return float(loss.data), {n: g.copy() for n, g in p.grads().items()}

    @pytest.mark.parametrize("L", [1, 2, 7, 200])
    def test_matches_tape_recursion(self, L):
        p, gold = random_crf(L, seed=L)
        value, grads = self.value_and_grads(crf_nll, p, gold)
        ref_value, ref_grads = self.value_and_grads(reference_crf_nll, p, gold)
        assert abs(value - ref_value) <= 1e-10 * max(1.0, abs(ref_value))
        assert sorted(grads) == ["crf.emission", "crf.end", "crf.start", "crf.trans", "h"]
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=1e-10, atol=1e-10,
                                       err_msg=name)

    def test_one_node_over_emissions_and_scores(self, monkeypatch):
        p, gold = random_crf(7, seed=1)
        made = []
        make_result = Tensor._result

        def counted(data, parents, vjp):
            made.append(vjp.__qualname__.split(".", 1)[0])
            return make_result(data, parents, vjp)

        monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
        loss = crf_nll(p["h"], gold, p.scoped("crf"), TAGS)
        monkeypatch.undo()
        assert made == ["matmul", "crf_nll"]
        emis, trans, start, end = loss._parents
        assert (trans, start, end) == (p["crf.trans"], p["crf.start"], p["crf.end"])
        assert emis._parents == (p["h"], p["crf.emission"])

    def test_large_emissions_stay_finite(self):
        p, gold = random_crf(50, seed=3, scale=1e3)
        emis = p["h"].data @ p["crf.emission"].data
        assert 300.0 < np.abs(emis).max() < 1e4
        value, grads = self.value_and_grads(crf_nll, p, gold)
        assert np.isfinite(value) and value >= 0.0
        for name, g in grads.items():
            assert np.isfinite(g).all(), name

    def test_gradcheck_single_token_with_trainable_text(self):
        p, gold = random_crf(1, seed=4)
        report = gradcheck(lambda: crf_nll(p["h"], gold, p.scoped("crf"), TAGS),
                           p, samples=40, seed=0)
        assert {e.name for e in report.entries} >= {"h", "crf.emission", "crf.start",
                                                     "crf.end"}
        assert report.ok(1e-4), report.worst()

    @pytest.mark.parametrize("index", [None, 0, 1, 2, 3],
                             ids=["clean", "demis", "dtrans", "dstart", "dend"])
    def test_gradcheck_catches_a_planted_error(self, plant_vjp_error, index):
        # one prefix group per parent; the emission parent is the product
        # h @ crf.emission, so its group holds both leaves
        p, gold = random_crf(7, seed=6)
        if index is not None:
            plant_vjp_error("crf_nll", index)
        report = gradcheck(lambda: crf_nll(p["h"], gold, p.scoped("crf"), TAGS),
                           p, samples=40, seed=1,
                           prefixes=["crf.trans", "crf.start", "crf.end"])
        assert {e.name for e in report.entries} == set(p.names())
        assert report.ok(1e-4) is (index is None), report.worst()


class TestPairHeads:
    def test_span_repr_is_token_mean(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.normal(size=(5, CFG.d_h)))
        r = entity_reprs(h, [Entity(1, 4, "PER")]).data[0]
        assert np.allclose(r, h.data[1:4].mean(axis=0), atol=1e-12)

    def test_span_and_chain_pooling_are_one_matmul_node(self):
        p = ParamTree()
        h = p.add("h", np.random.default_rng(3).normal(size=(6, CFG.d_h)))
        er = entity_reprs(h, [Entity(0, 2, "PER"), Entity(3, 6, "LOC"), Entity(2, 3, "ORG")])
        cr = chain_reprs(er, [[0, 2], [1]])
        for out, parent in ((er, h), (cr, er)):
            assert out._vjp.__qualname__.startswith("matmul.")
            tensor_parents = [q for q in out._parents if q.requires_grad]
            assert tensor_parents == [parent]

    def test_entity_reprs_empty(self):
        h = Tensor(np.zeros((3, CFG.d_h)))
        assert entity_reprs(h, []).data.shape == (0, CFG.d_h)

    def test_chain_reprs_mean_members(self):
        rng = np.random.default_rng(1)
        er = Tensor(rng.normal(size=(4, CFG.d_h)))
        cr = chain_reprs(er, [[0, 2], [3]])
        assert np.allclose(cr.data[0], er.data[[0, 2]].mean(axis=0), atol=1e-12)
        assert np.allclose(cr.data[1], er.data[3], atol=1e-12)

    def test_pair_logits_symmetric(self):
        # Hadamard features make the pair score orientation-free
        p = head_params(seed=2)
        rng = np.random.default_rng(2)
        er = Tensor(rng.normal(size=(3, CFG.d_h)))
        ab = pair_logit_matrix(er, [(0, 1)], p.scoped("heads.coref")).data
        ba = pair_logit_matrix(er, [(1, 0)], p.scoped("heads.coref")).data
        assert np.allclose(ab, ba, atol=1e-12)

    def test_decode_chains_transitive_closure(self):
        assert decode_chains(4, [(0, 1), (1, 2)]) == [[0, 1, 2], [3]]

    def test_decode_chains_no_pairs_gives_singletons(self):
        assert decode_chains(3, []) == [[0], [1], [2]]

    def test_decode_chains_order_contract(self):
        out = decode_chains(5, [(3, 4), (0, 2)])
        assert out == [[0, 2], [1], [3, 4]]

    def test_decode_chains_duplicate_and_reversed_pairs(self):
        assert decode_chains(3, [(1, 0), (0, 1), (1, 0)]) == [[0, 1], [2]]


class TestGrounding:
    def test_zero_weights_predict_none_everywhere(self):
        p = ParamTree()
        g = p.scoped("gro")
        g.add("type.w", np.zeros((CFG.d_h, len(CFG.grounding_types) + 1)))
        g.add("type.b", np.zeros(len(CFG.grounding_types) + 1))
        g.add("box.w", np.zeros((CFG.d_h, 4)))
        g.add("box.b", np.zeros(4))
        h = Tensor(np.random.default_rng(0).normal(size=(3, CFG.d_h)))
        assert grounding_predict(h, g, CFG.grounding_types) == [None, None, None]

    def test_tied_types_take_the_lowest_index(self):
        p = ParamTree()
        g = p.scoped("gro")
        g.add("type.w", np.zeros((CFG.d_h, len(CFG.grounding_types) + 1)))
        g.add("type.b", np.array([0.0] + [2.0] * len(CFG.grounding_types)))
        g.add("box.w", np.zeros((CFG.d_h, 4)))
        g.add("box.b", np.zeros(4))
        h = Tensor(np.random.default_rng(0).normal(size=(3, CFG.d_h)))
        out = grounding_predict(h, g, CFG.grounding_types)
        assert [r.type for r in out] == [CFG.grounding_types[0]] * 3
        assert [r.frame for r in out] == [0, 1, 2]

    def test_biased_type_predicts_region_with_sigmoid_box(self):
        p = ParamTree()
        g = p.scoped("gro")
        g.add("type.w", np.zeros((CFG.d_h, len(CFG.grounding_types) + 1)))
        bias = np.zeros(len(CFG.grounding_types) + 1)
        bias[2] = 5.0
        g.add("type.b", bias)
        g.add("box.w", np.zeros((CFG.d_h, 4)))
        g.add("box.b", np.zeros(4))
        h = Tensor(np.zeros((2, CFG.d_h)))
        out = grounding_predict(h, g, CFG.grounding_types)
        assert all(r is not None for r in out)
        assert out[0].type == CFG.grounding_types[1]
        assert out[1].frame == 1
        assert out[0].box() == (0.5, 0.5, 0.5, 0.5)  # sigmoid(0)


class TestLosses:
    def test_cross_entropy_hand_value(self):
        logits = Tensor(np.zeros((1, 2)))
        assert abs(cross_entropy_mean(logits, [0]).data - np.log(2)) < 1e-12

    def test_cross_entropy_mean_over_rows(self):
        logits = Tensor(np.array([[0.0, 0.0], [10.0, 0.0]]))
        v = cross_entropy_mean(logits, [0, 0]).data
        expect = (np.log(2) + np.log1p(np.exp(-10.0))) / 2
        assert abs(v - expect) < 1e-12

    def _features(self, doc, seed=0):
        rng = np.random.default_rng(seed)
        h_text = Tensor(rng.normal(size=(doc.n_tokens, CFG.d_h)))
        h_frames = Tensor(rng.normal(size=(doc.n_frames, CFG.d_h))) if doc.n_frames else None
        return h_text, h_frames

    def test_all_components_present_on_full_doc(self):
        doc = make_doc()
        p = head_params()
        h_text, h_frames = self._features(doc)
        parts = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG, TAGS)
        named = parts.named()
        assert named["ent"][1] == doc.n_tokens
        assert named["cha"][1] == 1      # one unordered entity pair
        assert named["rel"][1] == 2      # two ordered chain pairs
        assert named["gro_t"][1] == 1 and named["gro_b"][1] == 1
        for key, (value, count) in named.items():
            assert count > 0 and np.isfinite(value.data), key

    def test_pairless_doc_zeroes_cha_and_rel(self):
        doc = make_doc(entities=[Entity(0, 2, "PER")], chains=[[0]],
                       relations=[], regions=[])
        p = head_params()
        h_text, h_frames = self._features(doc)
        parts = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG, TAGS)
        assert parts.cha == (None, 0)
        assert parts.rel == (None, 0)
        assert parts.gro_t[1] == 1   # type CE still trains NONE on the frame
        assert parts.gro_b == (None, 0)

    def test_frameless_doc_zeroes_grounding(self):
        doc = make_doc(frames=[], regions=[])
        p = head_params()
        h_text, _ = self._features(doc)
        parts = compute_losses(doc, h_text, None, p.scoped("heads"), CFG, TAGS)
        assert parts.gro_t == (None, 0) and parts.gro_b == (None, 0)

    def test_multi_label_pair_adds_terms(self):
        doc = make_doc(relations=[Relation(0, 1, "R1"), Relation(0, 1, "R2")])
        p = head_params()
        h_text, h_frames = self._features(doc)
        parts = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG, TAGS)
        assert parts.rel[1] == 3  # (0,1) twice + (1,0) null

    def test_total_loss_weights_components(self):
        doc = make_doc()
        p = head_params()
        h_text, h_frames = self._features(doc)
        parts = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG, TAGS)
        alphas = LossConfig(alpha_ent=2.0, alpha_cha=0.5, alpha_rel=1.0,
                            alpha_gro_t=0.0, alpha_gro_b=3.0)
        total = total_loss(parts, alphas).data
        named = parts.named()
        expect = (2.0 * named["ent"][0].data + 0.5 * named["cha"][0].data
                  + named["rel"][0].data + 3.0 * named["gro_b"][0].data)
        assert abs(total - expect) < 1e-12

    def test_total_loss_empty_parts_is_zero(self):
        from himie.heads import LossParts
        parts = LossParts((None, 0), (None, 0), (None, 0), (None, 0), (None, 0))
        assert total_loss(parts, LossConfig()).data == 0.0

    def test_loss_gradcheck_through_all_heads(self):
        doc = make_doc()
        p = head_params(seed=9)
        rng = np.random.default_rng(9)
        h_text = Tensor(rng.normal(size=(doc.n_tokens, CFG.d_h)))
        h_frames = Tensor(rng.normal(size=(doc.n_frames, CFG.d_h)))

        def loss():
            parts = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG, TAGS)
            return total_loss(parts, LossConfig())

        report = gradcheck(loss, p, samples=60, seed=4)
        assert report.ok(1e-4), report.worst()
