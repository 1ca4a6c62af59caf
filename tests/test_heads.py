"""Task heads: CRF against enumeration, BIO handling, pair heads, losses."""
import itertools

import numpy as np
import pytest

from himie.autodiff import (ParamTree, Tensor, add, gradcheck, index_rows, matmul, reshape,
                            tmean, tsum)
from himie.config import LossConfig, ModelConfig
from himie.data import Document, Entity, Region, Relation
from himie.heads import (
    affine,
    box_l1_mean,
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
    pair_features,
    repair_bio,
    spans_from_tags,
    total_loss,
)
from conftest import count_tape_nodes, getitem

CFG = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, vocab=64, max_len=32)
K = 1 + 2 * len(CFG.entity_types)  # O, then a B- and an I-tag per entity type


def begin(etype: str) -> int:
    return 2 * CFG.entity_types.index(etype) + 1


def inside(etype: str) -> int:
    return begin(etype) + 1
LOSS_NAMES = ("ent", "cha", "rel", "gro_t", "gro_b")


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


def logsumexp(a: Tensor, axis: int = -1) -> Tensor:
    """Log-sum-exp over one axis as a tape op, for the composed references."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=axis, keepdims=True)
    soft = e / s
    return Tensor._result(np.squeeze(np.log(s) + m, axis=axis), (a,),
                          lambda g: (np.expand_dims(np.asarray(g), axis) * soft,))


def sigmoid(a: Tensor) -> Tensor:
    """The logistic in tanh form as a tape op of its own, for the composed references."""
    out = 0.5 * (1.0 + np.tanh(0.5 * a.data))
    return Tensor._result(out, (a,), lambda g: (g * out * (1.0 - out),))


def tabs(a: Tensor) -> Tensor:
    """|a| as a tape op of its own, subgradient 0 at the kink, for the composed references."""
    return Tensor._result(np.abs(a.data), (a,), lambda g: (g * np.sign(a.data),))


def reference_cross_entropy_mean(feats, w, b, targets):
    """The linear layer and the mean softmax cross-entropy composed of generic
    tape ops: the oracle for the fused node."""
    logits = add(matmul(feats, w), b)
    n = logits.data.shape[0]
    return tmean(logsumexp(logits, axis=-1) - getitem(logits, (np.arange(n), np.asarray(targets))))


def reference_box_l1_mean(h_frames, scope, frames, gold):
    """The box head's linear layer, sigmoid, row gather and mean absolute error
    composed of generic tape ops: the oracle for the fused node."""
    boxes = sigmoid(add(matmul(h_frames, scope["box.w"]), scope["box.b"]))
    return tmean(tabs(index_rows(boxes, frames) - Tensor(gold)))


def reference_total_loss(losses, alphas):
    """The weighted loss sum as a chain of generic `mul` and `add` nodes."""
    weights = {"ent": alphas.alpha_ent, "cha": alphas.alpha_cha, "rel": alphas.alpha_rel,
               "gro_t": alphas.alpha_gro_t, "gro_b": alphas.alpha_gro_b}
    total = Tensor(0.0)
    for name, value in losses.items():
        if value is not None:
            total = total + value * weights[name]
    return total


def value_and_grad_bytes(make_params, build):
    """The loss `build(p)` on fresh parameters `make_params()`, as bytes, and
    the bytes of each gradient of 0.37 * loss (a non-unit upstream gradient)."""
    p = make_params()
    loss = build(p)
    (loss * 0.37).backward()
    return loss.data.tobytes(), {n: g.tobytes() for n, g in p.grads().items()}


def reference_crf_nll(h_text, gold_ids, scope):
    """The CRF loss as a per-token tape recursion: the oracle for the fused node."""
    gold_ids = np.asarray(gold_ids, dtype=np.intp)
    emis = matmul(h_text, scope["emission"])
    L = emis.data.shape[0]
    trans, start, end = scope["trans"], scope["start"], scope["end"]

    score = (tsum(getitem(emis, (np.arange(L), gold_ids))) + getitem(start, int(gold_ids[0]))
             + getitem(end, int(gold_ids[-1])))
    if L > 1:
        score = score + tsum(getitem(trans, (gold_ids[:-1], gold_ids[1:])))

    alpha = add(getitem(emis, 0), start)
    for t in range(1, L):
        prev = reshape(alpha, (K, 1))
        alpha = add(logsumexp(add(prev, trans), axis=0), getitem(emis, t))
    log_z = logsumexp(add(alpha, end), axis=0)
    return log_z - score


def random_crf(L: int, seed: int, scale: float = 1.0) -> tuple[ParamTree, np.ndarray]:
    """A trainable `h` [L, d_h] and a `crf` scope with random transitions and
    boundary scores, plus a random valid BIO gold sequence."""
    rng = np.random.default_rng(seed)
    p = ParamTree()
    p.add("h", rng.normal(size=(L, CFG.d_h)))
    c = p.scoped("crf")
    c.add("emission", rng.normal(size=(CFG.d_h, K)) * scale / np.sqrt(CFG.d_h))
    c.add("trans", rng.normal(size=(K, K)))
    c.add("start", rng.normal(size=K))
    c.add("end", rng.normal(size=K))
    return p, np.asarray(repair_bio(rng.integers(0, K, size=L)))


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
    """The integer tag set: O = 0, and type k has B at 2k + 1 and I at 2k + 2."""

    def test_layout(self):
        types = ("PER", "LOC")
        doc = make_doc(entities=[Entity(0, 2, "PER"), Entity(3, 5, "LOC")])
        assert gold_tag_ids(doc, types).tolist() == [1, 2, 0, 3, 4, 0]
        p = ParamTree()
        init_heads(p, ModelConfig(entity_types=types, grounding_types=types),
                   np.random.default_rng(0))
        assert p["crf.trans"].shape == (5, 5)

    def test_gold_ids_roundtrip_through_spans(self):
        doc = make_doc()
        ids = gold_tag_ids(doc, CFG.entity_types)
        assert spans_from_tags(ids, CFG.entity_types) == doc.entities

    def test_gold_ids_layout(self):
        doc = make_doc()
        ids = gold_tag_ids(doc, CFG.entity_types).tolist()
        assert ids[:3] == [begin("PER"), inside("PER"), 0]
        assert ids[3] == begin("LOC") and ids[4] == 0

    def test_check_bio_rejects_orphan_inside(self):
        with pytest.raises(ValueError, match="BIO"):
            check_bio([0, inside("PER")])
        with pytest.raises(ValueError, match="BIO"):
            check_bio([begin("LOC"), inside("PER")])
        check_bio([begin("LOC"), inside("LOC"), inside("LOC"), 0])

    def test_repair_bio_promotes_orphans(self):
        fixed = repair_bio([0, inside("PER"), inside("PER"), inside("LOC")])
        assert fixed == [0, begin("PER"), inside("PER"), begin("LOC")]
        check_bio(fixed)

    def test_spans_adjacent_b_tags_split(self):
        b = begin("PER")
        assert spans_from_tags([b, b], CFG.entity_types) == [Entity(0, 1, "PER"),
                                                             Entity(1, 2, "PER")]

    def test_span_ending_at_sequence_end(self):
        assert spans_from_tags([0, begin("ORG"), inside("ORG")], CFG.entity_types) == \
            [Entity(1, 3, "ORG")]

    def test_orphan_and_foreign_inside_tags_open_no_span(self):
        ids = [inside("PER"), begin("LOC"), inside("PER"), inside("LOC")]
        assert spans_from_tags(ids, CFG.entity_types) == [Entity(1, 2, "LOC")]


class TestCrf:
    def test_zero_params_log_z_is_uniform(self):
        # all scores 0: Z = K^L so NLL = L log K exactly
        L = 2
        p = zero_crf(K, CFG.d_h)
        h = Tensor(np.zeros((L, CFG.d_h)))
        nll = crf_nll(h, [0, 0], p.scoped("crf"))
        assert abs(nll.data - L * np.log(K)) < 1e-12

    @pytest.mark.parametrize("trial", range(20))
    def test_log_z_matches_enumeration(self, trial):
        rng = np.random.default_rng(trial)
        L = int(rng.integers(1, 6))
        p = head_params(seed=trial)
        h = Tensor(rng.normal(size=(L, CFG.d_h)))
        crf = p.scoped("heads.crf")
        # valid random BIO sequence via repair
        gold = repair_bio(rng.integers(0, K, size=L))

        emis = h.data @ crf["emission"].data
        trans, start, end = crf["trans"].data, crf["start"].data, crf["end"].data
        log_z = crf_log_z_bruteforce(emis, trans, start, end)
        score = emis[np.arange(L), gold].sum() + start[gold[0]] + end[gold[-1]]
        score += trans[np.asarray(gold)[:-1], np.asarray(gold)[1:]].sum() if L > 1 else 0.0

        nll = crf_nll(h, gold, crf)
        assert abs(nll.data - (log_z - score)) < 1e-8

    @pytest.mark.parametrize("trial", range(20))
    def test_decode_matches_best_enumerated_path(self, trial):
        rng = np.random.default_rng(100 + trial)
        L = int(rng.integers(1, 5))
        p = head_params(seed=trial)
        crf = p.scoped("heads.crf")
        # continuous random scores: ties have probability zero
        crf["trans"].data[:] = rng.normal(size=(K, K))
        crf["start"].data[:] = rng.normal(size=K)
        crf["end"].data[:] = rng.normal(size=K)
        h = rng.normal(size=(L, CFG.d_h))
        emis = h @ crf["emission"].data

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

        assert crf_decode(h, crf) == repair_bio(best)

    def test_all_ties_decode_to_outside(self):
        p = zero_crf(K, CFG.d_h)
        assert crf_decode(np.zeros((4, CFG.d_h)), p.scoped("crf")) == [0, 0, 0, 0]

    def test_nll_rejects_invalid_gold(self):
        p = head_params()
        h = Tensor(np.zeros((2, CFG.d_h)))
        with pytest.raises(ValueError, match="BIO"):
            crf_nll(h, [0, inside("PER")], p.scoped("heads.crf"))

    def test_nll_gradcheck(self):
        p = head_params(seed=5)
        rng = np.random.default_rng(5)
        h = Tensor(rng.normal(size=(4, CFG.d_h)))
        gold = gold_tag_ids(make_doc(tokens=["a", "b", "c", "d"],
                                     entities=[Entity(0, 2, "PER")],
                                     chains=[[0]], relations=[], regions=[]),
                            CFG.entity_types)
        report = gradcheck(lambda: crf_nll(h, gold, p.scoped("heads.crf")),
                           p, samples=40, seed=2)
        assert report.ok(1e-4), report.worst()


class TestFusedCrf:
    """`crf_nll` is one tape node; the per-token tape recursion is its oracle."""

    @staticmethod
    def value_and_grads(fn, p, gold):
        """The loss and the gradients of 0.37 * loss (a non-unit upstream gradient)."""
        p.zero_grad()
        loss = fn(p["h"], gold, p.scoped("crf"))
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
        made = count_tape_nodes(monkeypatch)
        loss = crf_nll(p["h"], gold, p.scoped("crf"))
        assert made == ["crf_nll"]
        assert loss._parents == tuple(p[n] for n in ("h", "crf.emission", "crf.trans",
                                                     "crf.start", "crf.end"))

    @pytest.mark.parametrize("L", [1, 2, 7, 200])
    def test_equals_composed_ops_bitwise(self, L):
        # the emission matmul as its own node, then the CRF over the emissions:
        # crf_nll with an identity emission matrix, whose products are exact
        # (the recursion itself is checked against the tape recursion above)
        def over_emissions(h, gold, scope):
            eye = {name: scope[name] for name in ("trans", "start", "end")}
            eye["emission"] = Tensor(np.eye(K))
            return crf_nll(matmul(h, scope["emission"]), gold, eye)

        gold = random_crf(L, seed=L)[1]
        fused, composed = (value_and_grad_bytes(lambda: random_crf(L, seed=L)[0],
                                                lambda p: fn(p["h"], gold, p.scoped("crf")))
                           for fn in (crf_nll, over_emissions))
        assert fused == composed

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
        report = gradcheck(lambda: crf_nll(p["h"], gold, p.scoped("crf")),
                           p, samples=40, seed=0)
        assert {e.name for e in report.entries} >= {"h", "crf.emission", "crf.start",
                                                     "crf.end"}
        assert report.ok(1e-4), report.worst()

    @pytest.mark.parametrize("index", [None, 0, 1, 2, 3, 4],
                             ids=["clean", "dh", "demission", "dtrans", "dstart", "dend"])
    def test_gradcheck_catches_a_planted_error(self, plant_vjp_error, index):
        # every parent is a leaf of its own, so each name is a group
        p, gold = random_crf(7, seed=6)
        if index is not None:
            plant_vjp_error("crf_nll", index)
        report = gradcheck(lambda: crf_nll(p["h"], gold, p.scoped("crf")),
                           p, samples=40, seed=1)
        assert {e.name for e in report.entries} == set(p.names())
        assert report.ok(1e-4) is (index is None), report.worst()


def ce_case(name: str) -> tuple[ParamTree, np.ndarray]:
    """Features `f` [n, d], a head `w` [d, C] and `b` [C], and targets for one
    byte-equality case."""
    rng = np.random.default_rng(len(name))
    n, C = {"one_row": (1, 4), "tied_rows": (5, 3), "wide_range": (6, 5),
            "repeated_targets": (8, 4)}.get(name, (7, 5))
    f, w, b = rng.normal(size=(n, 3)), rng.normal(size=(3, C)), rng.normal(size=C)
    targets = rng.integers(0, C, size=n)
    if name == "one_row":
        targets = np.array([2])
    if name == "tied_rows":   # two equal rows, and rows whose logits all tie
        f[1] = f[0]
        f[3:] = 0.0
        b[:] = 1.5
        targets = np.array([0, 0, 2, 1, 1])
    if name == "wide_range":  # logits of several tens
        w *= 20.0
    if name == "repeated_targets":
        f *= 3.0
        targets = np.full(8, 3)
    p = ParamTree()
    for key, value in (("f", f), ("w", w), ("b", b)):
        p.add(key, value)
    return p, targets


class TestFusedCrossEntropy:
    """`cross_entropy_mean` is one tape node over the features and the head's
    linear layer; the composed ops are its oracle."""

    @pytest.mark.parametrize("case", ["random", "one_row", "tied_rows", "wide_range",
                                      "repeated_targets"])
    def test_equals_composed_ops_bitwise(self, case):
        targets = ce_case(case)[1]
        fused, composed = (value_and_grad_bytes(lambda: ce_case(case)[0],
                                                lambda p: fn(p["f"], p["w"], p["b"], targets))
                           for fn in (cross_entropy_mean, reference_cross_entropy_mean))
        assert sorted(fused[1]) == ["b", "f", "w"]
        assert fused == composed

    def test_one_node_over_features_and_head_weights(self, monkeypatch):
        rng = np.random.default_rng(2)
        feats = matmul(Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                       Tensor(rng.normal(size=(3, 3))))
        w, b = Tensor(rng.normal(size=(3, 5))), Tensor(rng.normal(size=5))
        made = count_tape_nodes(monkeypatch)
        loss = cross_entropy_mean(feats, w, b, [0, 4, 4, 1])
        assert made == ["cross_entropy_mean"]
        assert loss._parents == (feats, w, b)

    @pytest.mark.parametrize("index", [None, 0, 1, 2], ids=["clean", "dfeats", "dw", "db"])
    def test_gradcheck_catches_a_planted_error(self, plant_vjp_error, index):
        p, targets = ce_case("random")
        if index is not None:
            plant_vjp_error("cross_entropy_mean", index)
        report = gradcheck(lambda: cross_entropy_mean(p["f"], p["w"], p["b"], targets),
                           p, samples=24, seed=3)
        assert {e.name for e in report.entries} == {"f", "w", "b"}
        assert report.ok(1e-4) is (index is None), report.worst()


def box_case(name: str) -> tuple[ParamTree, np.ndarray, np.ndarray]:
    """Frame features `h` [4, d_h] and a `gro` box head, the annotated frames
    and their gold boxes, for one case."""
    rng = np.random.default_rng(len(name) + 40)
    p = ParamTree()
    p.add("h", rng.normal(size=(4, CFG.d_h)))
    p.add("gro.box.w", rng.normal(size=(CFG.d_h, 4)))
    p.add("gro.box.b", rng.normal(size=4) * 0.1)
    frames = {"one_frame": [2], "every_frame": [0, 1, 2, 3]}.get(name, [0, 2, 3])
    gold = rng.uniform(0.05, 0.95, size=(len(frames), 4))
    if name == "saturated":  # boxes at 0 or 1, where the sigmoid's slope vanishes
        p["gro.box.b"].data[:] = [-40.0, 40.0, 0.0, 0.0]
    return p, np.array(frames, dtype=np.intp), gold


class TestFusedBox:
    """`box_l1_mean` is one tape node over the frame features and the box
    head; the composed ops are its oracle."""

    @pytest.mark.parametrize("case", ["random", "one_frame", "every_frame", "saturated"])
    def test_equals_composed_ops_bitwise(self, case):
        _, frames, gold = box_case(case)
        fused, composed = (value_and_grad_bytes(lambda: box_case(case)[0],
                                                lambda p: fn(p["h"], p.scoped("gro"), frames, gold))
                           for fn in (box_l1_mean, reference_box_l1_mean))
        assert sorted(fused[1]) == ["gro.box.b", "gro.box.w", "h"]
        assert fused == composed

    def test_one_node_over_features_and_box_head(self, monkeypatch):
        p, frames, gold = box_case("random")
        made = count_tape_nodes(monkeypatch)
        loss = box_l1_mean(p["h"], p.scoped("gro"), frames, gold)
        assert made == ["box_l1_mean"]
        assert loss._parents == (p["h"], p["gro.box.w"], p["gro.box.b"])

    @pytest.mark.parametrize("index", [None, 0, 1, 2], ids=["clean", "dh", "dw", "db"])
    def test_gradcheck_catches_a_planted_error(self, plant_vjp_error, index):
        p, frames, gold = box_case("random")
        if index is not None:
            plant_vjp_error("box_l1_mean", index)
        report = gradcheck(lambda: box_l1_mean(p["h"], p.scoped("gro"), frames, gold),
                           p, samples=30, seed=2)
        assert {e.name for e in report.entries} == set(p.names())
        assert report.ok(1e-4) is (index is None), report.worst()


def total_case(name: str) -> tuple[ParamTree, LossConfig]:
    """Trainable scalar losses, named as `compute_losses` names them, and the
    weights; a name without a parameter is an absent loss. With all five
    present, 106 of the 120 orders of the terms give a different sum, so the
    bitwise check pins the order."""
    values = dict(zip(LOSS_NAMES, np.random.default_rng(0).uniform(0.1, 3.0, size=5)))
    present = {"all": LOSS_NAMES, "two": ("ent", "gro_t"), "ent_only": ("ent",)}[name]
    p = ParamTree()
    for loss_name in present:
        p.add(loss_name, values[loss_name])
    alphas = LossConfig(alpha_ent=0.7, alpha_cha=1.3, alpha_rel=0.4, alpha_gro_t=2.5,
                        alpha_gro_b=0.1)
    return p, alphas


def present_losses(p: ParamTree) -> dict:
    """What `total_loss` reads: each loss name to its parameter, or None."""
    return {name: p[name] if name in p else None for name in LOSS_NAMES}


class TestFusedTotal:
    """`total_loss` is one tape node over the present losses; a chain of generic
    `mul` and `add` nodes is its oracle."""

    @pytest.mark.parametrize("case", ["all", "two", "ent_only"])
    def test_equals_composed_ops_bitwise(self, case):
        alphas = total_case(case)[1]
        fused, composed = (value_and_grad_bytes(lambda: total_case(case)[0],
                                                lambda p: fn(present_losses(p), alphas))
                           for fn in (total_loss, reference_total_loss))
        assert fused == composed

    def test_one_node_over_the_present_losses(self, monkeypatch):
        p, alphas = total_case("two")
        made = count_tape_nodes(monkeypatch)
        total = total_loss(present_losses(p), alphas)
        assert made == ["total_loss"]
        assert total._parents == (p["ent"], p["gro_t"])

    @pytest.mark.parametrize("index", [None] + list(range(5)),
                             ids=["clean", "dent", "dcha", "drel", "dgro_t", "dgro_b"])
    def test_gradcheck_catches_a_planted_error(self, plant_vjp_error, index):
        p, alphas = total_case("all")
        if index is not None:
            plant_vjp_error("total_loss", index)
        report = gradcheck(lambda: total_loss(present_losses(p), alphas), p)
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
        w, b = p["heads.coref.w"], p["heads.coref.b"]
        ab = affine(pair_features(er, [(0, 1)]).data, w, b)
        ba = affine(pair_features(er, [(1, 0)]).data, w, b)
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
        assert grounding_predict(h, g, CFG.grounding_types) == []

    def test_none_frames_dropped_and_frame_indices_kept(self):
        p = ParamTree()
        g = p.scoped("gro")
        w = np.zeros((CFG.d_h, len(CFG.grounding_types) + 1))
        w[0, 1] = 5.0
        g.add("type.w", w)
        g.add("type.b", np.zeros(len(CFG.grounding_types) + 1))
        g.add("box.w", np.zeros((CFG.d_h, 4)))
        g.add("box.b", np.zeros(4))
        h = np.zeros((3, CFG.d_h))
        h[1, 0] = 1.0  # frames 0 and 2 tie every type at 0: NONE
        out = grounding_predict(Tensor(h), g, CFG.grounding_types)
        assert [(r.frame, r.type) for r in out] == [(1, CFG.grounding_types[0])]

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
        assert [r.frame for r in out] == [0, 1]
        assert out[0].type == CFG.grounding_types[1]
        assert out[1].frame == 1
        assert out[0].box() == (0.5, 0.5, 0.5, 0.5)  # sigmoid(0)


class TestLosses:
    @staticmethod
    def _cross_entropy(logits, targets) -> float:
        """The loss of `logits` themselves: an identity head without bias."""
        n_cls = logits.shape[1]
        return cross_entropy_mean(Tensor(logits), Tensor(np.eye(n_cls)), Tensor(np.zeros(n_cls)),
                                  targets).data

    def test_cross_entropy_hand_value(self):
        assert abs(self._cross_entropy(np.zeros((1, 2)), [0]) - np.log(2)) < 1e-12

    def test_cross_entropy_mean_over_rows(self):
        v = self._cross_entropy(np.array([[0.0, 0.0], [10.0, 0.0]]), [0, 0])
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
        losses = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG)
        assert tuple(losses) == LOSS_NAMES
        for key, value in losses.items():
            assert value is not None and np.isfinite(value.data), key

    def test_pairless_doc_zeroes_cha_and_rel(self):
        doc = make_doc(entities=[Entity(0, 2, "PER")], chains=[[0]],
                       relations=[], regions=[])
        p = head_params()
        h_text, h_frames = self._features(doc)
        losses = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG)
        assert losses["cha"] is None
        assert losses["rel"] is None
        assert losses["gro_t"] is not None   # type CE still trains NONE on the frame
        assert losses["gro_b"] is None

    def test_frameless_doc_zeroes_grounding(self):
        doc = make_doc(frames=[], regions=[])
        p = head_params()
        h_text, _ = self._features(doc)
        losses = compute_losses(doc, h_text, None, p.scoped("heads"), CFG)
        assert losses["gro_t"] is None and losses["gro_b"] is None

    @pytest.mark.parametrize("n_entities, with_region", [(0, False), (1, False), (1, True),
                                                          (2, True), (3, False)])
    def test_every_recorded_node_reaches_a_loss(self, monkeypatch, n_entities, with_region):
        # a node that no loss reads costs a forward op and a tape entry for nothing
        entities = [Entity(0, 2, "PER"), Entity(3, 4, "LOC"), Entity(5, 6, "PER")][:n_entities]
        doc = make_doc(entities=entities, chains=[[i] for i in range(n_entities)],
                       relations=[Relation(0, 1, "R1")] if n_entities >= 2 else [],
                       regions=[Region(0, "PER", 0.5, 0.5, 0.25, 0.25)] if with_region else [])
        p = head_params()
        h_text, h_frames = (Tensor(h.data, requires_grad=True) for h in self._features(doc))
        made = []
        make_result = Tensor._result

        def recorded(data, parents, vjp):
            out = make_result(data, parents, vjp)
            if out.requires_grad:
                made.append(out)
            return out

        monkeypatch.setattr(Tensor, "_result", staticmethod(recorded))
        losses = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG)
        monkeypatch.undo()
        reached, stack = set(), [v for v in losses.values() if v is not None]
        while stack:
            node = stack.pop()
            if id(node) not in reached:
                reached.add(id(node))
                stack.extend(node._parents)
        assert made
        assert [n.data.shape for n in made if id(n) not in reached] == []

    def test_multi_label_pair_adds_terms(self):
        doc = make_doc(relations=[Relation(0, 1, "R1"), Relation(0, 1, "R2")])
        p = head_params()
        h_text, h_frames = self._features(doc)
        losses = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG)
        # (0,1) once per label, then (1,0) as NULL: a mean over three rows
        r1, r2 = (CFG.relation_types.index(t) + 1 for t in ("R1", "R2"))
        ch = chain_reprs(entity_reprs(h_text, doc.entities), doc.chains)
        feats = pair_features(ch, [(0, 1), (0, 1), (1, 0)])
        expect = cross_entropy_mean(feats, p["heads.rel.w"], p["heads.rel.b"], [r1, r2, 0])
        assert losses["rel"].data.tobytes() == expect.data.tobytes()

    def test_total_loss_weights_components(self):
        doc = make_doc()
        p = head_params()
        h_text, h_frames = self._features(doc)
        losses = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG)
        alphas = LossConfig(alpha_ent=2.0, alpha_cha=0.5, alpha_rel=1.0,
                            alpha_gro_t=0.0, alpha_gro_b=3.0)
        total = total_loss(losses, alphas).data
        expect = (2.0 * losses["ent"].data + 0.5 * losses["cha"].data
                  + losses["rel"].data + 3.0 * losses["gro_b"].data)
        assert abs(total - expect) < 1e-12

    def test_total_loss_empty_parts_is_zero(self):
        losses = dict.fromkeys(LOSS_NAMES)
        assert total_loss(losses, LossConfig()).data == 0.0

    def test_loss_gradcheck_through_all_heads(self):
        doc = make_doc()
        p = head_params(seed=9)
        rng = np.random.default_rng(9)
        h_text = Tensor(rng.normal(size=(doc.n_tokens, CFG.d_h)))
        h_frames = Tensor(rng.normal(size=(doc.n_frames, CFG.d_h)))

        def loss():
            losses = compute_losses(doc, h_text, h_frames, p.scoped("heads"), CFG)
            return total_loss(losses, LossConfig())

        report = gradcheck(loss, p, samples=60, seed=4)
        assert report.ok(1e-4), report.worst()
