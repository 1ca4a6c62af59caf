"""Full-model assembly: routing per modality regime, gradient isolation,
prediction structure, and loss finiteness."""
import dataclasses
import warnings

import numpy as np
import pytest

from himie.autodiff import ConfigError, NumericError, ParamTree, Tensor, gradcheck
from himie.config import GenConfig, LossConfig, ModelConfig
from himie.data import Document, Entity, Region, Relation, assign_modality_regime
from himie.model import check_params, compute_features, forward, init_params, predict
from himie.synth import generate
from conftest import count_tape_nodes

CFG = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, prompt_len=3,
                  max_frames=8, vocab=64, max_len=64)
GEN = GenConfig(docs=4, tokens_per_doc=(8, 14), frames_per_doc=(1, 2), seed=0)


def small_doc(mask="full", n_frames=1) -> Document:
    rng = np.random.default_rng(3)
    return Document(
        id="m0", tokens=["aa", "bb", "cc", "dd", "ee"],
        frames=[rng.normal(size=(CFG.n_p, CFG.d_in)) for _ in range(n_frames)],
        entities=[Entity(0, 2, "PER"), Entity(3, 4, "LOC")],
        chains=[[0], [1]], relations=[Relation(0, 1, "R1")],
        regions=[Region(0, "PER", 0.5, 0.5, 0.25, 0.25)] if n_frames else [],
        modality_mask=mask)


def grad_norm(params, prefix):
    total = 0.0
    for name in params.names():
        if name.startswith(prefix) and params[name].grad is not None:
            total += float(np.abs(params[name].grad).sum())
    return total


class TestInit:
    def test_same_seed_identical(self):
        a = init_params(CFG, seed=1)
        b = init_params(CFG, seed=1)
        assert a.names() == b.names()
        for n in a.names():
            assert np.array_equal(a[n].data, b[n].data), n

    def test_different_seed_differs(self):
        a = init_params(CFG, seed=1)
        b = init_params(CFG, seed=2)
        assert any(not np.array_equal(a[n].data, b[n].data) for n in a.names())

    def test_covers_all_modules(self):
        names = init_params(CFG, seed=0).names()
        for prefix in ("encoder.text.", "encoder.frames.", "dffm.", "mmcm.", "heads."):
            assert any(n.startswith(prefix) for n in names), prefix


def damaged(edit: str) -> ParamTree:
    """init_params(CFG) with one parameter removed, added or reshaped."""
    ref = init_params(CFG, 0)
    out = ParamTree()
    for name, t in ref.items():
        if edit == "missing" and name == "heads.crf.trans":
            continue
        value = t.data[:-1] if edit == "shape" and name == "heads.crf.trans" else t.data
        out.add(name, value)
    if edit == "extra":
        out.add("heads.crf.extra", np.zeros(2))
    return out


class TestCheckParams:
    def test_init_params_pass(self):
        check_params(init_params(CFG, 5), CFG)

    @pytest.mark.parametrize("edit,message", [
        ("missing", "parameter heads.crf.trans is missing"),
        ("extra", "parameter heads.crf.extra is not part of the model config"),
        ("shape", r"parameter heads.crf.trans has shape \(\d+, \d+\), the model config"),
    ])
    def test_first_difference_named(self, edit, message):
        with pytest.raises(ConfigError, match=message):
            check_params(damaged(edit), CFG)

    def test_other_config_rejected(self):
        with pytest.raises(ConfigError, match="has shape"):
            check_params(init_params(dataclasses.replace(CFG, d_h=12), 0), CFG)


class TestRouting:
    def test_full_doc_shapes(self):
        p = init_params(CFG, 0)
        h_text, h_frames = compute_features(small_doc(), p, CFG)
        assert h_text.data.shape == (5, CFG.d_h)
        assert h_frames.data.shape == (1, CFG.d_h)

    def test_zero_frame_doc_has_no_frame_features(self):
        p = init_params(CFG, 0)
        h_text, h_frames = compute_features(small_doc(n_frames=0), p, CFG)
        assert h_frames is None
        assert h_text.data.shape == (5, CFG.d_h)

    def test_dffm_disabled_uses_base_features(self):
        p = init_params(CFG, 0)
        cfg = dataclasses.replace(CFG, dffm_enabled=False)
        doc = small_doc()
        h_text, h_frames = compute_features(doc, p, cfg)
        from himie.encoders import bucket_levels, encode_frames, encode_text
        base = bucket_levels(encode_text(doc.tokens, p.scoped("encoder.text"), cfg)).base
        assert np.array_equal(h_text.data, base.data)
        # frames: the patch mean of the frame encoder's base feature
        frames = encode_frames(doc.frames, p.scoped("encoder.frames"), cfg)[-1]
        assert np.array_equal(h_frames.data, frames.data.mean(axis=1))

    def test_blank_fill_gives_constant_text_features(self):
        # mmcm off: every no_text doc sees identical zero text input, so
        # h_text depends only on the mixing path, not on the document
        p = init_params(CFG, 0)
        cfg = dataclasses.replace(CFG, mmcm_enabled=False, dffm_enabled=False)
        a = compute_features(small_doc("no_text"), p, cfg)[0]
        assert not np.any(a.data)

    def test_mmcm_constructs_document_specific_features(self):
        p = init_params(CFG, 0)
        doc_a = small_doc("no_text")
        doc_b = small_doc("no_text")
        doc_b.frames = [f + 1.0 for f in doc_b.frames]
        a = compute_features(doc_a, p, CFG)[0]
        b = compute_features(doc_b, p, CFG)[0]
        assert not np.allclose(a.data, b.data)


class TestGradientIsolation:
    def _backward(self, doc, cfg=CFG, seed=0):
        p = init_params(cfg, seed)
        res = forward(doc, p, cfg)
        p.zero_grad()
        res.loss.backward()
        return p

    def test_full_doc_mmcm_gets_zero_gradient(self):
        p = self._backward(small_doc())
        assert grad_norm(p, "mmcm.") == 0.0
        assert grad_norm(p, "encoder.text.") > 0.0
        assert grad_norm(p, "encoder.frames.") > 0.0
        assert grad_norm(p, "dffm.") > 0.0

    def test_no_text_doc_text_encoder_gets_zero_gradient(self):
        p = self._backward(small_doc("no_text"))
        assert grad_norm(p, "encoder.text.") == 0.0
        assert grad_norm(p, "mmcm.g2t.") > 0.0
        assert grad_norm(p, "mmcm.t2g.") == 0.0
        assert grad_norm(p, "encoder.frames.") > 0.0

    def test_no_video_doc_frame_encoder_gets_zero_gradient(self):
        p = self._backward(small_doc("no_video"))
        assert grad_norm(p, "encoder.frames.") == 0.0
        assert grad_norm(p, "mmcm.t2g.") > 0.0
        assert grad_norm(p, "mmcm.g2t.") == 0.0
        assert grad_norm(p, "encoder.text.") > 0.0

    def test_dffm_disabled_gets_zero_gradient(self):
        cfg = dataclasses.replace(CFG, dffm_enabled=False)
        p = self._backward(small_doc(), cfg)
        assert grad_norm(p, "dffm.") == 0.0
        assert grad_norm(p, "heads.") > 0.0

    def test_blank_fill_keeps_mmcm_out_of_support(self):
        cfg = dataclasses.replace(CFG, mmcm_enabled=False)
        p = self._backward(small_doc("no_text"), cfg)
        assert grad_norm(p, "mmcm.") == 0.0


class TestForward:
    @pytest.mark.parametrize("seed", range(10))
    def test_loss_finite_on_generated_docs(self, seed):
        cfg = dataclasses.replace(GEN, seed=seed)
        corpus = generate(cfg, CFG)
        p = init_params(CFG, seed)
        for doc in corpus.documents:
            for mask in ("full", "no_text", "no_video"):
                d = dataclasses.replace(doc, modality_mask=mask)
                res = forward(d, p, CFG)
                assert np.isfinite(res.loss.data), (seed, doc.id, mask)

    def test_kl_weight_adds_nonnegative_penalty(self):
        p = init_params(CFG, 0)
        doc = small_doc()
        base = forward(doc, p, CFG).loss.data
        kl_cfg = dataclasses.replace(CFG, kl_weight=0.5)
        with_kl = forward(doc, p, kl_cfg).loss.data
        assert with_kl >= base - 1e-12

    def test_sample_mode_uses_rng(self):
        cfg = dataclasses.replace(CFG, vae_mode="sample")
        p = init_params(cfg, 0)
        doc = small_doc()
        a = forward(doc, p, cfg, rng=np.random.default_rng(1)).loss.data
        b = forward(doc, p, cfg, rng=np.random.default_rng(1)).loss.data
        c = forward(doc, p, cfg, rng=np.random.default_rng(2)).loss.data
        assert a == b
        assert a != c

    def test_full_model_gradcheck_small(self):
        p = init_params(CFG, 4)
        doc = small_doc()

        def loss():
            return forward(doc, p, CFG, LossConfig()).loss

        report = gradcheck(loss, p, samples=60, seed=6)
        assert report.ok(1e-4), report.worst()

    @pytest.mark.parametrize("mask", ["no_text", "no_video"])
    def test_full_model_gradcheck_constructed_levels(self, mask):
        # the MMCM's levels flow into the DFFM: sample both modules' weights.
        # The level mixes start at 1e-3, which leaves the level path's
        # gradients near the finite-difference noise floor; unit-scale mixes
        # give it full weight in the loss.
        p = init_params(CFG, 4)
        rng = np.random.default_rng(5)
        for direction in ("g2x", "x2g"):
            mix = p[f"dffm.mix.{direction}.levels"].data
            mix[:] = rng.normal(size=mix.shape) / np.sqrt(CFG.d_h)
        doc = small_doc(mask, n_frames=2)

        def loss():
            return forward(doc, p, CFG, LossConfig()).loss

        report = gradcheck(loss, p, samples=60, seed=7, prefixes=("mmcm", "dffm"))
        assert report.ok(1e-4), report.worst()


def unreachable_nodes(docs, cfg, monkeypatch) -> int:
    """Tape nodes that `forward` records over `docs` and that no path of
    `_parents` from the document's `loss` reaches."""
    p = init_params(cfg, 0)
    make_result = Tensor._result
    recorded: list[Tensor] = []

    def recording(data, parents, vjp):
        out = make_result(data, parents, vjp)
        if out.requires_grad:
            recorded.append(out)
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(recording))
    rng = np.random.default_rng(0)
    dead = 0
    for doc in docs:
        recorded.clear()
        seen, stack = set(), [forward(doc, p, cfg, rng=rng).loss]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._parents)
        dead += sum(id(t) not in seen for t in recorded)
    return dead


class TestTape:
    DOCS = assign_modality_regime(generate(dataclasses.replace(GEN, docs=24), CFG),
                                  (1 / 3, 1 / 3, 1 / 3), seed=0).documents

    @pytest.mark.parametrize("over", [
        {}, {"dffm_enabled": False}, {"mmcm_enabled": False},
        {"vae_mode": "sample", "kl_weight": 0.05}],
        ids=["default", "dffm_off", "mmcm_off", "sample_kl"])
    def test_every_recorded_node_reaches_the_loss(self, monkeypatch, over):
        assert {d.modality_mask for d in self.DOCS} == {"full", "no_text", "no_video"}
        assert unreachable_nodes(self.DOCS, dataclasses.replace(CFG, **over), monkeypatch) == 0

    def test_every_recorded_node_reaches_the_loss_without_frames(self, monkeypatch):
        docs = [dataclasses.replace(d, frames=[], regions=[]) for d in self.DOCS[:12]]
        assert unreachable_nodes(docs, CFG, monkeypatch) == 0

    def node_kinds(self, monkeypatch):
        """(document, the op kinds of the nodes its `forward` records, its
        `ForwardResult`) per document."""
        p = init_params(CFG, 0)
        made = count_tape_nodes(monkeypatch)
        rng = np.random.default_rng(0)
        for doc in self.DOCS:
            made.clear()
            res = forward(doc, p, CFG, rng=rng)
            yield doc, made, res

    def test_one_node_per_feed_forward_and_per_bucketing(self, monkeypatch):
        # per fused document: one FFN node per fusion direction and one
        # bucketing node per encoded side; no generic GELU node anywhere
        for doc, made, _res in self.node_kinds(monkeypatch):
            assert doc.n_frames > 0
            encoded = 1 if doc.modality_mask in ("no_text", "no_video") else 2
            assert made.count("feed_forward") == 2, doc.modality_mask
            assert made.count("bucket_levels") == encoded, doc.modality_mask
            assert "gelu" not in made

    def test_one_node_per_construction(self, monkeypatch):
        # a document missing a modality constructs it in one node
        for doc, made, _res in self.node_kinds(monkeypatch):
            constructed = 0 if doc.modality_mask == "full" else 1
            assert made.count("_construct") == constructed, doc.modality_mask

    def test_one_node_per_present_loss_and_one_for_the_total(self, monkeypatch):
        # the heads record one loss node each, over their features and
        # weights, and the total is one node over the present losses
        loss_kind = {"ent": "crf_nll", "cha": "cross_entropy_mean", "rel": "cross_entropy_mean",
                     "gro_t": "cross_entropy_mean", "gro_b": "box_l1_mean"}
        head_kinds = set(loss_kind.values()) | {"total_loss"}
        absent = set()
        for doc, made, res in self.node_kinds(monkeypatch):
            present = [name for name, value in res.losses.items() if value is not None]
            absent |= set(res.losses) - set(present)
            assert (sorted(k for k in made if k in head_kinds)
                    == sorted([loss_kind[name] for name in present] + ["total_loss"]))
            assert res.loss._vjp.__qualname__.startswith("total_loss.")
            assert res.loss._parents == tuple(res.losses[name] for name in present)
        assert absent  # some document lacks some loss


class TestPredict:
    def test_gold_mode_pair_universe(self):
        p = init_params(CFG, 0)
        doc = small_doc()
        pred = predict(doc, p, CFG, pair_mode="gold-pairs")
        assert pred.pair_entities == doc.entities
        assert pred.rel_chains == doc.chains

    def test_predicted_mode_pair_universe(self):
        p = init_params(CFG, 0)
        doc = small_doc()
        pred = predict(doc, p, CFG, pair_mode="predicted-pairs")
        assert pred.pair_entities == pred.entities
        assert pred.rel_chains == pred.chains

    def test_chains_partition_pair_entities(self):
        p = init_params(CFG, 0)
        pred = predict(small_doc(), p, CFG)
        members = sorted(m for c in pred.chains for m in c)
        assert members == list(range(len(pred.pair_entities)))

    def test_relations_use_known_types_and_chain_indices(self):
        p = init_params(CFG, 0)
        pred = predict(small_doc(), p, CFG)
        for r in pred.relations:
            assert r.type in CFG.relation_types
            assert 0 <= r.sub < len(pred.rel_chains)
            assert 0 <= r.obj < len(pred.rel_chains)
            assert r.sub != r.obj

    def test_regions_carry_frame_indices(self):
        p = init_params(CFG, 0)
        doc = small_doc(n_frames=2)
        pred = predict(doc, p, CFG)
        for r in pred.regions:
            assert 0 <= r.frame < doc.n_frames
            for v in r.box():
                assert 0.0 < v < 1.0  # sigmoid range

    def test_zero_frame_doc_predicts_no_regions(self):
        p = init_params(CFG, 0)
        pred = predict(small_doc(n_frames=0), p, CFG)
        assert pred.regions == []

    def test_unknown_pair_mode_rejected(self):
        p = init_params(CFG, 0)
        for mode in ("oracle", "gold", "predicted"):   # only the eval_mode spellings
            with pytest.raises(ValueError, match="pair_mode"):
                predict(small_doc(), p, CFG, pair_mode=mode)

    def test_records_no_tape(self, monkeypatch):
        from himie.autodiff import Tensor
        p = init_params(CFG, 0)
        made = []
        make_result = Tensor._result

        def counted(data, parents, vjp):
            out = make_result(data, parents, vjp)
            made.append(out.requires_grad)
            return out

        monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
        predict(small_doc(n_frames=2), p, CFG, pair_mode="predicted-pairs")
        assert made and not any(made)
        assert forward(small_doc(), p, CFG).loss.requires_grad

    def test_tied_pair_logits_take_the_lowest_label(self):
        p = init_params(CFG, 0)
        for head in ("coref", "rel"):
            p[f"heads.{head}.w"].data[...] = 0.0
        p["heads.coref.b"].data[...] = 1.0  # link and no-link tie: no link
        p["heads.rel.b"].data[...] = [0.0] + [1.0] * len(CFG.relation_types)
        doc = dataclasses.replace(small_doc(), entities=[Entity(0, 1, "PER"), Entity(2, 3, "PER"),
                                                         Entity(3, 4, "LOC")],
                                  chains=[[0], [1], [2]])
        pred = predict(doc, p, CFG)
        assert pred.chains == [[0], [1], [2]]
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        assert pred.relations == [Relation(i, j, CFG.relation_types[0]) for i, j in pairs]

    @pytest.mark.parametrize("weight,what", [
        ("encoder.text.block5.ffn.w2", "fused text features"),
        ("heads.crf.emission", "entity emission logits"),
        ("heads.coref.w", "coreference logits"),
        ("heads.rel.w", "relation logits"),
        ("heads.gro.type.w", "grounding type logits")])
    def test_non_finite_values_are_a_numeric_error_naming_the_document(self, weight, what):
        p = init_params(CFG, 0)
        p[weight].data.flat[0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would fail the test
            with pytest.raises(NumericError, match=f"^document m0: {what} are not finite$"):
                predict(small_doc(n_frames=2), p, CFG)

    def test_inference_deterministic_even_in_sample_mode(self):
        cfg = dataclasses.replace(CFG, vae_mode="sample")
        p = init_params(cfg, 0)
        a = predict(small_doc(), p, cfg)
        b = predict(small_doc(), p, cfg)
        assert a == b
