"""Latent cross-modal fusion: VAE behavior, mixing algebra, gradients, and the
stacked-level pass against a per-level reference loop."""
import dataclasses

import numpy as np
import pytest

from himie.autodiff import (ConfigError, ParamTree, Tensor, add, gradcheck,
                            matmul, reshape, texp, tmean, tsum)
from himie.config import GenConfig, ModelConfig
from himie.dffm import LEVELS, MIX_LEVEL_INIT, fuse_g_to_x, fuse_x_to_g, init_dffm, vae_encode
from himie.encoders import LevelFeatures
from himie.model import forward, init_params
from himie.synth import generate
from conftest import attention_node, gelu, getitem

CFG = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, max_frames=4,
                  vocab=64, max_len=32)


def make_levels(shape, seed) -> LevelFeatures:
    rng = np.random.default_rng(seed)
    levels = Tensor(rng.normal(size=(len(LEVELS),) + shape))
    return LevelFeatures(levels, Tensor(rng.normal(size=shape)))


@pytest.fixture
def params():
    p = ParamTree()
    init_dffm(p.scoped("dffm"), CFG, np.random.default_rng(7))
    return p


def vae_scope(mean_w, mean_b, logvar_w, logvar_b):
    p = ParamTree()
    v = p.scoped("v")
    for name, value in (("mean.w", mean_w), ("mean.b", mean_b),
                        ("logvar.w", logvar_w), ("logvar.b", logvar_b)):
        v.add(name, value)
    return v


# -- per-level reference: one weight set and one fusion pass per level ----

def reference_init(scope, cfg, rng) -> None:
    """Per-level parameters `dffm.{g2x,x2g}.{low,mid,high}.*` and
    `dffm.mix.{g2x,x2g}.{low,mid,high}`, drawn level by level."""
    d_h, d_v = cfg.d_h, cfg.d_vae
    s, sv = 1.0 / np.sqrt(d_h), 1.0 / np.sqrt(d_v)
    for direction in ("g2x", "x2g"):
        for lvl in LEVELS:
            lv = scope.scoped(f"{direction}.{lvl}")
            lv.add("wk", rng.normal(size=(d_h, d_h)) * s)
            lv.add("wv", rng.normal(size=(d_h, d_h)) * s)
            lv.add("enc.mean.w", rng.normal(size=(d_h, d_v)) * s)
            lv.add("enc.mean.b", np.zeros(d_v))
            lv.add("enc.logvar.w", rng.normal(size=(d_h, d_v)) * (0.01 * s))
            lv.add("enc.logvar.b", np.full(d_v, -4.0))
            lv.add("dec.w", rng.normal(size=(d_v, d_h)) * sv)
            lv.add("dec.b", np.zeros(d_h))
            for nm in ("wq", "wk", "wv", "wo"):
                lv.add(f"attn.{nm}", rng.normal(size=(d_v, d_v)) * sv)
            lv.add("attn.bo", np.zeros(d_v))
            lv.add("ffn.w1", rng.normal(size=(d_v, 4 * d_v)) * sv)
            lv.add("ffn.b1", np.zeros(4 * d_v))
            lv.add("ffn.w2", rng.normal(size=(4 * d_v, d_v)) * (1.0 / np.sqrt(4 * d_v)))
            lv.add("ffn.b2", np.zeros(d_v))
    for direction in ("g2x", "x2g"):
        m = scope.scoped(f"mix.{direction}")
        for lvl in LEVELS:
            m.add(lvl, rng.normal(size=(d_h, d_h)) * (MIX_LEVEL_INIT / np.sqrt(d_h)))
        m.add("base", np.eye(d_h))
    scope.add("pos", rng.normal(size=(cfg.max_frames, d_h)) * 0.02)


def reference_encode(x, scope, eps, kl_acc):
    mean = add(matmul(x, scope["mean.w"]), scope["mean.b"])
    log_var = add(matmul(x, scope["logvar.w"]), scope["logvar.b"])
    if kl_acc is not None:
        kl_acc.append(tmean(-0.5 * (1.0 + log_var - mean * mean - texp(log_var))))
    return mean if eps is None else add(mean, texp(log_var * 0.5) * Tensor(eps))


def reference_level(q_base, kv, scope, cfg, noise, kl_acc):
    """One level's fusion [Nq, d_h] -> [Nq, d_h]; `noise` is (q, k, v) or None."""
    eq, ek, ev = noise or (None, None, None)
    enc = scope.scoped("enc")
    zq = reference_encode(q_base, enc, eq, kl_acc)
    zk = reference_encode(matmul(kv, scope["wk"]), enc, ek, kl_acc)
    zv = reference_encode(matmul(kv, scope["wv"]), enc, ev, kl_acc)
    h = add(zq, attention_node(zq, zk, zv, cfg.heads, scope.scoped("attn")))
    ffn = scope.scoped("ffn")
    f = add(h, add(matmul(gelu(add(matmul(h, ffn["w1"]), ffn["b1"])), ffn["w2"]), ffn["b2"]))
    return add(matmul(f, scope["dec.w"]), scope["dec.b"])


def reference_direction(direction, q_base, kv_levels, scope, cfg, noise, kl_acc):
    """Base mix plus one `reference_level` per level; `noise` holds the
    stacked (q, k, v) blocks, sliced per level."""
    mix = scope.scoped(f"mix.{direction}")
    out = matmul(q_base, mix["base"])
    for k, (lvl, kv) in enumerate(zip(LEVELS, kv_levels)):
        level_noise = None if noise is None else tuple(n[k] for n in noise)
        fused = reference_level(q_base, kv, scope.scoped(f"{direction}.{lvl}"), cfg,
                                level_noise, kl_acc)
        out = add(out, matmul(fused, mix[lvl]))
    return out


def reference_g_to_x(text, image, scope, cfg, noise=None, kl_acc=None):
    n_g, n_p = image.base.data.shape[:2]
    kv = [reshape(getitem(image.levels, k), (n_g * n_p, cfg.d_h)) for k in range(len(LEVELS))]
    return reference_direction("g2x", text.base, kv, scope, cfg, noise, kl_acc)


def reference_x_to_g(image, text, scope, cfg, noise=None, kl_acc=None):
    n_g, n_p = image.base.data.shape[:2]
    q = reshape(image.base, (n_g * n_p, cfg.d_h))
    kv = [getitem(text.levels, k) for k in range(len(LEVELS))]
    out = reference_direction("x2g", q, kv, scope, cfg, noise, kl_acc)
    return add(tmean(reshape(out, (n_g, n_p, cfg.d_h)), axis=1), getitem(scope["pos"], slice(n_g)))


def reference_name(name: str, level: int) -> str:
    """Per-level name of level `level` of a stacked parameter."""
    parts = name.split(".")
    if parts[1] == "mix":
        return f"dffm.mix.{parts[2]}.{LEVELS[level]}"
    return ".".join(parts[:2] + [LEVELS[level]] + parts[2:])


class RecordingRng:
    """A seeded normal stream that keeps every block it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def standard_normal(self, shape):
        self.draws.append(self._rng.standard_normal(shape))
        return self.draws[-1]


def tape_ops(out: Tensor, kind: str) -> int:
    """Number of distinct tape nodes of op `kind` that `out` depends on."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._vjp is not None and node._vjp.__qualname__.split(".", 1)[0] == kind:
            count += 1
        stack.extend(node._parents)
    return count


class TestAgainstPerLevelReference:
    def _trees(self, seed=7):
        stacked, ref = ParamTree(), ParamTree()
        init_dffm(stacked.scoped("dffm"), CFG, np.random.default_rng(seed))
        reference_init(ref.scoped("dffm"), CFG, np.random.default_rng(seed))
        return stacked, ref

    def test_stacked_init_equals_per_level_draws(self):
        stacked, ref = self._trees()
        covered = set()
        for name, t in stacked.items():
            if name == "dffm.pos" or name.endswith(".base"):
                assert np.array_equal(t.data, ref[name].data), name
                covered.add(name)
                continue
            assert t.data.shape[0] == len(LEVELS), name
            for k in range(len(LEVELS)):
                rname = reference_name(name, k)
                assert np.array_equal(t.data[k].reshape(ref[rname].shape), ref[rname].data), rname
                covered.add(rname)
        assert covered == set(ref.names())
        assert sum(t.data.size for _, t in stacked.items()) == \
            sum(t.data.size for _, t in ref.items())
        assert (len(stacked.names()), len(ref.names())) == (39, 111)

    @pytest.mark.parametrize("mode", ["mean", "sample"])
    @pytest.mark.parametrize("with_kl", [False, True])
    def test_both_directions_match_per_level_loop(self, mode, with_kl):
        stacked, ref = self._trees()
        text = make_levels((5, CFG.d_h), 30)
        img = make_levels((3, CFG.n_p, CFG.d_h), 31)
        rng = RecordingRng(8) if mode == "sample" else None
        acc = [] if with_kl else None
        s = stacked.scoped("dffm")
        a = fuse_g_to_x(text, img, s, CFG, rng, acc)
        b = fuse_x_to_g(img, text, s, CFG, rng, acc)
        ref_acc = [] if with_kl else None
        g_noise = x_noise = None
        if rng is not None:  # one block per q/k/v per direction, each [3, N, d_vae]
            assert [n.shape[0] for n in rng.draws] == [len(LEVELS)] * 6
            g_noise, x_noise = rng.draws[:3], rng.draws[3:]
        r = ref.scoped("dffm")
        ra = reference_g_to_x(text, img, r, CFG, g_noise, ref_acc)
        rb = reference_x_to_g(img, text, r, CFG, x_noise, ref_acc)
        assert np.allclose(a.data, ra.data, rtol=0, atol=1e-12)
        assert np.allclose(b.data, rb.data, rtol=0, atol=1e-12)
        if with_kl:
            # 6 stacked terms of equal element counts stand for 18 per-level ones
            assert len(acc) == 6 and len(ref_acc) == 18
            kl = sum(float(t.data) for t in acc) / len(acc)
            ref_kl = sum(float(t.data) for t in ref_acc) / len(ref_acc)
            assert abs(kl - ref_kl) < 1e-12


class TestVae:
    def _scope(self):
        rng = np.random.default_rng(0)
        return vae_scope(rng.normal(size=(8, 4)) / np.sqrt(8), np.zeros(4),
                         rng.normal(size=(8, 4)) * (0.01 / np.sqrt(8)), np.full(4, -4.0))

    def test_mean_mode_is_deterministic_and_equals_mean(self):
        s = self._scope()
        x = Tensor(np.random.default_rng(1).normal(size=(5, 8)))
        z = vae_encode(x, s)
        assert np.array_equal(z.data, x.data @ s["mean.w"].data + s["mean.b"].data)
        assert np.array_equal(vae_encode(x, s).data, z.data)
        assert z.data.shape == (5, 4)
        # with no sample and no KL to feed, the log-variance head is never read
        p = ParamTree()
        mean_only = p.scoped("v")
        mean_only.add("mean.w", s["mean.w"].data)
        mean_only.add("mean.b", s["mean.b"].data)
        assert np.array_equal(vae_encode(x, mean_only).data, z.data)

    def test_sample_mode_reproducible_given_seeded_rng(self):
        s = self._scope()
        x = Tensor(np.random.default_rng(2).normal(size=(3, 8)))
        a = vae_encode(x, s, np.random.default_rng(5)).data
        b = vae_encode(x, s, np.random.default_rng(5)).data
        assert np.array_equal(a, b)
        c = vae_encode(x, s, np.random.default_rng(6)).data
        assert not np.array_equal(a, c)

    @staticmethod
    def _kl(x, scope):
        acc = []
        vae_encode(x, scope, kl_acc=acc)
        assert len(acc) == 1
        return float(acc[0].data)

    def test_kl_zero_at_standard_normal(self):
        z = np.zeros((8, 4))
        assert abs(self._kl(Tensor(np.zeros((4, 8))),
                            vae_scope(z, np.zeros(4), z, np.zeros(4)))) < 1e-12

    def test_kl_positive_away_from_prior(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 8)) * 3)
        assert self._kl(x, self._scope()) > 0

    def test_kl_hand_value(self):
        # mean=1, logvar=0 everywhere: KL = -0.5*(1 + 0 - 1 - 1) = 0.5
        z = np.zeros((8, 4))
        assert abs(self._kl(Tensor(np.ones((2, 8))),
                            vae_scope(z, np.ones(4), z, np.zeros(4))) - 0.5) < 1e-12


class TestFusion:
    def test_g2x_shape(self, params):
        text = make_levels((5, CFG.d_h), 0)
        img = make_levels((2, CFG.n_p, CFG.d_h), 1)
        out = fuse_g_to_x(text, img, params.scoped("dffm"), CFG)
        assert out.data.shape == (5, CFG.d_h)

    def test_x2g_shape_pools_patches(self, params):
        text = make_levels((5, CFG.d_h), 0)
        img = make_levels((3, CFG.n_p, CFG.d_h), 1)
        out = fuse_x_to_g(img, text, params.scoped("dffm"), CFG)
        assert out.data.shape == (3, CFG.d_h)

    def test_identity_mixing_passthrough(self):
        # with zero level mixes the fused text equals base @ mix.base exactly
        p = ParamTree()
        init_dffm(p.scoped("dffm"), CFG, np.random.default_rng(3))
        p["dffm.mix.g2x.levels"].data[:] = 0.0
        text = make_levels((4, CFG.d_h), 5)
        img = make_levels((2, CFG.n_p, CFG.d_h), 6)
        out = fuse_g_to_x(text, img, p.scoped("dffm"), CFG)
        expect = text.base.data @ p["dffm.mix.g2x.base"].data
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_x2g_adds_frame_positions(self, params):
        # two identical frames must still differ through the position row
        rng = np.random.default_rng(9)
        one = rng.normal(size=(1, CFG.n_p, CFG.d_h))
        both = np.concatenate([one, one])
        img = LevelFeatures(Tensor(np.stack([both] * len(LEVELS))), Tensor(both))
        text = make_levels((4, CFG.d_h), 10)
        out = fuse_x_to_g(img, text, params.scoped("dffm"), CFG).data
        pos = params["dffm.pos"].data
        assert np.allclose(out[0] - pos[0], out[1] - pos[1], atol=1e-10)
        assert not np.allclose(out[0], out[1])

    def test_sample_mode_changes_output_but_stays_seeded(self, params):
        text = make_levels((4, CFG.d_h), 12)
        img = make_levels((2, CFG.n_p, CFG.d_h), 13)
        s = params.scoped("dffm")
        mean_out = fuse_g_to_x(text, img, s, CFG).data
        a = fuse_g_to_x(text, img, s, CFG, np.random.default_rng(1)).data
        b = fuse_g_to_x(text, img, s, CFG, np.random.default_rng(1)).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, mean_out)

    def test_kl_accumulator_collects_three_terms_per_direction(self, params):
        text = make_levels((4, CFG.d_h), 14)
        img = make_levels((2, CFG.n_p, CFG.d_h), 15)
        acc = []
        fuse_g_to_x(text, img, params.scoped("dffm"), CFG, kl_acc=acc)
        assert len(acc) == 3
        assert all(np.isfinite(t.data) for t in acc)

    def test_one_attention_node_per_direction(self, params):
        text = make_levels((4, CFG.d_h), 16)
        img = make_levels((2, CFG.n_p, CFG.d_h), 17)
        s = params.scoped("dffm")
        assert tape_ops(fuse_g_to_x(text, img, s, CFG), "multi_head_attention") == 1
        assert tape_ops(fuse_x_to_g(img, text, s, CFG), "multi_head_attention") == 1

    def test_one_feed_forward_node_per_direction(self, params):
        text = make_levels((4, CFG.d_h), 18)
        img = make_levels((2, CFG.n_p, CFG.d_h), 19)
        s = params.scoped("dffm")
        for out in (fuse_g_to_x(text, img, s, CFG), fuse_x_to_g(img, text, s, CFG)):
            assert tape_ops(out, "feed_forward") == 1
            assert tape_ops(out, "gelu") == 0


class TestGradients:
    def _loss_fn(self, params, mode="mean", seed=0):
        text = make_levels((3, CFG.d_h), 20)
        img = make_levels((2, CFG.n_p, CFG.d_h), 21)
        def f():
            rng = np.random.default_rng(seed) if mode == "sample" else None
            a = fuse_g_to_x(text, img, params.scoped("dffm"), CFG, rng)
            b = fuse_x_to_g(img, text, params.scoped("dffm"), CFG, rng)
            return tsum(a * a) + tsum(b * b)
        return f

    def test_gradcheck_mean_mode(self, params):
        report = gradcheck(self._loss_fn(params), params, samples=60, seed=0)
        assert report.ok(1e-4), report.worst()

    def test_gradcheck_sample_mode(self, params):
        # fixed rng seed inside the loss makes sampling differentiable noise
        report = gradcheck(self._loss_fn(params, "sample", seed=4), params,
                           samples=60, seed=1)
        assert report.ok(1e-4), report.worst()

    def test_gradient_reaches_vae_and_mixes(self, params):
        loss = self._loss_fn(params)()
        params.zero_grad()
        loss.backward()
        for name in ("dffm.mix.g2x.base", "dffm.pos"):
            assert np.any(params[name].grad != 0), name
        # every level's slice of a stacked weight gets its own gradient
        for name in ("dffm.g2x.enc.mean.w", "dffm.g2x.dec.w", "dffm.x2g.attn.wq",
                     "dffm.x2g.attn.bo", "dffm.mix.x2g.levels"):
            for k in range(len(LEVELS)):
                assert np.any(params[name].grad[k] != 0), (name, k)

    def test_kl_gradient_flows(self, params):
        text = make_levels((3, CFG.d_h), 22)
        img = make_levels((2, CFG.n_p, CFG.d_h), 23)
        acc = []
        out = fuse_g_to_x(text, img, params.scoped("dffm"), CFG, kl_acc=acc)
        total = tsum(out)
        for t in acc:
            total = total + t
        params.zero_grad()
        total.backward()
        for k in range(len(LEVELS)):
            assert np.any(params["dffm.g2x.enc.logvar.w"].grad[k] != 0), k


class TestStreamRule:
    """`forward` hands the VAE the run's stream only in vae_mode "sample"."""

    def _doc_params(self, cfg):
        gen = GenConfig(docs=1, tokens_per_doc=(6, 8), frames_per_doc=(2, 2), seed=0)
        return generate(gen, cfg).documents[0], init_params(cfg, 0)

    @pytest.mark.parametrize("kl_weight", [0.0, 0.05])
    def test_mean_mode_draws_nothing(self, kl_weight):
        cfg = dataclasses.replace(CFG, kl_weight=kl_weight)
        doc, p = self._doc_params(cfg)
        rng = RecordingRng(0)
        forward(doc, p, cfg, rng=rng)
        assert rng.draws == []

    def test_sample_mode_draws_q_k_v_per_direction(self):
        cfg = dataclasses.replace(CFG, vae_mode="sample")
        doc, p = self._doc_params(cfg)
        rng = RecordingRng(0)
        forward(doc, p, cfg, rng=rng)
        assert [n.shape[0] for n in rng.draws] == [len(LEVELS)] * 6

    def test_sample_mode_without_stream_raises(self):
        cfg = dataclasses.replace(CFG, vae_mode="sample")
        doc, p = self._doc_params(cfg)
        with pytest.raises(ConfigError, match="rng"):
            forward(doc, p, cfg)
