"""Hierarchical text/frame encoders and the level bucketing rule."""
import tracemalloc

import numpy as np
import pytest

from himie.autodiff import (ParamTree, Tensor, add, feed_forward, gradcheck, matmul,
                            multi_head_attention, reshape, tmean, tsum)
from himie.config import ModelConfig
from himie.encoders import (
    BLOCK_PARAMS,
    bucket_levels,
    encode_frames,
    encode_text,
    hash_bucket,
    init_block,
    init_frame_encoder,
    init_text_encoder,
    run_block,
    token_ids,
)
from conftest import attention_node, gelu

CFG = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, vocab=64, max_len=32)


@pytest.fixture
def text_params():
    p = ParamTree()
    init_text_encoder(p.scoped("encoder.text"), CFG, np.random.default_rng(0))
    return p


@pytest.fixture
def frame_params():
    p = ParamTree()
    init_frame_encoder(p.scoped("encoder.frames"), CFG, np.random.default_rng(1))
    return p


class TestHashing:
    def test_deterministic_and_in_range(self):
        for tok in ("alpha", "beta", "", "日本語", "x" * 100):
            b = hash_bucket(tok, 64)
            assert b == hash_bucket(tok, 64)
            assert 0 <= b < 64

    def test_token_ids_vectorizes(self):
        ids = token_ids(["a", "b", "a"], 64)
        assert ids.tolist() == [hash_bucket("a", 64), hash_bucket("b", 64), hash_bucket("a", 64)]

    def test_same_token_same_embedding_row(self, text_params):
        outs = encode_text(["zq", "other", "zq"], text_params.scoped("encoder.text"), CFG)
        # rows 0 and 2 share tok_emb but differ by position
        ids = token_ids(["zq", "other", "zq"], CFG.vocab)
        assert ids[0] == ids[2]


def add_loop_levels(per_layer):
    """The bucketing rule as one add loop per third, then a scale by 1/k."""
    k = len(per_layer) // 3
    out = []
    for part in (per_layer[:k], per_layer[k:2 * k], per_layer[2 * k:]):
        acc = part[0]
        for p in part[1:]:
            acc = add(acc, p)
        out.append((acc * (1.0 / k)).data)
    return np.stack(out)


class TestBucketLevels:
    def test_thirds_mean_arithmetic(self):
        layers = [Tensor(np.full((2, 2), float(i + 1))) for i in range(6)]
        lv = bucket_levels(layers)
        assert lv.levels.data.shape == (3, 2, 2)
        assert np.allclose(lv.levels.data[0], 1.5)    # mean of layers 1,2
        assert np.allclose(lv.levels.data[1], 3.5)    # mean of layers 3,4
        assert np.allclose(lv.levels.data[2], 5.5)    # mean of layers 5,6
        assert np.allclose(lv.base.data, 6.0)   # final layer verbatim

    def test_single_layer_thirds(self):
        layers = [Tensor(np.full((1, 1), float(i))) for i in range(3)]
        lv = bucket_levels(layers)
        assert lv.levels.data[:, 0, 0].tolist() == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("n_l", [3, 6, 9, 12])
    @pytest.mark.parametrize("shape", [(7, 8), (3, 4, 8)], ids=["tokens", "frames"])
    def test_equals_add_loop_bitwise(self, n_l, shape):
        rng = np.random.default_rng(n_l)
        layers = [Tensor(rng.normal(size=shape)) for _ in range(n_l)]
        lv = bucket_levels(layers)
        assert lv.levels.data.shape == (3,) + shape
        assert np.array_equal(lv.levels.data, add_loop_levels(layers))
        assert lv.base is layers[-1]

    def test_gradient_reaches_all_layers(self):
        layers = [Tensor(np.ones((2, 2)), requires_grad=True) for _ in range(6)]
        lv = bucket_levels(layers)
        total = tsum(tsum(lv.levels, axis=0) + lv.base)
        total.backward()
        for i, t in enumerate(layers):
            assert t.grad is not None and np.any(t.grad != 0), f"layer {i} got no gradient"

    def test_one_node_over_the_block_outputs(self):
        layers = [Tensor(np.ones((2, 2)), requires_grad=True) for _ in range(6)]
        levels = bucket_levels(layers).levels
        assert levels._parents == tuple(layers)
        assert levels._vjp.__qualname__.split(".", 1)[0] == "bucket_levels"

    @pytest.mark.parametrize("n_l", [3, 6, 9])
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)], ids=["tokens", "frames"])
    def test_gradcheck(self, n_l, shape):
        rng = np.random.default_rng(n_l)
        p = ParamTree()
        layers = [p.add(f"layer{i}", rng.normal(size=shape)) for i in range(n_l)]
        w = rng.normal(size=(3,) + shape)
        rep = gradcheck(lambda: tsum(bucket_levels(layers).levels * Tensor(w)), p,
                        eps=1e-5, samples=2 * n_l, seed=n_l)
        assert {e.name for e in rep.entries} == set(p.names())
        assert rep.ok(1e-4), rep.worst()


class TestTextEncoder:
    def test_output_shapes(self, text_params):
        outs = encode_text(["a", "b", "c"], text_params.scoped("encoder.text"), CFG)
        assert len(outs) == CFG.n_l
        for o in outs:
            assert o.data.shape == (3, CFG.d_h)

    def test_deterministic(self, text_params):
        s = text_params.scoped("encoder.text")
        a = encode_text(["a", "b"], s, CFG)[-1].data
        b = encode_text(["a", "b"], s, CFG)[-1].data
        assert np.array_equal(a, b)

    def test_position_matters(self, text_params):
        s = text_params.scoped("encoder.text")
        ab = encode_text(["aa", "bb"], s, CFG)[-1].data
        ba = encode_text(["bb", "aa"], s, CFG)[-1].data
        assert not np.allclose(ab[0], ba[1])  # same token, different position

    def test_gradient_reaches_block_weights(self, text_params):
        outs = encode_text(["a", "b"], text_params.scoped("encoder.text"), CFG)
        tsum(outs[-1]).backward()
        for name in ("encoder.text.block0.attn.wq", "encoder.text.block5.ffn.w1",
                     "encoder.text.tok_emb", "encoder.text.pos_emb"):
            assert np.any(text_params[name].grad != 0), name


class TestFrameEncoder:
    def _frames(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(CFG.n_p, CFG.d_in)) for _ in range(n)]

    def test_output_shapes(self, frame_params):
        outs = encode_frames(self._frames(2), frame_params.scoped("encoder.frames"), CFG)
        assert len(outs) == CFG.n_l
        for o in outs:
            assert o.data.shape == (2, CFG.n_p, CFG.d_h)

    def test_frames_do_not_attend_across(self, frame_params):
        # frame 0's features must not change when frame 1 changes
        s = frame_params.scoped("encoder.frames")
        f = self._frames(2, seed=3)
        a = encode_frames(f, s, CFG)[-1].data[0]
        f2 = [f[0], f[1] + 10.0]
        b = encode_frames(f2, s, CFG)[-1].data[0]
        assert np.array_equal(a, b)

    def test_batch_matches_one_frame_at_a_time(self, frame_params):
        s = frame_params.scoped("encoder.frames")
        f = self._frames(3, seed=4)
        batched = encode_frames(f, s, CFG)
        for g in range(3):
            single = encode_frames([f[g]], s, CFG)
            for i in range(CFG.n_l):
                assert np.max(np.abs(batched[i].data[g] - single[i].data[0])) < 1e-12

    def test_gradient_reaches_projection(self, frame_params):
        outs = encode_frames(self._frames(1), frame_params.scoped("encoder.frames"), CFG)
        tsum(outs[-1]).backward()
        assert np.any(frame_params["encoder.frames.proj.w"].grad != 0)
        assert np.any(frame_params["encoder.frames.pos_emb"].grad != 0)


# -- the fused block against the block composed from tape ops -------------


def rsqrt(a: Tensor) -> Tensor:
    out = 1.0 / np.sqrt(a.data)
    return Tensor._result(out, (a,), lambda g: (-0.5 * g * out ** 3,))


def mean_last(x: Tensor) -> Tensor:
    """The mean over the last axis, kept as an axis of length one."""
    return reshape(tmean(x, axis=-1), x.shape[:-1] + (1,))


def composed_layer_norm(x, gain, bias, eps=1e-5):
    xc = x - mean_last(x)
    return xc * rsqrt(mean_last(xc * xc) + eps) * gain + bias


def composed_block(x, scope, heads):
    """The block as separate tape ops, each with its own VJP: the oracle."""
    h = composed_layer_norm(x, scope["ln1.g"], scope["ln1.b"])
    x = add(x, attention_node(h, h, h, heads, scope.scoped("attn")))
    h = composed_layer_norm(x, scope["ln2.g"], scope["ln2.b"])
    ffn = scope.scoped("ffn")
    h = add(matmul(gelu(add(matmul(h, ffn["w1"]), ffn["b1"])), ffn["w2"]), ffn["b2"])
    return add(x, h)


def random_block(shape, seed):
    """Block parameters and an input x, all leaves of one tree, none at its init value."""
    rng = np.random.default_rng(seed)
    p = ParamTree()
    init_block(p.scoped("blk"), shape[-1], rng)
    for _name, t in p.items():
        t.data[...] = t.data + 0.3 * rng.normal(size=t.shape)
    p.add("x", rng.normal(size=shape))
    return p, rng.normal(size=shape)


def block_value_and_grads(block, shape, seed):
    p, w = random_block(shape, seed)
    out = block(p["x"], p.scoped("blk"), 2)
    tsum(out * Tensor(w)).backward()
    return out.data, p.grads()


class TestFusedBlock:
    @pytest.mark.parametrize("shape", [(7, 8), (3, 5, 8)], ids=["tokens", "frames"])
    def test_matches_composed_ops(self, shape):
        value, grads = block_value_and_grads(run_block, shape, seed=2)
        ref_value, ref_grads = block_value_and_grads(composed_block, shape, seed=2)
        assert np.max(np.abs(value - ref_value)) < 1e-10
        assert len(grads) == 14
        for name, ref in ref_grads.items():
            assert np.any(ref != 0), name
            assert np.max(np.abs(grads[name] - ref)) < 1e-10, name

    def test_one_node_over_input_and_parameters(self):
        p, _w = random_block((4, 8), seed=3)
        blk = p.scoped("blk")
        out = run_block(p["x"], blk, 2)
        assert out._parents == (p["x"],) + tuple(blk[n] for n in BLOCK_PARAMS)
        assert len(BLOCK_PARAMS) == 13

    @pytest.mark.parametrize("shape", [(2, 8), (1, CFG.n_p, 8)], ids=["2-tokens", "1-frame"])
    def test_gradcheck(self, shape):
        p, w = random_block(shape, seed=4)
        rep = gradcheck(lambda: tsum(run_block(p["x"], p.scoped("blk"), 2) * Tensor(w)),
                        p, eps=1e-5, samples=80, seed=4)
        assert rep.ok(1e-4), rep.worst()

    @pytest.mark.parametrize("index", [None] + list(range(14)),
                             ids=["clean", "x"] + list(BLOCK_PARAMS))
    def test_gradcheck_catches_a_planted_error(self, plant_vjp_error, index):
        # scale one returned gradient of the block's VJP by 1 + 1e-3; one
        # prefix group per parent, so every parent is sampled
        if index is not None:
            plant_vjp_error("run_block", index)
        p, w = random_block((2, 8), seed=4)
        prefixes = ["x"] + [f"blk.{n}" for n in BLOCK_PARAMS]
        rep = gradcheck(lambda: tsum(run_block(p["x"], p.scoped("blk"), 2) * Tensor(w)),
                        p, eps=1e-5, samples=42, seed=4, prefixes=prefixes)
        assert {e.name for e in rep.entries} == set(prefixes)
        assert rep.ok(1e-4) is (index is None), rep.worst()


def kept_units(make, x: np.ndarray) -> float:
    """Bytes still allocated once `make()` returns, while its result is held,
    in units of x.nbytes: the output plus what its VJP saved."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = make()
        kept = tracemalloc.get_traced_memory()[0] - base
        del held
        return kept / x.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(64, 32), (4, 16, 32)], ids=["tokens", "frames"])
def test_the_tape_keeps_only_what_a_matmul_cannot_redo(shape):
    # the VJPs recompute attention's projections and the FFN's pre-activation,
    # and the block's VJP rebuilds LN1's normalized input from x and both LN
    # outputs, so a block keeps, beside its output, LN2's normalized input,
    # attention's merged context and row statistics and the FFN's Phi(u)
    # [..., 4d]: about 7.6 units, the FFN 5.0 and attention 2.4 (each pair's
    # output included)
    rng = np.random.default_rng(0)
    p = ParamTree()
    init_block(p.scoped("blk"), shape[-1], rng)
    blk = p.scoped("blk")
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    attn = [blk[f"attn.{n}"].data for n in ("wq", "wk", "wv", "wo", "bo")]
    ffn = [blk[f"ffn.{n}"].data for n in ("w1", "b1", "w2", "b2")]
    assert kept_units(lambda: run_block(x, blk, 4), x.data) <= 8.0
    assert kept_units(lambda: feed_forward(x.data, *ffn), x.data) <= 5.5
    assert kept_units(lambda: multi_head_attention(x.data, x.data, x.data, 4, attn),
                      x.data) <= 3.0
