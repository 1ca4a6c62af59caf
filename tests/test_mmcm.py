"""Missing-modality construction: shapes, pooling, blanks, gradient support,
and the stacked-level pass against a per-level reference loop."""
import numpy as np
import pytest

from himie.autodiff import ParamTree, Tensor, gradcheck, pool_matrix, tsum
from himie.config import ModelConfig
from himie.encoders import LEVELS
from himie.mmcm import (
    CONV_W,
    blank,
    construct_image_from_text,
    construct_text_from_image,
    init_mmcm,
)
from conftest import conv1d_reference

CFG = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, prompt_len=5,
                  vocab=64, max_len=32)


@pytest.fixture
def params():
    p = ParamTree()
    init_mmcm(p.scoped("mmcm"), CFG, np.random.default_rng(0))
    return p


# -- per-level reference: one prompt, kernel and pass per level ------------

def reference_init(scope, cfg, rng) -> None:
    """Per-level parameters `mmcm.{t2g,g2t}.{low,mid,high}.{prompt,conv.k,conv.b}`,
    drawn level by level after the shared input convolution."""
    s = 1.0 / np.sqrt(CONV_W * cfg.d_h)
    for direction in ("t2g", "g2t"):
        d = scope.scoped(direction)
        d.add("conv_in.k", rng.normal(size=(CONV_W, cfg.d_h, cfg.d_h)) * s)
        d.add("conv_in.b", np.zeros(cfg.d_h))
        for lvl in LEVELS:
            d.add(f"{lvl}.prompt", rng.normal(size=(cfg.prompt_len, cfg.d_h)) * 0.02)
            d.add(f"{lvl}.conv.k", rng.normal(size=(CONV_W, cfg.d_h, cfg.d_h)) * s)
            d.add(f"{lvl}.conv.b", np.zeros(cfg.d_h))


def reference_construct(present, scope, target_len):
    """One [target_len, d_h] feature per level of the rows `present` [S, d_h],
    built level by level in numpy."""
    def relu(a):
        return np.maximum(a, 0.0)

    c = relu(conv1d_reference(present, scope["conv_in.k"].data, scope["conv_in.b"].data))
    outs = []
    for lvl in LEVELS:
        s = np.concatenate([scope[f"{lvl}.prompt"].data, c])
        o = relu(conv1d_reference(s, scope[f"{lvl}.conv.k"].data, scope[f"{lvl}.conv.b"].data))
        outs.append(pool_matrix(len(o), target_len) @ o)
    return outs


class TestAgainstPerLevelReference:
    def _trees(self, seed=7):
        stacked, ref = ParamTree(), ParamTree()
        init_mmcm(stacked.scoped("mmcm"), CFG, np.random.default_rng(seed))
        reference_init(ref.scoped("mmcm"), CFG, np.random.default_rng(seed))
        return stacked, ref

    def test_stacked_init_equals_per_level_draws(self):
        stacked, ref = self._trees()
        covered = set()
        for name, t in stacked.items():
            if ".conv_in." in name:
                assert np.array_equal(t.data, ref[name].data), name
                covered.add(name)
                continue
            assert t.data.shape[0] == len(LEVELS), name
            direction, field = name.split(".", 2)[1:]
            for k, lvl in enumerate(LEVELS):
                rname = f"mmcm.{direction}.{lvl}.{field}"
                assert np.array_equal(t.data[k].reshape(ref[rname].shape), ref[rname].data), rname
                covered.add(rname)
        assert covered == set(ref.names())
        assert sum(t.data.size for _, t in stacked.items()) == \
            sum(t.data.size for _, t in ref.items())
        assert (len(stacked.names()), len(ref.names())) == (10, 22)

    def test_both_directions_match_per_level_loop(self):
        stacked, ref = self._trees()
        rng = np.random.default_rng(12)
        h_text = Tensor(rng.normal(size=(6, CFG.d_h)))
        h_img = Tensor(rng.normal(size=(2, CFG.n_p, CFG.d_h)))
        s, r = stacked.scoped("mmcm"), ref.scoped("mmcm")
        img = construct_image_from_text(h_text, s, 3, CFG.n_p)
        text = construct_text_from_image(h_img, s, 7)
        ref_img = [o.reshape(3, CFG.n_p, CFG.d_h)
                   for o in reference_construct(h_text.data, r.scoped("t2g"), 3 * CFG.n_p)]
        ref_text = reference_construct(h_img.data.reshape(-1, CFG.d_h), r.scoped("g2t"), 7)
        for lv, levels in ((img, ref_img), (text, ref_text)):
            assert np.allclose(lv.levels.data, np.stack(levels), rtol=0, atol=1e-12)
            assert np.allclose(lv.base.data, sum(levels) / 3.0, rtol=0, atol=1e-12)


def test_image_from_text_shapes(params):
    h = Tensor(np.random.default_rng(1).normal(size=(7, CFG.d_h)))
    lv = construct_image_from_text(h, params.scoped("mmcm"), n_g=3, n_p=CFG.n_p)
    assert lv.levels.data.shape == (len(LEVELS), 3, CFG.n_p, CFG.d_h)
    assert lv.base.data.shape == (3, CFG.n_p, CFG.d_h)


def test_text_from_image_shapes(params):
    h = Tensor(np.random.default_rng(2).normal(size=(2, CFG.n_p, CFG.d_h)))
    lv = construct_text_from_image(h, params.scoped("mmcm"), n_x=9)
    assert lv.levels.data.shape == (len(LEVELS), 9, CFG.d_h)
    assert lv.base.data.shape == (9, CFG.d_h)


def test_base_is_mean_of_levels(params):
    h = Tensor(np.random.default_rng(3).normal(size=(6, CFG.d_h)))
    lv = construct_image_from_text(h, params.scoped("mmcm"), n_g=2, n_p=CFG.n_p)
    expect = lv.levels.data.sum(axis=0) / 3.0
    assert np.allclose(lv.base.data, expect, atol=1e-12)


def test_target_length_shorter_and_longer_than_source(params):
    s = params.scoped("mmcm")
    h = Tensor(np.random.default_rng(4).normal(size=(1, CFG.n_p, CFG.d_h)))
    for n_x in (1, 3, CFG.n_p + CFG.prompt_len + 7):
        lv = construct_text_from_image(h, s, n_x=n_x)
        assert lv.base.data.shape == (n_x, CFG.d_h)


def test_levels_are_nonnegative_after_relu(params):
    h = Tensor(np.random.default_rng(5).normal(size=(6, CFG.d_h)))
    lv = construct_image_from_text(h, params.scoped("mmcm"), n_g=2, n_p=CFG.n_p)
    assert np.all(lv.levels.data >= 0)


def test_levels_differ_between_each_other(params):
    # per-level prompts and convs must produce distinct features
    h = Tensor(np.random.default_rng(6).normal(size=(6, CFG.d_h)))
    low, mid, high = construct_image_from_text(h, params.scoped("mmcm"),
                                               n_g=2, n_p=CFG.n_p).levels.data
    assert not np.allclose(low, mid)
    assert not np.allclose(mid, high)


def test_output_depends_on_input(params):
    s = params.scoped("mmcm")
    a = construct_text_from_image(
        Tensor(np.zeros((1, CFG.n_p, CFG.d_h))), s, n_x=4).base.data
    b = construct_text_from_image(
        Tensor(np.ones((1, CFG.n_p, CFG.d_h))), s, n_x=4).base.data
    assert not np.allclose(a, b)


def test_blank_fill_is_all_zeros():
    for shape in ((5, CFG.d_h), (2, CFG.n_p, CFG.d_h)):
        lv = blank(shape)
        assert lv.levels.data.shape == (len(LEVELS),) + shape
        assert lv.base.data.shape == shape
        assert not np.any(lv.levels.data) and not np.any(lv.base.data)


def test_gradient_reaches_prompts_and_convs(params):
    h = Tensor(np.random.default_rng(7).normal(size=(6, CFG.d_h)))
    lv = construct_image_from_text(h, params.scoped("mmcm"), n_g=2, n_p=CFG.n_p)
    params.zero_grad()
    tsum(lv.base * lv.base).backward()
    assert np.any(params["mmcm.t2g.conv_in.k"].grad != 0)
    for name in ("mmcm.t2g.prompt", "mmcm.t2g.conv.k", "mmcm.t2g.conv.b"):
        for k in range(len(LEVELS)):
            assert np.any(params[name].grad[k] != 0), (name, k)


def test_gradcheck_both_directions(params):
    src_t = Tensor(np.random.default_rng(8).normal(size=(5, CFG.d_h)))
    src_g = Tensor(np.random.default_rng(9).normal(size=(2, CFG.n_p, CFG.d_h)))
    w = np.random.default_rng(10).normal(size=(len(LEVELS), 1, 1, 1))

    def loss():
        a = construct_image_from_text(src_t, params.scoped("mmcm"), 2, CFG.n_p)
        b = construct_text_from_image(src_g, params.scoped("mmcm"), 6)
        # weigh the levels unequally, so a swap between levels would show
        return (tsum(a.base * a.base) + tsum(b.base * b.base)
                + tsum(a.levels * Tensor(w)) + tsum(b.levels * Tensor(w[..., 0])))

    report = gradcheck(loss, params, samples=60, seed=3)
    assert report.ok(1e-4), report.worst()


@pytest.mark.parametrize("index", [None] + list(range(6)),
                         ids=["clean", "dpresent", "dconv_in_k", "dconv_in_b", "dprompt",
                              "dconv_k", "dconv_b"])
def test_gradcheck_catches_a_planted_error(plant_vjp_error, index):
    # the present features are parameters too, so one sample per name checks
    # every output of the node's VJP in both directions
    p = ParamTree()
    init_mmcm(p.scoped("mmcm"), CFG, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    for name in ("t2g.conv_in.b", "t2g.conv.b", "g2t.conv_in.b", "g2t.conv.b"):
        bias = p[f"mmcm.{name}"].data  # zero biases put every all-zero window on the ReLU kink
        bias[...] = rng.normal(size=bias.shape) * 0.1
    src_t = p.add("present.text", rng.normal(size=(5, CFG.d_h)))
    src_g = p.add("present.image", rng.normal(size=(2, CFG.n_p, CFG.d_h)))
    w = rng.normal(size=(len(LEVELS), 1, 1, 1))
    if index is not None:
        plant_vjp_error("_construct", index)

    def loss():
        a = construct_image_from_text(src_t, p.scoped("mmcm"), 2, CFG.n_p)
        b = construct_text_from_image(src_g, p.scoped("mmcm"), 6)
        return tsum(a.levels * Tensor(w)) + tsum(b.levels * Tensor(w[..., 0]))

    rep = gradcheck(loss, p, seed=4)
    assert {e.name for e in rep.entries} == set(p.names())
    assert rep.ok(1e-4) is (index is None), rep.worst()
