"""Numeric core: frozen examples, per-op gradchecks, algebra properties."""
from __future__ import annotations

import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from himie import autodiff as ad
from himie.autodiff import (ConfigError, ParamTree, ShapeError, Tensor, gradcheck,
                            matmul, multi_head_attention, pool_matrix, pool_windows, tsum)
from conftest import (attention_node, conv1d_node, conv1d_reference, count_tape_nodes,
                      feed_forward_node, gelu)


def test_matmul_examples():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]
    a = np.arange(4.0).reshape(2, 2) + 1.0
    assert np.array_equal(matmul(Tensor(np.eye(2)), Tensor(a)).data, a)


def test_conv1d_example():
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    out = conv1d_node(x, Tensor(np.ones((3, 1, 1))), Tensor(np.zeros(1)))
    assert out.data.ravel().tolist() == [3.0, 6.0, 5.0]


@pytest.mark.parametrize("x_shape,k_shape,b_shape", [
    ((5, 3), (3, 3, 2), (2,)),
    ((2, 5, 3), (2, 5, 3, 2), (2, 1, 2)),
], ids=["plain", "batched"])
def test_conv1d_matches_window_sum(x_shape, k_shape, b_shape):
    rng = np.random.default_rng(len(x_shape) + len(k_shape))
    x, k, b = (rng.normal(size=s) for s in (x_shape, k_shape, b_shape))
    out = conv1d_node(Tensor(x), Tensor(k), Tensor(b)).data
    assert np.allclose(out, conv1d_reference(x, k, b), rtol=0, atol=1e-12)


def test_pool_windows_examples():
    assert pool_windows(3, 2) == [(0, 2), (1, 3)]
    assert pool_windows(4, 2) == [(0, 2), (2, 4)]
    x = np.random.default_rng(0).normal(size=(3, 4))
    out = pool_matrix(3, 2) @ x
    assert np.allclose(out[0], (x[0] + x[1]) / 2)
    assert np.allclose(out[1], (x[1] + x[2]) / 2)


def test_pool_identity_when_lengths_match():
    x = np.random.default_rng(1).normal(size=(5, 3))
    assert np.array_equal(pool_matrix(5, 5) @ x, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24))
def test_pool_covers_every_row(L, T):
    wins = pool_windows(L, T)
    covered = set()
    for s, e in wins:
        assert 0 <= s < e <= L
        covered.update(range(s, e))
    assert covered == set(range(L))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5))
def test_pool_preserves_mean_on_exact_division(blocks, T):
    L = blocks * T
    x = np.random.default_rng(blocks * 31 + T).normal(size=(L, 3))
    out = pool_matrix(L, T) @ x
    assert np.allclose(out.mean(axis=0), x.mean(axis=0), atol=1e-12)


def _mha_params(d, rng=None, identity=False):
    p = ParamTree()
    if identity:
        for nm in ("wq", "wk", "wv", "wo"):
            p.add(nm, np.eye(d))
        p.add("bo", np.zeros(d))
    else:
        for nm in ("wq", "wk", "wv", "wo"):
            p.add(nm, rng.normal(size=(d, d)) * 0.3)
        p.add("bo", rng.normal(size=d) * 0.3)
    return p


def test_attention_single_key_broadcasts_value():
    rng = np.random.default_rng(3)
    d = 8
    p = _mha_params(d, rng)
    q = Tensor(rng.normal(size=(5, d)))
    k = Tensor(rng.normal(size=(1, d)))
    v = Tensor(rng.normal(size=(1, d)))
    out = attention_node(q, k, v, 2, p).data
    want = (v.data @ p["wv"].data) @ p["wo"].data + p["bo"].data
    for row in out:
        assert np.allclose(row, want.ravel(), atol=1e-12)


def test_attention_zero_values_give_output_bias():
    rng = np.random.default_rng(4)
    d = 8
    p = _mha_params(d, rng)
    q = Tensor(rng.normal(size=(3, d)))
    k = Tensor(rng.normal(size=(4, d)))
    v = Tensor(np.zeros((4, d)))
    out = attention_node(q, k, v, 4, p).data
    assert np.allclose(out, np.broadcast_to(p["bo"].data, out.shape), atol=1e-15)


def test_attention_uniform_scores_average_values():
    d = 4
    p = _mha_params(d, identity=True)
    rng = np.random.default_rng(5)
    q = Tensor(rng.normal(size=(3, d)))
    k = Tensor(np.ones((6, d)))  # constant keys -> uniform attention
    v = Tensor(rng.normal(size=(6, d)))
    out = attention_node(q, k, v, 1, p).data
    assert np.allclose(out, np.broadcast_to(v.data.mean(axis=0), out.shape), atol=1e-12)


def test_attention_batched_matches_each_slice():
    rng = np.random.default_rng(8)
    d = 8
    p = _mha_params(d, rng)
    q = rng.normal(size=(3, 5, d))
    k = rng.normal(size=(3, 7, d))
    v = rng.normal(size=(3, 7, d))
    out = attention_node(Tensor(q), Tensor(k), Tensor(v), 2, p).data
    assert out.shape == (3, 5, d)
    for b in range(3):
        want = attention_node(Tensor(q[b]), Tensor(k[b]), Tensor(v[b]), 2, p).data
        assert np.max(np.abs(out[b] - want)) < 1e-12


def test_attention_is_one_tape_node():
    rng = np.random.default_rng(9)
    p = _mha_params(4, rng)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    out = attention_node(x, x, x, 2, p)
    assert out._parents == (x, x, x, p["wq"], p["wk"], p["wv"], p["wo"], p["bo"])


def test_attention_batch_axes_must_agree():
    p = _mha_params(4, np.random.default_rng(10))
    q = Tensor(np.zeros((2, 3, 4)))
    kv = Tensor(np.zeros((3, 5, 4)))
    with pytest.raises(ShapeError, match="batch axes"):
        attention_node(q, kv, kv, 2, p)
    per_entry = {n: Tensor(np.zeros((3, 4, 4))) for n in ("wq", "wk", "wv", "wo")}
    per_entry["bo"] = Tensor(np.zeros((3, 1, 4)))
    with pytest.raises(ShapeError, match="leading axes"):
        attention_node(q, q, q, 2, per_entry)


def reference_attention(q, k, v, heads, w, g):
    """Attention output and its 8 gradients for output gradient g, by the
    allocating formulas: a fresh array for every step of the softmax chain."""
    wq, wk, wv, wo, bo = (w[n] for n in ("wq", "wk", "wv", "wo", "bo"))
    batched = wq.ndim > 2
    d = q.shape[-1]
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(x):
        return np.swapaxes(x.reshape(x.shape[:-1] + (heads, dh)), -2, -3)

    def merge(x):
        x = np.swapaxes(x, -2, -3)
        return x.reshape(x.shape[:-2] + (d,))

    def wgrad(x, dy):
        if batched:
            return np.swapaxes(x, -1, -2) @ dy
        return x.reshape(-1, d).T @ dy.reshape(-1, d)

    def tr(a):
        return np.swapaxes(a, -1, -2)

    Qh, Kh, Vh = split(q @ wq), split(k @ wk), split(v @ wv)
    KhT = np.swapaxes(Kh, -1, -2)
    scores = (Qh @ KhT) * scale
    row_max = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - row_max)
    row_sum = e.sum(axis=-1, keepdims=True)
    ctx = (e / row_sum) @ Vh
    merged = merge(ctx)
    out = merged @ wo + bo

    attn = np.exp((Qh @ KhT) * scale - row_max) / row_sum
    dbo = g.sum(axis=-2, keepdims=True) if batched else g.reshape(-1, d).sum(axis=0)
    dctx = split(g @ tr(wo))
    dattn = dctx @ np.swapaxes(Vh, -1, -2)
    dvh = np.swapaxes(attn, -1, -2) @ dctx
    dscores = attn * (dattn - (dctx * ctx).sum(axis=-1, keepdims=True)) * scale
    dQ, dK, dV = merge(dscores @ Kh), merge(np.swapaxes(dscores, -1, -2) @ Qh), merge(dvh)
    return out, (dQ @ tr(wq), dK @ tr(wk), dV @ tr(wv), wgrad(q, dQ), wgrad(k, dK),
                 wgrad(v, dV), wgrad(merged, g), dbo)


@pytest.mark.parametrize("q_shape,k_shape,w_lead", [
    ((44, 32), None, ()),
    ((200, 32), None, ()),
    ((7, 32), (13, 32), ()),
    ((3, 9, 32), (3, 17, 32), ()),
    ((3, 9, 32), (3, 17, 32), (3,)),
], ids=["self-44", "self-200", "cross", "batched", "batched-weights"])
def test_attention_equals_allocating_reference_bitwise(q_shape, k_shape, w_lead):
    # the in-place softmax chain runs the reference's ufuncs in the same order
    rng = np.random.default_rng(sum(q_shape))
    q = rng.normal(size=q_shape)
    k = q if k_shape is None else rng.normal(size=k_shape)
    v = q if k_shape is None else rng.normal(size=k_shape)
    w = {n: rng.normal(size=w_lead + (32, 32)) * 0.3 for n in ("wq", "wk", "wv", "wo")}
    w["bo"] = rng.normal(size=w_lead + ((1, 32) if w_lead else (32,)))
    g = rng.normal(size=q_shape)
    ref_out, ref_grads = reference_attention(q, k, v, 4, w, g)
    out, vjp = multi_head_attention(q, k, v, 4, [w[n] for n in ("wq", "wk", "wv", "wo", "bo")])
    assert out.tobytes() == ref_out.tobytes()
    grads = vjp(g, q, k, v)
    assert len(grads) == 8
    for i, (got, want) in enumerate(zip(grads, ref_grads)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), i


def test_gelu_helpers_equal_allocating_formulas_bitwise():
    x = np.concatenate([np.random.default_rng(14).normal(size=(44, 128)).ravel() * 3.0,
                        [-40.0, -8.5, -6.01, -0.0, 0.0, 6.01, 8.5, 40.0]])
    assert np.any(np.abs(x) > 6)
    cdf = ad.gelu_cdf(x)
    assert cdf.tobytes() == (0.5 * (1.0 + erf(x / np.sqrt(2.0)))).tobytes()
    c = 1.0 / np.sqrt(2.0 * np.pi)
    assert ad.gelu_slope(x, cdf).tobytes() == (cdf + x * (c * np.exp(-0.5 * x * x))).tobytes()


@pytest.mark.parametrize("op", [ad.add, ad.mul, matmul])
@pytest.mark.parametrize("constant", [0, 1], ids=["a-constant", "b-constant"])
def test_vjp_skips_constant_operand(op, constant):
    rng = np.random.default_rng(15)
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4,) if op is not matmul else (4, 5))
    ta = Tensor(a, requires_grad=constant != 0)
    tb = Tensor(b, requires_grad=constant != 1)
    out = op(ta, tb)
    g = rng.normal(size=out.shape)
    grads = out._vjp(g)
    assert grads[constant] is None
    want = {ad.add: lambda: (g, g.sum(axis=(0, 1))),
            ad.mul: lambda: (g * b, (g * a).sum(axis=(0, 1))),
            matmul: lambda: (g @ b.T, (np.swapaxes(a, -1, -2) @ g).sum(axis=0))}[op]()
    assert grads[1 - constant].tobytes() == want[1 - constant].tobytes()


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((5, 4), (4, 3), (3,)),
    ((2, 5, 4), (4, 3), (3,)),
    ((5, 4), (3, 4, 3), (3, 1, 3)),
    ((3, 5, 4), (3, 4, 3), (3, 1, 3)),
], ids=["2d-shared", "batched-shared", "2d-per-level", "batched-per-level"])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x-param", "x-constant"])
def test_biased_matmul_equals_matmul_then_add_bitwise(x_shape, w_shape, b_shape, x_grad):
    # one node in place of two, with the same value and all three gradients
    results = []
    for fused in (True, False):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=x_shape), requires_grad=x_grad)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        b = Tensor(rng.normal(size=b_shape), requires_grad=True)
        out = matmul(x, w, b) if fused else ad.add(matmul(x, w), b)
        tsum(out * Tensor(rng.normal(size=out.shape))).backward()
        results.append([out.data.tobytes()] + [None if t.grad is None else t.grad.tobytes()
                                               for t in (x, w, b)])
    assert results[0] == results[1]
    assert (results[0][1] is None) is not x_grad


def test_feed_forward_vjp_holds_three_hidden_arrays():
    # u takes its bias in place, du is g @ w2.T times the slope in place and
    # the GELU output overwrites u: beside the saved Phi(u) the VJP holds u,
    # du and the slope at once. Per-level [3, L, h] arrays above numpy's
    # 256 KiB temporary-elision size and shared [L, h] ones below it.
    rng = np.random.default_rng(17)
    for lead, w_lead, b_shape in (((3, 256), (3,), lambda n: (3, 1, n)),
                                  ((64,), (), lambda n: (n,))):
        d, h = 16, 64
        x, g = rng.normal(size=lead + (d,)), rng.normal(size=lead + (d,))
        w = (rng.normal(size=w_lead + (d, h)), rng.normal(size=b_shape(h)),
             rng.normal(size=w_lead + (h, d)), rng.normal(size=b_shape(d)))
        _out, vjp = ad.feed_forward(x, *w)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grads = vjp(g, x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(grads) == 5
        hidden = math.prod(lead) * h * 8
        assert peak <= 3.25 * hidden, f"{lead}: peak {peak / hidden:.2f} hidden arrays"


def test_param_tree_order_and_duplicates():
    p = ParamTree()
    p.add("b.x", np.zeros(2))
    p.add("a.y", np.zeros(3))
    p.add("a.b", np.zeros(1))
    assert p.names() == ["a.b", "a.y", "b.x"]
    with pytest.raises(ConfigError):
        p.add("a.y", np.zeros(3))
    g = p.grads()
    assert set(g) == {"a.b", "a.y", "b.x"}
    assert all(np.array_equal(v, np.zeros_like(v)) for v in g.values())


def test_backward_accumulates_shared_input():
    p = ParamTree()
    x = p.add("x", np.array([2.0, 3.0]))
    y = tsum(x * x) + tsum(x) * 4.0
    y.backward()
    assert np.allclose(x.grad, 2.0 * x.data + 4.0)


@pytest.mark.parametrize("packed", [False, True], ids=["tree", "packed"])
@pytest.mark.parametrize("add_path_first", [False, True])
def test_shared_vjp_output_is_not_written_in_place(packed, add_path_first):
    # add's VJP hands one array to both of its parents; a, reached twice, must
    # not accumulate into the array that b (or the free leaf c) also holds
    from himie.trainer import init_adam
    rng = np.random.default_rng(11)
    p = ParamTree()
    a, b = p.add("a", rng.normal(size=3)), p.add("b", rng.normal(size=3))
    c = Tensor(rng.normal(size=3), requires_grad=True)
    if packed:
        init_adam(p)
    wa, wb, wc = (rng.normal(size=3) for _ in range(3))

    def loss():
        via_add = tsum((a + b) * Tensor(wb)) + tsum((c + a) * Tensor(wc))
        direct = tsum(a * Tensor(wa))
        return via_add + direct if add_path_first else direct + via_add

    loss().backward()
    assert np.array_equal(b.grad, wb)
    assert np.array_equal(c.grad, wc)
    assert np.allclose(a.grad, wa + wb + wc, rtol=0, atol=1e-15)
    loss().backward()  # a second tape accumulates on top of the first
    assert np.array_equal(b.grad, 2 * wb)
    assert np.array_equal(c.grad, 2 * wc)
    assert np.allclose(a.grad, 2 * (wa + wb + wc), rtol=0, atol=1e-15)


def diamond():
    """A leaf reached along several paths, with an interior node shared too."""
    p = ParamTree()
    a = p.add("a", np.array([1.0, 2.0]))
    h = a * a
    return a, tsum((h + h) * (h + a))


def interior_nodes(loss) -> list:
    seen, stack, found = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._vjp is not None:
                found.append(node)
            stack.extend(node._parents)
    return found


def test_backward_frees_the_tape_and_keeps_the_gradients():
    a, loss = diamond()
    interior = interior_nodes(loss)
    assert len(interior) == 5  # h, h + h, h + a, their product, its sum
    loss.backward()
    # d/da sum((2a^2)(a^2 + a)) = 8a^3 + 6a^2
    assert np.array_equal(a.grad, 8 * a.data ** 3 + 6 * a.data ** 2)
    for node in interior:
        assert node._parents == () and not callable(node._vjp)
        assert node.grad is None
    assert np.array_equal(loss.data, np.sum((2 * a.data ** 2) * (a.data ** 2 + a.data)))


def test_second_backward_on_a_spent_tape_raises_and_moves_no_gradient():
    a, loss = diamond()
    loss.backward()
    once = a.grad.copy()
    with pytest.raises(RuntimeError, match="one backward pass"):
        loss.backward()
    assert a.grad.tobytes() == once.tobytes()
    # a fresh loss built on a spent interior node is refused as well
    b = ParamTree().add("b", np.array([3.0, 4.0]))
    h = a * a
    tsum(h * h).backward()
    a_twice = a.grad.copy()
    with pytest.raises(RuntimeError, match="one backward pass"):
        tsum(h * b).backward()
    assert b.grad is None and a.grad.tobytes() == a_twice.tobytes()


def test_forward_losses_stay_readable_after_backward():
    from himie.config import GenConfig, ModelConfig
    from himie.model import forward, init_params
    from himie.synth import generate
    cfg = ModelConfig()
    doc = generate(GenConfig(docs=1, seed=3)).documents[0]
    res = forward(doc, init_params(cfg, 0), cfg)
    before = {name: None if v is None else v.data.tobytes() for name, v in res.losses.items()}
    res.loss.backward()
    assert {name: None if v is None else v.data.tobytes()
            for name, v in res.losses.items()} == before
    assert all(v._parents == () for v in res.losses.values() if v is not None)


class TestNoGrad:
    def test_records_nothing_and_keeps_values(self, monkeypatch):
        x = Tensor(np.random.default_rng(12).normal(size=(3, 4)), requires_grad=True)
        made = count_tape_nodes(monkeypatch)
        taped = ad.texp(matmul(x, ad.reshape(x, (4, 3))))
        assert len(made) == 3
        with ad.no_grad():
            free = ad.texp(matmul(x, ad.reshape(x, (4, 3))))
        assert len(made) == 3
        assert not free.requires_grad and free._parents == () and free._vjp is None
        assert free.data.tobytes() == taped.data.tobytes()

    def test_nests_and_restores_after_an_exception(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad
        with pytest.raises(RuntimeError, match="inside"):
            with ad.no_grad():
                raise RuntimeError("inside the block")
        assert (x * 2.0).requires_grad


def test_gradcheck_perturbed_passes_equal_recording_passes():
    rng = np.random.default_rng(13)
    p = ParamTree()
    x, w = p.add("x", rng.normal(size=(3, 4))), p.add("w", rng.normal(size=(4, 4)))
    taped = []

    def loss_fn():
        out = tsum(gelu(matmul(x, w)) * ad.texp(x))
        taped.append(out.requires_grad)
        return out

    rep = gradcheck(loss_fn, p, eps=1e-4, samples=12, seed=1)
    assert taped == [True] + [False] * 24
    for e in rep.entries:
        buf = p[e.name].data.reshape(-1)
        orig = buf[e.index]
        buf[e.index] = orig + 1e-4
        lp = float(loss_fn().data)
        buf[e.index] = orig - 1e-4
        lm = float(loss_fn().data)
        buf[e.index] = orig
        assert e.numeric == (lp - lm) / (2.0 * 1e-4), (e.name, e.index)
    assert all(taped[25:])


def test_negation_is_a_scalar_mul_equal_to_numpy_bitwise(monkeypatch):
    x = np.array([[1.5, -0.0, 0.0], [-2.25, 1e-300, -7.0]])
    t = Tensor(x, requires_grad=True)
    made = count_tape_nodes(monkeypatch)
    const = t - Tensor(x[::-1])
    assert made == ["add"]  # the constant's negation is not taped
    taped = Tensor(x[::-1]) - t
    assert made == ["add", "mul", "add"]
    assert const.data.tobytes() == (x - x[::-1]).tobytes()
    assert taped.data.tobytes() == (x[::-1] - x).tobytes()
    g = np.array([[0.0, -3.0, 2.5], [1.0, -0.0, 4.0]])
    (grad,) = taped._parents[1]._vjp(g)
    assert grad.tobytes() == (-g).tobytes()


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 5))
    a = tsum(gelu(matmul(Tensor(x), Tensor(x))), axis=-1).data
    b = tsum(gelu(matmul(Tensor(x.copy()), Tensor(x.copy()))), axis=-1).data
    assert a.tobytes() == b.tobytes()


# -- per-operation gradchecks --------------------------------------------

def _check(build, n_params_spec, seed, samples=50):
    rep = _report(build, n_params_spec, seed, samples)
    assert rep.ok(1e-4), f"max rel err {rep.max_rel_err} at {rep.worst()}"


def _report(build, n_params_spec, seed, samples=50, prefixes=None):
    rng = np.random.default_rng(seed)
    params = ParamTree()
    arrays = {}
    for name, shape, _kind in n_params_spec:
        arrays[name] = params.add(name, rng.normal(size=shape))
    w_cache = {}

    def loss_fn():
        out = build(arrays)
        if "w" not in w_cache:
            w_cache["w"] = np.random.default_rng(seed + 1).normal(size=out.data.shape)
        return tsum(out * Tensor(w_cache["w"]))

    return gradcheck(loss_fn, params, eps=1e-4, samples=samples, seed=seed, prefixes=prefixes)


OPS = {
    "add": (lambda a: a["x"] + a["y"], [("x", (3, 4), "any"), ("y", (3, 4), "any")]),
    "add_broadcast": (lambda a: a["x"] + a["y"], [("x", (3, 4), "any"), ("y", (1, 4), "any")]),
    "mul": (lambda a: a["x"] * a["y"], [("x", (3, 4), "any"), ("y", (3, 4), "any")]),
    "sub": (lambda a: a["x"] - a["y"], [("x", (3, 4), "any"), ("y", (3, 4), "any")]),
    "rsub_neg": (lambda a: ad.add(1.0, ad.mul(ad.mul(a["x"], -1.0), -1.0)), [("x", (3, 4), "any")]),
    "matmul": (lambda a: matmul(a["x"], a["y"]), [("x", (3, 4), "any"), ("y", (4, 2), "any")]),
    "matmul_batched": (lambda a: matmul(a["x"], a["y"]),
                       [("x", (2, 3, 4), "any"), ("y", (2, 4, 2), "any")]),
    "matmul_bias_per_level": (lambda a: matmul(a["x"], a["y"], a["b"]),
                              [("x", (3, 4), "any"), ("y", (3, 4, 2), "any"),
                               ("b", (3, 1, 2), "any")]),
    "exp": (lambda a: ad.texp(a["x"]), [("x", (3, 3), "any")]),
    "gelu": (lambda a: gelu(a["x"]), [("x", (4, 4), "any")]),
    "sum_axis": (lambda a: tsum(a["x"], axis=0), [("x", (3, 4), "any")]),
    "mean_axis": (lambda a: ad.tmean(a["x"], axis=1), [("x", (3, 4), "any")]),
    "reshape": (lambda a: ad.reshape(a["x"], (2, 6)), [("x", (3, 4), "any")]),
    "index_rows": (lambda a: ad.index_rows(a["x"], np.array([0, 2, 2, 1])), [("x", (4, 3), "any")]),
    "conv1d": (lambda a: conv1d_node(a["x"], a["k"], a["b"]),
               [("x", (5, 3), "any"), ("k", (3, 3, 2), "any"), ("b", (2,), "any")]),
    "conv1d_per_level": (lambda a: conv1d_node(a["x"], a["k"], a["b"]),
                         [("x", (3, 5, 3), "any"), ("k", (3, 3, 3, 2), "any"),
                          ("b", (3, 1, 2), "any")]),
    "avg_pool_down": (lambda a: matmul(Tensor(pool_matrix(7, 3)), a["x"]), [("x", (7, 4), "any")]),
    "avg_pool_up": (lambda a: matmul(Tensor(pool_matrix(4, 9)), a["x"]), [("x", (4, 4), "any")]),
    "attention": (lambda a: attention_node(
        a["q"], a["k"], a["v"], 2,
        {"wq": a["wq"], "wk": a["wk"], "wv": a["wv"], "wo": a["wo"], "bo": a["bo"]}),
        [("q", (3, 4), "any"), ("k", (5, 4), "any"), ("v", (5, 4), "any"),
         ("wq", (4, 4), "any"), ("wk", (4, 4), "any"), ("wv", (4, 4), "any"),
         ("wo", (4, 4), "any"), ("bo", (4,), "any")]),
    "attention_batched": (lambda a: attention_node(
        a["q"], a["k"], a["v"], 2,
        {"wq": a["wq"], "wk": a["wk"], "wv": a["wv"], "wo": a["wo"], "bo": a["bo"]}),
        [("q", (2, 3, 4), "any"), ("k", (2, 5, 4), "any"), ("v", (2, 5, 4), "any"),
         ("wq", (4, 4), "any"), ("wk", (4, 4), "any"), ("wv", (4, 4), "any"),
         ("wo", (4, 4), "any"), ("bo", (4,), "any")]),
    "attention_batched_weights": (lambda a: attention_node(
        a["q"], a["k"], a["v"], 2,
        {"wq": a["wq"], "wk": a["wk"], "wv": a["wv"], "wo": a["wo"], "bo": a["bo"]}),
        [("q", (2, 3, 4), "any"), ("k", (2, 5, 4), "any"), ("v", (2, 5, 4), "any"),
         ("wq", (2, 4, 4), "any"), ("wk", (2, 4, 4), "any"), ("wv", (2, 4, 4), "any"),
         ("wo", (2, 4, 4), "any"), ("bo", (2, 1, 4), "any")]),
    "feed_forward": (lambda a: feed_forward_node(a["x"], a),
                     [("x", (2, 3, 4), "any"), ("w1", (4, 6), "any"), ("b1", (6,), "any"),
                      ("w2", (6, 4), "any"), ("b2", (4,), "any")]),
    "feed_forward_batched_weights": (lambda a: feed_forward_node(a["x"], a),
                                     [("x", (3, 2, 4), "any"), ("w1", (3, 4, 6), "any"),
                                      ("b1", (3, 1, 6), "any"), ("w2", (3, 6, 4), "any"),
                                      ("b2", (3, 1, 4), "any")]),
}


@pytest.mark.parametrize("op", sorted(OPS))
def test_op_gradcheck(op):
    build, spec = OPS[op]
    _check(build, spec, seed=zlib.crc32(op.encode()) % 10000)


@pytest.mark.parametrize("index", [None] + list(range(8)),
                         ids=["clean", "dq", "dk", "dv", "dwq", "dwk", "dwv", "dwo", "dbo"])
def test_attention_gradcheck_catches_a_planted_error(plant_vjp_error, index):
    # one prefix group per parent, so every parent is sampled
    build, spec = OPS["attention"]
    if index is not None:
        plant_vjp_error("multi_head_attention", index)
    rep = _report(build, spec, seed=21, samples=48, prefixes=[name for name, _s, _k in spec])
    assert {e.name for e in rep.entries} == {name for name, _s, _k in spec}
    assert rep.ok(1e-4) is (index is None), rep.worst()


@pytest.mark.parametrize("op", ["feed_forward", "feed_forward_batched_weights"])
@pytest.mark.parametrize("index", [None] + list(range(5)),
                         ids=["clean", "dx", "dw1", "db1", "dw2", "db2"])
def test_feed_forward_gradcheck_catches_a_planted_error(plant_vjp_error, op, index):
    # one prefix group per parent, so every parent is sampled
    build, spec = OPS[op]
    if index is not None:
        plant_vjp_error("feed_forward", index)
    rep = _report(build, spec, seed=22, samples=30, prefixes=[name for name, _s, _k in spec])
    assert {e.name for e in rep.entries} == {name for name, _s, _k in spec}
    assert rep.ok(1e-4) is (index is None), rep.worst()


@pytest.mark.parametrize("spec", [
    [("x", (3, 4), "any"), ("w1", (4, 6), "any"), ("b1", (6,), "any"),
     ("w2", (6, 4), "any"), ("b2", (4,), "any")],
    OPS["feed_forward_batched_weights"][1]], ids=["shared", "batched_weights"])
def test_feed_forward_equals_composed_ops_bitwise(spec):
    # the FFN as generic tape ops around the reference GELU, as the fusion
    # composed it before the pair existed: same values and gradients to the
    # bit wherever no weight is shared across leading axes, whose gradient
    # the pair reduces over all rows at once
    results = []
    for fused in (True, False):
        rng = np.random.default_rng(24)
        a = {name: Tensor(rng.normal(size=shape), requires_grad=True) for name, shape, _k in spec}
        if fused:
            out = feed_forward_node(a["x"], a)
        else:
            out = matmul(gelu(matmul(a["x"], a["w1"]) + a["b1"]), a["w2"]) + a["b2"]
        tsum(out * Tensor(rng.normal(size=out.shape))).backward()
        results.append([out.data.tobytes()] + [t.grad.tobytes() for t in a.values()])
    assert results[0] == results[1]


@pytest.mark.parametrize("op", ["conv1d", "conv1d_per_level"])
@pytest.mark.parametrize("index", [None, 0, 1, 2], ids=["clean", "dx", "dkernel", "dbias"])
def test_conv1d_gradcheck_catches_a_planted_error(plant_vjp_error, op, index):
    # one prefix group per parent, so every parent is sampled
    build, spec = OPS[op]
    if index is not None:
        plant_vjp_error("conv1d", index)
    rep = _report(build, spec, seed=23, samples=30, prefixes=[name for name, _s, _k in spec])
    assert {e.name for e in rep.entries} == {name for name, _s, _k in spec}
    assert rep.ok(1e-4) is (index is None), rep.worst()


def _named_tree(n):
    p = ParamTree()
    for i in range(n):
        p.add(f"p{i:02d}", np.linspace(-1.0, 1.0, 2 + i % 3))
    return p


def _sum_of_squares(p):
    def loss():
        terms = [tsum(t * t) for _n, t in p.items()]
        return sum(terms[1:], terms[0])
    return loss


def test_gradcheck_default_checks_each_name_once():
    p = _named_tree(11)
    rep = gradcheck(_sum_of_squares(p), p, seed=2)
    assert sorted(e.name for e in rep.entries) == p.names()
    assert rep.ok(1e-4), rep.worst()


def test_gradcheck_cycles_visit_every_group_in_a_seeded_order():
    p = _named_tree(11)
    names = p.names()
    for seed in range(4):
        rep = gradcheck(_sum_of_squares(p), p, samples=3 * len(names), seed=seed)
        picked = [e.name for e in rep.entries]
        for c in range(3):
            assert sorted(picked[c * len(names):(c + 1) * len(names)]) == names
        # fewer samples than groups: not the first names in sorted order
        short = gradcheck(_sum_of_squares(p), p, samples=3, seed=seed)
        assert [e.name for e in short.entries] == picked[:3] != names[:3]


def test_gradcheck_prefix_groups_and_the_rest():
    p = _named_tree(11)
    rep = gradcheck(_sum_of_squares(p), p, seed=0, prefixes=["p03", "p07", "absent"])
    # one sample per group: p03, p07 and one of the rest; the empty group is dropped
    picked = [e.name for e in rep.entries]
    assert len(picked) == 3 and {"p03", "p07"} < set(picked)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_reports_nonfinite_loss():
    p = ParamTree()
    x = p.add("x", np.array([0.5]))
    y = p.add("y", np.array([1e-5]))

    def bad_loss():
        # finite at the base point, nan once y is perturbed below zero
        return tsum(x * x) + tsum(Tensor(np.log(y.data)))

    with pytest.raises(ad.NumericError):
        gradcheck(bad_loss, p, eps=1e-4, samples=50, seed=0)


@pytest.mark.parametrize("kwargs,fragment", [
    ({"samples": 0}, "samples must be >= 1"),
    ({"eps": 0.0}, "eps must be > 0"),
    ({"eps": float("nan")}, "eps must be > 0"),
])
def test_gradcheck_preconditions(kwargs, fragment):
    p = ParamTree()
    x = p.add("x", np.array([0.5]))
    with pytest.raises(ConfigError, match=fragment):
        gradcheck(lambda: tsum(x * x), p, **kwargs)
