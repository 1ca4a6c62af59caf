"""Numeric core: frozen examples, per-op gradchecks, algebra properties."""
from __future__ import annotations

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from himie import autodiff as ad
from himie.autodiff import (ConfigError, ParamTree, ShapeError, Tensor,
                            conv1d_seq, gradcheck, logsumexp,
                            matmul, multi_head_attention, pool_matrix,
                            pool_windows)


def test_matmul_examples():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]
    a = np.arange(4.0).reshape(2, 2) + 1.0
    assert np.array_equal(matmul(Tensor(np.eye(2)), Tensor(a)).data, a)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_conv1d_example():
    x = Tensor(np.array([[1.0], [2.0], [3.0]]))
    k = Tensor(np.ones((3, 1, 1)))
    b = Tensor(np.zeros(1))
    out = conv1d_seq(x, k, b)
    assert out.data.ravel().tolist() == [3.0, 6.0, 5.0]


def conv1d_reference(x, k, b):
    """Same-length convolution as a sum over windows, one output row at a time."""
    w, pad, L = k.shape[-3], k.shape[-3] // 2, x.shape[-2]
    out = np.zeros(np.broadcast_shapes(x.shape[:-2], k.shape[:-3]) + (L, k.shape[-1]))
    for l in range(L):
        for j in range(w):
            if 0 <= l + j - pad < L:
                out[..., l, :] += (x[..., [l + j - pad], :] @ k[..., j, :, :])[..., 0, :]
    return out + b


@pytest.mark.parametrize("x_shape,k_shape,b_shape", [
    ((5, 3), (3, 3, 2), (2,)),
    ((2, 5, 3), (3, 3, 2), (2,)),
    ((5, 3), (2, 3, 3, 2), (2, 1, 2)),
    ((2, 5, 3), (2, 5, 3, 2), (2, 1, 2)),
], ids=["plain", "shared_kernel", "shared_input", "batched"])
def test_conv1d_matches_window_sum(x_shape, k_shape, b_shape):
    rng = np.random.default_rng(len(x_shape) + len(k_shape))
    x, k, b = (rng.normal(size=s) for s in (x_shape, k_shape, b_shape))
    out = conv1d_seq(Tensor(x), Tensor(k), Tensor(b)).data
    assert np.allclose(out, conv1d_reference(x, k, b), rtol=0, atol=1e-12)


def test_conv1d_rejects_even_width():
    with pytest.raises(ConfigError):
        conv1d_seq(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)))


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


def test_logsumexp_matches_numpy():
    x = np.random.default_rng(2).normal(size=(4, 6))
    got = logsumexp(Tensor(x), axis=-1).data
    want = np.log(np.exp(x).sum(axis=-1))
    assert np.allclose(got, want, atol=1e-12)


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
    out = multi_head_attention(q, k, v, 2, p).data
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
    out = multi_head_attention(q, k, v, 4, p).data
    assert np.allclose(out, np.broadcast_to(p["bo"].data, out.shape), atol=1e-15)


def test_attention_uniform_scores_average_values():
    d = 4
    p = _mha_params(d, identity=True)
    rng = np.random.default_rng(5)
    q = Tensor(rng.normal(size=(3, d)))
    k = Tensor(np.ones((6, d)))  # constant keys -> uniform attention
    v = Tensor(rng.normal(size=(6, d)))
    out = multi_head_attention(q, k, v, 1, p).data
    assert np.allclose(out, np.broadcast_to(v.data.mean(axis=0), out.shape), atol=1e-12)


def test_attention_head_mismatch_is_config_error():
    p = _mha_params(6, np.random.default_rng(6))
    x = Tensor(np.zeros((2, 6)))
    with pytest.raises(ConfigError):
        multi_head_attention(x, x, x, 4, p)


def test_attention_batched_matches_each_slice():
    rng = np.random.default_rng(8)
    d = 8
    p = _mha_params(d, rng)
    q = rng.normal(size=(3, 5, d))
    k = rng.normal(size=(3, 7, d))
    v = rng.normal(size=(3, 7, d))
    out = multi_head_attention(Tensor(q), Tensor(k), Tensor(v), 2, p).data
    assert out.shape == (3, 5, d)
    for b in range(3):
        want = multi_head_attention(Tensor(q[b]), Tensor(k[b]), Tensor(v[b]), 2, p).data
        assert np.max(np.abs(out[b] - want)) < 1e-12


def test_attention_is_one_tape_node():
    rng = np.random.default_rng(9)
    p = _mha_params(4, rng)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    out = multi_head_attention(x, x, x, 2, p)
    assert out._parents == (x, x, x, p["wq"], p["wk"], p["wv"], p["wo"], p["bo"])


def test_attention_batch_axes_must_agree():
    p = _mha_params(4, np.random.default_rng(10))
    q = Tensor(np.zeros((2, 3, 4)))
    kv = Tensor(np.zeros((3, 5, 4)))
    with pytest.raises(ShapeError, match="batch axes"):
        multi_head_attention(q, kv, kv, 2, p)
    with pytest.raises(ShapeError, match="rank"):
        multi_head_attention(q, Tensor(np.zeros((5, 4))), Tensor(np.zeros((5, 4))), 2, p)
    per_entry = {n: Tensor(np.zeros((3, 4, 4))) for n in ("wq", "wk", "wv", "wo")}
    per_entry["bo"] = Tensor(np.zeros((3, 1, 4)))
    with pytest.raises(ShapeError, match="leading axes"):
        multi_head_attention(q, q, q, 2, per_entry)


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
    out = multi_head_attention(Tensor(q, requires_grad=True), Tensor(k), Tensor(v), 4,
                               {n: Tensor(a) for n, a in w.items()})
    assert out.data.tobytes() == ref_out.tobytes()
    grads = out._vjp(g)
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


@pytest.mark.parametrize("key", [slice(None, 3), (slice(1, 3), slice(None, 2)),
                                 (Ellipsis, 1), 2, (1, 0), (None, slice(2, 4))],
                         ids=["rows", "block", "ellipsis", "int", "scalar", "newaxis"])
def test_basic_slice_vjp_equals_add_at_bitwise(key):
    a = Tensor(np.random.default_rng(16).normal(size=(5, 4)), requires_grad=True)
    out = ad.getitem(a, key)
    g = np.random.default_rng(17).normal(size=out.shape)
    if g.ndim:
        g.reshape(-1)[::3] = -0.0  # add.at makes 0 + -0.0 = +0.0; assignment would not
    want = np.zeros_like(a.data)
    np.add.at(want, key, g)
    (got,) = out._vjp(g)
    assert got.tobytes() == want.tobytes()


def test_param_tree_order_and_duplicates():
    p = ParamTree()
    p.add("b.x", np.zeros(2))
    p.add("a.y", np.zeros(3))
    p.add("a.b", np.zeros(1))
    assert p.names() == ["a.b", "a.y", "b.x"]
    assert p.n_scalars() == 6
    with pytest.raises(ConfigError):
        p.add("a.y", np.zeros(3))
    g = p.grads()
    assert set(g) == {"a.b", "a.y", "b.x"}
    assert all(np.array_equal(v, np.zeros_like(v)) for v in g.values())


def test_backward_accumulates_shared_input():
    p = ParamTree()
    x = p.add("x", np.array([2.0, 3.0]))
    y = (x * x).sum() + x.sum() * 4.0
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
        via_add = ((a + b) * Tensor(wb)).sum() + ((c + a) * Tensor(wc)).sum()
        direct = (a * Tensor(wa)).sum()
        return via_add + direct if add_path_first else direct + via_add

    loss().backward()
    assert np.array_equal(b.grad, wb)
    assert np.array_equal(c.grad, wc)
    assert np.allclose(a.grad, wa + wb + wc, rtol=0, atol=1e-15)
    loss().backward()  # a second tape accumulates on top of the first
    assert np.array_equal(b.grad, 2 * wb)
    assert np.array_equal(c.grad, 2 * wc)
    assert np.allclose(a.grad, 2 * (wa + wb + wc), rtol=0, atol=1e-15)


def test_backward_twice_on_one_tape_doubles_leaf_gradients():
    # interior nodes reached along several paths must not carry the first
    # pass's gradient into the second
    p = ParamTree()
    a = p.add("a", np.array([1.0, 2.0]))
    h = a * a
    loss = ((h + h) * (h + a)).sum()
    loss.backward()
    once = a.grad.copy()
    loss.backward()
    assert np.array_equal(a.grad, 2 * once)
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._vjp is not None:
                assert node.grad is None
            stack.extend(node._parents)
    assert len(seen) == 6


def count_tape_nodes(monkeypatch) -> list:
    """Record the op kind of every node the tape builds from now on."""
    made = []
    make_result = Tensor._result

    def counted(data, parents, vjp):
        out = make_result(data, parents, vjp)
        if out.requires_grad:
            made.append(vjp.__qualname__.split(".", 1)[0])
        return out

    monkeypatch.setattr(Tensor, "_result", staticmethod(counted))
    return made


class TestNoGrad:
    def test_records_nothing_and_keeps_values(self, monkeypatch):
        x = Tensor(np.random.default_rng(12).normal(size=(3, 4)), requires_grad=True)
        made = count_tape_nodes(monkeypatch)
        taped = logsumexp(x @ x.reshape(4, 3), axis=-1)
        assert len(made) == 3
        with ad.no_grad():
            free = logsumexp(x @ x.reshape(4, 3), axis=-1)
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
        with pytest.raises(ShapeError):
            with ad.no_grad():
                matmul(x, x)
        assert (x * 2.0).requires_grad


def test_gradcheck_perturbed_passes_equal_recording_passes():
    rng = np.random.default_rng(13)
    p = ParamTree()
    x, w = p.add("x", rng.normal(size=(3, 4))), p.add("w", rng.normal(size=(4, 4)))
    taped = []

    def loss_fn():
        out = (ad.gelu(x @ w) * ad.sigmoid(x)).sum()
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


def test_determinism_bitwise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 5))
    a = logsumexp(Tensor(x), axis=-1).data
    b = logsumexp(Tensor(x.copy()), axis=-1).data
    assert a.tobytes() == b.tobytes()


# -- per-operation gradchecks --------------------------------------------

def _check(build, n_params_spec, seed, samples=50):
    rep = _report(build, n_params_spec, seed, samples)
    assert rep.ok(1e-4), f"max rel err {rep.max_rel_err} at {rep.worst()}"


def _report(build, n_params_spec, seed, samples=50, prefixes=None):
    rng = np.random.default_rng(seed)
    params = ParamTree()
    arrays = {}
    for name, shape, kind in n_params_spec:
        a = rng.normal(size=shape)
        if kind == "nokink":
            a = a + 0.05 * np.sign(a) + (a == 0) * 0.05
        arrays[name] = params.add(name, a)
    w_cache = {}

    def loss_fn():
        out = build(arrays)
        if "w" not in w_cache:
            w_cache["w"] = np.random.default_rng(seed + 1).normal(size=out.data.shape)
        return (out * Tensor(w_cache["w"])).sum()

    return gradcheck(loss_fn, params, eps=1e-4, samples=samples, seed=seed, prefixes=prefixes)


OPS = {
    "add": (lambda a: a["x"] + a["y"], [("x", (3, 4), "any"), ("y", (3, 4), "any")]),
    "add_broadcast": (lambda a: a["x"] + a["y"], [("x", (3, 4), "any"), ("y", (1, 4), "any")]),
    "mul": (lambda a: a["x"] * a["y"], [("x", (3, 4), "any"), ("y", (3, 4), "any")]),
    "matmul": (lambda a: a["x"] @ a["y"], [("x", (3, 4), "any"), ("y", (4, 2), "any")]),
    "matmul_batched": (lambda a: a["x"] @ a["y"], [("x", (2, 3, 4), "any"), ("y", (2, 4, 2), "any")]),
    "exp": (lambda a: ad.texp(a["x"]), [("x", (3, 3), "any")]),
    "sigmoid": (lambda a: ad.sigmoid(a["x"]), [("x", (3, 3), "any")]),
    "relu": (lambda a: ad.relu(a["x"]), [("x", (4, 4), "nokink")]),
    "gelu": (lambda a: ad.gelu(a["x"]), [("x", (4, 4), "any")]),
    "abs": (lambda a: ad.tabs(a["x"]), [("x", (4, 4), "nokink")]),
    "sum_axis": (lambda a: a["x"].sum(axis=0), [("x", (3, 4), "any")]),
    "mean_keepdims": (lambda a: a["x"].mean(axis=1, keepdims=True), [("x", (3, 4), "any")]),
    "reshape": (lambda a: a["x"].reshape(2, 6), [("x", (3, 4), "any")]),
    "concat": (lambda a: ad.concat([a["x"], a["y"]], axis=0), [("x", (2, 4), "any"), ("y", (3, 4), "any")]),
    "getitem_slice": (lambda a: a["x"][1:3, :2], [("x", (4, 4), "any")]),
    "index_rows": (lambda a: ad.index_rows(a["x"], np.array([0, 2, 2, 1])), [("x", (4, 3), "any")]),
    "logsumexp": (lambda a: logsumexp(a["x"], axis=-1), [("x", (3, 5), "any")]),
    "conv1d_seq": (lambda a: conv1d_seq(a["x"], a["k"], a["b"]),
                   [("x", (5, 3), "any"), ("k", (3, 3, 2), "any"), ("b", (2,), "any")]),
    "conv1d_seq_batched_weights": (lambda a: conv1d_seq(a["x"], a["k"], a["b"]),
                                   [("x", (2, 5, 3), "any"), ("k", (2, 3, 3, 2), "any"),
                                    ("b", (2, 1, 2), "any")]),
    "avg_pool_down": (lambda a: Tensor(pool_matrix(7, 3)) @ a["x"], [("x", (7, 4), "any")]),
    "avg_pool_up": (lambda a: Tensor(pool_matrix(4, 9)) @ a["x"], [("x", (4, 4), "any")]),
    "attention": (lambda a: multi_head_attention(
        a["q"], a["k"], a["v"], 2,
        {"wq": a["wq"], "wk": a["wk"], "wv": a["wv"], "wo": a["wo"], "bo": a["bo"]}),
        [("q", (3, 4), "any"), ("k", (5, 4), "any"), ("v", (5, 4), "any"),
         ("wq", (4, 4), "any"), ("wk", (4, 4), "any"), ("wv", (4, 4), "any"),
         ("wo", (4, 4), "any"), ("bo", (4,), "any")]),
    "attention_batched": (lambda a: multi_head_attention(
        a["q"], a["k"], a["v"], 2,
        {"wq": a["wq"], "wk": a["wk"], "wv": a["wv"], "wo": a["wo"], "bo": a["bo"]}),
        [("q", (2, 3, 4), "any"), ("k", (2, 5, 4), "any"), ("v", (2, 5, 4), "any"),
         ("wq", (4, 4), "any"), ("wk", (4, 4), "any"), ("wv", (4, 4), "any"),
         ("wo", (4, 4), "any"), ("bo", (4,), "any")]),
    "attention_batched_weights": (lambda a: multi_head_attention(
        a["q"], a["k"], a["v"], 2,
        {"wq": a["wq"], "wk": a["wk"], "wv": a["wv"], "wo": a["wo"], "bo": a["bo"]}),
        [("q", (2, 3, 4), "any"), ("k", (2, 5, 4), "any"), ("v", (2, 5, 4), "any"),
         ("wq", (2, 4, 4), "any"), ("wk", (2, 4, 4), "any"), ("wv", (2, 4, 4), "any"),
         ("wo", (2, 4, 4), "any"), ("bo", (2, 1, 4), "any")]),
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


@pytest.mark.parametrize("index", [None, 0, 1, 2], ids=["clean", "dx", "dkernel", "dbias"])
def test_conv1d_seq_gradcheck_catches_a_planted_error(plant_vjp_error, index):
    # one prefix group per parent, so every parent is sampled
    build, spec = OPS["conv1d_seq"]
    if index is not None:
        plant_vjp_error("conv1d_seq", index)
    rep = _report(build, spec, seed=23, samples=30, prefixes=[name for name, _s, _k in spec])
    assert {e.name for e in rep.entries} == {name for name, _s, _k in spec}
    assert rep.ok(1e-4) is (index is None), rep.worst()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gradcheck_reports_nonfinite_loss():
    p = ParamTree()
    x = p.add("x", np.array([0.5]))
    y = p.add("y", np.array([1e-5]))

    def bad_loss():
        # finite at the base point, nan once y is perturbed below zero
        return (x * x).sum() + Tensor(np.log(y.data)).sum()

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
        gradcheck(lambda: (x * x).sum(), p, **kwargs)
