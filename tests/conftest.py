"""Shared test fixtures."""
import numpy as np
import pytest

from himie.autodiff import (Tensor, conv1d, feed_forward, gelu_cdf, gelu_slope,
                            multi_head_attention)


def gelu(a: Tensor) -> Tensor:
    """Exact-erf GELU as a tape op of its own, composed from `gelu_cdf` and
    `gelu_slope`: the reference the `feed_forward` pair is checked against."""
    cdf = gelu_cdf(a.data)
    return Tensor._result(a.data * cdf, (a,), lambda g: (g * gelu_slope(a.data, cdf),))


def getitem(a: Tensor, key) -> Tensor:
    """`a.data[key]` for any numpy index as a tape op, its VJP a scatter-add
    into zeros: the general indexing the composed reference graphs use."""
    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, key, g)
        return (buf,)

    return Tensor._result(a.data[key], (a,), vjp)


def attention_node(q, k, v, heads, weights) -> Tensor:
    """`multi_head_attention` recorded as one tape node, as `dffm.fuse_levels`
    records it: parents (q, k, v, wq, wk, wv, wo, bo), where `weights` maps
    each of the five names to a Tensor."""
    w = tuple(weights[n] for n in ("wq", "wk", "wv", "wo", "bo"))
    out, vjp = multi_head_attention(q.data, k.data, v.data, heads, [t.data for t in w])
    return Tensor._result(out, (q, k, v) + w, vjp)


def feed_forward_node(x, weights) -> Tensor:
    """`feed_forward` recorded as one tape node, as `dffm.fuse_levels` records
    it: parents (x, w1, b1, w2, b2), where `weights` maps each name to a Tensor."""
    w = tuple(weights[n] for n in ("w1", "b1", "w2", "b2"))
    out, vjp = feed_forward(x.data, *(t.data for t in w))
    return Tensor._result(out, (x,) + w, vjp)


def conv1d_node(x, kernel, bias) -> Tensor:
    """`conv1d` recorded as one tape node: parents (x, kernel, bias)."""
    out, vjp = conv1d(x.data, kernel.data, bias.data)
    return Tensor._result(out, (x, kernel, bias), vjp)


def conv1d_reference(x, k, b):
    """Same-length convolution as a sum over windows, one output row at a time."""
    w, pad, L = k.shape[-3], k.shape[-3] // 2, x.shape[-2]
    out = np.zeros(np.broadcast_shapes(x.shape[:-2], k.shape[:-3]) + (L, k.shape[-1]))
    for l in range(L):
        for j in range(w):
            if 0 <= l + j - pad < L:
                out[..., l, :] += (x[..., [l + j - pad], :] @ k[..., j, :, :])[..., 0, :]
    return out + b


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


@pytest.fixture
def plant_vjp_error(monkeypatch):
    """plant(kind, index): scale output `index` of the VJP of every op `kind`
    node built from then on by 1 + 1e-3, a mutant a gradcheck must catch."""
    def plant(kind: str, index: int) -> None:
        make_result = Tensor._result

        def planted(data, parents, vjp):
            if vjp.__qualname__.split(".", 1)[0] == kind:
                clean = vjp

                def vjp(g):
                    grads = list(clean(g))
                    grads[index] = grads[index] * (1.0 + 1e-3)
                    return tuple(grads)
            return make_result(data, parents, vjp)

        monkeypatch.setattr(Tensor, "_result", staticmethod(planted))
    return plant
