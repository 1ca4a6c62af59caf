"""Shared test fixtures."""
import pytest

from himie.autodiff import Tensor, multi_head_attention


def attention_node(q, k, v, heads, weights) -> Tensor:
    """`multi_head_attention` recorded as one tape node, as `dffm.fuse_levels`
    records it: parents (q, k, v, wq, wk, wv, wo, bo), where `weights` maps
    each of the five names to a Tensor."""
    w = tuple(weights[n] for n in ("wq", "wk", "wv", "wo", "bo"))
    out, vjp = multi_head_attention(q.data, k.data, v.data, heads, [t.data for t in w])
    return Tensor._result(out, (q, k, v) + w, vjp)


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
