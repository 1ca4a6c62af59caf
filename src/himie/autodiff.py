"""Reverse-mode automatic differentiation over float64 numpy arrays.

Everything the model touches is a `Tensor`: a float64 ndarray plus the tape
hooks needed for `backward()`. Operations build the tape lazily; results whose
inputs carry no gradient short-circuit to plain constants, so unused branches
(for example blank-filled modality features) never appear in the gradient
support.

The tape ops here are `add`, `mul`, `matmul`, `texp`, `tsum`, `tmean`,
`reshape` and `index_rows`, the one gather (an embedding lookup, or a prefix
of rows over `np.arange(n)`). The operator sugar is `+`, binary `-` and `*`,
with `shape`; nothing else of numpy's array surface is mirrored. The fused
nodes of the other modules record themselves through `Tensor._result`.

Inside `with no_grad():` no operation records a tape: every result is a
constant, so inference builds no parents, no VJP closures and no gradient
support.

A tape supports one backward pass. `backward()` frees each interior node's
parents and VJP closure, with the arrays the closure saved, as soon as the pass
has used them, so the tape shrinks while it is walked and nothing of it outlives
the pass but the tensors' `data`. A second `backward()` that reaches a spent
node raises `RuntimeError` before it touches any gradient.

`backward()` accumulates into the `grad` array of each leaf in place. A leaf's
`grad` is always an array the leaf owns: either a buffer bound to it from
outside (the optimizer binds each parameter to its view of one flat gradient
buffer) or a copy made when the first gradient reaches it. VJPs may hand the
same array to several parents, so no VJP output is ever written in place.

`layer_norm` (with `layer_norm_vjp`), `multi_head_attention`,
`feed_forward` (the exact-erf GELU FFN) and `conv1d` are numpy pairs, not
tape ops: arrays in, the output and its VJP out. A caller on the tape
records the node itself, as `encoders.run_block` does for a whole block,
`dffm.fuse_levels` for one attention node and one FFN node, and `mmcm` for
one construction node. A pair's VJP keeps only what one matmul cannot
rebuild: attention keeps q, k, v, the softmax row max and row sum and the
merged context, and recomputes the per-head projections and the weights;
the FFN keeps x and Phi(x @ w1 + b1), the exact-erf pass, and recomputes
the pre-activation; `layer_norm_vjp` takes xhat and the inverse deviation;
`conv1d` keeps its padded input. Every recomputation repeats the forward's
operations, so the gradients are bitwise the same as from saved arrays.

A VJP returns `None` for a parent that carries no gradient where skipping
its product saves work (`add`, `mul`, `matmul`); `backward` sends only to
parents with `requires_grad`, so the leaves get the same gradients either way.

In-place rule: an op or VJP writes in place (`out=`, `+=`) only into arrays it
allocated itself, and never writes to an array after handing it out, whether
saved for the backward pass, returned or passed on. The attention softmax
chain and the GELU helpers run in one buffer each this way, so their
temporaries stay in cache and their results equal the allocating formulas
to the bit.

All operations are deterministic (identical inputs give bitwise identical
outputs) and map finite inputs to finite outputs. `gradcheck` compares the
tape's gradients against central finite differences.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Operand shapes are incompatible with the operation."""


class ConfigError(ValueError):
    """A structural/setting precondition is violated."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


_recording = True  # one flag for the process; `no_grad` clears and restores it
_SPENT = object()  # the `_vjp` of an interior node whose backward pass has run


@contextmanager
def no_grad():
    """Build no tape inside the block; the previous setting returns on exit.

    Values are computed exactly as with the tape on, so results are bitwise
    equal; only the recording is skipped. Blocks may nest.
    """
    global _recording
    before, _recording = _recording, False
    try:
        yield
    finally:
        _recording = before


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _f64(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None

    @staticmethod
    def _result(data, parents, vjp) -> "Tensor":
        out = Tensor(data)
        if _recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    @property
    def shape(self):
        return self.data.shape

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every reachable leaf.

        The walk frees each interior node's parents and VJP closure, and the
        arrays it saved, once the node is done, so the tape supports one
        backward pass; a second one through a spent node raises `RuntimeError`
        before any gradient moves.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._vjp is _SPENT:
                raise RuntimeError("backward() reached a node whose backward pass already "
                                   "ran; a tape supports one backward pass")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:  # leaves get their gradients through `send`
                if p._vjp is not None and p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        # interior gradients live only until their VJP has run: none keeps a `.grad`
        held: dict[int, np.ndarray] = {}

        def send(p: Tensor, g: np.ndarray) -> None:
            if p._vjp is not None:  # interior: never written in place, may share g
                held[id(p)] = g if id(p) not in held else held[id(p)] + g
            elif p.grad is None:
                p.grad = np.array(g)  # g may be another parent's gradient too
            else:
                p.grad += g

        send(self, np.ones_like(self.data))
        while order:  # popping drops the walk's reference to each finished node
            node = order.pop()
            if node._vjp is None:  # a leaf root: `send` has already written its grad
                continue
            g = held.pop(id(node), None)
            if g is not None:
                for p, gp in zip(node._parents, node._vjp(g)):
                    if gp is not None and p.requires_grad:
                        send(p, gp)
            node._parents, node._vjp = (), _SPENT

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"


def _t(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = np.add.reduce(g, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = np.add.reduce(g, axis=axes, keepdims=True)
    return g.reshape(shape)


# -- arithmetic ---------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return Tensor._result(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    if not isinstance(b, Tensor) and np.isscalar(b):
        a = _t(a)
        s = float(b)
        return Tensor._result(a.data * s, (a,), lambda g: (g * s,))
    a, b = _t(a), _t(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return Tensor._result(out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = _t(a), _t(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def vjp(g):
        ga = _unbroadcast(g @ _tr(b.data), a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(_tr(a.data) @ g, b.data.shape) if b.requires_grad else None
        return ga, gb

    return Tensor._result(out, (a, b), vjp)


# -- elementwise nonlinearities -----------------------------------------


def texp(a) -> Tensor:
    a = _t(a)
    out = np.exp(a.data)
    return Tensor._result(out, (a,), lambda g: (g * out,))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), the standard normal CDF; exact-erf
    GELU is x * Phi(x). One array is allocated and every step runs in it."""
    out = np.divide(x, _SQRT2)
    erf(out, out=out)
    np.add(out, 1.0, out=out)
    return np.multiply(out, 0.5, out=out)


def gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d GELU / dx = Phi(x) + x*phi(x), given cdf = Phi(x); one array, as above."""
    out = np.multiply(x, -0.5)
    np.multiply(out, x, out=out)
    np.exp(out, out=out)
    np.multiply(out, _INV_SQRT_2PI, out=out)
    np.multiply(x, out, out=out)
    return np.add(cdf, out, out=out)


# -- reductions and shape ops -------------------------------------------


def tsum(a, axis=None) -> Tensor:
    a = _t(a)
    out = a.data.sum(axis=axis)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor._result(out, (a,), vjp)


def tmean(a, axis=None) -> Tensor:
    a = _t(a)
    total = tsum(a, axis=axis)
    return mul(total, total.data.size / a.data.size)  # 1/n, rounded as 1.0/n is


def reshape(a, shape) -> Tensor:
    a = _t(a)
    out = a.data.reshape(shape)
    return Tensor._result(out, (a,), lambda g: (g.reshape(a.data.shape),))


def index_rows(a, idx) -> Tensor:
    """Rows `idx` of `a` along its first axis: the tape's one gather, for an
    embedding lookup or, over `np.arange(n)`, a prefix of rows. The VJP
    scatter-adds, so a row gathered twice gets both gradients."""
    a = _t(a)
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return Tensor._result(a.data[idx], (a,), vjp)


# -- fused numeric kernels ----------------------------------------------


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
               eps: float = 1e-5) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Plain numpy; returns (out, xhat, inv), the last two for `layer_norm_vjp`.
    """
    d = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True) / d  # `x.mean(...)` to the bit
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def layer_norm_vjp(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                   inv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dgain, dbias) of `layer_norm` for the output gradient g."""
    d = g.shape[-1]
    dxhat = g * gain
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / d
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d
    dx = inv * (dxhat - m1 - xhat * m2)
    axes = tuple(range(g.ndim - 1))
    return dx, np.add.reduce(g * xhat, axis=axes), np.add.reduce(g, axis=axes)


def pool_windows(L: int, T: int) -> list[tuple[int, int]]:
    """Window [floor(t*L/T), ceil((t+1)*L/T)) per output row; covers every input row."""
    return [((t * L) // T, -((-(t + 1) * L) // T)) for t in range(T)]


def pool_matrix(L: int, T: int) -> np.ndarray:
    """[T, L] weights that average-pool L rows down (or up) to T rows.

    Row t averages window t of `pool_windows(L, T)`, so `pool_matrix(L, T) @ x`
    is the adaptive average pool of x along its first axis.
    """
    if L < 1 or T < 1:
        raise ShapeError(f"pool_matrix needs L >= 1 and T >= 1, got L={L}, T={T}")
    start, end = np.array(pool_windows(L, T)).T
    rows = np.arange(L)
    inside = (rows >= start[:, None]) & (rows < end[:, None])
    return inside / (end - start)[:, None]


def _tr(w: np.ndarray) -> np.ndarray:
    return w.swapaxes(-1, -2)


def _wgrad(x: np.ndarray, dy: np.ndarray, batched: bool) -> np.ndarray:
    """d(x @ w)/dw for the output gradient dy, summed over the rows that share w."""
    if batched:
        return _tr(x) @ dy
    return x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])


def _bgrad(dy: np.ndarray, batched: bool) -> np.ndarray:
    """d(y + b)/db for the output gradient dy, summed over the rows that share b."""
    if batched:
        return np.add.reduce(dy, axis=-2, keepdims=True)
    return np.add.reduce(dy.reshape(-1, dy.shape[-1]), axis=0)


def multi_head_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int, weights) -> tuple:
    """Scaled dot-product attention with per-head projections, a numpy pair
    like `layer_norm`: returns (out, vjp), where vjp(g) gives the gradients of
    (q, k, v, wq, wk, wv, wo, bo) for the output gradient g.

    q: [..., Lq, d], k/v: [..., Lk, d] with the same leading batch axes; each
    batch entry attends only within itself. Per-head q/k/v projections are
    bias-free; the output projection carries the only bias. Scores scale by
    1/sqrt(d/heads). `weights` holds the arrays (wq, wk, wv, wo, bo): either
    shared ([d, d], bias [d]) or one set per batch entry, whose leading axes
    equal the inputs' batch axes ([..., d, d], bias [..., 1, d]). Weight
    gradients reduce over all rows in the first case and over the rows of
    each batch entry in the second.

    The backward pass is derived by hand. It keeps q, k, v, the row max, the
    row sum and the merged context, and recomputes the rest: the per-head
    projections from q/k/v, one matmul each, and, as in FlashAttention (Dao
    et al. 2022), the attention weights from the saved row max and row sum.
    It gets the softmax term from rowsum(dC * C) per query, C read back from
    the merged context.
    """
    if q.ndim < 2 or k.ndim != q.ndim or v.ndim != q.ndim:
        raise ShapeError(f"attention expects q/k/v of equal rank >= 2, got {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[-1]
    if k.shape[-1] != d or v.shape[-1] != d:
        raise ShapeError(f"attention width mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    if k.shape != v.shape:
        raise ShapeError(f"k and v row counts differ: {k.shape} vs {v.shape}")
    if k.shape[:-2] != q.shape[:-2]:
        raise ShapeError(f"attention batch axes differ: q {q.shape}, k {k.shape}")
    if d % heads != 0:
        raise ConfigError(f"model width {d} not divisible by heads {heads}")
    wq, wk, wv, wo, bo = weights
    batched = wq.ndim > 2
    if batched and any(w.shape[:-2] != q.shape[:-2] for w in weights):
        raise ShapeError(f"attention weights' leading axes must equal the batch axes of q {q.shape}")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)

    def split(x):  # [..., L, d] -> [..., heads, L, dh]
        return x.reshape(x.shape[:-1] + (heads, dh)).swapaxes(-2, -3)

    def merge(x):  # [..., heads, L, dh] -> [..., L, d]
        x = x.swapaxes(-2, -3)
        return x.reshape(x.shape[:-2] + (d,))

    Qh, Kh, Vh = split(q @ wq), split(k @ wk), split(v @ wv)
    attn = Qh @ _tr(Kh)  # [..., heads, Lq, Lk]; softmaxed in place
    np.multiply(attn, scale, out=attn)
    row_max = np.maximum.reduce(attn, axis=-1, keepdims=True)
    np.subtract(attn, row_max, out=attn)
    np.exp(attn, out=attn)
    row_sum = np.add.reduce(attn, axis=-1, keepdims=True)
    merged = merge(np.divide(attn, row_sum, out=attn) @ Vh)  # the context, [..., Lq, d]
    out = merged @ wo + bo

    def vjp(g):
        Qh, Kh, Vh = split(q @ wq), split(k @ wk), split(v @ wv)
        attn = Qh @ _tr(Kh)  # the forward's weights, by the same in-place chain
        np.multiply(attn, scale, out=attn)
        np.subtract(attn, row_max, out=attn)
        np.exp(attn, out=attn)
        np.divide(attn, row_sum, out=attn)
        dctx = split(g @ _tr(wo))
        dscores = dctx @ _tr(Vh)  # dattn, turned into dscores in place
        dvh = _tr(attn) @ dctx
        np.subtract(dscores, np.add.reduce(dctx * split(merged), axis=-1, keepdims=True),
                    out=dscores)
        np.multiply(attn, dscores, out=dscores)
        np.multiply(dscores, scale, out=dscores)
        dQ, dK, dV = merge(dscores @ Kh), merge(_tr(dscores) @ Qh), merge(dvh)
        return (dQ @ _tr(wq), dK @ _tr(wk), dV @ _tr(wv), _wgrad(q, dQ, batched),
                _wgrad(k, dK, batched), _wgrad(v, dV, batched), _wgrad(merged, g, batched),
                _bgrad(g, batched))

    return out, vjp


def feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                 b2: np.ndarray) -> tuple:
    """The exact-erf GELU feed-forward gelu(x @ w1 + b1) @ w2 + b2, a numpy
    pair like `multi_head_attention`: returns (out, vjp), where vjp(g) gives
    the gradients of (x, w1, b1, w2, b2) for the output gradient g.

    x: [..., L, d]. The weights are shared (w1 [d, h], b1 [h], w2 [h, d],
    b2 [d]) or one set per batch entry, whose leading axes equal x's batch
    axes (w1 [..., d, h], biases [..., 1, h] and [..., 1, d]); weight
    gradients reduce as in `multi_head_attention`. The backward pass
    keeps x and Phi(u) and recomputes the pre-activation u = x @ w1 + b1,
    one matmul, and from it the GELU output; the erf pass is the one step
    it does not redo.
    """
    batched = w1.ndim > 2
    u = x @ w1 + b1
    cdf = gelu_cdf(u)
    out = (u * cdf) @ w2 + b2

    def vjp(g):
        u = x @ w1 + b1
        du = (g @ _tr(w2)) * gelu_slope(u, cdf)
        return (du @ _tr(w1), _wgrad(x, du, batched), _bgrad(du, batched),
                _wgrad(u * cdf, g, batched), _bgrad(g, batched))

    return out, vjp


def conv1d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> tuple:
    """Same-length 1-D convolution over the row axis of x [..., L, d_in], a
    numpy pair like `feed_forward`: returns (out, vjp), where vjp(g) gives
    the gradients of (x, kernel, bias) for the output gradient g.

    For x [L, d_in] the kernel is [w, d_in, d_out] with odd w and the bias
    [d_out]; for batched x there is one kernel and bias per batch entry,
    whose leading axes equal x's batch axes ([..., w, d_in, d_out] and
    [..., 1, d_out]). Zero padding of w//2 rows on both ends keeps the
    output length L. The output and both gradients are sums or stacks over
    the w shifted matmuls.
    """
    w, L = kernel.shape[-3], x.shape[-2]
    if w % 2 != 1:
        raise ConfigError(f"conv1d kernel width must be odd, got {w}")
    pad = w // 2
    xp = np.zeros(x.shape[:-2] + (L + 2 * pad, x.shape[-1]))
    xp[..., pad:pad + L, :] = x
    taps = [xp[..., k:k + L, :] for k in range(w)]  # tap k reads rows l + k - pad
    out = sum(tap @ kernel[..., k, :, :] for k, tap in enumerate(taps)) + bias

    def vjp(g):
        dxp = np.zeros(xp.shape)
        for k in range(w):
            dxp[..., k:k + L, :] += g @ _tr(kernel[..., k, :, :])
        return (dxp[..., pad:pad + L, :], np.stack([_tr(tap) @ g for tap in taps], axis=-3),
                _bgrad(g, kernel.ndim > 3))

    return out, vjp


# -- parameter containers ------------------------------------------------


class ParamTree:
    """Named float64 parameters with deterministic (lexicographic) iteration.

    Names are dot-separated paths; every entry is trainable. Gradients live on
    the tensors themselves after backward().
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name}")
        t = Tensor(value, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def zero_grad(self) -> None:
        """Zero every gradient in place, so buffers bound to the tensors stay bound."""
        for t in self._params.values():
            if t.grad is not None:
                t.grad.fill(0.0)

    def grads(self) -> dict[str, np.ndarray]:
        """Gradient tree mirroring names/shapes; zeros where nothing flowed."""
        out = {}
        for name, t in self.items():
            out[name] = np.zeros_like(t.data) if t.grad is None else t.grad
        return out

    def scoped(self, prefix: str) -> "_Scope":
        return _Scope(self, prefix)


class _Scope:
    """Prefix view over a ParamTree, for `p['wq']` style access in modules."""

    def __init__(self, tree: ParamTree, prefix: str):
        self._tree = tree
        self._prefix = prefix

    def __getitem__(self, name: str) -> Tensor:
        return self._tree[f"{self._prefix}.{name}"]

    def add(self, name: str, value) -> Tensor:
        return self._tree.add(f"{self._prefix}.{name}", value)

    def scoped(self, sub: str) -> "_Scope":
        return _Scope(self._tree, f"{self._prefix}.{sub}")


# -- gradient checking ---------------------------------------------------


@dataclass
class GradCheckEntry:
    name: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradReport:
    entries: list[GradCheckEntry]
    eps: float

    @property
    def max_rel_err(self) -> float:
        return max((e.rel_err for e in self.entries), default=0.0)

    def ok(self, tol: float = 1e-4) -> bool:
        return self.max_rel_err < tol

    def worst(self) -> GradCheckEntry | None:
        return max(self.entries, key=lambda e: e.rel_err, default=None)


def _rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def gradcheck(loss_fn, params: ParamTree, *, eps: float = 1e-4, samples: int | None = None,
              seed: int = 0, prefixes=None) -> GradReport:
    """Compare tape gradients with central finite differences.

    Groups the parameter names by `prefixes or params.names()`: the names
    under each prefix, then the rest, with empty groups dropped, so with no
    prefixes every name is its own group. Each cycle visits the groups in a
    seeded permutation and draws a uniform name of the group and a uniform
    scalar of that name, until `samples` scalars are drawn; `samples=None`
    draws one per group, so by default every parameter name is checked once.
    Reports per-sample relative errors |a - n| / max(1e-8, |a| + |n|).
    The perturbed passes run under `no_grad`, which leaves their values
    bitwise unchanged.
    """
    if samples is not None and samples < 1:
        raise ConfigError(f"gradcheck: samples must be >= 1, got {samples}")
    if not eps > 0:
        raise ConfigError(f"gradcheck: eps must be > 0, got {eps}")
    loss = loss_fn()
    base = float(loss.data)
    if not math.isfinite(base):
        raise NumericError("gradcheck: loss is non-finite at the base point")
    params.zero_grad()
    loss.backward()
    analytic = params.grads()

    names = params.names()
    if not names:
        raise ConfigError("gradcheck: no parameters")
    groups = [[n for n in names if n == k or n.startswith(k + ".")]
              for k in prefixes or names]
    grouped = {n for g in groups for n in g}
    groups = [g for g in groups + [[n for n in names if n not in grouped]] if g]
    total = len(groups) if samples is None else samples
    rng = np.random.default_rng(seed)
    picks = []
    while len(picks) < total:
        for gi in rng.permutation(len(groups))[:total - len(picks)]:
            members = groups[gi]
            name = members[int(rng.integers(len(members)))]
            picks.append((name, int(rng.integers(params[name].data.size))))

    entries = []
    for name, idx in picks:
        buf = params[name].data.reshape(-1)
        orig = buf[idx]
        with no_grad():
            buf[idx] = orig + eps
            lp = float(loss_fn().data)
            buf[idx] = orig - eps
            lm = float(loss_fn().data)
            buf[idx] = orig
        if not (math.isfinite(lp) and math.isfinite(lm)):
            raise NumericError(f"gradcheck: non-finite loss perturbing {name}[{idx}]")
        numeric = (lp - lm) / (2.0 * eps)
        a = float(analytic[name].reshape(-1)[idx])
        entries.append(GradCheckEntry(name, idx, a, numeric, _rel_err(a, numeric)))
    return GradReport(entries, eps)
