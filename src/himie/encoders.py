"""Token and patch encoders plus hierarchical level bucketing.

Both encoders are small pre-LN transformer stacks that return every block
output, so downstream fusion can average non-overlapping thirds of the layers
into low/mid/high level features, stacked along a leading level axis of 3;
the final block output is the base feature.
Each block is one tape node (see `run_block`) whose VJP chains the numpy
pairs of `autodiff`, and the level bucketing is one more (see `bucket_levels`).

Tokens are mapped to ids by a stable hash bucket (crc32 mod vocab), which is
also what the synthetic generator plants its signal in: a surface form always
lands in the same bucket, on any platform, in any process.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import (Tensor, add, feed_forward, index_rows, layer_norm, layer_norm_vjp,
                       matmul, multi_head_attention)
from .config import ModelConfig


def hash_bucket(token: str, vocab: int) -> int:
    return zlib.crc32(token.encode("utf-8")) % vocab


def token_ids(tokens: list[str], vocab: int) -> np.ndarray:
    return np.array([hash_bucket(t, vocab) for t in tokens], dtype=np.intp)


@dataclass
class LevelFeatures:
    """Layer-bucket means stacked as levels [3, *shape] (low, mid, high along
    axis 0), None where nothing reads them, plus the final-layer base feature [*shape]."""
    levels: Tensor | None
    base: Tensor


LEVELS = ("low", "mid", "high")  # names of the level axis, in depth order


def bucket_levels(per_layer: list[Tensor]) -> LevelFeatures:
    """Mean the first/middle/last third of block outputs (1-indexed thirds).

    The levels are one tape node over the block outputs: level k is the sum
    of its m blocks, added in depth order, times 1/m, and its VJP hands each
    of those blocks g[k] * (1/m).
    """
    n_l = len(per_layer)
    m = n_l // len(LEVELS)
    scale = 1.0 / m
    levels = np.empty((len(LEVELS),) + per_layer[0].data.shape)
    for k, level in enumerate(levels):
        np.copyto(level, per_layer[k * m].data)
        for t in per_layer[k * m + 1:(k + 1) * m]:
            np.add(level, t.data, out=level)
    np.multiply(levels, scale, out=levels)

    def vjp(g):
        per_level = [g[k] * scale for k in range(len(LEVELS))]
        return tuple(per_level[i // m] for i in range(n_l))

    return LevelFeatures(Tensor._result(levels, tuple(per_layer), vjp), per_layer[-1])


# -- transformer blocks ---------------------------------------------------


RESID_INIT = 0.05  # residual branches start near identity: fast head traction


def init_block(scope, d_h: int, rng) -> None:
    s = 1.0 / np.sqrt(d_h)
    att = scope.scoped("attn")
    for nm in ("wq", "wk", "wv"):
        att.add(nm, rng.normal(size=(d_h, d_h)) * s)
    att.add("wo", rng.normal(size=(d_h, d_h)) * (RESID_INIT * s))
    att.add("bo", np.zeros(d_h))
    scope.add("ln1.g", np.ones(d_h))
    scope.add("ln1.b", np.zeros(d_h))
    scope.add("ln2.g", np.ones(d_h))
    scope.add("ln2.b", np.zeros(d_h))
    ffn = scope.scoped("ffn")
    ffn.add("w1", rng.normal(size=(d_h, 4 * d_h)) * s)
    ffn.add("b1", np.zeros(4 * d_h))
    ffn.add("w2", rng.normal(size=(4 * d_h, d_h)) * (RESID_INIT / np.sqrt(4 * d_h)))
    ffn.add("b2", np.zeros(d_h))


BLOCK_PARAMS = ("ln1.g", "ln1.b", "attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.bo",
                "ln2.g", "ln2.b", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2")


def run_block(x: Tensor, scope, heads: int) -> Tensor:
    """One pre-LN block over x [..., L, d] as a single tape node:

        y = x + attn(LN1(x)),    out = y + ffn(LN2(y))

    Its parents are x and the 13 `BLOCK_PARAMS`. LN1, LN2, the attention and
    the GELU feed-forward are numpy pairs (`layer_norm`/`layer_norm_vjp`,
    `multi_head_attention`, `feed_forward`), so each keeps one derivation,
    shared with the fusion. The node keeps LN1's mean and inverse deviation,
    LN2's normalized input and inverse deviation, and what the two pairs keep
    (attention's row statistics and merged context, the FFN's Phi(u)). Its
    VJP rebuilds LN1's normalized input from x, which the tape holds as a
    parent, and both LN outputs by `layer_norm`'s own expressions, and hands
    them to the pair VJPs, which recompute attention's projections and
    weights and the feed-forward's pre-activation (see `autodiff`); so the
    gradients are bitwise those of saved arrays. Weight gradients reduce over
    every row of every leading axis.
    """
    weights = tuple(scope[n] for n in BLOCK_PARAMS)
    g1, c1, *attn, g2, c2, w1, b1, w2, b2 = (w.data for w in weights)
    h1, _, mu1, inv1 = layer_norm(x.data, g1, c1)
    att, att_vjp = multi_head_attention(h1, h1, h1, heads, attn)
    y = x.data + att
    h2, xhat2, _, inv2 = layer_norm(y, g2, c2)
    f, ffn_vjp = feed_forward(h2, w1, b1, w2, b2)
    out = y + f

    def vjp(g):
        dh2, dw1, db1, dw2, db2 = ffn_vjp(g, xhat2 * g2 + c2)
        dy_ln, dg2, dc2 = layer_norm_vjp(dh2, g2, xhat2, inv2)
        dy = g + dy_ln
        xhat1 = (x.data - mu1) * inv1
        h1 = xhat1 * g1 + c1
        dq, dk, dv, dwq, dwk, dwv, dwo, dbo = att_vjp(dy, h1, h1, h1)
        dx_ln, dg1, dc1 = layer_norm_vjp(dq + dk + dv, g1, xhat1, inv1)
        return (dy + dx_ln, dg1, dc1, dwq, dwk, dwv, dwo, dbo, dg2, dc2, dw1, db1, dw2, db2)

    return Tensor._result(out, (x,) + weights, vjp)


EMB_INIT = 0.5


def init_text_encoder(scope, cfg: ModelConfig, rng) -> None:
    scope.add("tok_emb", rng.normal(size=(cfg.vocab, cfg.d_h)) * EMB_INIT)
    scope.add("pos_emb", rng.normal(size=(cfg.max_len, cfg.d_h)) * EMB_INIT)
    for i in range(cfg.n_l):
        init_block(scope.scoped(f"block{i}"), cfg.d_h, rng)


def init_frame_encoder(scope, cfg: ModelConfig, rng) -> None:
    scope.add("proj.w", rng.normal(size=(cfg.d_in, cfg.d_h)) * (1.0 / np.sqrt(cfg.d_in)))
    scope.add("proj.b", np.zeros(cfg.d_h))
    scope.add("pos_emb", rng.normal(size=(cfg.n_p, cfg.d_h)) * EMB_INIT)
    for i in range(cfg.n_l):
        init_block(scope.scoped(f"block{i}"), cfg.d_h, rng)


def run_blocks(x: Tensor, scope, cfg: ModelConfig) -> list[Tensor]:
    """Every block's output, in depth order, of the stack under `scope`."""
    outs = []
    for i in range(cfg.n_l):
        x = run_block(x, scope.scoped(f"block{i}"), cfg.heads)
        outs.append(x)
    return outs


def encode_text(tokens: list[str], scope, cfg: ModelConfig) -> list[Tensor]:
    """Per-block outputs [n_x, d_h] for one token sequence."""
    ids = token_ids(tokens, cfg.vocab)
    x = add(index_rows(scope["tok_emb"], ids), index_rows(scope["pos_emb"], np.arange(len(tokens))))
    return run_blocks(x, scope, cfg)


def encode_frames(frames: list[np.ndarray], scope, cfg: ModelConfig) -> list[Tensor]:
    """Per-block outputs [n_g, n_p, d_h] for a document's frames.

    All frames go through the projection and every block as one
    [n_g, n_p, d_h] batch; attention runs per frame over the leading axis,
    so no frame attends to another.
    """
    x = add(matmul(Tensor(np.stack(frames)), scope["proj.w"], scope["proj.b"]), scope["pos_emb"])
    return run_blocks(x, scope, cfg)
