"""Token and patch encoders plus hierarchical level bucketing.

Both encoders are small pre-LN transformer stacks that return every block
output, so downstream fusion can average non-overlapping thirds of the layers
into low/mid/high level features; the final block output is the base feature.

Tokens are mapped to ids by a stable hash bucket (crc32 mod vocab), which is
also what the synthetic generator plants its signal in: a surface form always
lands in the same bucket, on any platform, in any process.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import (ConfigError, ShapeError, Tensor, add, gelu, index_rows,
                       layer_norm, matmul, multi_head_attention)
from .config import ModelConfig


def hash_bucket(token: str, vocab: int) -> int:
    return zlib.crc32(token.encode("utf-8")) % vocab


def token_ids(tokens: list[str], vocab: int) -> np.ndarray:
    return np.array([hash_bucket(t, vocab) for t in tokens], dtype=np.intp)


@dataclass
class LevelFeatures:
    """low/mid/high layer-bucket means plus the final-layer base feature."""
    low: Tensor
    mid: Tensor
    high: Tensor
    base: Tensor


LEVELS = ("low", "mid", "high")  # field names of LevelFeatures, in depth order


def bucket_levels(per_layer: list[Tensor]) -> LevelFeatures:
    """Mean the first/middle/last third of block outputs (1-indexed thirds)."""
    n_l = len(per_layer)
    if n_l < 3 or n_l % 3 != 0:
        raise ConfigError(f"level bucketing needs a layer count divisible by 3, got {n_l}")
    k = n_l // 3
    def mean_of(part):
        acc = part[0]
        for p in part[1:]:
            acc = add(acc, p)
        return acc * (1.0 / k)
    return LevelFeatures(
        low=mean_of(per_layer[:k]),
        mid=mean_of(per_layer[k:2 * k]),
        high=mean_of(per_layer[2 * k:]),
        base=per_layer[-1],
    )


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


def run_block(x: Tensor, scope, heads: int) -> Tensor:
    h = layer_norm(x, scope["ln1.g"], scope["ln1.b"])
    x = add(x, multi_head_attention(h, h, h, heads, scope.scoped("attn")))
    h = layer_norm(x, scope["ln2.g"], scope["ln2.b"])
    ffn = scope.scoped("ffn")
    h = add(matmul(gelu(add(matmul(h, ffn["w1"]), ffn["b1"])), ffn["w2"]), ffn["b2"])
    return add(x, h)


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


def encode_text(tokens: list[str], scope, cfg: ModelConfig) -> list[Tensor]:
    """Per-block outputs [n_x, d_h] for one token sequence."""
    n_x = len(tokens)
    if n_x < 1:
        raise ShapeError("encode_text needs at least one token")
    if n_x > cfg.max_len:
        raise ShapeError(f"{n_x} tokens exceed max_len={cfg.max_len}")
    ids = token_ids(tokens, cfg.vocab)
    x = add(index_rows(scope["tok_emb"], ids), scope["pos_emb"][:n_x])
    outs = []
    for i in range(cfg.n_l):
        x = run_block(x, scope.scoped(f"block{i}"), cfg.heads)
        outs.append(x)
    return outs


def encode_frames(frames: list[np.ndarray], scope, cfg: ModelConfig) -> list[Tensor]:
    """Per-block outputs [n_g, n_p, d_h] for a document's frames.

    All frames go through the projection and every block as one
    [n_g, n_p, d_h] batch; attention runs per frame over the leading axis,
    so no frame attends to another.
    """
    if not frames:
        raise ShapeError("encode_frames needs at least one frame")
    for i, fr in enumerate(frames):
        arr = np.asarray(fr)
        if arr.shape != (cfg.n_p, cfg.d_in):
            raise ShapeError(f"frame {i} has patch grid {arr.shape}, expected ({cfg.n_p}, {cfg.d_in})")
    x = add(add(matmul(Tensor(np.stack(frames)), scope["proj.w"]), scope["proj.b"]),
            scope["pos_emb"])
    outs = []
    for i in range(cfg.n_l):
        x = run_block(x, scope.scoped(f"block{i}"), cfg.heads)
        outs.append(x)
    return outs
