"""Dual-flow cross-modal fusion through VAE latents.

Each direction (image->text `g2x`, text->image `x2g`) fuses the querying
modality's base feature with the other modality's low/mid/high features,
stacked along a leading level axis of 3 like every level weight, so a
direction runs as one pass over the levels read as [3, N, d_h]: K/V get a
d_h x d_h projection, all three of Q/K/V pass through the level's VAE encoder
into the d_vae latent space, attention and a GELU FFN run in latent space with
residuals, and the level's decoder maps back to d_h. The attention and the
FFN are the numpy pairs `multi_head_attention` and `feed_forward`, the
derivations the encoder blocks run too, each recorded here as one tape node.
The three level outputs and the base feature are mixed by learned d_h x d_h
weights. The image direction additionally mean-pools patches per frame and
adds a learned frame position embedding.

The stream decides the latent: handed the run's seeded stream, the VAE draws
the reparameterized latent from it; handed none, it returns the mean head.
`model.forward` hands the stream over only in `vae_mode: "sample"`.
"""
from __future__ import annotations

import numpy as np

from .autodiff import (ConfigError, Tensor, add, feed_forward, index_rows, matmul,
                       multi_head_attention, reshape, texp, tmean, tsum)
from .config import ModelConfig
from .encoders import LEVELS, LevelFeatures


def vae_encode(x: Tensor, scope, rng=None, kl_acc: list | None = None) -> Tensor:
    """Latent of `x`: a reparameterized draw from `rng` when a stream is given,
    else the mean head.

    The log-variance head runs only when the draw or `kl_acc` reads it; with
    `kl_acc`, KL(q || N(0, I)) averaged over latent elements is appended to it.
    """
    mean = add(matmul(x, scope["mean.w"]), scope["mean.b"])
    if rng is None and kl_acc is None:
        return mean
    log_var = add(matmul(x, scope["logvar.w"]), scope["logvar.b"])
    if kl_acc is not None:
        kl_acc.append(tmean(-0.5 * (1.0 + log_var - mean * mean - texp(log_var))))
    if rng is None:
        return mean
    return add(mean, texp(log_var * 0.5) * Tensor(rng.standard_normal(mean.data.shape)))


# Level mixes start tiny: the fused path begins as an identity wrapper over the
# base features, so enabling fusion can never slow early head training.
MIX_LEVEL_INIT = 1e-3


def init_dffm(scope, cfg: ModelConfig, rng) -> None:
    d_h, d_v = cfg.d_h, cfg.d_vae
    s, sv = 1.0 / np.sqrt(d_h), 1.0 / np.sqrt(d_v)
    # (name, shape, scale) in draw order. Each level draws the whole list
    # before the next level starts; this order fixes the initial values.
    drawn = (("wk", (d_h, d_h), s), ("wv", (d_h, d_h), s),
             ("enc.mean.w", (d_h, d_v), s), ("enc.logvar.w", (d_h, d_v), 0.01 * s),
             ("dec.w", (d_v, d_h), sv),
             *((f"attn.{nm}", (d_v, d_v), sv) for nm in ("wq", "wk", "wv", "wo")),
             ("ffn.w1", (d_v, 4 * d_v), sv), ("ffn.w2", (4 * d_v, d_v), 1.0 / np.sqrt(4 * d_v)))
    biases = (("enc.mean.b", d_v, 0.0), ("enc.logvar.b", d_v, -4.0), ("dec.b", d_h, 0.0),
              ("attn.bo", d_v, 0.0), ("ffn.b1", 4 * d_v, 0.0), ("ffn.b2", d_v, 0.0))
    for direction in ("g2x", "x2g"):
        dscope = scope.scoped(direction)
        levels = [[rng.normal(size=shape) * scale for _, shape, scale in drawn] for _ in LEVELS]
        for (name, _, _), *per_level in zip(drawn, *levels):
            dscope.add(name, np.stack(per_level))
        for name, width, value in biases:
            dscope.add(name, np.full((len(LEVELS), 1, width), value))
    for direction in ("g2x", "x2g"):
        m = scope.scoped(f"mix.{direction}")
        m.add("levels", np.stack([rng.normal(size=(d_h, d_h)) * (MIX_LEVEL_INIT / np.sqrt(d_h))
                                  for _ in LEVELS]))
        m.add("base", np.eye(d_h))
    scope.add("pos", rng.normal(size=(cfg.max_frames, d_h)) * 0.02)


def fuse_levels(q_base: Tensor, kv_levels: Tensor, scope, cfg: ModelConfig,
                rng=None, kl_acc: list | None = None) -> Tensor:
    """Latent cross-attention of [Nq, d_h] against every level of the other
    side's [3, *shape, d_h], read as [3, Nk, d_h], at once, each level with its
    own weights: [3, Nq, d_h]."""
    kv_levels = reshape(kv_levels, (len(LEVELS), -1, cfg.d_h))
    enc = scope.scoped("enc")
    zq = vae_encode(q_base, enc, rng, kl_acc)
    zk = vae_encode(matmul(kv_levels, scope["wk"]), enc, rng, kl_acc)
    zv = vae_encode(matmul(kv_levels, scope["wv"]), enc, rng, kl_acc)
    weights = tuple(scope[f"attn.{n}"] for n in ("wq", "wk", "wv", "wo", "bo"))
    out, vjp = multi_head_attention(zq.data, zk.data, zv.data, cfg.heads, [w.data for w in weights])
    h = add(zq, Tensor._result(out, (zq, zk, zv) + weights, vjp))
    weights = tuple(scope[f"ffn.{n}"] for n in ("w1", "b1", "w2", "b2"))
    out, vjp = feed_forward(h.data, *(w.data for w in weights))
    f = add(h, Tensor._result(out, (h,) + weights, vjp))
    return add(matmul(f, scope["dec.w"]), scope["dec.b"])


def _mix(base: Tensor, fused: Tensor, mix) -> Tensor:
    """base @ mix.base plus the sum over levels of fused[k] @ mix.levels[k]."""
    return add(matmul(base, mix["base"]), tsum(matmul(fused, mix["levels"]), axis=0))


def fuse_g_to_x(text: LevelFeatures, image: LevelFeatures, scope, cfg: ModelConfig,
                rng=None, kl_acc: list | None = None) -> Tensor:
    """Image-enriched text feature [n_x, d_h]."""
    fused = fuse_levels(text.base, image.levels, scope.scoped("g2x"), cfg, rng, kl_acc)
    return _mix(text.base, fused, scope.scoped("mix.g2x"))


def fuse_x_to_g(image: LevelFeatures, text: LevelFeatures, scope, cfg: ModelConfig,
                rng=None, kl_acc: list | None = None) -> Tensor:
    """Text-enriched per-frame feature [n_g, d_h]: fuse at patch level, pool, add positions."""
    n_g, n_p = image.base.data.shape[0], image.base.data.shape[1]
    if n_g > cfg.max_frames:
        raise ConfigError(f"{n_g} frames exceed max_frames={cfg.max_frames}")
    q = reshape(image.base, (n_g * n_p, cfg.d_h))
    fused = fuse_levels(q, text.levels, scope.scoped("x2g"), cfg, rng, kl_acc)
    out = _mix(q, fused, scope.scoped("mix.x2g"))
    pooled = tmean(reshape(out, (n_g, n_p, cfg.d_h)), axis=1)
    return add(pooled, index_rows(scope["pos"], np.arange(n_g)))
