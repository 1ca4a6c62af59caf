"""Dual-flow cross-modal fusion through VAE latents.

Each direction (image->text `g2x`, text->image `x2g`) fuses the querying
modality's base feature with the other modality's low/mid/high level features.
Per level: K/V get a d_h x d_h projection, all three of Q/K/V pass through the
level's shared VAE encoder into the d_vae latent space, attention and a GELU
FFN run in latent space with residuals, and the level's decoder maps back to
d_h. The three level outputs and the base feature are mixed by learned
d_h x d_h weights. The image direction additionally mean-pools patches per
frame and adds a learned frame position embedding.

The VAE is deterministic in "mean" mode (latent = mean head); "sample" mode
draws the reparameterized latent from the run's seeded stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ConfigError, Tensor, add, gelu, matmul,
                       multi_head_attention, reshape, texp, tmean)
from .config import ModelConfig
from .encoders import LEVELS, LevelFeatures


@dataclass
class VaeLatent:
    mean: Tensor
    log_var: Tensor
    sample: Tensor


def init_vae(scope, d_in: int, d_out: int, rng) -> None:
    s = 1.0 / np.sqrt(d_in)
    scope.add("mean.w", rng.normal(size=(d_in, d_out)) * s)
    scope.add("mean.b", np.zeros(d_out))
    scope.add("logvar.w", rng.normal(size=(d_in, d_out)) * (0.01 * s))
    scope.add("logvar.b", np.full(d_out, -4.0))


def vae_encode(x: Tensor, scope, mode: str = "mean", rng=None) -> VaeLatent:
    mean = add(matmul(x, scope["mean.w"]), scope["mean.b"])
    log_var = add(matmul(x, scope["logvar.w"]), scope["logvar.b"])
    if mode == "mean":
        sample = mean
    elif mode == "sample":
        if rng is None:
            raise ConfigError("vae_encode(mode='sample') needs the run's rng")
        eps = Tensor(rng.standard_normal(mean.data.shape))
        sample = add(mean, texp(log_var * 0.5) * eps)
    else:
        raise ConfigError(f"unknown vae mode {mode!r}")
    return VaeLatent(mean, log_var, sample)


def vae_decode(z: Tensor, scope) -> Tensor:
    return add(matmul(z, scope["w"]), scope["b"])


def kl_term(latent: VaeLatent) -> Tensor:
    """KL(q || N(0, I)) averaged over latent elements."""
    m, lv = latent.mean, latent.log_var
    return tmean(-0.5 * (1.0 + lv - m * m - texp(lv)))


def init_level(scope, cfg: ModelConfig, rng) -> None:
    d_h, d_v = cfg.d_h, cfg.d_vae
    s = 1.0 / np.sqrt(d_h)
    scope.add("wk", rng.normal(size=(d_h, d_h)) * s)
    scope.add("wv", rng.normal(size=(d_h, d_h)) * s)
    init_vae(scope.scoped("enc"), d_h, d_v, rng)
    dec = scope.scoped("dec")
    dec.add("w", rng.normal(size=(d_v, d_h)) * (1.0 / np.sqrt(d_v)))
    dec.add("b", np.zeros(d_h))
    att = scope.scoped("attn")
    sv = 1.0 / np.sqrt(d_v)
    for nm in ("wq", "wk", "wv", "wo"):
        att.add(nm, rng.normal(size=(d_v, d_v)) * sv)
    att.add("bo", np.zeros(d_v))
    ffn = scope.scoped("ffn")
    ffn.add("w1", rng.normal(size=(d_v, 4 * d_v)) * sv)
    ffn.add("b1", np.zeros(4 * d_v))
    ffn.add("w2", rng.normal(size=(4 * d_v, d_v)) * (1.0 / np.sqrt(4 * d_v)))
    ffn.add("b2", np.zeros(d_v))


# Level mixes start tiny: the fused path begins as an identity wrapper over the
# base features, so enabling fusion can never slow early head training.
MIX_LEVEL_INIT = 1e-3


def init_dffm(scope, cfg: ModelConfig, rng) -> None:
    for direction in ("g2x", "x2g"):
        dscope = scope.scoped(direction)
        for lvl in LEVELS:
            init_level(dscope.scoped(lvl), cfg, rng)
    mix = scope.scoped("mix")
    for direction in ("g2x", "x2g"):
        m = mix.scoped(direction)
        for lvl in LEVELS:
            m.add(lvl, rng.normal(size=(cfg.d_h, cfg.d_h)) * (MIX_LEVEL_INIT / np.sqrt(cfg.d_h)))
        m.add("base", np.eye(cfg.d_h))
    scope.add("pos", rng.normal(size=(cfg.max_frames, cfg.d_h)) * 0.02)


def fuse_level(q_base: Tensor, kv_level: Tensor, scope, cfg: ModelConfig,
               mode: str, rng=None, kl_acc: list | None = None) -> Tensor:
    """One level's latent cross-attention fusion: [Nq, d_h] -> [Nq, d_h]."""
    k_proj = matmul(kv_level, scope["wk"])
    v_proj = matmul(kv_level, scope["wv"])
    enc = scope.scoped("enc")
    zq = vae_encode(q_base, enc, mode, rng)
    zk = vae_encode(k_proj, enc, mode, rng)
    zv = vae_encode(v_proj, enc, mode, rng)
    if kl_acc is not None:
        kl_acc.extend(kl_term(z) for z in (zq, zk, zv))
    h = add(zq.sample,
            multi_head_attention(zq.sample, zk.sample, zv.sample, cfg.heads,
                                 scope.scoped("attn")))
    ffn = scope.scoped("ffn")
    f = add(h, add(matmul(gelu(add(matmul(h, ffn["w1"]), ffn["b1"])), ffn["w2"]), ffn["b2"]))
    return vae_decode(f, scope.scoped("dec"))


def _flat_levels(img: LevelFeatures, cfg: ModelConfig):
    n_g, n_p = img.base.data.shape[0], img.base.data.shape[1]
    return [reshape(getattr(img, lvl), (n_g * n_p, cfg.d_h)) for lvl in LEVELS]


def fuse_g_to_x(text: LevelFeatures, image: LevelFeatures, scope, cfg: ModelConfig,
                mode: str = "mean", rng=None, kl_acc: list | None = None) -> Tensor:
    """Image-enriched text feature [n_x, d_h]."""
    img_flat = _flat_levels(image, cfg)
    mix = scope.scoped("mix.g2x")
    out = matmul(text.base, mix["base"])
    for lvl, kv in zip(LEVELS, img_flat):
        fused = fuse_level(text.base, kv, scope.scoped(f"g2x.{lvl}"), cfg, mode, rng, kl_acc)
        out = add(out, matmul(fused, mix[lvl]))
    return out


def fuse_x_to_g(image: LevelFeatures, text: LevelFeatures, scope, cfg: ModelConfig,
                mode: str = "mean", rng=None, kl_acc: list | None = None) -> Tensor:
    """Text-enriched per-frame feature [n_g, d_h]: fuse at patch level, pool, add positions."""
    n_g, n_p = image.base.data.shape[0], image.base.data.shape[1]
    if n_g > cfg.max_frames:
        raise ConfigError(f"{n_g} frames exceed max_frames={cfg.max_frames}")
    q = reshape(image.base, (n_g * n_p, cfg.d_h))
    mix = scope.scoped("mix.x2g")
    out = matmul(q, mix["base"])
    for lvl in LEVELS:
        fused = fuse_level(q, getattr(text, lvl), scope.scoped(f"x2g.{lvl}"), cfg, mode, rng, kl_acc)
        out = add(out, matmul(fused, mix[lvl]))
    pooled = tmean(reshape(out, (n_g, n_p, cfg.d_h)), axis=1)
    return add(pooled, scope["pos"][:n_g])


def pooled_base_frames(image: LevelFeatures, cfg: ModelConfig) -> Tensor:
    """Fusion-free image feature: patch mean of the base encoder output."""
    return tmean(image.base, axis=1)
