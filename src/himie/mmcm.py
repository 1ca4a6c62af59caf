"""Missing-modality construction from level prompts.

When a document lacks a modality, per-level features for the absent side are
synthesized from the present side's base feature: a shared input convolution,
then per level a learned prompt is prepended and a level convolution applied,
and the result is adaptively average-pooled to the absent side's length. The
constructed base feature is the mean of the three constructed levels.

With mmcm disabled the absent side is blank-filled with zeros (the ablation
baseline), which keeps every MMCM parameter out of the gradient support.
"""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, conv1d_seq, matmul, pool_matrix, relu, reshape
from .config import ModelConfig
from .encoders import LEVELS, LevelFeatures

CONV_W = 3


def init_mmcm(scope, cfg: ModelConfig, rng) -> None:
    s = 1.0 / np.sqrt(CONV_W * cfg.d_h)
    for direction in ("t2g", "g2t"):
        d = scope.scoped(direction)
        d.add("conv_in.k", rng.normal(size=(CONV_W, cfg.d_h, cfg.d_h)) * s)
        d.add("conv_in.b", np.zeros(cfg.d_h))
        for lvl in LEVELS:
            d.add(f"{lvl}.prompt", rng.normal(size=(cfg.prompt_len, cfg.d_h)) * 0.02)
            d.add(f"{lvl}.conv.k", rng.normal(size=(CONV_W, cfg.d_h, cfg.d_h)) * s)
            d.add(f"{lvl}.conv.b", np.zeros(cfg.d_h))


def _construct(present: Tensor, scope, target_len: int) -> list[Tensor]:
    c = relu(conv1d_seq(present, scope["conv_in.k"], scope["conv_in.b"]))
    outs = []
    for lvl in LEVELS:
        s = concat([scope[f"{lvl}.prompt"], c], axis=0)
        o = relu(conv1d_seq(s, scope[f"{lvl}.conv.k"], scope[f"{lvl}.conv.b"]))
        outs.append(matmul(Tensor(pool_matrix(o.data.shape[0], target_len)), o))
    return outs


def construct_image_from_text(h_text: Tensor, scope, cfg: ModelConfig,
                              n_g: int, n_p: int) -> LevelFeatures:
    """Build image-side levels [n_g, n_p, d_h] from the text base feature."""
    low, mid, high = (reshape(o, (n_g, n_p, cfg.d_h))
                      for o in _construct(h_text, scope.scoped("t2g"), n_g * n_p))
    return LevelFeatures(low, mid, high, (low + mid + high) * (1.0 / 3.0))


def construct_text_from_image(h_img: Tensor, scope, cfg: ModelConfig, n_x: int) -> LevelFeatures:
    """Build text-side levels [n_x, d_h] from the image base feature [n_g, n_p, d_h]."""
    n_g, n_p = h_img.data.shape[0], h_img.data.shape[1]
    flat = reshape(h_img, (n_g * n_p, cfg.d_h))
    low, mid, high = _construct(flat, scope.scoped("g2t"), n_x)
    return LevelFeatures(low, mid, high, (low + mid + high) * (1.0 / 3.0))


def blank_text(n_x: int, cfg: ModelConfig) -> LevelFeatures:
    z = Tensor(np.zeros((n_x, cfg.d_h)))
    return LevelFeatures(z, z, z, z)


def blank_image(n_g: int, n_p: int, cfg: ModelConfig) -> LevelFeatures:
    z = Tensor(np.zeros((n_g, n_p, cfg.d_h)))
    return LevelFeatures(z, z, z, z)
