"""Missing-modality construction from level prompts.

When a document lacks a modality, the absent side's levels [3, *shape] are
synthesized from the present side's base feature in one pass per direction:
a shared input convolution, tiled across the level axis; each level's learned
prompt (stacked as [3, P, d_h]) prepended along the row axis; one level
convolution with kernels stacked as [3, w, d_h, d_h]; and one adaptive average
pool to the absent side's length. The constructed base feature is the mean of
the three constructed levels.

With mmcm disabled the absent side is blank-filled with zeros (the ablation
baseline), which keeps every MMCM parameter out of the gradient support.
"""
from __future__ import annotations

import numpy as np

from .autodiff import (Tensor, add, concat, conv1d_seq, matmul, pool_matrix, relu,
                       reshape, tmean)
from .config import ModelConfig
from .encoders import LEVELS, LevelFeatures

CONV_W = 3


def init_mmcm(scope, cfg: ModelConfig, rng) -> None:
    s = 1.0 / np.sqrt(CONV_W * cfg.d_h)
    for direction in ("t2g", "g2t"):
        d = scope.scoped(direction)
        d.add("conv_in.k", rng.normal(size=(CONV_W, cfg.d_h, cfg.d_h)) * s)
        d.add("conv_in.b", np.zeros(cfg.d_h))
        # each level draws its prompt, then its kernel, before the next level starts
        draws = [(rng.normal(size=(cfg.prompt_len, cfg.d_h)) * 0.02,
                  rng.normal(size=(CONV_W, cfg.d_h, cfg.d_h)) * s) for _ in LEVELS]
        d.add("prompt", np.stack([prompt for prompt, _ in draws]))
        d.add("conv.k", np.stack([kernel for _, kernel in draws]))
        d.add("conv.b", np.zeros((len(LEVELS), 1, cfg.d_h)))


def _construct(present: Tensor, scope, target_len: int) -> Tensor:
    """Levels [3, target_len, d_h] from the present side's rows [S, d_h]."""
    c = relu(conv1d_seq(present, scope["conv_in.k"], scope["conv_in.b"]))
    tiled = add(c, Tensor(np.zeros((len(LEVELS), 1, 1))))  # one node broadcasts c per level
    o = relu(conv1d_seq(concat([scope["prompt"], tiled], axis=1),
                        scope["conv.k"], scope["conv.b"]))
    return matmul(Tensor(pool_matrix(o.data.shape[1], target_len)), o)


def _with_base(levels: Tensor) -> LevelFeatures:
    return LevelFeatures(levels, tmean(levels, axis=0))


def construct_image_from_text(h_text: Tensor, scope, cfg: ModelConfig,
                              n_g: int, n_p: int) -> LevelFeatures:
    """Build image-side levels [3, n_g, n_p, d_h] from the text base feature."""
    levels = _construct(h_text, scope.scoped("t2g"), n_g * n_p)
    return _with_base(reshape(levels, (len(LEVELS), n_g, n_p, cfg.d_h)))


def construct_text_from_image(h_img: Tensor, scope, cfg: ModelConfig, n_x: int) -> LevelFeatures:
    """Build text-side levels [3, n_x, d_h] from the image base feature [n_g, n_p, d_h]."""
    return _with_base(_construct(reshape(h_img, (-1, cfg.d_h)), scope.scoped("g2t"), n_x))


def blank(shape: tuple[int, ...]) -> LevelFeatures:
    """Zero levels [3, *shape] and zero base [*shape]: the blank-filled absent side."""
    return LevelFeatures(Tensor(np.zeros((len(LEVELS),) + shape)), Tensor(np.zeros(shape)))
