"""Missing-modality construction from level prompts.

When a document lacks a modality, the absent side's levels [3, *shape] are
synthesized from the present side's base feature as one tape node per
direction: a shared input convolution, tiled across the level axis; each
level's learned prompt (stacked as [3, P, d_h]) prepended along the row axis;
one level convolution with kernels stacked as [3, w, d_h, d_h]; and one
adaptive average pool to the absent side's length, each convolution followed
by a ReLU. The convolutions are the numpy pair `autodiff.conv1d`, and the
node's VJP chains their VJPs by hand. The constructed base feature is the
mean of the three constructed levels.

With mmcm disabled the absent side is blank-filled with zeros (the ablation
baseline), which keeps every MMCM parameter out of the gradient support.
"""
from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor, conv1d, pool_matrix, tmean
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


def _construct(present: Tensor, scope, shape: tuple[int, ...]) -> Tensor:
    """Levels [3, *shape] from the present side's rows, read as [S, d_h]."""
    weights = tuple(scope[n] for n in ("conv_in.k", "conv_in.b", "prompt", "conv.k", "conv.b"))
    k_in, b_in, prompt, k, b = (t.data for t in weights)
    c, conv_in_vjp = conv1d(present.data.reshape(-1, shape[-1]), k_in, b_in)
    c_on = c > 0.0
    tiled = c * c_on + np.zeros((len(LEVELS), 1, 1))  # the ReLU'd rows once per level
    o, conv_vjp = conv1d(np.concatenate([prompt, tiled], axis=1), k, b)
    o_on = o > 0.0
    pool = pool_matrix(o.shape[1], math.prod(shape[:-1]))
    out = pool @ (o * o_on)
    n_prompt = prompt.shape[1]

    def vjp(g):
        dx, dk, db = conv_vjp((pool.T @ g.reshape(out.shape)) * o_on)
        dc, dk_in, db_in = conv_in_vjp(dx[:, n_prompt:].sum(axis=0) * c_on)
        return dc.reshape(present.shape), dk_in, db_in, dx[:, :n_prompt], dk, db

    return Tensor._result(out.reshape((len(LEVELS),) + shape), (present,) + weights, vjp)


def _with_base(levels: Tensor) -> LevelFeatures:
    return LevelFeatures(levels, tmean(levels, axis=0))


def construct_image_from_text(h_text: Tensor, scope, n_g: int, n_p: int) -> LevelFeatures:
    """Build image-side levels [3, n_g, n_p, d_h] from the text base feature [n_x, d_h]."""
    return _with_base(_construct(h_text, scope.scoped("t2g"), (n_g, n_p, h_text.shape[-1])))


def construct_text_from_image(h_img: Tensor, scope, n_x: int) -> LevelFeatures:
    """Build text-side levels [3, n_x, d_h] from the image base feature [n_g, n_p, d_h]."""
    return _with_base(_construct(h_img, scope.scoped("g2t"), (n_x, h_img.shape[-1])))


def blank(shape: tuple[int, ...]) -> LevelFeatures:
    """Zero levels [3, *shape] and zero base [*shape]: the blank-filled absent side."""
    return LevelFeatures(Tensor(np.zeros((len(LEVELS),) + shape)), Tensor(np.zeros(shape)))
