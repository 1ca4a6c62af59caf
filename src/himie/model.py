"""Full-model assembly: encoders, level construction, fusion, heads, losses.

Routing per document:
  encode present modalities -> bucket into levels -> construct substitutes for
  the missing modality (learned construction or blank fill) -> bidirectional
  fusion -> task heads.

A document whose mask withholds a modality never touches that modality's
encoder, so those parameters get exactly zero gradient for the step.
Zero-frame documents behave like missing video with nothing to ground.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ConfigError, NumericError, ParamTree, Tensor, matmul, no_grad, tmean
from .config import LossConfig, ModelConfig
from .data import Corpus, Document, Prediction
from .dffm import fuse_g_to_x, fuse_x_to_g, init_dffm
from .encoders import (LevelFeatures, bucket_levels, encode_frames,
                       encode_text, init_frame_encoder, init_text_encoder)
from .heads import (compute_losses, coref_predict, crf_decode, entity_reprs, finite,
                    grounding_predict, init_heads, relation_predict, spans_from_tags,
                    total_loss)
from .mmcm import blank, construct_image_from_text, construct_text_from_image, init_mmcm


def init_params(cfg: ModelConfig, seed: int) -> ParamTree:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 41)))
    params = ParamTree()
    init_text_encoder(params.scoped("encoder.text"), cfg, rng)
    init_frame_encoder(params.scoped("encoder.frames"), cfg, rng)
    init_dffm(params.scoped("dffm"), cfg, rng)
    init_mmcm(params.scoped("mmcm"), cfg, rng)
    init_heads(params.scoped("heads"), cfg, rng)
    return params


def check_compatible(corpus: Corpus, cfg: ModelConfig) -> None:
    """Raise ConfigError unless a model built from `cfg` can run every document.

    This is the one owner of the corpus-to-model fit, an empty corpus
    included; the encoders, the fusion and the heads below it do not check it
    again. Train, eval and gradcheck call it before their first step, so an
    incompatible corpus fails up front.
    """
    docs = corpus.documents
    if not docs:
        raise ConfigError("cannot run the model on an empty corpus")
    for kind, known, found in (
            ("entity", cfg.entity_types, {e.type for d in docs for e in d.entities}),
            ("relation", cfg.relation_types, {r.type for d in docs for r in d.relations}),
            ("grounding", cfg.grounding_types, {g.type for d in docs for g in d.regions})):
        extra = found - set(known)
        if extra:
            raise ConfigError(f"corpus uses {kind} labels unknown to the model: {sorted(extra)}")
    for doc in docs:
        if doc.n_tokens == 0:
            raise ConfigError(f"document {doc.id} has no tokens; the model needs at least one")
        if doc.n_tokens > cfg.max_len:
            raise ConfigError(f"document {doc.id}: {doc.n_tokens} tokens exceed "
                              f"model.max_len={cfg.max_len}")
        if doc.n_frames > cfg.max_frames:
            raise ConfigError(f"document {doc.id}: {doc.n_frames} frames exceed "
                              f"model.max_frames={cfg.max_frames}")
        for i, frame in enumerate(doc.frames):
            if np.shape(frame) != (cfg.n_p, cfg.d_in):
                raise ConfigError(f"document {doc.id}: frames[{i}] has shape {np.shape(frame)}, "
                                  f"model.(n_p, d_in) is ({cfg.n_p}, {cfg.d_in})")


def check_params(params: ParamTree, cfg: ModelConfig) -> None:
    """Raise ConfigError unless `params` has the names and shapes that
    `init_params(cfg)` builds, naming the first parameter that differs.

    A checkpoint's manifest is checked only for its own consistency on load;
    this is what ties it to the model config before train or eval runs it.
    """
    want = init_params(cfg, 0)
    for name in sorted(set(want.names()) | set(params.names())):
        if name not in params:
            raise ConfigError(f"parameter {name} is missing; the model config needs it")
        if name not in want:
            raise ConfigError(f"parameter {name} is not part of the model config")
        if params[name].shape != want[name].shape:
            raise ConfigError(f"parameter {name} has shape {params[name].shape}, "
                              f"the model config needs {want[name].shape}")


def compute_features(doc: Document, params: ParamTree, cfg: ModelConfig, *,
                     rng=None, kl_acc: list | None = None) -> tuple[Tensor, Tensor | None]:
    """Fused (text [n_x, d_h], frames [n_g, d_h] or None) for one document; the
    fusion's VAE draws its latents from `rng` when given, else takes the mean head."""
    use_dffm, use_mmcm = cfg.dffm_enabled, cfg.mmcm_enabled
    has_text = doc.modality_mask != "no_text"
    has_video = doc.modality_mask != "no_video" and doc.n_frames > 0
    n_g = doc.n_frames
    fuse = use_dffm and n_g > 0  # fusion reads both sides' levels; nothing else reads any
    mm = params.scoped("mmcm")

    def encoded(per_layer: list[Tensor]) -> LevelFeatures:
        return bucket_levels(per_layer) if fuse else LevelFeatures(None, per_layer[-1])

    text_lv: LevelFeatures | None = None
    img_lv: LevelFeatures | None = None
    if has_text:
        text_lv = encoded(encode_text(doc.tokens, params.scoped("encoder.text"), cfg))
    if has_video:
        img_lv = encoded(encode_frames(doc.frames, params.scoped("encoder.frames"), cfg))

    if text_lv is None:
        if use_mmcm and img_lv is not None:
            text_lv = construct_text_from_image(img_lv.base, mm, doc.n_tokens)
        else:
            text_lv = blank((doc.n_tokens, cfg.d_h))
    if img_lv is None and n_g > 0:
        if use_mmcm and has_text:
            img_lv = construct_image_from_text(text_lv.base, mm, n_g, cfg.n_p)
        else:
            img_lv = blank((n_g, cfg.n_p, cfg.d_h))

    dffm = params.scoped("dffm")
    if fuse:
        return (fuse_g_to_x(text_lv, img_lv, dffm, cfg, rng, kl_acc),
                fuse_x_to_g(img_lv, text_lv, dffm, cfg, rng, kl_acc))
    if use_dffm:  # nothing on the image side at all: only the base mixing path remains
        return matmul(text_lv.base, dffm["mix.g2x.base"]), None
    return text_lv.base, (tmean(img_lv.base, axis=1) if img_lv is not None else None)


@dataclass
class ForwardResult:
    losses: dict[str, Tensor | None]  # each component, None when absent
    loss: Tensor


def forward(doc: Document, params: ParamTree, cfg: ModelConfig,
            loss_cfg: LossConfig | None = None, *, rng=None) -> ForwardResult:
    """Training pass; in `vae_mode: "sample"` the VAE draws its latents from `rng`."""
    loss_cfg = loss_cfg or LossConfig()
    sample = cfg.vae_mode == "sample"
    if sample and rng is None:
        raise ConfigError("vae_mode 'sample' needs the run's rng")
    kl_acc: list | None = [] if cfg.kl_weight > 0 else None
    h_text, h_frames = compute_features(doc, params, cfg, rng=rng if sample else None,
                                        kl_acc=kl_acc)
    losses = compute_losses(doc, h_text, h_frames, params.scoped("heads"), cfg)
    loss = total_loss(losses, loss_cfg)
    if kl_acc:
        loss = loss + sum(kl_acc[1:], kl_acc[0]) * (cfg.kl_weight / len(kl_acc))
    return ForwardResult(losses, loss)


@no_grad()
def predict(doc: Document, params: ParamTree, cfg: ModelConfig, *,
            pair_mode: str = "gold-pairs") -> Prediction:
    """Inference pass; `pair_mode`, an `eval_mode`, picks the pair universe for coref/relations.

    gold-pairs: pairs come from gold entities and gold chains. predicted-pairs:
    pairs come from the decoded entity spans and the decoded coreference partition.
    Inference hands the VAE no stream, so it takes the mean latent; it records no tape.
    Label ties go to the lowest index (no link, no relation, no region).
    Raises NumericError naming the document when the fused features or a
    head's logits are not finite; numpy's floating-point warnings are off
    inside, so that error is the one report of a non-finite value.
    """
    try:
        with np.errstate(all="ignore"):
            return _predict(doc, params, cfg, pair_mode)
    except NumericError as e:
        raise NumericError(f"document {doc.id}: {e}") from None


def _predict(doc: Document, params: ParamTree, cfg: ModelConfig, pair_mode: str) -> Prediction:
    heads = params.scoped("heads")
    h_text, h_frames = compute_features(doc, params, cfg)
    finite("fused text features", h_text.data)
    if h_frames is not None:
        finite("fused frame features", h_frames.data)

    decoded_entities = spans_from_tags(crf_decode(h_text.data, heads.scoped("crf")),
                                       cfg.entity_types)
    gold_pairs = pair_mode == "gold-pairs"
    pair_entities = list(doc.entities) if gold_pairs else decoded_entities
    reprs = entity_reprs(h_text, pair_entities)
    chains = coref_predict(reprs, heads.scoped("coref"))
    rel_chains = [list(c) for c in doc.chains] if gold_pairs else chains
    relations = relation_predict(reprs, rel_chains, heads.scoped("rel"), cfg.relation_types)
    regions = ([] if h_frames is None else
               grounding_predict(h_frames, heads.scoped("gro"), cfg.grounding_types))
    return Prediction(decoded_entities, pair_entities, chains, rel_chains, relations, regions)
