"""Configuration dataclasses and strict dict/JSON conversion."""
from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .autodiff import ConfigError


@dataclass
class ModelConfig:
    d_h: int = 32
    n_l: int = 6
    heads: int = 4
    n_p: int = 16
    d_in: int = 8
    d_vae: int = 16
    prompt_len: int = 8
    max_frames: int = 16
    vocab: int = 256
    max_len: int = 512
    entity_types: tuple[str, ...] = ("PER", "LOC", "ORG", "TIME")
    relation_types: tuple[str, ...] = ("R0", "R1", "R2", "R3")
    grounding_types: tuple[str, ...] = ("PER", "LOC", "ORG")
    mmcm_enabled: bool = True
    dffm_enabled: bool = True
    vae_mode: str = "mean"
    kl_weight: float = 0.0

    def validate(self) -> None:
        for name in ("d_h", "n_l", "heads", "n_p", "d_in", "d_vae", "prompt_len",
                     "max_frames", "vocab", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model.{name} must be >= 1, got {getattr(self, name)}")
        if self.d_h % self.heads != 0:
            raise ConfigError(f"d_h={self.d_h} not divisible by heads={self.heads}")
        if self.d_vae % self.heads != 0:
            raise ConfigError(f"d_vae={self.d_vae} not divisible by heads={self.heads}")
        if self.d_vae >= self.d_h:
            raise ConfigError(f"d_vae={self.d_vae} must be smaller than d_h={self.d_h}")
        if self.n_l % 3 != 0:
            raise ConfigError(f"n_l={self.n_l} must be divisible by 3 for level bucketing")
        if self.vae_mode not in ("mean", "sample"):
            raise ConfigError(f"vae_mode must be 'mean' or 'sample', got {self.vae_mode!r}")
        if self.kl_weight < 0:
            raise ConfigError(f"model.kl_weight must be >= 0, got {self.kl_weight}")
        if not self.entity_types:
            raise ConfigError("entity_types must be non-empty")
        for name in ("entity_types", "relation_types", "grounding_types"):
            labels = getattr(self, name)
            if "" in labels:
                raise ConfigError(f"model.{name} has an empty name")
            dup = sorted({t for t in labels if labels.count(t) > 1})
            if dup:
                raise ConfigError(f"model.{name} repeats {dup}")
        if any(t not in self.entity_types for t in self.grounding_types):
            raise ConfigError("grounding_types must be a subset of entity_types")


@dataclass
class GenConfig:
    docs: int = 16
    tokens_per_doc: tuple[int, int] = (24, 48)
    frames_per_doc: tuple[int, int] = (2, 4)
    entity_rate: float = 0.2
    chain_merge_prob: float = 0.5
    relation_rate: float = 0.3
    grounding_rate: float = 0.6
    seed: int = 0

    def validate(self) -> None:
        if self.docs < 1:
            raise ConfigError(f"gen.docs must be >= 1, got {self.docs}")
        for name in ("tokens_per_doc", "frames_per_doc"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ConfigError(f"gen.{name} must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
        for name in ("entity_rate", "chain_merge_prob", "relation_rate", "grounding_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"gen.{name} must be in [0, 1], got {v}")
        if self.seed < 0:
            raise ConfigError(f"gen.seed must be >= 0, got {self.seed}")


@dataclass
class OptimConfig:
    lr_encoder: float = 1e-3
    lr_other: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def validate(self) -> None:
        if self.lr_encoder <= 0 or self.lr_other <= 0:
            raise ConfigError("learning rates must be positive")
        if not (0.0 <= self.beta1 < 1.0) or not (0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("adam eps must be positive")


@dataclass
class LossConfig:
    alpha_ent: float = 1.0
    alpha_cha: float = 1.0
    alpha_rel: float = 1.0
    alpha_gro_t: float = 1.0
    alpha_gro_b: float = 1.0

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"loss.{f.name} must be >= 0")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    gen: GenConfig = field(default_factory=GenConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    epochs: int = 20
    seed: int = 0
    regime_fractions: tuple[float, float, float] = (1.0 / 3, 1.0 / 3, 1.0 / 3)
    eval_mode: str = "gold-pairs"
    corpus_path: str | None = None
    checkpoint_path: str | None = None
    report_path: str | None = None

    def validate(self) -> None:
        # json.loads reads NaN and Infinity, and NaN passes every range check below
        for where, value in _floats(self, "config"):
            if not math.isfinite(value):
                raise ConfigError(f"{where} must be finite, got {value}")
        self.model.validate()
        self.gen.validate()
        self.optim.validate()
        self.loss.validate()
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if len(self.regime_fractions) != 3 or min(self.regime_fractions) < 0 \
                or abs(sum(self.regime_fractions) - 1.0) > 1e-9:
            raise ConfigError(f"regime_fractions must be 3 non-negative values summing to 1, "
                              f"got {self.regime_fractions}")
        if self.eval_mode not in ("gold-pairs", "predicted-pairs"):
            raise ConfigError(f"eval_mode must be 'gold-pairs' or 'predicted-pairs', got {self.eval_mode!r}")


def _floats(obj, where: str):
    """(path, value) of each float in the fields of the dataclass `obj`, its
    nested configs and its tuples."""
    for f in dataclasses.fields(obj):
        val, path = getattr(obj, f.name), f"{where}.{f.name}"
        if dataclasses.is_dataclass(val):
            yield from _floats(val, path)
        elif isinstance(val, tuple):
            yield from ((f"{path}[{i}]", v) for i, v in enumerate(val) if isinstance(v, float))
        elif isinstance(val, float):
            yield path, val


# JSON value types each scalar field type accepts; bool is not an int here.
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _to_plain(obj):
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def config_to_dict(cfg: RunConfig) -> dict:
    return _to_plain(cfg)


def _from_value(val, hint, where: str):
    """`val` as a value of the field type `hint`; lists become tuples."""
    if dataclasses.is_dataclass(hint):
        return _from_dict(hint, val, where)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(val, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {val!r}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(val)
        elif len(val) != len(args):
            raise ConfigError(f"{where} must have {len(args)} items, got {len(val)}")
        return tuple(_from_value(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(val, args)))
    if type(None) in args:
        return None if val is None else _from_value(val, args[0], where)
    if type(val) not in _JSON_TYPES[hint]:
        raise ConfigError(f"{where} must be {hint.__name__}, got {val!r}")
    return val


def _from_dict(cls, d: dict, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {type(d).__name__}")
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _from_value(val, hints[name], f"{where}.{name}")
                  for name, val in d.items()})


def config_from_dict(d: dict) -> RunConfig:
    cfg = _from_dict(RunConfig, d, "config")
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: invalid JSON: {e.msg} (line {e.lineno})") from e
    return config_from_dict(obj)
