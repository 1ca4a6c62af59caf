"""Training loop, two-group adaptive-moment optimizer, binary checkpoints.

One document per optimizer step, seeded shuffled visit order, deterministic
end to end: the same config and corpus produce bitwise-identical checkpoints.

Checkpoint layout: 8-byte little-endian header length, then a UTF-8 JSON
header {manifest, config, step, rng_state} where the manifest lists (name,
shape, trainable) in lexicographic name order, then the raw float64
little-endian row-major payload in manifest order.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NumericError, ParamTree
from .config import RunConfig, config_from_dict, config_to_dict
from .data import Corpus
from .model import check_compatible, forward, init_params


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def init_adam(params: ParamTree) -> AdamState:
    state = AdamState()
    for name in params.trainable_names():
        state.m[name] = np.zeros_like(params[name].data)
        state.v[name] = np.zeros_like(params[name].data)
    return state


def group_lr(name: str, optim) -> float:
    return optim.lr_encoder if name.startswith("encoder.") else optim.lr_other


def adam_step(params: ParamTree, grads: dict[str, np.ndarray], state: AdamState,
              optim) -> None:
    state.t += 1
    b1, b2, eps = optim.beta1, optim.beta2, optim.eps
    for name in params.trainable_names():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in parameter {name}")
        m = state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        v = state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** state.t)
        v_hat = v / (1.0 - b2 ** state.t)
        params[name].data -= group_lr(name, optim) * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class StepRecord:
    step: int
    doc_id: str
    total: float
    components: dict[str, float]


@dataclass
class TrainResult:
    params: ParamTree
    log: list[StepRecord]
    step: int
    rng_state: dict


def train(cfg: RunConfig, corpus: Corpus,
          params: ParamTree | None = None) -> TrainResult:
    cfg.validate()
    check_compatible(corpus, cfg.model)
    if params is None:
        params = init_params(cfg.model, cfg.seed)
    state = init_adam(params)
    order_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7)))
    sample_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 11)))
    log: list[StepRecord] = []
    step = 0
    n = len(corpus.documents)
    for _epoch in range(cfg.epochs):
        for idx in order_rng.permutation(n):
            doc = corpus.documents[int(idx)]
            step += 1
            res = forward(doc, params, cfg.model, cfg.loss, rng=sample_rng)
            total = float(res.loss.data)
            if not np.isfinite(total):
                raise NumericError(f"non-finite loss at step {step} on document {doc.id}")
            params.zero_grad()
            res.loss.backward()
            adam_step(params, params.grads(), state, cfg.optim)
            comps = {name: (float(v.data) if v is not None else 0.0)
                     for name, (v, _cnt) in res.parts.named().items()}
            log.append(StepRecord(step, doc.id, total, comps))
    return TrainResult(params, log, step, order_rng.bit_generator.state)


# -- checkpoint io ------------------------------------------------------------


def save_checkpoint(path: str, params: ParamTree, cfg: RunConfig, step: int,
                    rng_state: dict | None = None) -> None:
    manifest = [{"name": name, "shape": list(params[name].data.shape),
                 "trainable": params.is_trainable(name)}
                for name in params.names()]
    header = {"manifest": manifest, "config": config_to_dict(cfg),
              "step": step, "rng_state": rng_state}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for name in params.names():
            arr = np.ascontiguousarray(params[name].data, dtype="<f8")
            f.write(arr.tobytes())


class CheckpointError(ValueError):
    """A checkpoint file is malformed: bad header, manifest or payload size."""


def _read_header(f, path: str, size: int) -> dict:
    raw = f.read(8)
    if len(raw) != 8:
        raise CheckpointError(f"truncated checkpoint header in {path}")
    (hlen,) = struct.unpack("<Q", raw)
    if hlen > size - 8:
        raise CheckpointError(f"checkpoint header length {hlen} exceeds the "
                              f"{size - 8} bytes after it in {path}")
    try:
        header = json.loads(f.read(hlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"checkpoint header in {path} is not UTF-8 JSON: {e}") from e
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header in {path} is not a JSON object")
    missing = [key for key in ("manifest", "config", "step") if key not in header]
    if missing:
        raise CheckpointError(f"checkpoint header in {path} lacks {', '.join(missing)}")
    if not isinstance(header["manifest"], list) or type(header["step"]) is not int:
        raise CheckpointError(f"checkpoint header in {path} has a bad manifest or step")
    for entry in header["manifest"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])
                and isinstance(entry.get("trainable"), bool)):
            raise CheckpointError(f"bad manifest entry {entry!r:.80} in {path}")
    return header


def load_checkpoint(path: str) -> tuple[ParamTree, RunConfig, int, dict | None]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = _read_header(f, path, size)
        payload = size - f.tell()
        need = 8 * sum(math.prod(e["shape"]) for e in header["manifest"])
        if payload < need:
            raise CheckpointError(f"truncated payload in {path}: "
                                  f"{payload} bytes for {need} expected")
        if payload > need:
            raise CheckpointError(f"unexpected trailing bytes in {path}: "
                                  f"{payload} bytes for {need} expected")
        params = ParamTree()
        for entry in header["manifest"]:
            shape = tuple(entry["shape"])
            buf = f.read(8 * math.prod(shape))
            arr = np.frombuffer(buf, dtype="<f8").astype(np.float64).reshape(shape)
            params.add(entry["name"], arr, trainable=entry["trainable"])
    cfg = config_from_dict(header["config"])
    return params, cfg, header["step"], header.get("rng_state")


def save_step_log(path: str, log: list[StepRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in log:
            row = {"step": rec.step, "doc": rec.doc_id, "total": rec.total}
            row.update(rec.components)
            f.write(json.dumps(row, sort_keys=True) + "\n")
