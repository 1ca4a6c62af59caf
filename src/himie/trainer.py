"""Training loop, two-group adaptive-moment optimizer, binary checkpoints.

One document per optimizer step, seeded shuffled visit order, deterministic
end to end: the same config and corpus produce bitwise-identical checkpoints.

Optimizer memory: `init_adam` copies every parameter into one flat
float64 buffer, in lexicographic name order, and rebinds each tensor's `data`
to its reshaped view of that buffer; Adam's `m` and `v` are two more buffers of
the same layout. A fourth buffer of that layout holds the gradients: each
tensor's `grad` is bound to its view of it, so `backward()` accumulates
straight into the buffer. A step zeroes it with one
fill before the backward pass and updates all three in place, so
`train(params=p)` updates the tensors of `p` itself.
An array taken from `p[name].data` before `train` is not the one it updates.
The gradient buffer lives only while `train` runs: `train` sets every
tensor's `grad` to None before it returns, so a `TrainResult` (and the `p`
of `train(params=p)`) keeps the values buffer but holds no gradients.
All `encoder.*` names sort together, so each learning-rate group is a
contiguous run of the buffer. `adam_step` walks the buffers in blocks of
`ADAM_BLOCK` scalars, each inside one group, and runs all the Adam terms on
one block before the next, so the block's operands stay in L2 cache.

The step loop runs with numpy's floating-point warnings off, as `predict`
does: a diverging run stops at its first non-finite loss or gradient with one
`NumericError`. On glibc, `train` first keeps the heap top resident
(`keep_heap_top`), so the pages one step's freed graph leaves at the top of
the heap stay mapped for the next step.

Checkpoint layout: 8-byte little-endian header length, then a UTF-8 JSON
header {manifest, config, step, rng_state} where the manifest lists (name,
shape) in lexicographic name order, then the raw float64
little-endian row-major payload in manifest order.
"""
from __future__ import annotations

import ctypes
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ConfigError, NumericError, ParamTree
from .config import RunConfig, config_from_dict, config_to_dict
from .data import Corpus, replacing
from .model import check_compatible, check_params, forward, init_params


# Scalars per Adam block. A block's six operands (parameters, both moments,
# gradient, two scratch rows) take 6 * 8 * ADAM_BLOCK = 768 KiB, well inside
# a 2 MiB per-core L2, so the 14 passes of a step over one block hit L2. On a
# 2-core Xeon with 2 MiB L2 per core, 16k and 32k stepped the default model
# within 5 % of each other, 3-10 % faster than 8k or 64k, and about 20 %
# faster than whole-buffer passes (medians of 380 interleaved steps).
ADAM_BLOCK = 16384


@dataclass
class AdamState:
    """Adam over the parameters packed by `init_adam` (layout above).

    `grad` backs every tensor's `.grad`, and `adam_step` only reads it. A step
    walks `groups`, blocks of at most `ADAM_BLOCK` scalars that each lie in
    one learning-rate group; the two rows of `scratch`, `(2, ADAM_BLOCK)`,
    are a block's working space.
    """
    values: np.ndarray
    m_flat: np.ndarray
    v_flat: np.ndarray
    grad: np.ndarray
    scratch: np.ndarray
    # name and its view of `grad`
    slots: list[tuple[str, np.ndarray]] = field(default_factory=list)
    # blocks in buffer order: slice, OptimConfig field of its learning rate
    groups: list[tuple[slice, str]] = field(default_factory=list)
    t: int = 0


def _lr_field(name: str) -> str:
    return "lr_encoder" if name.startswith("encoder.") else "lr_other"


def init_adam(params: ParamTree) -> AdamState:
    """Pack the parameters into one buffer, bind their gradients to another,
    zero the moments and the gradients, and cut each learning-rate group
    into blocks of at most `ADAM_BLOCK` scalars."""
    names = params.names()
    n = sum(params[name].data.size for name in names)
    state = AdamState(values=np.empty(n), m_flat=np.zeros(n), v_flat=np.zeros(n),
                      grad=np.zeros(n), scratch=np.empty((2, ADAM_BLOCK)))
    start = 0
    for key, run in itertools.groupby(names, _lr_field):
        first = start
        for name in run:
            t = params[name]
            stop = start + t.data.size
            view = state.values[start:stop].reshape(t.data.shape)
            view[...] = t.data
            t.data = view
            t.grad = state.grad[start:stop].reshape(view.shape)
            state.slots.append((name, t.grad))
            start = stop
        state.groups += [(slice(b, min(b + ADAM_BLOCK, start)), key)
                         for b in range(first, start, ADAM_BLOCK)]
    return state


def adam_step(state: AdamState, optim) -> None:
    """One Adam update of the packed parameters from the gradient buffer.

    The whole gradient buffer is checked to be finite before anything is
    written. Then each block takes every term as one in-place ufunc, written
    as the per-parameter formula, so the result is the same to the bit.
    """
    if not np.isfinite(state.grad).all():
        name = next(name for name, view in state.slots if not np.isfinite(view).all())
        raise NumericError(f"non-finite gradient in parameter {name}")
    state.t += 1
    b1, b2, eps = optim.beta1, optim.beta2, optim.eps
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for run, lr_field in state.groups:
        m, v, g, p = state.m_flat[run], state.v_flat[run], state.grad[run], state.values[run]
        s, u = state.scratch[:, :len(g)]
        np.multiply(b1, m, out=m)  # m = b1*m + (1-b1)*g
        np.multiply(1.0 - b1, g, out=s)
        np.add(m, s, out=m)
        np.multiply(b2, v, out=v)  # v = b2*v + ((1-b2)*g)*g
        np.multiply(1.0 - b2, g, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        np.divide(m, c1, out=u)  # u = m_hat
        np.divide(v, c2, out=s)  # s = sqrt(v_hat) + eps
        np.sqrt(s, out=s)
        np.add(s, eps, out=s)
        np.multiply(getattr(optim, lr_field), u, out=u)
        np.divide(u, s, out=u)
        np.subtract(p, u, out=p)


@dataclass
class StepRecord:
    step: int
    doc_id: str
    total: float
    components: dict[str, float]


M_TOP_PAD = -2  # glibc's mallopt parameter: bytes kept free at the top of the heap
HEAP_TOP_PAD = 16 << 20


def keep_heap_top() -> None:
    """Keep 16 MiB free at the top of this process's heap, where glibc's
    `mallopt` exists; elsewhere do nothing.

    Each backward pass frees the step's whole graph, so glibc would trim the
    heap top and the next forward pass would fault those pages back in, about
    1,000 minor faults per step on a many-frames document.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TOP_PAD, HEAP_TOP_PAD)


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
    keep_heap_top()
    if params is None:
        params = init_params(cfg.model, cfg.seed)
    else:
        check_params(params, cfg.model)
    state = init_adam(params)
    order_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7)))
    sample_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 11)))
    log: list[StepRecord] = []
    step = 0
    n = len(corpus.documents)
    # a diverging run reports its first non-finite loss or gradient as one
    # NumericError, not as a numpy warning per overflowing operation
    with np.errstate(all="ignore"):
        for _epoch in range(cfg.epochs):
            for idx in order_rng.permutation(n):
                doc = corpus.documents[int(idx)]
                step += 1
                res = forward(doc, params, cfg.model, cfg.loss, rng=sample_rng)
                total = float(res.loss.data)
                if not np.isfinite(total):
                    raise NumericError(f"non-finite loss at step {step} on document {doc.id}")
                state.grad.fill(0.0)
                res.loss.backward()
                adam_step(state, cfg.optim)
                comps = {name: (float(v.data) if v is not None else 0.0)
                         for name, v in res.losses.items()}
                log.append(StepRecord(step, doc.id, total, comps))
    for _name, t in params.items():  # drops the last views of the gradient buffer
        t.grad = None
    return TrainResult(params, log, step, order_rng.bit_generator.state)


# -- checkpoint io ------------------------------------------------------------


def save_checkpoint(path: str, params: ParamTree, cfg: RunConfig, step: int,
                    rng_state: dict | None = None) -> None:
    manifest = [{"name": name, "shape": list(params[name].data.shape)}
                for name in params.names()]
    header = {"manifest": manifest, "config": config_to_dict(cfg),
              "step": step, "rng_state": rng_state}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path, "wb") as f:
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for name in params.names():
            arr = np.ascontiguousarray(params[name].data, dtype="<f8")
            f.write(arr.tobytes())


class CheckpointError(ValueError):
    """A checkpoint file is malformed: bad header, manifest or payload size,
    or a non-finite weight, which training never saves."""


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
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise CheckpointError(f"bad manifest entry {entry!r:.80} in {path}")
    names = [entry["name"] for entry in header["manifest"]]
    if len(set(names)) != len(names):
        raise CheckpointError(f"duplicate parameter names in the manifest of {path}")
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
            if not np.isfinite(arr).all():
                raise CheckpointError(f"non-finite value in parameter {entry['name']} "
                                      f"in {path}")
            params.add(entry["name"], arr)
    try:
        cfg = config_from_dict(header["config"])
    except ConfigError as e:
        raise CheckpointError(f"checkpoint config in {path}: {e}") from None
    return params, cfg, header["step"], header.get("rng_state")


def save_step_log(path: str, log: list[StepRecord]) -> None:
    with replacing(path, "w", encoding="utf-8") as f:
        for rec in log:
            row = {"step": rec.step, "doc": rec.doc_id, "total": rec.total}
            row.update(rec.components)
            f.write(json.dumps(row, sort_keys=True) + "\n")
