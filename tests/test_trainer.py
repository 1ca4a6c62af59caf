"""Optimizer hand examples, training determinism, checkpoint round trips."""
import argparse
import dataclasses
import json
import os
import platform
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest

from himie import cli, data, trainer
from himie.autodiff import ConfigError, NumericError, ParamTree, gradcheck
from himie.config import GenConfig, ModelConfig, OptimConfig, RunConfig
from himie.data import Corpus, assign_modality_regime, serialize_corpus
from himie.evaluate import save_report
from himie.metrics import ERROR_KEYS
from himie.model import forward, init_params
from himie.sweep import TASKS, SweepRow, save_sweep_csv
from himie.synth import generate
from himie.trainer import (
    CheckpointError,
    StepRecord,
    adam_step,
    init_adam,
    load_checkpoint,
    save_checkpoint,
    save_step_log,
    train,
)

SMALL = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, prompt_len=3,
                    vocab=64, max_len=64)


def small_run(**over) -> RunConfig:
    base = dict(
        model=SMALL,
        gen=GenConfig(docs=3, tokens_per_doc=(8, 12), frames_per_doc=(1, 2), seed=0),
        epochs=2, seed=0)
    base.update(over)
    return RunConfig(**base)


def reference_adam_step(params, grads, m, v, t, optim):
    """The per-parameter Adam loop the packed `adam_step` must equal bit for bit.

    `encoder.*` parameters step at `lr_encoder` and all others at `lr_other`.
    """
    b1, b2, eps = optim.beta1, optim.beta2, optim.eps
    for name in params.names():
        lr = optim.lr_encoder if name.startswith("encoder.") else optim.lr_other
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        m_hat = m[name] / (1.0 - b1 ** t)
        v_hat = v[name] / (1.0 - b2 ** t)
        params[name].data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def step(params, state, grads, optim):
    """Write `grads` into the tensors' views of the gradient buffer, as
    backward() does, then take one Adam step."""
    state.grad.fill(0.0)
    for name, g in grads.items():
        params[name].grad[...] = g
    adam_step(state, optim)


def check_non_finite_gradient_changes_nothing():
    """A step with a non-finite gradient names the first parameter holding one
    and writes neither the values nor the moments."""
    p = ParamTree()
    for name in ("a", "b", "c", "d"):
        p.add(name, np.arange(3.0))
    state = init_adam(p)
    optim = OptimConfig()
    step(p, state, {n: np.ones(3) for n in p.names()}, optim)
    values, m, v = state.values.copy(), state.m_flat.copy(), state.v_flat.copy()
    with pytest.raises(NumericError, match="non-finite gradient in parameter b$"):
        step(p, state, {"a": np.ones(3), "b": np.array([1.0, np.inf, 1.0]),
                        "d": np.array([np.nan, 1.0, 1.0])}, optim)
    assert np.array_equal(state.values, values)
    assert np.array_equal(state.m_flat, m) and np.array_equal(state.v_flat, v)
    assert state.t == 1


def check_packed_step_equals_per_parameter_loop():
    """Three steps over both learning-rate groups with a run on each side of
    `encoder.*`, a one-element and a 0-d parameter, an all-zero gradient and a
    parameter no gradient reaches, bitwise against `reference_adam_step`.
    Values start near zero so that an update differing in its last bit shows
    in the parameters."""
    shapes = {"dffm.w": (3, 4), "encoder.a": (5,), "encoder.one": (1,),
              "encoder.z": (2, 2), "heads.b": (4, 3), "heads.none": (3,),
              "mmcm.s": ()}
    rng = np.random.default_rng(0)
    packed, loop = ParamTree(), ParamTree()
    for name, shape in shapes.items():
        value = 1e-6 * rng.normal(size=shape)
        packed.add(name, value.copy())
        loop.add(name, value.copy())
    optim = OptimConfig(lr_encoder=3e-4, lr_other=1e-2)
    state = init_adam(packed)
    size = trainer.ADAM_BLOCK
    assert state.scratch.shape == (2, size)
    # the blocks tile the buffer in order, each inside one group
    assert [(run.start, run.stop) for run, _f in state.groups] == [
        (b, min(b + size, stop)) for start, stop in ((0, 12), (12, 22), (22, 38))
        for b in range(start, stop, size)]
    assert {f for run, f in state.groups if run.start < 12 or run.start >= 22} == {"lr_other"}
    assert {f for run, f in state.groups if 12 <= run.start < 22} == {"lr_encoder"}
    m = {n: np.zeros(shapes[n]) for n in loop.names()}
    v = {n: np.zeros(shapes[n]) for n in loop.names()}
    for t in (1, 2, 3):
        grads = {n: rng.normal(size=shapes[n]) for n in shapes if n != "heads.none"}
        grads["encoder.z"] = np.zeros((2, 2))
        step(packed, state, grads, optim)
        grads["heads.none"] = np.zeros(3)
        reference_adam_step(loop, grads, m, v, t, optim)
    assert state.t == 3
    for name in shapes:
        assert packed[name].data.tobytes() == loop[name].data.tobytes(), name
    # the moments are packed in name order, like the parameters
    for flat, ref in ((state.m_flat, m), (state.v_flat, v)):
        packed_ref = np.concatenate([ref[n].ravel() for n in loop.names()])
        assert flat.tobytes() == packed_ref.tobytes()


class TestAdam:
    def _one_param(self, value):
        p = ParamTree()
        p.add("w", np.array([value]))
        return p

    def test_first_step_hand_value(self):
        # m-hat/sqrt(v-hat) == g/|g| after bias correction, so the first
        # step moves by exactly lr (up to eps)
        p = self._one_param(1.0)
        state = init_adam(p)
        step(p, state, {"w": np.array([1.0])}, OptimConfig(lr_other=1e-3))
        assert abs(p["w"].data[0] - 0.999) < 1e-6

    def test_zero_gradient_fixed_point(self):
        p = self._one_param(2.5)
        state = init_adam(p)
        step(p, state, {"w": np.array([0.0])}, OptimConfig())
        assert p["w"].data[0] == 2.5
        assert not np.any(state.m_flat) and not np.any(state.v_flat)

    def test_non_finite_gradient_rejected(self):
        p = self._one_param(1.0)
        state = init_adam(p)
        with pytest.raises(NumericError, match="non-finite gradient.*w"):
            step(p, state, {"w": np.array([np.nan])}, OptimConfig())

    def test_non_finite_gradient_names_first_and_changes_nothing(self):
        check_non_finite_gradient_changes_nothing()

    def test_non_finite_gradient_in_a_later_block_changes_nothing(self, monkeypatch):
        # with 2-scalar blocks the first non-finite value lies in the third
        # block, so the blocks before it must not have been stepped either
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 2)
        check_non_finite_gradient_changes_nothing()

    def test_group_assignment(self):
        # the first step moves each parameter by its group's learning rate
        lrs = {"encoder.text.block0.attn.wq": 5e-6, "encoder.frames.proj.w": 5e-6,
               "heads.crf.emission": 1e-3, "dffm.mix.g2x.base": 1e-3}
        p = ParamTree()
        for name in lrs:
            p.add(name, np.array([1.0]))
        state = init_adam(p)
        step(p, state, {name: np.array([1.0]) for name in lrs},
             OptimConfig(lr_encoder=5e-6, lr_other=1e-3))
        for name, lr in lrs.items():
            assert abs(p[name].data[0] - (1.0 - lr)) < 1e-10, name

    def test_zero_lr_rejected(self):
        from himie.config import ConfigError
        cfg = small_run(optim=OptimConfig(lr_encoder=0.0, lr_other=1e-3),
                        epochs=1)
        with pytest.raises(ConfigError, match="learning rates must be positive"):
            cfg.validate()

    def test_two_group_updates_differ(self):
        # run two adam steps manually with distinct group lrs
        p = ParamTree()
        p.add("encoder.w", np.array([1.0]))
        p.add("heads.w", np.array([1.0]))
        state = init_adam(p)
        optim = OptimConfig(lr_encoder=1e-4, lr_other=1e-2)
        step(p, state, {"encoder.w": np.array([1.0]), "heads.w": np.array([1.0])}, optim)
        assert abs(p["encoder.w"].data[0] - (1 - 1e-4)) < 1e-7
        assert abs(p["heads.w"].data[0] - (1 - 1e-2)) < 1e-5

    def test_packed_step_equals_per_parameter_loop(self):
        check_packed_step_equals_per_parameter_loop()

    @pytest.mark.parametrize("block", [1, 3, 5])
    def test_small_blocks_equal_per_parameter_loop(self, monkeypatch, block):
        # blocks split parameters; with 3 and 5 a block ends exactly where the
        # `encoder.*` group (scalars 12 to 22) begins or ends
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        check_packed_step_equals_per_parameter_loop()

    def test_packing_keeps_values_and_shares_memory(self):
        p = init_params(SMALL, 0)
        ref = init_params(SMALL, 0)
        state = init_adam(p)
        for name in p.names():
            assert np.array_equal(p[name].data, ref[name].data), name
            assert np.shares_memory(p[name].data, state.values), name
        # a write through a tensor shows in the buffer and the other way round
        name = p.names()[0]
        p[name].data.reshape(-1)[0] = 7.0
        assert state.values[0] == 7.0
        state.values[0] = 8.0
        assert p[name].data.reshape(-1)[0] == 8.0

    def test_gradcheck_on_packed_tree(self):
        cfg = small_run()
        corpus = generate(cfg.gen, cfg.model)
        doc = assign_modality_regime(corpus, (1.0, 0.0, 0.0), 0).documents[0]
        params = init_params(cfg.model, 0)
        init_adam(params)
        before = {n: params[n].data.copy() for n in params.names()}
        report = gradcheck(lambda: forward(doc, params, cfg.model, cfg.loss).loss,
                           params, samples=20, seed=0)
        assert report.ok(), report.worst()
        for name, value in before.items():
            assert np.array_equal(params[name].data, value), name

    def test_backward_fills_the_gradient_buffer_and_the_step_keeps_it(self):
        cfg = small_run()
        doc = generate(cfg.gen, cfg.model).documents[0]
        packed, loose = init_params(cfg.model, 0), init_params(cfg.model, 0)
        state = init_adam(packed)
        for p in (packed, loose):
            forward(doc, p, cfg.model, cfg.loss).loss.backward()
        grads = {n: packed[n].grad.copy() for n in packed.names()}
        for name, g in loose.grads().items():
            assert np.shares_memory(packed[name].grad, state.grad), name
            assert np.array_equal(grads[name], g), name
        adam_step(state, cfg.optim)
        for name, g in grads.items():
            assert np.array_equal(packed[name].grad, g), name


class TestTrain:
    def test_epochs_zero_returns_initialization(self):
        cfg = small_run(epochs=0)
        corpus = generate(cfg.gen, cfg.model)
        out = train(cfg, corpus)
        ref = init_params(cfg.model, cfg.seed)
        assert out.step == 0 and out.log == []
        for n in ref.names():
            assert np.array_equal(out.params[n].data, ref[n].data), n

    def test_bitwise_deterministic(self):
        cfg = small_run()
        corpus = generate(cfg.gen, cfg.model)
        corpus = assign_modality_regime(corpus, cfg.regime_fractions, cfg.seed)
        a = train(cfg, corpus)
        b = train(cfg, corpus)
        for n in a.params.names():
            assert np.array_equal(a.params[n].data, b.params[n].data), n
        assert [r.total for r in a.log] == [r.total for r in b.log]

    def test_step_count_and_log(self):
        cfg = small_run(epochs=2)
        corpus = generate(cfg.gen, cfg.model)
        out = train(cfg, corpus)
        assert out.step == 2 * len(corpus.documents)
        assert len(out.log) == out.step
        assert all(np.isfinite(r.total) for r in out.log)
        assert {r.doc_id for r in out.log} == {d.id for d in corpus.documents}

    def test_loss_decreases_on_overfit(self):
        cfg = small_run(epochs=25)
        corpus = generate(cfg.gen, cfg.model)
        out = train(cfg, corpus)
        first = np.mean([r.total for r in out.log[:len(corpus.documents)]])
        last = np.mean([r.total for r in out.log[-len(corpus.documents):]])
        assert last < first * 0.5

    def test_non_finite_loss_aborts_with_step_info(self):
        cfg = small_run(epochs=1)
        corpus = generate(cfg.gen, cfg.model)
        params = init_params(cfg.model, cfg.seed)
        params["heads.crf.emission"].data[0, 0] = np.nan
        with pytest.raises(NumericError, match="non-finite loss at step 1"):
            train(cfg, corpus, params=params)

    def test_resume_from_given_params(self):
        cfg = small_run(epochs=1)
        corpus = generate(cfg.gen, cfg.model)
        first = train(cfg, corpus)
        resumed = train(cfg, corpus, params=first.params)
        assert resumed.step == len(corpus.documents)  # counts only its own steps

    def test_given_params_updated_in_place(self):
        cfg = small_run(epochs=1)
        corpus = generate(cfg.gen, cfg.model)
        params = init_params(cfg.model, cfg.seed)
        tensors = dict(params.items())
        out = train(cfg, corpus, params=params)
        assert out.params is params
        assert all(params[n] is t for n, t in tensors.items())
        fresh = train(cfg, corpus)
        for n in params.names():
            assert params[n].data.tobytes() == fresh.params[n].data.tobytes(), n
        assert not np.array_equal(params["heads.crf.trans"].data,
                                  init_params(cfg.model, cfg.seed)["heads.crf.trans"].data)

    def test_second_train_repacks_trained_params(self):
        # training an already packed tree equals training an unpacked copy of it
        cfg = small_run(epochs=1)
        corpus = generate(cfg.gen, cfg.model)
        first = train(cfg, corpus)
        copy = ParamTree()
        for n, t in first.params.items():
            copy.add(n, t.data.copy())
        again = train(cfg, corpus, params=first.params)
        ref = train(cfg, corpus, params=copy)
        for n in ref.params.names():
            assert again.params[n].data.tobytes() == ref.params[n].data.tobytes(), n

    def test_trained_result_holds_no_gradient_buffer(self, monkeypatch):
        # the gradient buffer lives only while `train` runs; the returned
        # tree still takes every gradient use, and a second `train` rebinds it
        cfg = small_run(epochs=1)
        corpus = generate(cfg.gen, cfg.model)
        out = train(cfg, corpus)
        assert all(t.grad is None for _n, t in out.params.items())
        out.params.zero_grad()
        assert all(not g.any() for g in out.params.grads().values())
        doc = corpus.documents[0]
        report = gradcheck(lambda: forward(doc, out.params, cfg.model, cfg.loss).loss,
                           out.params, samples=10, seed=0)
        assert report.ok(), report.worst()

        bound = []
        real_init_adam = trainer.init_adam

        def spy(params):
            state = real_init_adam(params)
            bound.extend(np.shares_memory(t.grad, state.grad) for _n, t in params.items())
            return state

        monkeypatch.setattr(trainer, "init_adam", spy)
        again = train(cfg, corpus, params=out.params)
        assert again.params is out.params and again.step == len(corpus.documents)
        assert len(bound) == len(out.params.names()) and all(bound)
        assert all(t.grad is None for _n, t in again.params.items())


def test_training_holds_one_tape_at_a_time():
    # backward frees a step's tape, so the next forward never runs beside it:
    # three steps on copies of one document peak as high as one step on it
    cfg = RunConfig(epochs=1, seed=0)
    gen = GenConfig(docs=1, tokens_per_doc=(120, 120), frames_per_doc=(4, 4), seed=0)
    doc = generate(gen, cfg.model).documents[0]

    def peak(copies: int) -> int:
        corpus = Corpus([dataclasses.replace(doc, id=f"{doc.id}.{i}") for i in range(copies)])
        tracemalloc.start()
        try:
            train(cfg, corpus)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(1), peak(3)
    assert three <= 1.05 * one, f"three steps peak at {three / one:.2f}x one step"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt(M_TOP_PAD) is glibc's")
def test_training_keeps_the_heap_top_resident():
    # each backward frees the step's graph; without the top pad glibc trims the
    # heap and every step faults it back in (hundreds to thousands of minor faults)
    import resource
    cfg = RunConfig(gen=GenConfig(docs=6, tokens_per_doc=(24, 32), frames_per_doc=(12, 16),
                                  seed=0), epochs=1, seed=0)
    corpus = generate(cfg.gen, cfg.model)
    train(cfg, corpus)  # warm-up: the heap reaches its working size
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    steps = train(cfg, corpus).step
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps
    assert per_step < 100, f"{per_step:.0f} minor faults per step"


class TestCompatibility:
    """A corpus the model cannot run is refused before the first step."""

    def _refused(self, monkeypatch, cfg, corpus, match):
        calls = []
        monkeypatch.setattr(trainer, "forward", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match=match):
            train(cfg, corpus)
        assert calls == []

    @pytest.mark.parametrize("fractions", [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    def test_frame_shape_mismatch(self, monkeypatch, fractions):
        # a 4x3 patch grid against the default 16x8 model, all full or all no_video
        gen = GenConfig(docs=3, seed=0)
        corpus = assign_modality_regime(generate(gen, SMALL), fractions, 0)
        self._refused(monkeypatch, RunConfig(gen=gen), corpus,
                      r"document \S+: frames\[0\] has shape \(4, 3\), model.\(n_p, d_in\) is \(16, 8\)")

    def test_too_many_tokens(self, monkeypatch):
        cfg = small_run(model=dataclasses.replace(SMALL, max_len=7))
        self._refused(monkeypatch, cfg, generate(cfg.gen, cfg.model),
                      r"document \S+: \d+ tokens exceed model.max_len=7")

    def test_too_many_frames(self, monkeypatch):
        cfg = small_run(model=dataclasses.replace(SMALL, max_frames=1))
        cfg.gen = dataclasses.replace(cfg.gen, frames_per_doc=(2, 2))
        self._refused(monkeypatch, cfg, generate(cfg.gen, cfg.model),
                      r"document \S+: 2 frames exceed model.max_frames=1")

    def test_unknown_labels(self, monkeypatch):
        cfg = small_run(model=dataclasses.replace(SMALL, entity_types=("PER",),
                                                  grounding_types=("PER",)))
        self._refused(monkeypatch, cfg, generate(cfg.gen, SMALL), "entity labels unknown")

    def test_custom_relation_names_accepted(self):
        model = dataclasses.replace(SMALL, relation_types=("works_for", "born_in"))
        cfg = small_run(model=model, epochs=1)
        cfg.gen = dataclasses.replace(cfg.gen, entity_rate=0.4, relation_rate=0.8)
        corpus = generate(cfg.gen, cfg.model)
        assert {r.type for d in corpus.documents for r in d.relations} == {"works_for", "born_in"}
        assert train(cfg, corpus).step == len(corpus.documents)

    def test_custom_label_sets_accepted(self):
        # the generator draws every label from the model, so its corpus trains as is
        model = dataclasses.replace(SMALL, entity_types=("PERSON", "PLACE", "THING"),
                                    grounding_types=("PERSON",), relation_types=("works_for",))
        cfg = small_run(model=model, epochs=1)
        cfg.gen = dataclasses.replace(cfg.gen, docs=4, entity_rate=0.4, relation_rate=0.8,
                                      grounding_rate=1.0)
        corpus = generate(cfg.gen, cfg.model)
        assert {e.type for d in corpus.documents for e in d.entities} <= set(model.entity_types)
        assert {g.type for d in corpus.documents for g in d.regions} == {"PERSON"}
        assert train(cfg, corpus).step == len(corpus.documents)

    def test_given_params_mismatch(self, monkeypatch):
        cfg = small_run()
        params = init_params(dataclasses.replace(SMALL, d_h=12), 0)
        calls = []
        monkeypatch.setattr(trainer, "forward", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match=r"parameter \S+ has shape"):
            train(cfg, generate(cfg.gen, cfg.model), params=params)
        assert calls == []


class TestCheckpoint:
    def _ckpt(self, tmp_path, cfg=None, trained=False):
        cfg = cfg or small_run(epochs=1)
        corpus = generate(cfg.gen, cfg.model)
        if trained:
            out = train(cfg, corpus)
            params, step, rng = out.params, out.step, out.rng_state
        else:
            params, step, rng = init_params(cfg.model, cfg.seed), 0, None
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, cfg, step, rng)
        return path, params, cfg, step

    def test_round_trip_identity(self, tmp_path):
        path, params, cfg, step = self._ckpt(tmp_path, trained=True)
        loaded, cfg2, step2, rng2 = load_checkpoint(str(path))
        assert step2 == step and cfg2 == cfg
        assert loaded.names() == params.names()
        for n in params.names():
            assert np.array_equal(loaded[n].data, params[n].data), n

    def test_older_manifest_with_trainable_key_loads(self, tmp_path):
        # checkpoints once listed (name, shape, trainable); the key is now ignored
        path, params, *_ = self._ckpt(tmp_path)
        data = path.read_bytes()
        end = 8 + struct.unpack("<Q", data[:8])[0]
        header = json.loads(data[8:end])
        for entry in header["manifest"]:
            entry["trainable"] = True
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        old = tmp_path / "old.ckpt"
        old.write_bytes(struct.pack("<Q", len(blob)) + blob + data[end:])
        loaded = load_checkpoint(str(old))[0]
        assert all(np.array_equal(loaded[n].data, params[n].data) for n in params.names())

    def test_save_load_save_bitwise_identical(self, tmp_path):
        path, params, cfg, step = self._ckpt(tmp_path, trained=True)
        loaded, cfg2, step2, rng2 = load_checkpoint(str(path))
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(str(path2), loaded, cfg2, step2, rng2)
        assert path.read_bytes() == path2.read_bytes()

    def test_same_run_same_bytes(self, tmp_path):
        cfg = small_run(epochs=1)
        corpus = generate(cfg.gen, cfg.model)
        pa = tmp_path / "a.ckpt"
        pb = tmp_path / "b.ckpt"
        out_a = train(cfg, corpus)
        out_b = train(cfg, corpus)
        save_checkpoint(str(pa), out_a.params, cfg, out_a.step, out_a.rng_state)
        save_checkpoint(str(pb), out_b.params, cfg, out_b.step, out_b.rng_state)
        assert pa.read_bytes() == pb.read_bytes()

    def test_truncated_header_rejected(self, tmp_path):
        path, *_ = self._ckpt(tmp_path)
        data = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:4])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(str(bad))

    def test_truncated_payload_rejected(self, tmp_path):
        path, *_ = self._ckpt(tmp_path)
        data = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="truncated payload"):
            load_checkpoint(str(bad))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, *_ = self._ckpt(tmp_path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("header", [
        b"\xff\xfe not utf-8",
        b"{not json",
        b"[1, 2]",
        b'{"manifest": [], "config": {}}',
        b'{"manifest": {}, "config": {}, "step": 0}',
        b'{"manifest": [{"name": "w", "shape": [-1], "trainable": true}], "config": {}, "step": 0}',
        b'{"manifest": [{"name": "w", "shape": [2.5], "trainable": true}], "config": {}, "step": 0}',
        b'{"manifest": [{"shape": [2], "trainable": true}], "config": {}, "step": 0}',
        b'{"manifest": [{"name": "w", "shape": [1099511627776], "trainable": true}],'
        b' "config": {}, "step": 0}',
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(struct.pack("<Q", len(header)) + header)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(bad))

    def test_step_log_jsonl(self, tmp_path):
        cfg = small_run(epochs=1)
        out = train(cfg, generate(cfg.gen, cfg.model))
        path = tmp_path / "log.jsonl"
        save_step_log(str(path), out.log)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == out.step
        assert rows[0]["step"] == 1 and "total" in rows[0] and "ent" in rows[0]


class _FailingFile:
    """A file whose writes stop with an OSError once `limit` characters are in."""

    def __init__(self, f, limit: int):
        self.f, self.left = f, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, chunk):
        if len(chunk) > self.left:
            self.f.write(chunk[:self.left])
            self.left = 0
            raise OSError("disk full")
        self.left -= len(chunk)
        return self.f.write(chunk)


def _save_checkpoint(path, version):
    cfg = small_run()
    save_checkpoint(path, init_params(cfg.model, version), cfg, version)


def _save_step_log(path, version):
    save_step_log(path, [StepRecord(i, f"d{i}", 1.5 * i + version, {"ent": 0.25 * version})
                         for i in range(1, 9)])


def _save_report(path, version):
    save_report(path, {"avg": 0.5 * version, "mode": "gold-pairs", "regimes": {}})


def _serialize_corpus(path, version):
    cfg = small_run()
    serialize_corpus(generate(dataclasses.replace(cfg.gen, seed=version), cfg.model), path)


def _save_sweep_csv(path, version):
    save_sweep_csv(path, [SweepRow("prompt_len", "2", seed, dict.fromkeys(TASKS, 0.25 * version),
                                   0.5 * version + seed) for seed in range(3)])


def _report_csv(path, version):
    """`himie report --out path` on a report whose scores depend on `version`."""
    sec = {"n_documents": 2, "avg": 0.5 * version,
           "errors": {"counts": dict.fromkeys(ERROR_KEYS, version), "rates": {}},
           **{t: {"precision": 0.25 * version, "recall": 0.5, "f1": 0.125 * version}
              for t in TASKS}}
    with tempfile.TemporaryDirectory() as d:
        report = os.path.join(d, "report.json")
        with open(report, "w", encoding="utf-8") as f:
            json.dump({**sec, "regimes": {}}, f)
        assert cli.cmd_report(argparse.Namespace(report=report, out=path)) == 0


class TestCrashSafeWrites:
    @pytest.mark.parametrize("save", [_save_checkpoint, _save_step_log, _save_report,
                                      _serialize_corpus, _save_sweep_csv, _report_csv])
    def test_failed_write_keeps_the_old_file(self, save, tmp_path, monkeypatch):
        target, ref = tmp_path / "out", tmp_path / "ref"
        save(str(target), 0)
        old = target.read_bytes()
        save(str(ref), 1)
        new = ref.read_bytes()
        ref.unlink()
        assert new != old
        real_open = open
        monkeypatch.setattr(data, "open", lambda path, mode, **kw: _FailingFile(
            real_open(path, mode, **kw), len(new) // 2), raising=False)
        with pytest.raises(OSError, match="disk full"):
            save(str(target), 1)
        assert target.read_bytes() == old
        assert os.listdir(tmp_path) == ["out"]
        monkeypatch.undo()
        save(str(target), 1)
        assert target.read_bytes() == new
        assert os.listdir(tmp_path) == ["out"]
