"""End-to-end command-line flows through main() with tiny configs."""
import csv
import dataclasses
import json
import struct
import warnings

import numpy as np
import pytest

from himie.autodiff import ParamTree
from himie.cli import main
from himie.config import GenConfig, ModelConfig, OptimConfig, RunConfig, config_to_dict
from himie.model import init_params
from himie.trainer import load_checkpoint, save_checkpoint

SMALL = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, prompt_len=3,
                    vocab=64, max_len=64)


def write_cfg(tmp_path, **over):
    base = dict(
        model=SMALL,
        gen=GenConfig(docs=3, tokens_per_doc=(8, 12), frames_per_doc=(1, 2), seed=0),
        epochs=1, seed=0)
    base.update(over)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config_to_dict(RunConfig(**base))), encoding="utf-8")
    return str(path)


class TestPipeline:
    def test_gen_train_eval_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        ckpt = tmp_path / "model.ckpt"
        report = tmp_path / "report.json"
        plot = tmp_path / "plot.csv"
        log = tmp_path / "log.jsonl"

        assert main(["gen", "--config", cfg, "--out", str(corpus)]) == 0
        assert corpus.exists() and len(corpus.read_text().splitlines()) == 3

        assert main(["train", "--config", cfg, "--corpus", str(corpus),
                     "--out", str(ckpt), "--log", str(log)]) == 0
        params, loaded_cfg, step, _ = load_checkpoint(str(ckpt))
        assert step == 3
        assert len(log.read_text().splitlines()) == 3

        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--out", str(report)]) == 0
        rep = json.loads(report.read_text())
        assert rep["n_documents"] == 3 and 0.0 <= rep["avg"] <= 1.0

        assert main(["report", "--report", str(report), "--out", str(plot)]) == 0
        out = capsys.readouterr().out
        assert "avg F1" in out
        rows = list(csv.DictReader(open(plot, newline="")))
        assert rows[0]["section"] == "overall"
        assert {r["task"] for r in rows} == {"ent", "cha", "rel", "gro", "avg"}

    def test_eval_to_stdout_without_out(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        ckpt = tmp_path / "model.ckpt"
        main(["gen", "--config", cfg, "--out", str(corpus)])
        main(["train", "--config", cfg, "--corpus", str(corpus), "--out", str(ckpt)])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--corpus", str(corpus)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["n_documents"] == 3

    @pytest.mark.parametrize("labels", [
        {"entity_types": ("PER", "LOC", "ORG")},
        {"grounding_types": ("PER",)},
        {"entity_types": ("PERSON", "PLACE"), "grounding_types": ("PERSON",),
         "relation_types": ("works_for",)},
    ])
    def test_custom_label_sets(self, tmp_path, capsys, labels):
        # the corpus `gen` writes fits the model's heads with no further check
        cfg = write_cfg(tmp_path, model=dataclasses.replace(SMALL, **labels))
        corpus, ckpt = tmp_path / "corpus.jsonl", tmp_path / "model.ckpt"
        report = tmp_path / "report.json"
        assert main(["gen", "--config", cfg, "--out", str(corpus)]) == 0
        assert main(["train", "--config", cfg, "--corpus", str(corpus), "--out", str(ckpt)]) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--out", str(report)]) == 0
        assert main(["report", "--report", str(report)]) == 0
        assert main(["gradcheck", "--config", cfg, "--samples", "20"]) == 0

    def test_gradcheck_command(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["gradcheck", "--config", cfg, "--samples", "20"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("index", [None, 3, 4], ids=["clean", "dstart", "dend"])
    def test_gradcheck_default_checks_every_name(self, tmp_path, capsys, plant_vjp_error,
                                                 index):
        # a 1e-3 error in a CRF boundary score reaches only that parameter,
        # so only a check that visits every name sees it
        cfg = write_cfg(tmp_path)
        if index is not None:
            plant_vjp_error("crf_nll", index)
        assert main(["gradcheck", "--config", cfg]) == (0 if index is None else 2)
        n_names = len(init_params(SMALL, 0).names())
        assert f"gradcheck: {n_names} samples" in capsys.readouterr().out

    def test_eval_scores_a_zero_width_box(self, tmp_path, capsys):
        # a saturated width logit gives a box of width exactly 0.0, a legal
        # prediction that matches nothing
        model = dataclasses.replace(SMALL, entity_types=("PERSON", "PLACE"),
                                    grounding_types=("PERSON",),
                                    relation_types=("works_for",))
        corpus, ckpt = tmp_path / "corpus.jsonl", tmp_path / "model.ckpt"
        report = tmp_path / "report.json"
        assert main(["gen", "--config", write_cfg(tmp_path, model=model),
                     "--out", str(corpus)]) == 0
        params = init_params(model, 0)
        params["heads.gro.box.b"].data[:] = [0.0, 0.0, -80.0, 0.0]
        params["heads.gro.type.b"].data[:] = [0.0, 50.0]
        save_checkpoint(str(ckpt), params, RunConfig(model=model), 0)
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                     "--out", str(report)]) == 0
        gro = json.loads(report.read_text())["gro"]
        assert gro["precision"] == 0.0 and gro["recall"] == 0.0

    def test_gradcheck_sample_mode(self, tmp_path, capsys):
        # each finite-difference pass draws the same VAE noise
        cfg = write_cfg(tmp_path, model=dataclasses.replace(SMALL, vae_mode="sample",
                                                            kl_weight=0.05))
        assert main(["gradcheck", "--config", cfg, "--samples", "20"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--axis", "prompt_len",
                     "--values", "2,3", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out, newline="")))
        assert len(rows) == 2 * 3 + 2 * 2

    def test_seed_override_changes_corpus(self, tmp_path):
        cfg = write_cfg(tmp_path)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["gen", "--config", cfg, "--out", str(a)])
        main(["gen", "--config", cfg, "--seed", "7", "--out", str(b)])
        assert a.read_text() != b.read_text()


class TestExitCodes:
    def test_missing_corpus_file_is_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        code = main(["train", "--config", cfg,
                     "--corpus", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"d_h": -1}}))
        assert main(["gen", "--config", str(bad),
                     "--out", str(tmp_path / "c.jsonl")]) == 1

    def test_unparseable_corpus_is_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("not json\n")
        assert main(["train", "--config", cfg, "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_numeric_failure_is_two(self, tmp_path, capsys):
        # a tolerance below any float rounding error forces the gradcheck failure branch
        cfg = write_cfg(tmp_path)
        code = main(["gradcheck", "--config", cfg, "--samples", "5",
                     "--tol", "1e-300"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_diverging_train_is_two_with_one_line(self, tmp_path, capsys):
        # learning rates that blow the weights up: exit 2, one line, no numpy
        # warning and no checkpoint
        cfg = write_cfg(tmp_path, optim=OptimConfig(lr_encoder=1e30, lr_other=1e30), epochs=3)
        corpus, ckpt = tmp_path / "corpus.jsonl", tmp_path / "model.ckpt"
        assert main(["gen", "--config", cfg, "--out", str(corpus)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--config", cfg, "--corpus", str(corpus), "--out", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("numeric error: ") and err.count("\n") == 1, err
        assert [str(w.message) for w in caught] == []
        assert not ckpt.exists()

    def test_gradcheck_documents_beyond_max_len_is_one(self, tmp_path, capsys):
        # gradcheck builds 12-16-token documents, which max_len=10 cannot run
        cfg = write_cfg(tmp_path, model=dataclasses.replace(SMALL, max_len=10),
                        gen=GenConfig(docs=3, tokens_per_doc=(4, 8), frames_per_doc=(1, 2)))
        assert main(["gradcheck", "--config", cfg, "--samples", "5"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "max_len=10" in err[0]

    # an unknown flag, a bad int, a missing subcommand, the seed that `eval`
    # does not take, and the output path that `gradcheck`, which writes nothing,
    # does not take
    @pytest.mark.parametrize("argv,message", [
        (["train", "--bogus"], "unrecognized arguments: --bogus"),
        (["train", "--seed", "abc"], "himie train: argument --seed: invalid int value"),
        ([], "required: command"),
        (["eval", "--checkpoint", "m.ckpt", "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["gradcheck", "--config", "run.json", "--out", "/no/such/dir/x.json"],
         "unrecognized arguments: --out /no/such/dir/x.json"),
    ])
    def test_bad_command_line_is_one(self, capsys, argv, message):
        capsys.readouterr()
        assert main(argv) == 1
        assert message in _one_error_line(capsys)

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["train", "--help"])
        assert ei.value.code == 0
        assert "--seed" in capsys.readouterr().out

    def test_invalid_corpus_content_is_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        main(["gen", "--config", cfg, "--out", str(corpus)])
        lines = corpus.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["entities"][0]["start"] = 10_000 if doc["entities"] else 0
        if not doc["entities"]:
            doc["entities"] = [{"start": 10_000, "end": 10_001, "type": "PER"}]
        lines[0] = json.dumps(doc)
        corpus.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        assert "error" in capsys.readouterr().err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


BAD_CONFIGS = [({"model": {"d_h": "x"}}, "model.d_h"), ({"epochs": "3"}, "epochs"),
               ({"optim": {"lr_other": None}}, "optim.lr_other"),
               ({"model": {"entity_types": "PER"}}, "model.entity_types")]


class TestBadInput:
    """Bad configs and incompatible corpora leave with exit 1 and one error line."""

    @pytest.mark.parametrize("bad,field", BAD_CONFIGS)
    def test_train_config_value_type(self, tmp_path, capsys, bad, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["train", "--config", str(path), "--corpus", str(tmp_path / "c.jsonl"),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        assert f"{field} must be" in _one_error_line(capsys)

    @pytest.mark.parametrize("bad,field", BAD_CONFIGS)
    def test_eval_checkpoint_config_value_type(self, tmp_path, capsys, bad, field):
        blob = json.dumps({"manifest": [], "config": bad, "step": 0}).encode("utf-8")
        path = tmp_path / "badconfig.ckpt"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        assert main(["eval", "--checkpoint", str(path)]) == 1
        assert f"{field} must be" in _one_error_line(capsys)

    @pytest.mark.parametrize("command,bad,field", [
        ("gen", '"regime_fractions": [NaN, 0.5, 0.5]', "config.regime_fractions[0]"),
        ("train", '"optim": {"lr_encoder": NaN}', "config.optim.lr_encoder"),
        ("train", '"loss": {"alpha_ent": Infinity}', "config.loss.alpha_ent"),
        ("train", '"model": {"kl_weight": -Infinity}', "config.model.kl_weight"),
    ])
    def test_non_finite_config_float(self, tmp_path, capsys, command, bad, field):
        path = tmp_path / "bad.json"
        path.write_text("{" + bad + "}")
        corpus = tmp_path / "c.jsonl"
        if command == "gen":
            argv = ["gen", "--config", str(path), "--out", str(corpus)]
        else:
            assert main(["gen", "--config", write_cfg(tmp_path), "--out", str(corpus)]) == 0
            argv = ["train", "--config", str(path), "--corpus", str(corpus),
                    "--out", str(tmp_path / "m.ckpt"), "--log", str(tmp_path / "steps.jsonl")]
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv) == 1
        assert f"{field} must be finite" in _one_error_line(capsys)
        assert sorted(tmp_path.iterdir()) == before

    def test_eval_checkpoint_non_finite_config_float(self, tmp_path, capsys):
        blob = json.dumps({"manifest": [], "config": {"model": {"kl_weight": float("nan")}},
                           "step": 0}).encode("utf-8")
        assert b"NaN" in blob
        path = tmp_path / "nan.ckpt"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        assert main(["eval", "--checkpoint", str(path)]) == 1
        assert "config.model.kl_weight must be finite, got nan" in _one_error_line(capsys)

    @staticmethod
    def _bad_input(tmp_path, kind):
        """argv for `kind` of bad input, and a fragment of the error line it gives."""
        cfg = write_cfg(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        report = tmp_path / "report.json"
        if kind == "corpus_is_directory":
            return ["train", "--config", cfg, "--corpus", str(tmp_path),
                    "--out", str(tmp_path / "m.ckpt")], "Is a directory"
        if kind == "config_not_utf8":
            bad = tmp_path / "bad.json"
            bad.write_bytes(b'{"epochs": 1 \xff}')
            return ["gen", "--config", str(bad), "--out", str(corpus)], \
                f"config file {bad}: invalid UTF-8"
        if kind == "corpus_not_utf8":
            corpus.write_bytes(b"\n\xff\xfe{}\n")
            return ["train", "--config", cfg, "--corpus", str(corpus),
                    "--out", str(tmp_path / "m.ckpt")], "line 2: invalid UTF-8"
        if kind == "report_not_json":
            report.write_text("not json\n")
            return ["report", "--report", str(report)], "is not a report: Expecting value"
        if kind == "report_empty_object":
            report.write_text("{}\n")
            return ["report", "--report", str(report)], "missing field 'n_documents'"
        if kind == "sweep_bad_value":
            return ["sweep", "--config", cfg, "--axis", "prompt_len", "--values", "2,x",
                    "--out", str(tmp_path / "s.csv")], "'x' is not a valid prompt_len value"
        raise AssertionError(kind)

    @pytest.mark.parametrize("kind", ["config_not_utf8", "corpus_is_directory",
                                      "corpus_not_utf8", "report_not_json", "report_empty_object",
                                      "sweep_bad_value"])
    def test_loader_error(self, tmp_path, capsys, kind):
        argv, fragment = self._bad_input(tmp_path, kind)
        capsys.readouterr()
        assert main(argv) == 1
        assert fragment in _one_error_line(capsys)

    def test_empty_relation_name(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, model=dataclasses.replace(SMALL, relation_types=("R0", "")))
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "c.jsonl")]) == 1
        assert "model.relation_types has an empty name" in _one_error_line(capsys)

    def test_negative_seed(self, tmp_path, capsys):
        assert main(["gen", "--config", write_cfg(tmp_path), "--seed", "-1",
                     "--out", str(tmp_path / "c.jsonl")]) == 1
        assert "seed must be >= 0, got -1" in _one_error_line(capsys)

    @pytest.mark.parametrize("flag,value,fragment", [("--samples", "0", "samples must be >= 1"),
                                                     ("--eps", "0", "eps must be > 0"),
                                                     ("--tol", "0", "tol must be > 0"),
                                                     ("--tol", "-1", "tol must be > 0"),
                                                     ("--tol", "nan", "tol must be > 0")])
    def test_gradcheck_preconditions(self, tmp_path, capsys, flag, value, fragment):
        assert main(["gradcheck", "--config", write_cfg(tmp_path), flag, value]) == 1
        assert fragment in _one_error_line(capsys)

    # the first value is valid, so a sweep that checked each point only when it
    # reached it would train three seeds before failing
    @pytest.mark.parametrize("axis,values,fragment", [
        ("mmcm_on_off", "on,bogus", "must be on/off, got 'bogus'"),
        ("prompt_len", "2,0", "model.prompt_len must be >= 1, got 0"),
        ("missing_ratio", "0.5,1.5", "missing ratio must be in [0, 1], got 1.5"),
        ("prompt_len", "2,02", "sweep values must differ; 2 is repeated")])
    def test_sweep_checks_every_point_before_training(self, tmp_path, capsys, monkeypatch,
                                                      axis, values, fragment):
        trained = []
        monkeypatch.setattr("himie.sweep.train", lambda *args: trained.append(args))
        capsys.readouterr()
        assert main(["sweep", "--config", write_cfg(tmp_path), "--axis", axis,
                     "--values", values, "--out", str(tmp_path / "bad.csv")]) == 1
        assert fragment in _one_error_line(capsys)
        assert trained == [] and not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_old_gen_shape_keys(self, tmp_path, capsys, command):
        # gen no longer restates the model's corpus shape; such files are refused
        old = {"model": dataclasses.asdict(SMALL),
               "gen": {"n_p": 4, "d_in": 3, "vocab": 64, "relation_labels": 4}}
        if command == "train":
            path = tmp_path / "old.json"
            path.write_text(json.dumps(old))
            argv = ["train", "--config", str(path), "--corpus", str(tmp_path / "c.jsonl"),
                    "--out", str(tmp_path / "m.ckpt")]
        else:
            blob = json.dumps({"manifest": [], "config": old, "step": 0}).encode("utf-8")
            path = tmp_path / "old.ckpt"
            path.write_bytes(struct.pack("<Q", len(blob)) + blob)
            argv = ["eval", "--checkpoint", str(path)]
        assert main(argv) == 1
        assert ("unknown config.gen keys: ['d_in', 'n_p', 'relation_labels', 'vocab']"
                in _one_error_line(capsys))

    @staticmethod
    def _zero_token_corpus(tmp_path):
        """A generated corpus whose second document has no tokens, and that id."""
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--config", write_cfg(tmp_path), "--out", str(corpus)]) == 0
        lines = corpus.read_text().splitlines()
        doc = json.loads(lines[1])
        doc.update(tokens=[], entities=[], chains=[], relations=[], modality_mask="full")
        lines[1] = json.dumps(doc)
        corpus.write_text("\n".join(lines) + "\n")
        return corpus, doc["id"]

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("ran the model before refusing the corpus")

    def test_train_zero_token_document(self, tmp_path, capsys, monkeypatch):
        corpus, doc_id = self._zero_token_corpus(tmp_path)
        monkeypatch.setattr("himie.trainer.forward", self._refuse)
        capsys.readouterr()
        assert main(["train", "--config", write_cfg(tmp_path), "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        assert f"document {doc_id} has no tokens" in _one_error_line(capsys)

    def test_eval_zero_token_document(self, tmp_path, capsys, monkeypatch):
        corpus, doc_id = self._zero_token_corpus(tmp_path)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(str(ckpt), init_params(SMALL, 0), RunConfig(model=SMALL), 0)
        monkeypatch.setattr("himie.evaluate.predict", self._refuse)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 1
        assert f"document {doc_id} has no tokens" in _one_error_line(capsys)

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_empty_corpus_before_any_step(self, tmp_path, capsys, monkeypatch, command):
        corpus, out = tmp_path / "empty.jsonl", tmp_path / "out"
        corpus.write_text("", encoding="utf-8")
        monkeypatch.setattr("himie.trainer.forward", self._refuse)
        axis = ["--axis", "prompt_len", "--values", "2,3"] if command == "sweep" else []
        capsys.readouterr()
        assert main([command, "--config", write_cfg(tmp_path), "--corpus", str(corpus),
                     "--out", str(out)] + axis) == 1
        assert "empty corpus" in _one_error_line(capsys)
        assert not out.exists()

    def _mismatched(self, tmp_path):
        """A corpus of 4x3 patch grids and a config whose model expects 16x8."""
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--config", write_cfg(tmp_path), "--out", str(corpus)]) == 0
        wide = dataclasses.replace(SMALL, n_p=16, d_in=8)
        return corpus, write_cfg(tmp_path, model=wide), wide

    def test_train_incompatible_corpus(self, tmp_path, capsys):
        corpus, cfg, _ = self._mismatched(tmp_path)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--corpus", str(corpus),
                     "--out", str(tmp_path / "m.ckpt")]) == 1
        assert "frames[0] has shape (4, 3)" in _one_error_line(capsys)

    def test_eval_incompatible_corpus(self, tmp_path, capsys):
        corpus, _, wide = self._mismatched(tmp_path)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(str(ckpt), init_params(wide, 0), RunConfig(model=wide), 0)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 1
        assert "frames[0] has shape (4, 3)" in _one_error_line(capsys)


class TestOutputPathFirst:
    """Without an output path, or with one in a missing directory, a command
    refuses before it loads or computes anything."""

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("worked without a writable output path")

    def test_train_without_out(self, tmp_path, capsys, monkeypatch):
        cfg = write_cfg(tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--config", cfg, "--out", str(corpus)]) == 0
        monkeypatch.setattr("himie.cli.train", self._refuse)
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--corpus", str(corpus)]) == 1
        assert "train needs --out" in _one_error_line(capsys)

    def test_sweep_without_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("himie.cli.sweep", self._refuse)
        assert main(["sweep", "--config", write_cfg(tmp_path), "--axis", "prompt_len",
                     "--values", "2,3"]) == 1
        assert "sweep needs --out" in _one_error_line(capsys)

    @pytest.mark.parametrize("command", ["gen", "train", "train_log", "eval", "eval_config",
                                         "sweep", "report"])
    def test_output_in_a_missing_directory(self, tmp_path, capsys, monkeypatch, command):
        cfg = write_cfg(tmp_path)
        corpus, ckpt = tmp_path / "corpus.jsonl", tmp_path / "model.ckpt"
        report = tmp_path / "report.json"
        assert main(["gen", "--config", cfg, "--out", str(corpus)]) == 0
        save_checkpoint(str(ckpt), init_params(SMALL, 0), RunConfig(model=SMALL), 0)
        if command == "report":
            assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                         "--out", str(report)]) == 0
        missing = str(tmp_path / "missing" / "out")
        fresh = tmp_path / "fresh.ckpt"
        if command == "eval_config":
            cfg = write_cfg(tmp_path, report_path=missing)
        argv = {"gen": ["gen", "--config", cfg, "--out", missing],
                "train": ["train", "--config", cfg, "--corpus", str(corpus), "--out", missing],
                "train_log": ["train", "--config", cfg, "--corpus", str(corpus),
                              "--out", str(fresh), "--log", missing],
                "eval": ["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                         "--out", missing],
                "eval_config": ["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                                "--config", cfg],
                "sweep": ["sweep", "--config", cfg, "--axis", "prompt_len", "--values", "2,3",
                          "--out", missing],
                "report": ["report", "--report", str(report), "--out", missing]}[command]
        for work in ("himie.synth.generate", "himie.cli.load_checkpoint", "himie.cli.load_corpus",
                     "himie.cli.train", "himie.cli.evaluate", "himie.cli.sweep",
                     "himie.cli.json.load"):
            monkeypatch.setattr(work, self._refuse)
        capsys.readouterr()
        assert main(argv) == 1
        err = _one_error_line(capsys)
        assert f"cannot write {missing}: directory " in err and ".tmp" not in err
        assert not fresh.exists() and not (tmp_path / "missing").exists()


class TestCheckpointParams:
    """A checkpoint whose parameters do not fit its model config: exit 1, one line."""

    @pytest.mark.parametrize("edit,message", [
        ("missing", "parameter heads.crf.trans is missing"),
        ("shape", "parameter heads.crf.trans has shape"),
    ])
    def test_eval_refuses(self, tmp_path, capsys, edit, message):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--config", write_cfg(tmp_path), "--out", str(corpus)]) == 0
        ref, params = init_params(SMALL, 0), ParamTree()
        for name, t in ref.items():
            value = t.data
            if name == "heads.crf.trans":
                if edit == "missing":
                    continue
                value = value[:, :-1]
            params.add(name, value)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(str(ckpt), params, RunConfig(model=SMALL), 0)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 1
        assert message in _one_error_line(capsys)

    def test_eval_refuses_per_level_dffm_layout(self, tmp_path, capsys):
        # the layout before the DFFM levels were stacked: dffm.g2x.low.wk, dffm.mix.g2x.low, ...
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--config", write_cfg(tmp_path), "--out", str(corpus)]) == 0
        old = ParamTree()
        for name, t in init_params(SMALL, 0).items():
            parts = name.split(".")
            if name == "dffm.pos" or parts[-1] == "base" or parts[0] != "dffm":
                old.add(name, t.data)
                continue
            for lvl, value in zip(("low", "mid", "high"), t.data):
                if parts[1] == "mix":
                    old.add(f"dffm.mix.{parts[2]}.{lvl}", value)
                else:
                    old.add(".".join(parts[:2] + [lvl] + parts[2:]),
                            value[0] if value.shape[0] == 1 else value)
        ckpt = tmp_path / "old.ckpt"
        save_checkpoint(str(ckpt), old, RunConfig(model=SMALL), 0)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 1
        assert ("parameter dffm.g2x.attn.bo is missing; the model config needs it"
                in _one_error_line(capsys))

    def test_eval_refuses_per_level_mmcm_layout(self, tmp_path, capsys):
        # the layout before the MMCM levels were stacked: mmcm.t2g.low.prompt, ...
        corpus = tmp_path / "corpus.jsonl"
        assert main(["gen", "--config", write_cfg(tmp_path), "--out", str(corpus)]) == 0
        old = ParamTree()
        for name, t in init_params(SMALL, 0).items():
            parts = name.split(".")
            if parts[0] != "mmcm" or parts[2] == "conv_in":
                old.add(name, t.data)
                continue
            for lvl, value in zip(("low", "mid", "high"), t.data):
                old.add(".".join(parts[:2] + [lvl] + parts[2:]),
                        value[0] if parts[-1] == "b" else value)
        assert "mmcm.t2g.low.prompt" in old
        ckpt = tmp_path / "old.ckpt"
        save_checkpoint(str(ckpt), old, RunConfig(model=SMALL), 0)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus)]) == 1
        assert ("parameter mmcm.g2t.conv.b is missing; the model config needs it"
                in _one_error_line(capsys))


class TestMalformedCheckpoint:
    """Each malformed checkpoint leaves `eval` with exit 1 and one error line."""

    def _eval_error(self, path, capsys):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        return err

    def test_random_bytes(self, tmp_path, capsys):
        data = np.random.default_rng(0).bytes(200)
        # the leading length field claims far more bytes than the file holds
        assert struct.unpack("<Q", data[:8])[0] > len(data)
        path = tmp_path / "random.ckpt"
        path.write_bytes(data)
        assert "header length" in self._eval_error(path, capsys)

    @pytest.mark.parametrize("keep,message", [(3, "truncated checkpoint header"),
                                              (100, "header length"),
                                              (-8, "truncated payload")])
    def test_truncated_file(self, tmp_path, capsys, keep, message):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), init_params(SMALL, 0), RunConfig(model=SMALL), 0)
        path.write_bytes(path.read_bytes()[:keep])
        assert message in self._eval_error(path, capsys)

    def test_duplicate_parameter_names(self, tmp_path, capsys):
        entry = {"name": "w", "shape": [1]}
        blob = json.dumps({"manifest": [entry, entry], "config": {},
                           "step": 0}).encode("utf-8")
        path = tmp_path / "duplicate.ckpt"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + bytes(16))
        assert "duplicate parameter names" in self._eval_error(path, capsys)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight(self, tmp_path, capsys, value):
        # training never saves a non-finite weight; of two, the error names
        # the first in manifest order
        params = init_params(SMALL, 0)
        params["heads.crf.trans"].data.flat[0] = value
        params["heads.crf.emission"].data.flat[0] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), params, RunConfig(model=SMALL), 0)
        err = self._eval_error(path, capsys)
        assert "non-finite value in parameter heads.crf.emission" in err

    @pytest.mark.parametrize("scale", [1e50, 1e300])
    def test_overflowing_weights_are_a_numeric_error(self, tmp_path, capsys, scale):
        # scaled weights stay finite, so they load, but the activations overflow:
        # eval leaves with exit 2, one line, no numpy warning and no report
        cfg = write_cfg(tmp_path)
        corpus, ckpt, report = (tmp_path / n for n in ("corpus.jsonl", "model.ckpt", "report.json"))
        assert main(["gen", "--config", cfg, "--out", str(corpus)]) == 0
        assert main(["train", "--config", cfg, "--corpus", str(corpus), "--out", str(ckpt)]) == 0
        params, run, step, rng_state = load_checkpoint(str(ckpt))
        for _name, t in params.items():
            t.data *= scale
        save_checkpoint(str(ckpt), params, run, step, rng_state)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(corpus),
                         "--out", str(report)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("numeric error: document ") and err.count("\n") == 1, err
        assert "not finite" in err
        assert [str(w.message) for w in caught] == []
        assert not report.exists()

    def test_header_without_config(self, tmp_path, capsys):
        blob = json.dumps({"manifest": [], "step": 0}).encode("utf-8")
        path = tmp_path / "noconfig.ckpt"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob)
        assert "lacks config" in self._eval_error(path, capsys)
