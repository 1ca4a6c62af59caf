"""Command-line entry points: gen, train, eval, gradcheck, sweep, report.

Exit codes: 0 success, 1 validation/config/data failure, 2 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .autodiff import ConfigError, NumericError, gradcheck
from .config import RunConfig, load_config
from .data import (MODALITIES, Corpus, ParseError, ValidationError, assign_modality_regime,
                   load_corpus, replacing, serialize_corpus)
from .evaluate import evaluate, report_bytes, save_report
from .metrics import ERROR_KEYS
from .model import check_compatible, forward, init_params
from .sweep import AXES, save_sweep_csv, sweep
from .trainer import (CheckpointError, load_checkpoint, save_checkpoint, save_step_log,
                      train)
from . import synth


def _output(path: str | None) -> str | None:
    """`path` itself; a ConfigError naming it when its directory does not exist,
    checked before a command loads or computes anything."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write {path}: directory {os.path.dirname(path)} does not exist")
    return path


def _cfg(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
        cfg.gen = dataclasses.replace(cfg.gen, seed=args.seed)
    cfg.validate()
    return cfg


def cmd_gen(args) -> int:
    cfg = _cfg(args)
    out = _output(args.out or cfg.corpus_path)
    if not out:
        raise ConfigError("gen needs --out or corpus_path in the config")
    corpus = synth.generate(cfg.gen, cfg.model)
    corpus = assign_modality_regime(corpus, cfg.regime_fractions, cfg.seed)
    serialize_corpus(corpus, out)
    counts = {r: sum(1 for d in corpus.documents if d.modality_mask == r)
              for r in MODALITIES}
    print(f"wrote {len(corpus.documents)} documents to {out} {counts}")
    return 0


def cmd_train(args) -> int:
    cfg = _cfg(args)
    corpus_path = args.corpus or cfg.corpus_path
    if not corpus_path:
        raise ConfigError("train needs --corpus or corpus_path in the config")
    out = _output(args.out or cfg.checkpoint_path)
    if not out:
        raise ConfigError("train needs --out or checkpoint_path in the config")
    _output(args.log)
    corpus = load_corpus(corpus_path)
    result = train(cfg, corpus)
    save_checkpoint(out, result.params, cfg, result.step, result.rng_state)
    if args.log:
        save_step_log(args.log, result.log)
    last = result.log[-1].total if result.log else float("nan")
    print(f"trained {result.step} steps; final loss {last:.6f}; checkpoint {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config) if args.config else None
    out = _output(args.out or (cfg.report_path if cfg else None))
    params, saved, _step, _rng = load_checkpoint(args.checkpoint)
    cfg = cfg or saved
    corpus_path = args.corpus or cfg.corpus_path
    if not corpus_path:
        raise ConfigError("eval needs --corpus or corpus_path in the config")
    out = out or _output(cfg.report_path)
    corpus = load_corpus(corpus_path)
    report = evaluate(params, cfg, corpus)
    if out:
        save_report(out, report)
        print(f"report written to {out}")
    else:
        sys.stdout.write(report_bytes(report).decode("utf-8") + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    if not args.tol > 0:
        raise ConfigError(f"gradcheck: tol must be > 0, got {args.tol}")
    cfg = _cfg(args)
    gen = dataclasses.replace(cfg.gen, docs=1, tokens_per_doc=(12, 16),
                              frames_per_doc=(2, 2))
    doc = synth.generate(gen, cfg.model).documents[0]
    # one copy per regime, so the missing-modality construction is checked too
    docs = [dataclasses.replace(doc, modality_mask=m) for m in MODALITIES]
    check_compatible(Corpus(docs), cfg.model)
    params = init_params(cfg.model, cfg.seed)

    def loss():
        # a fresh stream per call: every finite-difference pass sees the same VAE noise
        rng = np.random.default_rng(cfg.seed)
        terms = [forward(d, params, cfg.model, cfg.loss, rng=rng).loss for d in docs]
        return sum(terms[1:], terms[0])

    report = gradcheck(loss, params, samples=args.samples, eps=args.eps, seed=cfg.seed)
    worst = report.worst()
    print(f"gradcheck: {len(report.entries)} samples, max rel err "
          f"{report.max_rel_err:.3e} (worst {worst.name}[{worst.index}])")
    if not report.ok(args.tol):
        print(f"FAIL: exceeds tolerance {args.tol:.1e}")
        return 2
    print(f"OK: within tolerance {args.tol:.1e}")
    return 0


def _sweep_values(axis: str, text: str) -> list:
    parse = {"prompt_len": int, "missing_ratio": float}.get(axis, str)
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            values.append(parse(tok))
        except ValueError:
            raise ConfigError(f"sweep --values: {tok!r} is not a valid {axis} value") from None
    return values


def cmd_sweep(args) -> int:
    cfg = _cfg(args)
    if not _output(args.out):
        raise ConfigError("sweep needs --out for the CSV table")
    values = _sweep_values(args.axis, args.values)
    if args.corpus or cfg.corpus_path:
        corpus = load_corpus(args.corpus or cfg.corpus_path)
    else:
        corpus = synth.generate(cfg.gen, cfg.model)
    rows = sweep(cfg, corpus, args.axis, values)
    save_sweep_csv(args.out, rows)
    print(f"swept {args.axis} over {values}; table written to {args.out}")
    return 0


def _fmt_section(name: str, sec: dict) -> list[str]:
    lines = [f"[{name}] documents: {sec['n_documents']}"]
    for task in ("ent", "cha", "rel", "gro"):
        s = sec[task]
        lines.append(f"  {task:4s} P {s['precision']:.4f}  R {s['recall']:.4f}  "
                     f"F1 {s['f1']:.4f}")
    lines.append(f"  avg F1 {sec['avg']:.4f}")
    counts = sec["errors"]["counts"]
    rates = sec["errors"]["rates"]
    lines.append("  errors: " + ", ".join(f"{k}={counts[k]}" for k in ERROR_KEYS))
    lines.append("  error rates: " + ", ".join(f"{k}={v:.3f}" for k, v in rates.items()))
    return lines


def cmd_report(args) -> int:
    # render everything before writing anything, so a file that is not a
    # report fails with one error line
    _output(args.out)
    try:
        with open(args.report, "r", encoding="utf-8") as f:
            rep = json.load(f)
        sections = [("overall", rep)] + list(rep.get("regimes", {}).items())
        lines, rows = [], []
        for name, sec in sections:
            if name == "overall" or sec["n_documents"]:
                lines.extend(_fmt_section(name, sec))
            for task in ("ent", "cha", "rel", "gro"):
                s = sec[task]
                rows.append([name, task, s["precision"], s["recall"], s["f1"]])
            rows.append([name, "avg", "", "", sec["avg"]])
    except KeyError as e:
        raise ConfigError(f"{args.report} is not a report: missing field {e}") from None
    except (ValueError, TypeError, AttributeError) as e:
        raise ConfigError(f"{args.report} is not a report: {e}") from None
    print("\n".join(lines))
    if args.out:
        with replacing(args.out, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["section", "task", "precision", "recall", "f1"])
            w.writerows(rows)
        print(f"plot data written to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a `ConfigError`, so that it exits 1 with
    one error line; the subcommand parsers inherit this class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="himie", description="hierarchical multimodal information extraction")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, corpus=False, seed=True, out=True):
        sp.add_argument("--config", help="path to a JSON run-config file")
        if seed:
            sp.add_argument("--seed", type=int, help="override config seed")
        if out:
            sp.add_argument("--out", help="output path")
        if corpus:
            sp.add_argument("--corpus", help="corpus JSONL path (overrides config)")

    sp = sub.add_parser("gen", help="synthesize a corpus")
    common(sp)
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("train", help="train a model")
    common(sp, corpus=True)
    sp.add_argument("--log", help="write per-step loss log (JSONL)")
    sp.set_defaults(fn=cmd_train)

    # evaluation is deterministic, so it takes no seed
    sp = sub.add_parser("eval", help="evaluate a checkpoint")
    common(sp, corpus=True, seed=False)
    sp.add_argument("--checkpoint", required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient check")
    common(sp, out=False)   # it writes nothing
    sp.add_argument("--samples", type=int,
                    help="scalars to check (default: one per parameter name)")
    sp.add_argument("--eps", type=float, default=1e-4)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("sweep", help="train/evaluate across one axis")
    common(sp, corpus=True)
    sp.add_argument("--axis", required=True, choices=AXES)
    sp.add_argument("--values", required=True,
                    help="comma-separated values, e.g. 2,4,8,16,32")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("report", help="render a report JSON")
    sp.add_argument("--report", required=True, help="path to report JSON")
    sp.add_argument("--out", help="write plot-data CSV here")
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, ValidationError, ParseError, CheckpointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
