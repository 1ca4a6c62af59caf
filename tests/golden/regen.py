"""The behaviour pin: what seven small runs and one sweep through the CLI produce.

Each config runs `himie gen`, `train` and `eval` in both eval modes through
`himie.cli.main` in a scratch directory. `observe` reduces a run to the corpus
sha256, every step-log row, the L2 norm of each parameter group of the trained
weights and both reports; `tests/test_golden.py` compares that against the
JSON file of the same name in this directory. `observe_sweep` runs `himie
sweep` over MMCM on and off on CI's config and keeps every row of its table.

    python tests/golden/regen.py            # rewrite every pinned file
    python tests/golden/regen.py default    # rewrite one

Rewrite the pin only for a change that moves numbers on purpose.
"""
from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from himie.cli import main  # noqa: E402
from himie.trainer import load_checkpoint  # noqa: E402

# CI's small model, with max_len raised so the long-text shape fits
BASE = {
    "model": {"d_h": 8, "n_l": 6, "heads": 2, "n_p": 4, "d_in": 3, "d_vae": 4,
              "prompt_len": 3, "vocab": 64, "max_len": 200,
              "entity_types": ["PERSON", "PLACE"], "grounding_types": ["PERSON"],
              "relation_types": ["works_for"]},
    "gen": {},  # the default shape: 16 documents, 24-48 tokens, 2-4 frames
    "epochs": 2,
}
# name -> {section: fields} merged over BASE
CONFIGS = {
    "default": {},
    "dffm_off": {"model": {"dffm_enabled": False}},
    "mmcm_off": {"model": {"mmcm_enabled": False}},
    "vae_sample_kl": {"model": {"vae_mode": "sample", "kl_weight": 0.05}},
    "long_text": {"gen": {"docs": 8, "tokens_per_doc": [160, 200], "frames_per_doc": [1, 2]}},
    "many_frames": {"gen": {"docs": 8, "tokens_per_doc": [24, 32], "frames_per_doc": [12, 16]}},
    "short_docs": {"gen": {"docs": 16, "tokens_per_doc": [3, 6]}},
}
# CI's config, swept over MMCM on and off by `observe_sweep`
SWEEP = "sweep_mmcm_on_off"
SWEEP_RUN = {"model": dict(BASE["model"], max_len=64),
             "gen": {"docs": 3, "tokens_per_doc": [8, 12], "frames_per_doc": [1, 2]},
             "epochs": 1}
GROUPS = ("encoder.text", "encoder.frames", "dffm", "mmcm", "heads")
EVAL_MODES = ("gold-pairs", "predicted-pairs")


def run_config(name: str) -> dict:
    cfg = copy.deepcopy(BASE)
    for section, over in CONFIGS[name].items():
        cfg[section].update(over)
    return cfg


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"himie {' '.join(argv)} exited {code}")


def observe(name: str, workdir: Path) -> dict:
    """Run config `name` through the CLI in `workdir` and reduce it to the pin."""
    cfg = run_config(name)
    paths = {}
    for mode in EVAL_MODES:
        paths[mode] = workdir / f"run_{mode}.json"
        paths[mode].write_text(json.dumps(dict(cfg, eval_mode=mode)), encoding="utf-8")
    run = str(paths[EVAL_MODES[0]])
    corpus, ckpt, log = (str(workdir / f) for f in ("corpus.jsonl", "model.ckpt", "steps.jsonl"))
    _cli("gen", "--config", run, "--out", corpus)
    _cli("train", "--config", run, "--corpus", corpus, "--out", ckpt, "--log", log)
    reports = {}
    for mode in EVAL_MODES:
        out = workdir / f"report_{mode}.json"
        _cli("eval", "--checkpoint", ckpt, "--corpus", corpus, "--config", str(paths[mode]),
             "--out", str(out))
        reports[mode] = json.loads(out.read_text(encoding="utf-8"))
    params = load_checkpoint(ckpt)[0]
    norms = {g: math.sqrt(sum(float((t.data * t.data).sum()) for n, t in params.items()
                              if n.startswith(g + ".")))
             for g in GROUPS}
    with open(log, encoding="utf-8") as f:
        steps = [json.loads(line) for line in f]
    return {"corpus_sha256": hashlib.sha256(Path(corpus).read_bytes()).hexdigest(),
            "steps": steps, "param_norms": norms, "reports": reports}


def observe_sweep(workdir: Path) -> dict:
    """Every row of the sweep table, its score columns read as floats."""
    run, table = workdir / "run.json", workdir / "sweep.csv"
    run.write_text(json.dumps(SWEEP_RUN), encoding="utf-8")
    _cli("sweep", "--config", str(run), "--axis", "mmcm_on_off", "--values", "on,off",
         "--out", str(table))
    with open(table, encoding="utf-8", newline="") as f:
        rows = [{k: v if k in ("axis", "value", "seed") else float(v) for k, v in row.items()}
                for row in csv.DictReader(f)]
    return {"rows": rows}


def pinned_path(name: str) -> Path:
    return HERE / f"{name}.json"


def regen(names) -> None:
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            pin = observe_sweep(Path(tmp)) if name == SWEEP else observe(name, Path(tmp))
        pinned_path(name).write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
        print(f"wrote {pinned_path(name)}")


if __name__ == "__main__":
    regen(sys.argv[1:] or list(CONFIGS) + [SWEEP])
