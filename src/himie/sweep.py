"""Experiment sweeps: prompt length, missing-modality ratio, construction
on/off ablation. Each point trains from scratch and evaluates, repeated over
three seeds; the table carries per-seed rows plus mean/variance rows.
"""
from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass

from .autodiff import ConfigError
from .config import RunConfig
from .data import Corpus, assign_modality_regime, replacing
from .evaluate import evaluate
from .trainer import train

AXES = ("prompt_len", "missing_ratio", "mmcm_on_off")
N_SEEDS = 3
TASKS = ("ent", "cha", "rel", "gro")


def ratio_fractions(r: float) -> tuple[float, float, float]:
    """Missing ratio r splits evenly between the two missing regimes."""
    if not 0.0 <= r <= 1.0:
        raise ConfigError(f"missing ratio must be in [0, 1], got {r}")
    return (1.0 - r, r / 2.0, r / 2.0)


def point_config(base: RunConfig, axis: str, value) -> RunConfig:
    if axis == "prompt_len":
        model = dataclasses.replace(base.model, prompt_len=int(value))
        return dataclasses.replace(base, model=model)
    if axis == "missing_ratio":
        return dataclasses.replace(base, regime_fractions=ratio_fractions(float(value)))
    if axis == "mmcm_on_off":
        if value not in ("on", "off"):
            raise ConfigError(f"mmcm_on_off values must be on/off, got {value!r}")
        model = dataclasses.replace(base.model, mmcm_enabled=value == "on")
        return dataclasses.replace(base, model=model)
    raise ConfigError(f"unknown sweep axis {axis!r}; expected one of {AXES}")


@dataclass
class SweepRow:
    axis: str
    value: str
    seed: int
    f1: dict[str, float]
    avg: float


def run_point(cfg: RunConfig, corpus: Corpus, seed: int) -> SweepRow:
    cfg = dataclasses.replace(cfg, seed=seed)
    regimes = assign_modality_regime(corpus, cfg.regime_fractions, seed)
    result = train(cfg, regimes)
    report = evaluate(result.params, cfg, regimes)
    return SweepRow("", "", seed,
                    {t: report[t]["f1"] for t in TASKS}, report["avg"])


def sweep(base: RunConfig, corpus: Corpus, axis: str, values) -> list[SweepRow]:
    base.validate()
    points = [(value, point_config(base, axis, value)) for value in values]
    for _, cfg in points:   # every point is checked before the first training
        cfg.validate()
    rows: list[SweepRow] = []
    for value, cfg in points:
        for k in range(N_SEEDS):
            row = run_point(cfg, corpus, base.seed + k)
            row.axis, row.value = axis, str(value)
            rows.append(row)
    return rows


def summarize(rows: list[SweepRow]) -> list[dict]:
    """Per-seed rows followed by mean and variance rows for each value; the
    sums are `math.fsum`, so the table's bytes do not depend on the Python
    version."""
    out: list[dict] = []
    by_value: dict[str, list[SweepRow]] = {}
    for r in rows:
        out.append({"axis": r.axis, "value": r.value, "seed": str(r.seed),
                    **{t: r.f1[t] for t in TASKS}, "avg": r.avg})
        by_value.setdefault(r.value, []).append(r)
    for value, group in by_value.items():
        n = len(group)
        mean = {t: math.fsum(g.f1[t] for g in group) / n for t in TASKS}
        mean["avg"] = math.fsum(g.avg for g in group) / n
        var = {t: math.fsum((g.f1[t] - mean[t]) ** 2 for g in group) / n for t in TASKS}
        var["avg"] = math.fsum((g.avg - mean["avg"]) ** 2 for g in group) / n
        axis = group[0].axis
        out.append({"axis": axis, "value": value, "seed": "mean", **mean})
        out.append({"axis": axis, "value": value, "seed": "var", **var})
    return out


def save_sweep_csv(path: str, rows: list[SweepRow]) -> None:
    fields = ["axis", "value", "seed", *TASKS, "avg"]
    with replacing(path, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        for row in summarize(rows):
            w.writerow(row)
