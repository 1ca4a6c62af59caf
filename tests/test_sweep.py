"""Sweep mechanics: axis handling, row bookkeeping, CSV schema."""
import csv
import functools
import math
import operator

import pytest

from himie.autodiff import ConfigError
from himie.config import GenConfig, ModelConfig, RunConfig
from himie.sweep import (
    AXES,
    N_SEEDS,
    TASKS,
    SweepRow,
    point_config,
    ratio_fractions,
    save_sweep_csv,
    summarize,
    sweep,
)
from himie.synth import generate

SMALL = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, prompt_len=3,
                    vocab=64, max_len=64)


def tiny_run(**over) -> RunConfig:
    base = dict(
        model=SMALL,
        gen=GenConfig(docs=3, tokens_per_doc=(8, 12), frames_per_doc=(1, 2), seed=0),
        epochs=1, seed=0)
    base.update(over)
    return RunConfig(**base)


class TestRatioFractions:
    @pytest.mark.parametrize("r,expect", [
        (0.0, (1.0, 0.0, 0.0)),
        (0.5, (0.5, 0.25, 0.25)),
        (1.0, (0.0, 0.5, 0.5)),
    ])
    def test_mapping(self, r, expect):
        assert ratio_fractions(r) == expect

    @pytest.mark.parametrize("r", [-0.1, 1.1, 2.0])
    def test_out_of_range(self, r):
        with pytest.raises(ConfigError, match="missing ratio"):
            ratio_fractions(r)

    def test_fractions_sum_to_one(self):
        for r in (0.0, 0.2, 0.35, 0.8, 1.0):
            assert abs(sum(ratio_fractions(r)) - 1.0) < 1e-12


class TestPointConfig:
    def test_prompt_len_axis(self):
        cfg = point_config(tiny_run(), "prompt_len", 5)
        assert cfg.model.prompt_len == 5

    def test_missing_ratio_axis(self):
        cfg = point_config(tiny_run(), "missing_ratio", 0.5)
        assert cfg.regime_fractions == (0.5, 0.25, 0.25)

    def test_mmcm_axis(self):
        on = point_config(tiny_run(), "mmcm_on_off", "on")
        off = point_config(tiny_run(), "mmcm_on_off", "off")
        assert on.model.mmcm_enabled and not off.model.mmcm_enabled
        assert on.model.dffm_enabled == off.model.dffm_enabled
        # the two arms differ in nothing else
        import dataclasses
        a = dataclasses.replace(on.model, mmcm_enabled=False)
        assert a == off.model

    def test_mmcm_axis_rejects_other_values(self):
        for value in ("maybe", True, False):
            with pytest.raises(ConfigError, match="on/off"):
                point_config(tiny_run(), "mmcm_on_off", value)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            point_config(tiny_run(), "frobnicate", 1)

    def test_base_config_untouched(self):
        base = tiny_run()
        point_config(base, "prompt_len", 7)
        assert base.model.prompt_len == SMALL.prompt_len


class TestSweepRows:
    def _rows(self, axis="prompt_len", values=(2, 3)):
        base = tiny_run()
        corpus = generate(base.gen, base.model)
        return sweep(base, corpus, axis, values)

    def test_row_count_is_values_times_seeds(self):
        rows = self._rows()
        assert len(rows) == 2 * N_SEEDS
        assert {r.seed for r in rows} == {0, 1, 2}
        assert {r.value for r in rows} == {"2", "3"}

    def test_summary_appends_mean_and_var_rows(self):
        rows = self._rows(values=(2,))
        table = summarize(rows)
        assert len(table) == N_SEEDS + 2
        seeds = [t["seed"] for t in table]
        assert seeds[-2:] == ["mean", "var"]
        mean_row = table[-2]
        for t in TASKS:
            expect = sum(r.f1[t] for r in rows) / len(rows)
            assert abs(mean_row[t] - expect) < 1e-12

    def test_mean_avg_helper(self):
        rows = self._rows(values=(2,))
        expect = sum(r.avg for r in rows) / len(rows)
        (mean_row,) = [t for t in summarize(rows)
                       if t["value"] == "2" and t["seed"] == "mean"]
        assert abs(mean_row["avg"] - expect) < 1e-12

    def test_mean_and_variance_are_compensated_sums(self):
        # these three scores add to a different float left to right, both
        # themselves and their squared deviations from the mean
        xs = [0.49, 0.86, 0.72]
        rows = [SweepRow("prompt_len", "2", seed, {t: x for t in TASKS}, x)
                for seed, x in enumerate(xs)]
        mean, var = summarize(rows)[-2:]
        want_mean = math.fsum(xs) / 3
        want_var = math.fsum((x - want_mean) ** 2 for x in xs) / 3
        assert (want_mean, want_var) == (0.69, 0.023266666666666668)
        assert functools.reduce(operator.add, xs) / 3 != want_mean
        assert functools.reduce(operator.add, [(x - want_mean) ** 2 for x in xs]) / 3 != want_var
        for col in TASKS + ("avg",):
            assert (mean[col], var[col]) == (want_mean, want_var), col

    def test_csv_schema(self, tmp_path):
        rows = self._rows(values=(2, 3))
        path = tmp_path / "sweep.csv"
        save_sweep_csv(str(path), rows)
        with open(path, newline="") as f:
            table = list(csv.DictReader(f))
        assert list(table[0]) == ["axis", "value", "seed", *TASKS, "avg"]
        assert len(table) == 2 * N_SEEDS + 2 * 2
        for row in table:
            assert row["axis"] == "prompt_len"
            if row["seed"] not in ("mean", "var"):
                assert 0.0 <= float(row["avg"]) <= 1.0

    def test_axes_registry(self):
        assert AXES == ("prompt_len", "missing_ratio", "mmcm_on_off")
