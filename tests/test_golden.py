"""The behaviour pin: seven small CLI runs and one sweep table against the
values in `tests/golden/`.

Hashes, strings and integer counts must match exactly and floats to a
relative 1e-9, so a different BLAS build still passes while a change that
moves any loss, weight or score fails. `python tests/golden/regen.py`
rewrites the pin.
"""
import importlib.util
import json
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

REL = 1e-9


def mismatches(got, want, where=""):
    """Paths at which `got` differs from `want`: exactly, or beyond REL for floats."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        return [] if math.isclose(got, want, rel_tol=REL, abs_tol=0.0) else [
            f"{where}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{where}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(regen.CONFIGS))
def test_runs_match_the_pin(name, tmp_path):
    want = json.loads(regen.pinned_path(name).read_text(encoding="utf-8"))
    got = regen.observe(name, tmp_path)
    bad = mismatches(got, want)
    assert not bad, f"{len(bad)} values moved, first: {bad[:5]}"


def test_sweep_matches_the_pin(tmp_path):
    want = json.loads(regen.pinned_path(regen.SWEEP).read_text(encoding="utf-8"))
    bad = mismatches(regen.observe_sweep(tmp_path), want)
    assert not bad, f"{len(bad)} values moved, first: {bad[:5]}"


def test_comparison_is_exact_for_counts_and_relative_for_floats():
    assert mismatches({"a": [1, 0.5]}, {"a": [1, 0.5 * (1 + 1e-12)]}) == []
    assert mismatches({"a": [1, 0.5]}, {"a": [1, 0.5 * (1 + 1e-8)]})
    assert mismatches({"a": [2, 0.5]}, {"a": [1, 0.5]})
    assert mismatches({"a": 1.0}, {"a": 1})
    assert mismatches({"h": "ab"}, {"h": "ac"})
    assert mismatches({"a": [1]}, {"a": [1, 2]})
    assert mismatches({"a": 1}, {"b": 1})
