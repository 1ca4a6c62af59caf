"""Loader fuzzing: arbitrary input either loads or raises the loader's typed error.

`parse_corpus` may only raise `ParseError` or `ValidationError`, and
`load_checkpoint` only `CheckpointError`; anything else would leave the CLI
as a traceback.
"""
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from himie import synth
from himie.config import GenConfig, ModelConfig, RunConfig
from himie.data import ParseError, ValidationError, parse_corpus, serialize_corpus
from himie.model import init_params
from himie.trainer import CheckpointError, load_checkpoint, save_checkpoint

SMALL = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, prompt_len=3,
                    vocab=64, max_len=64)
DOCS = [json.loads(line) for line in serialize_corpus(synth.generate(GenConfig(
    docs=4, tokens_per_doc=(4, 8), frames_per_doc=(1, 2), entity_rate=0.4,
    relation_rate=0.5, seed=3), SMALL)).splitlines()]

# the explicit edge values (an infinite index once escaped as OverflowError)
EDGE_VALUES = st.sampled_from([float("inf"), float("-inf"), float("nan"), -1, 10**30,
                               1.5, "", "0", [], {}])
JSON_VALUES = st.recursive(
    EDGE_VALUES | st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


def field_paths(obj, path=()):
    """Every dict value and the first and last element of every list in `obj`."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list) and obj:
        items = {0: obj[0], -1: obj[-1]}.items()
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from field_paths(value, path + (key,))


PATHS = [(i, p) for i, doc in enumerate(DOCS) for p in field_paths(doc)]


def parses_or_raises_typed(source):
    try:
        parse_corpus(source)
    except (ParseError, ValidationError):
        pass


def test_fuzz_documents_cover_every_section():
    assert parse_corpus("\n".join(json.dumps(d) for d in DOCS)).documents
    for key in ("entities", "chains", "relations", "regions", "frames"):
        assert any(path[0] == key and len(path) > 2 for _, path in PATHS), key


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_index_is_a_parse_error(value):
    doc = json.loads(json.dumps(DOCS[0]))
    doc["entities"][0]["start"] = value
    with pytest.raises(ParseError, match="line 1"):
        parse_corpus(json.dumps(doc))


class TestParseCorpusFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_text(self, text):
        parses_or_raises_typed(text)

    @given(st.sampled_from(PATHS), JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_one_field_replaced(self, where, value):
        i, path = where
        doc = json.loads(json.dumps(DOCS[i]))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        parses_or_raises_typed("\n".join(json.dumps(d) for d in DOCS[:i] + [doc]))

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_file_bytes(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        path.write_bytes(data)
        parses_or_raises_typed(path)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(str(path), init_params(SMALL, 0), RunConfig(model=SMALL), 3,
                    {"state": 1})
    data = path.read_bytes()
    return path, data, 8 + struct.unpack("<Q", data[:8])[0]


def loads_or_raises_typed(path, data):
    path.write_bytes(data)
    try:
        load_checkpoint(str(path))
    except CheckpointError:
        pass


class TestLoadCheckpointFuzz:
    def test_fixture_checkpoint_loads(self, checkpoint):
        path, data, _ = checkpoint
        params, cfg, step, rng = load_checkpoint(str(path))
        assert cfg.model == SMALL and step == 3 and rng == {"state": 1}

    @given(st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes(self, checkpoint, data):
        loads_or_raises_typed(checkpoint[0].with_suffix(".fuzz"), data)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_truncated(self, checkpoint, draw):
        path, data, _ = checkpoint
        keep = draw.draw(st.integers(0, len(data) - 1))
        loads_or_raises_typed(path.with_suffix(".fuzz"), data[:keep])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_flipped(self, checkpoint, draw):
        path, data, header_end = checkpoint
        # most flips land in the JSON header, where they change structure
        bit = draw.draw(st.integers(0, 8 * header_end - 1)
                        | st.integers(0, 8 * len(data) - 1))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        loads_or_raises_typed(path.with_suffix(".fuzz"), bytes(flipped))
