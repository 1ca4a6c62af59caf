"""Data model: validation codes, JSONL round trips and regimes."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from himie.data import (
    Corpus,
    Document,
    Entity,
    ParseError,
    Region,
    Relation,
    ValidationError,
    assign_modality_regime,
    load_corpus,
    parse_corpus,
    regime_counts,
    serialize_corpus,
    validate,
)


def make_doc(**over) -> Document:
    base = dict(
        id="d0",
        tokens=["a", "b", "c", "d"],
        frames=[np.zeros((4, 3)), np.ones((4, 3))],
        entities=[Entity(0, 2, "PER"), Entity(3, 4, "LOC")],
        chains=[[0], [1]],
        relations=[Relation(0, 1, "R1")],
        regions=[Region(0, "PER", 0.5, 0.5, 0.2, 0.2)],
        modality_mask="full",
    )
    base.update(over)
    return Document(**base)


def codes(doc):
    return [v.code for v in validate(doc)]


class TestValidate:
    def test_valid_document_has_no_violations(self):
        assert validate(make_doc()) == []

    def test_minimal_document(self):
        doc = make_doc(tokens=["x"], frames=[], entities=[], chains=[],
                       relations=[], regions=[])
        assert validate(doc) == []

    def test_entity_end_past_token_count(self):
        doc = make_doc(entities=[Entity(0, 9, "PER"), Entity(3, 4, "LOC")])
        vs = validate(doc)
        assert any(v.code == "ENTITY_RANGE" and "entities[0]" in v.path for v in vs)

    def test_entity_empty_span(self):
        assert "ENTITY_ORDER" in codes(make_doc(entities=[Entity(2, 2, "PER"), Entity(3, 4, "LOC")]))

    def test_entity_overlap(self):
        doc = make_doc(entities=[Entity(0, 3, "PER"), Entity(2, 4, "LOC")])
        assert "ENTITY_OVERLAP" in codes(doc)

    def test_entity_in_two_chains_is_chain_partition(self):
        assert "CHAIN_PARTITION" in codes(make_doc(chains=[[0, 1], [1]]))

    def test_unchained_entity_is_chain_partition(self):
        assert "CHAIN_PARTITION" in codes(make_doc(chains=[[0]]))

    def test_self_relation(self):
        assert "SELF_RELATION" in codes(make_doc(relations=[Relation(1, 1, "R1")]))

    def test_duplicate_relation_triple(self):
        doc = make_doc(relations=[Relation(0, 1, "R1"), Relation(0, 1, "R1")])
        assert "RELATION_DUP" in codes(doc)

    def test_same_pair_different_type_is_legal(self):
        doc = make_doc(relations=[Relation(0, 1, "R1"), Relation(0, 1, "R2")])
        assert validate(doc) == []

    def test_box_leaving_unit_square(self):
        doc = make_doc(regions=[Region(0, "PER", 0.5, 0.5, 1.2, 0.2)])
        assert "BOX_RANGE" in codes(doc)

    def test_box_nonpositive_size(self):
        doc = make_doc(regions=[Region(0, "PER", 0.5, 0.5, 0.0, 0.2)])
        assert "BOX_RANGE" in codes(doc)

    def test_region_frame_out_of_range(self):
        assert "REGION_FRAME" in codes(make_doc(regions=[Region(5, "PER", 0.5, 0.5, 0.2, 0.2)]))

    def test_two_regions_on_one_frame(self):
        doc = make_doc(regions=[Region(0, "PER", 0.3, 0.3, 0.2, 0.2),
                                Region(0, "LOC", 0.7, 0.7, 0.2, 0.2)])
        assert "REGION_DUP_FRAME" in codes(doc)

    def test_bad_modality_mask(self):
        assert "MODALITY_VALUE" in codes(make_doc(modality_mask="half"))

    def test_ragged_frames(self):
        doc = make_doc(frames=[np.zeros((4, 3)), np.zeros((2, 3))])
        assert "FRAME_SHAPE" in codes(doc)

    def test_validate_is_total_on_hostile_input(self):
        doc = make_doc(entities=[Entity(-3, 100, ""), Entity(3, 4, "LOC")],
                       chains=[[0, 0, 99]], relations=[Relation(-1, 9, "")],
                       regions=[Region(-1, "", float("nan"), 0.5, -1.0, 0.0)])
        vs = validate(doc)  # must not raise
        assert len(vs) >= 5


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        corpus = Corpus([make_doc(), make_doc(id="d1", modality_mask="no_text")])
        path = tmp_path / "c.jsonl"
        serialize_corpus(corpus, path)
        back = load_corpus(path)
        assert len(back.documents) == 2
        for a, b in zip(corpus.documents, back.documents):
            assert a.id == b.id and a.tokens == b.tokens
            assert a.entities == b.entities and a.chains == b.chains
            assert a.relations == b.relations and a.regions == b.regions
            assert a.modality_mask == b.modality_mask
            for fa, fb in zip(a.frames, b.frames):
                assert np.array_equal(fa, fb)

    def test_serialize_parse_serialize_is_byte_identical(self):
        rng = np.random.default_rng(3)
        doc = make_doc(frames=[rng.normal(size=(4, 3)), rng.normal(size=(4, 3))],
                       regions=[Region(0, "PER", 0.51234567891234, 0.5, 0.25, 0.125)])
        text = serialize_corpus(Corpus([doc]))
        again = serialize_corpus(parse_corpus(text))
        assert again == text

    def test_empty_file_is_empty_corpus(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        assert len(load_corpus(path).documents) == 0

    def test_malformed_line_reports_line_number(self):
        good = serialize_corpus(Corpus([make_doc()])).rstrip("\n")
        with pytest.raises(ParseError) as ei:
            parse_corpus(good + "\n{not json\n")
        assert ei.value.line == 2
        assert "line 2" in str(ei.value)

    def test_missing_key_is_parse_error(self):
        obj = json.loads(serialize_corpus(Corpus([make_doc()])))
        del obj["chains"]
        with pytest.raises(ParseError, match="chains"):
            parse_corpus(json.dumps(obj))

    def test_unknown_key_rejected(self):
        obj = json.loads(serialize_corpus(Corpus([make_doc()])))
        obj["extra"] = 1
        with pytest.raises(ParseError, match="extra"):
            parse_corpus(json.dumps(obj))

    @pytest.mark.parametrize("path,value,fragment", [
        (("entities", 0, "start"), 0.9, "entities[0].start has type float"),
        (("entities", 0, "end"), 2.0, "entities[0].end has type float"),
        (("entities", 1, "start"), True, "entities[1].start has type bool"),
        (("chains", 1, 0), 1.0, "chains[1] has type float"),
        (("chains", 0, 0), False, "chains[0] has type bool"),
        (("relations", 0, "sub"), 0.5, "relations[0].sub has type float"),
        (("relations", 0, "obj"), "1", "relations[0].obj has type str"),
        (("regions", 0, "frame"), True, "regions[0].frame has type bool"),
        (("regions", 0, "cx"), True, "regions[0].cx has type bool"),
        (("regions", 0, "w"), "0.2", "regions[0].w has type str"),
        (("regions", 0, "h"), None, "regions[0].h has type NoneType"),
        (("tokens", 1), 5, "d0.tokens[1] has type int"),
        (("tokens", 0), True, "d0.tokens[0] has type bool"),
        (("tokens", 3), None, "d0.tokens[3] has type NoneType"),
        (("entities", 0, "type"), 7, "d0.entities[0].type has type int"),
        (("relations", 0, "type"), None, "d0.relations[0].type has type NoneType"),
        (("regions", 0, "type"), 7, "d0.regions[0].type has type int"),
        (("frames", 0, "patches", 1, 2), "1.5", "d0.frames[0].patches[1][2] has type str"),
        (("frames", 1, "patches", 0, 0), True, "d0.frames[1].patches[0][0] has type bool"),
        (("frames", 0, "patches", 3), 1.0, "d0.frames[0].patches[3] has type float"),
        (("chains", 1), {}, "d0.chains[1] has type dict"),
    ])
    def test_index_and_box_types_are_strict(self, path, value, fragment):
        # int() would read 0.9 as 0 and true as 1; float() would read "0.2";
        # str() would read 5 as "5"; a float64 array would read "1.5" and true
        obj = json.loads(serialize_corpus(Corpus([make_doc()])))
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ParseError, match=re.escape(fragment)):
            parse_corpus(json.dumps(obj))

    def test_integral_box_numbers_accepted(self):
        obj = json.loads(serialize_corpus(Corpus([make_doc()])))
        obj["regions"][0]["w"] = 1
        box = parse_corpus(json.dumps(obj)).documents[0].regions[0].box()
        assert box == (0.5, 0.5, 1.0, 0.2) and type(box[2]) is float

    def test_invalid_document_names_id_and_field(self):
        doc = make_doc(entities=[Entity(0, 9, "PER"), Entity(3, 4, "LOC")])
        text = serialize_corpus(Corpus([doc]))
        with pytest.raises(ValidationError) as ei:
            parse_corpus(text)
        assert ei.value.doc_id == "d0"
        assert any("entities[0]" in v.path for v in ei.value.violations)


class TestRegimes:
    def _corpus(self, n):
        return Corpus([make_doc(id=f"d{i}") for i in range(n)])

    def test_all_full(self):
        out = assign_modality_regime(self._corpus(5), (1.0, 0.0, 0.0), seed=0)
        assert all(d.modality_mask == "full" for d in out.documents)

    def test_equal_thirds_on_nine(self):
        out = assign_modality_regime(self._corpus(9), (1 / 3, 1 / 3, 1 / 3), seed=0)
        masks = [d.modality_mask for d in out.documents]
        assert sorted(masks).count("full") == 3
        assert masks.count("no_text") == 3 and masks.count("no_video") == 3

    def test_half_half_on_four(self):
        out = assign_modality_regime(self._corpus(4), (0.0, 0.5, 0.5), seed=2)
        masks = [d.modality_mask for d in out.documents]
        assert masks.count("no_text") == 2 and masks.count("no_video") == 2

    def test_document_order_preserved(self):
        out = assign_modality_regime(self._corpus(12), (1 / 3, 1 / 3, 1 / 3), seed=5)
        assert [d.id for d in out.documents] == [f"d{i}" for i in range(12)]

    def test_deterministic(self):
        a = assign_modality_regime(self._corpus(12), (0.5, 0.25, 0.25), seed=9)
        b = assign_modality_regime(self._corpus(12), (0.5, 0.25, 0.25), seed=9)
        assert [d.modality_mask for d in a.documents] == [d.modality_mask for d in b.documents]

    @given(st.integers(1, 60), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_regime_counts_apportionment(self, n, a, b):
        total = a + b + 1.0
        fr = (a / total, b / total, 1.0 / total)
        counts = regime_counts(n, fr)
        assert sum(counts) == n
        for c, f in zip(counts, fr):
            assert abs(c - n * f) < 1.0 + 1e-9
