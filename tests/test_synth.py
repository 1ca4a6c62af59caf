"""Generator contracts: determinism, validity, and planted-signal recovery."""
import dataclasses
from collections import Counter

import numpy as np
import pytest

from himie.autodiff import ConfigError
from himie.config import GenConfig, ModelConfig
from himie.data import serialize_corpus, validate
from himie.evaluate import _keyed, reduce_stats, score_document
from himie.synth import (build_pools, generate, oracle_predict, type_directions,
                         type_of_bucket, type_ranges)
from himie.encoders import hash_bucket

MODEL = ModelConfig()


def used_labels(corpus) -> tuple[set, set, set]:
    """The entity, relation and grounding types the corpus uses."""
    docs = corpus.documents
    return ({e.type for d in docs for e in d.entities},
            {r.type for d in docs for r in d.relations},
            {g.type for d in docs for g in d.regions})


def oracle_f1s(corpus, cfg, model=MODEL):
    """The four task F1s of the oracle's predictions, scored as `evaluate` scores
    the model's."""
    report = reduce_stats([score_document(doc, oracle_predict(doc, cfg, model))
                           for doc in corpus.documents], "predicted-pairs")
    return tuple(report[task]["f1"] for task in ("ent", "cha", "rel", "gro"))


class TestGenerate:
    def test_doc_count_contract(self):
        cfg = GenConfig(docs=8, seed=0)
        corpus = generate(cfg)
        assert len(corpus.documents) == 8

    def test_every_document_validates(self):
        corpus = generate(GenConfig(docs=12, seed=1))
        for doc in corpus.documents:
            assert validate(doc) == [], doc.id

    def test_same_seed_bitwise_identical_file(self):
        cfg = GenConfig(docs=6, seed=42)
        a = serialize_corpus(generate(cfg))
        b = serialize_corpus(generate(cfg))
        assert a == b

    def test_different_seeds_differ(self):
        a = serialize_corpus(generate(GenConfig(docs=4, seed=0)))
        b = serialize_corpus(generate(GenConfig(docs=4, seed=1)))
        assert a != b

    def test_grounding_rate_zero_means_no_regions(self):
        corpus = generate(GenConfig(docs=10, grounding_rate=0.0, seed=3))
        assert all(not d.regions for d in corpus.documents)

    def test_relation_rate_zero_means_no_relations(self):
        corpus = generate(GenConfig(docs=10, relation_rate=0.0, seed=3))
        assert all(not d.relations for d in corpus.documents)

    def test_token_and_frame_ranges_respected(self):
        cfg = GenConfig(docs=10, tokens_per_doc=(10, 20), frames_per_doc=(1, 3), seed=5)
        for doc in generate(cfg).documents:
            assert 10 <= doc.n_tokens <= 20
            assert 1 <= doc.n_frames <= 3
            for fr in doc.frames:
                assert fr.shape == (MODEL.n_p, MODEL.d_in)

    def test_label_sets_cover_usage(self):
        corpus = generate(GenConfig(docs=10, seed=7))
        assert used_labels(corpus) == (set(MODEL.entity_types), set(MODEL.relation_types),
                                       set(MODEL.grounding_types))

    @pytest.mark.parametrize("k", range(10))
    def test_random_configs_generate_valid_corpora(self, k):
        rng = np.random.default_rng(100 + k)
        relation_types = tuple(f"rel{i}" for i in range(int(rng.integers(1, 6))))
        cfg = GenConfig(
            docs=int(rng.integers(1, 6)),
            tokens_per_doc=(int(rng.integers(8, 16)), int(rng.integers(20, 40))),
            frames_per_doc=(int(rng.integers(1, 2)), int(rng.integers(2, 5))),
            entity_rate=float(rng.uniform(0.05, 0.4)),
            chain_merge_prob=float(rng.uniform(0, 1)),
            relation_rate=float(rng.uniform(0, 0.8)),
            grounding_rate=float(rng.uniform(0, 1)),
            seed=int(rng.integers(0, 10000)))
        model = ModelConfig(relation_types=relation_types)
        corpus = generate(cfg, model)
        for doc in corpus.documents:
            assert validate(doc) == [], (k, doc.id)
        assert used_labels(corpus)[1] <= set(relation_types)


class TestPlantedStructure:
    def test_bucket_ranges_partition_vocab(self):
        ranges = type_ranges(MODEL)
        seen = sorted(b for r in ranges.values() for b in r)
        assert seen == list(range(seen[-1] + 1))
        assert type_of_bucket(0, MODEL) == ""
        assert type_of_bucket(255, MODEL) in ("PER", "LOC", "ORG", "TIME")

    def test_pools_land_in_owned_ranges(self):
        cfg = GenConfig(seed=11)
        pools = build_pools(cfg.seed, MODEL)
        ranges = type_ranges(MODEL)
        for t, words in pools.items():
            for w in words:
                assert hash_bucket(w, MODEL.vocab) in ranges[t]

    def test_pool_buckets_pairwise_distinct(self):
        cfg = GenConfig(seed=11)
        buckets = [hash_bucket(w, MODEL.vocab)
                   for words in build_pools(cfg.seed, MODEL).values() for w in words]
        assert len(buckets) == len(set(buckets))

    def test_type_directions_orthonormal(self):
        dirs = type_directions(2, MODEL)
        mats = np.stack(list(dirs.values()))
        assert np.allclose(mats @ mats.T, np.eye(len(dirs)), atol=1e-12)

    def test_entity_spans_are_maximal_type_runs(self):
        cfg = GenConfig(docs=6, seed=13)
        for doc in generate(cfg).documents:
            types = [type_of_bucket(hash_bucket(t, MODEL.vocab), MODEL)
                     for t in doc.tokens]
            for e in doc.entities:
                assert all(types[i] == e.type for i in range(e.start, e.end))
                assert e.start == 0 or types[e.start - 1] != e.type
                assert e.end == len(types) or types[e.end] != e.type

    def test_chains_group_identical_surface_forms(self):
        cfg = GenConfig(docs=6, chain_merge_prob=1.0, seed=17)
        for doc in generate(cfg).documents:
            forms = {}
            for ci, members in enumerate(doc.chains):
                for m in members:
                    e = doc.entities[m]
                    forms.setdefault(tuple(doc.tokens[e.start:e.end]), set()).add(ci)
            for chains_for_form in forms.values():
                assert len(chains_for_form) == 1

    def test_relations_symmetric_with_equal_labels(self):
        cfg = GenConfig(docs=10, relation_rate=0.6, seed=19)
        for doc in generate(cfg).documents:
            triples = {(r.sub, r.obj): r.type for r in doc.relations}
            for (s, o), t in triples.items():
                assert triples.get((o, s)) == t


class TestOracle:
    def test_oracle_perfect_on_default_config(self):
        cfg = GenConfig(docs=10, seed=0)
        f1s = oracle_f1s(generate(cfg), cfg)
        assert f1s == (1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_oracle_perfect_across_seeds(self, seed):
        cfg = GenConfig(docs=6, seed=seed)
        assert oracle_f1s(generate(cfg), cfg) == (1.0, 1.0, 1.0, 1.0)

    def test_oracle_perfect_with_dense_annotations(self):
        cfg = GenConfig(docs=6, entity_rate=0.4, relation_rate=0.7,
                        grounding_rate=1.0, chain_merge_prob=0.8, seed=23)
        assert oracle_f1s(generate(cfg), cfg) == (1.0, 1.0, 1.0, 1.0)

    def test_oracle_exact_with_sparse_annotations(self):
        # so few annotations that whole layers may be empty corpus-wide;
        # perfection then means zero disagreements, not F1 = 1 (0/0 -> 0)
        cfg = GenConfig(docs=6, entity_rate=0.05, relation_rate=0.05,
                        grounding_rate=0.1, chain_merge_prob=0.0, seed=29)
        for doc in generate(cfg).documents:
            o = oracle_predict(doc, cfg, MODEL)
            for layer in ("entities", "regions"):
                assert sorted(map(repr, getattr(doc, layer))) == \
                    sorted(map(repr, getattr(o, layer))), (doc.id, layer)
            gold_chains, gold_rels = _keyed(doc.entities, doc.chains, doc.chains, doc.relations)
            chains, rels = _keyed(o.pair_entities, o.chains, o.rel_chains, o.relations)
            assert set(gold_chains) == set(chains) and len(gold_chains) == len(chains)
            assert Counter(gold_rels) == Counter(rels), doc.id

    def test_oracle_uses_only_raw_inputs(self):
        # strip every annotation before prediction; scores must not change
        cfg = GenConfig(docs=4, seed=31)
        corpus = generate(cfg)
        for doc in corpus.documents:
            bare = dataclasses.replace(doc, entities=[], chains=[],
                                       relations=[], regions=[])
            a = oracle_predict(doc, cfg, MODEL)
            b = oracle_predict(bare, cfg, MODEL)
            assert a == b


class TestModelShape:
    """The model config alone sets the corpus shape; the generator refuses one it
    cannot plant its signal in."""

    def test_gen_and_model_share_no_field(self):
        gen, model = ({f.name for f in dataclasses.fields(c)} for c in (GenConfig, ModelConfig))
        assert gen & model == set()

    def test_corpus_takes_the_model_shape(self):
        model = ModelConfig(n_p=4, d_in=3, vocab=64)
        cfg = GenConfig(docs=4, seed=3)
        corpus = generate(cfg, model)
        for doc in corpus.documents:
            assert all(fr.shape == (4, 3) for fr in doc.frames)
        assert oracle_f1s(corpus, cfg, model) == (1.0, 1.0, 1.0, 1.0)

    def test_default_model_is_model_config(self):
        cfg = GenConfig(docs=3, seed=5)
        assert serialize_corpus(generate(cfg)) == serialize_corpus(generate(cfg, ModelConfig()))

    def test_custom_relation_names(self):
        model = ModelConfig(relation_types=("works_for", "born_in"))
        corpus = generate(GenConfig(docs=8, relation_rate=0.8, seed=4), model)
        assert used_labels(corpus)[1] == {"works_for", "born_in"}

    def test_custom_label_sets(self):
        # every label the corpus uses comes from the model, and the oracle still
        # recovers all four layers
        model = ModelConfig(entity_types=("PERSON", "PLACE", "THING"),
                            grounding_types=("PERSON",), relation_types=("works_for", "born_in"))
        cfg = GenConfig(docs=8, entity_rate=0.4, relation_rate=0.6, grounding_rate=1.0, seed=6)
        corpus = generate(cfg, model)
        assert used_labels(corpus) == ({"PERSON", "PLACE", "THING"}, {"works_for", "born_in"},
                                       {"PERSON"})
        for doc in corpus.documents:
            assert validate(doc) == [], doc.id
        assert oracle_f1s(corpus, cfg, model) == (1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("patch,fragment", [
        ({"relation_types": ()}, "relation_types"),
        ({"vocab": 8}, "vocab"),
        ({"n_p": 15}, "perfect square"),
        ({"n_p": 36}, "power of two"),
        ({"d_in": 2}, ">= 3"),
        ({"vocab": 32, "entity_types": tuple(f"E{i}" for i in range(17)),
          "grounding_types": ()}, "16 hash buckets for 17"),
        ({"d_in": 3, "entity_types": ("A", "B", "C", "D"),
          "grounding_types": ("A", "B", "C", "D")}, ">= 4"),
    ])
    def test_generate_rejects_model_shape(self, patch, fragment):
        model = dataclasses.replace(ModelConfig(), **patch)
        with pytest.raises(ConfigError, match=f"model.*{fragment}"):
            generate(GenConfig(docs=1), model)

    def test_non_square_patch_count_fine_without_grounding(self):
        model = dataclasses.replace(ModelConfig(), n_p=15)
        corpus = generate(GenConfig(docs=2, grounding_rate=0.0), model)
        assert all(fr.shape == (15, 8) for d in corpus.documents for fr in d.frames)

    def test_no_relation_types_fine_without_relations(self):
        model = dataclasses.replace(ModelConfig(), relation_types=())
        corpus = generate(GenConfig(docs=2, relation_rate=0.0), model)
        assert all(not d.relations for d in corpus.documents)
