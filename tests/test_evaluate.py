"""Report construction: perfect predictions, aggregation, order independence."""
import dataclasses
import random

import pytest

from himie.autodiff import ConfigError
from himie.config import GenConfig, ModelConfig, RunConfig
from himie.data import MODALITIES, Corpus, Prediction, Relation, assign_modality_regime
from himie.evaluate import _keyed, evaluate, reduce_stats, report_bytes, score_document
from himie.metrics import ERROR_KEYS, mention_key
from himie.model import init_params
from himie.synth import generate

SMALL = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4, prompt_len=3,
                    vocab=64, max_len=64)


def small_gen(**over) -> GenConfig:
    base = dict(docs=6, tokens_per_doc=(16, 28), frames_per_doc=(1, 3),
                entity_rate=0.3, chain_merge_prob=0.8, relation_rate=0.6,
                grounding_rate=0.8, seed=3)
    base.update(over)
    return GenConfig(**base)


def perfect_prediction(doc) -> Prediction:
    return Prediction(entities=list(doc.entities),
                      pair_entities=list(doc.entities),
                      chains=[list(c) for c in doc.chains],
                      rel_chains=[list(c) for c in doc.chains],
                      relations=list(doc.relations),
                      regions=list(doc.regions))


def corpus_with_all_layers() -> Corpus:
    corpus = generate(small_gen(), SMALL)
    docs = corpus.documents
    assert any(d.entities for d in docs)
    assert any(len(c) > 1 for d in docs for c in d.chains)
    assert any(d.relations for d in docs)
    assert any(d.regions for d in docs)
    return corpus


class TestPerDocument:
    def test_perfect_prediction_counts(self):
        corpus = corpus_with_all_layers()
        for doc in corpus.documents:
            s = score_document(doc, perfect_prediction(doc))
            assert s.ent == (len(doc.entities), 0, 0)
            assert s.rel == (len(doc.relations), 0, 0)
            assert s.gro == (len(doc.regions), 0, 0)
            assert all(s.taxonomy[k] == 0 for k in ERROR_KEYS)

    def test_each_matcher_runs_once_per_document(self, monkeypatch):
        import himie.metrics as metrics
        calls = []
        for name in ("_entity_misses", "_overlaps", "_relation_misses", "_grounding_misses"):
            def counted(*args, _name=name, _fn=getattr(metrics, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(metrics, name, counted)
        doc = corpus_with_all_layers().documents[0]
        score_document(doc, perfect_prediction(doc))
        assert sorted(calls) == ["_entity_misses", "_grounding_misses", "_overlaps",
                                 "_relation_misses"]

    def test_taxonomy_holds_every_key_and_the_prediction_totals(self):
        corpus = corpus_with_all_layers()
        for doc in corpus.documents:
            pred = perfect_prediction(doc)
            pred.entities = pred.entities + pred.entities[:1]   # one duplicate: one error
            s = score_document(doc, pred)
            assert sorted(s.taxonomy) == sorted(ERROR_KEYS)
            assert sum(s.taxonomy[k] for k in ERROR_KEYS) == s.ent[1] == len(doc.entities[:1])
            counts = reduce_stats([s], "gold-pairs")["errors"]["counts"]
            assert (counts["ent_pred"], counts["cha_pred"], counts["rel_pred"],
                    counts["gro_pred"]) == (len(pred.entities), len(doc.chains),
                                            len(doc.relations), len(doc.regions))

    def test_keyed_is_independent_of_the_mention_and_chain_order(self):
        corpus = corpus_with_all_layers()
        doc = max(corpus.documents, key=lambda d: len(d.relations))
        chains, relations = _keyed(doc.entities, doc.chains, doc.chains, doc.relations)
        assert all(isinstance(c, frozenset) for c in chains)
        assert sorted(map(sorted, chains)) == sorted(
            sorted(mention_key(doc.entities[i]) for i in c) for c in doc.chains)
        # the same layers over the entities and the relations' chains, both reversed
        n, m = len(doc.entities), len(doc.chains)
        flipped = [[n - 1 - i for i in c] for c in doc.chains]
        again = _keyed(doc.entities[::-1], flipped, flipped[::-1],
                       [Relation(m - 1 - r.sub, m - 1 - r.obj, r.type) for r in doc.relations])
        assert again == (chains, relations)
        assert relations and all(sub and obj for sub, obj, _ in relations)


class TestReduce:
    def _stats(self, corpus):
        return [score_document(d, perfect_prediction(d))
                for d in corpus.documents]

    def test_perfect_predictions_score_one(self):
        corpus = corpus_with_all_layers()
        report = reduce_stats(self._stats(corpus), "gold-pairs")
        for task in ("ent", "cha", "rel", "gro"):
            assert report[task]["f1"] == 1.0, task
        assert report["avg"] == 1.0
        assert report["mode"] == "gold-pairs"
        rates = report["errors"]["rates"]
        assert all(v == 0.0 for v in rates.values())
        counts = report["errors"]["counts"]
        assert all(counts[k] == 0 for k in ERROR_KEYS)

    def test_avg_is_exact_mean_of_task_f1(self):
        corpus = generate(small_gen(seed=9), SMALL)
        params = init_params(SMALL, seed=0)
        cfg = RunConfig(model=SMALL, gen=small_gen(seed=9))
        report = evaluate(params, cfg, corpus)
        expect = (report["ent"]["f1"] + report["cha"]["f1"]
                  + report["rel"]["f1"] + report["gro"]["f1"]) / 4.0
        assert report["avg"] == expect

    def test_chain_section_carries_component_metrics(self):
        corpus = corpus_with_all_layers()
        report = reduce_stats(self._stats(corpus), "gold-pairs")
        cha = report["cha"]
        assert set(("muc", "b_cubed", "ceaf_e")) <= set(cha)
        mean = (cha["muc"]["f1"] + cha["b_cubed"]["f1"]
                + cha["ceaf_e"]["f1"]) / 3.0
        assert abs(cha["f1"] - mean) < 1e-12

    def test_regime_sections_partition_documents(self):
        corpus = assign_modality_regime(corpus_with_all_layers(),
                                        (1 / 3, 1 / 3, 1 / 3), seed=0)
        report = reduce_stats(self._stats(corpus), "gold-pairs")
        counts = {r: report["regimes"][r]["n_documents"] for r in MODALITIES}
        assert sum(counts.values()) == report["n_documents"] == len(corpus.documents)

    def test_order_independent_bytes(self):
        corpus = corpus_with_all_layers()
        stats = self._stats(corpus)
        ref = report_bytes(reduce_stats(list(stats), "gold-pairs"))
        for seed in range(5):
            shuffled = list(stats)
            random.Random(seed).shuffle(shuffled)
            assert report_bytes(reduce_stats(shuffled, "gold-pairs")) == ref


class TestEvaluate:
    def test_empty_corpus_rejected(self):
        params = init_params(SMALL, seed=0)
        cfg = RunConfig(model=SMALL, gen=small_gen())
        with pytest.raises(ConfigError, match="empty corpus"):
            evaluate(params, cfg, Corpus([]))

    def test_unknown_labels_rejected(self):
        corpus = generate(small_gen(), SMALL)
        params = init_params(SMALL, seed=0)
        narrow = dataclasses.replace(SMALL, entity_types=("PER",))
        cfg = RunConfig(model=narrow, gen=small_gen())
        with pytest.raises(ConfigError, match="entity labels unknown"):
            evaluate(params, cfg, corpus)

    def test_untrained_model_produces_valid_report(self):
        corpus = generate(small_gen(), SMALL)
        params = init_params(SMALL, seed=0)
        cfg = RunConfig(model=SMALL, gen=small_gen())
        report = evaluate(params, cfg, corpus)
        for task in ("ent", "cha", "rel", "gro"):
            assert 0.0 <= report[task]["f1"] <= 1.0
        assert report["n_documents"] == len(corpus.documents)

    def test_report_bytes_deterministic(self):
        corpus = generate(small_gen(), SMALL)
        params = init_params(SMALL, seed=0)
        cfg = RunConfig(model=SMALL, gen=small_gen())
        a = report_bytes(evaluate(params, cfg, corpus))
        b = report_bytes(evaluate(params, cfg, corpus))
        assert a == b

    def test_save_report_round_trip(self, tmp_path):
        import json
        corpus = generate(small_gen(), SMALL)
        params = init_params(SMALL, seed=0)
        cfg = RunConfig(model=SMALL, gen=small_gen())
        report = evaluate(params, cfg, corpus)
        from himie.evaluate import save_report
        path = tmp_path / "report.json"
        save_report(str(path), report)
        assert json.loads(path.read_text()) == report
