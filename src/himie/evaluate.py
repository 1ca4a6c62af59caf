"""Corpus evaluation: run inference per document, reduce per-document stats
into a report with per-task scores, the error taxonomy, and per-regime
sub-reports.

The reduction sorts partial stats by document id before summing, so the
report is byte-identical no matter what order documents were scored in.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .autodiff import ConfigError, ParamTree
from .config import RunConfig
from .data import MODALITIES, Corpus, Document, Entity, Region, replacing
from .metrics import (ChainCounts, add_taxonomy, b_cubed_prf, ceaf_e_prf,
                      chain_score_prf, empty_taxonomy, error_rates, mention_key,
                      muc_prf, prf_from_counts, score_chains, score_entities,
                      score_grounding, score_relations)
from .model import Prediction, check_compatible, check_params, predict


@dataclass
class TaskOutputs:
    """One side (gold or predicted) of a document's four task outputs."""
    entities: list[Entity]
    chains: list[set]
    relations: list
    regions: list[Region]


def chains_to_keys(chains, entities) -> list[set]:
    return [{mention_key(entities[i]) for i in c} for c in chains]


def relation_triples(relations, chains, entities) -> list[tuple]:
    keys = chains_to_keys(chains, entities)
    return [(frozenset(keys[r.sub]), frozenset(keys[r.obj]), r.type) for r in relations]


def gold_outputs(doc: Document) -> TaskOutputs:
    return TaskOutputs(
        entities=list(doc.entities),
        chains=chains_to_keys(doc.chains, doc.entities),
        relations=relation_triples(doc.relations, doc.chains, doc.entities),
        regions=list(doc.regions))


def pred_outputs(pred: Prediction) -> TaskOutputs:
    return TaskOutputs(
        entities=list(pred.entities),
        chains=chains_to_keys(pred.chains, pred.pair_entities),
        relations=relation_triples(pred.relations, pred.rel_chains, pred.pair_entities),
        regions=list(pred.regions))


@dataclass
class DocStats:
    doc_id: str
    regime: str
    ent: tuple[int, int, int]
    cha: ChainCounts
    rel: tuple[int, int, int]
    gro: tuple[int, int, int]
    taxonomy: dict[str, int]


def score_document(doc: Document, pred: Prediction) -> DocStats:
    """Each task's counts and taxonomy entries from its scorer's one match."""
    gold, hyp = gold_outputs(doc), pred_outputs(pred)
    ent, ent_err = score_entities(gold.entities, hyp.entities)
    cha, cha_err = score_chains(gold.chains, hyp.chains)
    rel, rel_err = score_relations(gold.relations, hyp.relations)
    gro, gro_err = score_grounding(gold.regions, hyp.regions)
    return DocStats(
        doc_id=doc.id, regime=doc.modality_mask, ent=ent, cha=cha, rel=rel, gro=gro,
        taxonomy={**ent_err, **cha_err, **rel_err, **gro_err,
                  "ent_pred": len(hyp.entities), "cha_pred": len(hyp.chains),
                  "rel_pred": len(hyp.relations), "gro_pred": len(hyp.regions)})


def _sum3(pairs) -> tuple[int, int, int]:
    a = b = c = 0
    for x, y, z in pairs:
        a, b, c = a + x, b + y, c + z
    return a, b, c


def _prf_obj(p) -> dict:
    return {"precision": p.precision, "recall": p.recall, "f1": p.f1,
            "tp": p.tp, "fp": p.fp, "fn": p.fn}


def _section(stats: list[DocStats]) -> dict:
    ent = prf_from_counts(*_sum3(s.ent for s in stats))
    cc = ChainCounts()
    for s in stats:
        cc = cc + s.cha
    cha = chain_score_prf(cc)
    rel = prf_from_counts(*_sum3(s.rel for s in stats))
    gro = prf_from_counts(*_sum3(s.gro for s in stats))
    tax = empty_taxonomy()
    for s in stats:
        tax = add_taxonomy(tax, s.taxonomy)
    avg = (ent.f1 + cha.f1 + rel.f1 + gro.f1) / 4.0
    return {
        "n_documents": len(stats),
        "ent": _prf_obj(ent),
        "cha": {"precision": cha.precision, "recall": cha.recall, "f1": cha.f1,
                "muc": _prf_obj(muc_prf(cc)),
                "b_cubed": _prf_obj(b_cubed_prf(cc)),
                "ceaf_e": _prf_obj(ceaf_e_prf(cc))},
        "rel": _prf_obj(rel),
        "gro": _prf_obj(gro),
        "avg": avg,
        "errors": {"counts": tax, "rates": error_rates(tax)},
    }


def reduce_stats(stats: list[DocStats], mode: str) -> dict:
    stats = sorted(stats, key=lambda s: s.doc_id)
    report = _section(stats)
    report["mode"] = mode
    report["regimes"] = {r: _section([s for s in stats if s.regime == r])
                         for r in MODALITIES}
    return report


def evaluate(params: ParamTree, cfg: RunConfig, corpus: Corpus) -> dict:
    if not corpus.documents:
        raise ConfigError("cannot evaluate an empty corpus")
    check_compatible(corpus, cfg.model)
    check_params(params, cfg.model)
    stats = [score_document(doc, predict(doc, params, cfg.model, pair_mode=cfg.eval_mode))
             for doc in corpus.documents]
    return reduce_stats(stats, cfg.eval_mode)


def report_bytes(report: dict) -> bytes:
    return json.dumps(report, sort_keys=True, indent=2).encode("utf-8")


def save_report(path: str, report: dict) -> None:
    with replacing(path, "wb") as f:
        f.write(report_bytes(report))
        f.write(b"\n")
