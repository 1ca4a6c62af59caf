"""Corpus evaluation: run inference per document, reduce per-document stats
into a report with per-task scores, the error taxonomy, and per-regime
sub-reports.

`score_document` scores one `data.Prediction`, the model's or the synth
oracle's, keying both sides' chains and relations by mention in `_keyed`;
the report's prediction totals come from the summed counts.

The reduction sorts partial stats by document id before summing, so the
report is byte-identical no matter what order documents were scored in.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .autodiff import ConfigError, ParamTree
from .config import RunConfig
from .data import MODALITIES, Corpus, Document, Entity, Prediction, replacing
from .metrics import (ERROR_KEYS, ChainCounts, b_cubed_prf, ceaf_e_prf, chain_score_prf,
                      error_rates, mention_key, muc_prf, prf_from_counts, score_chains,
                      score_entities, score_grounding, score_relations)
from .model import check_compatible, check_params, predict


@dataclass
class DocStats:
    doc_id: str
    regime: str
    ent: tuple[int, int, int]
    cha: ChainCounts
    rel: tuple[int, int, int]
    gro: tuple[int, int, int]
    taxonomy: dict[str, int]   # the ERROR_KEYS


def _keyed(entities: list[Entity], chains, rel_chains, relations) -> tuple[list, list]:
    """`chains` as frozensets of their `entities`' mention keys, and `relations`
    as (subject keys, object keys, type) triples over `rel_chains`."""
    def keys(cs):
        return [frozenset(mention_key(entities[i]) for i in c) for c in cs]
    args = keys(rel_chains)
    return keys(chains), [(args[r.sub], args[r.obj], r.type) for r in relations]


def score_document(doc: Document, pred: Prediction) -> DocStats:
    """Each task's counts and taxonomy entries from its scorer's one match."""
    gold_chains, gold_rels = _keyed(doc.entities, doc.chains, doc.chains, doc.relations)
    pred_chains, pred_rels = _keyed(pred.pair_entities, pred.chains, pred.rel_chains,
                                    pred.relations)
    ent, ent_err = score_entities(doc.entities, pred.entities)
    cha, cha_err = score_chains(gold_chains, pred_chains)
    rel, rel_err = score_relations(gold_rels, pred_rels)
    gro, gro_err = score_grounding(doc.regions, pred.regions)
    return DocStats(doc_id=doc.id, regime=doc.modality_mask, ent=ent, cha=cha, rel=rel,
                    gro=gro, taxonomy={**ent_err, **cha_err, **rel_err, **gro_err})


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
    # each task's prediction total is its tp + fp; a chain's, its CEAF-e denominator
    tax = {k: sum(s.taxonomy[k] for s in stats) for k in ERROR_KEYS}
    tax.update(ent_pred=ent.tp + ent.fp, cha_pred=int(cc.ceaf_np),
               rel_pred=rel.tp + rel.fp, gro_pred=gro.tp + gro.fp)
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
