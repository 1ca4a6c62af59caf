"""Acceptance gate: one test per release criterion, run in criterion order.

Every test is deterministic (fixed seeds, float64 math), so a pass here is
reproducible bit for bit. Each test prints a single summary line with the
measured values next to its bar.
"""
import dataclasses
import itertools
import random
import time

import numpy as np
from scipy.special import logsumexp

from himie.autodiff import ParamTree, Tensor, gradcheck
from himie.config import GenConfig, LossConfig, ModelConfig, RunConfig
from himie.data import (assign_modality_regime, parse_corpus, serialize_corpus,
                        validate)
from himie.evaluate import evaluate, reduce_stats, report_bytes, score_document
from himie.heads import crf_decode, crf_nll, repair_bio
from himie.metrics import (PartitionError, b_cubed_prf, ceaf_e_prf,
                           chain_score_prf, iou, muc_prf, prf_from_counts,
                           relation_matches, score_chains, score_grounding,
                           score_relations, to_corners)
from himie.model import init_params, predict
from himie.sweep import run_point, summarize, sweep
from himie.synth import generate
from himie.trainer import load_checkpoint, save_checkpoint, train

DESK = ModelConfig()
MODULE_PREFIXES = ("encoder.text", "encoder.frames", "dffm", "mmcm", "heads")


# -- 1. gradient correctness ---------------------------------------------------


def test_criterion_01_full_model_gradcheck():
    # 6-token/2-frame document whose annotations drive every loss head
    gen = GenConfig(docs=1, tokens_per_doc=(6, 6), frames_per_doc=(2, 2),
                    entity_rate=0.5, chain_merge_prob=1.0, relation_rate=1.0,
                    grounding_rate=1.0, seed=56)
    doc = generate(gen).documents[0]
    assert doc.n_tokens == 6 and doc.n_frames == 2
    assert doc.relations and doc.regions and any(len(c) > 1 for c in doc.chains)

    cfg = dataclasses.replace(DESK, kl_weight=0.05)  # include the KL path
    params = init_params(cfg, seed=0)
    loss_cfg = LossConfig()
    from himie.model import forward
    t0 = time.monotonic()
    report = gradcheck(lambda: forward(doc, params, cfg, loss_cfg).loss,
                       params, samples=200, eps=1e-4, seed=0,
                       prefixes=MODULE_PREFIXES)
    elapsed = time.monotonic() - t0

    sampled = {e.name for e in report.entries}
    for prefix in MODULE_PREFIXES:
        assert any(n.startswith(prefix + ".") for n in sampled), prefix
    assert len(report.entries) == 200
    assert report.max_rel_err < 1e-4, report.worst()
    assert elapsed < 60.0
    print(f"[criterion 1] PASS: max rel err {report.max_rel_err:.3e} < 1e-4 "
          f"over 200 params in {elapsed:.1f}s")


# -- 2. crf against enumeration ------------------------------------------------


def test_criterion_02_crf_matches_enumeration():
    K = 1 + 2 * len(DESK.entity_types)
    assert K == 9
    d = 4
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        L = int(rng.integers(1, 6))
        scope = ParamTree()
        scope.add("emission", rng.normal(size=(d, K)))
        scope.add("trans", rng.normal(size=(K, K)))
        scope.add("start", rng.normal(size=K))
        scope.add("end", rng.normal(size=K))
        h = Tensor(rng.normal(size=(L, d)))
        emis = h.data @ scope["emission"].data
        trans = scope["trans"].data
        start, end = scope["start"].data, scope["end"].data

        paths = np.array(list(itertools.product(range(K), repeat=L)))
        scores = (start[paths[:, 0]] + end[paths[:, -1]]
                  + emis[np.arange(L), paths].sum(axis=1))
        if L > 1:
            scores += trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
        log_z_enum = float(logsumexp(scores))

        gold = repair_bio(rng.integers(0, K, size=L))
        gold_score = (start[gold[0]] + end[gold[-1]]
                      + emis[np.arange(L), gold].sum())
        if L > 1:
            g = np.asarray(gold)
            gold_score += trans[g[:-1], g[1:]].sum()
        log_z_impl = float(crf_nll(h, gold, scope).data) + gold_score
        worst = max(worst, abs(log_z_impl - log_z_enum))
        assert abs(log_z_impl - log_z_enum) < 1e-8

        # continuous random scores make the argmax unique with certainty;
        # the decoder repairs BIO afterwards, so repair the reference too
        best = [int(t) for t in paths[int(np.argmax(scores))]]
        assert crf_decode(h.data, scope) == repair_bio(best)
    print(f"[criterion 2] PASS: 100 instances, log Z max err {worst:.2e} < 1e-8, "
          f"all Viterbi paths identical")


# -- 3. coreference metric fixtures ---------------------------------------------


def random_partition(rng, items, ensure_link=False):
    chains: list[set] = []
    for it in items:
        if chains and rng.random() < 0.5:
            chains[int(rng.integers(0, len(chains)))].add(it)
        else:
            chains.append({it})
    if ensure_link and all(len(c) == 1 for c in chains) and len(chains) > 1:
        chains[0] |= chains.pop()
    return chains


def test_criterion_03_coreference_fixtures():
    gold = [{"a", "b", "c"}]
    pred = [{"a", "b"}, {"c"}]
    cc = score_chains(gold, pred)[0]
    assert abs(muc_prf(cc).f1 - 2.0 / 3.0) < 1e-9
    assert abs(b_cubed_prf(cc).f1 - 5.0 / 7.0) < 1e-9
    assert abs(ceaf_e_prf(cc).f1 - 8.0 / 15.0) < 1e-9

    rng = np.random.default_rng(3)
    for _ in range(50):
        items = [f"m{i}" for i in range(int(rng.integers(2, 12)))]
        part = random_partition(rng, items, ensure_link=True)
        s = chain_score_prf(score_chains(part, [set(c) for c in part])[0])
        assert abs(s.f1 - 1.0) < 1e-12

    def phi4(a, b):
        return 2.0 * len(a & b) / (len(a) + len(b))

    checked = 0
    for trial in range(400):
        rng = np.random.default_rng(1000 + trial)
        items = [f"m{i}" for i in range(int(rng.integers(2, 10)))]
        g = random_partition(rng, items)
        p = random_partition(rng, items)
        if len(g) > 6 or len(p) > 6:
            continue
        small, big = (g, p) if len(g) <= len(p) else (p, g)
        best = max(sum(phi4(s, big[j]) for s, j in zip(small, perm))
                   for perm in itertools.permutations(range(len(big)), len(small)))
        assert abs(score_chains(g, p)[0].ceaf_phi - best) < 1e-12
        checked += 1
    assert checked >= 100
    print(f"[criterion 3] PASS: fixtures 2/3, 5/7, 8/15 within 1e-9; 50 perfect "
          f"partitions score 1.0; Hungarian == permutation max on {checked} cases")


# -- 4. iou against a pixel grid ------------------------------------------------


def pixel_iou(a, b, n=1000):
    """Count-of-cell-centers oracle; exact when box edges sit on the grid."""
    centers = (np.arange(n) + 0.5) / n

    def counts(box):
        x0, y0, x1, y1 = to_corners(box)
        return (((centers > x0) & (centers < x1)).sum(),
                ((centers > y0) & (centers < y1)).sum())

    ax, ay = counts(a)
    bx, by = counts(b)
    x0 = max(a[0] - a[2] / 2, b[0] - b[2] / 2)
    x1 = min(a[0] + a[2] / 2, b[0] + b[2] / 2)
    y0 = max(a[1] - a[3] / 2, b[1] - b[3] / 2)
    y1 = min(a[1] + a[3] / 2, b[1] + b[3] / 2)
    ix = ((centers > x0) & (centers < x1)).sum() if x1 > x0 else 0
    iy = ((centers > y0) & (centers < y1)).sum() if y1 > y0 else 0
    inter = ix * iy
    union = ax * ay + bx * by - inter
    return inter / union if union else 0.0


def lattice_box(rng, n=1000):
    # even-numerator width and integer-numerator center put all four
    # edges exactly on the 1/n grid, which makes the pixel oracle exact
    w = int(rng.integers(10, 300)) * 2 / n
    h = int(rng.integers(10, 300)) * 2 / n
    cx = int(rng.integers(w * n / 2, n - w * n / 2 + 1)) / n
    cy = int(rng.integers(h * n / 2, n - h * n / 2 + 1)) / n
    return (cx, cy, w, h)


def region(frame, t, box):
    from himie.data import Region
    return Region(frame, t, *box)


def test_criterion_04_iou_oracle_and_threshold_matcher():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        a, b = lattice_box(rng), lattice_box(rng)
        if rng.random() < 0.5:  # force frequent overlap
            b = (min(max(a[0] + rng.normal(0, 0.05), b[2] / 2), 1 - b[2] / 2),
                 min(max(a[1] + rng.normal(0, 0.05), b[3] / 2), 1 - b[3] / 2),
                 b[2], b[3])
            b = (round(b[0] * 1000) / 1000, round(b[1] * 1000) / 1000, b[2], b[3])
        err = abs(iou(a, b) - pixel_iou(a, b))
        worst = max(worst, err)
        assert err < 1e-3

    # frames built so each prediction can overlap at most one gold box:
    # golds sit in separate quadrants, preds are jitters of one gold
    types = ("PER", "LOC", "ORG")
    cells = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
    agree = 0
    for frame_i in range(100):
        rng = np.random.default_rng(7000 + frame_i)
        golds, preds = [], []
        for ci, (cx, cy) in enumerate(cells):
            if rng.random() < 0.3:
                continue
            w = float(rng.uniform(0.08, 0.2))
            t = types[int(rng.integers(0, 3))]
            golds.append(region(0, t, (cx, cy, w, w)))
            for _ in range(int(rng.integers(0, 3))):
                dx = float(rng.uniform(0, 0.6)) * w  # IoU crosses 0.5 at w/3
                pt = t if rng.random() < 0.7 else types[int(rng.integers(0, 3))]
                preds.append(region(0, pt, (cx + dx, cy, w, w)))
        tp, fp, fn = score_grounding(golds, preds)[0]

        matchable = [[pi for pi, p in enumerate(preds)
                      if p.type == g.type and iou(g.box(), p.box()) > 0.5]
                     for g in golds]
        best = 0
        for assign in itertools.product(*(m + [None] for m in matchable)):
            taken = [a for a in assign if a is not None]
            if len(set(taken)) == len(taken):
                best = max(best, len(taken))
        assert tp == best and fp == len(preds) - tp and fn == len(golds) - tp
        agree += 1
    assert agree == 100
    print(f"[criterion 4] PASS: 1000 pairs within {worst:.2e} of the pixel "
          f"oracle (< 1e-3); matcher equals brute force on 100 frames")


# -- 5. relation matcher vs brute force ------------------------------------------


def test_criterion_05_relation_counts_match_bruteforce():
    # one mention block per gold keeps every prediction overlapping at most
    # one gold, where greedy matching provably attains the maximum
    for trial in range(100):
        rng = np.random.default_rng(500 + trial)
        n_gold = int(rng.integers(1, 5))
        blocks = [[f"g{b}m{i}" for i in range(4)] for b in range(n_gold)]
        gold = []
        for b in range(n_gold):
            sub = frozenset(rng.choice(blocks[b][:2], size=int(rng.integers(1, 3)),
                                       replace=False))
            obj = frozenset(rng.choice(blocks[b][2:], size=int(rng.integers(1, 3)),
                                       replace=False))
            gold.append((sub, obj, f"R{int(rng.integers(0, 2))}"))
        pred = []
        for _ in range(int(rng.integers(0, 6))):
            b = int(rng.integers(0, n_gold))
            sub = frozenset(rng.choice(blocks[b][:2], size=int(rng.integers(1, 3)),
                                       replace=False))
            obj = frozenset(rng.choice(blocks[b][2:], size=int(rng.integers(1, 3)),
                                       replace=False))
            pred.append((sub, obj, f"R{int(rng.integers(0, 2))}"))

        tp, fp, fn = score_relations(gold, pred)[0]
        best = 0
        for perm in itertools.permutations(range(len(gold))):
            used, cnt = set(), 0
            for gi in perm:
                for pi in range(len(pred)):
                    if pi not in used and relation_matches(pred[pi], gold[gi]):
                        used.add(pi)
                        cnt += 1
                        break
            best = max(best, cnt)
        assert tp == best
        assert fp == len(pred) - tp and fn == len(gold) - tp
    print("[criterion 5] PASS: TP counts equal brute-force matching on "
          "100 instances")


# -- 6. overfit reproduction ------------------------------------------------------


def test_criterion_06_overfit_eight_documents():
    cfg = RunConfig(gen=GenConfig(docs=8, seed=2), epochs=37, seed=2)
    corpus = generate(cfg.gen)
    assert len(corpus.documents) == 8
    assert all(d.modality_mask == "full" for d in corpus.documents)

    t0 = time.monotonic()
    out = train(cfg, corpus)
    report = evaluate(out.params, cfg, corpus)
    elapsed = time.monotonic() - t0

    assert out.step <= 300
    assert cfg.eval_mode == "gold-pairs"
    f1 = {t: report[t]["f1"] for t in ("ent", "cha", "rel", "gro")}
    assert f1["ent"] >= 0.95 and f1["cha"] >= 0.90
    assert f1["rel"] >= 0.80 and f1["gro"] >= 0.80
    assert elapsed < 600.0
    print(f"[criterion 6] PASS: {out.step} steps in {elapsed:.0f}s; "
          f"ent {f1['ent']:.3f} cha {f1['cha']:.3f} rel {f1['rel']:.3f} "
          f"gro {f1['gro']:.3f}")


# -- 7. ablation direction ---------------------------------------------------------


def _arm_mean(base: RunConfig, corpus, **model_over) -> float:
    cfg = dataclasses.replace(base, model=dataclasses.replace(base.model,
                                                              **model_over))
    rows = [run_point(cfg, corpus, base.seed + k) for k in range(3)]
    return sum(r.avg for r in rows) / len(rows)


def test_criterion_07_ablation_direction():
    base = RunConfig(gen=GenConfig(docs=64, seed=5), epochs=12, seed=0)
    corpus = generate(base.gen)

    # the default model has both MMCM and DFFM on, so one arm is the
    # baseline of both ablations
    assert base.model.mmcm_enabled and base.model.dffm_enabled
    default = _arm_mean(base, corpus)
    blank_fill = _arm_mean(base, corpus, mmcm_enabled=False)
    assert default >= blank_fill

    without_dffm = _arm_mean(base, corpus, dffm_enabled=False)
    assert default >= without_dffm
    print(f"[criterion 7] PASS: MMCM {default:.4f} >= blank {blank_fill:.4f}; "
          f"DFFM {default:.4f} >= removed {without_dffm:.4f} (3 seeds)")


# -- 8. missing-ratio trend ---------------------------------------------------------


def test_criterion_08_missing_ratio_trend():
    base = RunConfig(gen=GenConfig(docs=64, seed=5), epochs=6, seed=0)
    corpus = generate(base.gen)
    rows = sweep(base, corpus, "missing_ratio", [0.0, 0.5, 1.0])
    mean = {r["value"]: r["avg"] for r in summarize(rows) if r["seed"] == "mean"}
    m0, m5, m10 = (mean[str(v)] for v in (0.0, 0.5, 1.0))
    assert m0 >= m5 >= m10
    print(f"[criterion 8] PASS: mean avg-F1 {m0:.4f} >= {m5:.4f} >= {m10:.4f}")


# -- 9. determinism and round trips ---------------------------------------------------


def test_criterion_09_determinism_and_round_trips(tmp_path):
    small = ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3, d_vae=4,
                        prompt_len=3, vocab=64, max_len=64)
    cfg = RunConfig(model=small,
                    gen=GenConfig(docs=4, tokens_per_doc=(8, 12),
                                  frames_per_doc=(1, 2), seed=0),
                    epochs=2, seed=0)
    corpus = assign_modality_regime(generate(cfg.gen, cfg.model),
                                    cfg.regime_fractions, cfg.seed)

    # identical config+seed -> bitwise-identical checkpoint and report
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    reports = []
    for p in paths:
        out = train(cfg, corpus)
        save_checkpoint(str(p), out.params, cfg, out.step, out.rng_state)
        reports.append(report_bytes(evaluate(out.params, cfg, corpus)))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert reports[0] == reports[1]

    # corpus serialization round-trips exactly
    corpus_path = tmp_path / "corpus.jsonl"
    serialize_corpus(corpus, str(corpus_path))
    reparsed = parse_corpus(corpus_path)
    again = tmp_path / "again.jsonl"
    serialize_corpus(reparsed, str(again))
    assert corpus_path.read_bytes() == again.read_bytes()

    # checkpoint round-trips exactly
    params, cfg2, step2, rng2 = load_checkpoint(str(paths[0]))
    resaved = tmp_path / "resaved.ckpt"
    save_checkpoint(str(resaved), params, cfg2, step2, rng2)
    assert resaved.read_bytes() == paths[0].read_bytes()

    # evaluation reduction is independent of scoring order
    out = train(cfg, corpus)
    stats = [score_document(d, predict(d, out.params, cfg.model))
             for d in corpus.documents]
    ref = report_bytes(reduce_stats(list(stats), cfg.eval_mode))
    for seed in range(5):
        shuffled = list(stats)
        random.Random(seed).shuffle(shuffled)
        assert report_bytes(reduce_stats(shuffled, cfg.eval_mode)) == ref
    print("[criterion 9] PASS: bitwise-identical checkpoints and reports; "
          "exact corpus/checkpoint round trips; order-independent reduction")


# -- 10. invariant enforcement -----------------------------------------------------


def test_criterion_10_invariants_enforced():
    import pytest
    from himie.data import Document, Entity, Region

    def doc(**over):
        base = dict(id="d0", tokens=[1, 2, 3, 4], frames=[], entities=[],
                    chains=[], relations=[], regions=[], modality_mask="full")
        base.update(over)
        return Document(**base)

    # chains must partition the entity indices
    bad = doc(entities=[Entity(0, 1, "PER"), Entity(1, 2, "LOC")],
              chains=[[0], [0, 1]])
    codes = {v.code for v in validate(bad)}
    assert "CHAIN_PARTITION" in codes
    with pytest.raises(PartitionError):
        score_chains([{"a"}, {"a"}], [{"a"}])

    # box coordinates must stay in the unit square
    bad = doc(frames=[np.zeros((16, 8))],
              regions=[Region(0, "PER", 1.4, 0.5, 0.2, 0.2)])
    assert "BOX_RANGE" in {v.code for v in validate(bad)}
    with pytest.raises(ValueError):
        score_grounding([Region(0, "PER", -0.2, 0.5, 0.1, 0.1)], [])

    # PRF values stay inside [0, 1] and F1 is 0 whenever tp is 0
    rng = np.random.default_rng(10)
    for _ in range(200):
        tp, fp, fn = (int(x) for x in rng.integers(0, 8, size=3))
        p = prf_from_counts(tp, fp, fn)
        assert 0.0 <= p.precision <= 1.0
        assert 0.0 <= p.recall <= 1.0
        assert 0.0 <= p.f1 <= 1.0
        if tp == 0:
            assert p.f1 == 0.0

    # the report's avg field is the exact mean of the four task F1 values
    cfg = RunConfig(model=ModelConfig(d_h=8, n_l=6, heads=2, n_p=4, d_in=3,
                                      d_vae=4, prompt_len=3, vocab=64,
                                      max_len=64),
                    gen=GenConfig(docs=3, tokens_per_doc=(8, 12),
                                  frames_per_doc=(1, 2), seed=1),
                    epochs=0, seed=0)
    corpus = generate(cfg.gen, cfg.model)
    report = evaluate(init_params(cfg.model, 0), cfg, corpus)
    expect = (report["ent"]["f1"] + report["cha"]["f1"]
              + report["rel"]["f1"] + report["gro"]["f1"]) / 4.0
    assert report["avg"] == expect
    print("[criterion 10] PASS: partition constraint, box ranges, PRF bounds, "
          "and avg = mean of four F1s all enforced")
