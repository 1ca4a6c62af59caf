"""Task heads over the fused features and the training loss assembly.

This module is the one owner of every task's label layout: it builds the
training targets and decodes the predictions, and the model only routes
features and pair universes to it.

Entity head: linear emissions into a linear-chain CRF (transition matrix plus
start/end scores) over integer BIO tags: 0 is O, and entity type k of
`entity_types` has its B-tag at 2k + 1 and its I-tag at 2k + 2, so an I-tag t
continues a span only after t - 1 or t. Decoding is Viterbi with lowest-index
tie-break, then BIO repair on the decoded tags.

Coreference: a binary classifier on the Hadamard product of the two mentions'
mean-pooled span representations over every unordered mention pair
(`entity_pairs`); chains are the union-find closure of the positive pairs.
Relations: a (n_rel + 1)-way classifier (index 0 = NULL, k + 1 = type k) on
the Hadamard product of chain representations over every ordered chain pair
(`chain_pairs`). Grounding, per frame: type logits over NONE + groundable
types (the same layout) and a sigmoid (cx, cy, w, h) box.

`compute_losses` maps each loss name to a mean over its own count, or to None
when the document has nothing to score for it; `total_loss` adds the present
ones, weighted. Every loss is one tape node whose parents are the features it
reads and its head's weights, a numpy forward pass with a hand-derived
backward pass: `crf_nll`, `cross_entropy_mean` (coreference, relations and
grounding type), `box_l1_mean` (grounding boxes), and `total_loss` over them.
Those nodes and inference read one `affine` (x @ w + b) and one `box_sigmoid`.
"""
from __future__ import annotations

import numpy as np

from .autodiff import NumericError, Tensor, index_rows, matmul
from .config import LossConfig, ModelConfig
from .data import Document, Entity, Region, Relation


# -- BIO tags (the layout is in the module docstring) -----------------------


def gold_tag_ids(doc: Document, entity_types) -> np.ndarray:
    ids = np.zeros(doc.n_tokens, dtype=np.intp)
    for e in doc.entities:
        begin = 2 * entity_types.index(e.type) + 1
        ids[e.start] = begin
        ids[e.start + 1:e.end] = begin + 1
    return ids


def repair_bio(ids) -> list[int]:
    """An orphan I-tag t, one that follows neither t - 1 nor t, becomes its
    B-tag t - 1; everything else passes through."""
    out = []
    prev = 0
    for t in ids:
        t = int(t)
        if t and t % 2 == 0 and prev not in (t - 1, t):
            t -= 1
        out.append(t)
        prev = t
    return out


def spans_from_tags(ids, entity_types) -> list[Entity]:
    """One entity per B-tag, spanning the I-tags of its type that follow it."""
    ents = []
    start, begin = 0, 0  # the open span's first token and B-tag; 0 when none is open
    for i, t in enumerate(list(ids) + [0]):
        t = int(t)
        if begin and t == begin + 1:
            continue
        if begin:
            ents.append(Entity(start, i, entity_types[begin // 2]))
        start, begin = i, t if t % 2 else 0
    return ents


# -- parameter initialization ----------------------------------------------


def init_heads(scope, cfg: ModelConfig, rng) -> None:
    l_ent = 1 + 2 * len(cfg.entity_types)
    d = cfg.d_h
    s = 1.0 / np.sqrt(d)
    crf = scope.scoped("crf")
    crf.add("emission", rng.normal(size=(d, l_ent)) * s)
    crf.add("trans", np.zeros((l_ent, l_ent)))
    crf.add("start", np.zeros(l_ent))
    crf.add("end", np.zeros(l_ent))
    co = scope.scoped("coref")
    co.add("w", rng.normal(size=(d, 2)) * s)
    co.add("b", np.zeros(2))
    rel = scope.scoped("rel")
    rel.add("w", rng.normal(size=(d, len(cfg.relation_types) + 1)) * s)
    rel.add("b", np.zeros(len(cfg.relation_types) + 1))
    gro = scope.scoped("gro")
    gro.add("type.w", rng.normal(size=(d, len(cfg.grounding_types) + 1)) * s)
    gro.add("type.b", np.zeros(len(cfg.grounding_types) + 1))
    gro.add("box.w", rng.normal(size=(d, 4)) * s)
    gro.add("box.b", np.zeros(4))


# -- CRF --------------------------------------------------------------------


def crf_nll(h_text: Tensor, gold_ids, scope) -> Tensor:
    """Sequence negative log-likelihood log Z - score(gold), as one tape node.

    Parents (h_text, emission, trans, start, end). The forward pass runs the
    log-space alpha recursion over the emissions h_text @ emission and keeps
    alpha [L, K]. The backward pass is derived by hand: w[t-1][i, j] is the
    softmax weight of i in the log-sum-exp that gives alpha[t][j], and the
    alpha adjoints G[t-1] = w[t-1] @ G[t] from G[L-1] = softmax(alpha[L-1] +
    end) are the unary marginals. Gradients are the expected minus the gold
    counts (Lafferty et al. 2001).
    """
    gold_ids = np.asarray(gold_ids, dtype=np.intp)
    emission, trans, start, end = (scope[n] for n in ("emission", "trans", "start", "end"))
    e, tr = h_text.data @ emission.data, trans.data
    L, K = e.shape
    steps = np.arange(L)

    score = e[steps, gold_ids].sum() + start.data[gold_ids[0]] + end.data[gold_ids[-1]]
    if L > 1:
        score = score + tr[gold_ids[:-1], gold_ids[1:]].sum()

    alpha = np.empty((L, K))
    alpha[0] = e[0] + start.data
    for t in range(1, L):
        a = alpha[t - 1][:, None] + tr
        m = a.max(axis=0)
        alpha[t] = (np.log(np.exp(a - m).sum(axis=0)) + m) + e[t]
    a = alpha[L - 1] + end.data
    m = a.max()
    p_last = np.exp(a - m)
    s = p_last.sum()
    log_z = np.log(s) + m

    def vjp(g):
        w = np.exp(alpha[:-1, :, None] + tr - (alpha[1:] - e[1:])[:, None, :])
        G = np.empty((L, K))
        G[L - 1] = p_last / s
        for t in range(L - 1, 0, -1):
            G[t - 1] = w[t - 1] @ G[t]
        d_emis = G.copy()
        d_emis[steps, gold_ids] -= 1.0
        d_end = G[L - 1].copy()
        d_end[gold_ids[-1]] -= 1.0
        d_trans = np.einsum("tij,tj->ij", w, G[1:])
        np.add.at(d_trans, (gold_ids[:-1], gold_ids[1:]), -1.0)
        d_e = g * d_emis
        return d_e @ emission.data.T, h_text.data.T @ d_e, g * d_trans, d_e[0], g * d_end

    return Tensor._result(log_z - score, (h_text, emission, trans, start, end), vjp)


def finite(what: str, a: np.ndarray) -> np.ndarray:
    """`a` itself; NumericError naming `what` when an entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise NumericError(f"{what} are not finite")
    return a


def crf_decode(h_text: np.ndarray, scope) -> list[int]:
    """Viterbi over the text features [L, d_h] with lowest-index tie-break,
    then BIO repair; NumericError when the emission logits are not finite."""
    emis = finite("entity emission logits", h_text @ scope["emission"].data)
    trans, start, end = (scope[n].data for n in ("trans", "start", "end"))
    L, K = emis.shape
    deltas = np.empty((L, K))  # deltas[t, j]: best score of a path ending in tag j at t
    np.add(start, emis[0], out=deltas[0])
    cand = np.empty((K, K))
    for prev, cur, e in zip(deltas[:-1, :, None], deltas[1:], emis[1:]):
        np.add(prev, trans, out=cand)  # [from, to]
        np.maximum.reduce(cand, axis=0, out=cur)
        np.add(cur, e, out=cur)
    # the loop's candidate sums again, all steps at once: back[t - 1, j] is the
    # tag at t - 1 of the best path to tag j at t, the first max (lowest index)
    back = np.argmax(deltas[:-1, :, None] + trans, axis=1)
    path = [int(np.argmax(deltas[-1] + end))]
    for t in range(L - 2, -1, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return repair_bio(path)


# -- pair heads ---------------------------------------------------------------


def entity_pairs(n: int) -> list[tuple[int, int]]:
    """The coreference pair universe over n mentions: every unordered pair, i < j."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def chain_pairs(n: int) -> list[tuple[int, int]]:
    """The relation pair universe over n chains: every ordered pair, i != j."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _mean_matrix(groups, n: int) -> np.ndarray:
    """[len(groups), n] weights; row i averages the rows listed in groups[i]."""
    w = np.zeros((len(groups), n))
    for i, rows in enumerate(groups):
        w[i, rows] = 1.0 / len(rows)
    return w


def entity_reprs(h_text: Tensor, entities) -> Tensor:
    """Token mean of each entity span, [n_e, d_h], as one matmul."""
    spans = [range(e.start, e.end) for e in entities]
    return matmul(Tensor(_mean_matrix(spans, h_text.data.shape[0])), h_text)


def chain_reprs(ent_reprs: Tensor, chains) -> Tensor:
    """Mean of each chain's member representations, [n_c, d_h], as one matmul."""
    return matmul(Tensor(_mean_matrix(chains, ent_reprs.data.shape[0])), ent_reprs)


def pair_features(reprs: Tensor, pairs) -> Tensor:
    """The Hadamard product of rows a and b for each (a, b) pair."""
    ai = np.array([p[0] for p in pairs], dtype=np.intp)
    bi = np.array([p[1] for p in pairs], dtype=np.intp)
    return index_rows(reprs, ai) * index_rows(reprs, bi)


def affine(x: np.ndarray, w: Tensor, b: Tensor) -> np.ndarray:
    """A head's logits x @ w + b."""
    return x @ w.data + b.data


def box_sigmoid(z: np.ndarray) -> np.ndarray:
    """The box head's logistic, in a stable tanh form: (cx, cy, w, h) in [0, 1]."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def decode_chains(n_entities: int, positive_pairs) -> list[list[int]]:
    """Union-find closure; chains ordered by smallest member, members sorted."""
    parent = list(range(n_entities))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in positive_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for i in range(n_entities):
        groups.setdefault(find(i), []).append(i)
    return [sorted(groups[r]) for r in sorted(groups)]


def coref_predict(ent_reprs: Tensor, scope) -> list[list[int]]:
    """The chains of the mentions behind `ent_reprs`: the closure of the pairs
    whose link logit wins; NumericError when the logits are not finite."""
    n = ent_reprs.data.shape[0]
    pairs = entity_pairs(n)
    positive = []
    if pairs:
        logits = affine(pair_features(ent_reprs, pairs).data, scope["w"], scope["b"])
        links = np.argmax(finite("coreference logits", logits), axis=1)  # ties -> no link
        positive = [p for p, k in zip(pairs, links.tolist()) if k == 1]
    return decode_chains(n, positive)


def relation_predict(ent_reprs: Tensor, chains, scope, relation_types) -> list[Relation]:
    """One relation per ordered chain pair whose label is not NULL; NumericError
    when the logits are not finite."""
    pairs = chain_pairs(len(chains))
    if not pairs:
        return []
    feats = pair_features(chain_reprs(ent_reprs, chains), pairs)
    labels = np.argmax(finite("relation logits", affine(feats.data, scope["w"], scope["b"])),
                       axis=1)  # ties -> NULL
    return [Relation(i, j, relation_types[k - 1])
            for (i, j), k in zip(pairs, labels.tolist()) if k != 0]


def grounding_predict(h_frames: Tensor, scope, grounding_types) -> list[Region]:
    """One region per frame whose type is not NONE, in frame order; NumericError
    when the type logits or the boxes are not finite."""
    h = h_frames.data
    boxes = finite("grounding boxes", box_sigmoid(affine(h, scope["box.w"], scope["box.b"])))
    logits = finite("grounding type logits", affine(h, scope["type.w"], scope["type.b"]))
    labels = np.argmax(logits, axis=1)  # ties -> NONE
    return [Region(i, grounding_types[k - 1], *box)
            for i, (k, box) in enumerate(zip(labels.tolist(), boxes.tolist())) if k != 0]


# -- losses -------------------------------------------------------------------


def cross_entropy_mean(feats: Tensor, w: Tensor, b: Tensor, targets) -> Tensor:
    """Mean over rows of -log softmax(feats @ w + b)[row, target], as one tape
    node with parents (feats, w, b).

    The logit gradient d is (softmax - one-hot) / n (Bridle 1990), from the
    forward's exponentials and row sums; the parents get d @ w.T, feats.T @ d, d.sum(0).
    """
    targets = np.asarray(targets, dtype=np.intp)
    x = affine(feats.data, w, b)
    n = x.shape[0]
    rows = np.arange(n)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=-1, keepdims=True)
    nll = (np.log(s) + m)[:, 0] + -x[rows, targets]

    def vjp(g):
        gs = g * (1 / n)
        d = (e / s) * gs
        d[rows, targets] -= gs
        return d @ w.data.T, feats.data.T @ d, d.sum(axis=0)

    return Tensor._result(nll.sum() * (1 / n), (feats, w, b), vjp)


def box_l1_mean(h_frames: Tensor, scope, frames, gold) -> Tensor:
    """Mean absolute error of the boxes of rows `frames` against `gold`, as one
    tape node with parents (h_frames, box.w, box.b); subgradient 0 at the kink."""
    w, b = scope["box.w"], scope["box.b"]
    box = box_sigmoid(affine(h_frames.data, w, b))
    diff = box[frames] + gold * -1.0
    n = diff.size

    def vjp(g):
        dbox = np.zeros_like(box)
        np.add.at(dbox, frames, np.sign(diff) * (g * (1 / n)))
        dz = dbox * box * (1.0 - box)
        return dz @ w.data.T, h_frames.data.T @ dz, dz.sum(axis=0)

    return Tensor._result(np.abs(diff).sum() * (1 / n), (h_frames, w, b), vjp)


def compute_losses(doc: Document, h_text: Tensor, h_frames: Tensor | None,
                   scope, cfg: ModelConfig) -> dict[str, Tensor | None]:
    losses: dict[str, Tensor | None] = dict.fromkeys(("ent", "cha", "rel", "gro_t", "gro_b"))
    # entity: CRF sequence NLL, a mean over the token count
    gold = gold_tag_ids(doc, cfg.entity_types)
    losses["ent"] = crf_nll(h_text, gold, scope.scoped("crf")) * (1.0 / doc.n_tokens)

    # coreference over all unordered gold entity pairs
    pairs = entity_pairs(len(doc.entities))
    if pairs:
        reprs = entity_reprs(h_text, doc.entities)
        chain_of = doc.chain_of()
        labels = [1 if chain_of[a] == chain_of[b] else 0 for a, b in pairs]
        losses["cha"] = cross_entropy_mean(pair_features(reprs, pairs), scope["coref.w"],
                                           scope["coref.b"], labels)

    # relations over all ordered gold chain pairs (NULL = 0); two chains
    # partition at least two entities, so `reprs` exists
    cpairs = chain_pairs(len(doc.chains))
    if cpairs:
        rel_of: dict[tuple[int, int], list[int]] = {}
        for r in doc.relations:
            rel_of.setdefault((r.sub, r.obj), []).append(cfg.relation_types.index(r.type) + 1)
        ch = chain_reprs(reprs, doc.chains)
        sample_pairs = [p for p in cpairs for _ in rel_of.get(p, [0])]
        targets = [t for p in cpairs for t in rel_of.get(p, [0])]
        losses["rel"] = cross_entropy_mean(pair_features(ch, sample_pairs), scope["rel.w"],
                                           scope["rel.b"], targets)

    # grounding: type CE on every frame (NONE when unannotated), box MAE on
    # annotated frames only
    if h_frames is not None and doc.n_frames > 0:
        gro = scope.scoped("gro")
        targets = np.zeros(doc.n_frames, dtype=np.intp)
        gold_boxes = {}
        for rg in doc.regions:
            targets[rg.frame] = cfg.grounding_types.index(rg.type) + 1
            gold_boxes[rg.frame] = rg.box()
        losses["gro_t"] = cross_entropy_mean(h_frames, gro["type.w"], gro["type.b"], targets)
        if gold_boxes:
            frames = sorted(gold_boxes)
            losses["gro_b"] = box_l1_mean(h_frames, gro, np.array(frames, dtype=np.intp),
                                          np.array([gold_boxes[f] for f in frames]))
    return losses


def total_loss(losses: dict[str, Tensor | None], alphas: LossConfig) -> Tensor:
    """The weighted sum of the present losses, one tape node over them in order."""
    weights = {"ent": alphas.alpha_ent, "cha": alphas.alpha_cha,
               "rel": alphas.alpha_rel, "gro_t": alphas.alpha_gro_t,
               "gro_b": alphas.alpha_gro_b}
    present = [(value, weights[name]) for name, value in losses.items() if value is not None]
    total = 0.0
    for value, weight in present:
        total = total + value.data * weight
    return Tensor._result(total, [value for value, _ in present],
                          lambda g: tuple(g * weight for _, weight in present))
