"""Batch assembly and the end-to-end forward pass.

Sessions are padded into dense (B, n, ...) arrays so one pass serves a
whole batch; ``pack_batch`` builds all their graphs in one call, and
masks derived from node counts and lengths keep padded slots from ever
touching a real value.  The training forward runs the original channel,
the K factor channels (one pass over (B, K, n, d_f) states, where
factor-stacked weights broadcast) over similarity-weighted edges, and
the augmentation channel (the star view, its hub one more node slot, or
graph dropout), all through the same ``ggnn_step``, then assembles the
prediction, contrastive and independence terms.  Inference runs only
the prediction path they share: the original channel through the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .disentangle import independence_loss, project
from .encoder import encode, encode_factors
from .graphs import build_session_graph, normalized_pair
from .params import ParameterSet
from .predictor import (catalog_factor_embeddings, prediction_loss, score,
                        total_loss)
from .propagation import ggnn_step
from .rng import substream
from .tape import Tensor

# perfbench/tracer.py patches this name; ROADMAP item 1 drops it.
star_step = ggnn_step

VARIANTS = ("full", "fcl", "star", "fp")


@dataclass
class PackedBatch:
    node_ids: np.ndarray       # (B, n) catalog indices, 0-padded
    n_nodes: np.ndarray        # (B,) real node slots
    alias: np.ndarray          # (B, T) position -> node slot, 0-padded
    lengths: np.ndarray        # (B,) real positions
    edge_out: np.ndarray       # (B, n, n) binary pattern
    adj_in: np.ndarray         # (B, n, n) degree-normalized, 0-padded
    adj_out: np.ndarray        # (B, n, n)
    targets: np.ndarray        # (B,)
    session_indices: np.ndarray  # (B,) stable example ids for rng streams

    @property
    def node_mask(self) -> np.ndarray:    # (B, n) 1.0 on real node slots
        return _real_slots(self.n_nodes, self.node_ids.shape[1])

    @property
    def pos_mask(self) -> np.ndarray:     # (B, T) 1.0 on real positions
        return _real_slots(self.lengths, self.alias.shape[1])

    @property
    def last_pos(self) -> np.ndarray:
        return self.lengths - 1


def _real_slots(counts, width):
    return (np.arange(width) < counts[:, None]).astype(np.float64)


def pack_batch(examples, session_indices=None) -> PackedBatch:
    """Pad a list of prefix examples into one dense batch.

    ``session_indices`` are the stable per-example ids used to key the
    random substreams; they default to 0..B-1.
    """
    if session_indices is None:
        session_indices = np.arange(len(examples))
    if len(session_indices) != len(examples):
        raise ValueError(f"{len(session_indices)} session indices for "
                         f"{len(examples)} examples")
    graph = build_session_graph([ex.prefix for ex in examples])
    adj_in, adj_out = normalized_pair(graph[-1])
    # adj_in in C order: a transposed layout sends the propagation
    # matmuls down another BLAS path, whose sums round differently
    targets = np.array([ex.target for ex in examples], dtype=np.int64)
    return PackedBatch(*graph, np.ascontiguousarray(adj_in), adj_out, targets,
                       np.asarray(session_indices, dtype=np.int64))


def _lined_up(a, ndim):
    """(B, ...) array padded with unit axes after B to broadcast at ``ndim``."""
    return a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])


def _lead_index(shape, trailing):
    """Open-mesh indices over leading axes ``shape``, ``trailing`` axes on."""
    return tuple(i.reshape(i.shape + (1,) * trailing)
                 for i in np.ix_(*map(np.arange, shape)))


def _gather_sequence(h, pack: PackedBatch):
    """Lay node states back along positions: (B, [K,] n, d) -> (B, [K,] T, d)."""
    lead = _lead_index(h.value.shape[:-2], 1)
    return tape.getitem(h, lead + (_lined_up(pack.alias, h.value.ndim - 1),))


def _run_channel(x, adj_in, adj_out, weights):
    for _ in range(weights.layers):
        x = ggnn_step(x, adj_in, adj_out, weights)
    return x


def _factor_adjacency(f0, pack: PackedBatch):
    """Cosine of the raw factor embeddings at the session's edge slots.

    ``f0`` is (B, K, n, d_f), the result (B, K, n, n).  Built on the tape
    so edge weights pass gradient back into the projections; signed,
    unclamped, incoming view is the transpose.
    """
    unit = tape.normalize_rows(f0)
    sim = tape.matmul(unit, tape.swap_last(unit))
    a_out = tape.mul(sim, Tensor(_lined_up(pack.edge_out, f0.value.ndim)))
    return tape.swap_last(a_out), a_out


def _star_edges(pack: PackedBatch, theta, seed, epoch):
    """Sample hub edge indicators per session; padded slots stay 0."""
    to_real, from_real = edges = np.zeros((2,) + pack.node_ids.shape)
    for i, k in enumerate(pack.n_nodes):
        rng = substream(seed, "star", epoch, int(pack.session_indices[i]))
        edges[:, i, :k] = rng.random((2, k)) < theta
    return to_real, from_real


def _star_graph(x0, pack: PackedBatch, to_real, from_real):
    """The star view as an (n + 1)-slot graph: ``(states, adj_in, adj_out)``.

    Slot n is the hub.  It starts at the mean of the item embeddings over
    sequence positions (repeats count once per occurrence).  A node with
    ``to_real`` set receives the hub, one with ``from_real`` set feeds
    it; hub edges weigh 1.  The transition block is copied as it is, so a
    node without a hub edge aggregates exactly as in plain propagation.
    """
    b, n = pack.node_ids.shape
    share = np.zeros((b, 1, n))          # each node's share of the positions
    np.add.at(share[:, 0], (np.arange(b)[:, None], pack.alias),
              pack.pos_mask / pack.lengths[:, None])
    hub = tape.matmul(Tensor(share), x0)
    pad = ((0, 0), (0, 1), (0, 1))                  # the hub's row and column
    adj_in, adj_out = (np.pad(a, pad) for a in (pack.adj_in, pack.adj_out))
    adj_in[:, :n, n] = adj_out[:, n, :n] = to_real
    adj_out[:, :n, n] = adj_in[:, n, :n] = from_real
    return tape.concat([x0, hub], axis=-2), adj_in, adj_out


def _hub_channel(x0, pack: PackedBatch, weights, theta, seed, epoch):
    """Propagate over the star view; the returned states exclude the hub,
    which links to each real node in each direction with probability
    ``theta``."""
    to_real, from_real = _star_edges(pack, theta, seed, epoch)
    h = _run_channel(*_star_graph(x0, pack, to_real, from_real), weights)
    return tape.getitem(h, (slice(None), slice(None, -1)))


def _dropout_adjacency(pack: PackedBatch, edge_rate, node_rate, seed, epoch):
    """Perturbed copy of each session's pattern for the dropout variant.

    Edges vanish independently; nodes other than the last-position node
    are isolated (row and column cleared); the survivors are re-
    normalized by degree.
    """
    pattern = np.zeros_like(pack.edge_out)
    for i, k in enumerate(pack.n_nodes):
        rng = substream(seed, "dropout", epoch, int(pack.session_indices[i]))
        keep_edge = rng.random((k, k)) >= edge_rate
        pat = pack.edge_out[i, :k, :k] * keep_edge
        isolated = rng.random(k) < node_rate
        isolated[pack.alias[i, pack.lengths[i] - 1]] = False
        pat[isolated, :] = 0.0
        pat[:, isolated] = 0.0
        pattern[i, :k, :k] = pat
    return normalized_pair(pattern)


def _masked_session_mean(per_node, pack: PackedBatch):
    """Mean over real nodes per session, then mean over sessions with
    at least 2 nodes, summed over views if ``per_node`` is (B, K, n);
    returns a scalar tensor (0 if no session qualifies)."""
    session_ok = (pack.n_nodes >= 2).astype(np.float64)
    if session_ok.sum() == 0:
        return Tensor(np.float64(0.0))
    inv = session_ok / pack.n_nodes
    ndim = per_node.value.ndim
    masked = tape.mul(per_node, Tensor(_lined_up(pack.node_mask, ndim)))
    per_session = tape.mul(tape.tsum(masked, axis=-1),
                           Tensor(_lined_up(inv, ndim - 1)))
    return tape.mul(tape.tsum(per_session),
                    Tensor(np.float64(1.0 / session_ok.sum())))


def _pairwise_terms(anchor, positive, partner, neg_idx, disc):
    """softplus(-H_pos) + mean_j softplus(H_neg_j) per node slot of
    (B, [K,] n, d) states; ``neg_idx`` is (B, [K,] n, per)."""
    pos = disc.score(anchor, positive)
    shape = anchor.value.shape
    key = _lead_index(neg_idx.shape[:-2], 2) + (neg_idx,)
    neg = disc.score(tape.reshape(anchor, shape[:-1] + (1, shape[-1])),
                     tape.getitem(partner, key))
    pos_term = tape.softplus(tape.mul(pos, Tensor(np.float64(-1.0))))
    neg_term = tape.tmean(tape.softplus(neg), axis=-1)
    return tape.add(pos_term, neg_term)


def _negative_draws(pack: PackedBatch, seed, epoch, stream_tag, per, count=1):
    """Per-session negative slot indices, shape (count, B, n, per).

    ``count`` consecutive draws come from one substream per session, so
    factor levels consume the same stream in sequence.
    """
    b, n = pack.node_ids.shape
    out = np.zeros((count, b, n, per), dtype=np.int64)
    for i, k in enumerate(pack.n_nodes):
        if k < 2:
            continue
        rng = substream(seed, "negatives", epoch,
                        int(pack.session_indices[i]), stream_tag)
        draws = rng.integers(0, k - 1, size=(count, k, per))
        out[:, i, :k] = draws + (draws >= np.arange(k)[:, None])
    return out


@dataclass
class ForwardResult:
    loss: object               # scalar Tensor
    prediction: object
    contrastive: object
    independence: object
    scores: object             # (B, N) Tensor of next-item probabilities


def _predict(params: ParameterSet, pack: PackedBatch, cfg):
    """The original channel through the scores, the path training and
    inference share: ``(x0, h_orig, orig_factors, scores)``."""
    x0 = tape.getitem(params.embeddings, pack.node_ids)
    h_orig = _run_channel(x0, Tensor(pack.adj_in), Tensor(pack.adj_out),
                          params.ggnn_original)
    last_pos, pos_mask = pack.last_pos, pack.pos_mask
    e_item = encode(_gather_sequence(h_orig, pack), params.attn_item,
                    last_pos, pos_mask, cfg.normalize_attention)
    orig_factors = project(h_orig, params.proj)          # (B, K, n, d_f)
    e_factor = encode_factors(_gather_sequence(orig_factors, pack),
                              params.attn_factor, last_pos[:, None],
                              pos_mask[:, None], cfg.normalize_attention)
    scores = score(e_item, e_factor, params.embeddings,
                   catalog_factors=catalog_factor_embeddings(params.embeddings,
                                                             params.proj),
                   use_factor_head=cfg.variant != "fp")
    return x0, h_orig, orig_factors, scores


def training_forward(params: ParameterSet, pack: PackedBatch, cfg,
                     epoch: int) -> ForwardResult:
    """Full objective for one padded batch.

    ``cfg`` carries the run configuration (see harness.TrainConfig).
    The variant switches: ``fcl`` drops the factor channels and their
    contrastive term, ``star`` swaps the hub augmentation for graph
    dropout, ``fp`` scores with the item head alone.
    """
    if cfg.variant not in VARIANTS:
        raise ValueError(f"unknown variant {cfg.variant!r}")
    x0, h_orig, orig_factors, scores = _predict(params, pack, cfg)

    # augmentation channel for the item-level contrast
    if cfg.variant == "star":
        adj_in_d, adj_out_d = _dropout_adjacency(
            pack, cfg.dropout_edge, cfg.dropout_node, cfg.seed, epoch)
        h_aug = _run_channel(x0, Tensor(adj_in_d), Tensor(adj_out_d),
                             params.ggnn_star)
    else:
        h_aug = _hub_channel(x0, pack, params.ggnn_star, cfg.theta, cfg.seed,
                             epoch)

    neg_item = _negative_draws(pack, cfg.seed, epoch, 0,
                               cfg.negatives_per_positive)[0]
    item_terms = _pairwise_terms(h_orig, h_aug, h_aug, neg_item,
                                 params.disc_item)
    l_item = _masked_session_mean(item_terms, pack)

    f0 = project(x0, params.proj)                        # (B, K, n, d_f)
    if cfg.variant == "fcl":
        l_contrast = l_item
    else:
        a_in, a_out = _factor_adjacency(f0, pack)
        h_fac = _run_channel(f0, a_in, a_out, params.ggnn_factor)
        partner = orig_factors if cfg.factor_negatives == "within_view" \
            else h_fac
        neg_fac = _negative_draws(pack, cfg.seed, epoch, 1,
                                  cfg.negatives_per_positive,
                                  count=params.proj.num_factors)
        terms = _pairwise_terms(orig_factors, h_fac, partner,
                                np.swapaxes(neg_fac, 0, 1), params.disc_factor)
        l_factor = _masked_session_mean(terms, pack)
        l_contrast = tape.add(
            tape.mul(l_item, Tensor(np.float64(cfg.alpha))),
            tape.mul(l_factor, Tensor(np.float64(1.0 - cfg.alpha))))

    # every real node slot once per view: (K, m, d_f)
    b_idx, slot = np.nonzero(pack.node_mask)
    views = np.arange(f0.value.shape[1])[:, None]
    l_ind = independence_loss(tape.getitem(f0, (b_idx, views, slot)))

    l_pred = prediction_loss(scores, pack.targets)
    loss = total_loss(l_pred, l_contrast, l_ind, cfg.beta_cl, cfg.beta_ind)
    return ForwardResult(loss=loss, prediction=l_pred, contrastive=l_contrast,
                         independence=l_ind, scores=scores)


def score_batch(params: ParameterSet, pack: PackedBatch, cfg) -> np.ndarray:
    """Inference probabilities (B, N); only the original channel runs."""
    with tape.no_grad():
        return _predict(params, pack, cfg)[-1].value
