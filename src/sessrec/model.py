"""Batch assembly and the end-to-end forward pass.

A batch is one graph: the disjoint union of its sessions' transition
graphs.  ``pack_batch`` lays out the M real nodes and P real positions
of all sessions one after another, and the edges as index lists over
node rows, so no padded slot exists to mask.  The training forward runs
the original channel, the K factor channels (one pass over (K, M, d_f)
states, where factor-stacked weights broadcast) over cosine-weighted
edges, and the augmentation channel (the star view, its hubs B more
rows, or graph dropout), all through the same ``ggnn_step``, then
assembles the prediction term, the item- and factor-level contrastive
terms (one ``Discriminator.score`` node each) and the independence term.
Inference runs only the prediction path they share: the original
channel through the scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .disentangle import independence_loss, project
from .encoder import encode, encode_factors
from .graphs import build_session_graph, degree_weights
from .params import ParameterSet
from .predictor import (catalog_factor_embeddings, prediction_loss, score,
                        total_loss)
from .propagation import ggnn_step
from .rng import substream, uniforms
from .tape import Tensor

# perfbench/tracer.py patches this name and ``substream`` (which training
# no longer calls: its draws come from ``uniforms``); ROADMAP item 1 drops
# them.
star_step = ggnn_step

VARIANTS = ("full", "fcl", "star", "fp")


@dataclass
class PackedBatch:
    node_ids: np.ndarray       # (M,) catalog index of each real node
    n_nodes: np.ndarray        # (B,) nodes per session, rows in session order
    alias: np.ndarray          # (P,) each real position's node row
    lengths: np.ndarray        # (B,) positions per session
    src: np.ndarray            # (E,) transition tails, node rows
    dst: np.ndarray            # (E,) transition heads
    targets: np.ndarray        # (B,)
    session_indices: np.ndarray  # (B,) stable example ids for rng streams

    @property
    def node_start(self) -> np.ndarray:   # (B,) each session's first row
        return np.cumsum(self.n_nodes) - self.n_nodes

    @property
    def node_session(self) -> np.ndarray:  # (M,) each node row's session
        return np.repeat(np.arange(self.n_nodes.size), self.n_nodes)

    @property
    def node_local(self) -> np.ndarray:    # (M,) each row's index in its session
        return np.arange(self.node_ids.size) - np.repeat(self.node_start,
                                                         self.n_nodes)

    def draws(self, purpose, seed, epoch, rows, slots, stream=0):
        """``rng.uniforms`` at ``slots``, each keyed by the session id of
        the node row in ``rows`` (which broadcasts against ``slots``)."""
        return uniforms(seed, purpose, epoch,
                        self.session_indices[self.node_session[rows]], slots,
                        stream)

    @property
    def edges(self):
        """The transitions as ``ggnn_step`` takes them, degree-normalized."""
        return (self.src, self.dst,
                *degree_weights(self.src, self.dst, self.node_ids.size))

    @property
    def node_mask(self) -> np.ndarray:
        """(B, n_max) 1.0 where a padded layout would hold a real node."""
        width = np.arange(self.n_nodes.max())
        return (width < self.n_nodes[:, None]).astype(np.float64)


def pack_batch(examples, session_indices=None) -> PackedBatch:
    """Lay a list of prefix examples out as one batch graph.

    ``session_indices`` are the stable per-example ids that key the
    training draws; they default to 0..B-1.
    """
    if session_indices is None:
        session_indices = np.arange(len(examples))
    if len(session_indices) != len(examples):
        raise ValueError(f"{len(session_indices)} session indices for "
                         f"{len(examples)} examples")
    graph = build_session_graph([ex.prefix for ex in examples])
    targets = np.array([ex.target for ex in examples], dtype=np.int64)
    return PackedBatch(*graph, targets,
                       np.asarray(session_indices, dtype=np.int64))


def _run_channel(x, edges, weights):
    for _ in range(weights.layers):
        x = ggnn_step(x, edges, weights)
    return x


def _factor_edges(f0, pack: PackedBatch):
    """The transitions weighted per factor view by the cosine of the raw
    factor embeddings at their two ends: ``(src, dst, w, w)``.

    ``f0`` is (K, M, d_f) and ``w`` (K, E).  Built on the tape so edge
    weights pass gradient back into the projections; signed, unclamped,
    the same weight in both directions.
    """
    if f0.value.shape[-2] != pack.node_ids.size:
        raise ValueError("one factor row per node of the batch required")
    unit = tape.normalize_rows(f0)
    ends = [tape.getitem(unit, (..., rows, slice(None)))
            for rows in (pack.src, pack.dst)]
    w = tape.tsum(tape.mul(*ends), axis=-1)
    return pack.src, pack.dst, w, w


def _star_edges(pack: PackedBatch, theta, seed, epoch):
    """Hub edge indicators ``(to_real, from_real)``, one per node row.

    Node j of a session of k nodes draws its ``to_real`` uniform at slot
    j and its ``from_real`` one at slot k + j of the session's "star"
    draws: a (2, k) block, row-major.
    """
    local, k = pack.node_local, pack.n_nodes[pack.node_session]
    rows = np.arange(local.size)
    return pack.draws("star", seed, epoch, rows, np.stack([local, k + local])
                      ) < theta


def _star_graph(x0, pack: PackedBatch, to_real, from_real):
    """The star view as one graph of M + B rows: ``(states, edges)``.

    Row M + b is session b's hub.  It starts at the mean of the item
    embeddings over the session's positions (repeats count once per
    occurrence).  A node with ``to_real`` set receives its hub, one with
    ``from_real`` set feeds it; hub edges weigh 1.  They follow the
    transitions, which keep their weights, so a node without a hub edge
    aggregates exactly as in plain propagation.
    """
    m, b = pack.node_ids.size, pack.lengths.size
    pos_session = np.repeat(np.arange(b), pack.lengths)
    hub = tape.edge_matmul(1.0 / pack.lengths[pos_session], x0, pack.alias,
                           pos_session, b)
    hub_row = m + pack.node_session
    into, out_of = np.flatnonzero(to_real), np.flatnonzero(from_real)
    src, dst, w_in, w_out = pack.edges
    ones = np.ones(into.size + out_of.size)
    edges = (np.concatenate([src, hub_row[into], out_of]),
             np.concatenate([dst, into, hub_row[out_of]]),
             np.concatenate([w_in, ones]), np.concatenate([w_out, ones]))
    return tape.concat([x0, hub], axis=-2), edges


def _hub_channel(x0, pack: PackedBatch, weights, theta, seed, epoch):
    """Propagate over the star view; the returned states exclude the hubs,
    each of which links to each node of its session in each direction
    with probability ``theta``."""
    to_real, from_real = _star_edges(pack, theta, seed, epoch)
    h = _run_channel(*_star_graph(x0, pack, to_real, from_real), weights)
    return tape.getitem(h, slice(None, pack.node_ids.size))


def _dropout_edges(pack: PackedBatch, edge_rate, node_rate, seed, epoch):
    """Perturbed transitions for the dropout variant, as ``ggnn_step``
    takes them.

    In a session of k nodes, the edge from local node a to local node b
    draws at slot a * k + b of the session's "dropout" draws, and node j
    at slot k * k + j: only edges that exist draw.  Edges vanish
    independently; nodes other than the last-position node are isolated
    (every edge touching them goes); the survivors are re-normalized by
    degree.
    """
    src, dst = pack.src, pack.dst
    local, k = pack.node_local, pack.n_nodes[pack.node_session]
    u = pack.draws("dropout", seed, epoch,
                   np.concatenate([src, np.arange(local.size)]),
                   np.concatenate([local[src] * k[src] + local[dst],
                                   k * k + local]))
    isolated = u[src.size:] < node_rate
    isolated[pack.alias[np.cumsum(pack.lengths) - 1]] = False
    kept = (u[:src.size] >= edge_rate) & ~isolated[src] & ~isolated[dst]
    src, dst = src[kept], dst[kept]
    return src, dst, *degree_weights(src, dst, pack.node_ids.size)


def _contrast_term(disc, anchor, positive, partner, neg_idx,
                   pack: PackedBatch):
    """``disc.score`` of ([K,] M, d) states, ``neg_idx`` ([K,] M, per)
    naming partner rows: a mean over each session's nodes, then over the
    sessions of at least 2 nodes, summed over views.  With no such
    session, a constant 0: no gradient, not even a zero, reaches Adam."""
    ok = pack.n_nodes >= 2
    if not ok.any():
        return Tensor(np.float64(0.0))
    weight = np.repeat(ok / (pack.n_nodes * ok.sum()), pack.n_nodes)
    return disc.score(anchor, positive, partner, neg_idx, weight)


def _negative_draws(pack: PackedBatch, seed, epoch, stream_tag, per, count=1):
    """Per-node negative rows, shape (count, M, per): other nodes of the
    same session.

    Draw (c, j, n) of local node j in a session of k nodes sits at slot
    (c * k + j) * per + n of the session's "negatives" draws under
    ``stream_tag``: a (count, k, per) block, row-major, so factor levels
    read one block in sequence.  Uniform u picks the
    ``floor(u * (k - 1))``-th of the k - 1 other nodes.  A session of one
    node draws nothing; its node is its own negative, in a term that
    ``_contrast_term`` weighs 0.
    """
    local, k = pack.node_local[:, None], pack.n_nodes[pack.node_session, None]
    rows = np.arange(local.size)[:, None]
    slots = (np.arange(count)[:, None, None] * k + local) * per + np.arange(per)
    other = np.floor(pack.draws("negatives", seed, epoch, rows, slots,
                                stream_tag) * (k - 1)).astype(np.int64)
    return np.where(k >= 2, rows - local + other + (other >= local), rows)


@dataclass
class ForwardResult:
    loss: object               # scalar Tensor
    prediction: object
    contrastive: object
    independence: object
    scores: object             # (B, N) Tensor of next-item probabilities


def _predict(params: ParameterSet, pack: PackedBatch, cfg):
    """The original channel through the scores, the path training and
    inference share: ``(x0, h_orig, orig_factors, scores)``.

    ``orig_factors`` (K, M, d_f) is built only for the factor head; it
    is None under ``fp``, which scores with the item head alone.
    """
    x0 = tape.getitem(params.embeddings, pack.node_ids)   # (M, d)
    h_orig = _run_channel(x0, pack.edges, params.ggnn_original)
    e_item = encode(h_orig, params.attn_item, pack.alias, pack.lengths,
                    cfg.normalize_attention)
    orig_factors = e_factor = catalog_factors = None
    if cfg.variant != "fp":
        orig_factors = project(h_orig, params.proj)      # (K, M, d_f)
        e_factor = encode_factors(orig_factors, params.attn_factor, pack.alias,
                                  pack.lengths, cfg.normalize_attention)
        catalog_factors = catalog_factor_embeddings(params.embeddings,
                                                    params.proj)
    scores = score(e_item, e_factor, params.embeddings, catalog_factors)
    return x0, h_orig, orig_factors, scores


def training_forward(params: ParameterSet, pack: PackedBatch, cfg,
                     epoch: int) -> ForwardResult:
    """Full objective for one batch graph.

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
        h_aug = _run_channel(x0, _dropout_edges(
            pack, cfg.dropout_edge, cfg.dropout_node, cfg.seed, epoch),
            params.ggnn_star)
    else:
        h_aug = _hub_channel(x0, pack, params.ggnn_star, cfg.theta, cfg.seed,
                             epoch)

    neg_item = _negative_draws(pack, cfg.seed, epoch, 0,
                               cfg.negatives_per_positive)[0]
    l_item = _contrast_term(params.disc_item, h_orig, h_aug, h_aug, neg_item,
                            pack)

    f0 = project(x0, params.proj)                        # (K, M, d_f)
    if cfg.variant == "fcl":
        l_contrast = l_item
    else:
        h_fac = _run_channel(f0, _factor_edges(f0, pack), params.ggnn_factor)
        if orig_factors is None:                         # fp
            orig_factors = project(h_orig, params.proj)
        partner = orig_factors if cfg.factor_negatives == "within_view" \
            else h_fac
        neg_fac = _negative_draws(pack, cfg.seed, epoch, 1,
                                  cfg.negatives_per_positive,
                                  count=params.proj.num_factors)
        l_factor = _contrast_term(params.disc_factor, orig_factors, h_fac,
                                  partner, neg_fac, pack)
        l_contrast = tape.add(
            tape.mul(l_item, Tensor(np.float64(cfg.alpha))),
            tape.mul(l_factor, Tensor(np.float64(1.0 - cfg.alpha))))

    l_ind = independence_loss(f0)
    l_pred = prediction_loss(scores, pack.targets)
    loss = total_loss(l_pred, l_contrast, l_ind, cfg.beta_cl, cfg.beta_ind)
    return ForwardResult(loss=loss, prediction=l_pred, contrastive=l_contrast,
                         independence=l_ind, scores=scores)


def score_batch(params: ParameterSet, pack: PackedBatch, cfg) -> np.ndarray:
    """Inference probabilities (B, N); only the original channel runs."""
    with tape.no_grad():
        return _predict(params, pack, cfg)[-1].value
