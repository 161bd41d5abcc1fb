"""Session readout: soft attention over positions, anchored on the last item.

A session embedding is read from the propagated states of its real
nodes, with sessions one after another as ``model.pack_batch`` lays them
out.  Each node is scored once against its session's last position;
each position takes its node's score, so a repeated item counts once per
occurrence.  The score-weighted sum over positions, one
``tape.edge_matmul``, is concatenated with the last state, and a linear
merge brings the result back to embedding width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .rng import uniform_fields
from .tape import Parameter


@dataclass
class AttentionWeights:
    """One readout's weights; K factor readouts stack on a leading axis."""
    query: Parameter           # (d,)
    w_current: Parameter       # (d, d)
    w_last: Parameter          # (d, d)
    w_merge: Parameter         # (2d, d)

    @classmethod
    def init(cls, dim, rng, num_factors=None):
        """U(+-1/sqrt(dim)) in field order; ``num_factors`` K stacks K
        readouts on a leading axis (see ``rng.uniform_fields``)."""
        lead = () if num_factors is None else (num_factors,)
        shapes = [(dim,), (dim, dim), (dim, dim), (2 * dim, dim)]
        return cls(*map(Parameter, uniform_fields(rng, 1.0 / np.sqrt(dim),
                                                  shapes, lead)))

    def named_parameters(self, prefix):
        for name in ("query", "w_current", "w_last", "w_merge"):
            yield f"{prefix}.{name}", getattr(self, name)


def attention_scores(h, last, node_session, w: AttentionWeights):
    """Unnormalized score per node: q . sigmoid(h_i Wc + h_last Wl).

    ``h`` is (..., M, d), ``last`` the last positions' states (..., B, d)
    and ``node_session`` (M,) the session of each node, whose last state
    anchors it.  Returns (..., M, 1).  Scores stay raw by design; see
    ``encode`` for the optional softmax.
    """
    anchor = tape.getitem(tape.matmul(last, w.w_last),
                          (..., node_session, slice(None)))
    hidden = tape.sigmoid(tape.add(tape.matmul(h, w.w_current), anchor))
    return tape.matmul(hidden, tape.reshape(w.query,
                                            w.query.value.shape + (1,)))


def encode(h, w: AttentionWeights, alias, lengths,
           normalize_scores: bool = False):
    """Read node states (..., M, d) out into one embedding per session,
    (..., B, d).

    Sessions lie one after another: ``lengths`` (B,) counts the
    positions of each and ``alias`` (P,) holds each position's node row.
    ``normalize_scores`` switches the raw attention weights to a softmax
    over each session's positions.  A factor-stacked ``w`` reads
    (K, M, d) states, slice k reading view k.
    """
    h = tape.as_tensor(h)
    alias, lengths = np.asarray(alias), np.asarray(lengths)
    b, m = lengths.size, h.value.shape[-2]
    pos_session = np.repeat(np.arange(b), lengths)
    node_session = np.zeros(m, dtype=np.int64)
    node_session[alias] = pos_session
    last = tape.getitem(h, (..., alias[np.cumsum(lengths) - 1], slice(None)))

    scores = attention_scores(h, last, node_session, w)
    alpha = tape.getitem(scores, (..., alias, 0))          # (..., P)
    ends = (alias, pos_session, b)
    if normalize_scores:
        # each session's top score is shifted out; softmax ignores it
        top = np.maximum.reduceat(alpha.value, np.cumsum(lengths) - lengths,
                                  axis=-1)
        alpha = tape.exp(tape.sub(alpha,
                                  np.repeat(top, lengths, axis=-1)))
        mixed = tape.div(tape.edge_matmul(alpha, h, *ends),
                         tape.edge_matmul(alpha, np.ones((m, 1)), *ends))
    else:
        mixed = tape.edge_matmul(alpha, h, *ends)          # (..., B, d)
    merged = tape.concat([last, mixed], axis=-1)           # (..., B, 2d)
    return tape.matmul(merged, w.w_merge)


def encode_factors(factor_states, weights, alias, lengths,
                   normalize_scores: bool = False):
    """Read out all K factor views at once, concatenated on the last axis.

    ``factor_states`` is (K, M, d_f) and ``weights`` an AttentionWeights
    with a leading K axis, slice k reading view k; ``alias`` and
    ``lengths`` lay out the sessions as for ``encode``.  Returns
    (B, K * d_f), view k in columns [k d_f, (k+1) d_f).
    """
    states = tape.as_tensor(factor_states)
    if states.value.shape[:-2] != weights.query.value.shape[:-1]:
        raise ValueError("one attention weight slice per factor required")
    out = encode(states, weights, alias, lengths, normalize_scores)
    return tape.reshape(tape.swap_last(out, (0, 1)), (len(lengths), -1))
