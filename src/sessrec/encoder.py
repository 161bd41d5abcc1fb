"""Session readout: soft attention over positions, anchored on the last item.

A session embedding is built from the propagated node states laid back
out along the sequence (repeated items share their node state).  Each
position is scored against the last position, the weighted sum is
concatenated with the last state, and a linear merge brings the result
back to embedding width.
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


def attention_scores(seq, last, w: AttentionWeights):
    """Unnormalized score per position: q . sigmoid(e_i Wc + e_last Wl).

    ``seq`` is (..., T, d); ``last`` is the last position's state
    (..., d).  Scores stay raw by design; see ``encode`` for the
    optional softmax.
    """
    seq = tape.as_tensor(seq)
    last = tape.as_tensor(last)
    last_row = tape.reshape(last, last.value.shape[:-1] + (1, last.value.shape[-1]))
    h = tape.sigmoid(tape.add(tape.matmul(seq, w.w_current),
                              tape.matmul(last_row, w.w_last)))
    q_col = tape.reshape(w.query, w.query.value.shape + (1,))
    return tape.matmul(h, q_col)      # (..., T, 1)


def encode(seq, w: AttentionWeights, last_position=None, pos_mask=None,
           normalize_scores: bool = False):
    """Compress position-aligned states (..., T, d) into one embedding (..., d).

    ``last_position`` defaults to the final position; for padded batches
    pass the per-session index array and a 0/1 ``pos_mask`` so padding
    neither scores nor contributes.  Both broadcast against the leading
    axes of ``seq``.  ``normalize_scores`` switches the raw attention
    weights to a softmax over (real) positions.
    """
    seq = tape.as_tensor(seq)
    shape = seq.value.shape
    idx = shape[-2] - 1 if last_position is None else last_position
    idx = np.broadcast_to(np.asarray(idx, dtype=np.int64), shape[:-2])
    last = tape.getitem(seq, tuple(np.indices(idx.shape)) + (idx,))

    scores = attention_scores(seq, last, w)
    mask = None if pos_mask is None else \
        np.asarray(pos_mask, dtype=np.float64)[..., None]

    if normalize_scores:
        if mask is not None:
            scores = tape.add(scores, tape.Tensor((1.0 - mask) * -1e30))
        alpha = tape.exp(tape.log_softmax(scores, axis=-2))
        if mask is not None:
            alpha = tape.mul(alpha, tape.Tensor(mask))
    else:
        alpha = scores if mask is None else tape.mul(scores, tape.Tensor(mask))

    mixed = tape.tsum(tape.mul(alpha, seq), axis=-2)      # (..., d)
    merged = tape.concat([last, mixed], axis=-1)          # (..., 2d)
    if merged.value.ndim == 2 and w.w_merge.value.ndim == 2:
        return tape.matmul(merged, w.w_merge)
    # one (1, 2d) row per readout, so a factor-stacked (K, 2d, d) merge
    # maps each factor's row through its own slice
    lead = merged.value.shape[:-1]
    wide = tape.reshape(merged, lead + (1, merged.value.shape[-1]))
    out = tape.matmul(wide, w.w_merge)
    return tape.reshape(out, lead + (out.value.shape[-1],))


def encode_factors(factor_seqs, weights, last_position=None, pos_mask=None,
                   normalize_scores: bool = False):
    """Read out all K factor views at once, concatenated on the last axis.

    ``factor_seqs`` is (..., K, T, d_f) and ``weights`` an
    AttentionWeights with a leading K axis, slice k reading view k;
    ``last_position`` and ``pos_mask`` broadcast as for ``encode``, so a
    padded batch passes them with a unit factor axis.  Returns
    (..., K * d_f), view k in columns [k d_f, (k+1) d_f).
    """
    seqs = tape.as_tensor(factor_seqs)
    lead = seqs.value.shape[:-2]
    if lead[-1:] != weights.query.value.shape[:1]:
        raise ValueError("one attention weight slice per factor required")
    out = encode(seqs, weights, last_position, pos_mask, normalize_scores)
    return tape.reshape(out, lead[:-1] + (-1,))
