"""Session readout: soft attention over positions, anchored on the last item.

A session embedding is read from the propagated states of its real
nodes, with sessions one after another as ``model.pack_batch`` lays them
out.  Each node is scored once against its session's last position;
each position takes its node's score, so a repeated item counts once per
occurrence.  The score-weighted sum over positions is concatenated with
the last state, and a linear merge brings the result back to embedding
width.  The whole readout, K factor views included, is one tape node,
``tape.attention_readout``.
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


def encode(h, w: AttentionWeights, alias, lengths):
    """Read node states (..., M, d) out into one embedding per session,
    (B, lead d), the leading slices side by side.

    Sessions lie one after another: ``lengths`` (B,) counts the
    positions of each and ``alias`` (P,) holds each position's node row.
    A factor-stacked ``w`` reads (K, M, d) states, slice k reading view
    k; ``w`` stacks exactly on the leading axes of ``h``.
    """
    return tape.attention_readout(
        h, alias, lengths, (w.query, w.w_current, w.w_last, w.w_merge))


def encode_factors(factor_states, weights, alias, lengths):
    """Read out all K factor views at once, concatenated on the last axis.

    ``factor_states`` is (K, M, d_f) and ``weights`` an AttentionWeights
    with a leading K axis, slice k reading view k; ``alias`` and
    ``lengths`` lay out the sessions as for ``encode``.  Returns
    (B, K * d_f), view k in columns [k d_f, (k+1) d_f).
    """
    return encode(factor_states, weights, alias, lengths)
