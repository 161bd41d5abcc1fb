"""Gated graph propagation: the channel weights and the one layer step.

One cell, ``ggnn_step``, serves every channel; only the edges and the
weight set differ.  Its five GEMMs, two biased aggregation maps and
three gates, are five ``tape.matmul`` nodes.  States are the real node
rows of a whole batch, (M, d), and a graph is its edge lists ``(src,
dst, w_in, w_out)`` over those rows, summed by ``tape.edge_matmul``.
The star view is no special case: its hubs are more rows of the graph
it propagates over.  The K factor channels run at once as (K, M, d)
states over (K, E) edge weights with factor-stacked weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .rng import uniform_fields
from .tape import Parameter


@dataclass
class GGNNWeights:
    """Weights of one gated propagation channel.

    The incoming and outgoing aggregations get separate linear maps and
    biases; the update and reset gates and the candidate state each mix
    the concatenated aggregation (width 2d) with the previous state.
    Gates carry no bias terms.  K factor channels stack on a leading axis.
    """
    weight_in: Parameter       # (d, d)
    weight_out: Parameter      # (d, d)
    bias_in: Parameter         # (d,)
    bias_out: Parameter        # (d,)
    weight_update: Parameter   # (2d, d)
    weight_reset: Parameter    # (2d, d)
    weight_cand: Parameter     # (2d, d)
    u_update: Parameter        # (d, d)
    u_reset: Parameter         # (d, d)
    u_cand: Parameter          # (d, d)
    layers: int = 1

    @classmethod
    def init(cls, dim, rng, layers=1, num_factors=None):
        """U(+-1/sqrt(dim)) in field order; ``num_factors`` K stacks K
        channels on a leading axis (see ``rng.uniform_fields``)."""
        lead = () if num_factors is None else (num_factors,)
        d = dim
        shapes = [(d, d), (d, d), (d,), (d,), (2 * d, d), (2 * d, d),
                  (2 * d, d), (d, d), (d, d), (d, d)]
        values = uniform_fields(rng, 1.0 / np.sqrt(dim), shapes, lead)
        return cls(*map(Parameter, values), layers=layers)

    def named_parameters(self, prefix):
        for name in ("weight_in", "weight_out", "bias_in", "bias_out",
                     "weight_update", "weight_reset", "weight_cand",
                     "u_update", "u_reset", "u_cand"):
            yield f"{prefix}.{name}", getattr(self, name)


def ggnn_step(x, edges, w: GGNNWeights):
    """One propagation layer over ``edges`` ``(src, dst, w_in, w_out)``:
    a node's incoming summary sums the ``w_in``-weighted tails of the
    edges into it, its outgoing one the ``w_out``-weighted heads of the
    edges out of it.  Their biased linear maps, concatenated as ``c``,
    feed the gates; each gate's ``c W + x U`` is one matmul node."""
    x = tape.as_tensor(x)
    src, dst, w_in, w_out = edges
    m = x.value.shape[-2]
    c = tape.concat([
        tape.matmul((tape.edge_matmul(w_in, x, src, dst, m), w.weight_in),
                    bias=w.bias_in),
        tape.matmul((tape.edge_matmul(w_out, x, dst, src, m), w.weight_out),
                    bias=w.bias_out)], axis=-1)
    z = tape.sigmoid(tape.matmul((c, w.weight_update), (x, w.u_update)))
    r = tape.sigmoid(tape.matmul((c, w.weight_reset), (x, w.u_reset)))
    cand = tape.tanh(tape.matmul((c, w.weight_cand),
                                 (tape.mul(r, x), w.u_cand)))
    one = tape.Tensor(np.float64(1.0))
    return tape.add(tape.mul(tape.sub(one, z), x), tape.mul(z, cand))
