"""Gated graph propagation: the channel weights and the one layer step.

One cell, ``ggnn_step``, serves every channel; only the edges and the
weight set differ.  It is three tape nodes: two ``tape.edge_matmul``
edge sums and the ``tape.gated_update`` kernel.  States are the real
node rows of a whole batch, (M, d), and a graph is its edge lists
``(src, dst, w_in, w_out)`` over those rows.
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
        for name, p in vars(self).items():      # field order
            if isinstance(p, Parameter):
                yield f"{prefix}.{name}", p


def ggnn_step(x, edges, w: GGNNWeights):
    """One propagation layer over ``edges`` ``(src, dst, w_in, w_out)``:
    each node's gated update from the sums of the ``w_in``-weighted tails
    of its in-edges and of the ``w_out``-weighted heads of its out-edges."""
    x = tape.as_tensor(x)
    src, dst, w_in, w_out = edges
    m = x.value.shape[-2]
    return tape.gated_update(x, tape.edge_matmul(w_in, x, src, dst, m),
                             tape.edge_matmul(w_out, x, dst, src, m),
                             [p for _, p in w.named_parameters("")])
