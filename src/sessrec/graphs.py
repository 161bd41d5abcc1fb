"""The directed transition graph of one session.

A session graph has one node per distinct item (first-occurrence order)
and a directed edge for every observed transition.  ``model.pack_batch``
pads these into a batch; the factor and hub views are built on the
padded batch there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SessionGraph:
    nodes: np.ndarray          # distinct item indices, first-occurrence order
    alias: np.ndarray          # sequence position -> node slot
    adj_out: np.ndarray        # (n, n) outgoing adjacency, degree-normalized
    adj_in: np.ndarray         # (n, n) incoming adjacency, degree-normalized
    edge_out: np.ndarray       # (n, n) binary edge pattern, source -> target

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


def build_session_graph(session) -> SessionGraph:
    """Build the directed transition graph of one session.

    ``adj_out[i, j]`` holds the weight of edge i->j, each row divided by
    the node's out-degree; ``adj_in[i, j]`` the weight of j->i divided by
    i's in-degree; ``edge_out`` keeps the raw 0/1 pattern.  Repeated
    transitions contribute a single edge.
    """
    seq = np.asarray(list(session), dtype=np.int64)
    if seq.size == 0:
        raise ValueError("empty session")

    slot = {}
    alias = np.empty(seq.size, dtype=np.int64)
    for pos, item in enumerate(seq):
        key = int(item)
        if key not in slot:
            slot[key] = len(slot)
        alias[pos] = slot[key]
    nodes = np.fromiter(slot.keys(), dtype=np.int64, count=len(slot))
    n = len(slot)

    edge_out = np.zeros((n, n), dtype=np.float64)
    edge_out[alias[:-1], alias[1:]] = 1.0

    adj_in, adj_out = normalized_pair(edge_out)
    return SessionGraph(nodes=nodes, alias=alias, adj_out=adj_out,
                        adj_in=adj_in, edge_out=edge_out)


def normalized_pair(edge_out):
    """``(adj_in, adj_out)`` of a 0/1 pattern (..., n, n): each row of the
    pattern and of its transpose divided by its sum, empty rows left 0."""
    def by_row(pattern):
        deg = pattern.sum(axis=-1, keepdims=True)
        return np.divide(pattern, deg, out=np.zeros_like(pattern),
                         where=deg > 0)
    return by_row(np.swapaxes(edge_out, -1, -2)), by_row(edge_out)
