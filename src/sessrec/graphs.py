"""The directed transition graphs of a batch of sessions.

Each session graph has one node per distinct item (first-occurrence
order) and a directed edge for every observed transition.
``build_session_graph`` lays a whole batch out padded in one pass;
``model.pack_batch`` normalizes it, and the factor and hub views are
built on the padded batch there.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


def build_session_graph(sessions):
    """The padded transition graphs of a batch of item sequences.

    Returns ``(node_ids, n_nodes, alias, lengths, edge_out)``:
    ``node_ids`` (B, n) the distinct items of each session in first-
    occurrence order, ``alias`` (B, T) each position's node slot, both
    0-padded, and ``edge_out`` (B, n, n) the 0/1 pattern with
    ``edge_out[b, i, j] = 1`` if session b steps from node i to node j.
    Repeated transitions contribute a single edge.
    """
    lengths = np.fromiter(map(len, sessions), dtype=np.int64,
                          count=len(sessions))
    if not lengths.all() or not lengths.size:
        raise ValueError("empty session or empty batch")
    slots, n_nodes = [], []
    for seq in sessions:         # the one per-session step: first occurrences
        slot = {}
        slots.extend(slot.setdefault(int(item), len(slot)) for item in seq)
        n_nodes.append(len(slot))
    n_nodes, slots = (np.asarray(a, dtype=np.int64) for a in (n_nodes, slots))
    items = np.fromiter(chain.from_iterable(sessions), dtype=np.int64,
                        count=slots.size)

    row = np.repeat(np.arange(lengths.size), lengths)
    node_ids = np.zeros((lengths.size, n_nodes.max()), dtype=np.int64)
    node_ids[row, slots] = items
    alias = np.zeros((lengths.size, lengths.max()), dtype=np.int64)
    alias[np.arange(lengths.max()) < lengths[:, None]] = slots
    step = row[1:] == row[:-1]          # flat position p + 1 follows p
    edge_out = np.zeros((lengths.size,) + 2 * node_ids.shape[1:])
    edge_out[row[1:][step], slots[:-1][step], slots[1:][step]] = 1.0
    return node_ids, n_nodes, alias, lengths, edge_out


def normalized_pair(edge_out):
    """``(adj_in, adj_out)`` of a 0/1 pattern (..., n, n): each row of the
    pattern and of its transpose divided by its sum, empty rows left 0.
    Each result keeps the strides of the pattern it divides, so
    ``adj_in`` comes back as a transposed view's layout."""
    def by_row(pattern):
        deg = pattern.sum(axis=-1, keepdims=True)
        return np.divide(pattern, deg, out=np.zeros_like(pattern),
                         where=deg > 0)
    return by_row(np.swapaxes(edge_out, -1, -2)), by_row(edge_out)
