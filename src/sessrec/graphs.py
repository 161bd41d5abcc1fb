"""The directed transition graphs of a batch of sessions, as one graph.

Each session graph has one node per distinct item (first-occurrence
order) and a directed edge for every observed transition.
``build_session_graph`` lays a whole batch out as the disjoint union of
its session graphs: the real nodes of all sessions one after another,
the positions likewise, and the edges as index lists over node rows.
``model.pack_batch`` stores it, and the hub, dropout and factor views
are edge lists built on it there.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


def build_session_graph(sessions):
    """The transition graphs of a batch of item sequences, one after another.

    Returns ``(node_ids, n_nodes, alias, lengths, src, dst)``:
    ``node_ids`` (M,) the distinct items of each session in first-
    occurrence order, session after session, ``n_nodes`` (B,) how many
    belong to each session, ``alias`` (P,) each position's node row and
    ``lengths`` (B,) each session's positions.  ``src`` and ``dst`` (E,)
    are node rows: session b steps from ``src[e]`` to ``dst[e]``.  A
    repeated transition is one edge; edges come sorted by (src, dst).
    """
    lengths = np.fromiter(map(len, sessions), dtype=np.int64,
                          count=len(sessions))
    if not lengths.all() or not lengths.size:
        raise ValueError("empty session or empty batch")
    items = np.fromiter(chain.from_iterable(sessions), dtype=np.int64,
                        count=int(lengths.sum()))
    row = np.repeat(np.arange(lengths.size), lengths)
    # positions sorted by (session, item), ties by position: a run of
    # equal pairs is one node, and its first position the first occurrence
    order = np.lexsort((items, row))
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (np.diff(row[order]) != 0) | (np.diff(items[order]) != 0)
    first = np.zeros(order.size, dtype=bool)
    first[order[starts]] = True
    node = np.cumsum(first) - 1          # node rows in first-occurrence order
    alias = np.empty_like(node)
    alias[order] = node[order[starts]][np.cumsum(starts) - 1]
    node_ids = items[first]
    n_nodes = np.bincount(row[first], minlength=lengths.size)
    m = node_ids.size
    step = row[1:] == row[:-1]          # flat position p + 1 follows p
    src, dst = np.divmod(np.unique(alias[:-1][step] * m + alias[1:][step]), m)
    return node_ids, n_nodes, alias, lengths, src, dst


def degree_weights(src, dst, m):
    """``(w_in, w_out)`` of edges ``src -> dst`` over ``m`` nodes: each
    edge divided by its head's in-degree, and by its tail's out-degree."""
    return (1.0 / np.bincount(dst, minlength=m)[dst],
            1.0 / np.bincount(src, minlength=m)[src])
