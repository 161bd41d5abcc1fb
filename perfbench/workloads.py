"""The benchmark's workloads: model configs and seeded corpus generators.

Each workload fixes a training config, a corpus generator keyed by the
run seed, the training step whose checkpoint the evaluation phase
loads, the percentile reported as the step-latency tail, and how a run's
time splits between training and evaluation.  The generators return
plain ``(prefix, target)`` pairs; the runner writes them as JSONL and
the program reads them back through its own loader.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict                    # TrainConfig keyword arguments
    corpus: dict                    # keyword arguments of the generator
    checkpoint_step: int            # steps trained before the eval checkpoint
    tail_pct: float                 # step-latency tail percentile
    p10_floor: float = None         # held-out P@10 must reach this, if set
    generator: str = "clustered"    # "planted" or "clustered"
    eval_share: float = 0.25        # of --seconds; training gets the rest


# Paper dimensions.  At this learning rate two dozen steps lift held-out
# P@10 well clear of chance and keep it steady from seed to seed; the
# gate's 5e-3 makes the early steps over a large catalog erratic.
PAPER = dict(dim=100, factor_dim=20, num_factors=5, batch_size=100, lr=2e-3)

WORKLOADS = {
    "desk": Workload(
        name="desk",
        why=("gate config and planted corpus: tape node overhead, "
             "per-session RNG loops and dcor dominate, head idle; 2000/500 "
             "ex, N 100, prefix 3.0 (max 5), 2.8 distinct, 20% repeats"),
        config=dict(dim=32, factor_dim=8, num_factors=4, batch_size=100,
                    lr=5e-3),
        corpus=dict(n_items=100),
        # six epochs of twenty batches: the gate's training schedule
        checkpoint_step=120,
        tail_pct=90.0,
        p10_floor=0.3,
        generator="planted",
        # Training passes its checkpoint in about ten seconds; the
        # longer evaluation window averages out host noise.
        eval_share=0.5,
    ),
    "catalog20k": Workload(
        name="catalog20k",
        why=("paper dims, 20k items, short sessions: (B, N) head and BCE, "
             "catalog projection, dense Adam, eval scoring dominate; "
             "7499/2000 ex, prefix 2.5 (max 18), 2.0 distinct, 30% repeats"),
        config=PAPER,
        corpus=dict(n_items=20000, n_clusters=200, train_sessions=3000,
                    test_sessions=2000, stop_prob=0.4, max_len=20,
                    item_zipf=1.5, cluster_zipf=1.2),
        checkpoint_step=24,
        tail_pct=55.0,
        # Each evaluation pass scores 2000 prefixes against the whole
        # catalog; the longer window averages out host noise in the page
        # faults on its (512, N) temporaries.
        eval_share=0.5,
    ),
    "long_sessions": Workload(
        name="long_sessions",
        why=("paper dims, 5k items, heavy-tailed sessions: packing, graphs, "
             "GGNN, readout, dcor on ~870 rows dominate; 6280/3000 ex, "
             "prefix 11.4 (max 50), 8.8 distinct, 59% repeats"),
        config=PAPER,
        corpus=dict(n_items=5000, n_clusters=50, train_sessions=530,
                    test_sessions=3000, stop_prob=1.0 / 12.0, max_len=51,
                    item_zipf=0.9, cluster_zipf=1.2),
        checkpoint_step=16,
        tail_pct=50.0,
    ),
}


def clustered_sessions(rng, members, n_sessions, stop_prob, max_len, item_zipf,
                       cluster_zipf):
    """Sessions that each stay inside one cluster of the catalog.

    ``members`` is the (clusters, items per cluster) table of catalog
    indices.  Clusters are Zipf-popular and so are the items inside a
    cluster; items are drawn with replacement, so popular items repeat
    within a session.  Lengths follow 1 + geometric(stop_prob), capped
    at ``max_len``.  Lengths and clusters are stratified: every seed
    gets the same multiset of lengths and the same number of sessions
    per cluster, so a workload's shape and cost do not vary with the
    seed; the seed decides which session gets which, and the items.
    """
    n_clusters, per = members.shape

    def strata():
        return (rng.permutation(n_sessions) + 0.5) / n_sessions

    lengths = np.minimum(
        1 + np.ceil(np.log1p(-strata()) / np.log1p(-stop_prob)).astype(int),
        max_len)
    cw = 1.0 / np.arange(1, n_clusters + 1) ** cluster_zipf
    clusters = np.minimum(np.searchsorted(np.cumsum(cw / cw.sum()), strata()),
                          n_clusters - 1)
    iw = 1.0 / np.arange(1, per + 1) ** item_zipf
    return [members[c, rng.choice(per, size=int(n), p=iw / iw.sum())].tolist()
            for c, n in zip(clusters, lengths)]


def prefixes(sessions):
    """Every (prefix, next item) pair of every session."""
    return [(s[:t], s[t]) for s in sessions for t in range(1, len(s))]


def make_corpus(w: Workload, seed: int, make_planted_corpus):
    """``(train_pairs, test_pairs, n_items)`` for workload ``w``.

    ``make_planted_corpus`` is the program's own generator, which the
    desk workload shares with the acceptance gate.
    """
    if w.generator == "planted":
        train, test, n_items = make_planted_corpus(seed, **w.corpus)
        return ([(e.prefix, e.target) for e in train],
                [(e.prefix, e.target) for e in test], n_items)
    c = dict(w.corpus)
    n_items, n_clusters = c.pop("n_items"), c.pop("n_clusters")
    n_train, n_test = c.pop("train_sessions"), c.pop("test_sessions")
    rng = np.random.default_rng([seed, n_items])
    per = n_items // n_clusters
    members = rng.permutation(n_items)[:per * n_clusters].reshape(n_clusters, per)
    train = clustered_sessions(rng, members, n_train, **c)
    held_out = clustered_sessions(rng, members, n_test, **c)
    # One prefix per held-out session: prefixes of one session share its
    # cluster, so independent sessions steady P@10 the most per prefix.
    test = [(s[:t], s[t]) for s in held_out for t in [int(rng.integers(1, len(s)))]]
    return prefixes(train), test, n_items


def input_shape(train, test, n_items):
    """Shape of a workload's inputs; prefix statistics are over ``train``."""
    lens = np.array([len(p) for p, _ in train])
    distinct = np.array([len(set(p)) for p, _ in train])
    return {
        "train_examples": len(train),
        "test_examples": len(test),
        "n_items": int(n_items),
        "mean_prefix": float(lens.mean()),
        "max_prefix": int(lens.max()),
        "mean_distinct_nodes": float(distinct.mean()),
        "share_with_repeats": float(np.mean(distinct < lens)),
    }
