"""Session graph construction, and the factor and hub views the model
builds on batch graphs."""

import numpy as np
import pytest

from oracles import (batch_graph_oracle, session_blocks, session_graph_oracle,
                     star_channel_oracle)

from sessrec.dataio import Example
from sessrec.graphs import build_session_graph
from sessrec.model import (_factor_edges, _hub_channel, _run_channel,
                           _star_edges, _star_graph, pack_batch)
from sessrec.propagation import GGNNWeights
from sessrec.rng import substream
from sessrec.tape import Tensor


def one_graph(session):
    """The batch graph of ``[session]`` as dense matrices; a batch of one
    is its own session."""
    return session_blocks(pack_of(session))[0]


class TestSessionGraph:
    def test_nodes_first_occurrence(self):
        g = one_graph([7, 3, 7, 9])
        np.testing.assert_array_equal(g.nodes, [7, 3, 9])
        np.testing.assert_array_equal(g.alias, [0, 1, 0, 2])

    def test_edge_pattern(self):
        g = one_graph([1, 2, 1, 3])
        # transitions: 1->2, 2->1, 1->3
        expected = np.array([[0, 1, 1],
                             [1, 0, 0],
                             [0, 0, 0]], dtype=float)
        np.testing.assert_array_equal(g.edge_out, expected)

    def test_out_normalization(self):
        g = one_graph([1, 2, 1, 3])
        np.testing.assert_allclose(g.adj_out[0], [0.0, 0.5, 0.5])
        np.testing.assert_allclose(g.adj_out.sum(axis=1), [1.0, 1.0, 0.0])

    def test_in_normalization_is_transposed_pattern(self):
        g = one_graph([1, 2, 3, 2])
        # incoming rows sum to 1 where the node has any predecessor
        in_deg = g.edge_out.T.sum(axis=1)
        sums = g.adj_in.sum(axis=1)
        np.testing.assert_allclose(sums[in_deg > 0], 1.0)
        assert (g.adj_in[in_deg == 0] == 0).all()

    def test_repeated_transition_single_edge(self):
        g = one_graph([4, 5, 4, 5])
        assert g.edge_out[0, 1] == 1.0
        np.testing.assert_allclose(g.adj_out[0], [0.0, 1.0])

    def test_single_item_session(self):
        g = one_graph([42])
        assert g.n_nodes == 1
        assert g.edge_out.shape == (1, 1)
        assert g.edge_out[0, 0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty session"):
            build_session_graph([[]])

    def test_relabeling_equivariance(self):
        # renaming items must not change the structure
        a = one_graph([1, 2, 1, 3])
        b = one_graph([10, 20, 10, 30])
        np.testing.assert_array_equal(a.adj_out, b.adj_out)
        np.testing.assert_array_equal(a.adj_in, b.adj_in)
        np.testing.assert_array_equal(a.alias, b.alias)


def random_batch(rng, sessions, items, max_len, low=0):
    """``sessions`` prefixes of 1..``max_len`` items drawn from
    [low, low + items): few items means many repeats."""
    return [list(rng.integers(low, low + items,
                              size=rng.integers(1, max_len + 1)))
            for _ in range(sessions)]


class TestBatchGraphOracle:
    """The vectorised builder against the per-session loop it replaced:
    all six arrays, values and dtypes, exactly."""

    def check(self, sessions):
        got, want = build_session_graph(sessions), batch_graph_oracle(sessions)
        for name, g, w in zip(("node_ids", "n_nodes", "alias", "lengths",
                               "src", "dst"), got, want):
            assert g.dtype == w.dtype, name
            np.testing.assert_array_equal(g, w, err_msg=name)

    @pytest.mark.parametrize("items,max_len", [(2, 8), (6, 12), (100, 5),
                                               (20000, 30)],
                             ids=["repeats", "some_repeats", "desk", "wide"])
    def test_random_batches(self, items, max_len):
        rng = np.random.default_rng(items)
        for _ in range(40):
            self.check(random_batch(rng, int(rng.integers(1, 40)), items,
                                    max_len))

    def test_one_item_and_all_repeat_sessions(self):
        self.check([[5], [3, 3, 3], [7], [2, 2], [9, 1, 9, 1], [4]])

    def test_one_session(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            self.check(random_batch(rng, 1, 4, 15))

    def test_ids_near_twenty_thousand(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            self.check(random_batch(rng, 30, 6, 10, low=19994))


def pack_of(*sessions, session_indices=None):
    return pack_batch([Example(list(s), 0) for s in sessions], session_indices)


def factor_weights(pack, f):
    """Factor edge weights of a batch for factor rows ``f`` ([K,] M, d),
    as dense ([K,] M, M) matrices: entry [i, j] weighs edge i -> j."""
    src, dst, w, _ = _factor_edges(Tensor(np.asarray(f, dtype=float)), pack)
    m = len(pack.node_ids)
    dense = np.zeros(w.value.shape[:-1] + (m, m))
    dense[..., src, dst] = w.value
    return dense


class TestCosineEdgeWeights:
    def test_cosine_on_edges_only(self):
        pack = pack_of([1, 2, 3], [4])
        f = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
        a = factor_weights(pack, f)
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(0.0)
        assert a[0, 2] == 0.0            # not an edge
        assert (a[3] == 0).all() and (a[:, 3] == 0).all()   # one node

    def test_signed_similarity_kept(self):
        a = factor_weights(pack_of([1, 2]), [[1.0, 0.0], [-1.0, 0.0]])
        assert a[0, 1] == pytest.approx(-1.0)

    def test_incoming_view_is_transpose(self):
        # an edge weighs the same in the incoming and the outgoing view
        pack = pack_of([1, 2, 1], [3, 4, 5, 3])
        f = np.random.default_rng(0).normal(size=(2, 5, 3))
        src, dst, w_in, w_out = _factor_edges(Tensor(f), pack)
        assert w_in is w_out and w_in.value.shape == (2, len(src))
        np.testing.assert_array_equal((src, dst), (pack.src, pack.dst))

    def test_zero_row_embedding(self):
        a = factor_weights(pack_of([1, 2]), [[0.0, 0.0], [1.0, 1.0]])
        assert a[0, 1] == 0.0

    def test_row_count_checked(self):
        with pytest.raises(ValueError):
            factor_weights(pack_of([1, 2]), np.ones((1, 3, 2)))


def test_cosine_edge_weights_self_loop_and_reciprocal():
    # a self loop weighs 1 and a reciprocated edge the same both ways
    pack = pack_of([5, 5, 6, 5])
    a = factor_weights(pack, np.random.default_rng(1).normal(size=(1, 2, 6)))
    assert a[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert a[0, 0, 1] == pytest.approx(a[0, 1, 0], abs=1e-12)


class TestHubNodeSlot:
    def test_satellite_is_position_mean(self):
        # row M of the star view, the hub, starts at the mean over
        # positions; at theta = 1 it feeds every node, so that start shows
        pack = pack_of([1, 2, 1])
        x = np.array([[3.0, 0.0], [0.0, 3.0]])
        w = GGNNWeights.init(2, substream(0, "init"))
        to_real, from_real = _star_edges(pack, 1.0, seed=0, epoch=0)
        states, _ = _star_graph(Tensor(x), pack, to_real, from_real)
        np.testing.assert_allclose(states.value[2], [2.0, 1.0], atol=1e-12)
        out = _hub_channel(Tensor(x), pack, w, 1.0, seed=0, epoch=0)
        g = session_graph_oracle([1, 2, 1])
        expect = star_channel_oracle(
            x, g.adj_in, g.adj_out, g.alias, to_real, from_real,
            {name.split(".")[-1]: p.value
             for name, p in w.named_parameters("g")})
        np.testing.assert_allclose(out.value, expect[:2], atol=1e-12)

    def test_theta_zero_adds_nothing(self):
        pack = pack_of([1, 2, 3], [4, 5], [6])
        to_real, from_real = _star_edges(pack, 0.0, seed=9, epoch=0)
        assert to_real.sum() == 0 and from_real.sum() == 0

    def test_theta_one_connects_everything(self):
        pack = pack_of([1, 2, 3], [4, 5], [6])
        to_real, from_real = _star_edges(pack, 1.0, seed=9, epoch=0)
        assert to_real.shape == from_real.shape == (6,)
        assert to_real.all() and from_real.all()

    def test_real_block_unchanged(self):
        # the hub adds to its neighbours' aggregates and leaves the
        # transition block alone: nodes without a hub edge update exactly
        # as in plain propagation
        pack = pack_of([5, 6, 5, 7], [1, 2, 3, 4], [8, 9])
        x = substream(3, "x").normal(size=pack.node_ids.shape + (4,))
        w = GGNNWeights.init(4, substream(3, "init"))
        to_real, from_real = _star_edges(pack, 0.3, seed=3, epoch=0)
        hubbed = _hub_channel(Tensor(x), pack, w, 0.3, seed=3, epoch=0).value
        plain = _run_channel(Tensor(x), pack.edges, w).value
        untouched = ~to_real & ~from_real
        touched = to_real | from_real
        assert untouched.any() and touched.any()
        assert (hubbed[untouched] == plain[untouched]).all()
        assert (hubbed[touched] != plain[touched]).any(axis=-1).all()

    def test_resampling_reproducible(self):
        pack = pack_of([1, 2, 3, 4], [5, 6, 7, 8], session_indices=[7, 8])
        a = _star_edges(pack, 0.5, seed=1, epoch=2)
        b = _star_edges(pack, 0.5, seed=1, epoch=2)
        c = _star_edges(pack, 0.5, seed=1, epoch=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        # the draws follow the session index, not the batch neighbours
        alone = _star_edges(pack_of([1, 2, 3, 4], session_indices=[7]),
                            0.5, seed=1, epoch=2)
        np.testing.assert_array_equal(alone, a[:, :4])

    def test_expected_edge_count(self):
        # mean hub edges over many sessions approaches 2 * theta * n
        theta, n, draws = 0.3, 6, 400
        pack = pack_of(*[range(n)] * draws)
        to_real, from_real = _star_edges(pack, theta, seed=5, epoch=0)
        mean = (to_real.sum() + from_real.sum()) / draws
        expect = 2 * theta * n
        # binomial std of the mean: sqrt(2n p (1-p) / draws)
        std = np.sqrt(2 * n * theta * (1 - theta) / draws)
        assert abs(mean - expect) < 4 * std
