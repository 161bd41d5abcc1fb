"""Gated propagation: oracle equivalence and the batched channels."""

import numpy as np

from oracles import (ggnn_step_oracle, probe, session_blocks,
                     session_graph_oracle, star_channel_oracle)

from sessrec import tape
from sessrec.dataio import Example
from sessrec.model import (_factor_edges, _hub_channel, _run_channel,
                           _star_edges, _star_graph, pack_batch)
from sessrec.propagation import GGNNWeights, ggnn_step
from sessrec.rng import substream


def weights_for(dim, seed=0, layers=1):
    return GGNNWeights.init(dim, substream(seed, "init"), layers)


def as_dict(w):
    return {name.split(".")[-1]: p.value
            for name, p in w.named_parameters("g")}


def edges_of(*sessions):
    """The degree-normalized edges of the batch graph of ``sessions``."""
    return pack_batch([Example(list(s), 0) for s in sessions]).edges


NO_EDGES = (np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),) * 2


class TestCellOracle:
    def test_matches_oracle(self):
        rng = substream(1, "x")
        w = weights_for(4, seed=2)
        for trial in range(5):
            session = rng.integers(0, 6, size=5).tolist()
            g = session_graph_oracle(session)
            x = rng.normal(size=(g.n_nodes, 4))
            mine = ggnn_step(x, edges_of(session), w).value
            ref = ggnn_step_oracle(x, g.adj_in, g.adj_out, as_dict(w))
            np.testing.assert_allclose(mine, ref, atol=1e-10, rtol=0)

    def test_batched_matches_oracle_per_session(self):
        rng = substream(2, "x")
        w = weights_for(3, seed=3)
        sessions = ([1, 2, 3], [4, 5, 4])
        xs = rng.normal(size=(5, 3))            # nodes 0-2, then 3-4
        out = ggnn_step(xs, edges_of(*sessions), w).value
        for rows, session in zip((slice(0, 3), slice(3, 5)), sessions):
            g = session_graph_oracle(session)
            ref = ggnn_step_oracle(xs[rows], g.adj_in, g.adj_out, as_dict(w))
            np.testing.assert_allclose(out[rows], ref, atol=1e-10, rtol=0)

    def test_zero_everything_halves_state(self):
        # no edges and zero weights leave z = 0.5 and cand = 0,
        # so one step exactly halves the state
        d = 4
        w = weights_for(d)
        for _, p in w.named_parameters("g"):
            p.value = np.zeros_like(p.value)
        x = substream(3, "x").normal(size=(3, d))
        out = ggnn_step(x, NO_EDGES, w).value
        np.testing.assert_allclose(out, 0.5 * x, atol=1e-12)

    def test_isolated_node_sees_only_biases(self):
        # with no edges the concatenated aggregate is [bias_in, bias_out]
        d = 3
        w = weights_for(d, seed=4)
        x = substream(4, "x").normal(size=(2, d))
        mine = ggnn_step(x, NO_EDGES, w).value
        c = np.concatenate([np.broadcast_to(w.bias_in.value, (2, d)),
                            np.broadcast_to(w.bias_out.value, (2, d))], axis=1)
        z = 1 / (1 + np.exp(-(c @ w.weight_update.value + x @ w.u_update.value)))
        r = 1 / (1 + np.exp(-(c @ w.weight_reset.value + x @ w.u_reset.value)))
        cand = np.tanh(c @ w.weight_cand.value + (r * x) @ w.u_cand.value)
        np.testing.assert_allclose(mine, (1 - z) * x + z * cand, atol=1e-12)


def random_pack(rng, sessions, max_len=7):
    """Random sessions of 1..max_len clicks over 8 items."""
    return pack_batch([
        Example(rng.integers(0, 8, size=int(rng.integers(1, max_len + 1)))
                .tolist(), 0) for _ in range(sessions)])


class TestChannels:
    def test_run_channel_layers_compose(self):
        w = weights_for(4, seed=5, layers=2)
        pack = pack_batch([Example([1, 2, 3, 1], 0), Example([4], 0)])
        x = substream(5, "x").normal(size=pack.node_ids.shape + (4,))
        out = _run_channel(x, pack.edges, w).value
        step1 = ggnn_step(x, pack.edges, w).value
        step2 = ggnn_step(step1, pack.edges, w).value
        assert (out == step2).all()

    def test_stacked_factor_channels_match_oracle_per_slice(self):
        # K = 2 factor channels in one pass: (K, M, d_f) states, weights
        # stacked on a leading factor axis, each slice checked on its own
        w = GGNNWeights.init(3, substream(6, "init"), num_factors=2)
        pack = pack_batch([Example([1, 2, 3], 0), Example([4, 5, 4], 0),
                           Example([6], 0)])
        f = substream(6, "x").normal(size=(2, len(pack.node_ids), 3))
        out = _run_channel(f, _factor_edges(tape.Tensor(f), pack), w).value
        for c in range(2):
            w_c = {name: value[c] for name, value in as_dict(w).items()}
            for block in session_blocks(pack):
                v = f[c, block.rows]
                unit = v / np.linalg.norm(v, axis=1, keepdims=True)
                adj = unit @ unit.T * block.edge_out
                ref = ggnn_step_oracle(v, adj.T, adj, w_c)
                np.testing.assert_allclose(out[c, block.rows], ref,
                                           atol=1e-10, rtol=0)


def star_against_oracle(x, pack, to_real, from_real, w, atol=1e-12):
    """Propagate the batched star view and check every real row and each
    hub row (row M + b) against the explicit per-session graph; returns
    the (M + B, d) states."""
    states, edges = _star_graph(tape.Tensor(x), pack, to_real, from_real)
    out = _run_channel(states, edges, w).value
    hubs = out[len(pack.node_ids):]
    for block, hub in zip(session_blocks(pack), hubs):
        rows = block.rows
        ref = star_channel_oracle(x[rows], block.adj_in, block.adj_out,
                                  block.alias, to_real[rows], from_real[rows],
                                  as_dict(w), w.layers)
        np.testing.assert_allclose(out[rows], ref[:-1], atol=atol, rtol=0)
        np.testing.assert_allclose(hub, ref[-1], atol=atol, rtol=0)
    return out


class TestStarChannel:
    def test_theta_zero_bit_identical(self):
        rng = substream(7, "x")
        w = weights_for(5, seed=8, layers=2)
        for trial in range(20):
            pack = random_pack(rng, 5)
            x = rng.normal(size=pack.node_ids.shape + (5,))
            plain = _run_channel(x, pack.edges, w).value
            hubbed = _hub_channel(tape.Tensor(x), pack, w, 0.0, seed=trial,
                                  epoch=0).value
            assert hubbed.shape == plain.shape
            assert (hubbed == plain).all(), "theta=0 must not change bits"

    def test_hub_edges_change_connected_nodes_only(self):
        w = weights_for(4, seed=9)
        pack = pack_batch([Example([1, 2, 3], 0)])
        x = substream(8, "x").normal(size=(3, 4))
        base = ggnn_step(x, pack.edges, w).value
        # hub points at node 1 only; nothing points back
        to_real = np.array([False, True, False])
        from_real = np.zeros(3, dtype=bool)
        out = star_against_oracle(x, pack, to_real, from_real, w)
        changed = np.abs(out[:3] - base).max(axis=1)
        assert changed[1] > 0
        assert changed[0] == 0 and changed[2] == 0

    def test_hub_state_receives_from_real(self):
        # the hub row aggregates the nodes pointing at it and none else
        w = weights_for(3, seed=10)
        pack = pack_batch([Example([1, 2], 0)])
        x = substream(9, "x").normal(size=(2, 3))
        to_real = np.zeros(2, dtype=bool)
        from_real = np.ones(2, dtype=bool)
        _, (src, dst, w_in, w_out) = _star_graph(tape.Tensor(x), pack,
                                                  to_real, from_real)
        # row 2, the hub: fed by both nodes with weight 1, feeds none
        np.testing.assert_array_equal(src[dst == 2], [0, 1])
        np.testing.assert_array_equal(w_in[dst == 2], 1.0)
        np.testing.assert_array_equal(w_out[dst == 2], 1.0)
        assert not (src == 2).any()
        star_against_oracle(x, pack, to_real, from_real, w)

    def test_two_layers_match_oracle_on_mixed_batch(self):
        w = weights_for(4, seed=12, layers=2)
        pack = pack_batch([Example([1, 2, 3, 1], 0), Example([4], 0),
                           Example([5, 6, 5, 6, 7], 0), Example([2, 2], 0)])
        x = substream(12, "x").normal(size=pack.node_ids.shape + (4,))
        to_real, from_real = _star_edges(pack, 0.3, seed=4, epoch=1)
        assert to_real.any() and from_real.any()
        out = star_against_oracle(x, pack, to_real, from_real, w, atol=1e-10)
        hubbed = _hub_channel(tape.Tensor(x), pack, w, 0.3, seed=4, epoch=1)
        assert (hubbed.value == out[:len(pack.node_ids)]).all()

    def test_gradients_flow_through_star(self):
        w = weights_for(3, seed=11)
        pack = pack_batch([Example([1, 2, 3], 0), Example([4], 0)])
        x = tape.Parameter(substream(10, "x").normal(size=(4, 3)))
        out = _hub_channel(x, pack, w, 1.0, seed=2, epoch=0)
        probe(out, substream(11, "g").normal(size=out.value.shape)).backward()
        assert np.abs(x.grad).max() > 0
        assert np.abs(w.weight_in.grad).max() > 0
