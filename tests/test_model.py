"""Batch assembly and the assembled forward passes."""

import gc
import weakref

import numpy as np
import pytest

from oracles import (ggnn_step_oracle, padded_batch_oracle,
                     philox_uniform_oracle, session_blocks,
                     session_graph_oracle)

from sessrec import harness, model, rng, tape
from sessrec.dataio import Example
from sessrec.encoder import encode, encode_factors
from sessrec.graphs import degree_weights
from sessrec.harness import TrainConfig, evaluate, make_planted_corpus
from sessrec.optim import Adam
from sessrec.model import (PackedBatch, _dropout_edges, _negative_draws,
                           _star_edges, pack_batch, score_batch,
                           training_forward)
from sessrec.params import init_parameters
from sessrec.disentangle import project
from sessrec.predictor import catalog_factor_embeddings
from sessrec.predictor import score as score_one
from sessrec.tape import Tensor


def toy_examples():
    return [Example([3, 1, 3, 2], 0), Example([0, 4], 1), Example([2], 4)]


def toy_config(**overrides):
    base = dict(dim=6, factor_dim=3, num_factors=2, layers=1, epochs=1,
                batch_size=4, seed=11)
    base.update(overrides)
    return TrainConfig(**base)


def toy_params(cfg, n_items=5):
    return init_parameters(n_items, cfg.dim, cfg.factor_dim, cfg.num_factors,
                           cfg.layers, cfg.seed, cfg.disc_form)


def term_names(variant):
    """The scalar loss terms a training forward hands back: the loss and
    the nodes it is built from (no factor term under fcl)."""
    return ("loss", "prediction", "item", "independence") + (
        () if variant == "fcl" else ("factor",))


class TestPackBatch:
    def test_shapes_and_masks(self):
        # sessions one after another: nodes 0-2, 3-4, 5; positions 0-3,
        # 4-5, 6
        pack = pack_batch(toy_examples())
        np.testing.assert_array_equal(pack.node_ids, [3, 1, 2, 0, 4, 2])
        np.testing.assert_array_equal(pack.alias, [0, 1, 0, 2, 3, 4, 5])
        np.testing.assert_array_equal(pack.n_nodes, [3, 2, 1])
        np.testing.assert_array_equal(pack.lengths, [4, 2, 1])
        np.testing.assert_array_equal(pack.node_start, [0, 3, 5])
        np.testing.assert_array_equal(pack.node_session, [0, 0, 0, 1, 1, 2])
        np.testing.assert_array_equal(pack.targets, [0, 1, 4])
        # the padded layout the tracer reports against: (B, n_max)
        np.testing.assert_array_equal(pack.node_mask.sum(axis=1), [3, 2, 1])
        assert pack.node_mask.shape == (3, 3)

    def test_blocks_match_single_graphs(self):
        examples = toy_examples()
        pack = pack_batch(examples)
        for ex, block in zip(examples, session_blocks(pack)):
            g = session_graph_oracle(ex.prefix)
            np.testing.assert_array_equal(block.adj_out, g.adj_out)
            np.testing.assert_array_equal(block.adj_in, g.adj_in)
            np.testing.assert_array_equal(block.nodes, g.nodes)
            np.testing.assert_array_equal(block.alias, g.alias)
            assert block.foreign == 0       # no edge leaves its session

    def test_per_row_arrays_are_cached_and_match_their_definitions(self):
        pack = pack_batch(toy_examples() + [Example([4, 4, 1, 0], 2)])
        n = pack.n_nodes
        np.testing.assert_array_equal(pack.node_start, np.cumsum(n) - n)
        np.testing.assert_array_equal(pack.node_session,
                                      np.repeat(np.arange(n.size), n))
        np.testing.assert_array_equal(
            pack.node_local, np.concatenate([np.arange(k) for k in n]))
        for name in ("node_start", "node_session", "node_local"):
            assert getattr(pack, name) is getattr(pack, name), name

    def test_default_session_indices(self):
        pack = pack_batch(toy_examples())
        np.testing.assert_array_equal(pack.session_indices, [0, 1, 2])

    @pytest.mark.parametrize("indices", [[0, 1, 2, 3], [0, 1]],
                             ids=["longer", "shorter"])
    def test_session_index_count_checked(self, indices):
        with pytest.raises(ValueError, match="session indices for 3"):
            pack_batch(toy_examples(), session_indices=indices)

    def test_adjacency_is_c_ordered(self):
        # the edge order fixes the summation order of every aggregate, so
        # edges come in one canonical order: sorted by (src, dst)
        pack = pack_batch(toy_examples() + [Example([5, 4, 5, 3], 0)])
        np.testing.assert_array_equal(np.lexsort((pack.dst, pack.src)),
                                      np.arange(len(pack.src)))
        assert pack.src.dtype == pack.dst.dtype == np.int64


# one node, all repeats (one node with a self-loop), revisits, and item
# ids far above batch size times node count
EDGE_SESSIONS = [[7], [4, 4, 4], [1, 2, 1, 3, 2, 3], [98, 91, 98]]


# batches with no edge at all, one all-repeat session (a single node
# with a self-loop), a single session, and a catalog of 5000 items of
# which the batch touches three
EDGE_BATCHES = {
    "no_edges": ([[3], [5], [7]], 10),
    "all_repeat": ([[4, 4, 4]], 10),
    "one_session": ([[1, 2, 1, 3]], 10),
    "large_catalog": ([[4999, 17], [2500]], 5000),
}


class TestPackEdgeCases:
    def test_fields_match_padded_oracle(self):
        # each session cut out of the batch graph matches its slot of the
        # padded oracle batch
        pack = pack_batch([Example(s, 0) for s in EDGE_SESSIONS])
        want = padded_batch_oracle(EDGE_SESSIONS)
        for name in ("n_nodes", "lengths", "node_mask"):
            got = getattr(pack, name)
            assert got.dtype == want[name].dtype, name
            np.testing.assert_array_equal(got, want[name], err_msg=name)
        assert pack.node_ids.dtype == pack.alias.dtype == np.int64
        for i, block in enumerate(session_blocks(pack)):
            k, t = block.n_nodes, len(block.alias)
            np.testing.assert_array_equal(block.nodes, want["node_ids"][i, :k])
            np.testing.assert_array_equal(block.alias, want["alias"][i, :t])
            for name in ("edge_out", "adj_out", "adj_in"):
                np.testing.assert_array_equal(getattr(block, name),
                                              want[name][i, :k, :k])
        # [4, 4, 4] is one node with a self-loop
        assert pack.n_nodes[1] == 1 and (1, 1) in zip(pack.src, pack.dst)

    @pytest.mark.parametrize("variant", ["full", "fcl", "star", "fp"])
    def test_training_forward_finite(self, variant):
        cfg = toy_config(variant=variant)
        pack = pack_batch([Example(s, i) for i, s in enumerate(EDGE_SESSIONS)],
                          session_indices=[3, 8, 21, 40])
        out = training_forward(toy_params(cfg, n_items=100), pack, cfg, 0)
        for name in term_names(variant):
            assert np.isfinite(getattr(out, name).value), name

    @pytest.mark.parametrize("case", EDGE_BATCHES)
    def test_edge_case_batch_trains_and_scores(self, case):
        sessions, n_items = EDGE_BATCHES[case]
        pack = pack_batch([Example(s, i) for i, s in enumerate(sessions)])
        for variant in ("full", "fcl", "star", "fp"):
            cfg = toy_config(variant=variant)
            params = toy_params(cfg, n_items=n_items)
            out = training_forward(params, pack, cfg, 0)
            out.loss.backward()
            assert np.isfinite(out.loss.value), variant
            for name, p in params.named_parameters():
                assert p.grad is None or np.isfinite(p.grad).all(), name
            probs = score_batch(params, pack, cfg)
            assert probs.shape == (len(sessions), n_items)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9,
                                       rtol=0)

    @pytest.mark.parametrize("variant", ["full", "fcl", "star", "fp"])
    def test_one_item_batch(self, variant):
        # every node of the batch is item 4: the factor rows merge into
        # one, which has no distance to separate
        cfg = toy_config(variant=variant)
        params = toy_params(cfg)
        pack = pack_batch([Example([4], 1), Example([4, 4], 2),
                           Example([4], 3)])
        assert len(pack.node_ids) >= 2 and set(pack.node_ids) == {4}
        with np.errstate(all="raise"):
            out = training_forward(params, pack, cfg, 0)
            out.loss.backward()
        assert np.isfinite(out.loss.value)
        assert float(out.independence.value) == 0.0
        for name, p in params.named_parameters():
            assert p.grad is None or np.isfinite(p.grad).all(), name


class TestStarEdgeSampling:
    def test_matches_single_graph_builder(self):
        # node j of a k-node session reads the (seed, "star", epoch,
        # session index) draws at slot j for hub -> node and at slot
        # k + j for node -> hub
        examples = toy_examples()
        pack = pack_batch(examples, session_indices=[5, 9, 40])
        to_real, from_real = _star_edges(pack, theta=0.6, seed=3, epoch=2)
        assert to_real.shape == from_real.shape == (len(pack.node_ids),)
        for i, block in enumerate(session_blocks(pack)):
            k, session = block.n_nodes, int(pack.session_indices[i])
            draws = np.array([[philox_uniform_oracle(3, "star", 2, session,
                                                     row * k + j)
                               for j in range(k)] for row in range(2)])
            np.testing.assert_array_equal(to_real[block.rows], draws[0] < 0.6)
            np.testing.assert_array_equal(from_real[block.rows],
                                          draws[1] < 0.6)


def _edge_set(src, dst, w_in, w_out, lo=0):
    """Edges as a sorted list of (src, dst, w_in, w_out), rows shifted
    down by ``lo``."""
    return sorted(zip((src - lo).tolist(), (dst - lo).tolist(),
                      w_in.tolist(), w_out.tolist()))


class TestDropoutEdges:
    EXAMPLES = [Example([3, 1, 3, 2, 1, 4], 0), Example([4, 4], 1),
                Example([2, 5, 5], 0), Example([0, 1, 2, 3, 4, 0, 2], 3)]

    def test_zero_rates_keep_every_edge(self):
        pack = pack_batch(self.EXAMPLES)
        got = _dropout_edges(pack, 0.0, 0.0, seed=1, epoch=0)
        for a, b in zip(got, pack.edges):
            np.testing.assert_array_equal(a, b)

    def test_edge_rate_one_drops_every_edge(self):
        src, dst, w_in, w_out = _dropout_edges(pack_batch(self.EXAMPLES),
                                               1.0, 0.0, seed=1, epoch=0)
        assert src.size == dst.size == w_in.size == w_out.size == 0

    def test_node_rate_one_keeps_last_node_edges(self):
        # every node but each session's last-position node is isolated:
        # the self-loops on 4 and on 5 are all that survive
        pack = pack_batch(self.EXAMPLES)
        last = pack.alias[np.cumsum(pack.lengths) - 1]
        src, dst, _, _ = _dropout_edges(pack, 0.0, 1.0, seed=1, epoch=0)
        expect = np.isin(pack.src, last) & np.isin(pack.dst, last)
        assert expect.sum() == 2
        np.testing.assert_array_equal(src, pack.src[expect])
        np.testing.assert_array_equal(dst, pack.dst[expect])

    def test_survivors_reweighted_by_degree(self):
        pack = pack_batch(self.EXAMPLES)
        src, dst, w_in, w_out = _dropout_edges(pack, 0.3, 0.2, seed=2,
                                               epoch=1)
        assert 0 < src.size < pack.src.size
        want_in, want_out = degree_weights(src, dst, pack.node_ids.size)
        np.testing.assert_array_equal(w_in, want_in)
        np.testing.assert_array_equal(w_out, want_out)
        # every survivor is a transition of the batch
        assert set(zip(src, dst)) <= set(zip(pack.src, pack.dst))

    def test_session_alone_or_in_batch(self):
        # a session's draws are keyed by its own index: packed alone
        # under the same session index it keeps the same edges
        indices = [5, 9, 40, 12]
        pack = pack_batch(self.EXAMPLES, session_indices=indices)
        batch = _dropout_edges(pack, 0.3, 0.2, seed=2, epoch=1)
        kept = 0
        for ex, i, lo, k in zip(self.EXAMPLES, indices, pack.node_start,
                                pack.n_nodes):
            alone = _dropout_edges(pack_batch([ex], session_indices=[i]),
                                   0.3, 0.2, seed=2, epoch=1)
            inside = (batch[0] >= lo) & (batch[0] < lo + k)
            assert _edge_set(*(a[inside] for a in batch), lo=lo) == \
                _edge_set(*alone)
            kept += inside.sum()
        assert kept == batch[0].size


DRAW_SESSIONS = [[3, 1, 3, 2, 1, 4], [4, 4], [2, 5, 5], [0, 1, 2, 3, 4, 0, 2],
                 [6], [5, 5, 5], [1, 6]]


def training_draws(pack):
    """Every per-step draw of a batch, cut per session: hub edges, item
    and factor negatives (as local node indices), and the dropout edges
    (as local (src, dst) pairs)."""
    hubs = np.stack(_star_edges(pack, 0.5, seed=4, epoch=2))
    negs = [_negative_draws(pack, 4, 2, tag, count=c)
            for tag, c in ((0, 1), (1, 2))]
    src, dst, _, _ = _dropout_edges(pack, 0.4, 0.3, seed=4, epoch=2)
    out = []
    for lo, k in zip(pack.node_start, pack.n_nodes):
        rows, inside = slice(lo, lo + k), (src >= lo) & (src < lo + k)
        out.append((hubs[:, rows].tolist(),
                    *[(n[:, rows] - lo).tolist() for n in negs],
                    sorted(zip(src[inside] - lo, dst[inside] - lo))))
    return out


class TestTrainingDraws:
    def test_same_alone_in_another_batch_or_position(self):
        examples = [Example(s, 0) for s in DRAW_SESSIONS]
        ids = [11, 3, 70, 5, 2 ** 40, 9, 0]
        batch = training_draws(pack_batch(examples, session_indices=ids))
        # reversed order, and a different partition into two batches
        rev = training_draws(pack_batch(examples[::-1],
                                        session_indices=ids[::-1]))[::-1]
        split = (training_draws(pack_batch(examples[:3], ids[:3]))
                 + training_draws(pack_batch(examples[3:], ids[3:])))
        for i, (ex, sid) in enumerate(zip(examples, ids)):
            alone = training_draws(pack_batch([ex], session_indices=[sid]))
            assert batch[i] == alone[0] == rev[i] == split[i], i

    def test_session_index_keys_the_draws(self):
        examples = [Example(s, 0) for s in DRAW_SESSIONS[:4]]
        a = training_draws(pack_batch(examples, [1, 2, 3, 4]))
        b = training_draws(pack_batch(examples, [5, 6, 7, 8]))
        assert a != b

    def test_negatives_match_the_uniforms(self):
        # draw (c, j) of a k-node session: slot c * k + j, the
        # floor(u * (k - 1))-th node other than j
        pack = pack_batch([Example(s, 0) for s in DRAW_SESSIONS],
                          session_indices=[11, 3, 70, 5, 8, 9, 0])
        got = _negative_draws(pack, 4, 2, 1, count=2)
        for i, block in enumerate(session_blocks(pack)):
            k, session = block.n_nodes, int(pack.session_indices[i])
            for c in range(2):
                for j in range(k):
                    u = philox_uniform_oracle(4, "negatives", 2, session,
                                              c * k + j, 1)
                    other = int(u * (k - 1))
                    want = j if k < 2 else other + (other >= j)
                    assert got[c, block.rows.start + j] - \
                        block.rows.start == want

    def test_dropout_matches_the_uniforms(self):
        # edge a -> b of a k-node session reads slot a * k + b, node j
        # slot k * k + j
        pack = pack_batch([Example(s, 0) for s in DRAW_SESSIONS],
                          session_indices=[11, 3, 70, 5, 8, 9, 0])
        src, dst, _, _ = _dropout_edges(pack, 0.4, 0.3, seed=4, epoch=2)
        last = set(pack.alias[np.cumsum(pack.lengths) - 1].tolist())
        want = []
        for i, block in enumerate(session_blocks(pack)):
            k, lo = block.n_nodes, block.rows.start
            session = int(pack.session_indices[i])
            u = lambda slot: philox_uniform_oracle(4, "dropout", 2, session,
                                                   slot)
            isolated = [u(k * k + j) < 0.3 and lo + j not in last
                        for j in range(k)]
            for a, b in zip(*np.nonzero(block.edge_out)):
                if u(a * k + b) >= 0.4 and not isolated[a] \
                        and not isolated[b]:
                    want.append((lo + a, lo + b))
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(want)

    @pytest.mark.parametrize("sessions", [[[6], [3], [7]], [[4, 4, 4], [2, 2]],
                                          [[1, 2], [2, 1, 2], [5, 6]]],
                             ids=["one_node", "all_repeat", "two_nodes"])
    def test_edge_case_batches(self, sessions):
        pack = pack_batch([Example(s, 0) for s in sessions])
        hubs = np.stack(_star_edges(pack, 0.5, seed=1, epoch=0))
        assert hubs.shape == (2, pack.node_ids.size)
        negs = _negative_draws(pack, 1, 0, 0, count=2)
        rows = np.arange(pack.node_ids.size)
        for lo, k in zip(pack.node_start, pack.n_nodes):
            block = negs[:, lo:lo + k]
            if k == 1:
                assert (block == lo).all()
            else:      # k = 2: the other node, always
                assert (block == lo + 1 - (rows[lo:lo + k] - lo)).all()
        src, dst, w_in, w_out = _dropout_edges(pack, 0.5, 0.5, seed=1,
                                               epoch=0)
        assert set(zip(src, dst)) <= set(zip(pack.src, pack.dst))
        assert np.isfinite(w_in).all() and np.isfinite(w_out).all()

    @pytest.mark.parametrize("variant", ["full", "fcl", "star", "fp"])
    def test_training_forward_builds_no_substream(self, variant, monkeypatch):
        def refuse(*args):
            raise AssertionError("substream called in a training step")
        monkeypatch.setattr(model, "substream", refuse)
        monkeypatch.setattr(rng, "substream", refuse)
        cfg = toy_config(variant=variant)
        params = toy_params(cfg, n_items=8)
        pack = pack_batch([Example(s, 0) for s in DRAW_SESSIONS])
        out = training_forward(params, pack, cfg, epoch=3)
        out.loss.backward()
        assert np.isfinite(out.loss.value)


class TestTrainingForward:
    @pytest.mark.parametrize("variant", ["full", "fcl", "star", "fp"])
    def test_runs_and_finite(self, variant):
        cfg = toy_config(variant=variant)
        params = toy_params(cfg)
        out = training_forward(params, pack_batch(toy_examples()), cfg,
                               epoch=0)
        for name in term_names(variant):
            v = float(getattr(out, name).value)
            assert np.isfinite(v), f"{variant}.{name}"
        assert (out.factor is None) == (variant == "fcl")

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_logged_terms_are_the_loss_own(self, variant):
        # bit for bit, the loss is the weighted sum of the terms handed
        # back, and the contrastive number the mix of the term nodes
        cfg = toy_config(variant=variant, alpha=0.3, beta_cl=0.07,
                         beta_ind=0.02)
        out = training_forward(toy_params(cfg), pack_batch(toy_examples()),
                               cfg, epoch=0)
        assert out.loss.value == (out.prediction.value
                                  + out.contrastive * cfg.beta_cl
                                  + out.independence.value * cfg.beta_ind)
        if variant == "fcl":
            assert out.contrastive == out.item.value
        else:
            assert out.contrastive == (out.item.value * cfg.alpha
                                       + out.factor.value * (1.0 - cfg.alpha))
        assert type(out.contrastive) is np.float64

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_every_node_made_lies_in_the_loss_graph(self, variant,
                                                    monkeypatch):
        # nothing the forward records with a backward sits beside the
        # loss: a node outside its graph is work no training step uses
        made, make = [], tape._make
        monkeypatch.setattr(tape, "_make",
                            lambda *a: made.append(make(*a)) or made[-1])
        cfg = toy_config(variant=variant)
        out = training_forward(toy_params(cfg), pack_batch(toy_examples()),
                               cfg, epoch=0)
        in_graph = {id(n) for n in tape._topo_order(out.loss)}
        recorded = [n for n in made if n._backward is not None]
        assert len(recorded) > 10
        assert all(id(n) in in_graph for n in recorded)

    def test_deterministic(self):
        cfg = toy_config()
        pack = pack_batch(toy_examples())
        a = training_forward(toy_params(cfg), pack, cfg, epoch=0)
        b = training_forward(toy_params(cfg), pack, cfg, epoch=0)
        assert float(a.loss.value) == float(b.loss.value)

    def test_epoch_changes_augmentation(self):
        cfg = toy_config()
        pack = pack_batch(toy_examples())
        a = training_forward(toy_params(cfg), pack, cfg, epoch=0)
        b = training_forward(toy_params(cfg), pack, cfg, epoch=1)
        assert float(a.item.value) != float(b.item.value)
        assert float(a.factor.value) != float(b.factor.value)

    def test_gradient_reaches_every_active_group(self):
        cfg = toy_config()
        params = toy_params(cfg)
        out = training_forward(params, pack_batch(toy_examples()), cfg, 0)
        out.loss.backward()
        for probe in (params.embeddings, params.ggnn_original.weight_in,
                      params.ggnn_star.weight_in, params.attn_item.query):
            assert probe.grad is not None
            assert np.abs(probe.grad).max() > 0
        # factor-stacked weights: every factor's slice learns
        for probe in (params.ggnn_factor.weight_in, params.attn_factor.query,
                      params.proj.weight, params.proj.bias):
            assert probe.grad is not None
            per_factor = np.abs(probe.grad).reshape(cfg.num_factors, -1)
            assert (per_factor.max(axis=1) > 0).all()

    def test_fcl_skips_factor_channels(self):
        cfg = toy_config(variant="fcl")
        params = toy_params(cfg)
        out = training_forward(params, pack_batch(toy_examples()), cfg, 0)
        out.loss.backward()
        assert params.ggnn_factor.weight_in.grad is None
        assert params.ggnn_star.weight_in.grad is not None

    def test_fp_keeps_factor_contrast(self):
        cfg = toy_config(variant="fp")
        params = toy_params(cfg)
        out = training_forward(params, pack_batch(toy_examples()), cfg, 0)
        out.loss.backward()
        assert params.ggnn_factor.weight_in.grad is not None
        # the factor readout feeds only the dropped head
        assert params.attn_factor.query.grad is None

    def test_fp_scores_with_item_head_only(self):
        cfg = toy_config(variant="fp")
        params = toy_params(cfg)
        out = training_forward(params, pack_batch(toy_examples()), cfg, 0)
        # one (session, catalog) pair feeds the scores: the item head's
        e_item, catalog = out.scores._parents
        assert catalog is params.embeddings
        assert e_item.value.shape == (3, cfg.dim)

    def test_fp_builds_no_factor_head(self, monkeypatch):
        def unscored(*args, **kwargs):
            raise AssertionError("fp built a factor head it never scores")
        monkeypatch.setattr(model, "encode_factors", unscored)
        monkeypatch.setattr(model, "catalog_factor_embeddings", unscored)
        cfg = toy_config(variant="fp")
        params = toy_params(cfg)
        pack = pack_batch(toy_examples())
        out = training_forward(params, pack, cfg, 0)
        out.loss.backward()
        assert np.isfinite(out.loss.value)
        assert params.embeddings.grad is not None
        np.testing.assert_allclose(score_batch(params, pack, cfg).sum(axis=1),
                                   1.0, atol=1e-9, rtol=0)
        assert model.catalog_views(params, cfg) is None
        evaluate(params, toy_examples(), cfg)

    def test_fp_scoring_projects_no_factors(self, monkeypatch):
        # only the factor contrast reads the projected views, and
        # inference runs no contrast
        cfg = toy_config(variant="fp")
        params = toy_params(cfg)
        pack = pack_batch(toy_examples())
        expect = score_batch(params, pack, cfg)

        def unread(*args, **kwargs):
            raise AssertionError("fp scoring projected factors")
        monkeypatch.setattr(model, "project", unread)
        np.testing.assert_array_equal(score_batch(params, pack, cfg), expect)

    def test_node_count_independent_of_factor_count(self):
        # the K factor channels run as one pass over a factor axis
        def nodes(num_factors):
            cfg = toy_config(num_factors=num_factors)
            out = training_forward(toy_params(cfg), pack_batch(toy_examples()),
                                   cfg, epoch=0)
            return sum(1 for n in tape._topo_order(out.loss) if n._parents)

        assert nodes(2) == nodes(5)

    def test_desk_step_tape_nodes(self):
        # one training step of the desk benchmark's config on its first
        # planted batch makes no more tape nodes than these per variant:
        # the catalog head is one mean_softmax node, a GGNN layer is two
        # edge_matmul nodes and one gated_update node, the star view's
        # start states are one edge_matmul node, and the factor
        # projection, the cosine edges, each readout, each contrastive
        # term, the independence penalty and the loss mix are one node
        # each; the embedding gather and the hub-dropping slice are the
        # only generic nodes
        train_ex, _, n_items = make_planted_corpus(seed=0)
        pack = pack_batch(train_ex[:100])
        for variant, most in [("full", 24), ("fcl", 19), ("star", 22),
                              ("fp", 22)]:
            cfg = TrainConfig(dim=32, factor_dim=8, num_factors=4,
                              batch_size=100, seed=0, variant=variant)
            params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                     cfg.num_factors, cfg.layers, cfg.seed)
            out = training_forward(params, pack, cfg, 0)
            nodes = sum(1 for n in tape._topo_order(out.loss) if n._parents)
            assert nodes <= most, variant

    @pytest.mark.parametrize("variant", ["full", "fcl"])
    def test_step_graph_freed_without_the_cyclic_collector(self, variant):
        # once a step's result is dropped after backward, reference
        # counting alone frees its graph: no node keeps it alive in a
        # reference cycle, which would hold every step's arrays until the
        # cyclic collector ran
        cfg = toy_config(variant=variant)
        out = training_forward(toy_params(cfg), pack_batch(toy_examples()),
                               cfg, 0)
        out.loss.backward()
        refs = [weakref.ref(getattr(out, name))
                for name in ("scores", *term_names(variant))]
        gc.disable()
        try:
            del out
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_graph_freed_without_backward_or_the_cyclic_collector(
            self, variant):
        # a result read for its values alone and dropped: no backward
        # closure holds its own node, so reference counting alone frees
        # the graph and the arrays its closures hold
        cfg = toy_config(variant=variant)
        params, pack = toy_params(cfg), pack_batch(toy_examples())
        gc.collect()
        gc.disable()
        try:
            out = training_forward(params, pack, cfg, 0)
            refs = [weakref.ref(getattr(out, name))
                    for name in ("scores", *term_names(variant))]
            del out
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_backward_leaves_forward_values_alone(self, variant, monkeypatch):
        # kernels overwrite the arrays they keep for their backward, never
        # a value they hand out: under fp the head has one softmax, which
        # must not be the scores themselves; blocks of 8 elements make
        # every blocked pass take several blocks
        monkeypatch.setattr(tape, "CHUNK", 8)
        cfg = toy_config(variant=variant)
        out = training_forward(toy_params(cfg), pack_batch(toy_examples()),
                               cfg, 0)
        names = ("scores", *term_names(variant))
        before = {name: getattr(out, name).value.copy() for name in names}
        out.loss.backward()
        for name in names:
            np.testing.assert_array_equal(getattr(out, name).value,
                                          before[name], err_msg=name)

    def test_single_node_batch_contrast_skipped(self):
        cfg = toy_config()
        params = toy_params(cfg)
        pack = pack_batch([Example([2], 3), Example([4], 0)])
        out = training_forward(params, pack, cfg, epoch=0)
        assert float(out.item.value) == float(out.factor.value) == 0.0
        assert out.contrastive == 0.0

    def test_single_node_batch_stays_out_of_adam(self):
        # with no session of 2 nodes both contrastive terms are the
        # constant 0, so the channels behind them get no gradient at all,
        # not a zero one: Adam skips them, where a zero gradient would let
        # the momentum of an earlier step move them
        cfg = toy_config()
        params = toy_params(cfg)
        opt = Adam(params.parameters(), lr=cfg.lr)
        training_forward(params, pack_batch(toy_examples()), cfg, 0
                         ).loss.backward()
        opt.step()
        opt.zero_grad()
        watched = {name: p for name, p in params.named_parameters()
                   if name.startswith(("ggnn.star.", "ggnn.factor."))}
        before = {name: p.value.copy() for name, p in watched.items()}
        lone = pack_batch([Example([2], 3), Example([4], 0)])
        training_forward(params, lone, cfg, 1).loss.backward()
        assert len(watched) == 20
        assert all(p.grad is None for p in watched.values())
        assert params.embeddings.grad is not None
        opt.step()
        for name, p in watched.items():
            np.testing.assert_array_equal(p.value, before[name], err_msg=name)


class TestScoreBatch:
    def test_rows_are_distributions(self):
        cfg = toy_config()
        params = toy_params(cfg)
        probs = score_batch(params, pack_batch(toy_examples()), cfg)
        assert probs.shape == (3, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_unbatched_composition(self):
        cfg = toy_config()
        params = toy_params(cfg)
        ex = toy_examples()[0]
        probs = score_batch(params, pack_batch([ex]), cfg)
        g = session_graph_oracle(ex.prefix)
        x0 = params.embeddings.value[g.nodes]
        h = ggnn_step_oracle(x0, g.adj_in, g.adj_out, {
            name.split(".")[-1]: p.value
            for name, p in params.ggnn_original.named_parameters("g")})
        # the readouts see each position as its own node
        t = len(g.alias)
        seq = h[g.alias]                                           # (T, d)
        e_item = encode(seq, params.attn_item, np.arange(t), [t])
        factor_seqs = project(h, params.proj).value[:, g.alias]   # (K, T, d_f)
        e_factor = encode_factors(Tensor(factor_seqs), params.attn_factor,
                                  np.arange(t), [t])
        catalog_factors = catalog_factor_embeddings(params.embeddings.value,
                                                    params.proj)
        scores = score_one(e_item, e_factor, params.embeddings.value,
                           catalog_factors=catalog_factors)
        np.testing.assert_allclose(probs[0], scores.value[0], atol=1e-10,
                                   rtol=0)

    def test_padding_invariance(self):
        # a session's scores must not depend on its batch neighbors
        cfg = toy_config()
        params = toy_params(cfg)
        short = Example([0, 4], 1)
        alone = score_batch(params, pack_batch([short]), cfg)
        packed = score_batch(
            params, pack_batch([toy_examples()[0], short]), cfg)
        np.testing.assert_allclose(packed[1], alone[0], atol=1e-10, rtol=0)

    def test_no_gradients_accumulate(self):
        cfg = toy_config()
        params = toy_params(cfg)
        score_batch(params, pack_batch(toy_examples()), cfg)
        assert params.embeddings.grad is None
        assert params.ggnn_original.weight_in.grad is None

    @pytest.mark.parametrize("variant", ["full", "fp"])
    def test_views_passed_in_change_no_bit(self, variant):
        cfg = toy_config(variant=variant)
        params = toy_params(cfg)
        pack = pack_batch(toy_examples())
        views = model.catalog_views(params, cfg)
        if variant == "fp":
            assert views is None
        else:
            assert views.value.shape == (5, cfg.num_factors * cfg.factor_dim)
            assert views._backward is None and not views._parents
        np.testing.assert_array_equal(
            score_batch(params, pack, cfg, catalog_factors=views),
            score_batch(params, pack, cfg))

    def test_views_passed_in_are_not_recomputed(self, monkeypatch):
        cfg = toy_config()
        params = toy_params(cfg)
        views = model.catalog_views(params, cfg)

        def unread(*args, **kwargs):
            raise AssertionError("the catalog was projected again")
        monkeypatch.setattr(model, "catalog_factor_embeddings", unread)
        score_batch(params, pack_batch(toy_examples()), cfg,
                    catalog_factors=views)

    def test_evaluate_projects_the_catalog_once(self, monkeypatch):
        calls, project = [], model.catalog_factor_embeddings
        monkeypatch.setattr(model, "catalog_factor_embeddings",
                            lambda *a: calls.append(a) or project(*a))
        monkeypatch.setattr(harness, "SCORE_ELEMENTS", 1)  # a prefix a chunk
        cfg = toy_config()
        evaluate(toy_params(cfg), toy_examples(), cfg)
        assert len(calls) == 1


class TestVariantValidation:
    def test_unknown_variant_rejected(self):
        cfg = toy_config()
        params = toy_params(cfg)
        cfg.variant = "bogus"   # sidesteps config validation on purpose
        with pytest.raises(ValueError):
            training_forward(params, pack_batch(toy_examples()), cfg, 0)
