"""Batch assembly and the assembled forward passes."""

import numpy as np
import pytest

from sessrec import tape
from sessrec.dataio import Example
from sessrec.encoder import encode, encode_factors
from sessrec.graphs import build_session_graph
from sessrec.harness import TrainConfig
from sessrec.model import (PackedBatch, _star_edges, pack_batch, score_batch,
                           training_forward)
from sessrec.params import init_parameters
from sessrec.disentangle import project
from sessrec.predictor import catalog_factor_embeddings
from sessrec.predictor import score as score_one
from sessrec.propagation import ggnn_step
from sessrec.rng import substream
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


class TestPackBatch:
    def test_shapes_and_masks(self):
        pack = pack_batch(toy_examples())
        assert pack.node_ids.shape == (3, 3)
        assert pack.alias.shape == (3, 4)
        np.testing.assert_array_equal(pack.n_nodes, [3, 2, 1])
        np.testing.assert_array_equal(pack.lengths, [4, 2, 1])
        np.testing.assert_array_equal(pack.last_pos, [3, 1, 0])
        np.testing.assert_array_equal(pack.targets, [0, 1, 4])
        np.testing.assert_array_equal(pack.node_mask.sum(axis=1), [3, 2, 1])
        np.testing.assert_array_equal(pack.pos_mask.sum(axis=1), [4, 2, 1])

    def test_blocks_match_single_graphs(self):
        examples = toy_examples()
        pack = pack_batch(examples)
        for i, ex in enumerate(examples):
            g = build_session_graph(ex.prefix)
            k = g.n_nodes
            np.testing.assert_array_equal(pack.adj_out[i, :k, :k], g.adj_out)
            np.testing.assert_array_equal(pack.adj_in[i, :k, :k], g.adj_in)
            np.testing.assert_array_equal(pack.node_ids[i, :k], g.nodes)
            assert (pack.adj_out[i, k:, :] == 0).all()
            assert (pack.adj_out[i, :, k:] == 0).all()

    def test_default_session_indices(self):
        pack = pack_batch(toy_examples())
        np.testing.assert_array_equal(pack.session_indices, [0, 1, 2])


class TestStarEdgeSampling:
    def test_matches_single_graph_builder(self):
        # session i draws (2, k) uniforms from the (seed, "star", epoch,
        # session index) substream: row 0 hub -> node, row 1 node -> hub
        examples = toy_examples()
        pack = pack_batch(examples, session_indices=[5, 9, 40])
        to_real, from_real = _star_edges(pack, theta=0.6, seed=3, epoch=2)
        for i, k in enumerate(pack.n_nodes):
            draws = substream(3, "star", 2, int(pack.session_indices[i])
                              ).random((2, k))
            np.testing.assert_array_equal(to_real[i, :k], draws[0] < 0.6)
            np.testing.assert_array_equal(from_real[i, :k], draws[1] < 0.6)
            assert (to_real[i, k:] == 0).all()
            assert (from_real[i, k:] == 0).all()


class TestTrainingForward:
    @pytest.mark.parametrize("variant", ["full", "fcl", "star", "fp"])
    def test_runs_and_finite(self, variant):
        cfg = toy_config(variant=variant)
        params = toy_params(cfg)
        out = training_forward(params, pack_batch(toy_examples()), cfg,
                               epoch=0)
        for name in ("loss", "prediction", "contrastive", "independence"):
            v = float(getattr(out, name).value)
            assert np.isfinite(v), f"{variant}.{name}"

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
        assert float(a.contrastive.value) != float(b.contrastive.value)

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
        assert out.scores.factor_head is None

    def test_cross_view_negatives_reach_factor_term(self):
        # cross_view draws the factor negatives from the propagated views
        pack = pack_batch(toy_examples())
        terms = {}
        for scheme in ("within_view", "cross_view"):
            cfg = toy_config(factor_negatives=scheme, alpha=0.0)
            out = training_forward(toy_params(cfg), pack, cfg, epoch=0)
            terms[scheme] = float(out.contrastive.value)
        assert np.isfinite(list(terms.values())).all()
        assert terms["within_view"] != terms["cross_view"]

    def test_node_count_independent_of_factor_count(self):
        # the K factor channels run as one pass over a factor axis
        def nodes(num_factors):
            cfg = toy_config(num_factors=num_factors)
            out = training_forward(toy_params(cfg), pack_batch(toy_examples()),
                                   cfg, epoch=0)
            return sum(1 for n in tape._topo_order(out.loss) if n._parents)

        assert nodes(2) == nodes(5)

    def test_single_node_batch_contrast_skipped(self):
        cfg = toy_config()
        params = toy_params(cfg)
        pack = pack_batch([Example([2], 3), Example([4], 0)])
        out = training_forward(params, pack, cfg, epoch=0)
        assert float(out.contrastive.value) == 0.0


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
        g = build_session_graph(ex.prefix)
        x0 = params.embeddings.value[g.nodes]
        h = ggnn_step(x0, g.adj_in, g.adj_out, params.ggnn_original).value
        t = len(g.alias)
        seq = h[g.alias][None]                                     # (1, T, d)
        e_item = encode(seq, params.attn_item, [t - 1], np.ones((1, t)))
        factor_seqs = project(h, params.proj).value[:, g.alias]   # (K, T, d_f)
        e_factor = encode_factors(Tensor(factor_seqs[None]), params.attn_factor,
                                  [[t - 1]], np.ones((1, 1, t)))
        catalog_factors = catalog_factor_embeddings(params.embeddings.value,
                                                    params.proj)
        sv = score_one(e_item, e_factor, params.embeddings.value,
                       catalog_factors=catalog_factors)
        np.testing.assert_allclose(probs[0], sv.combined.value[0], atol=1e-10,
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


class TestVariantValidation:
    def test_unknown_variant_rejected(self):
        cfg = toy_config()
        params = toy_params(cfg)
        cfg.variant = "bogus"   # sidesteps config validation on purpose
        with pytest.raises(ValueError):
            training_forward(params, pack_batch(toy_examples()), cfg, 0)
