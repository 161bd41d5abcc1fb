"""Dual-head scoring, the training loss, and ranking helpers.

Scoring takes a batch axis; one session is a batch of one.
"""

import numpy as np
import pytest

from oracles import bce_oracle, scores_oracle, sigmoid

from sessrec import tape
from sessrec.disentangle import FactorProjection, project
from sessrec.predictor import (catalog_factor_embeddings, prediction_loss,
                               rank_of, score, total_loss)
from sessrec.rng import substream
from sessrec.tape import Parameter, Tensor


def setup_scoring(seed=0, n=8, d=5, d_f=3, k=2):
    """Catalog, its concatenated factor views, and one session's pair as
    a batch of one."""
    rng = substream(seed, "x")
    catalog = rng.normal(size=(n, d))
    proj = FactorProjection.init(d, d_f, k, substream(seed, "init"))
    e_item = rng.normal(size=(1, d))
    e_factor = rng.normal(size=(1, k * d_f))
    return catalog, catalog_factor_embeddings(catalog, proj), e_item, e_factor


class TestScore:
    def test_matches_oracle(self):
        catalog, cat_f, e_item, e_factor = setup_scoring()
        scores = score(e_item, e_factor, catalog, catalog_factors=cat_f)
        proj = FactorProjection.init(5, 3, 2, substream(0, "init"))
        direct = np.concatenate([sigmoid(catalog @ w) + b for w, b in
                                 zip(proj.weight.value, proj.bias.value)], -1)
        expect = scores_oracle(e_item[0], e_factor[0], catalog, direct)
        np.testing.assert_allclose(scores.value[0], expect, atol=1e-10,
                                   rtol=0)

    def test_heads_are_distributions(self):
        catalog, cat_f, e_item, e_factor = setup_scoring(1)
        # each head alone is the one-head score of its own embeddings
        item_head = score(e_item, None, catalog)
        factor_head = score(e_factor, None, cat_f)
        combined = score(e_item, e_factor, catalog, catalog_factors=cat_f)
        assert float(tape.tsum(item_head).value) == pytest.approx(1.0)
        assert float(tape.tsum(factor_head).value) == pytest.approx(1.0)
        assert float(tape.tsum(combined).value) == pytest.approx(1.0)

    def test_item_only_head(self):
        catalog, cat_f, e_item, _ = setup_scoring(2)
        # without a session factor embedding the catalog factors play no
        # part
        scores = score(e_item, None, catalog, catalog_factors=cat_f)
        item_head = score(e_item, None, catalog)
        np.testing.assert_array_equal(scores.value, item_head.value)

    def test_precomputed_factors_match_proj_path(self):
        # the catalog's one-GEMM projection equals the per-view projection
        # laid side by side
        rng = substream(3, "x")
        catalog = rng.normal(size=(8, 5))
        proj = FactorProjection.init(5, 3, 2, substream(3, "init"))
        flat = catalog_factor_embeddings(Tensor(catalog), proj).value
        views = project(catalog, proj).value                   # (K, N, d_f)
        np.testing.assert_allclose(flat, np.concatenate(list(views), -1),
                                   atol=1e-12)

    def test_batched_scoring(self):
        catalog, cat_f, _, _ = setup_scoring(4)
        rng = substream(5, "x")
        e_item = rng.normal(size=(3, 5))
        e_factor = rng.normal(size=(3, 6))
        scores = score(e_item, e_factor, catalog, catalog_factors=cat_f)
        assert scores.value.shape == (3, 8)
        for b in range(3):
            single = score(e_item[b:b + 1], e_factor[b:b + 1], catalog,
                           catalog_factors=cat_f)
            np.testing.assert_allclose(scores.value[b], single.value[0],
                                       atol=1e-10)


class TestPredictionLoss:
    def test_matches_oracle(self):
        catalog, cat_f, e_item, e_factor = setup_scoring(6)
        scores = score(e_item, e_factor, catalog, catalog_factors=cat_f)
        loss = prediction_loss(scores, target=np.array([3]))
        expect = bce_oracle(scores.value[0], 3)
        assert float(loss.value) == pytest.approx(expect, abs=1e-10)

    def test_batch_mean(self):
        catalog, cat_f, _, _ = setup_scoring(7)
        rng = substream(8, "x")
        e_item = rng.normal(size=(2, 5))
        e_factor = rng.normal(size=(2, 6))
        scores = score(e_item, e_factor, catalog, catalog_factors=cat_f)
        loss = float(prediction_loss(scores, np.array([1, 4])).value)
        singles = []
        for b, t in enumerate([1, 4]):
            row = score(e_item[b:b + 1], e_factor[b:b + 1], catalog,
                        catalog_factors=cat_f)
            singles.append(float(prediction_loss(row, t).value))
        assert loss == pytest.approx(np.mean(singles), abs=1e-10)

    def test_clamp_keeps_loss_finite(self):
        p = np.zeros(4)
        p[2] = 1.0
        loss = prediction_loss(Tensor(p), target=0)
        assert np.isfinite(float(loss.value))

    def test_correct_target_lowers_loss(self):
        catalog, cat_f, e_item, e_factor = setup_scoring(9)
        scores = score(e_item, e_factor, catalog, catalog_factors=cat_f)
        best = int(np.argmax(scores.value))
        worst = int(np.argmin(scores.value))
        l_best = float(prediction_loss(scores, best).value)
        l_worst = float(prediction_loss(scores, worst).value)
        assert l_best < l_worst

    def test_gradient_flows_to_catalog(self):
        rng = substream(10, "x")
        catalog = Parameter(rng.normal(size=(6, 4)))
        e = rng.normal(size=(1, 4))
        scores = score(e, None, catalog)
        prediction_loss(scores, 2).backward()
        assert np.abs(catalog.grad).max() > 0


def test_total_loss_weighting():
    out = total_loss(Tensor(np.float64(1.0)), Tensor(np.float64(10.0)),
                     Tensor(np.float64(100.0)), beta_cl=0.05, beta_ind=0.01)
    assert float(out.value) == pytest.approx(1.0 + 0.5 + 1.0)


class TestRanking:
    def test_rank_basic(self):
        p = np.array([0.1, 0.5, 0.2, 0.2])
        assert rank_of(p, 1) == 1
        assert rank_of(p, 0) == 4

    @pytest.mark.parametrize("target", [-1, 3, 10])
    def test_target_outside_catalog_rejected(self, target):
        # -1 would silently rank the last item
        with pytest.raises(ValueError, match="outside the catalog"):
            rank_of(np.array([0.2, 0.5, 0.3]), target)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        # nothing ranks ahead of NaN, so it would come out first
        with pytest.raises(ValueError, match="non-finite"):
            rank_of(np.array([0.2, bad, 0.3]), 1)
        assert rank_of(np.array([0.2, bad, 0.3]), 2) >= 1

    def test_tie_breaks_toward_lower_index(self):
        p = np.array([0.3, 0.3, 0.3])
        assert rank_of(p, 0) == 1
        assert rank_of(p, 1) == 2
        assert rank_of(p, 2) == 3

    def test_top_k_consistent_with_rank(self):
        rng = substream(11, "x")
        p = rng.random(20)
        p[5] = p[7]           # force a tie
        # the ten best items, ties broken toward the lower index
        top = set(np.lexsort((np.arange(20), -p))[:10].tolist())
        for j in range(20):
            assert (rank_of(p, j) <= 10) == (j in top)
