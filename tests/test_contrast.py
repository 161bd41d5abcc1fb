"""Contrastive terms on batch graphs: oracle equivalence, calibration,
negative sampling, and the alpha mix."""

import numpy as np
import pytest

from oracles import factor_cl_oracle, item_cl_oracle, session_average

from sessrec import tape
from sessrec.contrast import Discriminator
from sessrec.dataio import Example
from sessrec.harness import TrainConfig
from sessrec.model import (_contrast_term, _negative_draws, pack_batch,
                           training_forward)
from sessrec.params import init_parameters
from sessrec.rng import substream
from sessrec.tape import Parameter, Tensor

TWO_LN2 = 2.0 * np.log(2.0)


def single_pack():
    """One session of five distinct nodes."""
    return pack_batch([Example([4, 2, 0, 3, 1], 0)], session_indices=[3])


def mixed_pack():
    """Sessions of 4, 1, 3 and 2 distinct nodes, rows 0-3, 4, 5-7, 8-9."""
    return pack_batch([Example([3, 1, 3, 2, 0], 0), Example([2], 4),
                       Example([0, 4, 1], 2), Example([1, 2, 1], 3)],
                      session_indices=[7, 8, 9, 10])


PACKS = (single_pack, mixed_pack)


def views(pack, seed, count, d=4):
    """Random node states, one row per node of the batch graph."""
    rng = substream(seed, "x")
    return [rng.normal(size=pack.node_ids.shape + (d,)) for _ in range(count)]


def contrast_term(pack, anchor, positive, partner, neg_idx,
                  disc=Discriminator()):
    """The per-view term exactly as training_forward assembles it."""
    return _contrast_term(disc, anchor, positive, partner, neg_idx, pack)


def item_term(pack, orig, aug, seed=0, disc=Discriminator()):
    neg = _negative_draws(pack, seed, 0, 0, 1)[0]
    return contrast_term(pack, orig, aug, aug, neg, disc)


def factor_term(pack, origs, augs, scheme="within_view", seed=0,
                disc=Discriminator()):
    negs = _negative_draws(pack, seed, 0, 1, 1, count=len(origs))
    total = Tensor(np.float64(0.0))
    for orig, aug, neg in zip(origs, augs, negs):
        partner = orig if scheme == "within_view" else aug
        total = tape.add(total, contrast_term(pack, orig, aug, partner, neg,
                                              disc))
    return total


class TestSampling:
    def test_never_returns_anchor(self):
        pack = pack_batch([Example([0, 1], 2), Example([0, 1, 2], 3),
                           Example(list(range(7)), 8), Example([5], 0)])
        draws = _negative_draws(pack, 0, 0, 0, per=4, count=2)
        for lo, k in zip(pack.node_start[:3], pack.n_nodes[:3]):
            for idx in draws[:, lo:lo + k] - lo:
                assert (idx != np.arange(k)[:, None]).all()
                assert idx.min() >= 0 and idx.max() < k

    def test_deterministic_given_stream(self):
        pack = mixed_pack()
        a = _negative_draws(pack, 1, 3, 0, per=2)
        b = _negative_draws(pack, 1, 3, 0, per=2)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, _negative_draws(pack, 1, 4, 0, per=2))
        # a session's draws follow its index, not its batch neighbours
        alone = pack_batch([Example([0, 4, 1], 2)], session_indices=[9])
        np.testing.assert_array_equal(
            _negative_draws(alone, 1, 3, 0, per=2)[0], a[0, 5:8] - 5)

    def test_needs_two(self):
        pack = mixed_pack()
        draws = _negative_draws(pack, 0, 0, 0, per=3)
        assert (draws[0, 4] == 4).all()       # the one-node session


class TestItemLevel:
    def test_matches_oracle(self):
        for make in PACKS:
            pack = make()
            orig, aug = views(pack, 2, 2)
            neg = _negative_draws(pack, 7, 0, 0, 1)[0]
            mine = float(item_term(pack, orig, aug, seed=7).value)
            expect = session_average(
                lambda rows: item_cl_oracle(orig[rows], aug[rows],
                                            neg[rows] - rows.start),
                pack.n_nodes)
            assert mine == pytest.approx(expect, abs=1e-10)

    def test_zero_discriminator_calibration(self):
        # all scores 0 -> each pair contributes softplus(0) twice
        for make in PACKS:
            pack = make()
            zeros = np.zeros(pack.node_ids.shape + (3,))
            loss = item_term(pack, zeros, zeros)
            assert abs(float(loss.value) - TWO_LN2) < 1e-9

    def test_single_node_skipped(self):
        ones = pack_batch([Example([2], 3), Example([4], 0)])
        x = np.ones(ones.node_ids.shape + (3,))
        assert float(item_term(ones, x, x).value) == 0.0
        # the one-node session of a mixed batch does not move the term
        pack = mixed_pack()
        orig, aug = views(pack, 3, 2)
        before = float(item_term(pack, orig, aug).value)
        orig[4], aug[4] = 100.0, -100.0
        assert float(item_term(pack, orig, aug).value) == before

    def test_aligned_views_score_lower_than_shuffled(self):
        # over 50 negative draws, not one: a single draw can flip the order
        pack = pack_batch([Example([0, 1, 2, 3, 4, 5], 6)])
        (orig,) = views(pack, 3, 1, d=8)
        aligned, shuffled = np.mean(
            [[float(item_term(pack, orig, aug, seed=seed).value)
              for aug in (orig.copy(), orig[:, ::-1].copy())]
             for seed in range(50)], axis=0)
        assert aligned < shuffled

    def test_gradient_flows_to_both_views(self):
        pack = mixed_pack()
        orig, aug = (Parameter(v) for v in views(pack, 4, 2))
        item_term(pack, orig, aug).backward()
        real = (pack.n_nodes >= 2)[pack.node_session]
        for view in (orig, aug):
            assert (np.abs(view.grad[real]).max(axis=-1) > 0).all()
            assert (view.grad[~real] == 0).all()


class TestFactorLevel:
    def check_oracle(self, scheme):
        for make in PACKS:
            pack = make()
            origs = views(pack, 5, 3)
            augs = views(pack, 6, 3)
            negs = _negative_draws(pack, 9, 0, 1, 1, count=3)
            mine = float(factor_term(pack, origs, augs, scheme, seed=9).value)
            expect = session_average(
                lambda rows: factor_cl_oracle(
                    [o[rows] for o in origs], [a[rows] for a in augs],
                    [n[rows] - rows.start for n in negs], scheme=scheme),
                pack.n_nodes)
            assert mine == pytest.approx(expect, abs=1e-10)

    def test_matches_oracle_within_view(self):
        self.check_oracle("within_view")

    def test_matches_oracle_cross_view(self):
        self.check_oracle("cross_view")

    def test_zero_discriminator_calibration_per_factor(self):
        k = 4
        for make in PACKS:
            pack = make()
            zeros = [np.zeros(pack.node_ids.shape + (2,))] * k
            loss = factor_term(pack, zeros, zeros)
            assert abs(float(loss.value) - k * TWO_LN2) < 1e-9

    def test_single_node_skipped(self):
        pack = pack_batch([Example([2], 3)])
        x = [np.ones((1, 2))]
        assert float(factor_term(pack, x, x).value) == 0.0


class TestDiscriminatorForms:
    def test_bilinear_reduces_to_dot_with_identity(self):
        rng = substream(7, "x")
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        neg, weight = rng.integers(0, 5, size=(5, 2)), rng.random(5)
        bil = Discriminator.init("bilinear", 4, substream(0, "init"))
        bil.weight.value = np.eye(4)
        dot = Discriminator()
        np.testing.assert_allclose(bil.score(a, b, b, neg, weight).value,
                                   dot.score(a, b, b, neg, weight).value,
                                   atol=1e-12)

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            Discriminator.init("mlp", 4, substream(0, "init"))


class TestMix:
    def test_endpoints_and_midpoint(self):
        # alpha weighs item against factor term inside training_forward;
        # the draws do not depend on alpha, so the endpoints isolate each
        pack = mixed_pack()

        def contrastive(alpha):
            cfg = TrainConfig(dim=6, factor_dim=3, num_factors=2, seed=4,
                              alpha=alpha)
            params = init_parameters(5, 6, 3, 2, 1, 4)
            return float(training_forward(params, pack, cfg, 0)
                         .contrastive.value)

        item, factor = contrastive(1.0), contrastive(0.0)
        assert item != factor
        assert contrastive(0.5) == pytest.approx(0.5 * (item + factor),
                                                 abs=1e-12)
