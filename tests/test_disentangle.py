"""Factor projections and the distance-correlation independence penalty.

Pairwise distance correlation is read off the penalty itself: on a
stack of two views it sums both orders of their one pair.
"""

import numpy as np
import pytest

from oracles import dcor_oracle, gradient_errors, sigmoid

from sessrec import tape
from sessrec.disentangle import FactorProjection, independence_loss, project
from sessrec.rng import substream
from sessrec.tape import Parameter, Tensor


def make_proj(d=6, d_f=3, k=2, seed=0):
    return FactorProjection.init(d, d_f, k, substream(seed, "init"))


def pair_stack(x, y):
    """(2, m, width) stack of two samples; zero columns pad the narrower
    one, which leaves its distances as they are."""
    width = max(x.shape[1], y.shape[1])
    stack = np.zeros((2, x.shape[0], width))
    stack[0, :, :x.shape[1]] = x
    stack[1, :, :y.shape[1]] = y
    return stack


def pair_dcor(x, y):
    """dcor(x, y) from the penalty on their two-view stack."""
    return float(independence_loss(pair_stack(x, y)).value) / 2.0


class TestProjection:
    def test_shapes_and_count(self):
        proj = make_proj()
        out = project(np.ones((4, 6)), proj)
        assert out.value.shape == (2, 4, 3)      # (K, n, d_f)

    def test_matches_direct_formula(self):
        proj = make_proj()
        x = substream(1, "x").normal(size=(5, 6))
        out = project(x, proj)
        for k in range(2):
            expect = sigmoid(x @ proj.weight.value[k]) + proj.bias.value[k]
            np.testing.assert_allclose(out.value[k], expect, atol=1e-12)

    def test_batched_input(self):
        proj = make_proj()
        x = substream(3, "x").normal(size=(2, 4, 6))
        out = project(x, proj)
        assert out.value.shape == (2, 2, 4, 3)   # (B, K, n, d_f)
        for b in range(2):
            np.testing.assert_allclose(out.value[b], project(x[b], proj).value,
                                       atol=1e-12)

    def test_gradient_reaches_weights(self):
        proj = make_proj()
        x = Tensor(substream(4, "x").normal(size=(3, 6)))
        loss = tape.tsum(tape.mul(project(x, proj)[0], project(x, proj)[0]))
        loss.backward()
        assert proj.weight.grad is not None
        assert np.abs(proj.weight.grad[0]).max() > 0
        # only factor 0 feeds the loss
        assert (proj.weight.grad[1] == 0).all()


class TestDcorOracle:
    def test_matches_oracle_on_random_data(self):
        rng = substream(5, "x")
        for trial in range(10):
            x = rng.normal(size=(7, 3))
            y = rng.normal(size=(7, 4))
            mine = pair_dcor(x, y)
            ref = dcor_oracle(x, y)
            assert abs(mine - ref) <= 1e-10, f"trial {trial}"

    def test_matches_oracle_on_dependent_data(self):
        rng = substream(6, "x")
        x = rng.normal(size=(9, 2))
        y = np.tanh(x @ rng.normal(size=(2, 5)))
        assert abs(pair_dcor(x, y) - dcor_oracle(x, y)) <= 1e-10


class TestDcorProperties:
    def test_self_is_one(self):
        rng = substream(7, "x")
        for _ in range(20):
            x = rng.normal(size=(6, 4))
            assert abs(pair_dcor(x, x) - 1.0) < 1e-9

    def test_positive_scaling_invariant(self):
        rng = substream(8, "x")
        x = rng.normal(size=(6, 4))
        for c in (0.5, 3.0, 100.0):
            assert abs(pair_dcor(x, c * x) - 1.0) < 1e-9

    def test_symmetric(self):
        rng = substream(9, "x")
        x, y = rng.normal(size=(8, 3)), rng.normal(size=(8, 5))
        assert abs(pair_dcor(x, y) - pair_dcor(y, x)) < 1e-12

    def test_constant_side_is_zero(self):
        rng = substream(10, "x")
        x = rng.normal(size=(6, 3))
        const = np.ones((6, 2)) * 4.2
        assert pair_dcor(x, const) == 0.0

    def test_range(self):
        rng = substream(11, "x")
        for _ in range(10):
            v = pair_dcor(rng.normal(size=(7, 2)), rng.normal(size=(7, 2)))
            assert 0.0 <= v <= 1.0 + 1e-12


class TestIndependenceLoss:
    def test_ordered_pair_sum(self):
        rng = substream(12, "x")
        fs = [rng.normal(size=(6, 3)) for _ in range(3)]
        total = float(independence_loss(fs).value)
        expect = 0.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    expect += dcor_oracle(fs[i], fs[j])
        assert total == pytest.approx(expect, abs=1e-10)

    def test_single_factor_is_zero(self):
        assert float(independence_loss([np.ones((4, 2))]).value) == 0.0

    def test_gradient_flows(self):
        rng = substream(13, "x")
        fs = Parameter(rng.normal(size=(2, 6, 3)))
        independence_loss(fs).backward()
        assert np.abs(fs.grad[0]).max() > 0
        assert np.abs(fs.grad[1]).max() > 0

    def test_decreases_under_gradient_descent(self):
        rng = substream(14, "x")
        a = rng.normal(size=(8, 2))
        fs = Parameter(np.stack([a, a * 2.0 + 0.1 * rng.normal(size=(8, 2))]))
        first = None
        for _ in range(30):
            loss = independence_loss(fs)
            if first is None:
                first = float(loss.value)
            fs.grad = None
            loss.backward()
            fs.value = fs.value - 0.05 * fs.grad
        assert float(independence_loss(fs).value) < first

    def test_matches_oracle_with_duplicate_rows(self):
        # Items repeat across the sessions of a batch, so factor rows do.
        rng = substream(15, "x")
        rows = rng.integers(0, 20, size=30)
        fs = [rng.normal(size=(20, 4))[rows] for _ in range(5)]
        expect = sum(dcor_oracle(fs[i], fs[j])
                     for i in range(5) for j in range(5) if i != j)
        assert float(independence_loss(fs).value) == pytest.approx(expect, abs=1e-10)

    def test_gradient_matches_finite_differences_with_duplicate_rows(self):
        rng = substream(16, "x")
        rows = [0, 1, 2, 3, 4, 5, 1, 4, 4]
        fs = Parameter(np.stack([rng.normal(size=(6, 3))[rows]
                                 for _ in range(3)]))
        errs = gradient_errors(lambda: independence_loss(fs), {"fs": fs})
        assert max(errs.values()) < 1e-4, errs

    def test_dcor_gradient_with_unequal_widths(self):
        rng = substream(17, "x")
        x = rng.normal(size=(7, 4))
        y = np.tanh(x[:, :3]) + 0.3 * rng.normal(size=(7, 3))
        fs = Parameter(pair_stack(x, y))
        errs = gradient_errors(lambda: independence_loss(fs), {"fs": fs})
        assert max(errs.values()) < 1e-4, errs

    def test_constant_factor_drops_out(self):
        rng = substream(18, "x")
        a = rng.normal(size=(7, 3))
        const = np.full((7, 3), 0.4)
        b = rng.normal(size=(7, 3))
        fs = Parameter(np.stack([a, const, b]))
        loss = independence_loss(fs)
        loss.backward()
        assert pair_dcor(a, const) == 0.0
        assert pair_dcor(const, b) == 0.0
        assert float(loss.value) == pytest.approx(
            2.0 * dcor_oracle(a, b), abs=1e-10)
        np.testing.assert_array_equal(fs.grad[1], np.zeros((7, 3)))

    def test_few_tape_nodes(self):
        rng = substream(19, "x")
        fs = Parameter(rng.normal(size=(5, 10, 3)))
        nodes = [n for n in tape._topo_order(independence_loss(fs)) if n._parents]
        assert len(nodes) <= 15

    def test_malformed_factors_rejected(self):
        with pytest.raises(ValueError, match=r"\(K, m, d_f\)"):
            independence_loss(np.ones((4, 2)))

    def test_single_row_is_zero(self):
        # a one-node batch trains with loss 0
        rng = substream(20, "x")
        fs = Parameter(rng.normal(size=(3, 1, 3)))
        loss = independence_loss(fs)
        loss.backward()
        assert float(loss.value) == 0.0
