"""Gradient and value checks for the reverse-mode tape."""

import numpy as np
import pytest

from sessrec import tape
from sessrec.gradcheck import gradient_errors, max_relative_error, numerical_gradient
from sessrec.tape import Parameter, Tensor

TOL = 1e-4


def square(t):
    return tape.mul(t, t)


def check(loss_fn, params):
    errs = gradient_errors(loss_fn, params)
    worst = max(errs.values())
    assert worst < TOL, f"gradient mismatch: {errs}"


class TestArithmetic:
    def test_add_mul_broadcast(self):
        rng = np.random.default_rng(0)
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4,)))

        def loss():
            out = tape.mul(tape.add(a, b), tape.add(a, Tensor(np.float64(2.0))))
            return tape.tsum(tape.mul(out, out))

        check(loss, {"a": a, "b": b})

    def test_div_power(self):
        rng = np.random.default_rng(1)
        a = Parameter(rng.uniform(0.5, 2.0, (5,)))
        b = Parameter(rng.uniform(0.5, 2.0, (5,)))

        def loss():
            return tape.tsum(tape.div(tape.mul(a, square(a)), b))

        check(loss, {"a": a, "b": b})

    def test_sub_matches_value(self):
        a = Tensor(np.array([3.0, 1.0]))
        b = Tensor(np.array([1.0, 5.0]))
        np.testing.assert_array_equal(tape.sub(a, b).value, [2.0, -4.0])


class TestMatmul:
    def test_plain(self):
        rng = np.random.default_rng(2)
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4, 2)))

        def loss():
            return tape.tsum(square(tape.matmul(a, b)))

        check(loss, {"a": a, "b": b})

    def test_batched_with_broadcast(self):
        rng = np.random.default_rng(3)
        a = Parameter(rng.normal(size=(2, 3, 4)))
        b = Parameter(rng.normal(size=(4, 5)))

        def loss():
            return tape.tsum(square(tape.matmul(a, b)))

        check(loss, {"a": a, "b": b})

    def test_batched_square(self):
        rng = np.random.default_rng(4)
        adj = Parameter(rng.normal(size=(2, 3, 3)))
        x = Parameter(rng.normal(size=(2, 3, 4)))

        def loss():
            return tape.tsum(square(tape.matmul(adj, x)))

        check(loss, {"adj": adj, "x": x})


class TestShape:
    def test_reshape_concat_swap(self):
        rng = np.random.default_rng(5)
        a = Parameter(rng.normal(size=(2, 6)))
        b = Parameter(rng.normal(size=(2, 3)))

        def loss():
            wide = tape.concat([a, b], axis=-1)
            cube = tape.reshape(wide, (2, 3, 3))
            return tape.tsum(square(tape.swap_last(cube)))

        check(loss, {"a": a, "b": b})

    def test_swap_any_two_axes(self):
        rng = np.random.default_rng(6)
        a = Parameter(rng.normal(size=(2, 3, 4)))
        w = Tensor(rng.normal(size=(3, 2, 4)))
        np.testing.assert_array_equal(tape.swap_last(a, (0, -2)).value,
                                      np.swapaxes(a.value, 0, 1))
        check(lambda: tape.tsum(tape.mul(tape.swap_last(a, (0, 1)), w)),
              {"a": a})

    def test_getitem_fancy_accumulates(self):
        a = Parameter(np.ones((4, 2)))
        idx = np.array([0, 0, 3])

        def loss():
            return tape.tsum(tape.getitem(a, idx))

        g = numerical_gradient(loss, a)
        loss().backward()
        # row 0 picked twice, row 3 once, rows 1-2 never
        np.testing.assert_allclose(a.grad[:, 0], [2.0, 0.0, 0.0, 1.0])
        assert max_relative_error(a.grad, g) < TOL

    def test_getitem_tuple_key(self):
        rng = np.random.default_rng(6)
        a = Parameter(rng.normal(size=(3, 5, 2)))
        rows = np.array([[0, 1], [2, 0], [1, 1]])
        lead = np.arange(3)[:, None]

        def loss():
            return tape.tsum(square(tape.getitem(a, (lead, rows))))

        check(loss, {"a": a})


class TestReductionsAndNonlinear:
    def test_sum_mean_axes(self):
        rng = np.random.default_rng(7)
        a = Parameter(rng.normal(size=(3, 4)))

        def loss():
            part = tape.tmean(a, axis=0, keepdims=True)
            return tape.tsum(square(tape.sub(a, part)))

        check(loss, {"a": a})

    @pytest.mark.parametrize("op", [tape.sigmoid, tape.tanh, tape.exp,
                                    tape.softplus])
    def test_pointwise(self, op):
        rng = np.random.default_rng(8)
        a = Parameter(rng.normal(size=(6,)))

        def loss():
            return tape.tsum(tape.mul(op(a), op(a)))

        check(loss, {"a": a})

    def test_log_sqrt_positive_domain(self):
        rng = np.random.default_rng(9)
        a = Parameter(rng.uniform(0.5, 3.0, (6,)))

        def loss():
            return tape.tsum(tape.add(tape.log(a), tape.sqrt(a)))

        check(loss, {"a": a})

    def test_clip_min_blocks_gradient_below(self):
        a = Parameter(np.array([-1.0, 2.0]))
        out = tape.tsum(tape.clip_min(a, 0.0))
        out.backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])

    def test_log_softmax(self):
        rng = np.random.default_rng(10)
        a = Parameter(rng.normal(size=(3, 5)))
        target = np.array([1, 4, 0])

        def loss():
            lp = tape.log_softmax(a, axis=-1)
            picked = tape.getitem(lp, (np.arange(3), target))
            return tape.mul(tape.tsum(picked), Tensor(np.float64(-1.0)))

        check(loss, {"a": a})
        row = tape.log_softmax(Tensor(np.array([[1e4, 0.0]])), axis=-1).value
        assert np.isfinite(row).all()


class TestGeometry:
    # The two tests below cover the distance step of centered_distance_gram.
    def test_pairwise_distances_value(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = tape._distances(x[None])[0]
        np.testing.assert_allclose(d, [[0.0, 5.0], [5.0, 0.0]], atol=1e-12)
        # centred: [[-2.5, 2.5], [2.5, -2.5]]
        gram = tape.centered_distance_gram(Tensor(x[None])).value
        np.testing.assert_allclose(gram, [[6.25]], atol=1e-12)
        # repeats are grouped within a slice only: slice 1 holds the rows
        # of slice 0 in another order, plus noise on every other row
        rng = np.random.default_rng(10)
        group = rng.integers(0, 12, size=40)
        x = rng.uniform(size=(12, 6))[group]
        other = x[::-1].copy()
        other[::2] += 1e-3
        stack = np.stack([x, other])
        d = tape._distances(stack)
        assert (d[0][group[:, None] == group[None, :]] == 0.0).all()
        for s, dist in zip(stack, d):
            explicit = np.sqrt(((s[:, None, :] - s[None, :, :]) ** 2).sum(-1))
            np.testing.assert_allclose(dist, explicit, rtol=1e-12, atol=1e-12)

    def test_pairwise_distances_grad(self):
        rng = np.random.default_rng(11)
        # slice 0 repeats rows; slice 1 is 2 wide, zero-padded to 3 as
        # dcor pads a narrower sample
        a = rng.normal(size=(5, 3))[[0, 1, 2, 3, 4, 1, 3]]
        b = np.concatenate([rng.normal(size=(7, 2)), np.zeros((7, 1))], 1)
        x = Parameter(np.stack([a, b]))
        w = Tensor(rng.normal(size=(2, 2)))

        def loss():
            return tape.tsum(tape.mul(tape.centered_distance_gram(x), w))

        check(loss, {"x": x})

    def test_normalize_rows(self):
        rng = np.random.default_rng(12)
        a = Parameter(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(4, 3)))

        def loss():
            return tape.tsum(tape.mul(tape.normalize_rows(a), w))

        check(loss, {"a": a})

    def test_normalize_rows_zero_row(self):
        a = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
        out = tape.normalize_rows(a).value
        np.testing.assert_allclose(out, [[0.0, 0.0], [0.6, 0.8]], atol=1e-15)


def test_backward_accumulates_through_shared_nodes():
    a = Parameter(np.array([2.0]))
    shared = tape.mul(a, a)
    out = tape.add(shared, shared)
    out.backward()
    np.testing.assert_allclose(a.grad, [8.0])


def test_backward_requires_scalar():
    a = Parameter(np.ones((2, 2)))
    with pytest.raises(ValueError):
        tape.mul(a, a).backward()
