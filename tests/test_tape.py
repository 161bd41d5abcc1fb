"""Gradient and value checks for the reverse-mode tape."""

import inspect
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (attention_oracle, bce_oracle, dcor_oracle,
                     factor_cl_oracle, ggnn_step_oracle, gradient_errors,
                     item_cl_oracle, max_relative_error, numerical_gradient,
                     scores_oracle, session_average, sigmoid)

from sessrec import tape
from sessrec.disentangle import FactorProjection
from sessrec.encoder import AttentionWeights
from sessrec.propagation import GGNNWeights
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


class TestGatedUpdate:
    # the cell's inputs: states x, their edge sums a_in = adj_in x and
    # a_out = adj_out x over dense random adjacencies, and the ten
    # weights, 2-D or stacked on a leading factor axis of x
    @staticmethod
    def operands(lead, seed, m=4, d=3):
        rng = np.random.default_rng(seed)
        w = GGNNWeights.init(d, rng, num_factors=lead[0] if lead else None)
        x = rng.normal(size=lead + (m, d))
        adj_in, adj_out = rng.random((2,) + lead + (m, m))
        return x, adj_in, adj_out, w

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "stacked"])
    def test_matches_oracle(self, lead):
        x, adj_in, adj_out, w = self.operands(lead, 24)
        weights = [p for _, p in w.named_parameters("")]
        got = tape.gated_update(x, adj_in @ x, adj_out @ x, weights).value
        named = {name[1:]: p.value for name, p in w.named_parameters("")}
        for i in np.ndindex(*lead):
            ref = ggnn_step_oracle(x[i], adj_in[i], adj_out[i],
                                   {n: v[i] for n, v in named.items()})
            np.testing.assert_allclose(got[i], ref, atol=1e-10, rtol=0)

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["2d", "stacked"])
    def test_gradients(self, lead):
        x, adj_in, adj_out, w = self.operands(lead, 25)
        inputs = {"x": Parameter(x), "a_in": Parameter(adj_in @ x),
                  "a_out": Parameter(adj_out @ x)}
        named = {name[1:]: p for name, p in w.named_parameters("")}
        g = Tensor(np.random.default_rng(26).normal(size=x.shape))

        def loss():
            out = tape.gated_update(*inputs.values(), list(named.values()))
            return tape.tsum(tape.mul(out, g))

        check(loss, {**inputs, **named})


class TestSigmoidProjection:
    # rows (..., d) against a (K, d, d_f) weight, as 2-D rows and as a
    # batch of them
    @staticmethod
    def operands(shape, seed, k=3, d_f=2):
        rng = np.random.default_rng(seed)
        proj = FactorProjection.init(shape[-1], d_f, k, rng)
        return Parameter(rng.normal(size=shape)), proj.weight, proj.bias

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "batch"])
    def test_matches_oracle(self, shape):
        x, weight, bias = self.operands(shape, 40)
        got = tape.sigmoid_projection(x, weight, bias).value
        k, _, f = weight.value.shape
        assert got.shape == shape[:-1] + (k * f,)
        for s in range(k):
            want = sigmoid(x.value @ weight.value[s]) + bias.value[s]
            np.testing.assert_allclose(got[..., s * f:(s + 1) * f], want,
                                       atol=1e-10, rtol=0)

    @pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4)], ids=["2d", "batch"])
    def test_gradients(self, shape):
        x, weight, bias = self.operands(shape, 41)
        g = Tensor(np.random.default_rng(42).normal(size=shape[:-1] + (6,)))

        def loss():
            return tape.tsum(tape.mul(tape.sigmoid_projection(x, weight, bias),
                                      g))

        check(loss, {"x": x, "weight": weight, "bias": bias})


# Node rows 0..5 of three sessions: one position (row 0), all repeats
# (row 1 three times) and a revisit (rows 2, 3, 2, 4); row 5 is a node
# that no position refers to.
READOUT_ALIAS = np.array([0, 1, 1, 1, 2, 3, 2, 4])
READOUT_LENGTHS = np.array([1, 3, 4])
READOUT_CASES = pytest.mark.parametrize(
    "lead,normalize", [((), False), ((), True), ((2,), False), ((2,), True)],
    ids=["2d", "2d_softmax", "stacked", "stacked_softmax"])


def _readout_operands(lead, seed, d=3, m=6):
    """States (lead + (m, d)) and readout weights, 2-D or stacked."""
    rng = np.random.default_rng(seed)
    w = AttentionWeights.init(d, rng, num_factors=lead[0] if lead else None)
    return (Parameter(rng.normal(size=lead + (m, d))),
            [p for _, p in w.named_parameters("")])


class TestAttentionReadout:
    @READOUT_CASES
    def test_matches_oracle(self, lead, normalize):
        h, weights = _readout_operands(lead, 43)
        got = tape.attention_readout(h, READOUT_ALIAS, READOUT_LENGTHS,
                                     weights, normalize).value
        d = h.value.shape[-1]
        assert got.shape == (3, (lead[0] if lead else 1) * d)
        names = ("query", "w_current", "w_last", "w_merge")
        starts = np.cumsum(READOUT_LENGTHS) - READOUT_LENGTHS
        for s in np.ndindex(*lead):
            w = {n: p.value[s] for n, p in zip(names, weights)}
            col = slice(s[0] * d, (s[0] + 1) * d) if lead else slice(None)
            for b, (lo, n) in enumerate(zip(starts, READOUT_LENGTHS)):
                seq = h.value[s][READOUT_ALIAS[lo:lo + n]]
                np.testing.assert_allclose(
                    got[b, col], attention_oracle(seq, w, normalize),
                    atol=1e-10, rtol=0)

    @READOUT_CASES
    def test_gradients(self, lead, normalize):
        h, weights = _readout_operands(lead, 44)
        g = Tensor(np.random.default_rng(45).normal(
            size=(3, (lead[0] if lead else 1) * 3)))

        def loss():
            out = tape.attention_readout(h, READOUT_ALIAS, READOUT_LENGTHS,
                                         weights, normalize)
            return tape.tsum(tape.mul(out, g))

        check(loss, {"h": h, **{f"w{i}": w for i, w in enumerate(weights)}})

    @pytest.mark.parametrize("normalize", [False, True],
                             ids=["raw", "softmax"])
    def test_unreferenced_row_gets_no_gradient(self, normalize):
        h, weights = _readout_operands((2,), 46)
        out = tape.attention_readout(h, READOUT_ALIAS, READOUT_LENGTHS,
                                     weights, normalize)
        tape.tsum(tape.mul(out, out)).backward()
        assert (h.grad[:, 5] == 0.0).all()
        assert (h.grad[:, :5] != 0.0).any(axis=-1).all()

    def test_misstacked_weights_rejected(self):
        # stacked weights over 2-D states would broadcast the scores to
        # (K, P) and then be read as one slice of K P positions
        _, weights = _readout_operands((2,), 48)
        with pytest.raises(ValueError, match="stacked"):
            tape.attention_readout(np.ones((6, 3)), READOUT_ALIAS,
                                   READOUT_LENGTHS, weights)


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
            part = tape.tsum(a, axis=0)
            centred = tape.add(a, tape.mul(part, Tensor(np.float64(-1 / 3))))
            return tape.tsum(square(centred))

        check(loss, {"a": a})


def edge_oracle(values, x, src, dst, m):
    """out[..., dst[e], :] += values[..., e] * x[..., src[e], :], one edge
    at a time."""
    lead = np.broadcast_shapes(values.shape[:-1], x.shape[:-2])
    values = np.broadcast_to(values, lead + values.shape[-1:])
    x = np.broadcast_to(x, lead + x.shape[-2:])
    out = np.zeros(lead + (m, x.shape[-1]))
    for idx in np.ndindex(*lead):
        for e, (i, j) in enumerate(zip(src, dst)):
            out[idx + (j,)] += values[idx + (e,)] * x[idx + (i,)]
    return out


# edges 0->1 twice, a self-loop, and a row that receives nothing
SRC = np.array([0, 0, 2, 3, 1, 3])
DST = np.array([1, 1, 2, 0, 4, 1])
EDGE_CASES = {
    "flat": ((6,), (4, 3)),
    "stacked": ((2, 6), (2, 4, 3)),
    "stacked_values": ((2, 6), (4, 3)),
    "stacked_x": ((6,), (2, 4, 3)),
}


class TestEdgeMatmul:
    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_matches_scatter_oracle(self, case):
        v_shape, x_shape = EDGE_CASES[case]
        rng = np.random.default_rng(20)
        v, x = rng.normal(size=v_shape), rng.normal(size=x_shape)
        out = tape.edge_matmul(v, x, SRC, DST, 5).value
        np.testing.assert_allclose(out, edge_oracle(v, x, SRC, DST, 5),
                                   atol=1e-10, rtol=0)

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_gradients(self, case):
        v_shape, x_shape = EDGE_CASES[case]
        rng = np.random.default_rng(21)
        v, x = Parameter(rng.normal(size=v_shape)), Parameter(
            rng.normal(size=x_shape))

        def loss():
            return tape.tsum(square(tape.edge_matmul(v, x, SRC, DST, 5)))

        check(loss, {"values": v, "x": x})

    def test_no_edges(self):
        x = Parameter(np.random.default_rng(22).normal(size=(3, 2)))
        v = Parameter(np.zeros((2, 0)))
        empty = np.zeros(0, dtype=np.int64)
        out = tape.edge_matmul(v, x, empty, empty, 4)
        np.testing.assert_array_equal(out.value, np.zeros((2, 4, 2)))
        tape.tsum(tape.mul(out, Tensor(np.ones((2, 4, 2))))).backward()
        np.testing.assert_array_equal(x.grad, np.zeros((3, 2)))
        assert v.grad.shape == (2, 0)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="edges must run"):
            tape.edge_matmul(np.ones(1), np.ones((2, 2)), [2], [0], 2)


def _head_inputs(seed, heads, batched, n=7, d=3):
    """Catalog views and session embeddings of ``heads`` heads, and the
    heads as ``mean_softmax`` takes them: (session, catalog) pairs whose
    sessions are (B, d) rows when ``batched``, else one (d,) row."""
    rng = np.random.default_rng(seed)
    catalogs = [rng.normal(size=(n, d)) for _ in range(heads)]
    sessions = [rng.normal(size=(2 if batched else 1, d)) * 2.0
                for _ in range(heads)]
    pairs = [(s if batched else s[0], c) for s, c in zip(sessions, catalogs)]
    return catalogs, sessions, pairs


def _head_params(pairs):
    """Each head's session and catalog as parameters, and the heads."""
    heads = [(Parameter(s), Parameter(c)) for s, c in pairs]
    params = {f"{name}{h}": t for h, pair in enumerate(heads)
              for name, t in zip(("session", "catalog"), pair)}
    return params, heads


def _tensor_heads(pairs):
    return [(Tensor(s), Tensor(c)) for s, c in pairs]


def _oracle_scores(catalogs, sessions):
    """scores_oracle row by row: one head, or the mean of two."""
    item_c, factor_c = catalogs[0], catalogs[-1]
    return np.array([
        scores_oracle(sessions[0][b], sessions[-1][b], item_c, factor_c,
                      use_factor_head=len(catalogs) == 2)
        for b in range(len(sessions[0]))])


HEAD_CASES = pytest.mark.parametrize("heads,batched", [
    (1, False), (2, False), (1, True), (2, True)],
    ids=["one_head_row", "two_heads_row", "one_head_batch", "two_heads_batch"])


def _large_heads(seed, rows=512, n=2000, d=16):
    """Two heads of ``rows`` sessions over ``n`` items, logits of scale 4."""
    rng = np.random.default_rng(seed)
    return [(Parameter(rng.normal(size=(rows, d))),
             Parameter(rng.normal(size=(n, d)) * 4.0 / np.sqrt(d)))
            for _ in range(2)]


class TestMeanSoftmax:
    @HEAD_CASES
    def test_matches_oracle(self, heads, batched):
        catalogs, sessions, pairs = _head_inputs(30, heads, batched)
        expect = _oracle_scores(catalogs, sessions)
        got = tape.mean_softmax(*_tensor_heads(pairs)).value
        assert got.shape == pairs[0][0].shape[:-1] + (len(catalogs[0]),)
        np.testing.assert_allclose(got.reshape(expect.shape), expect,
                                   atol=1e-10, rtol=0)

    @HEAD_CASES
    def test_gradients(self, heads, batched):
        _, _, pairs = _head_inputs(31, heads, batched)
        params, heads = _head_params(pairs)
        weight = Tensor(np.random.default_rng(32).normal(
            size=pairs[0][0].shape[:-1] + (len(pairs[0][1]),)))

        def loss():
            p = tape.mean_softmax(*heads)
            return tape.tsum(tape.mul(square(p), weight))

        check(loss, params)

    def test_large_batch_rows_sum_to_one(self):
        heads = _large_heads(33)
        recorded = tape.mean_softmax(*heads)
        with tape.no_grad():
            unrecorded = tape.mean_softmax(*heads)
        for p in (recorded, unrecorded):
            np.testing.assert_allclose(p.value.sum(axis=1), 1.0, atol=1e-9,
                                       rtol=0)
        # one path: keeping the per-head probabilities changes no number
        np.testing.assert_array_equal(unrecorded.value, recorded.value)
        assert unrecorded._backward is None and not unrecorded._parents

    @pytest.mark.parametrize("recorded,bound", [(False, 1.5), (True, 3.5)],
                             ids=["no_graph", "graph"])
    def test_peak_memory(self, recorded, bound):
        # in units of one (B, N) array: the output, plus each head's
        # probabilities only while a graph is recorded
        heads = _large_heads(37)
        tracemalloc.start()
        try:
            if recorded:
                out = tape.mean_softmax(*heads)
            else:
                with tape.no_grad():
                    out = tape.mean_softmax(*heads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / out.value.nbytes <= bound

    def test_mismatched_heads_rejected(self):
        # another catalog size, another session count, a catalog width
        # unlike its sessions'
        first = (Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3))))
        for s, c in [((2, 3), (4, 3)), ((3, 3), (5, 3)), ((2, 3), (5, 2))]:
            with pytest.raises(ValueError):
                tape.mean_softmax(first, (Tensor(np.zeros(s)),
                                          Tensor(np.zeros(c))))


class TestOnehotBce:
    @HEAD_CASES
    def test_matches_oracle(self, heads, batched):
        catalogs, sessions, pairs = _head_inputs(34, heads, batched)
        p = tape.mean_softmax(*_tensor_heads(pairs))
        targets = np.array([3, 0]) if batched else 5
        loss = float(tape.onehot_bce(p, targets, 1e-12).value)
        rows = _oracle_scores(catalogs, sessions)
        expect = np.mean([bce_oracle(r, t) for r, t in
                          zip(rows, np.broadcast_to(targets, len(rows)))])
        assert loss == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize("batched", [False, True], ids=["row", "batch"])
    def test_clamp_at_both_ends(self, batched):
        # p_t below the floor, and items other than the target within the
        # floor of 1; the clamped entries take no gradient
        row = np.array([1e-14, 0.3, 1.0 - 1e-14, 1.0, 0.2])
        p = Parameter(np.stack([row, row[::-1]]) if batched else row)
        targets = np.array([0, 4]) if batched else 0
        loss = tape.onehot_bce(p, targets, 1e-12)
        rows = p.value.reshape(-1, 5)
        expect = np.mean([bce_oracle(r, t) for r, t in
                          zip(rows, np.broadcast_to(targets, len(rows)))])
        assert float(loss.value) == pytest.approx(expect, abs=1e-10)
        loss.backward()
        grad = p.grad.reshape(-1, 5)
        clamped = np.array([[True, False, True, True, False]])
        if batched:
            clamped = np.concatenate([clamped, clamped[:, ::-1]])
        assert (grad[clamped] == 0.0).all()
        assert (grad[~clamped] != 0.0).all()

    @pytest.mark.parametrize("batched", [False, True], ids=["row", "batch"])
    def test_gradients(self, batched):
        rng = np.random.default_rng(35)
        p = Parameter(rng.uniform(0.05, 0.9, (3, 6) if batched else (6,)))
        targets = np.array([1, 5, 0]) if batched else 2

        check(lambda: tape.onehot_bce(p, targets, 1e-12), {"p": p})

    @pytest.mark.parametrize("target", [-1, 5])
    def test_target_outside_row_rejected(self, target):
        with pytest.raises(ValueError):
            tape.onehot_bce(Tensor(np.full((2, 5), 0.2)), [0, target], 1e-12)

    @HEAD_CASES
    def test_gradients_through_mean_softmax(self, heads, batched):
        _, _, pairs = _head_inputs(36, heads, batched)
        params, heads = _head_params(pairs)
        targets = np.array([6, 2]) if batched else 4

        def loss():
            return tape.onehot_bce(tape.mean_softmax(*heads), targets, 1e-12)

        check(loss, params)


class TestGeometry:
    # The two tests below cover the distance step of
    # distance_correlation_sum.
    def test_pairwise_distances_value(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        d = tape._distances(x[None])[0]
        np.testing.assert_allclose(d, [[0.0, 5.0], [5.0, 0.0]], atol=1e-12)
        # centred: [[-2.5, 2.5], [2.5, -2.5]], and twice that for 2 x, so
        # each order of the one pair has dcor 1
        total = tape.distance_correlation_sum(Tensor(np.stack([x, 2.0 * x])))
        assert float(total.value) == pytest.approx(2.0, abs=1e-12)
        # repeats are grouped within a slice only: slice 1 holds the rows
        # of slice 0 in another order, plus noise on every other row
        rng = np.random.default_rng(10)
        group = rng.integers(0, 12, size=40)
        x = rng.uniform(size=(12, 6))[group]
        other = x[::-1].copy()
        other[::2] += 1e-3
        stack = np.stack([x, other])
        d = tape._distances(stack)
        # exact zeros, where the expanded square leaves rounding noise:
        # every diagonal, and every pair of equal rows
        assert (np.diagonal(d, axis1=1, axis2=2) == 0.0).all()
        assert (d[0][group[:, None] == group[None, :]] == 0.0).all()
        for s, dist in zip(stack, d):
            explicit = np.sqrt(((s[:, None, :] - s[None, :, :]) ** 2).sum(-1))
            np.testing.assert_allclose(dist, explicit, rtol=1e-12, atol=1e-12)

    def test_pairwise_distances_grad(self):
        rng = np.random.default_rng(11)
        # slice 0 repeats rows, exactly 0 apart; slice 1 is 2 wide,
        # zero-padded to 3, as the dcor tests pad a narrower sample.  The
        # copies move together: one copy moved alone meets the kink at
        # zero distance, where the rounding of a tiny distance swamps a
        # finite difference
        rows = np.array([0, 1, 2, 3, 4, 1, 3])
        a = Parameter(rng.normal(size=(5, 3)))
        b = Parameter(np.concatenate([rng.normal(size=(7, 2)),
                                      np.zeros((7, 1))], 1))

        def loss():
            x = tape.concat([tape.reshape(tape.getitem(a, rows), (1, 7, 3)),
                             tape.reshape(b, (1, 7, 3))], axis=0)
            return tape.distance_correlation_sum(x)

        check(loss, {"a": a, "b": b})

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


def repeated_rows(seed, k=3, d=4):
    """A (K, m, d) stack whose rows repeat in every slice: distinct rows 0,
    1 and 2 occur 1, 2 and 5 times, rows 3..5 once each, shuffled.
    Returns the stack and each row's distinct-row index."""
    rng = np.random.default_rng(seed)
    rows = rng.permutation([0, 1, 1, 2, 2, 2, 2, 2, 3, 4, 5])
    return rng.normal(size=(k, 6, d))[:, rows], rows


def ordered_pair_oracle(x):
    """dcor_oracle summed over every ordered pair of slices of x."""
    k = len(x)
    return sum(dcor_oracle(x[i], x[j]) for i in range(k) for j in range(k)
               if i != j)


class TestMergedRows:
    """distance_correlation_sum merges rows equal in every slice and
    weights them by count; the result is the m-row computation's."""

    def test_matches_every_row_oracle(self):
        x, _ = repeated_rows(20)
        total = tape.distance_correlation_sum(Tensor(x)).value
        assert float(total) == pytest.approx(ordered_pair_oracle(x),
                                             abs=1e-10)

    def test_distances_see_distinct_rows_only(self, monkeypatch):
        # rows repeated in slice 0 only stay apart, and exactly 0 apart
        x, rows = repeated_rows(21)
        x[0, rows == 3] = x[0, rows == 4]
        seen = []
        distances = tape._distances

        def record(xu):
            seen.append((xu.copy(), distances(xu)))
            return seen[-1][1]

        monkeypatch.setattr(tape, "_distances", record)
        total = tape.distance_correlation_sum(Tensor(x)).value
        (xu, dist), = seen
        assert xu.shape == (3, 6, 4)
        np.testing.assert_array_equal(np.unique(xu, axis=1),
                                      np.unique(x, axis=1))
        twins = (xu[0] == x[0, rows == 4]).all(axis=1)
        assert twins.sum() == 2
        assert dist[0][np.ix_(twins, twins)].max() == 0.0
        assert float(total) == pytest.approx(ordered_pair_oracle(x),
                                             abs=1e-10)

    def test_gradients_with_unequal_counts(self):
        x, _ = repeated_rows(22)
        x = Parameter(x)

        check(lambda: tape.distance_correlation_sum(x), {"x": x})

    def test_copies_share_one_gradient(self):
        x, rows = repeated_rows(24)
        x = Parameter(x)
        tape.distance_correlation_sum(x).backward()
        for r in range(6):
            copies = x.grad[:, rows == r]
            np.testing.assert_array_equal(copies, np.broadcast_to(
                copies[:, :1], copies.shape))
        assert np.abs(x.grad).max() > 0.0


class TestDistanceCorrelationSum:
    def test_matches_pair_oracle(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(4, 9, 3))
        x[2] = np.tanh(x[0] @ rng.normal(size=(3, 3)))     # a dependent pair
        total = tape.distance_correlation_sum(Tensor(x)).value
        assert float(total) == pytest.approx(ordered_pair_oracle(x),
                                             abs=1e-10)

    def test_gradients(self):
        x = Parameter(np.random.default_rng(26).normal(size=(3, 8, 2)))

        check(lambda: tape.distance_correlation_sum(x), {"x": x})

    def test_zero_variance_pairs_add_zero(self):
        # slice 1 is constant: its two pairs add exactly 0, and it takes
        # no gradient
        rng = np.random.default_rng(27)
        x = rng.normal(size=(3, 7, 2))
        x[1] = 0.4
        x = Parameter(x)
        total = tape.distance_correlation_sum(x)
        assert float(total.value) == pytest.approx(
            2.0 * dcor_oracle(x.value[0], x.value[2]), abs=1e-10)
        total.backward()
        np.testing.assert_array_equal(x.grad[1], np.zeros((7, 2)))

    def test_uncorrelated_pair_adds_zero(self):
        # the corners of the unit square: as samples, the two coordinates
        # are exactly independent, and every number in their Gram entry
        # is dyadic, so the squared covariance is exactly 0; that pair
        # adds 0 and no 0 / 0 reaches the gradient
        x = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 0.0, 1.0]])
        x = Parameter(np.stack([*x, x[0] + 0.3 * x[1]])[:, :, None])
        total = tape.distance_correlation_sum(x)
        assert dcor_oracle(x.value[0], x.value[1]) == 0.0
        assert float(total.value) == pytest.approx(
            ordered_pair_oracle(x.value), abs=1e-10)
        total.backward()
        assert np.isfinite(x.grad).all()

    def test_no_pair_left_is_a_constant(self):
        x = Parameter(np.stack([np.random.default_rng(28).normal(size=(5, 2)),
                                np.ones((5, 2))]))
        total = tape.distance_correlation_sum(x)
        assert float(total.value) == 0.0
        assert total._backward is None and not total.requires_grad


# Sessions of 4, 1, 3 and 2 nodes one after another, rows 0-3, 4, 5-7
# and 8-9; row weights as the model's: 1 / (nodes * sessions) for each
# of the three sessions with at least 2 nodes, 0 for the one-node one.
CONTRAST_NODES = np.array([4, 1, 3, 2])
CONTRAST_WEIGHT = np.repeat((CONTRAST_NODES >= 2) / (CONTRAST_NODES * 3.0),
                            CONTRAST_NODES)
LONE_ROW = 4
# case -> (leading axes, the partner: "positive", "anchor" or its own
# tensor, bilinear)
CONTRAST_CASES = {"2d": ((), "positive", False),
                  "2d_bilinear": ((), "positive", True),
                  "2d_own_partner": ((), "own", False),
                  "stacked": ((2,), "anchor", False),
                  "stacked_bilinear": ((2,), "positive", True)}


def _contrast_negatives(rng, lead, per=3):
    """``per`` draws of other rows of each row's session; the one-node
    session's row is its own negative."""
    idx = np.empty(lead + (CONTRAST_NODES.sum(), per), dtype=np.int64)
    for start, k in zip(np.cumsum(CONTRAST_NODES) - CONTRAST_NODES,
                        CONTRAST_NODES):
        for j in range(k):
            others = [start + o for o in range(k) if o != j] or [start]
            idx[..., start + j, :] = rng.choice(others, size=lead + (per,))
    return idx


def _contrast_operands(case, seed, d=3):
    """``(anchor, positive, partner, neg_idx, bilinear)`` as Parameters;
    partner is the positive or the anchor itself where the case says."""
    lead, partner, bilinear = CONTRAST_CASES[case]
    rng = np.random.default_rng(seed)
    shape = lead + (CONTRAST_NODES.sum(), d)
    a, p, c = (Parameter(rng.normal(size=shape)) for _ in range(3))
    c = {"positive": p, "anchor": a, "own": c}[partner]
    w = Parameter(rng.normal(size=(d, d))) if bilinear else None
    return a, p, c, _contrast_negatives(rng, lead), w


class TestPairContrast:
    @pytest.mark.parametrize("case", [c for c in CONTRAST_CASES
                                      if c != "2d_own_partner"])
    def test_matches_oracle(self, case):
        a, p, c, neg, w = _contrast_operands(case, 40)
        got = tape.pair_contrast(a, p, c, neg, CONTRAST_WEIGHT, w).value
        # (a W) . b is the dot product of the mapped anchor
        anchor = a.value if w is None else a.value @ w.value
        if a.value.ndim == 2:
            def per_session(rows):
                return item_cl_oracle(anchor[rows], p.value[rows],
                                      neg[rows] - rows.start)
        else:
            # the oracle's within-view partner is its anchor, unmapped, so
            # the within-view case is a dot case
            scheme = "within_view" if c is a else "cross_view"

            def per_session(rows):
                return factor_cl_oracle(list(anchor[:, rows]),
                                        list(p.value[:, rows]),
                                        list(neg[:, rows] - rows.start),
                                        scheme)
        want = session_average(per_session, CONTRAST_NODES)
        assert float(got) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("case", CONTRAST_CASES)
    def test_gradients(self, case):
        a, p, c, neg, w = _contrast_operands(case, 41)
        params = {"anchor": a, "positive": p}
        if c is not a and c is not p:
            params["partner"] = c
        if w is not None:
            params["bilinear"] = w

        check(lambda: tape.pair_contrast(a, p, c, neg, CONTRAST_WEIGHT, w),
              params)

    @pytest.mark.parametrize("case", CONTRAST_CASES)
    def test_lone_node_rows_get_zero_gradient(self, case):
        # weight 0: the one-node session's rows neither move the value
        # nor take gradient, however large they are
        a, p, c, neg, w = _contrast_operands(case, 42)
        before = tape.pair_contrast(a, p, c, neg, CONTRAST_WEIGHT, w)
        for t in (a, p, c):
            t.value[..., LONE_ROW, :] = 50.0
        out = tape.pair_contrast(a, p, c, neg, CONTRAST_WEIGHT, w)
        assert float(out.value) == float(before.value)
        out.backward()
        for t in (a, p, c):
            assert np.abs(t.grad).max() > 0.0
            np.testing.assert_array_equal(t.grad[..., LONE_ROW, :], 0.0)

    def test_misshaped_negatives_rejected(self):
        a, p, c, neg, _ = _contrast_operands("2d", 43)
        with pytest.raises(ValueError, match="neg_idx"):
            tape.pair_contrast(a, p, c, neg[:, :, None], CONTRAST_WEIGHT)


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


def test_every_op_has_a_caller_in_src():
    # a tape op that only tests reach is dead code: each public function
    # of the tape, bar the two that make no node, is called as
    # ``tape.<name>(`` somewhere else in the package
    package = Path(tape.__file__).parent
    source = "".join(p.read_text(encoding="utf-8")
                     for p in sorted(package.glob("*.py"))
                     if p.name != "tape.py")
    ops = [name for name, fn in inspect.getmembers(tape, inspect.isfunction)
           if fn.__module__ == tape.__name__ and not name.startswith("_")
           and name not in ("as_tensor", "no_grad")]
    assert len(ops) > 10
    unused = [op for op in ops
              if not re.search(rf"\btape\.{op}\(", source)]
    assert not unused, f"tape ops with no caller in src: {unused}"
