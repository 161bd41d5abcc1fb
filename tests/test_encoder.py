"""Attention readout against the straight-line oracle.

The readout takes node rows with sessions one after another; one
session is read as a batch of one, each position its own node.
"""

import numpy as np
import pytest

from oracles import attention_oracle, probe

from sessrec import tape
from sessrec.encoder import AttentionWeights, encode, encode_factors
from sessrec.rng import substream


def make_weights(d, seed=0):
    return AttentionWeights.init(d, substream(seed, "init"))


def as_dict(w):
    return {name.split(".")[-1]: p.value for name, p in
            w.named_parameters("a")}


def encode_alone(seq, w):
    """Read one (T, d) sequence as a batch of one; returns (d,)."""
    t = len(seq)
    return encode(seq, w, np.arange(t), [t]).value[0]


def encode_factors_alone(seqs, ws):
    """Read one session's (K, T, d_f) factor views as a batch of one."""
    t = seqs.shape[-2]
    return encode_factors(seqs, ws, np.arange(t), [t]).value[0]


class TestEncode:
    def test_matches_oracle(self):
        rng = substream(1, "x")
        w = make_weights(4, seed=2)
        for t in (1, 2, 5):
            seq = rng.normal(size=(t, 4))
            mine = encode_alone(seq, w)
            ref = attention_oracle(seq, as_dict(w))
            np.testing.assert_allclose(mine, ref, atol=1e-10, rtol=0)

    def test_batched_matches_unbatched(self):
        rng = substream(2, "x")
        w = make_weights(3, seed=3)
        lens = [2, 4, 3]
        seqs = [rng.normal(size=(n, 3)) for n in lens]
        out = encode(np.concatenate(seqs), w, np.arange(sum(lens)),
                     lens).value
        for i, s in enumerate(seqs):
            single = encode_alone(s, w)
            np.testing.assert_allclose(out[i], single, atol=1e-10, rtol=0)

    def test_padding_cannot_leak(self):
        # node rows that no position refers to, where padding used to
        # sit, neither score nor contribute
        rng = substream(3, "x")
        w = make_weights(3, seed=4)
        seq = rng.normal(size=(4, 3))
        a = encode(seq, w, [0, 1], [2]).value
        poisoned = seq.copy()
        poisoned[2:] = 1e6
        b = encode(poisoned, w, [0, 1], [2]).value
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_repeated_items_share_state_but_count_twice(self):
        # two occurrences of the same state contribute two attention terms
        w = make_weights(2, seed=5)
        state = substream(4, "x").normal(size=(1, 2))
        once = encode(state, w, [0, 0], [2]).value[0]
        # the mixed sum doubles relative to a single occurrence with the
        # same last anchor, so outputs must differ
        single = encode(state, w, [0], [1]).value[0]
        assert np.abs(once - single).max() > 0


def factor_slice(w, k):
    """Factor k's readout weights out of a factor-stacked set."""
    return AttentionWeights(*(tape.Parameter(p.value[k])
                              for _, p in w.named_parameters("a")))


class TestEncodeFactors:
    def test_concatenates_per_factor_readouts(self):
        rng = substream(7, "x")
        ws = AttentionWeights.init(2, substream(8, "init"), num_factors=2)
        seqs = rng.normal(size=(2, 3, 2))               # (K, T, d_f)
        out = encode_factors_alone(seqs, ws)
        assert out.shape == (4,)
        np.testing.assert_allclose(out[:2], encode_alone(seqs[0], factor_slice(ws, 0)),
                                   atol=1e-12)
        np.testing.assert_allclose(out[2:], encode_alone(seqs[1], factor_slice(ws, 1)),
                                   atol=1e-12)
        # a batch of two sessions (K, 3 + 4, d_f) reads each as if alone
        second = rng.normal(size=(2, 4, 2))
        both = encode_factors(np.concatenate([seqs, second], axis=1), ws,
                              np.arange(7), [3, 4]).value
        assert both.shape == (2, 4)
        np.testing.assert_allclose(both[0], out, atol=1e-12)
        np.testing.assert_allclose(both[1], encode_factors_alone(second, ws),
                                   atol=1e-12)

    def test_length_mismatch_rejected(self):
        ws = AttentionWeights.init(2, substream(0, "init"), num_factors=2)
        with pytest.raises(ValueError):
            encode_factors(np.ones((1, 2, 2)), ws, [0, 1], [2])

    def test_gradients_reach_attention(self):
        rng = substream(8, "x")
        w = make_weights(3, seed=10)
        seq = tape.Parameter(rng.normal(size=(4, 3)))
        out = encode(seq, w, np.arange(4), [4])
        probe(out, rng.normal(size=out.value.shape)).backward()
        assert np.abs(w.query.grad).max() > 0
        assert np.abs(w.w_merge.grad).max() > 0
        assert np.abs(seq.grad).max() > 0
