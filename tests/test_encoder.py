"""Attention readout against the straight-line oracle."""

import numpy as np
import pytest

from oracles import attention_oracle

from sessrec import tape
from sessrec.encoder import AttentionWeights, encode, encode_factors
from sessrec.rng import substream


def make_weights(d, seed=0):
    return AttentionWeights.init(d, substream(seed, "init"))


def as_dict(w):
    return {name.split(".")[-1]: p.value for name, p in
            w.named_parameters("a")}


class TestEncode:
    def test_matches_oracle(self):
        rng = substream(1, "x")
        w = make_weights(4, seed=2)
        for t in (1, 2, 5):
            seq = rng.normal(size=(t, 4))
            mine = encode(seq, w).value
            ref = attention_oracle(seq, as_dict(w))
            np.testing.assert_allclose(mine, ref, atol=1e-10, rtol=0)

    def test_batched_matches_unbatched(self):
        rng = substream(2, "x")
        w = make_weights(3, seed=3)
        lens = [2, 4, 3]
        seqs = [rng.normal(size=(n, 3)) for n in lens]
        t = max(lens)
        padded = np.zeros((3, t, 3))
        mask = np.zeros((3, t))
        for i, s in enumerate(seqs):
            padded[i, :len(s)] = s
            mask[i, :len(s)] = 1.0
        out = encode(padded, w, last_position=np.array(lens) - 1,
                     pos_mask=mask).value
        for i, s in enumerate(seqs):
            single = encode(s, w).value
            np.testing.assert_allclose(out[i], single, atol=1e-10, rtol=0)

    def test_padding_cannot_leak(self):
        rng = substream(3, "x")
        w = make_weights(3, seed=4)
        seq = rng.normal(size=(1, 4, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        a = encode(seq, w, last_position=np.array([1]), pos_mask=mask).value
        poisoned = seq.copy()
        poisoned[0, 2:] = 1e6
        b = encode(poisoned, w, last_position=np.array([1]),
                   pos_mask=mask).value
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_repeated_items_share_state_but_count_twice(self):
        # two occurrences of the same state contribute two attention terms
        w = make_weights(2, seed=5)
        state = substream(4, "x").normal(size=(1, 2))
        once = encode(np.vstack([state, state]), w).value
        # the mixed sum doubles relative to a single occurrence with the
        # same last anchor, so outputs must differ
        single = encode(state, w).value
        assert np.abs(once - single).max() > 0

    def test_normalized_scores_sum_to_one(self):
        rng = substream(5, "x")
        w = make_weights(3, seed=6)
        seq = tape.Tensor(rng.normal(size=(4, 3)))
        from sessrec.encoder import attention_scores
        scores = attention_scores(seq, tape.getitem(seq, 3), w)
        alpha = tape.exp(tape.log_softmax(scores, axis=-2))
        assert float(tape.tsum(alpha).value) == pytest.approx(1.0)

    def test_normalize_flag_changes_output(self):
        rng = substream(6, "x")
        w = make_weights(3, seed=7)
        seq = rng.normal(size=(4, 3))
        raw = encode(seq, w, normalize_scores=False).value
        soft = encode(seq, w, normalize_scores=True).value
        assert np.abs(raw - soft).max() > 1e-8


def factor_slice(w, k):
    """Factor k's readout weights out of a factor-stacked set."""
    return AttentionWeights(*(tape.Parameter(p.value[k])
                              for _, p in w.named_parameters("a")))


class TestEncodeFactors:
    def test_concatenates_per_factor_readouts(self):
        rng = substream(7, "x")
        ws = AttentionWeights.init(2, substream(8, "init"), num_factors=2)
        seqs = rng.normal(size=(2, 3, 2))               # (K, T, d_f)
        out = encode_factors(seqs, ws).value
        assert out.shape == (4,)
        np.testing.assert_allclose(out[:2], encode(seqs[0], factor_slice(ws, 0)).value,
                                   atol=1e-12)
        np.testing.assert_allclose(out[2:], encode(seqs[1], factor_slice(ws, 1)).value,
                                   atol=1e-12)
        # a padded batch (B, K, T, d_f) reads each session as if alone
        batch = np.zeros((2, 2, 4, 2))
        batch[0, :, :3] = seqs
        batch[1] = rng.normal(size=(2, 4, 2))
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
        both = encode_factors(batch, ws, np.array([[2], [3]]),
                              mask[:, None]).value
        assert both.shape == (2, 4)
        np.testing.assert_allclose(both[0], out, atol=1e-12)
        np.testing.assert_allclose(both[1], encode_factors(batch[1], ws).value,
                                   atol=1e-12)

    def test_normalized_padded_batch_matches_alone(self):
        # the softmax readout masks padding in the factor-stacked batch too
        rng = substream(11, "x")
        ws = AttentionWeights.init(3, substream(12, "init"), num_factors=2)
        short = rng.normal(size=(2, 2, 3))
        batch = np.zeros((2, 2, 5, 3))
        batch[0, :, :2] = short
        batch[0, :, 2:] = 50.0                 # padding that must not count
        batch[1] = rng.normal(size=(2, 5, 3))
        mask = np.array([[1.0, 1.0, 0.0, 0.0, 0.0], [1.0] * 5])
        both = encode_factors(batch, ws, np.array([[1], [4]]), mask[:, None],
                              normalize_scores=True).value
        for row, seqs in zip(both, (short, batch[1])):
            alone = encode_factors(seqs, ws, normalize_scores=True).value
            np.testing.assert_allclose(row, alone, atol=1e-12)

    def test_length_mismatch_rejected(self):
        ws = AttentionWeights.init(2, substream(0, "init"), num_factors=2)
        with pytest.raises(ValueError):
            encode_factors(np.ones((1, 2, 2)), ws)

    def test_gradients_reach_attention(self):
        rng = substream(8, "x")
        w = make_weights(3, seed=10)
        seq = tape.Parameter(rng.normal(size=(4, 3)))
        out = encode(seq, w)
        tape.tsum(tape.mul(out, out)).backward()
        assert np.abs(w.query.grad).max() > 0
        assert np.abs(w.w_merge.grad).max() > 0
        assert np.abs(seq.grad).max() > 0
