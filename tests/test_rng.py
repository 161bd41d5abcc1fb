"""The counter-based generator behind the training draws: bit-for-bit
agreement with numpy's Philox, its addressing, and its input checks."""

import numpy as np
import pytest

from oracles import philox_uniform_oracle

from sessrec.rng import philox, uniforms

WORD = 2 ** 64

KEYS = [(0, 0), (1, 2), (WORD - 1, WORD - 1), (0x0123456789ABCDEF, 7),
        (2 ** 63, 2 ** 32 + 5)]
COUNTERS = [(0, 0, 0, 0), (1, 0, 0, 0), (WORD - 1, 0, 0, 0),
            (5, 9, 1, 0), (3, WORD - 1, 2 ** 40, 11),
            (WORD - 1, WORD - 1, WORD - 1, WORD - 1)]


class TestPhilox:
    @pytest.mark.parametrize("key", KEYS)
    def test_matches_numpy_bit_for_bit(self, key):
        for counter in COUNTERS:
            value = sum(c << (64 * i) for i, c in enumerate(counter))
            bits = np.random.Philox(key=key[0] + (key[1] << 64),
                                    counter=(value - 1) % 2 ** 256)
            got = philox(key, [np.uint64(c) for c in counter])
            assert [int(w) for w in got] == \
                [int(w) for w in bits.random_raw(4)], counter

    def test_vectorized_blocks_match_one_at_a_time(self):
        lane = np.array([0, 1, 2 ** 40, WORD - 1], dtype=np.uint64)
        got = philox((3, 4), (lane[:, None], lane[None, :], np.uint64(6),
                              np.uint64(0)))
        assert got[0].shape == (4, 4)
        for i, a in enumerate(lane):
            for j, b in enumerate(lane):
                one = philox((3, 4), (a, b, np.uint64(6), np.uint64(0)))
                assert [int(w[i, j]) for w in got] == [int(w) for w in one]


class TestUniforms:
    def test_matches_generator_random(self):
        sessions = np.array([0, 5, 5, 2 ** 40])
        slots = np.array([0, 0, 17, 3])
        got = uniforms(3, "star", 2, sessions, slots, stream=1)
        want = [philox_uniform_oracle(3, "star", 2, int(s), int(t), 1)
                for s, t in zip(sessions, slots)]
        np.testing.assert_array_equal(got, want)
        assert ((got >= 0.0) & (got < 1.0)).all()

    def test_broadcasts_sessions_against_slots(self):
        got = uniforms(1, "negatives", 0, np.array([[4], [8]]), np.arange(3))
        assert got.shape == (2, 3)
        np.testing.assert_array_equal(
            got[1], uniforms(1, "negatives", 0, 8, np.arange(3)))

    @pytest.mark.parametrize("change", [
        dict(seed=2), dict(purpose="dropout"), dict(epoch=1), dict(stream=1),
    ])
    def test_each_key_part_changes_the_draws(self, change):
        base = dict(seed=1, purpose="star", epoch=0, stream=0)
        sessions, slots = np.arange(8), np.arange(8)
        a = uniforms(sessions=sessions, slots=slots, **base)
        b = uniforms(sessions=sessions, slots=slots, **{**base, **change})
        assert not np.isin(a, b).any()

    def test_deterministic(self):
        a = uniforms(9, "star", 4, np.arange(50), np.arange(50) % 7)
        b = uniforms(9, "star", 4, np.arange(50), np.arange(50) % 7)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [
        dict(seed=-1), dict(seed=WORD), dict(epoch=-1), dict(epoch=2 ** 32),
        dict(sessions=[-1]), dict(sessions=[WORD]),
        dict(sessions=np.array([3, -2])), dict(slots=[-1]),
        dict(stream=-1), dict(sessions=[1.5]),
    ], ids=["seed_negative", "seed_oversize", "epoch_negative",
            "epoch_oversize", "session_negative", "session_oversize",
            "session_array_negative", "slot_negative", "stream_negative",
            "session_float"])
    def test_wrapping_input_rejected(self, bad):
        args = dict(seed=1, purpose="star", epoch=0, sessions=[1], slots=[0])
        args.update(bad)
        with pytest.raises(ValueError, match=next(iter(bad))):
            uniforms(**args)

    def test_empty_request(self):
        assert uniforms(1, "star", 0, np.zeros(0, np.int64),
                        np.zeros(0, np.int64)).shape == (0,)
