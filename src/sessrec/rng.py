"""Deterministic randomness addressed by the run seed and a logical position.

Every source of randomness in the library pulls from here, so results
depend only on the run seed and the logical position (epoch, session
index, ...) of the draw, never on scheduling or call order elsewhere.

Two generators share that contract.  ``substream`` builds a numpy
``Generator`` for the one-off draws: parameter init, the per-epoch
shuffle, synthetic corpora.  ``uniforms`` serves the per-step draws of
training (hub edges, negatives, dropout): a vectorized Philox4x64-10
(Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011)
that maps the key (seed, purpose, epoch) and the counter (slot,
session, stream, 0) straight to one uniform, for a whole batch at once.
"""

import zlib

import numpy as np

_WORD = 2 ** 64
_MASK32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# Philox4x64's multipliers of lanes x0 and x2, as a (2, 1) column, and
# the Weyl increments that step its two key words from round to round.
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_M_LO, _M_HI = _M & _MASK32, _M >> _SHIFT32
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10


def _tag(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Generator for stream ``name`` at logical position ``indices``."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _tag(name), *map(int, indices)]))


def philox(key, counter):
    """Philox4x64-10 blocks: the four uint64 output words of each counter.

    ``key`` is two ints in [0, 2**64); ``counter`` four uint64 arrays
    (low word first) that broadcast together.  Block c is what
    ``np.random.Philox(key=key, counter=c - 1).random_raw(4)`` returns:
    numpy steps its counter before each block.  Lanes x0 and x2 go
    through the multipliers side by side as one (2, n) array, whose
    64x64 -> 128-bit products are assembled from 32-bit halves.
    """
    shape = np.broadcast_shapes(*map(np.shape, counter))
    x = [np.broadcast_to(c, shape).reshape(-1).astype(np.uint64)
         for c in counter]
    mul, xor = np.stack(x[0::2]), np.stack(x[1::2])
    round_keys = np.array([[[(int(k) + r * w) % _WORD]
                            for k, w in zip(key, _WEYL)]
                           for r in range(_ROUNDS)], dtype=np.uint64)
    for round_key in round_keys:
        lo, hi = mul & _MASK32, mul >> _SHIFT32
        lh = lo * _M_HI
        cross = (lo * _M_LO >> _SHIFT32) + (lh & _MASK32) + hi * _M_LO
        hi = hi * _M_HI + (lh >> _SHIFT32) + (cross >> _SHIFT32)
        mul, xor = hi[::-1] ^ xor ^ round_key, (mul * _M)[::-1]
    return tuple(a.reshape(shape) for a in (mul[0], xor[0], mul[1], xor[1]))


def _words(name, values, limit=_WORD):
    """``values`` as uint64, refusing what a cast would wrap."""
    a = np.asarray(values)
    if a.dtype.kind not in "iu" or (a.size and not (
            int(a.min()) >= 0 and int(a.max()) < limit)):
        raise ValueError(f"{name} must be integers in [0, {limit}), "
                         f"got {values!r}")
    return a.astype(np.uint64)


def uniforms(seed: int, purpose: str, epoch: int, sessions, slots,
             stream: int = 0) -> np.ndarray:
    """One uniform in [0, 1) per (session, slot) pair, shaped as the
    broadcast of ``sessions`` and ``slots``.

    The draw at (seed, purpose, epoch, session, stream, slot) is word 0
    of the Philox block with key (seed, crc32(purpose) << 32 | epoch) and
    counter (slot, session, stream, 0), turned into a double the way
    ``Generator.random`` does: ``(word >> 11) * 2**-53``.  It depends on
    nothing else, so a session draws the same whatever batch holds it.
    """
    seed = int(_words("seed", seed))
    epoch = int(_words("epoch", epoch, 2 ** 32))
    word = philox((seed, _tag(purpose) << 32 | epoch),
                  (_words("slots", slots), _words("sessions", sessions),
                   _words("stream", stream), np.uint64(0)))[0]
    return (word >> np.uint64(11)) * 2.0 ** -53


def uniform_fields(rng, stdv, shapes, lead=()):
    """Arrays ``lead + shape`` for each of ``shapes`` from U(-stdv, stdv).

    Each leading index draws its fields consecutively, so with ``lead``
    (K,) slice k equals the k-th of K field-by-field draws in a row.
    """
    sizes = [int(np.prod(s)) for s in shapes]
    block = rng.uniform(-stdv, stdv, (*lead, sum(sizes)))
    parts = np.split(block, np.cumsum(sizes)[:-1], axis=-1)
    return [p.reshape(*lead, *s) for p, s in zip(parts, shapes)]
