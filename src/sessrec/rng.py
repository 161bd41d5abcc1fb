"""Named deterministic random substreams derived from a single run seed.

Every source of randomness in the library (parameter init, satellite edge
sampling, negative sampling, dropout, shuffling, synthetic corpora) pulls
its generator from here, so results depend only on the run seed and the
logical position (epoch, session index, ...) of the draw, never on
scheduling or call order elsewhere.
"""

import zlib

import numpy as np


def substream(seed: int, name: str, *indices: int) -> np.random.Generator:
    """Generator for stream ``name`` at logical position ``indices``."""
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, *map(int, indices)]))


def uniform_fields(rng, stdv, shapes, lead=()):
    """Arrays ``lead + shape`` for each of ``shapes`` from U(-stdv, stdv).

    Each leading index draws its fields consecutively, so with ``lead``
    (K,) slice k equals the k-th of K field-by-field draws in a row.
    """
    sizes = [int(np.prod(s)) for s in shapes]
    block = rng.uniform(-stdv, stdv, (*lead, sum(sizes)))
    parts = np.split(block, np.cumsum(sizes)[:-1], axis=-1)
    return [p.reshape(*lead, *s).copy() for p, s in zip(parts, shapes)]
