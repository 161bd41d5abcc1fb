"""The pair scorer behind both contrastive terms.

The item- and factor-level terms share one loss shape: a discriminator
scores (anchor, partner) pairs, and aligned pairs are pushed up and
mismatched pairs down with a binary objective.  ``Discriminator.score``
builds a whole term as one ``tape.pair_contrast`` node; the negative
draws, the session weights and the alpha mix live in ``model``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .tape import Parameter


@dataclass
class Discriminator:
    """Pair scorer: plain dot product, or bilinear with a learned square map."""
    weight: Parameter = None   # (d, d) when bilinear

    @classmethod
    def init(cls, form, dim, rng):
        if form == "dot":
            return cls()
        if form == "bilinear":
            stdv = 1.0 / np.sqrt(dim)
            return cls(Parameter(rng.uniform(-stdv, stdv, (dim, dim))))
        raise ValueError(f"unknown discriminator form {form!r}")

    def score(self, anchor, positive, partner, neg_idx, weight):
        """The contrastive term of ([K,] M, d) states, a scalar tensor:
        each anchor row against its positive row and the partner rows
        ``neg_idx`` ([K,] M, per) names, weighted by ``weight`` (M,)."""
        return tape.pair_contrast(anchor, positive, partner, neg_idx, weight,
                                  self.weight)

    def named_parameters(self, prefix):
        if self.weight is not None:
            yield f"{prefix}.weight", self.weight
