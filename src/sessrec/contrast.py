"""The pair scorer behind both contrastive terms.

The item- and factor-level terms share one loss shape: a discriminator
scores (anchor, partner) pairs, and aligned pairs are pushed up and
mismatched pairs down with a binary objective.  The batched terms, their
negative draws and the alpha mix live in ``model.training_forward``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .tape import Parameter


@dataclass
class Discriminator:
    """Pair scorer: plain dot product, or bilinear with a learned square map."""
    form: str = "dot"
    weight: Parameter = None   # (d, d) when bilinear

    @classmethod
    def init(cls, form, dim, rng):
        if form == "dot":
            return cls(form="dot")
        if form == "bilinear":
            stdv = 1.0 / np.sqrt(dim)
            return cls(form="bilinear",
                       weight=Parameter(rng.uniform(-stdv, stdv, (dim, dim))))
        raise ValueError(f"unknown discriminator form {form!r}")

    def score(self, a, b):
        """Pair score over the trailing axis; (..., d) x (..., d) -> (...)."""
        a = tape.as_tensor(a)
        b = tape.as_tensor(b)
        if self.form == "bilinear":
            a = tape.matmul(a, self.weight)
        return tape.tsum(tape.mul(a, b), axis=-1)

    def named_parameters(self, prefix):
        if self.weight is not None:
            yield f"{prefix}.weight", self.weight
