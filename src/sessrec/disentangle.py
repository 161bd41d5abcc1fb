"""Factor projections and the distance-correlation independence penalty.

Item embeddings are mapped to K low-dimensional factor spaces by sigmoid
projections whose weights carry a leading factor axis, so all K views
come from one matrix product.  Training pushes the factors apart with a
penalty summing pairwise distance correlation over all ordered factor
pairs, so that each factor captures a distinct aspect of the items.
The projection is one tape node, ``tape.sigmoid_projection``, and so
is the penalty, ``tape.distance_correlation_sum``, which reads every
pair off one Gram matrix.  Items recur across the sessions of a batch,
so factor rows repeat; the kernel merges rows equal in every view and
weights each distinct row by its count, which gives the same penalty as
every row on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .tape import Parameter, Tensor


@dataclass
class FactorProjection:
    """K projections from item space to factor space, stacked on axis 0."""
    weight: Parameter          # (K, d, d_f)
    bias: Parameter            # (K, d_f)

    @classmethod
    def init(cls, input_dim, factor_dim, num_factors, rng):
        stdv = 1.0 / np.sqrt(factor_dim)
        return cls(
            Parameter(rng.uniform(-stdv, stdv,
                                  (num_factors, input_dim, factor_dim))),
            Parameter(rng.uniform(-stdv, stdv, (num_factors, factor_dim))))

    @property
    def num_factors(self) -> int:
        return self.weight.value.shape[0]

    def named_parameters(self):
        yield "factor_proj.weight", self.weight
        yield "factor_proj.bias", self.bias


def project(items, proj: FactorProjection):
    """Map item rows (..., n, d) to the K factor views (..., K, n, d_f)."""
    return tape.sigmoid_projection(items, proj.weight, proj.bias, stacked=True)


def independence_loss(factors):
    """Sum of distance correlation over all ordered pairs of factor views.

    ``factors`` stacks K views of the same m items as (K, m, d_f); an
    item that occurs n times counts n times, and degenerate pairs add
    exactly 0 (see ``tape.distance_correlation_sum``).  With fewer than
    two factors, or fewer than two items, there is nothing to separate:
    the loss is 0.
    """
    factors = tape.as_tensor(factors)
    if factors.value.ndim != 3:
        raise ValueError("independence_loss expects factor views stacked "
                         "as (K, m, d_f)")
    k, m = factors.value.shape[:2]
    if k < 2 or m < 2:
        return Tensor(np.float64(0.0))
    return tape.distance_correlation_sum(factors)
