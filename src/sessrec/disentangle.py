"""Factor projections and the distance-correlation independence penalty.

Item embeddings are mapped to K low-dimensional factor spaces by sigmoid
projections whose weights carry a leading factor axis, so all K views
come from one matrix product.  Training pushes the factors apart with a
penalty summing pairwise distance correlation over all ordered factor
pairs, so that each factor captures a distinct aspect of the items.
All pairs come from one Gram matrix, ``tape.centered_distance_gram``.
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


def project_flat(items, proj: FactorProjection):
    """All K factor views side by side, (..., d) -> (..., K * d_f), from one
    product: columns [k d_f, (k+1) d_f) hold ``sigmoid(x W_k) + b_k``."""
    k, d, f = proj.weight.value.shape
    w = tape.reshape(tape.swap_last(proj.weight, (0, 1)), (d, k * f))
    b = tape.reshape(proj.bias, (k * f,))
    return tape.add(tape.sigmoid(tape.matmul(tape.as_tensor(items), w)), b)


def project(items, proj: FactorProjection):
    """Map item rows (..., n, d) to the K factor views (..., K, n, d_f)."""
    flat = project_flat(items, proj)
    k, _, f = proj.weight.value.shape
    split = tape.reshape(flat, flat.value.shape[:-1] + (k, f))
    return tape.swap_last(split, (-3, -2))


def _dcor_sum(views, min_rows):
    """Sum of the distance correlations of all unordered pairs of views.

    ``views`` stacks K >= 2 samples of the same m >= ``min_rows``
    observations as (K, m, d), one row each.  Degenerate pairs carry no
    usable signal and add exactly 0: a view with zero distance variance
    (every view if m < 2), or a squared covariance that cancels to <= 0
    in floating point.
    """
    m = views.value.shape[1]
    if m < min_rows:
        raise ValueError(f"dcor needs at least {min_rows} observations")
    if m < 2:
        return Tensor(np.float64(0.0))
    g = tape.centered_distance_gram(views)
    i, j = np.triu_indices(views.value.shape[0], 1)
    var = np.diag(g.value)
    keep = (var[i] != 0.0) & (var[j] != 0.0) & (g.value[i, j] > 0.0)
    if not keep.any():
        return Tensor(np.float64(0.0))
    i, j = i[keep], j[keep]
    den = tape.mul(tape.sqrt(tape.getitem(g, (i, i))),
                   tape.sqrt(tape.getitem(g, (j, j))))
    return tape.tsum(tape.div(tape.sqrt(tape.getitem(g, (i, j))),
                              tape.sqrt(den)))


def dcor(x, y):
    """Distance correlation between two samples with matching row count.

    Rows are observations.  Returns a scalar in [0, 1]; independent
    samples score near 0, any exact monotone relation scores 1.  Zero
    columns pad the narrower sample (distances stay) to stack both.
    """
    x, y = tape.as_tensor(x), tape.as_tensor(y)
    if x.value.ndim != 2 or y.value.ndim != 2:
        raise ValueError("dcor expects 2-d inputs (rows are observations)")
    (m, dx), (my, dy) = x.value.shape, y.value.shape
    if m != my:
        raise ValueError(f"row count mismatch: {m} vs {my}")
    width = max(dx, dy)
    stacked = tape.concat([
        tape.reshape(tape.concat([v, Tensor(np.zeros((m, width - dv)))], -1),
                     (1, m, width))
        for v, dv in ((x, dx), (y, dy))], axis=0)
    return _dcor_sum(stacked, min_rows=2)


def independence_loss(factors):
    """Sum of dcor over all ordered pairs of factor views.

    ``factors`` stacks K views of the same m items as (K, m, d_f).  Each
    unordered pair appears twice in the ordered sum and dcor is
    symmetric, so the pair sum is doubled.  With fewer than two factors,
    or fewer than two items, there is nothing to separate: the loss is 0.
    """
    factors = tape.as_tensor(factors)
    if factors.value.ndim != 3:
        raise ValueError("independence_loss expects factor views stacked "
                         "as (K, m, d_f)")
    if factors.value.shape[0] < 2:
        return Tensor(np.float64(0.0))
    return tape.mul(_dcor_sum(factors, min_rows=0), Tensor(np.float64(2.0)))
