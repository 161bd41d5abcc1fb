"""Factor projections and the distance-correlation independence penalty.

Item embeddings are mapped to K low-dimensional factor spaces by
per-factor sigmoid projections.  Training pushes the factors apart with
a penalty summing pairwise distance correlation over all ordered factor
pairs, so that each factor captures a distinct aspect of the items.
All pairs come from one Gram matrix, ``tape.centered_distance_gram``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tape
from .tape import Parameter, Tensor


@dataclass
class FactorProjection:
    """K independent projections from item space to factor space."""
    num_factors: int
    input_dim: int
    factor_dim: int
    weights: list = field(default_factory=list)    # K Parameters (d, d_f)
    biases: list = field(default_factory=list)     # K Parameters (d_f,)
    bias_inside: bool = False

    @classmethod
    def init(cls, input_dim, factor_dim, num_factors, rng, bias_inside=False):
        stdv = 1.0 / np.sqrt(factor_dim)
        weights = [Parameter(rng.uniform(-stdv, stdv, (input_dim, factor_dim)))
                   for _ in range(num_factors)]
        biases = [Parameter(rng.uniform(-stdv, stdv, factor_dim))
                  for _ in range(num_factors)]
        return cls(num_factors, input_dim, factor_dim, weights, biases, bias_inside)

    def named_parameters(self):
        for k in range(self.num_factors):
            yield f"factor_proj.{k}.weight", self.weights[k]
            yield f"factor_proj.{k}.bias", self.biases[k]


def project(items, proj: FactorProjection):
    """Map item embeddings (..., d) to K factor views, each (..., d_f).

    The gate squashes the linear map through a sigmoid; by default the
    bias is added after the squash, ``bias_inside`` moves it before.
    """
    x = tape.as_tensor(items)
    out = []
    for k in range(proj.num_factors):
        h = tape.matmul(x, proj.weights[k])
        if proj.bias_inside:
            out.append(tape.sigmoid(tape.add(h, proj.biases[k])))
        else:
            out.append(tape.add(tape.sigmoid(h), proj.biases[k]))
    return out


def _dcor_sum(views, min_rows):
    """Sum of the distance correlations of all unordered pairs of views.

    ``views`` are K >= 2 samples of the same m >= ``min_rows``
    observations, one row each.  Degenerate pairs carry no usable signal
    and add exactly 0: a view with zero distance variance (every view if
    m < 2), or a squared covariance that cancels to <= 0 in floating point.
    """
    views = [tape.as_tensor(v) for v in views]
    if any(v.value.ndim != 2 for v in views):
        raise ValueError("dcor expects 2-d inputs (rows are observations)")
    rows = [v.value.shape[0] for v in views]
    for m in rows[1:]:
        if m != rows[0]:
            raise ValueError(f"row count mismatch: {rows[0]} vs {m}")
    if rows[0] < min_rows:
        raise ValueError(f"dcor needs at least {min_rows} observations")
    if rows[0] < 2:
        return Tensor(np.float64(0.0))
    g = tape.centered_distance_gram(views)
    i, j = np.triu_indices(len(views), 1)
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
    samples score near 0, any exact monotone relation scores 1.
    """
    return _dcor_sum([x, y], min_rows=2)


def independence_loss(factors):
    """Sum of dcor over all ordered pairs of factor views.

    ``factors`` is a list of (m, d_f) views of the same m items.  Each
    unordered pair appears twice in the ordered sum and dcor is
    symmetric, so the pair sum is doubled.  With fewer than two factors,
    or fewer than two items, there is nothing to separate: the loss is 0.
    """
    if len(factors) < 2:
        return Tensor(np.float64(0.0))
    return tape.mul(_dcor_sum(factors, min_rows=0), Tensor(np.float64(2.0)))
