"""Next-item scoring from the two session embeddings, and the training loss.

The item head scores the session embedding against every catalog
embedding; the factor head does the same in concatenated factor space.
One tape kernel, ``tape.mean_softmax``, takes each head as a (session,
catalog) pair, computes its logits, squashes them to a probability
distribution and averages the two.  Training treats the
result as N independent Bernoulli outcomes against a one-hot target:
the second kernel, ``tape.onehot_bce``.
"""

from __future__ import annotations

import math

import numpy as np

from . import tape
from .disentangle import FactorProjection, project_flat
from .tape import Tensor

PROB_FLOOR = 1e-12


def catalog_factor_embeddings(catalog_embeddings, proj: FactorProjection):
    """Concatenated factor views of the whole catalog, (N, K * d_f).

    One (N, d) @ (d, K * d_f) product: batching the catalog rows against
    the (K, d, d_f) weight instead would leave matmul's backward an
    (N, K, d, d_f) block to reduce.
    """
    return project_flat(catalog_embeddings, proj)


def score(session_item_emb, session_factor_emb, catalog_embeddings,
          catalog_factors=None) -> Tensor:
    """Probability of each catalog item being next, (B, N) for B sessions.

    The session embeddings are (B, d) and (B, K * d_f).
    ``catalog_factors`` holds the concatenated factor views of the
    catalog (see ``catalog_factor_embeddings``); the factor head needs
    it.  Each head is a (session, catalog) pair of ``tape.mean_softmax``,
    which scores it and averages the heads' softmaxes; with no
    ``session_factor_emb`` the result is the item head's alone.
    """
    heads = [(session_item_emb, catalog_embeddings)]
    if session_factor_emb is not None:
        if catalog_factors is None:
            raise ValueError("the factor head needs catalog_factors")
        heads.append((session_factor_emb, catalog_factors))
    return tape.mean_softmax(*heads)


def prediction_loss(scores, target):
    """Binary cross-entropy of the (B, N) probabilities against one-hot
    targets, summed over the catalog and averaged over the batch.

    Probabilities are clamped at 1e-12 away from both ends before the
    logs so a saturated head cannot produce infinities.
    """
    return tape.onehot_bce(scores, target, PROB_FLOOR)


def total_loss(prediction, contrastive, independence, beta_cl: float,
               beta_ind: float):
    """L = prediction + beta_cl * contrastive + beta_ind * independence."""
    out = tape.as_tensor(prediction)
    out = tape.add(out, tape.mul(tape.as_tensor(contrastive),
                                 Tensor(np.float64(beta_cl))))
    out = tape.add(out, tape.mul(tape.as_tensor(independence),
                                 Tensor(np.float64(beta_ind))))
    return out


def rank_of(probabilities: np.ndarray, target: int) -> int:
    """1-based rank of ``target`` under descending probability.

    Ties are broken toward lower item indices, so the rank is the count
    of items strictly ahead plus those tied with a smaller index.  A
    target outside [0, N) or with a non-finite probability raises
    ``ValueError``: an index of -1 would wrap, and nothing ranks ahead
    of NaN.
    """
    p = np.asarray(probabilities)
    if not 0 <= target < p.shape[-1]:
        raise ValueError(f"target {target} outside the catalog [0, "
                         f"{p.shape[-1]})")
    pt = p[target]
    if not math.isfinite(pt):
        raise ValueError(f"target {target} has non-finite probability {pt}")
    ahead = int(np.sum(p > pt))
    tied_before = int(np.sum(p[:target] == pt))
    return ahead + tied_before + 1
