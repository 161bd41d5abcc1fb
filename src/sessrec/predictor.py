"""Next-item scoring from the two session embeddings, and the training loss.

The item head scores the session embedding against every catalog
embedding; the factor head does the same in concatenated factor space.
Each head is squashed to a probability distribution and the two are
averaged.  Training treats the result as N independent Bernoulli
outcomes against a one-hot target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tape
from .disentangle import FactorProjection, project_flat
from .tape import Tensor

PROB_FLOOR = 1e-12


@dataclass
class ScoreVector:
    """Per-item probabilities from each head; ``factor_head`` may be None."""
    combined: object
    item_head: object
    factor_head: object = None


def catalog_factor_embeddings(catalog_embeddings, proj: FactorProjection):
    """Concatenated factor views of the whole catalog, (N, K * d_f).

    One (N, d) @ (d, K * d_f) product: batching the catalog rows against
    the (K, d, d_f) weight instead would leave matmul's backward an
    (N, K, d, d_f) block to reduce.
    """
    return project_flat(catalog_embeddings, proj)


def _head_probs(embeddings, session_embedding):
    """Softmax over catalog logits e_cat . e_s, one (B, N) row per session."""
    e = tape.as_tensor(embeddings)
    s = tape.as_tensor(session_embedding)
    logits = tape.matmul(s, tape.swap_last(e))      # (B, N)
    return tape.exp(tape.log_softmax(logits, axis=-1))


def score(session_item_emb, session_factor_emb, catalog_embeddings,
          catalog_factors=None, use_factor_head: bool = True) -> ScoreVector:
    """Probability of each catalog item being next, (B, N) for B sessions.

    The session embeddings are (B, d) and (B, K * d_f).
    ``catalog_factors`` holds the concatenated factor views of the
    catalog (see ``catalog_factor_embeddings``); the factor head needs
    it.  With ``use_factor_head=False`` only the item head contributes
    and the combined vector equals it.
    """
    p_item = _head_probs(catalog_embeddings, session_item_emb)
    if not use_factor_head:
        return ScoreVector(combined=p_item, item_head=p_item)
    if catalog_factors is None:
        raise ValueError("the factor head needs catalog_factors")
    p_factor = _head_probs(catalog_factors, session_factor_emb)
    combined = tape.mul(tape.add(p_item, p_factor), Tensor(np.float64(0.5)))
    return ScoreVector(combined=combined, item_head=p_item, factor_head=p_factor)


def prediction_loss(scores: ScoreVector, target):
    """Binary cross-entropy of the combined (B, N) probabilities against
    one-hot targets, summed over the catalog and averaged over the batch.

    Probabilities are clamped at 1e-12 away from both ends before the
    logs so a saturated head cannot produce infinities.
    """
    p = tape.as_tensor(scores.combined)
    y = np.arange(p.value.shape[-1]) == np.asarray(target)[..., None]
    y_t = Tensor(y)
    one = Tensor(np.float64(1.0))
    log_p = tape.log(tape.clip_min(p, PROB_FLOOR))
    log_q = tape.log(tape.clip_min(tape.sub(one, p), PROB_FLOOR))
    per = tape.tsum(tape.add(tape.mul(y_t, log_p),
                             tape.mul(tape.sub(one, y_t), log_q)), axis=-1)
    total = tape.mul(tape.tmean(per), Tensor(np.float64(-1.0)))
    return total


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
    of items strictly ahead plus those tied with a smaller index.
    """
    p = np.asarray(probabilities)
    pt = p[target]
    ahead = int(np.sum(p > pt))
    tied_before = int(np.sum(p[:target] == pt))
    return ahead + tied_before + 1
