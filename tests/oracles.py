"""Straight-line reference implementations used as test oracles.

Everything here is deliberately naive: plain numpy, explicit loops,
no code shared with the package.  Tests compare package output against
these on fixed toy inputs.
"""

import numpy as np


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def ggnn_step_oracle(x, adj_in, adj_out, w):
    """One gated propagation layer; ``w`` maps field names to arrays."""
    n, d = x.shape
    agg_in = np.zeros((n, d))
    agg_out = np.zeros((n, d))
    for i in range(n):
        for j in range(n):
            agg_in[i] += adj_in[i, j] * x[j]
            agg_out[i] += adj_out[i, j] * x[j]
    c = np.zeros((n, 2 * d))
    for i in range(n):
        c[i, :d] = agg_in[i] @ w["weight_in"] + w["bias_in"]
        c[i, d:] = agg_out[i] @ w["weight_out"] + w["bias_out"]
    out = np.zeros((n, d))
    for i in range(n):
        z = sigmoid(c[i] @ w["weight_update"] + x[i] @ w["u_update"])
        r = sigmoid(c[i] @ w["weight_reset"] + x[i] @ w["u_reset"])
        cand = np.tanh(c[i] @ w["weight_cand"] + (r * x[i]) @ w["u_cand"])
        out[i] = (1.0 - z) * x[i] + z * cand
    return out



def star_channel_oracle(x, adj_in, adj_out, alias, to_real, from_real, w,
                        layers=1):
    """One session's star view, propagated ``layers`` times.

    The graph is written out with k + 1 slots: the k real nodes ``x``
    (k, d), then a hub at slot k that starts at the mean of ``x`` over
    the sequence positions ``alias``.  The hub feeds node i when
    ``to_real[i]`` is set and is fed by it when ``from_real[i]`` is set,
    with weight 1.  Returns the (k + 1, d) states, hub last.
    """
    k, d = x.shape
    states = np.zeros((k + 1, d))
    states[:k] = x
    for slot in alias:
        states[k] += x[slot] / len(alias)
    a_in = np.zeros((k + 1, k + 1))
    a_out = np.zeros((k + 1, k + 1))
    a_in[:k, :k] = adj_in
    a_out[:k, :k] = adj_out
    for i in range(k):
        a_in[i, k] = a_out[k, i] = to_real[i]      # hub -> i
        a_out[i, k] = a_in[k, i] = from_real[i]    # i -> hub
    for _ in range(layers):
        states = ggnn_step_oracle(states, a_in, a_out, w)
    return states

def attention_oracle(seq, w):
    """Session readout for one sequence (T, d); ``w`` maps names to arrays."""
    t, d = seq.shape
    last = seq[t - 1]
    mixed = np.zeros(d)
    for i in range(t):
        h = sigmoid(seq[i] @ w["w_current"] + last @ w["w_last"])
        alpha = float(h @ w["query"])
        mixed += alpha * seq[i]
    return np.concatenate([last, mixed]) @ w["w_merge"]


def softmax_oracle(logits):
    m = np.max(logits)
    e = np.exp(logits - m)
    return e / e.sum()


def scores_oracle(e_item, e_factor, catalog, catalog_factors,
                  use_factor_head=True):
    """Combined next-item probabilities for one session."""
    n = catalog.shape[0]
    item_logits = np.array([catalog[j] @ e_item for j in range(n)])
    p_item = softmax_oracle(item_logits)
    if not use_factor_head:
        return p_item
    factor_logits = np.array([catalog_factors[j] @ e_factor for j in range(n)])
    p_factor = softmax_oracle(factor_logits)
    return 0.5 * (p_item + p_factor)


def bce_oracle(p, target, floor=1e-12):
    """One-hot binary cross entropy summed over the catalog."""
    total = -np.log(max(p[target], floor))
    for j in range(len(p)):
        if j != target:
            total -= np.log(max(1.0 - p[j], floor))
    return total


def item_cl_oracle(orig, aug, neg_idx):
    """Item-level contrastive term for one session with given negatives."""
    n = orig.shape[0]
    total = 0.0
    for i in range(n):
        pos = float(orig[i] @ aug[i])
        neg_terms = [float(softplus(orig[i] @ aug[j])) for j in neg_idx[i]]
        total += float(softplus(-pos)) + float(np.mean(neg_terms))
    return total / n


def factor_cl_oracle(origs, augs, neg_idx_per_factor, scheme="within_view"):
    """Factor-level contrastive term, summed over the factor list."""
    total = 0.0
    for k in range(len(origs)):
        orig, aug = origs[k], augs[k]
        partner = orig if scheme == "within_view" else aug
        n = orig.shape[0]
        acc = 0.0
        for i in range(n):
            pos = float(orig[i] @ aug[i])
            neg_terms = [float(softplus(orig[i] @ partner[j]))
                         for j in neg_idx_per_factor[k][i]]
            acc += float(softplus(-pos)) + float(np.mean(neg_terms))
        total += acc / n
    return total


def session_average(per_session, n_nodes):
    """Mean of ``per_session(i, k)`` over the sessions i of a padded batch
    whose node count k is at least 2; 0 when none qualifies."""
    values = [per_session(i, int(k)) for i, k in enumerate(n_nodes) if k >= 2]
    return float(np.mean(values)) if values else 0.0


def dcor_oracle(x, y):
    """Distance correlation computed from explicit distance loops."""
    m = x.shape[0]
    dx = np.zeros((m, m))
    dy = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            dx[i, j] = np.sqrt(np.sum((x[i] - x[j]) ** 2))
            dy[i, j] = np.sqrt(np.sum((y[i] - y[j]) ** 2))

    def center(d):
        a = np.zeros_like(d)
        grand = d.mean()
        for i in range(m):
            for j in range(m):
                a[i, j] = d[i, j] - d[i].mean() - d[:, j].mean() + grand
        return a

    a, b = center(dx), center(dy)
    dcov2 = (a * b).mean()
    dvarx2 = (a * a).mean()
    dvary2 = (b * b).mean()
    if dvarx2 == 0.0 or dvary2 == 0.0 or dcov2 <= 0.0:
        return 0.0
    return np.sqrt(dcov2) / np.sqrt(np.sqrt(dvarx2) * np.sqrt(dvary2))


def ranking_metrics_oracle(score_rows, targets, k):
    """Exhaustive P@k / M@k with the lower-index tie rule."""
    hits, rr = [], []
    for row, target in zip(score_rows, targets):
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        rank = order.index(target) + 1
        hits.append(1.0 if rank <= k else 0.0)
        rr.append(1.0 / rank if rank <= k else 0.0)
    return float(np.mean(hits)), float(np.mean(rr))
