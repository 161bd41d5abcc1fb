"""Straight-line reference implementations used as test oracles.

Everything here is deliberately naive: plain numpy, explicit loops,
no code shared with the package.  Tests compare package output against
these on fixed toy inputs, and tape gradients against the central
finite differences at the end of the file.  ``probe``, just before
them, is the one helper that builds on the package: the tape node that
reduces a kernel's output to the scalar those tests differentiate.
"""

import zlib
from types import SimpleNamespace

import numpy as np

from sessrec.tape import Tensor


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def session_graph_oracle(session):
    """One session's transition graph, built alone.

    ``nodes`` are the distinct items in first-occurrence order, ``alias``
    maps each position to its node, ``edge_out[i, j]`` is 1 if the
    session steps from node i to node j, ``adj_out`` divides each row by
    the node's out-degree and ``adj_in[i, j]`` is edge j->i divided by
    i's in-degree.
    """
    slot, alias = {}, []
    for item in session:
        if item not in slot:
            slot[item] = len(slot)
        alias.append(slot[item])
    if not alias:
        raise ValueError("empty session")
    n = len(slot)
    edge_out = np.zeros((n, n))
    for a, b in zip(alias[:-1], alias[1:]):
        edge_out[a, b] = 1.0
    adj_out = np.zeros((n, n))
    adj_in = np.zeros((n, n))
    for i in range(n):
        out_deg, in_deg = edge_out[i].sum(), edge_out[:, i].sum()
        for j in range(n):
            if out_deg > 0:
                adj_out[i, j] = edge_out[i, j] / out_deg
            if in_deg > 0:
                adj_in[i, j] = edge_out[j, i] / in_deg
    return SimpleNamespace(nodes=np.array(list(slot), dtype=np.int64),
                           alias=np.array(alias, dtype=np.int64), n_nodes=n,
                           edge_out=edge_out, adj_out=adj_out, adj_in=adj_in)


def batch_graph_oracle(sessions):
    """``graphs.build_session_graph`` as a per-session loop: one
    first-occurrence dict per session gives each position's node, and
    the rest is laid out from it.  Same six arrays, same order."""
    lengths = np.array([len(s) for s in sessions], dtype=np.int64)
    if not lengths.all() or not lengths.size:
        raise ValueError("empty session or empty batch")
    slots, n_nodes = [], []
    for seq in sessions:
        slot = {}
        slots.extend(slot.setdefault(int(item), len(slot)) for item in seq)
        n_nodes.append(len(slot))
    n_nodes, slots = (np.asarray(a, dtype=np.int64) for a in (n_nodes, slots))
    items = np.array([int(i) for s in sessions for i in s], dtype=np.int64)
    row = np.repeat(np.arange(lengths.size), lengths)
    alias = slots + (np.cumsum(n_nodes) - n_nodes)[row]
    m = int(n_nodes.sum())
    node_ids = np.empty(m, dtype=np.int64)
    node_ids[alias] = items
    step = row[1:] == row[:-1]
    src, dst = np.divmod(np.unique(alias[:-1][step] * m + alias[1:][step]), m)
    return node_ids, n_nodes, alias, lengths, src, dst


def padded_batch_oracle(sessions):
    """Each session's oracle graph copied into 0-padded batch arrays,
    one session at a time, with the node mask spelled out."""
    graphs = [session_graph_oracle(s) for s in sessions]
    b = len(graphs)
    n = max(g.n_nodes for g in graphs)
    t = max(len(g.alias) for g in graphs)
    out = dict(node_ids=np.zeros((b, n), dtype=np.int64),
               n_nodes=np.zeros(b, dtype=np.int64),
               alias=np.zeros((b, t), dtype=np.int64),
               lengths=np.zeros(b, dtype=np.int64),
               node_mask=np.zeros((b, n)),
               edge_out=np.zeros((b, n, n)), adj_out=np.zeros((b, n, n)),
               adj_in=np.zeros((b, n, n)))
    for i, g in enumerate(graphs):
        k, ln = g.n_nodes, len(g.alias)
        out["node_ids"][i, :k] = g.nodes
        out["n_nodes"][i] = k
        out["alias"][i, :ln] = g.alias
        out["lengths"][i] = ln
        out["node_mask"][i, :k] = 1.0
        for name in ("edge_out", "adj_out", "adj_in"):
            out[name][i, :k, :k] = getattr(g, name)
    return out


def philox_uniform_oracle(seed, purpose, epoch, session, slot, stream=0):
    """The training draw at one address, through numpy's own Philox.

    Key (seed, crc32(purpose) << 32 | epoch), counter (slot, session,
    stream, 0); numpy steps the counter before its first block, so it
    starts one below.
    """
    seed, epoch, session, slot, stream = map(int, (seed, epoch, session,
                                                   slot, stream))
    tag = zlib.crc32(purpose.encode("utf-8"))
    key = seed + ((tag << 32 | epoch) << 64)
    counter = slot + (session << 64) + (stream << 128)
    bits = np.random.Philox(key=key, counter=(counter - 1) % 2 ** 256)
    return np.random.Generator(bits).random()


def session_blocks(pack):
    """A batch graph's sessions cut back out one at a time, as dense
    matrices over each session's own nodes, in ``session_graph_oracle``'s
    form; ``rows`` is the session's slice of node rows and ``foreign``
    counts edges that leave it."""
    src, dst, w_in, w_out = pack.edges
    m = len(pack.node_ids)
    full = {name: np.zeros((m, m)) for name in ("edge_out", "adj_out",
                                               "adj_in")}
    full["edge_out"][src, dst] = 1.0
    full["adj_out"][src, dst] = w_out
    full["adj_in"][dst, src] = w_in
    blocks, lo, pos = [], 0, 0
    for k, ln in zip(pack.n_nodes, pack.lengths):
        rows = slice(lo, lo + k)
        inside = (src >= lo) & (src < lo + k)
        blocks.append(SimpleNamespace(
            rows=rows, nodes=pack.node_ids[rows], n_nodes=int(k),
            alias=pack.alias[pos:pos + ln] - lo,
            foreign=int((inside != ((dst >= lo) & (dst < lo + k))).sum()),
            **{name: a[rows, rows] for name, a in full.items()}))
        lo, pos = lo + k, pos + ln
    return blocks


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


def cosine_edge_oracle(x, src, dst):
    """Per slice of (..., M, d) states, the cosine of each edge's end rows,
    one edge at a time; an edge touching a zero row weighs 0."""
    out = np.zeros(x.shape[:-2] + (len(src),))
    for idx in np.ndindex(*x.shape[:-2]):
        for e, (i, j) in enumerate(zip(src, dst)):
            a, b = x[idx + (i,)], x[idx + (j,)]
            na, nb = np.sqrt(a @ a), np.sqrt(b @ b)
            if na > 0.0 and nb > 0.0:
                out[idx + (e,)] = (a @ b) / (na * nb)
    return out


def attention_oracle(seq, w):
    """Session readout for one sequence (T, d); ``w`` maps names to arrays.
    The raw scores weigh the positions, with no softmax."""
    t, d = seq.shape
    last = seq[t - 1]
    alphas = np.zeros(t)
    for i in range(t):
        h = sigmoid(seq[i] @ w["w_current"] + last @ w["w_last"])
        alphas[i] = float(h @ w["query"])
    mixed = np.zeros(d)
    for i in range(t):
        mixed += alphas[i] * seq[i]
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
    """Item-level contrastive term for one session, node i against the
    augmented row ``neg_idx[i]`` as its negative."""
    n = orig.shape[0]
    total = 0.0
    for i in range(n):
        pos = float(orig[i] @ aug[i])
        neg = float(orig[i] @ aug[neg_idx[i]])
        total += float(softplus(-pos)) + float(softplus(neg))
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
            neg = float(orig[i] @ partner[neg_idx_per_factor[k][i]])
            acc += float(softplus(-pos)) + float(softplus(neg))
        total += acc / n
    return total


def session_average(per_session, n_nodes):
    """Mean of ``per_session(rows)`` over the sessions of a batch graph
    whose node count is at least 2, ``rows`` the slice of the session's
    node rows; 0 when none qualifies."""
    ends = np.cumsum(n_nodes)
    values = [per_session(slice(end - k, end))
              for end, k in zip(ends, n_nodes) if k >= 2]
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


def probe(t, weight=1.0):
    """The scalar ``sum(weight * t)`` of a tensor as one tape node, with
    ``weight`` (broadcast to t's shape) as its gradient to ``t``."""
    w = np.broadcast_to(np.asarray(weight, dtype=np.float64), t.value.shape)

    def _bw():
        g = out.grad * w
        t.grad = g if t.grad is None else t.grad + g

    out = Tensor((t.value * w).sum(), requires_grad=t.requires_grad,
                 parents=(t,), backward=_bw if t.requires_grad else None)
    return out


# -- central finite differences ----------------------------------------------
# The loss callable must rebuild its graph from the given Parameters on
# every call; parameters are perturbed in place, one entry at a time.  It
# returns one scalar tensor, or a dict of them: several objectives read
# off one forward per perturbation.

def _read(out) -> dict:
    """The values of a dict of scalar tensors, or of one under key None."""
    terms = out if isinstance(out, dict) else {None: out}
    return {key: float(t.value) for key, t in terms.items()}


def numerical_gradient(loss_fn, param, step: float = 1e-5):
    """Central differences of ``loss_fn()`` w.r.t. every entry of
    ``param``; a dict of them, by objective, for a dict of objectives."""
    # ravel copies a strided value, and the steps would miss the parameter
    param.value = np.ascontiguousarray(param.value)
    flat = param.value.ravel()
    num = {}
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        plus = _read(loss_fn())
        flat[i] = orig - step
        minus = _read(loss_fn())
        flat[i] = orig
        for key, v in plus.items():
            num.setdefault(key, np.zeros_like(flat))[i] = (
                (v - minus[key]) / (2.0 * step))
    num = {key: g.reshape(param.value.shape) for key, g in num.items()}
    return num.pop(None) if None in num else num


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-6) -> float:
    """max_i |a_i - n_i| / max(|a_i|, |n_i|, floor).

    The floor keeps near-zero gradient entries from being compared at
    pure relative scale, where finite-difference noise dominates.
    """
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradient_errors(loss_fn, params: dict, step: float = 1e-5) -> dict:
    """Analytic-vs-numeric max relative error per named parameter; for a
    ``loss_fn`` that returns a dict of objectives, a dict of such errors
    by objective.  Each objective backpropagates from a forward of its
    own: a backward leaves gradients on the interior nodes it passes."""
    numeric = {name: numerical_gradient(loss_fn, p, step=step)
               for name, p in params.items()}

    def errors(pick):
        for p in params.values():
            p.grad = None
        pick(loss_fn()).backward()
        return {name: max_relative_error(
                    p.grad if p.grad is not None else np.zeros_like(p.value),
                    pick(numeric[name]))
                for name, p in params.items()}

    some = next(iter(numeric.values()))
    if not isinstance(some, dict):
        return errors(lambda x: x)
    return {key: errors(lambda x, key=key: x[key]) for key in some}
