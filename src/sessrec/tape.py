"""Reverse-mode automatic differentiation over numpy float64 arrays.

Small tape just big enough for this library: dense ops, broadcasting,
advanced indexing, and a few custom kernels with hand-written backward
rules: weighted sums along graph edges (``edge_matmul``, on a sparse
matrix), the GGNN cell's gated update (``gated_update``), the sigmoid
factor projection (``sigmoid_projection``), the soft-attention session
readout (``attention_readout``), the mean catalog softmax of (session,
catalog) pairs (``mean_softmax``), the clamped one-hot binary
cross-entropy (``onehot_bce``), the binary contrastive objective of
rows against their positives and sampled partner rows
(``pair_contrast``), the summed distance correlation of K
samples (``distance_correlation_sum``, over the distinct rows, each
weighted by its count; every copy of a row gets an equal share of its
gradient), and safe row normalization.  Everything runs in float64 and
is deterministic: no threads, no in-place gradient mutation,
accumulation order fixed by the topological order of the graph.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp


def _to_value(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x if x.dtype == np.float64 else x.astype(np.float64)
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _t(a):
    return np.swapaxes(a, -1, -2)


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False,
                 parents: tuple = (), backward=None):
        self.value = _to_value(value)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def __getitem__(self, key):
        return getitem(self, key)

    # -- graph traversal ---------------------------------------------------

    def backward(self):
        """Backpropagate from a scalar tensor."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        order = _topo_order(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None:
                node._backward()
                node._backward = None  # free closures as we go


class Parameter(Tensor):
    """Leaf tensor updated by an optimizer."""

    def __init__(self, value):
        super().__init__(value, requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _topo_order(root: Tensor) -> list:
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def _accum(t: Tensor, g: np.ndarray):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


_recording = True


@contextmanager
def no_grad():
    """Ops inside the block record no graph: every result is a constant."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _make(value, parents, backward):
    if _recording and any(p.requires_grad for p in parents):
        return Tensor(value, requires_grad=True, parents=parents, backward=backward)
    return Tensor(value)


# -- arithmetic -------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def _bw():
        _accum(a, _unbroadcast(out.grad, a.value.shape))
        _accum(b, _unbroadcast(out.grad, b.value.shape))

    out = _make(a.value + b.value, (a, b), _bw)
    return out


def mul(a, b) -> Tensor:
    """``a * b``; the backward skips an operand that takes no gradient."""
    a, b = as_tensor(a), as_tensor(b)

    def _bw():
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad * b.value, a.value.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad * a.value, b.value.shape))

    out = _make(a.value * b.value, (a, b), _bw)
    return out


# -- shape ops --------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def _bw():
        _accum(a, out.grad.reshape(a.value.shape))

    out = _make(a.value.reshape(shape), (a,), _bw)
    return out


def swap_last(a, axes=(-2, -1)) -> Tensor:
    """Swap two axes, the last two by default: the tape's one axis move."""
    a = as_tensor(a)
    i, j = axes

    def _bw():
        _accum(a, np.swapaxes(out.grad, i, j))

    out = _make(np.swapaxes(a.value, i, j), (a,), _bw)
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.value.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def _bw():
        for t, g in zip(tensors, np.split(out.grad, splits, axis=axis)):
            _accum(t, g)

    out = _make(np.concatenate([t.value for t in tensors], axis=axis),
                tuple(tensors), _bw)
    return out


def getitem(a, key) -> Tensor:
    a = as_tensor(a)

    def _bw():
        buf = np.zeros_like(a.value)
        np.add.at(buf, key, out.grad)
        _accum(a, buf)

    out = _make(a.value[key], (a,), _bw)
    return out


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)

    def _bw():
        g = out.grad if axis is None else np.expand_dims(out.grad, axis)
        _accum(a, np.broadcast_to(g, a.value.shape))

    out = _make(a.value.sum(axis=axis), (a,), _bw)
    return out


# -- custom kernels ---------------------------------------------------------

def _sigmoid(x):
    """The logistic function as ``0.5 tanh(x / 2) + 0.5``: no overflow."""
    s = np.tanh(x * 0.5)
    s *= 0.5
    s += 0.5
    return s


def _edge_csr(values, src, dst, m, n):
    """L stacked (m, n) matrices of edge values (L, E) as one block-
    diagonal (L m, L n) CSR matrix; a row keeps its entries in edge order."""
    count, e = values.shape
    order = np.argsort(dst, kind="stable")
    start = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=m), out=start[1:])
    block = np.arange(count)[:, None]
    indptr = np.append((start[:-1] + e * block).ravel(), count * e)
    indices = (src[order] + n * block).ravel()
    return sp.csr_matrix((values[:, order].ravel(), indices, indptr),
                         shape=(count * m, count * n))


def edge_matmul(values, x, src, dst, m) -> Tensor:
    """Weighted rows summed along edges into an (..., m, d) result:
    ``out[..., dst[e], :] += values[..., e] * x[..., src[e], :]``.

    ``values`` (..., E) and ``x`` (..., n, d) broadcast over their
    leading axes, and repeated (src, dst) pairs add up.  The leading
    slices are the blocks of one block-diagonal CSR matrix built once
    per call: the forward is one sparse product and the backward to
    ``x`` one product with its transpose.  The backward to ``values``
    is, per edge, the dot product of the output gradient at ``dst`` and
    ``x`` at ``src``.
    """
    values, x = as_tensor(values), as_tensor(x)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    n, d = x.value.shape[-2:]
    if not src.shape == dst.shape == values.value.shape[-1:]:
        raise ValueError("src, dst and the last axis of values must agree")
    if src.size and not (0 <= min(src.min(), dst.min())
                         and src.max() < n and dst.max() < m):
        raise ValueError(f"edges must run from [0, {n}) into [0, {m})")
    lead = np.broadcast_shapes(values.value.shape[:-1], x.value.shape[:-2])
    count = int(np.prod(lead))
    v = np.broadcast_to(values.value, lead + src.shape).reshape(count, -1)
    xs = np.broadcast_to(x.value, lead + (n, d)).reshape(count * n, d)
    a = _edge_csr(v, src, dst, m, n)

    def _bw():
        g = out.grad.reshape(count * m, d)
        if x.requires_grad:
            _accum(x, _unbroadcast((a.T @ g).reshape(lead + (n, d)),
                                   x.value.shape))
        if values.requires_grad:
            gv = np.einsum("led,led->le", g.reshape(count, m, d)[:, dst],
                           xs.reshape(count, n, d)[:, src])
            _accum(values, _unbroadcast(gv.reshape(lead + src.shape),
                                        values.value.shape))

    out = _make((a @ xs).reshape(lead + (m, d)), (values, x), _bw)
    return out


def gated_update(x, a_in, a_out, weights) -> Tensor:
    """The GRU update ``(1 - z) x + z n`` of states ``x`` (..., M, d)
    from their edge sums ``a_in`` and ``a_out``: with ``c = [a_in W_in +
    b_in, a_out W_out + b_out]``, ``z = sigmoid(c W_z + x U_z)``, ``r =
    sigmoid(c W_r + x U_r)`` and ``n = tanh(c W_c + (r x) U_c)``.
    ``weights`` are (W_in, W_out, b_in, b_out, W_z, W_r, W_c, U_z, U_r,
    U_c), with the leading axes of ``x``."""
    parents = tuple(map(as_tensor, (x, a_in, a_out, *weights)))
    xv, ai, ao, w_in, w_out, b_in, b_out, w_z, w_r, w_c, u_z, u_r, u_c = (
        t.value for t in parents)
    c = np.concatenate([ai @ w_in + b_in[..., None, :],
                        ao @ w_out + b_out[..., None, :]], axis=-1)
    z = _sigmoid(c @ w_z + xv @ u_z)
    r = _sigmoid(c @ w_r + xv @ u_r)
    rx = r * xv
    n = np.tanh(c @ w_c + rx @ u_c)

    def _bw():
        g, d = out.grad, xv.shape[-1]
        gn = g * z * (1.0 - n * n)
        gz = g * (n - xv) * z * (1.0 - z)
        grx = gn @ _t(u_c)
        gr = grx * xv * r * (1.0 - r)
        gc = gz @ _t(w_z) + gr @ _t(w_r) + gn @ _t(w_c)
        gx = g * (1.0 - z) + grx * r + gz @ _t(u_z) + gr @ _t(u_r)
        g_in, g_out = gc[..., :d], gc[..., d:]
        grads = (gx, g_in @ _t(w_in), g_out @ _t(w_out),
                 _t(ai) @ g_in, _t(ao) @ g_out,
                 g_in.sum(axis=-2), g_out.sum(axis=-2),
                 _t(c) @ gz, _t(c) @ gr, _t(c) @ gn,
                 _t(xv) @ gz, _t(xv) @ gr, _t(rx) @ gn)
        for t, grad in zip(parents, grads):
            _accum(t, grad)

    out = _make((1.0 - z) * xv + z * n, parents, _bw)
    return out


def sigmoid_projection(x, weight, bias) -> Tensor:
    """``sigmoid(x W_k) + b_k`` for the K slices of a (K, d, d_f) weight
    and (K, d_f) bias, side by side: (..., d) -> (..., K d_f), slice k in
    columns [k d_f, (k+1) d_f).  One GEMM against the slices laid out as
    (d, K d_f); the backward forms ``g s (1 - s)``, then one GEMM each to
    ``x`` and the weight."""
    x, weight, bias = parents = tuple(map(as_tensor, (x, weight, bias)))
    k, d, f = weight.value.shape
    w = np.swapaxes(weight.value, 0, 1).reshape(d, k * f)
    rows = x.value.reshape(-1, d)
    s = _sigmoid(rows @ w)

    def _bw():
        g = out.grad.reshape(s.shape)
        gs = g * s * (1.0 - s)
        if x.requires_grad:
            _accum(x, (gs @ w.T).reshape(x.value.shape))
        if weight.requires_grad:
            _accum(weight, np.swapaxes((rows.T @ gs).reshape(d, k, f), 0, 1))
        _accum(bias, g.sum(axis=0).reshape(k, f))

    out = _make((s + bias.value.reshape(k * f)).reshape(
        x.value.shape[:-1] + (k * f,)), parents, _bw)
    return out


def attention_readout(h, alias, lengths, weights, normalize=False) -> Tensor:
    """Soft-attention readout of node states ``h`` (..., M, d) into one
    embedding per session, (B, lead d), the leading slices side by side.

    Sessions lie one after another: ``lengths`` (B,) counts each one's
    positions and ``alias`` (P,) holds each position's node row.
    ``weights`` (q, W_c, W_l, W_m) are 2-D or stacked on h's leading
    axes.  With l a session's last state, each node scores ``q .
    sigmoid(h_i W_c + l W_l)`` once and each position takes its node's
    score; ``normalize`` turns a session's scores into a softmax over its
    positions.  The weighted sum over positions is one block-diagonal CSR
    product (``_edge_csr``), and the embedding ``[l, mixed] W_m``.
    """
    parents = tuple(map(as_tensor, (h, *weights)))
    hv, q, w_c, w_l, w_m = (t.value for t in parents)
    lead, (m, d) = hv.shape[:-2], hv.shape[-2:]
    if q.shape[:-1] not in ((), lead):
        raise ValueError("readout weights must be 2-D or stacked on the "
                         "leading axes of the states")
    alias, lengths = np.asarray(alias), np.asarray(lengths)
    b, count = lengths.size, int(np.prod(lead))
    pos_session = np.repeat(np.arange(b), lengths)
    node_session = np.zeros(m, dtype=np.int64)
    node_session[alias] = pos_session
    ends = alias[np.cumsum(lengths) - 1]
    last = hv[..., ends, :]                                # (..., B, d)
    hidden = _sigmoid(hv @ w_c + (last @ w_l)[..., node_session, :])
    alpha = (hidden @ q[..., None])[..., alias, 0]         # (..., P)
    if normalize:
        # each session's top score is shifted out; softmax ignores it
        top = np.maximum.reduceat(alpha, np.cumsum(lengths) - lengths,
                                  axis=-1)
        alpha = np.exp(alpha - np.repeat(top, lengths, axis=-1))
    a = _edge_csr(alpha.reshape(count, -1), alias, pos_session, b, m)
    xs = hv.reshape(count * m, d)
    num = (a @ xs).reshape(lead + (b, d))
    den = (a @ np.ones((count * m, 1))).reshape(lead + (b, 1)) \
        if normalize else 1.0
    merged = np.concatenate([last, num / den], axis=-1)    # (..., B, 2d)

    def _bw():
        g = np.moveaxis(out.grad.reshape((b,) + lead + (d,)), 0, -2)
        gm = g @ _t(w_m)
        g_last, g_mixed = gm[..., :d], gm[..., d:]
        g_num = (g_mixed / den).reshape(count, b, d)
        gh = (a.T @ g_num.reshape(count * b, d)).reshape(lead + (m, d))
        g_alpha = np.einsum("led,led->le", g_num[:, pos_session],
                            xs.reshape(count, m, d)[:, alias])
        if normalize:
            g_den = (-g_mixed * num / (den * den)).sum(axis=-1, keepdims=True)
            g_alpha += g_den.reshape(count, b)[:, pos_session]
            g_alpha *= alpha
        g_score = np.zeros(lead + (m, 1))
        np.add.at(g_score, (..., alias, 0), g_alpha.reshape(lead + (-1,)))
        g_pre = g_score * q[..., None, :] * hidden * (1.0 - hidden)
        g_anchor = np.zeros_like(last)
        np.add.at(g_anchor, (..., node_session, slice(None)), g_pre)
        gh += g_pre @ _t(w_c)
        np.add.at(gh, (..., ends, slice(None)), g_last + g_anchor @ _t(w_l))
        grads = (gh, (_t(hidden) @ g_score)[..., 0], _t(hv) @ g_pre,
                 _t(last) @ g_anchor, _t(merged) @ g)
        for t, grad in zip(parents, grads):
            _accum(t, _unbroadcast(grad, t.value.shape))

    out = _make(np.moveaxis(merged @ w_m, -2, 0).reshape(b, -1), parents, _bw)
    return out


_ROW_BLOCK = 64     # session rows scored at a time


def _softmax(x):
    """Softmax over the last axis of ``x``, in place."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def mean_softmax(*heads) -> Tensor:
    """Mean over heads of ``softmax(s @ c.T)``, (..., N), from (session
    rows (..., d), catalog rows (N, d)) pairs.

    A block of ``_ROW_BLOCK`` session rows at a time, each head's logits
    are one GEMM into a buffer the kernel owns, normalized in place and
    added into the output.  With a graph recorded the buffers are whole
    (..., N) arrays, which the backward needs: ``w * P_h * (g - <g, P_h>)``
    to head h's logits (``w = 1 / heads``), then one GEMM each to s and
    c.  Otherwise every head reuses one block.
    """
    pairs = [(as_tensor(s), as_tensor(c)) for s, c in heads]
    lead, n = pairs[0][0].value.shape[:-1], pairs[0][1].value.shape[0]
    if any(s.value.shape[:-1] != lead
           or c.value.shape != (n, s.value.shape[-1]) for s, c in pairs):
        raise ValueError("mean_softmax needs (session (..., d), catalog "
                         "(N, d)) pairs of one session shape and one N")
    rows = [s.value.reshape(-1, s.value.shape[-1]) for s, _ in pairs]
    count, w = len(rows[0]), 1.0 / len(pairs)
    parents = tuple(t for pair in pairs for t in pair)
    record = _recording and any(t.requires_grad for t in parents)
    probs = ([np.empty((count, n)) for _ in pairs] if record else
             [np.empty((min(_ROW_BLOCK, count), n))] * len(pairs))
    value = np.zeros((count, n))
    for lo in range(0, count, _ROW_BLOCK):
        block = value[lo:lo + _ROW_BLOCK]
        at = lo if record else 0
        for r, (_, c), p in zip(rows, pairs, probs):
            block += _softmax(np.matmul(r[lo:lo + _ROW_BLOCK], c.value.T,
                                        out=p[at:at + len(block)]))
        block *= w

    def _bw():
        g = out.grad.reshape(count, n)
        for (s, c), r, p in zip(pairs, rows, probs):
            gh = g * p
            np.subtract(g, gh.sum(axis=-1, keepdims=True), out=gh)
            gh *= p
            gh *= w
            if s.requires_grad:
                _accum(s, (gh @ c.value).reshape(s.value.shape))
            if c.requires_grad:
                _accum(c, (r.T @ gh).T)   # matmul's orientation, same bits

    out = _make(value.reshape(lead + (n,)), parents, _bw)
    return out


def _bce_margin(p, rows, targets):
    """``p`` at each row's target and ``1 - p`` elsewhere, rows of (M, N)."""
    x = 1.0 - p
    x[rows, targets] = p[rows, targets]
    return x


def onehot_bce(p, targets, floor: float) -> Tensor:
    """Binary cross-entropy of probabilities (..., N) against one-hot
    targets (...), summed over the last axis and averaged over the rest.

    ``-log p_t - sum_{j != t} log(1 - p_j)``, each log's argument clamped
    below at ``floor``; the gradient is 0 wherever a clamp is active.
    """
    p = as_tensor(p)
    n = p.value.shape[-1]
    flat = p.value.reshape(-1, n)
    targets = np.broadcast_to(np.asarray(targets), p.value.shape[:-1]).ravel()
    if targets.size and not 0 <= targets.min() <= targets.max() < n:
        raise ValueError(f"targets must lie in [0, {n})")
    rows = np.arange(len(flat))
    x = _bce_margin(flat, rows, targets)
    np.maximum(x, floor, out=x)
    value = -np.log(x, out=x).sum(axis=-1).mean()

    def _bw():
        x = _bce_margin(flat, rows, targets)
        clamped = x <= floor
        np.maximum(x, floor, out=x)
        np.divide(out.grad / len(rows), x, out=x)
        x[clamped] = 0.0
        x[rows, targets] *= -1.0
        _accum(p, x.reshape(p.value.shape))

    out = _make(value, (p,), _bw)
    return out


def pair_contrast(anchor, positive, partner, neg_idx, weight,
                  bilinear=None) -> Tensor:
    """``sum_i w_i [softplus(-s(a_i, p_i)) + mean_j softplus(s(a_i, c_n))]``
    over the rows of (..., M, d) states, ``n = neg_idx[..., i, j]`` a
    partner row of the same slice, ``s(a, b)`` = ``a . b`` or, given the
    (d, d) weight ``bilinear``, ``(a W) . b``.  The row weights ``weight``
    (M,) broadcast over the leading axes; the partner rows take their
    gradient by ``getitem``'s scatter."""
    parents = tuple(as_tensor(t) for t in (anchor, positive, partner, bilinear)
                    if t is not None)
    a, p, c = (t.value for t in parents[:3])
    neg_idx = np.asarray(neg_idx)
    if not (a.ndim in (2, 3) and a.shape == p.shape == c.shape
            and neg_idx.shape[:-1] == a.shape[:-1]):
        raise ValueError("pair_contrast needs ([K,] M, d) states and "
                         "([K,] M, per) neg_idx")
    key = (neg_idx,) if a.ndim == 2 else \
        (np.arange(len(neg_idx))[:, None, None], neg_idx)
    c_neg, a_neg = c[key], a[..., None, :]                 # (..., M, per, d)
    q, q_neg = (a, a_neg) if bilinear is None else \
        (a @ parents[3].value, a_neg @ parents[3].value)
    pos = (q * p).sum(axis=-1)
    neg = (q_neg * c_neg).sum(axis=-1)
    terms = np.logaddexp(0.0, -pos) + np.logaddexp(0.0, neg).mean(axis=-1)

    def _bw():
        g = out.grad * weight
        g_pos = -g * _sigmoid(-pos)
        g_neg = (g / neg.shape[-1])[..., None] * _sigmoid(neg)
        g_q = g_pos[..., None] * p + (g_neg[..., None, :] @ c_neg)[..., 0, :]
        g_c = np.zeros_like(c)
        np.add.at(g_c, key, g_neg[..., None] * q_neg)
        grads = [g_q, g_pos[..., None] * q, g_c]
        if bilinear is not None:
            rows = a.reshape(-1, a.shape[-1])
            grads[0] = g_q @ parents[3].value.T
            grads.append(rows.T @ g_q.reshape(rows.shape))
        for t, grad in zip(parents, grads):
            _accum(t, grad)

    out = _make((terms * weight).sum(), parents, _bw)
    return out


def _row_groups(rows: np.ndarray, **kw):
    """``np.unique`` over ``rows[i]``, the leading-axis entries of an
    array, by value: each entry is compared as one opaque byte string,
    which sorts far faster than field by field, after ``+ 0.0`` folds
    -0.0 into 0.0."""
    rows = np.add(rows, 0.0, order="C").reshape(len(rows), -1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    return np.unique(keys.ravel(), **kw)


def _distances(x: np.ndarray) -> np.ndarray:
    """Euclidean distance matrices (K, m, m) of the rows of each slice of
    a (K, m, d) array.

    Equal rows, the diagonal included, are exactly 0 apart; the expanded
    square ``|x_i|^2 + |x_j|^2 - 2 x_i.x_j`` alone leaves rounding noise
    of about 1e-8 there.  Rows are grouped by value within their slice:
    the slice index rides along as an extra leading column.
    """
    k, m, d = x.shape
    sq = (x * x).sum(axis=-1)
    out = x @ np.ascontiguousarray(np.swapaxes(x, -1, -2))
    out *= -2.0
    out += sq[:, :, None]
    out += sq[:, None, :]
    np.maximum(out, 0.0, out=out)
    tagged = np.concatenate([np.repeat(np.arange(k, dtype=np.float64), m)[:, None],
                             x.reshape(k * m, d)], axis=1)
    group = _row_groups(tagged, return_inverse=True)[1].reshape(k, m)
    out[group[:, :, None] == group[:, None, :]] = 0.0
    return np.sqrt(out, out=out)


def distance_correlation_sum(x) -> Tensor:
    """Distance correlation summed over the ordered pairs of K samples.

    ``x`` stacks K samples of m rows as (K, m, d); A_k is the
    double-centred Euclidean distance matrix of the rows of ``x[k]``.
    The Gram matrix ``G_ij = mean(A_i * A_j)`` holds every squared
    distance covariance and, on its diagonal, variance; the result is
    ``2 sum_{i<j} sqrt(G_ij) / sqrt(sqrt(G_ii) sqrt(G_jj))``.  A pair
    with a zero variance, or with G_ij <= 0 after rounding, adds exactly
    0; with no pair left the result is a constant 0.

    n copies of a row enter the mean like one row of weight n, so rows
    equal in every slice are merged first.  With U distinct rows of
    counts c and weights ``w = c / m``: ``r = D w``, ``A = D - r 1' -
    1 r' + w'r`` and ``G_ij = sum_uv w_u w_v A_i[u, v] A_j[u, v]``, one
    (K, U*U) @ (U*U, K) product of the A_k scaled by ``sqrt(w_u w_v)``.
    Rows equal in some slices only are not merged; within such a slice
    they are exactly 0 apart.  Each copy of a merged row gets the merged
    row's gradient divided by the count.  Zero distances get zero
    gradient, the subgradient choice at the non-differentiable point.
    """
    x = as_tensor(x)
    xv = np.ascontiguousarray(x.value)  # a strided view slows every pass
    k, m = xv.shape[:2]
    first, inverse, counts = _row_groups(
        np.swapaxes(xv, 0, 1), return_index=True, return_inverse=True,
        return_counts=True)[1:]
    xu, u = xv[:, first], len(first)
    w = counts / m
    root = np.sqrt(w)
    scale = root[:, None] * root[None, :]
    dist = _distances(xu)
    r = dist @ w
    b = dist - r[:, :, None]
    b -= r[:, None, :] - (r @ w)[:, None, None]
    b *= scale
    b = b.reshape(k, u * u)
    gram = b @ b.T
    i, j = np.triu_indices(k, 1)
    keep = (gram[i, i] != 0.0) & (gram[j, j] != 0.0) & (gram[i, j] > 0.0)
    if not keep.any():
        return Tensor(np.float64(0.0))
    i, j = i[keep], j[keep]
    root_i, root_j = np.sqrt(gram[i, i]), np.sqrt(gram[j, j])
    num, den = np.sqrt(gram[i, j]), np.sqrt(root_i * root_j)

    def _bw():
        g = out.grad * 2.0
        g_den = -g * num / (den * den) * 0.5 / den
        g_gram = np.zeros((k, k))
        np.add.at(g_gram, (i, j), g / den * 0.5 / num)
        np.add.at(g_gram, (i, i), g_den * root_j * 0.5 / root_i)
        np.add.at(g_gram, (j, j), g_den * root_i * 0.5 / root_j)
        # Weighted double centring is a projection, and its adjoint
        # leaves w_u w_v A_k[u, v] as it is (A_k w = 0), so (dG + dG.T) @
        # (W * A) is the gradient w.r.t. the distances as it stands; d_uv
        # = d_vu folds each pair's two entries into a factor 2.  The
        # ratio is formed in place; nothing reads dist after this, so its
        # zeros become inf, where ratio / inf = 0
        ratio = ((g_gram + g_gram.T) * 2.0 @ b).reshape(k, u, u)
        ratio *= scale
        dist[dist == 0.0] = np.inf
        ratio /= dist
        grad = ratio.sum(axis=2, keepdims=True) * xu - ratio @ xu
        grad /= counts[:, None]
        _accum(x, grad[:, inverse])

    out = _make((num / den).sum() * 2.0, (x,), _bw)
    return out


def normalize_rows(a) -> Tensor:
    """L2-normalize along the last axis; rows with zero norm map to zero."""
    a = as_tensor(a)
    x = a.value
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    safe = np.where(norm > 0.0, norm, 1.0)
    unit = np.where(norm > 0.0, x / safe, 0.0)

    def _bw():
        g = out.grad
        inner = (x * g).sum(axis=-1, keepdims=True)
        grad = g / safe - x * inner / (safe ** 3)
        _accum(a, np.where(norm > 0.0, grad, 0.0))

    out = _make(unit, (a,), _bw)
    return out
