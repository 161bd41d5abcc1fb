"""Reverse-mode automatic differentiation over numpy float64 arrays.

Small tape just big enough for this library: one generic op, advanced
indexing (``getitem``), and otherwise kernels with hand-written
backward rules, one per model mechanism: weighted sums along graph
edges (``edge_matmul``), the cosine of each edge's end rows
(``cosine_edges``), the GGNN cell's gated update (``gated_update``),
the sigmoid factor projection (``sigmoid_projection``), the
soft-attention session readout
(``attention_readout``), the mean catalog softmax of the item and
factor heads (``mean_softmax``, one whole-batch GEMM per head), the
clamped one-hot binary cross-entropy (``onehot_bce``), the binary
contrastive objective of rows against their positives and one sampled
partner row each, scored by dot product (``pair_contrast``), the summed
distance correlation of K samples (``distance_correlation_sum``, over
the distinct rows, each weighted by its count; every copy of a row gets
an equal share of its gradient) and the weighted sum of the loss terms
(``total_loss``, which hands back its contrastive mix as a number, not
a node).
Everything runs in float64 and is deterministic: no threads,
accumulation order fixed by the topological order of the graph; a sum
of rows driven by an index list (``_scatter_rows``, one ``np.bincount``)
adds each output row's terms in the list's order, as a loop would.  An
interior node's gradient is never mutated in place: its first
contribution is stored, later ones make a new sum.  A ``Parameter``
accumulates in place instead, into a gradient buffer it keeps from step
to step (a view of the optimizer's flat gradient vector once an
optimizer binds it).  A kernel's single backward may overwrite the
arrays that only its closure holds (softmax probabilities, the BCE's
margin, the sigmoid), never its inputs, its output or the gradient it
receives.  A backward closure reaches its output node through a weak
reference, so a graph that is never backpropagated is freed by
reference counting alone.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager

import numpy as np


def _to_value(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x if x.dtype == np.float64 else x.astype(np.float64)
    return np.asarray(x, dtype=np.float64)


def _t(a):
    return np.swapaxes(a, -1, -2)


class Tensor:
    """A node in the computation graph wrapping a float64 ndarray."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward",
                 "__weakref__")

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
    """Leaf tensor updated by an optimizer.

    Its gradient lives in a buffer it keeps from one backward pass to the
    next: the pass's first gradient is copied in, later ones are added in
    place.  ``grad`` reads None until the first one arrives; setting it
    to None starts a new pass.  Whether the buffer holds this pass's
    gradient is a one-element flag array, ``_flag``, which can be a view
    of an optimizer's flags for all its parameters (see ``bind``).
    """

    __slots__ = ("_grad", "_flag")

    def __init__(self, value):
        self._grad, self._flag = None, np.zeros(1, bool)
        super().__init__(value, requires_grad=True)

    @property
    def grad(self):
        return self._grad if self._flag[0] else None

    @grad.setter
    def grad(self, g):
        self._flag[0] = False
        if g is not None:
            self.add_grad(g)

    def bind(self, value, grad, flag):
        """Copy the value into ``value``, an array of its shape, and make
        that the value; take ``grad`` and the one-element ``flag`` as
        they stand for the gradient buffer and its flag."""
        value[...] = self.value
        self.value, self._grad, self._flag = value, grad, flag

    def _buffer(self):
        """The gradient buffer, made if need be, marked as holding this
        pass's gradient."""
        if self._grad is None:
            self._grad = np.empty_like(self.value)
        self._flag[0] = True
        return self._grad

    def add_grad(self, g):
        if self._flag[0]:
            self._grad += g
        else:
            np.copyto(self._buffer(), g)

    def add_rows(self, index, rows):
        """Add ``rows`` into the gradient rows at the distinct ``index``;
        every other row gets nothing."""
        if not self._flag[0]:
            self._buffer().fill(0.0)
        self._grad[index] += rows


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
    if isinstance(t, Parameter):
        t.add_grad(g)
    elif t.requires_grad:
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
    """A node of ``value`` whose backward is ``backward(g)``, ``g`` its
    gradient; a constant when nothing records or needs a gradient.  The
    node's ``_backward`` holds it by a weak reference only."""
    if not (_recording and any(p.requires_grad for p in parents)):
        return Tensor(value)
    out = Tensor(value, requires_grad=True, parents=parents)
    node = weakref.ref(out)
    out._backward = lambda: backward(node().grad)
    return out


# -- indexing ---------------------------------------------------------------

def getitem(a, key) -> Tensor:
    """``a[key]``.  Into a 2-D Parameter, a 1-D integer ``key`` takes its
    gradient as one row per distinct index, summed in ``key``'s order,
    added into the parameter's buffer: the rounding of a scatter into
    zeros added to the gradient so far, without the zeros."""
    a = as_tensor(a)

    def _bw(g):
        if (isinstance(a, Parameter) and a.value.ndim == 2
                and isinstance(key, np.ndarray) and key.ndim == 1
                and key.dtype.kind in "iu"):
            index, inverse = np.unique(key % len(a.value),   # -1 is n - 1
                                       return_inverse=True)
            a.add_rows(index, _scatter_rows(inverse, g, index.size))
            return
        buf = np.zeros_like(a.value)
        if isinstance(key, slice):
            buf[key] += g
        else:
            np.add.at(buf, key, g)
        _accum(a, buf)

    return _make(a.value[key], (a,), _bw)


# -- custom kernels ---------------------------------------------------------

def _sigmoid(x):
    """The logistic function as ``0.5 tanh(x / 2) + 0.5``, no overflow,
    in place: ``x`` is a temporary of its caller's, returned."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


CHUNK = 1 << 15     # elements of a pass that stays in cache (L2)


def _row_spans(a):
    """Slices of ``a``'s rows, about ``CHUNK`` elements each."""
    step = max(1, CHUNK // max(1, a.shape[-1]))
    return [slice(lo, lo + step) for lo in range(0, len(a), step)]


def _row_blocks(a):
    """``_row_spans(a)``, each with a scratch block of its shape; one
    scratch array serves all."""
    spans = _row_spans(a)
    buf = np.empty_like(a[spans[0]] if spans else a)
    for span in spans:
        yield span, buf[:len(a[span])]


def _scatter_rows(index, rows, n, weight=None):
    """``out[..., index[..., i], :] += rows[..., i, :]`` into zeros (...,
    n, d), ``index`` (E,) or stacked on the leading axes of ``rows`` (...,
    E, d).  One ``np.bincount`` over the flattened (slice, row, column)
    index: each output row's terms are added in ``i``'s order.  A
    ``weight`` (..., E) scales the rows first, in place: they must be a
    fresh gather, which saves a temporary the size of the rows."""
    if weight is not None:
        rows *= weight[..., None]
    lead, d = rows.shape[:-2], rows.shape[-1]
    size = int(np.prod(lead)) * n
    flat = (np.arange(0, size, n).reshape(lead + (1,)) + index)[..., None]
    return np.bincount((flat * d + np.arange(d)).ravel(), rows.ravel(),
                       size * d).reshape(lead + (n, d))


def edge_matmul(values, x, src, dst, m) -> Tensor:
    """Weighted rows summed along edges into an (..., m, d) result:
    ``out[..., dst[e], :] += values[..., e] * x[..., src[e], :]``.

    ``values`` (..., E) and ``x`` (..., n, d) have the same leading
    axes, and repeated (src, dst) pairs add up.  The forward is one
    ``_scatter_rows`` of the weighted ``src`` rows into ``dst``, the
    backward to ``x`` the same with ``src`` and ``dst`` swapped, each in
    edge order; the backward to ``values`` is, per edge, the dot product
    of the output gradient at ``dst`` and ``x`` at ``src``.
    """
    values, x = as_tensor(values), as_tensor(x)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    lead, n = x.value.shape[:-2], x.value.shape[-2]
    if values.value.shape[:-1] != lead:
        raise ValueError("values and x must have the same leading axes")
    if not src.shape == dst.shape == values.value.shape[-1:]:
        raise ValueError("src, dst and the last axis of values must agree")
    if src.size and not (0 <= min(src.min(), dst.min())
                         and src.max() < n and dst.max() < m):
        raise ValueError(f"edges must run from [0, {n}) into [0, {m})")

    def _bw(g):
        if x.requires_grad:
            _accum(x, _scatter_rows(src, g[..., dst, :], n, values.value))
        if values.requires_grad:
            _accum(values, np.einsum("...ed,...ed->...e", g[..., dst, :],
                                     x.value[..., src, :]))

    return _make(_scatter_rows(dst, x.value[..., src, :], m, values.value),
                 (values, x), _bw)


def cosine_edges(x, src, dst) -> Tensor:
    """The cosine of each edge's end rows, per leading slice: states
    (..., M, d) -> weights (..., E), ``w[..., e] = u[..., src[e], :] .
    u[..., dst[e], :]`` for the unit rows ``u = x / |x|``.

    A zero row's unit row is 0: its edges weigh 0 and it takes no
    gradient.  The backward adds each edge's gradient times the other
    end's unit row into each end (repeated edges add up), one
    ``_scatter_rows`` per end, then projects out the radial part:
    ``g / |x| - x (x . g) / |x|^3``.
    """
    x = as_tensor(x)
    xv = x.value
    m = xv.shape[-2]
    norm = np.sqrt((xv * xv).sum(axis=-1, keepdims=True))
    safe = np.where(norm > 0.0, norm, 1.0)
    unit = xv / safe                    # a zero row stays 0

    def _bw(g):
        g = (_scatter_rows(src, unit[..., dst, :], m, g)
             + _scatter_rows(dst, unit[..., src, :], m, g))
        inner = (xv * g).sum(axis=-1, keepdims=True)
        grad = g / safe - xv * inner / (safe ** 3)
        _accum(x, np.where(norm > 0.0, grad, 0.0))

    return _make((unit[..., src, :] * unit[..., dst, :]).sum(axis=-1), (x,),
                 _bw)


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

    def _bw(g):
        d = xv.shape[-1]
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

    return _make((1.0 - z) * xv + z * n, parents, _bw)


def sigmoid_projection(x, weight, bias, stacked=False) -> Tensor:
    """``sigmoid(x W_k) + b_k`` for the K slices of a (K, d, d_f) weight
    and (K, d_f) bias, side by side: (..., d) -> (..., K d_f), slice k in
    columns [k d_f, (k+1) d_f).  ``stacked`` lays the same numbers out
    as K views instead, (..., n, d) -> (..., K, n, d_f), a view of the
    side-by-side array.  One GEMM against the slices laid out as (d, K
    d_f), the sigmoid formed in place on its output; the backward writes
    ``1 - s`` and then ``g s (1 - s)`` over ``s``, a cache-sized block of
    rows at a time, then makes one GEMM each to ``x`` and the weight."""
    x, weight, bias = parents = tuple(map(as_tensor, (x, weight, bias)))
    k, d, f = weight.value.shape
    w = np.swapaxes(weight.value, 0, 1).reshape(d, k * f)
    rows = x.value.reshape(-1, d)
    s, b = rows @ w, bias.value.reshape(k * f)
    value = np.empty_like(s)
    for span in _row_spans(s):
        np.add(_sigmoid(s[span]), b, out=value[span])

    def _bw(g):
        g = (np.swapaxes(g, -3, -2) if stacked else g).reshape(s.shape)
        for span, buf in _row_blocks(s):        # s becomes g s (1 - s)
            np.multiply(g[span], s[span], out=buf)
            np.subtract(1.0, s[span], out=s[span])
            s[span] *= buf
        if x.requires_grad:
            _accum(x, (s @ w.T).reshape(x.value.shape))
        if weight.requires_grad:
            _accum(weight, np.swapaxes((rows.T @ s).reshape(d, k, f), 0, 1))
        _accum(bias, g.sum(axis=0).reshape(k, f))

    lead = x.value.shape[:-1]
    value = (np.swapaxes(value.reshape(lead + (k, f)), -3, -2) if stacked
             else value.reshape(lead + (k * f,)))
    return _make(value, parents, _bw)


def attention_readout(h, alias, lengths, weights) -> Tensor:
    """Soft-attention readout of node states ``h`` (..., M, d) into one
    embedding per session, (B, lead d), the leading slices side by side.

    Sessions lie one after another: ``lengths`` (B,) counts each one's
    positions and ``alias`` (P,) holds each position's node row.
    ``weights`` (q, W_c, W_l, W_m) are stacked exactly on h's leading
    axes (2-D for 2-D ``h``).  With l a session's last state, each node
    scores ``q . sigmoid(h_i W_c + l W_l)`` once and each position takes
    its node's score.  The score-weighted sum over positions is one
    ``_scatter_rows``, and the embedding ``[l, mixed] W_m``.
    """
    parents = tuple(map(as_tensor, (h, *weights)))
    hv, q, w_c, w_l, w_m = (t.value for t in parents)
    lead, (m, d) = hv.shape[:-2], hv.shape[-2:]
    if q.shape[:-1] != lead:
        raise ValueError("readout weights must be stacked exactly on the "
                         "leading axes of the states")
    alias, lengths = np.asarray(alias), np.asarray(lengths)
    b = lengths.size
    pos_session = np.repeat(np.arange(b), lengths)
    node_session = np.zeros(m, dtype=np.int64)
    node_session[alias] = pos_session
    ends = alias[np.cumsum(lengths) - 1]
    last = hv[..., ends, :]                                # (..., B, d)
    hidden = _sigmoid(hv @ w_c + (last @ w_l)[..., node_session, :])
    alpha = (hidden @ q[..., None])[..., alias, 0]         # (..., P)
    mixed = _scatter_rows(pos_session, hv[..., alias, :], b, alpha)
    merged = np.concatenate([last, mixed], axis=-1)        # (..., B, 2d)

    def _bw(g):
        g = np.moveaxis(g.reshape((b,) + lead + (d,)), 0, -2)
        gm = g @ _t(w_m)
        g_last, g_mixed = gm[..., :d], gm[..., d:]
        gh = _scatter_rows(alias, g_mixed[..., pos_session, :], m, alpha)
        g_alpha = np.einsum("...pd,...pd->...p", g_mixed[..., pos_session, :],
                            hv[..., alias, :])
        g_score = _scatter_rows(alias, g_alpha[..., None], m)
        g_pre = g_score * q[..., None, :] * hidden * (1.0 - hidden)
        g_anchor = _scatter_rows(node_session, g_pre, b)
        gh += g_pre @ _t(w_c)
        gh[..., ends, :] += g_last + g_anchor @ _t(w_l)
        grads = (gh, (_t(hidden) @ g_score)[..., 0], _t(hv) @ g_pre,
                 _t(last) @ g_anchor, _t(merged) @ g)
        for t, grad in zip(parents, grads):
            _accum(t, grad)

    return _make(np.moveaxis(merged @ w_m, -2, 0).reshape(b, -1), parents,
                 _bw)


def _softmax(x, w):
    """``w softmax(x)`` over the rows of 2-D ``x``, in place, a block of
    rows at a time.  For ``w`` a power of two this is exactly ``w`` times
    the softmax."""
    for span in _row_spans(x):
        b = x[span]
        b -= b.max(axis=-1, keepdims=True)
        np.exp(b, out=b)
        b /= b.sum(axis=-1, keepdims=True) / w
    return x


def mean_softmax(item, factor=None) -> Tensor:
    """Mean over the item head and, if given, the factor head of
    ``softmax(s @ c.T)``, (..., N), each head a (session rows (..., d),
    catalog rows (N, d)) pair.

    With ``w = 1 / heads``, head h gives ``P_h = w softmax(s_h @ c_h.T)``
    and the output is the sum of the P_h: the same bits as the mean,
    since ``w`` is a power of two.  With a graph recorded each P_h is
    one GEMM over all session rows, normalized in place and kept, and
    the backward overwrites it with the gradient to its head's logits,
    ``(g - <g, P_h> / w) P_h``, a cache-sized block of rows at a time;
    then one GEMM each to s and c.  Without a graph the factor head is
    added into the item head's array, which is returned as a constant.
    """
    pairs = [(as_tensor(s), as_tensor(c))
             for s, c in ([item] if factor is None else [item, factor])]
    lead, n = pairs[0][0].value.shape[:-1], pairs[0][1].value.shape[0]
    if any(s.value.shape[:-1] != lead
           or c.value.shape != (n, s.value.shape[-1]) for s, c in pairs):
        raise ValueError("mean_softmax needs (session (..., d), catalog "
                         "(N, d)) pairs of one session shape and one N")
    rows = [s.value.reshape(-1, s.value.shape[-1]) for s, _ in pairs]
    count, w = len(rows[0]), 1.0 / len(pairs)
    parents = tuple(t for pair in pairs for t in pair)
    probs = [_softmax(r @ c.value.T, w) for r, (_, c) in zip(rows, pairs)]
    if not (_recording and any(t.requires_grad for t in parents)):
        if factor is not None:
            probs[0] += probs[1]
        return Tensor(probs[0].reshape(lead + (n,)))
    value = probs[0] + probs[1] if factor is not None else probs[0].copy()

    def _bw(g):
        g = g.reshape(count, n)
        for h, ((s, c), r) in enumerate(zip(pairs, rows)):
            p, probs[h] = probs[h], None    # freed once its GEMMs are done
            for span, buf in _row_blocks(p):
                t = np.multiply(g[span], p[span], out=buf)
                np.subtract(g[span], t.sum(axis=-1, keepdims=True) / w,
                            out=t)
                p[span] *= t
            if s.requires_grad:
                _accum(s, (p @ c.value).reshape(s.value.shape))
            if c.requires_grad:
                _accum(c, (r.T @ p).T)    # matmul's orientation, same bits

    return _make(value.reshape(lead + (n,)), parents, _bw)


def onehot_bce(p, targets, floor: float) -> Tensor:
    """Binary cross-entropy of probabilities (..., N) against one-hot
    targets (...), summed over the last axis and averaged over the rest.

    ``-log p_t - sum_{j != t} log(1 - p_j)``, each log's argument clamped
    below at ``floor``; the gradient is 0 wherever a clamp is active.
    The margin (``p_t`` and the ``1 - p_j``) is formed once and kept for
    the backward, which divides the gradient by it in place; the clamp
    and its mask cost passes only when some margin reaches ``floor``.
    The logs are summed a cache-sized block of rows at a time.
    """
    p = as_tensor(p)
    n = p.value.shape[-1]
    flat = p.value.reshape(-1, n)
    targets = np.broadcast_to(np.asarray(targets), p.value.shape[:-1]).ravel()
    if targets.size and not 0 <= targets.min() <= targets.max() < n:
        raise ValueError(f"targets must lie in [0, {n})")
    rows = np.arange(len(flat))
    x = 1.0 - flat
    x[rows, targets] = flat[rows, targets]
    clamped = None
    if x.size and x.min() <= floor:
        clamped = x <= floor
        np.maximum(x, floor, out=x)
    sums = np.empty(len(x))
    for span, buf in _row_blocks(x):
        sums[span] = np.log(x[span], out=buf).sum(axis=-1)

    def _bw(g):
        np.divide(g / len(rows), x, out=x)
        if clamped is not None:
            x[clamped] = 0.0
        x[rows, targets] *= -1.0
        _accum(p, x.reshape(p.value.shape))

    return _make(-sums.mean(), (p,), _bw)


def pair_contrast(anchor, positive, partner, neg_idx, weight) -> Tensor:
    """``sum_i w_i [softplus(-a_i . p_i) + softplus(a_i . c_n)]`` over the
    rows of ([K,] M, d) states, ``n = neg_idx[..., i]`` a partner row of
    the same slice.  The row weights ``weight`` (M,) broadcast over the
    leading axis; the partner rows take their gradient by one scatter."""
    parents = tuple(as_tensor(t) for t in (anchor, positive, partner))
    a, p, c = (t.value for t in parents)
    neg_idx = np.asarray(neg_idx)
    if not (a.ndim in (2, 3) and a.shape == p.shape == c.shape
            and neg_idx.shape == a.shape[:-1]):
        raise ValueError("pair_contrast needs ([K,] M, d) states and "
                         "([K,] M) neg_idx")
    key = (neg_idx,) if a.ndim == 2 else \
        (np.arange(len(neg_idx))[:, None], neg_idx)
    c_neg = c[key]
    pos = (a * p).sum(axis=-1)
    neg = (a * c_neg).sum(axis=-1)
    terms = np.logaddexp(0.0, -pos) + np.logaddexp(0.0, neg)

    def _bw(g):
        g = g * weight
        g_pos = (-g * _sigmoid(-pos))[..., None]
        g_neg = (g * _sigmoid(neg))[..., None]
        g_c = _scatter_rows(neg_idx, g_neg * a, c.shape[-2])
        for t, grad in zip(parents,
                           (g_pos * p + g_neg * c_neg, g_pos * a, g_c)):
            _accum(t, grad)

    return _make((terms * weight).sum(), parents, _bw)


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

    def _bw(g):
        g = g * 2.0
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

    return _make((num / den).sum() * 2.0, (x,), _bw)


def total_loss(prediction, item, factor, independence, alpha, beta_cl,
               beta_ind):
    """The training objective of scalar terms as one node, ``L_p +
    beta_cl (alpha L_i + (1 - alpha) L_f) + beta_ind L_d``, evaluated in
    that order; with no factor term (``factor`` None) the contrastive
    part is ``L_i`` alone.  Returns the loss and the contrastive part as
    the ``np.float64`` the loss is built from."""
    p, d = as_tensor(prediction), as_tensor(independence)
    terms = tuple(as_tensor(t) for t in (item, factor) if t is not None)
    mix = (alpha, 1.0 - alpha) if len(terms) == 2 else (1.0,)
    contrastive = (terms[0].value * alpha + terms[1].value * (1.0 - alpha)
                   if len(terms) == 2 else np.float64(terms[0].value))

    def _bw(g):
        g_c = g * beta_cl
        for t, grad in zip((p, *terms, d),
                           (g, *(g_c * w for w in mix), g * beta_ind)):
            _accum(t, grad)

    return _make(p.value + contrastive * beta_cl + d.value * beta_ind,
                 (p, *terms, d), _bw), contrastive
