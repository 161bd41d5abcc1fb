"""Adam optimizer over tape Parameters, on flat buffers.

The optimizer lays every parameter out, in the order given, in one flat
value vector and gives it one flat gradient vector of the same layout
(the layout of a checkpoint's ``.bin``).  Each Parameter's ``value`` and
gradient buffer become views into them, so the backward pass
accumulates straight into the flat gradient, and a step is a fixed
sequence of elementwise passes over the flat vectors, a cache-sized
chunk at a time, whatever the number of parameters.  One flag per
parameter, shared with the Parameters, says whether it has a gradient
this step: a parameter without one is skipped, which is not the same as
a zero gradient (that would still move it by its momentum).
"""

import numpy as np

from .tape import CHUNK


class Adam:
    """Standard Adam with bias correction over one flat parameter vector.

    ``value`` and ``grad`` hold parameter i at ``offsets[i]:offsets[i +
    1]``, and ``touched[i]`` is its flag; ``m`` and ``v`` list the
    per-parameter views of the flat moments.
    """

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        sizes = [p.value.size for p in self.params]
        self.offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        total = int(self.offsets[-1])
        self.value, self.grad = np.empty(total), np.zeros(total)
        self._moments = np.zeros((2, total))
        self.touched = np.zeros(len(self.params), dtype=bool)
        self._work = None           # see zero_grad
        for i, (p, value, grad) in enumerate(zip(
                self.params, self._views(self.value), self._views(self.grad))):
            p.bind(value, grad, self.touched[i:i + 1])
        self.m, self.v = map(self._views, self._moments)

    def _views(self, flat):
        """Per-parameter views of a flat vector, in parameter order."""
        return [flat[lo:hi].reshape(p.value.shape)
                for p, lo, hi in zip(self.params, self.offsets[:-1],
                                     self.offsets[1:])]

    def zero_grad(self):
        self.touched[:] = False
        # Made at the first call, between a training step's forward and
        # its backward, the chunk scratch sits above that forward's arrays
        # in the heap, and glibc keeps their pages mapped between steps
        # instead of returning them and faulting them in on every forward.
        self._scratch()

    def _scratch(self):
        if self._work is None:
            self._work = np.empty((2, min(CHUNK, len(self.value))))
        return self._work

    def _chunks(self):
        """(lo, hi) element ranges, at most ``CHUNK`` long, that cover
        the runs of touched parameters."""
        edge = np.diff(self.touched.astype(np.int8), prepend=0, append=0)
        starts = self.offsets[np.flatnonzero(edge == 1)]
        ends = self.offsets[np.flatnonzero(edge == -1)]
        for start, end in zip(starts.tolist(), ends.tolist()):
            for lo in range(start, end, CHUNK):
                yield lo, min(lo + CHUNK, end)

    def first_non_finite(self):
        """Index of the first touched parameter whose gradient holds a
        non-finite entry, or None.  One summing pass over the flat
        gradient decides; only a non-finite sum (an overflow, or a stale
        entry of an untouched parameter) takes a second look."""
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(self.grad.sum()):
                return None
        bad = np.flatnonzero(~np.isfinite(self.grad))
        owner = np.searchsorted(self.offsets, bad, side="right") - 1
        owner = owner[self.touched[owner]]
        return int(owner[0]) if owner.size else None

    def step(self):
        """One update of every parameter with a gradient.

        ``m``, ``v`` and the values change in place, chunk by chunk,
        through the same operations in the same order as ``m = b1 m +
        (1 - b1) g``, ``v = b2 v + (1 - b2) g^2`` and ``p -= lr (m / c1)
        / (sqrt(v / c2) + eps)``, so the results are bit-identical to
        those expressions.
        """
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m_all, v_all = self._moments
        work = self._scratch()
        for lo, hi in self._chunks():
            g, m, v, p = (a[lo:hi] for a in (self.grad, m_all, v_all,
                                              self.value))
            buf, step = work[:, :hi - lo]
            np.multiply(g, 1.0 - self.beta1, out=buf)
            m *= self.beta1
            m += buf
            np.multiply(g, g, out=buf)
            buf *= 1.0 - self.beta2
            v *= self.beta2
            v += buf
            np.divide(v, c2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            np.divide(m, c1, out=step)
            step *= self.lr
            step /= buf
            p -= step
