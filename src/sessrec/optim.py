"""Adam optimizer over tape Parameters."""

import numpy as np

from .tape import Parameter


class Adam:
    """Standard Adam with bias correction; state is per-parameter and serial."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One update of every parameter with a gradient.

        ``m``, ``v`` and the values change in place, through the same
        operations in the same order as ``m = b1 m + (1 - b1) g``,
        ``v = b2 v + (1 - b2) g^2`` and
        ``p -= lr (m / c1) / (sqrt(v / c2) + eps)``, so the results are
        bit-identical to those expressions.
        """
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            buf = np.multiply(g, 1.0 - self.beta1)
            m *= self.beta1
            m += buf
            np.multiply(g, g, out=buf)
            buf *= 1.0 - self.beta2
            v *= self.beta2
            v += buf
            np.divide(v, c2, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            step = np.divide(m, c1)
            step *= self.lr
            step /= buf
            p.value -= step
