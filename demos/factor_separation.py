"""
Driving factor views apart
==========================

The projections slice each item embedding into a handful of factor
views.  Nothing makes those views capture different things until the
independence penalty pushes on them: it sums the distance correlation
over all factor pairs, and distance correlation is zero only for
statistically independent samples.

Here the views start heavily entangled on purpose (every projection is
fed the same input), and a few dozen plain gradient steps on the
penalty alone pull the pairwise correlations down.
"""

import numpy as np

from sessrec.disentangle import FactorProjection, dcor, independence_loss, project
from sessrec.optim import Adam
from sessrec.rng import substream

K = 3
rng = substream(0, "demo")
x = rng.normal(size=(40, 10))
proj = FactorProjection.init(input_dim=10, factor_dim=4, num_factors=K,
                             rng=rng)


def pairwise(views):
    """dcor of every pair of the (K, items, width) factor views."""
    v = views.value
    m = np.eye(K)
    for a in range(K):
        for b in range(a + 1, K):
            m[a, b] = m[b, a] = float(dcor(v[a], v[b]).value)
    return m


np.set_printoptions(precision=3, suppress=True)
views = project(x, proj)          # all K views in one (K, 40, 4) tensor
print("pairwise distance correlation at init:")
print(pairwise(views))

params = {name: p for name, p in proj.named_parameters()}
opt = Adam(params.values(), lr=0.05)
for step in range(60):
    for p in params.values():
        p.grad = None
    loss = independence_loss(project(x, proj))
    loss.backward()
    opt.step()
    if step % 20 == 0:
        print(f"step {step:2d}: independence penalty {float(loss.value):.4f}")

views = project(x, proj)
print("after 60 steps on the penalty alone:")
print(pairwise(views))
print("the views now respond to different directions of the input;")
print("in full training this term rides along at a small weight")
