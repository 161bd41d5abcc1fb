"""
Three views of one session
==========================

A session is a short item sequence.  The model reads it three ways:
as a directed transition graph, as one factor-similarity graph per
latent factor, and as the transition graph with an extra hub node wired
to random members.  This script packs a single session into a batch of
one, builds all three views the way training does, as edge lists over
node rows, and prints their weights as matrices.
"""

import numpy as np

from sessrec.dataio import Example
from sessrec.disentangle import FactorProjection, project
from sessrec.model import (_factor_edges, _hub_channel, _star_edges,
                           pack_batch)
from sessrec.propagation import GGNNWeights, ggnn_step
from sessrec.rng import substream
from sessrec.tape import Tensor

np.set_printoptions(precision=3, suppress=True)

session = [4, 2, 9, 2, 7]
pack = pack_batch([Example(session, target=0)])

# repeated items share a node, so 5 positions give 4 nodes
print("session", session)
print("nodes (catalog ids):", pack.node_ids)
print("alias (position -> node row):", pack.alias)


def dense(weights):
    """Edge weights laid out as a matrix, entry [i, j] for edge i -> j."""
    out = np.zeros(np.shape(weights)[:-1] + (len(pack.node_ids),) * 2)
    out[..., pack.src, pack.dst] = weights
    return out


# edges follow consecutive clicks, kept as index lists; each is divided
# by its tail's out-degree so a node that fans out splits its influence
# (and by its head's in-degree for the incoming view)
src, dst, w_in, w_out = pack.edges
print("\nedges (src -> dst):", list(zip(src.tolist(), dst.tolist())))
print("outgoing weights, as a matrix:")
print(dense(w_out))
print("incoming weights, as a matrix (entry [i, j] weighs j -> i):")
print(dense(w_in).T)

# factor view: embed the nodes, project them into factors, and reweight
# the same edges by per-factor cosine similarity; all factors at once, as
# (factor, node, width) states
rng = substream(0, "demo")
x = rng.normal(size=pack.node_ids.shape + (8,))
proj = FactorProjection.init(input_dim=8, factor_dim=3, num_factors=2,
                             rng=rng)
factors = project(x, proj)
print("\nfactor views (factor, node, width):", factors.value.shape)
factor_w = dense(_factor_edges(factors, pack)[2].value)
for k in range(proj.num_factors):
    print(f"factor {k} edge weights (cosine, signed):")
    print(factor_w[k])

# hub view: a satellite node averages the sequence, then connects to
# each real node in each direction with probability theta
to_real, from_real = _star_edges(pack, theta=0.6, seed=2, epoch=0)
print("\nhub edges out of the satellite:", to_real.astype(float))
print("hub edges into the satellite:  ", from_real.astype(float))

# propagation over the plain and hub views from the same weights; the
# hub is one more node row of the graph, and it nudges exactly the
# nodes it touches
w = GGNNWeights.init(8, substream(1, "init"), layers=1)
plain = ggnn_step(x, pack.edges, w).value
hubbed = _hub_channel(Tensor(x), pack, w, theta=0.6, seed=2, epoch=0)
print("\nper-node drift caused by the hub:",
      np.abs(hubbed.value - plain).max(axis=-1))

# with theta = 0 the hub is disconnected and the view collapses back
hubbed0 = _hub_channel(Tensor(x), pack, w, theta=0.0, seed=2, epoch=0)
print("theta=0 reproduces plain propagation bit for bit:",
      bool((hubbed0.value == plain).all()))
