"""
Three views of one session
==========================

A session is a short item sequence.  The model reads it three ways:
as a directed transition graph, as one factor-similarity graph per
latent factor, and as the transition graph with an extra hub node wired
to random members.  This script packs a single session into a batch of
one, builds all three views the way training does, and prints the
matrices.
"""

import numpy as np

from sessrec.dataio import Example
from sessrec.disentangle import FactorProjection, project
from sessrec.model import (_factor_adjacency, _hub_channel, _star_edges,
                           pack_batch)
from sessrec.propagation import GGNNWeights, ggnn_step
from sessrec.rng import substream
from sessrec.tape import Tensor

np.set_printoptions(precision=3, suppress=True)

session = [4, 2, 9, 2, 7]
pack = pack_batch([Example(session, target=0)])

# repeated items share a node, so 5 positions give 4 nodes
print("session", session)
print("nodes (catalog ids):", pack.node_ids[0])
print("alias (position -> node slot):", pack.alias[0])

# edges follow consecutive clicks; rows are normalized by degree so a
# node that fans out splits its influence
print("\noutgoing adjacency:")
print(pack.adj_out[0])
print("incoming adjacency:")
print(pack.adj_in[0])

# factor view: embed the nodes, slice the embedding into factors, and
# reweight the same edge pattern by per-factor cosine similarity; all
# factors at once, as (batch, factor, node, width) states
rng = substream(0, "demo")
x = rng.normal(size=pack.node_ids.shape + (8,))
proj = FactorProjection.init(input_dim=8, factor_dim=3, num_factors=2,
                             rng=rng)
factors = project(x, proj)
print("\nfactor views (batch, factor, node, width):", factors.value.shape)
_, factor_adj = _factor_adjacency(factors, pack)
for k in range(proj.num_factors):
    print(f"factor {k} adjacency (cosine-weighted edges, signed):")
    print(factor_adj.value[0, k])

# hub view: a satellite node averages the sequence, then connects to
# each real node in each direction with probability theta
to_real, from_real = _star_edges(pack, theta=0.6, seed=2, epoch=0)
print("\nhub edges out of the satellite:", to_real[0])
print("hub edges into the satellite:  ", from_real[0])

# propagation over the plain and hub views from the same weights; the
# hub is one more node slot of the graph, and it nudges exactly the
# nodes it touches
w = GGNNWeights.init(8, substream(1, "init"), layers=1)
plain = ggnn_step(x, pack.adj_in, pack.adj_out, w).value
hubbed = _hub_channel(Tensor(x), pack, w, theta=0.6, seed=2, epoch=0)
print("\nper-node drift caused by the hub:",
      np.abs(hubbed.value - plain).max(axis=-1)[0])

# with theta = 0 the hub is disconnected and the view collapses back
hubbed0 = _hub_channel(Tensor(x), pack, w, theta=0.0, seed=2, epoch=0)
print("theta=0 reproduces plain propagation bit for bit:",
      bool((hubbed0.value == plain).all()))
