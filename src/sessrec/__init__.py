"""Session-based recommendation with dual-granularity contrastive learning.

A numpy library implementing the full pipeline: raw interaction logs to
prefix-augmented sessions (dataio), the transition graph of each session
(graphs), factor disentanglement with a distance-correlation penalty
(disentangle), the gated propagation layers (propagation), the pair
discriminator (contrast), soft-attention session encoding (encoder),
dual-head scoring (predictor), batch graphs with the three graph views
and both contrastive terms (model), and a training / evaluation /
ablation harness with a CLI (harness, cli).
"""

__version__ = "0.1.0"
