"""The pair scorer behind both contrastive terms.

The item- and factor-level terms share one loss shape: each anchor row
is scored against its positive row and one sampled partner row by dot
product, and aligned pairs are pushed up and mismatched pairs down with
a binary objective.  ``Discriminator.score`` builds a whole term as one
``tape.pair_contrast`` node; the negative draws and the session weights
live in ``model``, and the alpha mix in the ``tape.total_loss`` node
that ``model`` builds.
"""

from __future__ import annotations

from . import tape


class Discriminator:
    """Dot-product pair scorer; it has no weights."""

    def score(self, anchor, positive, partner, neg_idx, weight):
        """The contrastive term of ([K,] M, d) states, a scalar tensor:
        each anchor row against its positive row and the partner row
        ``neg_idx`` ([K,] M) names, weighted by ``weight`` (M,)."""
        return tape.pair_contrast(anchor, positive, partner, neg_idx, weight)
