"""Training loop, ranking evaluation, ablations, and the planted corpus.

Everything a run needs sits in one ``TrainConfig``; the loop shuffles
with a per-epoch substream, steps Adam over batch graphs (whose hub,
negative and dropout draws ``rng.uniforms`` keys by each example's
stable index), logs a loss breakdown per epoch, and refuses to continue
past a non-finite loss or gradient.
Evaluation ranks every test prefix and reports precision and MRR at the
requested cutoffs, overall and bucketed by prefix length.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import check_examples, prefix_augment
from .model import (VARIANTS, catalog_views, pack_batch, score_batch,
                    training_forward)
from .optim import Adam
from .params import ParameterSet, init_parameters
from .predictor import rank_of
from .rng import substream

logger = logging.getLogger(__name__)

SHORT_SESSION_LIMIT = 5      # prefixes below this length count as "short"
SCORE_ELEMENTS = 1 << 21     # (prefix, item) scores per head of an eval chunk


class NumericsError(Exception):
    """Training produced a non-finite loss or parameter gradient."""


@dataclass
class TrainConfig:
    dim: int = 100
    factor_dim: int = 20
    num_factors: int = 5
    layers: int = 1
    theta: float = 0.3
    alpha: float = 0.5
    beta_cl: float = 0.05
    beta_ind: float = 0.01
    lr: float = 1e-3
    batch_size: int = 100
    epochs: int = 30
    variant: str = "full"
    seed: int = 0
    disc_form: str = "dot"        # the one form; perfbench reads the field
    dropout_edge: float = 0.2
    dropout_node: float = 0.1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        for name in ("dim", "factor_dim", "num_factors", "layers",
                     "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("theta", "alpha", "dropout_edge", "dropout_node"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], "
                                 f"got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        for name in ("beta_cl", "beta_ind"):
            if not (math.isfinite(getattr(self, name))
                    and getattr(self, name) >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 2 ** 64:       # the training draws key on 64 bits
            raise ValueError(f"seed must be < 2**64, got {self.seed}")
        if self.disc_form != "dot":
            raise ValueError(f"unknown discriminator form {self.disc_form!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Build a config from ``d``, whose values may be strings (config
        files) or JSON values (checkpoint manifests).  A string is parsed
        as its field's type; otherwise an int field takes an int and a
        float field an int or float, never a bool.  Anything else, say
        ``dim = 1.7`` or ``lr = true``, raises a ``ValueError`` naming
        the field rather than being truncated or cast."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{f.name: _coerce(f.name, type(f.default), d[f.name])
                      for f in dataclasses.fields(cls) if f.name in d})


_ACCEPTS = {int: numbers.Integral, float: numbers.Real, str: str}


def _coerce(name, kind, v):
    if isinstance(v, str):
        try:
            return kind(v)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    if isinstance(v, _ACCEPTS[kind]) and not isinstance(v, bool):
        return kind(v)
    raise ValueError(f"{name} must be {kind.__name__}, got {v!r}")


@dataclass
class LossBreakdown:
    total: float
    prediction: float
    contrastive: float
    independence: float

    def __str__(self):
        return (f"total={self.total:.6f} pred={self.prediction:.6f} "
                f"cl={self.contrastive:.6f} ind={self.independence:.6f}")


@dataclass
class TrainResult:
    params: ParameterSet
    epoch_losses: list
    wall_time: float


def _where(epoch, session_indices) -> str:
    return (f"at epoch {epoch + 1} (batch of {len(session_indices)} "
            f"sessions, ids {min(session_indices)}..{max(session_indices)})")


def train_step(params: ParameterSet, optimizer: Adam, examples,
               session_indices, cfg: TrainConfig, epoch: int) -> LossBreakdown:
    """One optimization step on one batch; returns the loss breakdown.

    A non-finite loss, or a non-finite gradient in any parameter group,
    raises ``NumericsError`` before Adam writes it into the weights.
    ``epoch`` counts from 0; the error names it from 1, as the per-epoch
    log line does.
    """
    pack = pack_batch(examples, session_indices)
    out = training_forward(params, pack, cfg, epoch)
    loss_val = float(out.loss.value)
    if not np.isfinite(loss_val):
        raise NumericsError(f"non-finite loss {loss_val} "
                            f"{_where(epoch, session_indices)}")
    optimizer.zero_grad()
    out.loss.backward()
    bad = optimizer.first_non_finite()
    if bad is not None:
        name = next(name for name, p in params.named_parameters()
                    if p is optimizer.params[bad])
        raise NumericsError(f"non-finite gradient of {name} "
                            f"{_where(epoch, session_indices)}")
    optimizer.step()
    return LossBreakdown(total=loss_val,
                         prediction=float(out.prediction.value),
                         contrastive=float(out.contrastive),
                         independence=float(out.independence.value))


def train(train_examples, n_items: int, cfg: TrainConfig,
          params: ParameterSet = None) -> TrainResult:
    """Fit the model; returns the trained parameters and per-epoch losses.

    The example order reshuffles every epoch from the ``shuffle``
    substream; augmentation and negative draws are keyed by each
    example's stable position in ``train_examples``, so shuffling does
    not change what gets sampled for a given example.
    """
    if not train_examples:
        raise ValueError("no training examples")
    check_examples(train_examples, n_items)
    if params is None:
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed,
                                 cfg.disc_form)
    optimizer = Adam(params.parameters(), lr=cfg.lr)
    m = len(train_examples)
    started = time.perf_counter()
    epoch_losses = []
    for epoch in range(cfg.epochs):
        order = substream(cfg.seed, "shuffle", epoch).permutation(m)
        sums = np.zeros(4)
        for lo in range(0, m, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            batch = [train_examples[i] for i in idx]
            lb = train_step(params, optimizer, batch, idx, cfg, epoch)
            sums += np.array([lb.total, lb.prediction, lb.contrastive,
                              lb.independence]) * len(idx)
        mean = sums / m
        lb = LossBreakdown(*mean)
        epoch_losses.append(lb)
        logger.info("epoch %d/%d: %s", epoch + 1, cfg.epochs, lb)
    return TrainResult(params=params, epoch_losses=epoch_losses,
                       wall_time=time.perf_counter() - started)


# -- evaluation -------------------------------------------------------------

@dataclass
class BucketMetrics:
    count: int
    precision: dict            # k -> fraction of prefixes with target in top k
    mrr: dict                  # k -> mean reciprocal rank, 0 past the cutoff


@dataclass
class RankingReport:
    ks: tuple
    overall: BucketMetrics
    buckets: dict              # name -> BucketMetrics

    def lines(self):
        out = []
        for name, bm in [("all", self.overall)] + sorted(self.buckets.items()):
            for k in self.ks:
                out.append(f"{name}: P@{k}={bm.precision[k]:.4f} "
                           f"M@{k}={bm.mrr[k]:.4f} (n={bm.count})")
        return out


def _bucket_of(prefix_len: int) -> str:
    return "short" if prefix_len < SHORT_SESSION_LIMIT else "long"


def _metrics(ranks, ks) -> BucketMetrics:
    ranks = np.asarray(ranks, dtype=np.float64)
    precision = {k: float(np.mean(ranks <= k)) if ranks.size else 0.0
                 for k in ks}
    mrr = {k: float(np.mean(np.where(ranks <= k, 1.0 / ranks, 0.0)))
           if ranks.size else 0.0 for k in ks}
    return BucketMetrics(count=int(ranks.size), precision=precision, mrr=mrr)


def _positive_int(v) -> bool:
    return (isinstance(v, numbers.Integral) and not isinstance(v, bool)
            and v >= 1)


def evaluate(params: ParameterSet, examples, cfg: TrainConfig,
             ks=(10, 20)) -> RankingReport:
    """Rank the target of every prefix; deterministic for fixed weights.

    Prefixes are scored ``max(1, SCORE_ELEMENTS // N)`` at a time
    against the catalog views, built once per call, so a chunk's scores
    stay near ``SCORE_ELEMENTS`` floats a head whatever the catalog
    size, and bucketed by length (short < 5 positions) alongside the
    overall numbers.  A cutoff in ``ks`` that is not an integer >= 1
    (bools included) raises ``ValueError`` before any scoring; the
    report keeps the distinct cutoffs in ascending order.  A non-finite
    target probability raises ``NumericsError`` naming the 0-based
    prefix range of its chunk, before ``rank_of`` would refuse it with
    a bare ``ValueError``.
    """
    if not examples:
        raise ValueError("no evaluation examples")
    ks = tuple(ks)
    if not all(map(_positive_int, ks)):
        raise ValueError(f"ks (cutoffs) must be integers >= 1, got {ks!r}")
    check_examples(examples, params.embeddings.value.shape[0])
    ks = tuple(sorted(set(map(int, ks))))
    chunk_rows = max(1, SCORE_ELEMENTS // len(params.embeddings.value))
    views = catalog_views(params, cfg)
    ranks, buckets = [], {}
    for lo in range(0, len(examples), chunk_rows):
        chunk = examples[lo:lo + chunk_rows]
        pack = pack_batch(chunk)
        probs = score_batch(params, pack, cfg, catalog_factors=views)
        # a softmax row is all finite or all NaN: its target tells
        p_target = probs[np.arange(len(chunk)), pack.targets]
        if not np.isfinite(p_target).all():
            raise NumericsError(
                f"non-finite target probability for evaluation prefixes "
                f"{lo}..{lo + len(chunk) - 1} (first at "
                f"{lo + int(np.argmin(np.isfinite(p_target)))})")
        for row, ex in zip(probs, chunk):
            r = rank_of(row, ex.target)
            ranks.append(r)
            buckets.setdefault(_bucket_of(len(ex.prefix)), []).append(r)
        del probs, row       # so two chunks' (B, N) scores never coexist
    return RankingReport(
        ks=ks, overall=_metrics(ranks, ks),
        buckets={name: _metrics(rs, ks) for name, rs in buckets.items()})


def metrics_csv_rows(report: RankingReport, dataset: str, variant: str,
                     seed: int, epoch: int):
    """Rows for the metrics CSV: one per bucket plus the overall line."""
    header = ["dataset", "variant", "seed", "epoch"]
    for k in report.ks:
        header += [f"P@{k}", f"M@{k}"]
    header.append("bucket")
    rows = [header]
    for name, bm in [("all", report.overall)] + sorted(report.buckets.items()):
        row = [dataset, variant, str(seed), str(epoch)]
        for k in report.ks:
            row += [f"{bm.precision[k]:.4f}", f"{bm.mrr[k]:.4f}"]
        row.append(name)
        rows.append(row)
    return rows


def write_metrics_csv(path, rows):
    text = "\n".join(",".join(r) for r in rows) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def write_run_manifest(path, cfg: TrainConfig, dataset: str, n_items: int,
                       extra: dict = None):
    manifest = {
        "dataset": dataset,
        "n_items": int(n_items),
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "sessrec": __version__,
        },
    }
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=1, sort_keys=True),
                          encoding="utf-8")
    return manifest


def check_variants(variants):
    """Raise ``ValueError`` on a name not in ``VARIANTS`` or listed twice."""
    for i, v in enumerate(variants):
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
        if v in variants[:i]:
            raise ValueError(f"variant {v!r} listed twice")


def ablate(train_examples, test_examples, n_items: int, cfg: TrainConfig,
           variants=VARIANTS, ks=(10, 20)):
    """Train and evaluate each variant from the same seed and data.

    Returns ``{variant: (TrainResult, RankingReport)}``; every variant
    re-initializes identically, so differences come from the ablated
    mechanism alone.  An unknown or repeated variant is refused before
    any training.
    """
    check_variants(variants)
    results = {}
    for variant in variants:
        vcfg = dataclasses.replace(cfg, variant=variant)
        logger.info("ablation: training variant %s", variant)
        tr = train(train_examples, n_items, vcfg)
        report = evaluate(tr.params, test_examples, vcfg, ks=ks)
        results[variant] = (tr, report)
    return results


# -- planted corpus ---------------------------------------------------------

def make_planted_corpus(seed: int, n_items: int = 100, n_clusters: int = 5,
                        session_len: int = 6, train_sessions: int = 400,
                        test_sessions: int = 100):
    """Synthetic sessions with recoverable cluster structure.

    Items split into equal clusters; each session stays inside one
    cluster, so the next item is always among the cluster's members.
    Prefix augmentation turns the default sizes into 2000 training and
    500 test examples.  Returns ``(train_examples, test_examples,
    n_items)``.
    """
    if n_items % n_clusters:
        raise ValueError("n_items must divide evenly into clusters")
    per = n_items // n_clusters
    rng = substream(seed, "corpus")

    def sessions(count):
        out = []
        for _ in range(count):
            c = int(rng.integers(n_clusters))
            walk = rng.integers(0, per, size=session_len) + c * per
            out.append(walk.tolist())
        return out

    train_ex = prefix_augment(sessions(train_sessions))
    test_ex = prefix_augment(sessions(test_sessions))
    return train_ex, test_ex, n_items
