"""The benchmark reads sessrec names from outside the package.

``perfbench/tracer.py`` looks each name it patches up with ``getattr``,
and ``perfbench/run.py`` and ``perfbench/setup_probe.py`` call a few
more directly, so renaming or deleting one breaks every benchmark run.
These tests catch that here.  The last test runs evaluation on a
benchmark corpus, the one place the tests reach workload scale.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from sessrec import harness
from sessrec.dataio import Example
from sessrec.harness import (TrainConfig, evaluate, make_planted_corpus,
                             train_step)
from sessrec.model import pack_batch
from sessrec.optim import Adam
from sessrec.params import init_parameters

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


_T = _load("tracer")
_W = _load("workloads")
WORKLOADS = _W.WORKLOADS
NAMES = [(mod, name) for mod, names in _T.PATCHED_NAMES.items()
         for name in names]


@pytest.mark.parametrize("mod, name", NAMES,
                         ids=[f"{m}.{n}" for m, n in NAMES])
def test_patched_name_resolves(mod, name):
    module = importlib.import_module(f"sessrec.{mod}")
    assert callable(getattr(module, name, None)), f"sessrec.{mod}.{name}"


@pytest.mark.parametrize("mod, cls, meth", _T.PATCHED_METHODS,
                         ids=[".".join(m) for m in _T.PATCHED_METHODS])
def test_patched_method_resolves(mod, cls, meth):
    owner = getattr(importlib.import_module(f"sessrec.{mod}"), cls, None)
    assert callable(getattr(owner, meth, None)), f"sessrec.{mod}.{cls}.{meth}"


# Names that perfbench/run.py and perfbench/setup_probe.py read directly,
# outside the tracer's lists.
DIRECT_NAMES = [
    ("harness", name) for name in (
        "substream", "score_batch", "rank_of", "make_planted_corpus",
        "TrainConfig", "NumericsError", "train_step", "evaluate")] + [
    ("params", name) for name in (
        "init_parameters", "save_checkpoint", "load_checkpoint")] + [
    ("dataio", name) for name in ("read_examples", "write_examples",
                                  "Example")] + [
    ("optim", "Adam")]


@pytest.mark.parametrize("mod, name", DIRECT_NAMES,
                         ids=[f"{m}.{n}" for m, n in DIRECT_NAMES])
def test_direct_name_resolves(mod, name):
    module = importlib.import_module(f"sessrec.{mod}")
    assert callable(getattr(module, name, None)), f"sessrec.{mod}.{name}"


def test_count_slots_reads_a_real_pack():
    # the tracer reads node_mask off pack_batch's result to count real
    # and padded node slots
    tracer = _T.Tracer()
    tracer.step = 0
    pack = pack_batch([Example([1, 2, 1], 0), Example([5], 0)])
    _T._count_slots(tracer, (), pack)
    assert dict(tracer.counts[0]) == {"real_slots": 3.0, "padded_slots": 4.0}


# Attributes that perfbench/run.py and perfbench/setup_probe.py read off
# the config, the loss breakdown and the report.
CONFIG_FIELDS = ("dim", "factor_dim", "num_factors", "layers", "seed",
                 "disc_form", "lr", "batch_size")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_builds_and_round_trips(name):
    w = WORKLOADS[name]
    cfg = TrainConfig(seed=1, **w.config)
    expect = {**TrainConfig().to_dict(), **w.config, "seed": 1}
    for field in CONFIG_FIELDS:
        assert getattr(cfg, field) == expect[field], field
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


def test_train_step_and_evaluate_read_as_the_runner_reads_them():
    cfg = TrainConfig(seed=1, **WORKLOADS["desk"].config)
    train_ex, test_ex, n_items = make_planted_corpus(
        1, n_items=20, n_clusters=4, session_len=4, train_sessions=8,
        test_sessions=4)
    params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                             cfg.num_factors, cfg.layers, cfg.seed,
                             cfg.disc_form)
    opt = Adam(params.parameters(), lr=cfg.lr)
    lb = train_step(params, opt, train_ex, list(range(len(train_ex))), cfg, 0)
    assert all(math.isfinite(x) for x in
               (lb.total, lb.prediction, lb.contrastive, lb.independence))
    report = evaluate(params, test_ex, cfg)
    assert 0.0 <= report.overall.precision[10] <= 1.0


def test_chunking_moves_a_rank_only_at_a_near_tie(monkeypatch):
    # a prefix's probabilities can change in the last bits with the chunk
    # it is scored in (a GEMM rounds by its row count), so a rank may
    # differ only where another item lies within rounding of the target:
    # long_sessions' held-out prefixes at N = 5,000 in chunks of 419 and
    # of 13, and each rank that moves by k has k such near-ties
    w = WORKLOADS["long_sessions"]
    cfg = TrainConfig(seed=1, **w.config)
    _, test, n_items = _W.make_corpus(w, 1, make_planted_corpus)
    examples = [Example(list(p), t) for p, t in test]
    params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                             cfg.num_factors, cfg.layers, cfg.seed,
                             cfg.disc_form)
    score, rank = harness.score_batch, harness.rank_of
    rows, near, ranks = [], [], []

    def scored(params, pack, cfg, catalog_factors=None):
        probs = score(params, pack, cfg, catalog_factors)
        p_t = probs[np.arange(len(probs)), pack.targets][:, None]
        rows.append(len(probs))
        near.extend(np.count_nonzero(abs(probs - p_t) <= 1e-12 * p_t, axis=1)
                    - 1)
        return probs

    monkeypatch.setattr(harness, "score_batch", scored)
    monkeypatch.setattr(harness, "rank_of",
                        lambda p, t: ranks.append(rank(p, t)) or ranks[-1])
    runs = []
    for elements in (1 << 21, 1 << 16):
        monkeypatch.setattr(harness, "SCORE_ELEMENTS", elements)
        for acc in (rows, near, ranks):
            acc.clear()
        evaluate(params, examples, cfg)
        runs.append((max(rows), np.array(near), np.array(ranks)))
    (wide, near, a), (narrow, _, b) = runs
    assert (n_items, wide, narrow, len(a)) == (5000, 419, 13, len(examples))
    assert (abs(a - b) <= near).all()
