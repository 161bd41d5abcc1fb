"""Acceptance gate: ten checks, one verdict line per check.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``;
the ``-v`` listing mirrors it) and then asserts.  The checks pin down
the numerical core against independent oracles, verify gradients by
finite differences, exercise the determinism and ablation surfaces, and
demonstrate that the training loop actually learns a planted structure
at desk scale.  Published full-scale results are documented in the
README for orientation only; nothing here claims to reproduce them.
"""

import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (attention_oracle, bce_oracle, dcor_oracle,
                     factor_cl_oracle, ggnn_step_oracle, gradient_errors,
                     item_cl_oracle, ranking_metrics_oracle, scores_oracle,
                     session_average, session_graph_oracle)

from sessrec.cli import EXIT_OK, main
from sessrec.contrast import Discriminator
from sessrec.dataio import (Example, ItemCatalog, write_catalog,
                            write_examples)
from sessrec.disentangle import FactorProjection, independence_loss, project
from sessrec.encoder import AttentionWeights, encode
from sessrec.harness import (TrainConfig, _metrics, ablate, evaluate,
                             make_planted_corpus, metrics_csv_rows, train)
from sessrec.model import (_contrast_term, _hub_channel, _negative_draws,
                           _run_channel, pack_batch, training_forward)
from sessrec.params import init_parameters
from sessrec.predictor import (catalog_factor_embeddings, prediction_loss,
                               rank_of, score)
from sessrec.propagation import GGNNWeights, ggnn_step
from sessrec.rng import substream
from sessrec.tape import Parameter, Tensor


def _verdict(num, ok, text):
    print(f"[c{num:02d}] {'PASS' if ok else 'FAIL'} {text}")
    assert ok, f"criterion {num} failed: {text}"


def _ggnn_dict(w):
    return {name.split(".")[-1]: p.value
            for name, p in w.named_parameters("g")}


def _pair_dcor(x, y):
    """dcor(x, y) from the training penalty: on a stack of the two views,
    zero columns padding the narrower one, it counts the one pair twice."""
    stack = np.zeros((2, len(x), max(x.shape[1], y.shape[1])))
    stack[0, :, :x.shape[1]] = x
    stack[1, :, :y.shape[1]] = y
    return float(independence_loss(stack).value) / 2.0


README = Path(__file__).resolve().parents[1] / "README.md"


def _published_results():
    """The README's table of published full-scale numbers, one dict of
    column -> cell per dataset row."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| dataset | train sessions |"))
    header = [c.strip() for c in lines[start].strip("|").split("|")]
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[cells[0]] = dict(zip(header, cells))
    return rows


# The batched contrastive checks run on a batch of one and on a mixed
# batch whose sessions have 4, 1, 3 and 2 distinct nodes.
CONTRAST_PACKS = (
    ([Example([4, 2, 0, 3, 1], 0)], [3]),
    ([Example([3, 1, 3, 2, 0], 0), Example([2], 4), Example([0, 4, 1], 2),
      Example([1, 2, 1], 3)], [7, 8, 9, 10]),
)


def _view_contrast(pack, anchor, positive, partner, neg_idx, disc):
    """One view's contrastive term, assembled as training_forward does."""
    return float(_contrast_term(disc, anchor, positive, partner, neg_idx,
                                pack).value)


def _factor_contrast(pack, origs, augs, negs, scheme, disc):
    return sum(_view_contrast(pack, o, a, o if scheme == "within_view" else a,
                              n, disc) for o, a, n in zip(origs, augs, negs))


# Desk-scale settings for the learnability check, fixed after hand
# tuning on the planted corpus.  Six epochs of the full variant clear
# the 0.3 bar with a wide margin on every seed tried; the budget below
# stays far inside the five-minute limit.
DESK = dict(dim=32, factor_dim=8, num_factors=4, epochs=6, lr=5e-3,
            batch_size=100)


@pytest.fixture(scope="module")
def desk_runs():
    """Three seeded training runs on the planted corpus, with reports."""
    runs = []
    t0 = time.perf_counter()
    for seed in (0, 1, 2):
        train_ex, test_ex, n_items = make_planted_corpus(seed=seed)
        cfg = TrainConfig(seed=seed, **DESK)
        result = train(train_ex, n_items, cfg)
        report = evaluate(result.params, test_ex, cfg, ks=(10, 20))
        runs.append((cfg, result, report))
    return runs, time.perf_counter() - t0


def test_c01_full_scale_results_are_reference_only(desk_runs):
    published = _published_results()
    # the planted corpus is several orders of magnitude below the real
    # datasets, so full-scale numbers are out of reach by construction
    real_sessions = min(int(row["train sessions"].replace(",", ""))
                        for row in published.values())
    documented = (published["Yoochoose 1/64"]["P@20"] == "0.7469"
                  and published["Diginetica"]["P@20"] == "0.5501"
                  and real_sessions == 369_859)
    desk_sessions = 400 + 100
    scale_gap = desk_sessions / real_sessions
    runs, _ = desk_runs
    p20 = statistics.mean(r.overall.precision[20] for _, _, r in runs)
    _verdict(1, documented and scale_gap < 0.01,
             f"published targets documented in the README, never asserted; "
             f"the planted "
             f"corpus is {scale_gap:.2%} the size of the smallest real "
             f"dataset and its numbers (P@20 {p20:.3f} on a 100-item toy) "
             f"are incommensurable with the published 0.7469")


def test_c02_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    rng = substream(11, "x")

    # propagation cell on five random session graphs
    w = GGNNWeights.init(6, substream(12, "init"), layers=1)
    for _ in range(5):
        session = rng.integers(0, 9, size=6).tolist()
        g = session_graph_oracle(session)
        x = rng.normal(size=(g.n_nodes, 6))
        mine = ggnn_step(x, pack_batch([Example(session, 0)]).edges, w).value
        ref = ggnn_step_oracle(x, g.adj_in, g.adj_out, _ggnn_dict(w))
        worst = max(worst, float(np.max(np.abs(mine - ref))))

    # attention readout over a few lengths, each as a batch of one
    aw = AttentionWeights.init(6, substream(13, "init"))
    adict = {name.split(".")[-1]: p.value
             for name, p in aw.named_parameters("a")}
    for t in (1, 3, 7):
        seq = rng.normal(size=(t, 6))
        mine = encode(seq, aw, np.arange(t), [t]).value[0]
        worst = max(worst, float(np.max(np.abs(mine - attention_oracle(
            seq, adict)))))

    # scoring and the one-hot cross entropy for a batch of one
    proj = FactorProjection.init(6, 3, 2, substream(14, "init"))
    catalog = rng.normal(size=(10, 6))
    e_item = rng.normal(size=(1, 6))
    e_factor = rng.normal(size=(1, 6))
    cat_f = np.concatenate(list(project(catalog, proj).value), axis=-1)
    scores = score(e_item, e_factor, catalog,
                   catalog_factors=catalog_factor_embeddings(catalog, proj))
    probs = scores_oracle(e_item[0], e_factor[0], catalog, cat_f)
    worst = max(worst, float(np.max(np.abs(scores.value[0] - probs))))
    loss = prediction_loss(scores, target=np.array([4]))
    worst = max(worst, abs(float(loss.value) - bce_oracle(probs, 4)))

    # both contrastive terms on batch graphs against the loop oracles,
    # averaged over the sessions with at least two nodes
    disc = Discriminator()
    for examples, sessions in CONTRAST_PACKS:
        pack = pack_batch(examples, sessions)
        shape = pack.node_ids.shape + (6,)
        orig, aug = rng.normal(size=shape), rng.normal(size=shape)
        neg = _negative_draws(pack, 15, 0, 0, 1)[0]
        mine = _view_contrast(pack, orig, aug, aug, neg, disc)
        worst = max(worst, abs(mine - session_average(
            lambda rows: item_cl_oracle(orig[rows], aug[rows],
                                        neg[rows] - rows.start),
            pack.n_nodes)))

        shape = pack.node_ids.shape + (3,)
        origs = [rng.normal(size=shape) for _ in range(2)]
        augs = [rng.normal(size=shape) for _ in range(2)]
        negs = _negative_draws(pack, 15, 0, 1, 1, count=2)
        for scheme in ("within_view", "cross_view"):
            mine = _factor_contrast(pack, origs, augs, negs, scheme, disc)
            worst = max(worst, abs(mine - session_average(
                lambda rows: factor_cl_oracle(
                    [o[rows] for o in origs], [a[rows] for a in augs],
                    [n[rows] - rows.start for n in negs], scheme=scheme),
                pack.n_nodes)))

    # distance correlation inside the independence penalty
    for _ in range(3):
        x = rng.normal(size=(8, 4))
        y = rng.normal(size=(8, 3))
        worst = max(worst, abs(_pair_dcor(x, y) - dcor_oracle(x, y)))

    dt = time.perf_counter() - t0
    _verdict(2, worst <= 1e-10 and dt < 10.0,
             f"cell, attention, scoring, both contrastive terms, and the "
             f"penalty's dcor within {worst:.2e} of oracles in {dt:.1f}s")


def test_c03_gradients_match_finite_differences():
    t0 = time.perf_counter()
    examples = [Example([0, 1, 2, 1], 3), Example([3, 4], 5),
                Example([5, 6, 7, 6], 0)]
    pack = pack_batch(examples)
    params = init_parameters(n_items=8, dim=4, factor_dim=2, num_factors=2,
                             layers=1, seed=21)
    named = dict(params.named_parameters())
    base = dict(dim=4, factor_dim=2, num_factors=2, epochs=1, batch_size=4,
                seed=21)

    def objective(attr, alpha):
        cfg = TrainConfig(alpha=alpha, **base)
        return lambda: getattr(training_forward(params, pack, cfg, epoch=0),
                               attr)

    objectives = {
        "independence": objective("independence", 0.5),
        "item contrast": objective("contrastive", 1.0),
        "factor contrast": objective("contrastive", 0.0),
        "prediction": objective("prediction", 0.5),
        "total": objective("loss", 0.5),
    }
    worst, worst_at = 0.0, ""
    for label, fn in objectives.items():
        errors = gradient_errors(fn, named, step=1e-5)
        name, err = max(errors.items(), key=lambda kv: kv[1])
        if err > worst:
            worst, worst_at = err, f"{label} / {name}"
    dt = time.perf_counter() - t0
    _verdict(3, worst < 1e-4 and dt < 60.0,
             f"five objectives vs. central differences over every "
             f"parameter group, worst {worst:.2e} ({worst_at}), {dt:.1f}s")


def test_c04_hub_channel_reduces_to_plain_propagation():
    t0 = time.perf_counter()
    rng = substream(31, "x")
    w = GGNNWeights.init(5, substream(32, "init"), layers=2)
    identical = True
    for trial in range(10):
        pack = pack_batch([
            Example(rng.integers(0, 12, size=int(rng.integers(1, 8))).tolist(),
                    0) for _ in range(10)])
        x = rng.normal(size=pack.node_ids.shape + (5,))
        plain = _run_channel(x, pack.edges, w).value
        hubbed = _hub_channel(Tensor(x), pack, w, 0.0, seed=trial,
                              epoch=0).value
        identical = identical and (plain == hubbed).all()
    dt = time.perf_counter() - t0
    _verdict(4, identical and dt < 5.0,
             f"theta=0 with tied weights bit-identical to plain "
             f"propagation on 100 random sessions in 10 batches in "
             f"{dt:.1f}s")


def test_c05_dcor_properties():
    t0 = time.perf_counter()
    rng = substream(41, "x")
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 9))
        x = rng.normal(size=(m, 3))
        y = rng.normal(size=(m, 4))
        c = float(rng.uniform(0.1, 5.0))
        worst = max(worst, abs(_pair_dcor(x, x) - 1.0))
        worst = max(worst, abs(_pair_dcor(x, c * x) - 1.0))
        worst = max(worst, abs(_pair_dcor(x, y) - _pair_dcor(y, x)))
        worst = max(worst, _pair_dcor(x, np.ones((m, 2))))
    dt = time.perf_counter() - t0
    _verdict(5, worst <= 1e-9 and dt < 5.0,
             f"the penalty's dcor: self-correlation 1, scale invariance, "
             f"symmetry, and the constant-argument zero all within "
             f"{worst:.2e} in {dt:.1f}s")


def test_c06_contrastive_calibration_at_zero_scores():
    two_ln2 = 2.0 * np.log(2.0)
    rng = substream(51, "x")
    zero_disc = Discriminator(Parameter(np.zeros((4, 4))))
    gap = 0.0
    for examples, sessions in CONTRAST_PACKS:
        pack = pack_batch(examples, sessions)
        shape = pack.node_ids.shape + (4,)
        neg = _negative_draws(pack, 0, 0, 0, 1)[0]
        orig, aug = rng.normal(size=shape), rng.normal(size=shape)
        item = _view_contrast(pack, orig, aug, aug, neg, zero_disc)
        origs = [rng.normal(size=shape) for _ in range(3)]
        augs = [rng.normal(size=shape) for _ in range(3)]
        negs = _negative_draws(pack, 0, 0, 1, 1, count=3)
        factor = _factor_contrast(pack, origs, augs, negs, "within_view",
                                  zero_disc)
        gap = max(gap, abs(item - two_ln2), abs(factor / 3.0 - two_ln2))
    _verdict(6, gap < 1e-9,
             f"zero discriminator puts both terms at 2 ln 2 per pair "
             f"(off by {gap:.2e})")


def test_c07_planted_structure_is_learned(desk_runs):
    runs, dt = desk_runs
    p10s = [r.overall.precision[10] for _, _, r in runs]
    mean_p10 = statistics.mean(p10s)
    _verdict(7, mean_p10 >= 0.3 and dt < 300.0,
             f"planted corpus reaches mean P@10 {mean_p10:.3f} over seeds "
             f"0-2 (random baseline 0.100) in {dt:.0f}s of a 300s budget")


def test_c08_metric_fixture_and_report_invariants(desk_runs):
    # twenty score rows over a 12-item catalog with ranks fixed by
    # construction: row i gives item j the score 1 - j/100, then the
    # target's value is swapped up to hold the wanted rank; three rows
    # add an exact tie at a smaller index, which counts against the
    # target, and one puts the target dead last
    wanted = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 1, 2, 3, 10, 2,
              5, 12]
    ties_at = {13, 15, 17}   # these rows tie the target with index 0
    rows, targets = [], []
    for i, r in enumerate(wanted):
        row = 1.0 - np.arange(12) / 100.0
        if i in ties_at:
            target = 5
            row[target] = row[0]          # tie broken toward index 0
            rank = 2
            wanted[i] = rank
        else:
            target = 7
            row[target], row[r - 1] = row[r - 1], row[target]
            rank = r
        rows.append(row)
        targets.append(target)
    got = [rank_of(row, t) for row, t in zip(rows, targets)]
    ranks_ok = got == wanted

    exact = True
    for k in (1, 5, 10, 12):
        mine = _metrics(got, (k,))
        p_ref, m_ref = ranking_metrics_oracle(rows, targets, k)
        # same float arithmetic on both sides: means over twenty ranks
        exact = exact and mine.precision[k] == p_ref and mine.mrr[k] == m_ref
    hand = _metrics(got, (10,))
    by_hand_p = sum(1 for r in wanted if r <= 10) / 20.0
    by_hand_m = sum(1.0 / r for r in wanted if r <= 10) / 20.0
    exact = exact and hand.precision[10] == by_hand_p
    exact = exact and abs(hand.mrr[10] - by_hand_m) < 1e-15

    # invariants on every report this suite generated
    runs, _ = desk_runs
    invariants = True
    for _, _, report in runs:
        for bm in [report.overall] + list(report.buckets.values()):
            for k in report.ks:
                invariants = invariants and bm.mrr[k] <= bm.precision[k]
            invariants = invariants and (bm.precision[10]
                                         <= bm.precision[20])
    _verdict(8, ranks_ok and exact and invariants,
             "hand-built twenty-row fixture matches exhaustive metrics "
             "exactly; M@K <= P@K and P@10 <= P@20 on all reports")


def test_c09_training_is_deterministic(tmp_path):
    train_ex, test_ex, n_items = make_planted_corpus(seed=3)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_examples(corpus / "train.jsonl", train_ex)
    write_examples(corpus / "test.jsonl", test_ex)
    write_catalog(corpus / "catalog.json",
                  ItemCatalog({str(i): i for i in range(n_items)}))
    flags = ["--dim", "16", "--factor-dim", "4", "--num-factors", "2",
             "--epochs", "2", "--batch-size", "100", "--seed", "7"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["train", "--train", str(corpus / "train.jsonl"),
                     "--catalog", str(corpus / "catalog.json"),
                     "--out", str(out)] + flags)
        assert code == EXIT_OK
        code = main(["eval", "--checkpoint", str(out / "checkpoint"),
                     "--test", str(corpus / "test.jsonl"),
                     "--metrics", str(out / "metrics.csv"),
                     "--dataset", "planted"])
        assert code == EXIT_OK
        outs.append(out)
    losses_same = ((outs[0] / "losses.csv").read_bytes()
                   == (outs[1] / "losses.csv").read_bytes())
    metrics_same = ((outs[0] / "metrics.csv").read_bytes()
                    == (outs[1] / "metrics.csv").read_bytes())
    _verdict(9, losses_same and metrics_same,
             "two seed-7 runs on the planted corpus write byte-identical "
             "loss logs and metrics CSVs")


def test_c10_all_variants_complete():
    train_ex, test_ex, n_items = make_planted_corpus(
        seed=5, n_items=20, n_clusters=4, session_len=4,
        train_sessions=24, test_sessions=8)
    cfg = TrainConfig(dim=8, factor_dim=2, num_factors=2, epochs=1,
                      batch_size=24, seed=5)
    results = ablate(train_ex, test_ex, n_items, cfg)
    header = ["dataset", "variant", "seed", "epoch",
              "P@10", "M@10", "P@20", "M@20", "bucket"]
    schema_ok = True
    data_rows = []
    for variant, (_, report) in results.items():
        rows = metrics_csv_rows(report, "planted", variant, cfg.seed,
                                cfg.epochs)
        schema_ok = schema_ok and rows[0] == header
        data_rows.extend(rows[1:])
    schema_ok = schema_ok and bool(data_rows)
    for parts in data_rows:
        schema_ok = schema_ok and len(parts) == 9
        schema_ok = schema_ok and parts[0] == "planted"
        schema_ok = schema_ok and parts[1] in results
        schema_ok = (schema_ok
                     and all("." in p and 0.0 <= float(p) <= 1.0
                             for p in parts[4:8]))
    ordering = ", ".join(f"{v}={rep.overall.precision[10]:.3f}"
                         for v, (_, rep) in results.items())
    complete = set(results) == {"full", "fcl", "star", "fp"}
    # variant ordering is informational at this scale, never asserted
    _verdict(10, complete and schema_ok,
             f"all four variants trained and evaluated with schema-valid "
             f"CSV; P@10 by variant: {ordering}")
