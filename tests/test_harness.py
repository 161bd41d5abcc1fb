"""Training loop, evaluation, metrics files, and the planted corpus."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import ranking_metrics_oracle

from sessrec import harness, tape
from sessrec.dataio import DataError, Example
from sessrec.harness import (LossBreakdown, NumericsError, TrainConfig,
                             ablate, evaluate, make_planted_corpus,
                             metrics_csv_rows, train, train_step,
                             write_metrics_csv, write_run_manifest)
from sessrec.model import pack_batch, score_batch
from sessrec.optim import Adam
from sessrec.params import init_parameters
from sessrec.predictor import rank_of


def tiny_config(**overrides):
    base = dict(dim=8, factor_dim=3, num_factors=2, epochs=2, batch_size=8,
                seed=5, lr=5e-3)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_corpus():
    train_ex, test_ex, n_items = make_planted_corpus(
        seed=2, n_items=20, n_clusters=4, session_len=4,
        train_sessions=30, test_sessions=10)
    return train_ex, test_ex, n_items


def poison_star_gradient(monkeypatch):
    """After every real backward pass, make one entry of the star
    channel's ``u_cand`` gradient infinite; the loss stays finite."""
    trained = []
    forward, backward = harness.training_forward, tape.Tensor.backward

    def spy(params, *args):
        trained.append(params)
        return forward(params, *args)

    def poisoned(self):
        backward(self)
        p = trained[-1].ggnn_star.u_cand
        p.grad = p.grad.copy()
        p.grad.flat[0] = np.inf

    monkeypatch.setattr(harness, "training_forward", spy)
    monkeypatch.setattr(tape.Tensor, "backward", poisoned)


class TestConfig:
    def test_round_trip_dict(self):
        cfg = tiny_config(variant="star", theta=0.4)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_coerces_strings(self):
        cfg = TrainConfig.from_dict({"dim": "16", "lr": "0.01",
                                     "variant": "star"})
        assert cfg.dim == 16 and cfg.lr == 0.01
        assert cfg.variant == "star"

    def test_from_dict_ints_fill_float_fields(self):
        cfg = TrainConfig.from_dict({"lr": 1, "theta": 0, "dim": 16})
        assert cfg.lr == 1.0 and isinstance(cfg.lr, float)
        assert cfg.theta == 0.0 and isinstance(cfg.theta, float)

    @pytest.mark.parametrize("field,value", [
        ("dim", 1.7), ("dim", 16.0), ("epochs", True), ("lr", True),
        ("theta", False), ("lr", "abc")],
        ids=["int_from_float", "int_from_whole_float", "int_from_bool",
             "float_from_true", "float_from_false", "float_from_word"])
    def test_from_dict_rejects_lossy_values(self, field, value):
        # a manifest's JSON value is taken as is or refused, never cast
        with pytest.raises(ValueError, match=field):
            TrainConfig.from_dict({field: value})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"learning_rate": 0.1})

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="xyz")

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(theta=2.0)

    @pytest.mark.parametrize("overrides", [
        dict(alpha=1.5), dict(dropout_edge=1.5, variant="star"),
        dict(dropout_node=-0.1, variant="star"),
        dict(lr=-1.0), dict(lr=0.0), dict(lr=float("nan")),
        dict(lr=float("inf")), dict(beta_cl=-5.0),
        dict(beta_cl=float("inf")), dict(beta_ind=-0.01),
        dict(beta_ind=float("nan")), dict(seed=-1),
        dict(disc_form="bilinear"), dict(dim=0),
    ], ids=["alpha", "dropout_edge",
            "dropout_node", "lr_negative", "lr_zero", "lr_nan", "lr_inf",
            "beta_cl_negative", "beta_cl_inf", "beta_ind_negative",
            "beta_ind_nan", "seed_negative", "disc_form", "dim"])
    def test_invalid_value_rejected(self, overrides):
        with pytest.raises(ValueError):
            TrainConfig(**overrides)

    @pytest.mark.parametrize("seed", [2 ** 64, 2 ** 70])
    def test_seed_past_64_bits_rejected(self, seed):
        # the training draws key on the seed as one 64-bit word
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=seed)
        assert TrainConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


class TestPlantedCorpus:
    def test_sizes(self):
        train_ex, test_ex, n_items = make_planted_corpus(seed=0)
        assert n_items == 100
        assert len(train_ex) == 400 * 5
        assert len(test_ex) == 100 * 5

    def test_sessions_stay_in_cluster(self):
        train_ex, _, _ = make_planted_corpus(seed=1)
        for ex in train_ex[:200]:
            clusters = {i // 20 for i in ex.prefix + [ex.target]}
            assert len(clusters) == 1

    def test_deterministic(self):
        a, _, _ = make_planted_corpus(seed=3)
        b, _, _ = make_planted_corpus(seed=3)
        assert a == b

    def test_uneven_clusters_rejected(self):
        with pytest.raises(ValueError):
            make_planted_corpus(seed=0, n_items=10, n_clusters=3)


class TestTrainStep:
    def test_repeated_steps_on_one_batch_lower_the_loss(self):
        cfg = tiny_config()
        train_ex, _, n_items = tiny_corpus()
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        opt = Adam(params.parameters(), lr=1e-2)
        batch = train_ex[:8]
        idx = np.arange(8)
        losses = [train_step(params, opt, batch, idx, cfg, epoch=0).total
                  for _ in range(6)]
        assert losses[-1] < losses[0]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_raises_numerics_error(self):
        cfg = tiny_config()
        train_ex, _, n_items = tiny_corpus()
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        params.embeddings.value[:] = np.nan
        opt = Adam(params.parameters(), lr=1e-2)
        # the error counts epochs from 1, as the per-epoch log line does,
        # and gives the batch's id range, not its first and last id
        with pytest.raises(NumericsError, match=r"at epoch 3 \(batch of 4 "
                           r"sessions, ids 2\.\.11\)"):
            train_step(params, opt, train_ex[:4], np.array([11, 2, 7, 5]),
                       cfg, 2)


class TestTrain:
    def test_epoch_logs_and_progress(self):
        cfg = tiny_config()
        train_ex, _, n_items = tiny_corpus()
        result = train(train_ex, n_items, cfg)
        assert len(result.epoch_losses) == cfg.epochs
        assert all(isinstance(lb, LossBreakdown)
                   for lb in result.epoch_losses)
        assert result.epoch_losses[-1].total < result.epoch_losses[0].total

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):
        cfg = tiny_config()
        train_ex, _, n_items = tiny_corpus()
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        before = {name: p.value.copy() for name, p in params.named_parameters()}
        poison_star_gradient(monkeypatch)
        # a second non-finite group, later in checkpoint order and
        # poisoned last: the error names the first in checkpoint order
        star_poisoned = tape.Tensor.backward

        def poisoned_twice(self):
            star_poisoned(self)
            p = params.attn_item.w_merge
            p.grad = p.grad.copy()
            p.grad.flat[-1] = np.nan

        monkeypatch.setattr(tape.Tensor, "backward", poisoned_twice)
        with pytest.raises(NumericsError,
                           match=r"non-finite gradient of ggnn\.star\.u_cand "
                                 r"at epoch 1 \(batch of 8 sessions, "
                                 r"ids \d+\.\.\d+\)"):
            train(train_ex, n_items, cfg, params=params)
        for name, p in params.named_parameters():
            np.testing.assert_array_equal(p.value, before[name], err_msg=name)

    def test_deterministic_per_seed(self):
        cfg = tiny_config(epochs=1)
        train_ex, _, n_items = tiny_corpus()
        a = train(train_ex, n_items, cfg)
        b = train(train_ex, n_items, cfg)
        assert a.epoch_losses == b.epoch_losses
        assert (a.params.embeddings.value == b.params.embeddings.value).all()

    @pytest.mark.parametrize("variant", ["full", "fcl", "star", "fp"])
    def test_batches_of_one_single_item_example(self, variant):
        # Every batch is one example whose prefix is one item, as the
        # remainder batch is whenever len(train) % batch_size == 1.
        examples = [Example([3], 4), Example([1], 2), Example([4], 3)]
        cfg = tiny_config(batch_size=1, epochs=1, variant=variant)
        result = train(examples, 6, cfg)
        lb = result.epoch_losses[0]
        assert np.isfinite(lb.total) and lb.independence == 0.0

    def test_empty_examples_rejected(self):
        with pytest.raises(ValueError):
            train([], 10, tiny_config())

    @pytest.mark.parametrize("bad", [
        Example([0, 1, -1], 2), Example([0, 1], -1), Example([0, 20], 1),
        Example([], 1),
    ], ids=["negative_item", "negative_target", "out_of_range", "empty"])
    def test_bad_example_rejected(self, bad):
        train_ex, _, n_items = tiny_corpus()
        with pytest.raises(DataError, match="example 3 "):
            train(train_ex[:3] + [bad], n_items, tiny_config(epochs=1))


class TestEvaluate:
    def test_metrics_match_oracle(self):
        cfg = tiny_config(epochs=1)
        train_ex, test_ex, n_items = tiny_corpus()
        result = train(train_ex, n_items, cfg)
        report = evaluate(result.params, test_ex, cfg, ks=(5, 10))
        rows, targets = [], []
        for lo in range(0, len(test_ex), 512):
            chunk = test_ex[lo:lo + 512]
            probs = score_batch(result.params, pack_batch(chunk), cfg)
            rows.extend(probs)
            targets.extend(ex.target for ex in chunk)
        for k in (5, 10):
            p, m = ranking_metrics_oracle(rows, targets, k)
            assert report.overall.precision[k] == pytest.approx(p, abs=1e-12)
            assert report.overall.mrr[k] == pytest.approx(m, abs=1e-12)

    def test_buckets_partition_examples(self):
        cfg = tiny_config(epochs=1)
        train_ex, test_ex, n_items = tiny_corpus()
        result = train(train_ex[:50], n_items, cfg)
        report = evaluate(result.params, test_ex, cfg)
        assert sum(b.count for b in report.buckets.values()) \
            == report.overall.count == len(test_ex)
        short = [ex for ex in test_ex if len(ex.prefix) < 5]
        assert report.buckets["short"].count == len(short)

    def test_mrr_bounded_by_precision(self):
        cfg = tiny_config(epochs=1)
        train_ex, test_ex, n_items = tiny_corpus()
        result = train(train_ex[:50], n_items, cfg)
        report = evaluate(result.params, test_ex, cfg)
        for bm in [report.overall] + list(report.buckets.values()):
            for k in report.ks:
                assert bm.mrr[k] <= bm.precision[k] + 1e-12

    def test_non_finite_scores_raise_numerics_error(self, monkeypatch):
        # nothing ranks ahead of a NaN target, so a NaN model would score
        # P@10 = MRR = 1.0; a NaN catalog row makes every row NaN
        cfg = tiny_config()
        _, test_ex, n_items = tiny_corpus()
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        params.embeddings.value[3, 0] = np.nan
        with pytest.raises(NumericsError, match=r"prefixes 0\.\.29 "
                                                r"\(first at 0\)"):
            evaluate(params, test_ex, cfg)
        # the error names the chunk's prefix range and the first bad row
        params.embeddings.value[3, 0] = 0.0
        examples = test_ex * 20                # prefixes 0..511 and 512..599
        monkeypatch.setattr(harness, "SCORE_ELEMENTS", 512 * n_items)
        scored = harness.score_batch

        def one_nan_row(*args, **kwargs):
            probs = scored(*args, **kwargs)
            if len(probs) == 88:
                probs[550 - 512] = np.nan
            return probs
        monkeypatch.setattr(harness, "score_batch", one_nan_row)
        with pytest.raises(NumericsError, match=r"prefixes 512\.\.599 "
                                                r"\(first at 550\)"):
            evaluate(params, examples, cfg)

    def test_bad_cutoff_rejected(self):
        cfg = tiny_config()
        train_ex, test_ex, n_items = tiny_corpus()
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        with pytest.raises(ValueError):
            evaluate(params, test_ex, cfg, ks=(0,))

    def test_no_examples_rejected(self):
        cfg = tiny_config()
        params = init_parameters(10, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        with pytest.raises(ValueError, match="no evaluation examples"):
            evaluate(params, [], cfg)

    def test_duplicate_cutoffs_reported_once(self):
        cfg = tiny_config()
        _, test_ex, n_items = tiny_corpus()
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        report = evaluate(params, test_ex, cfg, ks=(20, 10, 10))
        assert report.ks == (10, 20)
        assert len(report.lines()) == 2 * (1 + len(report.buckets))
        header = harness.metrics_csv_rows(report, "d", "full", 0, 1)[0]
        assert header[4:-1] == ["P@10", "M@10", "P@20", "M@20"]

    @pytest.mark.parametrize("kwargs,name", [
        (dict(ks=(10.9,)), "ks"), (dict(ks=(True,)), "ks"),
        (dict(ks=(10, -3)), "ks"), (dict(ks=("10",)), "ks")],
        ids=["k_float", "k_bool", "k_negative", "k_str"])
    def test_bad_argument_named_before_scoring(self, monkeypatch, kwargs,
                                              name):
        # 10.9 and True were once truncated to cutoffs 10 and 1
        cfg = tiny_config()
        _, test_ex, n_items = tiny_corpus()
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)

        def unscored(*args, **kwargs):
            raise AssertionError("scored before checking its arguments")
        monkeypatch.setattr(harness, "score_batch", unscored)
        monkeypatch.setattr(harness, "catalog_views", unscored)
        with pytest.raises(ValueError, match=rf"^{name} "):
            evaluate(params, test_ex, cfg, **kwargs)

    def test_numpy_integer_arguments_accepted(self):
        cfg = tiny_config()
        _, test_ex, n_items = tiny_corpus()
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        report = evaluate(params, test_ex, cfg, ks=np.array([20, 5]))
        assert report.ks == (5, 20)
        assert all(type(k) is int for k in report.ks)
        assert report == evaluate(params, test_ex, cfg, ks=(5, 20))

    @pytest.mark.parametrize("variant", ["full", "fp"])
    def test_rank_and_score_contract(self, monkeypatch, variant):
        # perfbench checks each evaluation through these two names: one
        # rank_of call per prefix with a scalar target and a scalar rank,
        # one score_batch call per chunk, each row a distribution
        cfg = tiny_config(variant=variant)
        _, test_ex, n_items = tiny_corpus()
        examples = test_ex * 3
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        ranked, scored = [], []
        rank, score = harness.rank_of, harness.score_batch

        def counted_rank(probs, target):
            assert probs.shape == (n_items,) and np.ndim(target) == 0
            ranked.append(rank(probs, target))
            assert np.ndim(ranked[-1]) == 0
            return ranked[-1]

        def counted_score(*args, **kwargs):
            scored.append(score(*args, **kwargs))
            return scored[-1]
        monkeypatch.setattr(harness, "rank_of", counted_rank)
        monkeypatch.setattr(harness, "score_batch", counted_score)
        monkeypatch.setattr(harness, "SCORE_ELEMENTS", 32 * n_items)
        report = evaluate(params, examples, cfg)
        assert [len(p) for p in scored] == [32, 32, len(examples) - 64]
        np.testing.assert_allclose(np.concatenate(scored).sum(axis=1), 1.0,
                                   atol=1e-9, rtol=0)
        assert len(ranked) == len(examples) == report.overall.count
        assert ranked == [
            rank_of(row, ex.target)
            for row, ex in zip(np.concatenate(scored), examples)]

    def test_one_chunk_of_scores_alive_at_a_time(self, monkeypatch):
        # in units of one chunk's (B, N) scores: a chunk holds one array
        # per head, and the next chunk is scored after the last one's are
        # released (a third array if they were not)
        cfg = tiny_config()
        n_items, batch = 3000, 200
        rng = np.random.default_rng(4)
        examples = [Example(list(rng.integers(n_items, size=3)),
                            int(rng.integers(n_items))) for _ in range(600)]
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        monkeypatch.setattr(harness, "SCORE_ELEMENTS", batch * n_items)
        tracemalloc.start()
        try:
            evaluate(params, examples, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (batch * n_items * 8) <= 2.5

    @pytest.mark.parametrize("variant", ["full", "fp"])
    def test_chunking_changes_no_rank(self, monkeypatch, variant):
        cfg = tiny_config(variant=variant)
        _, test_ex, n_items = tiny_corpus()
        examples = test_ex * 2
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        rank, ranks = harness.rank_of, []
        monkeypatch.setattr(harness, "rank_of",
                            lambda p, t: ranks.append(rank(p, t)) or ranks[-1])
        runs = []
        for rows in (512, 7, 1):
            monkeypatch.setattr(harness, "SCORE_ELEMENTS", rows * n_items)
            ranks.clear()
            report = evaluate(params, examples, cfg)
            runs.append((list(ranks), report))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("n_items,budget,rows", [
        (20, None, 2 ** 21 // 20), (20_000, None, 104),
        (20, 7 * 20 + 19, 7), (20, 19, 1), (20, 1, 1)],
        ids=["one_chunk", "catalog20k", "floor_division", "below_n",
             "one_element"])
    def test_chunk_rows_follow_the_catalog(self, monkeypatch, n_items,
                                           budget, rows):
        # max(1, SCORE_ELEMENTS // N) prefixes a chunk, at least one
        if budget is not None:
            monkeypatch.setattr(harness, "SCORE_ELEMENTS", budget)
        cfg = tiny_config()
        rng = np.random.default_rng(6)
        count = min(2 * rows + 3, 300)
        examples = [Example(list(rng.integers(n_items, size=3)),
                            int(rng.integers(n_items))) for _ in range(count)]
        params = init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                 cfg.num_factors, cfg.layers, cfg.seed)
        sizes, score = [], harness.score_batch

        def counted_score(*args, **kwargs):
            probs = score(*args, **kwargs)
            sizes.append(len(probs))
            return probs
        monkeypatch.setattr(harness, "score_batch", counted_score)
        evaluate(params, examples, cfg)
        whole, rest = divmod(count, rows)
        assert sizes == [rows] * whole + ([rest] if rest else [])


class TestMetricsFiles:
    def make_report(self):
        cfg = tiny_config(epochs=1)
        # session_len 6 so both length buckets are populated
        train_ex, test_ex, n_items = make_planted_corpus(
            seed=2, n_items=20, n_clusters=4, session_len=6,
            train_sessions=10, test_sessions=8)
        result = train(train_ex[:40], n_items, cfg)
        return evaluate(result.params, test_ex, cfg), cfg

    def test_csv_schema(self, tmp_path):
        report, cfg = self.make_report()
        rows = metrics_csv_rows(report, "toy", cfg.variant, cfg.seed, epoch=1)
        assert rows[0] == ["dataset", "variant", "seed", "epoch",
                           "P@10", "M@10", "P@20", "M@20", "bucket"]
        buckets = {r[-1] for r in rows[1:]}
        assert buckets == {"all", "short", "long"}
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(rows[0])
        assert text.endswith("\n")

    def test_csv_values_parse_back(self, tmp_path):
        report, cfg = self.make_report()
        rows = metrics_csv_rows(report, "toy", cfg.variant, cfg.seed, 1)
        all_row = [r for r in rows[1:] if r[-1] == "all"][0]
        assert float(all_row[4]) == pytest.approx(
            report.overall.precision[10], abs=5e-5)

    def test_manifest_contents(self, tmp_path):
        import json
        cfg = tiny_config()
        path = tmp_path / "manifest.json"
        write_run_manifest(path, cfg, dataset="toy", n_items=20,
                           extra={"examples": 7})
        m = json.loads(path.read_text())
        assert m["dataset"] == "toy"
        assert m["config"]["dim"] == cfg.dim
        assert m["seed"] == cfg.seed
        assert m["examples"] == 7
        assert set(m["versions"]) == {"python", "numpy", "sessrec"}


class TestAblate:
    def test_all_variants_complete(self):
        cfg = tiny_config(epochs=1, dim=6, factor_dim=2)
        train_ex, test_ex, n_items = tiny_corpus()
        results = ablate(train_ex[:40], test_ex[:20], n_items, cfg)
        assert set(results) == {"full", "fcl", "star", "fp"}
        for variant, (tr, report) in results.items():
            assert tr.epoch_losses, variant
            assert 0.0 <= report.overall.precision[10] <= 1.0

    @pytest.mark.parametrize("variants,message", [
        (("fp", "mega"), "unknown variant 'mega'"),
        (("fp", "full", "fp"), "variant 'fp' listed twice")])
    def test_bad_variants_refused_before_training(self, monkeypatch,
                                                  variants, message):
        def untrained(*args, **kwargs):
            raise AssertionError("a variant was trained")

        monkeypatch.setattr(harness, "train", untrained)
        train_ex, test_ex, n_items = tiny_corpus()
        with pytest.raises(ValueError, match=message):
            ablate(train_ex, test_ex, n_items, tiny_config(),
                   variants=variants)

    def test_variant_field_propagates(self):
        cfg = tiny_config(epochs=1, dim=6, factor_dim=2)
        train_ex, test_ex, n_items = tiny_corpus()
        results = ablate(train_ex[:30], test_ex[:10], n_items, cfg,
                         variants=("fp",))
        assert list(results) == ["fp"]


def test_rank_of_agrees_with_sorting():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.random(12)
        t = int(rng.integers(12))
        order = sorted(range(12), key=lambda j: (-p[j], j))
        assert rank_of(p, t) == order.index(t) + 1
