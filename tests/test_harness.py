"""Training loop, evaluation, metrics files, and the planted corpus."""

import dataclasses

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
                                     "normalize_attention": "true"})
        assert cfg.dim == 16 and cfg.lr == 0.01
        assert cfg.normalize_attention is True

    def test_from_dict_ints_fill_float_fields(self):
        cfg = TrainConfig.from_dict({"lr": 1, "theta": 0, "dim": 16})
        assert cfg.lr == 1.0 and isinstance(cfg.lr, float)
        assert cfg.theta == 0.0 and isinstance(cfg.theta, float)

    @pytest.mark.parametrize("field,value", [
        ("dim", 1.7), ("dim", 16.0), ("epochs", True), ("lr", True),
        ("theta", False), ("normalize_attention", 2),
        ("normalize_attention", 1), ("normalize_attention", 0.0)],
        ids=["int_from_float", "int_from_whole_float", "int_from_bool",
             "float_from_true", "float_from_false", "bool_from_2",
             "bool_from_1", "bool_from_float"])
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
        dict(alpha=1.5), dict(negatives_per_positive=0),
        dict(factor_negatives="both_views"),
        dict(dropout_edge=1.5, variant="star"),
        dict(dropout_node=-0.1, variant="star"),
        dict(lr=-1.0), dict(lr=0.0), dict(lr=float("nan")),
        dict(lr=float("inf")), dict(beta_cl=-5.0),
        dict(beta_cl=float("inf")), dict(beta_ind=-0.01),
        dict(beta_ind=float("nan")), dict(seed=-1), dict(disc_form="mlp"),
    ], ids=["alpha", "negatives_per_positive", "factor_negatives",
            "dropout_edge", "dropout_node", "lr_negative", "lr_zero",
            "lr_nan", "lr_inf", "beta_cl_negative", "beta_cl_inf",
            "beta_ind_negative", "beta_ind_nan", "seed_negative",
            "disc_form"])
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
        scored = harness.score_batch

        def one_nan_row(params, pack, cfg):
            probs = scored(params, pack, cfg)
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
