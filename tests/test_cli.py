"""Command line surface: subcommands, config precedence, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_harness import poison_star_gradient

from sessrec import cli, dataio
from sessrec.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from sessrec.harness import make_planted_corpus


@pytest.fixture()
def raw_events(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    t = 0.0
    for s in range(40):
        length = int(rng.integers(2, 5))
        items = rng.integers(0, 8, size=length)
        for item in items:
            lines.append(f"s{s},{t},{'item%d' % item}")
            t += 1.0
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def corpus_dir(tmp_path):
    """Planted examples written in the on-disk layout train expects."""
    train_ex, test_ex, n_items = make_planted_corpus(
        seed=4, n_items=20, n_clusters=4, session_len=4,
        train_sessions=20, test_sessions=8)
    d = tmp_path / "corpus"
    d.mkdir()
    dataio.write_examples(d / "train.jsonl", train_ex)
    dataio.write_examples(d / "test.jsonl", test_ex)
    dataio.write_catalog(d / "catalog.json",
                         dataio.ItemCatalog({str(i): i for i in range(n_items)}))
    return d


TINY_FLAGS = ["--dim", "6", "--factor-dim", "2", "--num-factors", "2",
              "--epochs", "1", "--batch-size", "16"]


class TestPreprocess:
    def test_writes_outputs(self, raw_events, tmp_path):
        out = tmp_path / "out"
        code = main(["preprocess", "--input", str(raw_events),
                     "--out", str(out), "--boundary", "100",
                     "--min-item-freq", "2"])
        assert code == EXIT_OK
        for name in ("train.jsonl", "test.jsonl", "catalog.json",
                     "stats.json"):
            assert (out / name).exists(), name
        stats = json.loads((out / "stats.json").read_text())
        assert stats["training_sessions"] > 0
        assert stats["test_sessions"] > 0
        examples = dataio.read_examples(out / "train.jsonl")
        catalog = dataio.read_catalog(out / "catalog.json")
        assert all(0 <= ex.target < catalog.count for ex in examples)

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["preprocess", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o"), "--boundary", "5"])
        assert code == EXIT_DATA

    def test_degenerate_split_is_data_error(self, raw_events, tmp_path):
        code = main(["preprocess", "--input", str(raw_events),
                     "--out", str(tmp_path / "o"), "--boundary", "1e9",
                     "--min-item-freq", "1"])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("max_len", ["1", "0", "-1"])
    def test_max_session_len_below_min_is_usage_error(self, raw_events,
                                                       tmp_path, max_len):
        out = tmp_path / "o"
        code = main(["preprocess", "--input", str(raw_events),
                     "--out", str(out), "--boundary", "100",
                     "--min-item-freq", "2", "--max-session-len", max_len])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_non_utf8_input_is_data_error(self, raw_events, tmp_path,
                                          caplog):
        raw_events.write_bytes(raw_events.read_bytes() + b"s99,5.0,\xff\n")
        code = main(["preprocess", "--input", str(raw_events),
                     "--out", str(tmp_path / "o"), "--boundary", "100"])
        assert code == EXIT_DATA
        assert str(raw_events) in caplog.text


class TestTrain:
    def test_full_run_writes_artifacts(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(out)] + TINY_FLAGS)
        assert code == EXIT_OK
        assert (out / "checkpoint.bin").exists()
        assert (out / "checkpoint.json").exists()
        losses = (out / "losses.csv").read_text().splitlines()
        assert losses[0] == "epoch,total,prediction,contrastive,independence"
        assert len(losses) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["dim"] == 6
        assert manifest["examples"] == 60

    def test_config_file_with_flag_override(self, corpus_dir, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "dim = 6\nfactor_dim = 2\nnum_factors = 2\n"
            "epochs = 3   # overridden below\nbatch_size = 16\n",
            encoding="utf-8")
        out = tmp_path / "run"
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(out), "--config", str(cfg_file),
                     "--epochs", "1"])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1      # flag beats file
        assert manifest["config"]["dim"] == 6         # file beats default

    def test_unknown_config_key_is_usage_error(self, corpus_dir, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("dimension = 6\n", encoding="utf-8")
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "r"), "--config", str(cfg_file)])
        assert code == EXIT_USAGE

    def test_seed_past_64_bits_is_usage_error(self, corpus_dir, tmp_path,
                                              caplog):
        out = tmp_path / "r"
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(out), "--seed", "18446744073709551616"]
                    + TINY_FLAGS)
        assert code == EXIT_USAGE
        assert "seed must be < 2**64" in caplog.text
        assert not out.exists()

    def test_missing_train_file_is_data_error(self, corpus_dir, tmp_path):
        code = main(["train", "--train", str(corpus_dir / "absent.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "r")] + TINY_FLAGS)
        assert code == EXIT_DATA

    def test_missing_required_flag_is_usage_error(self):
        assert main(["train"]) == EXIT_USAGE

    @pytest.mark.parametrize("record", [
        '{"session": [0, 1, -1], "target": 2}',
        '{"session": [0, 1], "target": -1}',
        '{"session": [0, 20], "target": 1}',
    ], ids=["negative_item", "negative_target", "out_of_range"])
    def test_out_of_catalog_items_is_data_error(self, corpus_dir, tmp_path,
                                                record):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n", encoding="utf-8")
        code = main(["train", "--train", str(bad),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "r")] + TINY_FLAGS)
        assert code == EXIT_DATA

    @pytest.mark.parametrize("record", [
        '{"session": "123", "target": 4}',
        '{"session": [1.9, true], "target": 2}',
        '{"session": [0, 1], "target": 2.7}',
    ], ids=["string_session", "float_and_bool_ids", "float_target"])
    def test_non_integer_ids_is_data_error(self, corpus_dir, tmp_path,
                                           record):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(record + "\n", encoding="utf-8")
        code = main(["train", "--train", str(bad),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "r")] + TINY_FLAGS)
        assert code == EXIT_DATA


    @pytest.mark.parametrize("content", [
        '{"count": 3, "item_to_index": {"a": 0,',
        '{"count": 3}',
        '{"count": 2, "item_to_index": {"a": 0, "b": 5}}',
        '{"item_to_index": {"a": 0.0, "b": 1.0}}',
        '{"item_to_index": {"a": false, "b": true}}',
        '{"count": 2.0, "item_to_index": {"a": 0, "b": 1}}',
    ], ids=["malformed_json", "missing_map", "indices_not_dense",
            "float_indices", "bool_indices", "float_count"])
    def test_bad_catalog_is_data_error(self, corpus_dir, tmp_path, content):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(content, encoding="utf-8")
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(catalog),
                     "--out", str(tmp_path / "r")] + TINY_FLAGS)
        assert code == EXIT_DATA

    def test_non_utf8_examples_is_data_error(self, corpus_dir, tmp_path,
                                             caplog):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"session": [0, 1], "target": 2}\n'
                        b'{"session": [1], "target": 3} \xff\n')
        code = main(["train", "--train", str(bad),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "r")] + TINY_FLAGS)
        assert code == EXIT_DATA
        assert str(bad) in caplog.text

    @pytest.mark.parametrize("flags", [
        ["--lr", "-1"], ["--lr", "nan"], ["--beta-cl", "-5"],
        ["--beta-ind", "nan"],
    ], ids=["lr_negative", "lr_nan", "beta_cl_negative", "beta_ind_nan"])
    def test_out_of_range_objective_is_usage_error(self, corpus_dir,
                                                   tmp_path, flags):
        out = tmp_path / "r"
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(out)] + TINY_FLAGS + flags)
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, corpus_dir, tmp_path,
                                          caplog):
        out = tmp_path / "r"
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(out), "--seed", "-1"] + TINY_FLAGS)
        assert code == EXIT_USAGE
        assert "seed must be >= 0" in caplog.text
        assert not out.exists()

    def test_unknown_disc_form_is_usage_error(self, corpus_dir, tmp_path,
                                              caplog, monkeypatch):
        # the config is checked before any file is read: a missing
        # catalog would otherwise turn this into a data error
        def unread(*args, **kwargs):
            raise AssertionError("a file was read before the config check")

        for name in ("read_catalog", "read_examples"):
            monkeypatch.setattr(dataio, name, unread)
        out = tmp_path / "r"
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(tmp_path / "absent.json"),
                     "--out", str(out), "--disc-form", "mlp"] + TINY_FLAGS)
        assert code == EXIT_USAGE
        assert "unknown discriminator form 'mlp'" in caplog.text
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_is_numeric_error(self, corpus_dir, tmp_path,
                                            caplog):
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "r"), "--lr", "1e300"]
                    + TINY_FLAGS)
        assert code == EXIT_NUMERIC
        assert "non-finite loss" in caplog.text
        assert "at epoch 1 (batch of 16 sessions, ids " in caplog.text

    def test_non_finite_gradient_is_numeric_error(self, corpus_dir, tmp_path,
                                                  monkeypatch, caplog):
        poison_star_gradient(monkeypatch)
        code = main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "r")] + TINY_FLAGS)
        assert code == EXIT_NUMERIC
        assert ("non-finite gradient of ggnn.star.u_cand at epoch 1 (batch "
                "of 16 sessions, ids ") in caplog.text


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_unusable_out_fails_before_training(corpus_dir, tmp_path,
                                            monkeypatch, command):
    # --out below a regular file cannot be created; that must surface
    # before any epoch runs, not after
    def no_training(*args, **kwargs):
        raise AssertionError("trained before checking --out")
    monkeypatch.setattr(cli.harness, "train", no_training)
    monkeypatch.setattr(cli.harness, "ablate", no_training)
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    argv = [command, "--train", str(corpus_dir / "train.jsonl"),
            "--catalog", str(corpus_dir / "catalog.json"),
            "--out", str(afile / "x")] + TINY_FLAGS
    if command == "ablate":
        argv += ["--test", str(corpus_dir / "test.jsonl")]
    assert main(argv) == EXIT_DATA


@pytest.mark.parametrize("command,bad_file", [
    ("train", "train"), ("ablate", "train"), ("ablate", "test")])
def test_data_error_leaves_no_out_dir(corpus_dir, tmp_path, command,
                                      bad_file):
    # examples are checked against the catalog before --out is created
    files = {"train": corpus_dir / "train.jsonl",
             "test": corpus_dir / "test.jsonl"}
    files[bad_file] = tmp_path / "bad.jsonl"
    files[bad_file].write_text('{"session": [0, 20], "target": 1}\n',
                               encoding="utf-8")
    out = tmp_path / "r"
    argv = [command, "--train", str(files["train"]),
            "--catalog", str(corpus_dir / "catalog.json"),
            "--out", str(out)] + TINY_FLAGS
    if command == "ablate":
        argv += ["--test", str(files["test"])]
    assert main(argv) == EXIT_DATA
    assert not out.exists()


class TestEvalCommand:
    @pytest.fixture()
    def trained(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--train", str(corpus_dir / "train.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(out)] + TINY_FLAGS) == EXIT_OK
        return out / "checkpoint"

    def test_eval_writes_metrics(self, trained, corpus_dir, tmp_path,
                                 capsys):
        metrics = tmp_path / "metrics.csv"
        code = main(["eval", "--checkpoint", str(trained),
                     "--test", str(corpus_dir / "test.jsonl"),
                     "--metrics", str(metrics), "--dataset", "toy"])
        assert code == EXIT_OK
        lines = metrics.read_text().splitlines()
        assert lines[0] == "dataset,variant,seed,epoch,P@10,M@10,P@20,M@20,bucket"
        assert all(line.split(",")[0] == "toy" for line in lines[1:])
        shown = capsys.readouterr().out
        assert "P@10" in shown

    def test_custom_cutoffs(self, trained, corpus_dir, tmp_path):
        metrics = tmp_path / "metrics.csv"
        code = main(["eval", "--checkpoint", str(trained),
                     "--test", str(corpus_dir / "test.jsonl"),
                     "--metrics", str(metrics), "--k", "5", "--k", "1"])
        assert code == EXIT_OK
        header = metrics.read_text().splitlines()[0]
        assert "P@1" in header and "P@5" in header

    def test_missing_checkpoint_is_data_error(self, corpus_dir, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "none"),
                     "--test", str(corpus_dir / "test.jsonl")])
        assert code == EXIT_DATA

    def test_manifest_without_config_is_data_error(self, trained, corpus_dir):
        manifest_path = trained.with_suffix(".json")
        manifest = json.loads(manifest_path.read_text())
        del manifest["config"]
        manifest_path.write_text(json.dumps(manifest))
        code = main(["eval", "--checkpoint", str(trained),
                     "--test", str(corpus_dir / "test.jsonl")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("edit", [{"theta": 5.0}, {"bogus": 1},
                                      {"variant": "nope"}, {"theta": None}],
                             ids=["theta_out_of_range", "unknown_key",
                                  "unknown_variant", "theta_null"])
    def test_invalid_stored_config_is_data_error(self, trained, corpus_dir,
                                                 caplog, edit):
        manifest_path = trained.with_suffix(".json")
        manifest = json.loads(manifest_path.read_text())
        manifest["config"].update(edit)
        manifest_path.write_text(json.dumps(manifest))
        code = main(["eval", "--checkpoint", str(trained),
                     "--test", str(corpus_dir / "test.jsonl")])
        assert code == EXIT_DATA
        assert f"{manifest_path}: invalid stored config" in caplog.text

    def test_non_integer_n_items_is_data_error(self, trained, corpus_dir,
                                               caplog):
        # 10.9 items must not load as a 10-item model
        manifest_path = trained.with_suffix(".json")
        manifest = json.loads(manifest_path.read_text())
        manifest["n_items"] += 0.9
        manifest_path.write_text(json.dumps(manifest))
        code = main(["eval", "--checkpoint", str(trained),
                     "--test", str(corpus_dir / "test.jsonl")])
        assert code == EXIT_DATA
        assert "n_items must be a JSON integer" in caplog.text

    def test_non_finite_checkpoint_is_data_error(self, trained, corpus_dir,
                                                 caplog):
        # NaN embeddings rank every target first: P@10 = MRR = 1.0
        bin_path = trained.with_suffix(".bin")
        raw = np.frombuffer(bin_path.read_bytes(), dtype="<f8").copy()
        raw[5] = np.nan                 # inside embeddings, the first entry
        bin_path.write_bytes(raw.tobytes())
        code = main(["eval", "--checkpoint", str(trained),
                     "--test", str(corpus_dir / "test.jsonl")])
        assert code == EXIT_DATA
        assert "embeddings: non-finite value nan" in caplog.text

    def test_out_of_catalog_test_items_rejected(self, trained, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"session": [1, 999], "target": 2}\n',
                       encoding="utf-8")
        code = main(["eval", "--checkpoint", str(trained),
                     "--test", str(bad)])
        assert code == EXIT_DATA


class TestAblateCommand:
    def test_two_variants(self, corpus_dir, tmp_path):
        out = tmp_path / "ab"
        code = main(["ablate", "--train", str(corpus_dir / "train.jsonl"),
                     "--test", str(corpus_dir / "test.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(out), "--variants", "full,fp"]
                    + TINY_FLAGS)
        assert code == EXIT_OK
        lines = (out / "metrics.csv").read_text().splitlines()
        variants = {line.split(",")[1] for line in lines[1:]}
        assert variants == {"full", "fp"}
        assert (out / "full" / "checkpoint.bin").exists()
        assert (out / "fp" / "checkpoint.bin").exists()

    def test_unknown_variant_is_usage_error(self, corpus_dir, tmp_path):
        code = main(["ablate", "--train", str(corpus_dir / "train.jsonl"),
                     "--test", str(corpus_dir / "test.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "x"), "--variants", "mega"])
        assert code == EXIT_USAGE

    def test_out_of_catalog_items_is_data_error(self, corpus_dir, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"session": [0, 20], "target": 1}\n', encoding="utf-8")
        code = main(["ablate", "--train", str(bad),
                     "--test", str(corpus_dir / "test.jsonl"),
                     "--catalog", str(corpus_dir / "catalog.json"),
                     "--out", str(tmp_path / "ab"), "--variants", "full"]
                    + TINY_FLAGS)
        assert code == EXIT_DATA


def test_entry_point_function_exists():
    # the installed script calls cli.main and exits with its return value
    assert callable(cli.main)


def test_import_leaves_scipy_special_unloaded():
    # importing scipy.special adds about 0.1 s to every process's start
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sessrec.cli; "
            "print('scipy.special' in sys.modules)")
    src = Path(cli.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"
