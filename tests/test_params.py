"""Parameter initialization and checkpoint round-trips."""

import json
import re

import numpy as np
import pytest

from sessrec import params as params_module
from sessrec.params import (CheckpointError, init_parameters, load_checkpoint,
                            save_checkpoint)
from sessrec.rng import substream


def small_params(seed=0):
    return init_parameters(n_items=7, dim=4, factor_dim=2, num_factors=3,
                           layers=1, seed=seed)


SMALL_CONFIG = {"dim": 4, "factor_dim": 2, "num_factors": 3, "layers": 1,
                "seed": 0, "disc_form": "dot"}


class TestInit:
    def test_deterministic_per_seed(self):
        a, b = small_params(3), small_params(3)
        for (name_a, pa), (_, pb) in zip(a.named_parameters(),
                                         b.named_parameters()):
            np.testing.assert_array_equal(pa.value, pb.value, err_msg=name_a)

    def test_seed_changes_values(self):
        a, b = small_params(0), small_params(1)
        assert np.abs(a.embeddings.value - b.embeddings.value).max() > 0

    def test_names_unique_and_stable(self):
        names = [n for n, _ in small_params().named_parameters()]
        assert len(names) == len(set(names))
        assert names[0] == "embeddings"
        assert "ggnn.original.weight_in" in names
        assert "ggnn.factor.u_cand" in names
        assert "attention.item.query" in names
        # the dot-product pair scorers own no weights
        assert not [n for n in names if n.startswith("discriminator")]
        # one parameter per weight; the factor axis leads
        shapes = {n: p.value.shape for n, p in small_params().named_parameters()}
        assert shapes["ggnn.factor.u_cand"] == (3, 2, 2)
        assert shapes["ggnn.factor.bias_in"] == (3, 2)
        assert shapes["attention.factor.w_merge"] == (3, 4, 2)
        assert shapes["factor_proj.weight"] == (3, 4, 2)
        assert shapes["factor_proj.bias"] == (3, 2)

    def test_init_range_follows_width(self):
        p = small_params()
        stdv = 1.0 / np.sqrt(4)
        assert np.abs(p.embeddings.value).max() <= stdv
        stdv_f = 1.0 / np.sqrt(2)
        assert np.abs(p.ggnn_factor.weight_in.value).max() <= stdv_f

    def test_factor_slices_equal_sequential_draws(self):
        # slice k of each stacked weight holds the draws of the k-th of K
        # per-factor inits taken one after another from the same substream
        p = init_parameters(n_items=7, dim=4, factor_dim=2, num_factors=3,
                            layers=1, seed=9)
        rng = substream(9, "init")

        def draw(width, *shapes):
            stdv = 1.0 / np.sqrt(width)
            return [rng.uniform(-stdv, stdv, s) for s in shapes]

        ggnn = [(2, 2), (2, 2), (2,), (2,), (4, 2), (4, 2), (4, 2), (2, 2),
                (2, 2), (2, 2)]
        ggnn_item = [tuple(4 if n == 2 else 8 for n in s) for s in ggnn]
        (emb,) = draw(4, (7, 4))
        proj_w = draw(2, *[(4, 2)] * 3)
        proj_b = draw(2, *[(2,)] * 3)
        draw(4, *ggnn_item)                                   # original
        factor_ggnn = [draw(2, *ggnn) for _ in range(3)]
        draw(4, *ggnn_item)                                   # star
        draw(4, (4,), (4, 4), (4, 4), (8, 4))                 # item readout
        factor_attn = [draw(2, (2,), (2, 2), (2, 2), (4, 2)) for _ in range(3)]

        np.testing.assert_array_equal(p.embeddings.value, emb)
        ggnn_fields = [q for _, q in p.ggnn_factor.named_parameters("g")]
        attn_fields = [q for _, q in p.attn_factor.named_parameters("a")]
        for k in range(3):
            assert (p.proj.weight.value[k] == proj_w[k]).all()
            assert (p.proj.bias.value[k] == proj_b[k]).all()
            for field, expect in zip(ggnn_fields, factor_ggnn[k]):
                assert (field.value[k] == expect).all()
            for field, expect in zip(attn_fields, factor_attn[k]):
                assert (field.value[k] == expect).all()


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        params = small_params(5)
        base = tmp_path / "ckpt"
        save_checkpoint(base, params, SMALL_CONFIG, n_items=7)
        loaded, config, n_items = load_checkpoint(base)
        assert n_items == 7
        assert config == SMALL_CONFIG
        for (name, pa), (_, pb) in zip(params.named_parameters(),
                                       loaded.named_parameters()):
            assert (pa.value == pb.value).all(), name

    def test_accepts_bin_or_json_suffix(self, tmp_path):
        params = small_params()
        save_checkpoint(tmp_path / "m", params, SMALL_CONFIG, 7)
        for suffix in ("m", "m.bin", "m.json"):
            loaded, _, _ = load_checkpoint(tmp_path / suffix)
            assert (loaded.embeddings.value == params.embeddings.value).all()

    def test_manifest_is_json_with_offsets(self, tmp_path):
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        entries = manifest["entries"]
        assert entries[0]["name"] == "embeddings"
        assert entries[0]["offset"] == 0
        sizes = [int(np.prod(e["shape"])) for e in entries]
        offsets = [e["offset"] for e in entries]
        assert offsets == list(np.cumsum([0] + sizes[:-1]))
        assert manifest["total_elements"] == sum(sizes)

    def test_binary_size_matches_manifest(self, tmp_path):
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        raw = (tmp_path / "m.bin").read_bytes()
        assert len(raw) == manifest["total_elements"] * 8

    def test_truncated_binary_rejected(self, tmp_path):
        # a cut of whole values, and a cut inside one; the error names
        # the file and its byte count
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        raw = (tmp_path / "m.bin").read_bytes()
        for cut in (8, 3):
            (tmp_path / "m.bin").write_bytes(raw[:-cut])
            with pytest.raises(CheckpointError, match=rf"m\.bin: holds "
                                                      rf"{len(raw) - cut} bytes"):
                load_checkpoint(tmp_path / "m")

    def test_shape_mismatch_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["entries"][0]["shape"] = [3, 3]
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "m")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, tmp_path, bad):
        # the error names the first entry in manifest order, and where
        params = small_params()
        params.ggnn_factor.bias_in.value[2, 1] = bad
        params.attn_item.w_merge.value[0, 0] = bad
        save_checkpoint(tmp_path / "m", params, SMALL_CONFIG, 7)
        with pytest.raises(CheckpointError,
                           match=rf"ggnn\.factor\.bias_in: non-finite value "
                                 rf"{bad} at \(2, 1\)"):
            load_checkpoint(tmp_path / "m")

    def test_unknown_format_version_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "m")

    def test_format_1_manifest_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["format_version"] = 1
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="format 1"):
            load_checkpoint(tmp_path / "m")

    @pytest.mark.parametrize("damage", [
        "not_an_object", "config", "n_items", "total_elements", "entries",
        "entry.name", "entry.shape", "entry.offset", "config.dim",
        "negative_offset", "unallocatable_dim", "unallocatable_ggnn",
        "renamed_entry", "aliased_offset", "swapped_offsets", "gap"])
    def test_malformed_manifest_rejected(self, tmp_path, damage):
        # the unallocatable layouts hold 10**15 and 10**12 elements in one
        # array; laying them out must allocate nothing.  Entries 1
        # (factor_proj.weight) and 17 (ggnn.factor.weight_update) share a
        # shape, so pointing one at the other's elements fits the blob;
        # offsets must tile it in checkpoint order all the same
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        entries = manifest["entries"]
        assert entries[1]["shape"] == entries[17]["shape"]
        if damage == "not_an_object":
            manifest = [manifest]
        elif damage.startswith("entry."):
            del manifest["entries"][2][damage.split(".")[1]]
        elif damage == "config.dim":
            del manifest["config"]["dim"]
        elif damage == "negative_offset":
            manifest["entries"][1]["offset"] = -4
        elif damage == "renamed_entry":
            manifest["entries"][1]["name"] = "proj.weights"
        elif damage == "aliased_offset":
            entries[17]["offset"] = entries[1]["offset"]
        elif damage == "swapped_offsets":
            entries[1]["offset"], entries[17]["offset"] = \
                entries[17]["offset"], entries[1]["offset"]
        elif damage == "gap":
            entries[-1]["offset"] += 1
            manifest["total_elements"] += 1
            with open(tmp_path / "m.bin", "ab") as f:
                f.write(np.zeros(1, dtype="<f8").tobytes())
        elif damage.startswith("unallocatable"):
            manifest["n_items"] = 1
            manifest["config"]["dim"] = 10 ** 15 if damage.endswith("dim") \
                else 10 ** 6
        else:
            del manifest[damage]
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "m")

    @pytest.mark.parametrize("value", [4.7, True, "4"],
                             ids=["float", "bool", "string"])
    @pytest.mark.parametrize("field", [
        "config.dim", "config.factor_dim", "config.num_factors",
        "config.layers", "n_items", "total_elements", "embeddings.offset",
        "embeddings.shape"])
    def test_non_integer_size_rejected(self, tmp_path, field, value):
        # a size is never truncated or cast: 4.7 is not 4, "4" and true
        # are not numbers
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        owner, _, key = field.rpartition(".")
        if owner == "config":
            manifest["config"][key] = value
        elif owner == "embeddings":
            entry = manifest["entries"][0]
            if key == "shape":
                entry["shape"][0] = value
            else:
                entry["offset"] = value
        else:
            manifest[key] = value
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError,
                           match=rf"{re.escape(field)} must be a JSON integer"):
            load_checkpoint(tmp_path / "m")

    @pytest.mark.parametrize("value", [0, -3])
    @pytest.mark.parametrize("field", [
        "config.dim", "config.factor_dim", "config.num_factors",
        "config.layers", "n_items"])
    def test_count_below_one_rejected(self, tmp_path, field, value):
        # refused by name before any layout: with layers 0 the checkpoint
        # would load and evaluate with no propagation step
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        owner, _, key = field.rpartition(".")
        (manifest["config"] if owner else manifest)[key] = value
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError,
                           match=rf"{re.escape(field)} must be at least 1, "
                                 rf"got {value}"):
            load_checkpoint(tmp_path / "m")

    def test_bilinear_checkpoint_rejected(self, tmp_path):
        # a checkpoint of the removed bilinear form, with its two (d, d)
        # discriminator weights after the others, is refused by its form
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["config"]["disc_form"] = "bilinear"
        for name, d in (("item", 4), ("factor", 2)):
            manifest["entries"].append({"name": f"discriminator.{name}.weight",
                                        "shape": [d, d],
                                        "offset": manifest["total_elements"]})
            manifest["total_elements"] += d * d
            with open(tmp_path / "m.bin", "ab") as f:
                f.write(np.zeros(d * d, dtype="<f8").tobytes())
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError,
                           match="unknown discriminator form 'bilinear'"):
            load_checkpoint(tmp_path / "m")

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # the layout comes from the config alone, not from a random init
        params = small_params(5)
        save_checkpoint(tmp_path / "m", params, SMALL_CONFIG, 7)

        def no_draws(*args):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(params_module, "substream", no_draws)
        loaded, _, _ = load_checkpoint(tmp_path / "m")
        for (name, pa), (_, pb) in zip(params.named_parameters(),
                                       loaded.named_parameters()):
            assert (pa.value == pb.value).all(), name

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent")

    def test_missing_weights_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        (tmp_path / "m.bin").unlink()
        with pytest.raises(CheckpointError, match="cannot read weights"):
            load_checkpoint(tmp_path / "m")

    def test_loaded_values_are_writable(self, tmp_path):
        # training must be able to continue from a loaded checkpoint
        save_checkpoint(tmp_path / "m", small_params(), SMALL_CONFIG, 7)
        loaded, _, _ = load_checkpoint(tmp_path / "m")
        loaded.embeddings.value[0, 0] = 123.0
        assert loaded.embeddings.value[0, 0] == 123.0
