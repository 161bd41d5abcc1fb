"""The full trainable parameter set, its initialization, and checkpoints.

All weights are created in one fixed order from a single named RNG
substream, so a seed pins every initial value regardless of which
variant later trains; the K factor weights of each kind stack on a
leading factor axis.  Checkpoints are a flat little-endian float64
binary next to a JSON manifest recording names, shapes, offsets (in
elements) and the run configuration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .contrast import Discriminator
from .disentangle import FactorProjection
from .encoder import AttentionWeights
from .propagation import GGNNWeights
from .rng import substream
from .tape import Parameter

CHECKPOINT_FORMAT = 2


@dataclass
class ParameterSet:
    embeddings: Parameter
    proj: FactorProjection
    ggnn_original: GGNNWeights
    ggnn_factor: GGNNWeights       # K channels on a leading factor axis
    ggnn_star: GGNNWeights
    attn_item: AttentionWeights
    attn_factor: AttentionWeights  # K readouts on a leading factor axis
    disc_item: Discriminator
    disc_factor: Discriminator

    def named_parameters(self):
        """(name, Parameter) pairs in the fixed checkpoint order."""
        out = [("embeddings", self.embeddings)]
        out.extend(self.proj.named_parameters())
        out.extend(self.ggnn_original.named_parameters("ggnn.original"))
        out.extend(self.ggnn_factor.named_parameters("ggnn.factor"))
        out.extend(self.ggnn_star.named_parameters("ggnn.star"))
        out.extend(self.attn_item.named_parameters("attention.item"))
        out.extend(self.attn_factor.named_parameters("attention.factor"))
        out.extend(self.disc_item.named_parameters("discriminator.item"))
        out.extend(self.disc_factor.named_parameters("discriminator.factor"))
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]


def init_parameters(n_items, dim, factor_dim, num_factors, layers, seed,
                    disc_form: str = "dot") -> ParameterSet:
    """Create all weights from the ``init`` substream of ``seed``.

    Everything draws uniform from +-1/sqrt(width of its own space):
    embeddings and item-space weights use 1/sqrt(dim), factor-space
    weights 1/sqrt(factor_dim).
    """
    return _build(substream(seed, "init"), n_items, dim, factor_dim,
                  num_factors, layers, disc_form)


# Stands in for the init generator when only the layout is needed: every
# "draw" is zeros, which costs no random numbers and no touched memory.
_NO_DRAWS = SimpleNamespace(uniform=lambda low, high, size: np.zeros(size))


def _build(rng, n_items, dim, factor_dim, num_factors, layers, disc_form):
    """The parameter layout, in draw order; the one place it is spelled out."""
    stdv = 1.0 / np.sqrt(dim)
    embeddings = Parameter(rng.uniform(-stdv, stdv, (n_items, dim)))
    proj = FactorProjection.init(dim, factor_dim, num_factors, rng)
    ggnn_original = GGNNWeights.init(dim, rng, layers)
    ggnn_factor = GGNNWeights.init(factor_dim, rng, layers, num_factors)
    ggnn_star = GGNNWeights.init(dim, rng, layers)
    attn_item = AttentionWeights.init(dim, rng)
    attn_factor = AttentionWeights.init(factor_dim, rng, num_factors)
    disc_item = Discriminator.init(disc_form, dim, rng)
    disc_factor = Discriminator.init(disc_form, factor_dim, rng)
    return ParameterSet(embeddings, proj, ggnn_original, ggnn_factor,
                        ggnn_star, attn_item, attn_factor, disc_item,
                        disc_factor)


class CheckpointError(Exception):
    pass


def checkpoint_paths(base):
    """``(<base>.bin, <base>.json)``; ``base`` may end in either suffix."""
    base = Path(base)
    if base.suffix in (".bin", ".json"):
        base = base.with_suffix("")
    return base.with_suffix(".bin"), base.with_suffix(".json")


def save_checkpoint(base, params: ParameterSet, config: dict, n_items: int):
    """Write ``<base>.bin`` and ``<base>.json``."""
    bin_path, json_path = checkpoint_paths(base)
    entries = []
    chunks = []
    offset = 0
    for name, p in params.named_parameters():
        a = np.ascontiguousarray(p.value, dtype="<f8")
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        chunks.append(a.tobytes())
        offset += a.size
    bin_path.write_bytes(b"".join(chunks))
    manifest = {
        "format_version": CHECKPOINT_FORMAT,
        "total_elements": offset,
        "n_items": int(n_items),
        "config": config,
        "entries": entries,
    }
    json_path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def load_checkpoint(base):
    """Rebuild a ParameterSet from ``<base>.bin`` / ``<base>.json``.

    The structural fields of the stored config (dims, factor count,
    layers, discriminator form) lay out the parameters without drawing
    any; every stored array must match its laid-out shape exactly and
    hold finite values only.  A malformed manifest raises
    ``CheckpointError``, as does a size, shape or offset that is not a
    JSON integer (4.7, "4", true).  Returns ``(params, config, n_items)``.
    """
    bin_path, json_path = checkpoint_paths(base)
    try:
        manifest = json.loads(json_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read manifest {json_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{json_path}: manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {manifest.get('format_version')!r}")

    def whole(v, field):
        if type(v) is not int:
            raise CheckpointError(
                f"{json_path}: {field} must be a JSON integer, got {v!r}")
        return v

    try:
        config = manifest["config"]
        n_items = whole(manifest["n_items"], "n_items")
        total = whole(manifest["total_elements"], "total_elements")
        stored = {e["name"]: (tuple(whole(n, f"{e['name']}.shape")
                                    for n in e["shape"]),
                              whole(e["offset"], f"{e['name']}.offset"))
                  for e in manifest["entries"]}
        params = _build(_NO_DRAWS, n_items,
                        *(whole(config[k], f"config.{k}") for k in
                          ("dim", "factor_dim", "num_factors", "layers")),
                        config.get("disc_form", "dot"))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"{json_path}: malformed manifest ({type(exc).__name__}: {exc})"
        ) from exc
    try:
        raw = np.frombuffer(bin_path.read_bytes(), dtype="<f8")
    except OSError as exc:
        raise CheckpointError(f"cannot read weights {bin_path}: {exc}") from exc
    if raw.size != total:
        raise CheckpointError(
            f"{bin_path}: holds {raw.size} elements, manifest says {total}")

    expected = [name for name, _ in params.named_parameters()]
    missing = [n for n in expected if n not in stored]
    extra = [n for n in stored if n not in expected]
    if missing or extra:
        raise CheckpointError(
            f"parameter name mismatch: missing={missing} extra={extra}")
    for name, p in params.named_parameters():
        shape, offset = stored[name]
        if shape != p.value.shape:
            raise CheckpointError(
                f"{name}: stored shape {shape} != expected {p.value.shape}")
        size = p.value.size
        if not 0 <= offset <= raw.size - size:
            raise CheckpointError(f"{name}: elements {offset}..{offset + size} "
                                  f"lie outside the {raw.size}-element blob")
        p.value = raw[offset:offset + size].reshape(shape).astype(np.float64)
        p.grad = None
        bad = np.flatnonzero(~np.isfinite(p.value))
        if bad.size:
            raise CheckpointError(
                f"{name}: non-finite value {p.value.flat[bad[0]]} at "
                f"{tuple(map(int, np.unravel_index(bad[0], shape)))} "
                f"({bad.size} in all)")
    return params, config, n_items
