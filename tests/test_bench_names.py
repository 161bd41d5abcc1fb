"""The benchmark reads sessrec names from outside the package.

``perfbench/tracer.py`` looks each name it patches up with ``getattr``,
and ``perfbench/run.py`` and ``perfbench/setup_probe.py`` call a few
more directly, so renaming or deleting one breaks every benchmark run.
These tests catch that here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sessrec.dataio import Example
from sessrec.model import pack_batch

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()
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
