"""The benchmark's tracer patches sessrec names from outside the package.

``perfbench/tracer.py`` looks each name up with ``getattr``, so renaming
or deleting one breaks every traced run.  These tests catch that here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
