"""Each quick demo script runs to completion, and every demo's package
imports resolve."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# train_and_compare.py trains five desk-scale models (about a minute),
# so it does not run here.
QUICK_DEMOS = ("data_pipeline.py", "factor_separation.py", "graph_views.py")


@pytest.mark.parametrize("script", QUICK_DEMOS)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def _sessrec_imports():
    """(demo, module, name) for every ``from sessrec... import name`` in
    every demo, slow ones included."""
    found = []
    for path in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.split(".")[0] == "sessrec":
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


DEMO_IMPORTS = _sessrec_imports()


def test_every_demo_imports_something():
    demos = {p.name for p in (ROOT / "demos").glob("*.py")}
    assert demos and demos == {demo for demo, _, _ in DEMO_IMPORTS}


@pytest.mark.parametrize("demo, module, name", DEMO_IMPORTS,
                         ids=[f"{d}:{m}.{n}" for d, m, n in DEMO_IMPORTS])
def test_demo_import_resolves(demo, module, name):
    # a rename or deletion in the package breaks even the demos that are
    # too slow to run here
    assert hasattr(importlib.import_module(module), name), \
        f"{demo}: from {module} import {name}"
