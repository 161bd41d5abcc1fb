"""Each quick demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# train_and_compare.py trains five desk-scale models (about a minute) and
# verify_gradients.py repeats what acceptance check c03 already asserts,
# so neither runs here.
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
