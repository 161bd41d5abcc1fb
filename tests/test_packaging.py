"""The runtime dependencies pyproject.toml declares are exactly the
third-party modules the package imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")     # in the standard library from 3.11

ROOT = Path(__file__).resolve().parents[1]


def test_declared_dependencies_are_the_imported_ones():
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                for req in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "sessrec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"sessrec"}
    assert declared == third_party == {"numpy"}
