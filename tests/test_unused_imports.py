"""The test and program modules import only what they use: every name
bound by a `from ... import name` statement in tests/*.py and
src/disemi/*.py is read somewhere in its module.  The package's
__init__.py is left out, as its imports are re-exports."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SOURCES = TESTS.parent / "src" / "disemi"


def unused_from_imports(path):
    """(line, name) of each name a from-import binds and the module
    never reads."""
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(node.lineno, alias.asname or alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name != "*" and (alias.asname or alias.name) not in used]


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")) + sorted(
    p for p in SOURCES.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_from_imports_are_used(path):
    assert unused_from_imports(path) == []


def test_guard_sees_an_unused_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from os import path, sep\nfrom math import gcd as g\n"
                   "import sys\nfrom json import dumps\n\n"
                   "def f():\n    return path.join(sep, str(dumps))\n")
    assert unused_from_imports(bad) == [(2, "g")]
