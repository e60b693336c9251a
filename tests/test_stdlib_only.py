"""The runtime is standard-library only: every absolute import in the
package names a standard-library module at its top level."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "disemi"


def foreign_imports(path):
    """(line, top-level name) of each absolute import outside the
    standard library."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, n.split(".")[0]) for n in names
                if n.split(".")[0] not in sys.stdlib_module_names]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    assert foreign_imports(path) == []


def test_guard_sees_a_foreign_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nimport numpy.linalg\nfrom . import linalg\n"
                   "from scipy import sparse\n")
    assert foreign_imports(bad) == [(2, "numpy"), (4, "scipy")]
