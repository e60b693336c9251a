"""The package keeps no dead private helpers: every module-level
function or class of src/disemi whose name starts with one underscore
is read somewhere in the package outside its own definition, so a
recursive call alone does not keep it alive."""

import ast
from collections import Counter
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "disemi"


def reads(node):
    """Counter of the names read under node: loaded names and the
    attribute names of dotted reads such as module._helper."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def unused_private_helpers(paths):
    """(file name, line, name) of each module-level _name function or
    class in paths that no read outside its own definition names."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    return [(path.name, node.lineno, node.name)
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and total[node.name] == reads(node)[node.name]]


def test_no_dead_private_helpers():
    assert unused_private_helpers(sorted(SOURCES.glob("*.py"))) == []


def test_guard_sees_a_dead_helper(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def _dead():\n    return 1\n\n"
                   "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                   "class _Used:\n    pass\n\n"
                   "def _called():\n    return _Used()\n\n"
                   "def public():\n    return _called()\n")
    other = tmp_path / "other.py"
    other.write_text("import bad\n\ndef _by_attribute():\n    pass\n\n"
                     "x = bad._dead\n")
    assert unused_private_helpers([bad]) == [
        ("bad.py", 1, "_dead"), ("bad.py", 4, "_recursive")]
    assert unused_private_helpers([bad, other]) == [
        ("bad.py", 4, "_recursive"), ("other.py", 3, "_by_attribute")]
