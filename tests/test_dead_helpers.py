"""The package keeps no dead code: every module-level function or class
of src/disemi, and every method or property of such a class, is read
somewhere outside its own definition, so a recursive call alone does
not keep it alive.  A name that starts with one underscore must be read
in the package; a public name may also be read by the tests or the
benchmark harness.  A method counts as read wherever an attribute of
its name is read, whatever the object."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "disemi"


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


def definitions(tree):
    """The module-level functions and classes of tree, each class
    followed by the functions defined in its body (methods and
    properties), in source order."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body
                        if isinstance(sub, ast.FunctionDef))


def unread_definitions(paths, readers, private):
    """(file name, line, name) of each definition in paths, the _name
    ones if private and the public ones otherwise, that no read in
    readers (which include paths) names outside its own definition;
    dunder names are left out."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in readers}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    return [(path.name, node.lineno, node.name)
            for path in paths for node in definitions(trees[path])
            if not node.name.startswith("__")
            and node.name.startswith("_") == private
            and total[node.name] == reads(node)[node.name]]


def unused_private_helpers(paths):
    """unread_definitions of the _name functions, classes and methods,
    read in paths alone."""
    return unread_definitions(paths, paths, private=True)


def test_no_dead_private_helpers():
    assert unused_private_helpers(sorted(SOURCES.glob("*.py"))) == []


def test_no_unread_public_names():
    sources = sorted(SOURCES.glob("*.py"))
    readers = sources + sorted((ROOT / "tests").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    assert unread_definitions(sources, readers, private=False) == []


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


def test_guard_sees_an_unread_public_name(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("def orphan():\n    return 1\n\n"
                   "def recursive(n):\n    return recursive(n - 1)\n\n"
                   "def used():\n    return 2\n\n"
                   "class Tested:\n    pass\n\n"
                   "def _private():\n    return 3\n")
    test = tmp_path / "test_lib.py"
    test.write_text("import lib\nfrom lib import used\n\n"
                    "def test_it():\n    assert used() and lib.Tested()\n")
    assert unread_definitions([lib], [lib], private=False) == [
        ("lib.py", 1, "orphan"), ("lib.py", 4, "recursive"),
        ("lib.py", 7, "used"), ("lib.py", 10, "Tested")]
    assert unread_definitions([lib], [lib, test], private=False) == [
        ("lib.py", 1, "orphan"), ("lib.py", 4, "recursive")]



def test_guard_sees_dead_methods_and_properties(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text("class Shape:\n"
                   "    def __init__(self, n):\n        self.n = n\n\n"
                   "    def area(self):\n        return self._side() ** 2\n\n"
                   "    def _side(self):\n        return self.n\n\n"
                   "    def _unused(self):\n        return self._unused()\n\n"
                   "    @property\n    def corners(self):\n        return 4\n\n"
                   "    @property\n    def edges(self):\n        return 4\n\n"
                   "def make():\n    return Shape(2).edges\n")
    test = tmp_path / "test_lib.py"
    test.write_text("from lib import Shape, make\n\n"
                    "def test_it():\n    assert Shape(1).area() and make()\n")
    assert unused_private_helpers([lib]) == [("lib.py", 11, "_unused")]
    assert unread_definitions([lib], [lib], private=False) == [
        ("lib.py", 5, "area"), ("lib.py", 15, "corners"),
        ("lib.py", 22, "make")]
    assert unread_definitions([lib], [lib, test], private=False) == [
        ("lib.py", 15, "corners")]
