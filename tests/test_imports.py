"""Every name a library module imports is used in that module, every
private name the library defines is used somewhere in the library, every
public function or class is used by the library or exported by the
package, every public method or property of a module-level class is used
by the library or named in README.md as `Class.method`, every public
class-level attribute is read by the library, no library module imports
another library module's private name, every import is of the package
itself or of the standard library, and every exception class the library
defines derives from PreconditionError or InternalCheckError.  A name
only the tests use is dead: the oracles are written on their own, not on
library code kept alive for them.

`__init__.py` is left out of the unused-import check: its export table,
`_EXPORTS`, is the package's public surface, each name imported on first
access.
"""

import ast
import importlib
import pathlib
import re
import sys
from collections import Counter

import pytest

from cyclocover.errors import InternalCheckError, PreconditionError

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cyclocover"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_guard_sees_unused_names():
    src = "import os\nfrom math import gcd, lcm\nfrom . import x as y\nlcm(1, 2)\n"
    assert unused_imports(src) == [(1, "os"), (2, "gcd"), (3, "y")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == [], path.name


def private_imports(source):
    """Sorted (line, name) of each `_`-prefixed name, dunders aside, that
    `source` imports from a library module: by a relative import or from
    the package by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "cyclocover"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")
                      and not alias.name.endswith("__")]
    return sorted(found)


def test_guard_sees_private_imports():
    src = ("from .rings import _strip, pub\n"
           "from cyclocover.matrices import _cleared as c\n"
           "from . import __version__, _private\n"
           "from typing import _Alias\n"
           "from cyclocoverage import _other\n")
    assert private_imports(src) == [(1, "_strip"), (2, "_cleared"), (3, "_private")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == [], path.name


def _references(node):
    """How often each name is read or written below `node`, as an
    ast.Name or as the attribute of an ast.Attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _private_definitions(tree):
    """(name, node) for each module-level function, class or constant and
    each method of a module-level class whose name starts with `_` and
    is not a dunder."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(name, node) for name, node in found
            if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__"))]


def dead_private_names(sources):
    """Sorted private names (see `_private_definitions`) of the modules in
    `sources` that no module references outside the name's own
    definition."""
    trees = [ast.parse(src) for src in sources]
    total = sum((_references(tree) for tree in trees), Counter())
    return sorted(name for tree in trees
                  for name, node in _private_definitions(tree)
                  if total[name] == _references(node)[name])


def test_guard_sees_dead_private_names():
    lib = (
        "_LIMIT = 3\n"
        "_UNUSED: int = 4\n"
        "def _helper(n):\n    return n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Gone:\n    pass\n"
        "class Pub:\n"
        "    def _used(self):\n        return self._other()\n"
        "    def _other(self):\n        return _LIMIT\n"
        "    def _dead(self):\n        return 0\n"
        "    def __repr__(self):\n        return ''\n"
    )
    user = "from lib import _helper\nPub()._used(_helper(1))\n"
    assert dead_private_names([lib, user]) == [
        "_Gone", "_UNUSED", "_dead", "_recursive"]


def test_no_dead_private_names():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert dead_private_names(sources) == []


def exported_names(source):
    """The keys of the `_EXPORTS` dict literal that the package source
    `source` assigns: the names the package exports."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                == ["_EXPORTS"]):
            return {key.value for key in node.value.keys}
    raise AssertionError("no _EXPORTS table")


def dead_public_names(sources, exports):
    """Sorted names of the module-level functions and classes of the
    modules in `sources` whose names do not start with `_`, that no
    module references outside the name's own definition and that the
    package source `exports` does not export."""
    trees = [ast.parse(src) for src in sources]
    total = sum((_references(tree) for tree in trees), Counter())
    kept = exported_names(exports)
    return sorted(node.name for tree in trees for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and node.name not in kept
                  and total[node.name] == _references(node)[node.name])


def test_guard_sees_dead_public_names():
    lib = (
        "LIMIT = 3\n"
        "def used(n):\n    return n\n"
        "def unused(n):\n    return n\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def exported():\n    pass\n"
        "class Gone:\n    def method(self):\n        pass\n"
        "class Raised(Exception):\n    pass\n"
        "def _private():\n    return used(1)\n"
    )
    user = "import lib\nlib.used(2)\nraise Raised()\n"
    exports = "_EXPORTS = {\"exported\": \"lib\"}\n"
    assert dead_public_names([lib, user], exports) == [
        "Gone", "recursive", "unused"]


def test_no_dead_public_names():
    assert dead_public_names([p.read_text() for p in MODULES],
                             (SRC / "__init__.py").read_text()) == []


def dead_public_methods(sources, readme):
    """Sorted `Class.method` for each method or property of a module-level
    class of the modules in `sources` whose name does not start with `_`,
    that no module references outside the method's own definition and
    outside the other dead methods, and that the text `readme` does not
    name as `Class.method`.  Liveness is transitive: a method read only by
    dead methods is dead too, found by iterating to a fixpoint.  Names are
    bare, so a method that shares its name with a live method of another
    class (`LaurentPoly.one` and `Poly.one`) counts as live."""
    trees = [ast.parse(src) for src in sources]
    total = sum((_references(tree) for tree in trees), Counter())
    methods = [(f"{cls.name}.{item.name}", item, _references(item))
               for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef)
               for item in cls.body
               if isinstance(item, ast.FunctionDef)
               and not item.name.startswith("_")
               and not re.search(rf"\b{cls.name}\.{item.name}\b", readme)]
    dead = set()
    while True:
        in_dead = sum((refs for key, _, refs in methods if key in dead), Counter())
        found = {key for key, item, refs in methods
                 if total[item.name] - in_dead[item.name]
                 - (0 if key in dead else refs[item.name]) == 0}
        if found == dead:
            return sorted(dead)
        dead = found


def test_guard_sees_dead_public_methods():
    lib = (
        "class Pub:\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 0\n"
        "    def dead(self):\n        return self.read_by_dead()\n"
        "    def read_by_dead(self):\n        return self.chained()\n"
        "    def chained(self):\n        return 0\n"
        "    @property\n    def dead_prop(self):\n        return 1\n"
        "    @classmethod\n    def documented(cls):\n        return cls()\n"
        "    @classmethod\n    def doc(cls):\n        return cls()\n"
        "    def recursive(self):\n        return self.recursive()\n"
        "    def __repr__(self):\n        return ''\n"
        "    def _private(self):\n        return 0\n"
        "class _Hidden:\n    def gone(self):\n        pass\n"
    )
    user = "from lib import Pub\nPub().used()\n"
    readme = "Build one with `Pub.documented()`.\n"
    assert dead_public_methods([lib, user], readme) == [
        "Pub.chained", "Pub.dead", "Pub.dead_prop", "Pub.doc", "Pub.read_by_dead",
        "Pub.recursive", "_Hidden.gone"]


def test_no_dead_public_methods():
    assert dead_public_methods([p.read_text() for p in MODULES],
                               (ROOT / "README.md").read_text()) == []


def dead_class_attributes(sources):
    """Sorted `Class.name` for each name whose name does not start with `_`
    that a plain or annotated assignment in the body of a module-level
    class of the modules in `sources` defines (a class constant or a
    dataclass field), and that no module reads outside that assignment.
    Names are bare, as for methods, so a read of the same name anywhere
    counts."""
    trees = [ast.parse(src) for src in sources]
    total = sum((_references(tree) for tree in trees), Counter())
    return sorted(f"{cls.name}.{target.id}"
                  for tree in trees for cls in tree.body
                  if isinstance(cls, ast.ClassDef)
                  for item in cls.body
                  if isinstance(item, (ast.Assign, ast.AnnAssign))
                  for target in (item.targets if isinstance(item, ast.Assign)
                                 else [item.target])
                  if isinstance(target, ast.Name)
                  and not target.id.startswith("_")
                  and total[target.id] == _references(item)[target.id])


def test_guard_sees_dead_class_attributes():
    lib = (
        "from dataclasses import dataclass\n"
        "class Ring:\n"
        "    name = 'R'\n"
        "    name_prefix = 'GF'\n"
        "    a = b = 1\n"
        "    _cache = {}\n"
        "    __slots__ = ()\n"
        "    def label(self):\n        return self.name\n"
        "@dataclass\n"
        "class Report:\n"
        "    value: int\n"
        "    note: str = ''\n"
    )
    user = "from lib import Report, Ring\nRing.a\nReport(1).value\n"
    assert dead_class_attributes([lib, user]) == [
        "Report.note", "Ring.b", "Ring.name_prefix"]


def test_no_dead_class_attributes():
    assert dead_class_attributes([p.read_text() for p in MODULES]) == []


def foreign_imports(source):
    """Sorted (line, module) of each import in `source` that is neither
    relative, nor of the package itself, nor in the standard library."""
    allowed = sys.stdlib_module_names | {"cyclocover"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in allowed]
    return sorted(found)


def test_guard_sees_foreign_imports():
    src = ("import os, numpy\n"
           "from . import rings\n"
           "from .matrices import mat_mul\n"
           "from cyclocover.rings import ZZ\n"
           "from scipy.linalg import det\n"
           "import xml.etree.ElementTree\n"
           "import cyclocoverage\n")
    assert foreign_imports(src) == [(1, "numpy"), (5, "scipy.linalg"),
                                    (7, "cyclocoverage")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_imports(path):
    # pyproject.toml declares `dependencies = []`
    assert foreign_imports(path.read_text()) == [], path.name


def stray_exception_classes(classes):
    """Sorted names of the exception classes among `classes` that derive
    from neither PreconditionError nor InternalCheckError.  A refused
    input must raise the one and a failed cross-check the other, so the
    CLI tells bad input (exit 2) from an internal fault (exit 3) by type."""
    return sorted(c.__name__ for c in classes
                  if issubclass(c, BaseException)
                  and not issubclass(c, (PreconditionError, InternalCheckError)))


def test_guard_sees_stray_exception_classes():
    class Mixed(ValueError):
        pass

    class Refusal(PreconditionError):
        pass

    class Check(InternalCheckError):
        pass

    class Plain:
        pass

    assert stray_exception_classes(
        [Mixed, Refusal, Check, Plain, PreconditionError, KeyError]) == [
        "KeyError", "Mixed"]


def test_every_exception_class_is_a_refusal_or_a_check():
    classes = []
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module(f"cyclocover.{path.stem}")
        classes += [obj for obj in vars(mod).values()
                    if isinstance(obj, type) and obj.__module__ == mod.__name__]
    assert stray_exception_classes(classes) == []
