"""No definition in `src/costshare` that no source code uses, and no data
that nothing reads.

Parses every module with `ast`.  A module-level function or class must be
named by some other source code (outside its own definition) or listed in a
module's `__all__`; a method that is not a dunder must be read as an
attribute somewhere in the source.  Tests and the benchmark do not count as
users of code: code that only they call belongs with them.

Every dataclass field and `__slots__` entry of a source class that is not a
dunder must be read as an attribute somewhere in the source, the tests or
the benchmark.  Here tests do count as readers, as a fixture's fields hold
the expectations that tests check.  The rules go by name alone: a read of
`x.n` counts for every field named `n`.

Every name a source module imports must be read in that module or listed
in its `__all__` (`from __future__` imports aside).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "costshare"
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Counter of the names and attribute names read anywhere under node."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _exports(tree):
    """The names a module lists in its `__all__`."""
    return {elt.value for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts}


def unused_definitions(modules):
    """'module: name' of each module-level def or class nothing else names."""
    used = sum((_names(tree) for tree in modules.values()), Counter())
    exported = set().union(*map(_exports, modules.values()))
    return [f"{name}: {node.name}"
            for name, tree in modules.items() for node in tree.body
            if isinstance(node, _DEFS) and node.name not in exported
            and used[node.name] == _names(node)[node.name]]


def unused_methods(modules):
    """'module: Class.method' of each non-dunder method no attribute reads."""
    attrs = {sub.attr for tree in modules.values()
             for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
    return [f"{name}: {cls.name}.{node.name}"
            for name, tree in modules.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in attrs]


def unused_imports(modules):
    """'module: name' of each imported name its module neither reads nor
    exports."""
    out = []
    for name, tree in modules.items():
        kept = _exports(tree) | {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            out += [f"{name}: {b}" for b in bound if b not in kept]
    return out


def _fields(cls):
    """A class's dataclass fields and `__slots__` entries, dunders left out."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    dataclass = any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
    for node in cls.body:
        if dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and not elt.value.startswith("__"):
                    yield elt.value


def unused_fields(modules, readers):
    """'module: Class.field' of each field of a class in `modules` that no
    attribute read in `modules` or `readers` (more parsed modules) names."""
    reads = {sub.attr for tree in [*modules.values(), *readers]
             for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    return [f"{name}: {cls.name}.{field}"
            for name, tree in modules.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for field in _fields(cls) if field not in reads]


def _parse(paths):
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def test_every_src_definition_is_used():
    modules = _parse(sorted(SRC.glob("*.py")))
    assert len(modules) > 5
    assert unused_definitions(modules) == []
    assert unused_methods(modules) == []


def test_every_src_import_is_used():
    modules = _parse(sorted(SRC.glob("*.py")))
    assert len(modules) > 5
    assert unused_imports(modules) == []


def test_every_src_field_is_read():
    readers = [ast.parse(path.read_text(), str(path)) for folder in ("tests", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(readers) > 10
    assert unused_fields(_parse(sorted(SRC.glob("*.py"))), readers) == []


@pytest.mark.parametrize("source, definitions, methods", [
    ("def used():\n    pass\n\ndef unused():\n    return used()\n", ["m: unused"], []),
    ("def recursive(n):\n    return recursive(n - 1)\n", ["m: recursive"], []),
    ("__all__ = ['api']\n\ndef api():\n    pass\n", [], []),
    ("class C:\n    def __init__(self):\n        self.read()\n"
     "    def read(self):\n        pass\n    def idle(self):\n        pass\n"
     "__all__ = ['C']\n", [], ["m: C.idle"]),
], ids=["unused", "self-reference", "exported", "method"])
def test_the_rules_on_small_modules(source, definitions, methods):
    modules = {"m": ast.parse(source)}
    assert unused_definitions(modules) == definitions
    assert unused_methods(modules) == methods


@pytest.mark.parametrize("source, imports", [
    ("import heapq\nimport math\n\nx = math.pi\n", ["m: heapq"]),
    ("import numpy as np\nfrom fractions import Fraction as F\n\ndef f():\n"
     "    return np.zeros(1), F(1)\n", []),
    ("import os.path\n\np = os.path.sep\n", []),
    ("from __future__ import annotations\nfrom .x import a, b\n\n__all__ = ['a']\n",
     ["m: b"]),
], ids=["unused", "aliased", "dotted", "exported"])
def test_the_import_rule_on_small_modules(source, imports):
    assert unused_imports({"m": ast.parse(source)}) == imports


_POINT = "from dataclasses import dataclass\n\n@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int\n"


@pytest.mark.parametrize("source, reader, fields", [
    (_POINT + "\ndef norm(p):\n    return p.x\n", "", ["m: P.y"]),
    (_POINT + "\ndef norm(p):\n    return p.x\n", "def test(p):\n    assert p.y\n", []),
    (_POINT + "\ndef move(p):\n    p.x = p.y = 0\n", "", ["m: P.x", "m: P.y"]),
    ("class C:\n    x: int\n", "", []),
    ("class S:\n    __slots__ = ('a', 'b', '__weakref__')\n\n    def __init__(self):\n"
     "        self.a = self.b = 0\n\n    def get(self):\n        return self.a\n",
     "", ["m: S.b"]),
], ids=["dataclass", "read-by-a-test", "written-only", "plain-class", "slots"])
def test_the_field_rule_on_small_modules(source, reader, fields):
    modules = {"m": ast.parse(source)}
    assert unused_fields(modules, [ast.parse(reader)]) == fields
