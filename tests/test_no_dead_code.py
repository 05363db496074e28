"""No definition in `src/costshare` that no source code uses.

Parses every module with `ast`.  A module-level function or class must be
named by some other source code (outside its own definition) or listed in a
module's `__all__`; a method that is not a dunder must be read as an
attribute somewhere in the source.  Tests and the benchmark do not count as
users: code that only they call belongs with them.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "costshare"
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


def unused_definitions(modules):
    """'module: name' of each module-level def or class nothing else names."""
    used = sum((_names(tree) for tree in modules.values()), Counter())
    exported = {elt.value for tree in modules.values() for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for elt in node.value.elts}
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


def test_every_src_definition_is_used():
    modules = {path.name: ast.parse(path.read_text(), str(path))
               for path in sorted(SRC.glob("*.py"))}
    assert len(modules) > 5
    assert unused_definitions(modules) == []
    assert unused_methods(modules) == []


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
