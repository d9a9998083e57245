"""Every private helper of the package has a caller in the package.

A ``_``-prefixed module-level function or class, or a ``_``-prefixed
method, is internal: when no code of ``src/hyperconc`` names it any more,
it is dead, whatever tests still call it.  This walks the package's syntax
trees and checks that each such definition is referenced, as a name or an
attribute, somewhere in the package.  Dunder methods are called by Python
itself and are exempt.
"""

import ast
from pathlib import Path

import hyperconc

PACKAGE = sorted(Path(hyperconc.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def helper_definitions(tree: ast.Module) -> list[str]:
    """Private module-level functions and classes, and private methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = [node.name for node in tree.body if isinstance(node, defs)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        found += [node.name for node in cls.body if isinstance(node, defs)]
    return [name for name in found if _private(name)]


def references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced_helpers(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    used = set().union(*(references(tree) for tree in trees))
    return [name for tree in trees for name in helper_definitions(tree) if name not in used]


def test_every_private_helper_is_referenced():
    assert unreferenced_helpers([path.read_text() for path in PACKAGE]) == []


def test_detects_an_unreferenced_helper():
    module = (
        "def _dead():\n    pass\n\n"
        "def _live():\n    pass\n\n"
        "class _Box:\n"
        "    def __init__(self):\n        self._used()\n"
        "    def _used(self):\n        _live()\n"
        "    def _orphan(self):\n        pass\n"
    )
    other = "from m import _Box\n\nbox = _Box()\n"
    assert unreferenced_helpers([module, other]) == ["_dead", "_orphan"]
