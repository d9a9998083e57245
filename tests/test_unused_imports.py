"""No module of the package, test or demo imports a name it never uses.

No linter is part of the toolchain, so this walks each file's syntax tree:
every name an import binds must appear as a name somewhere else in the
file.  The package's ``__init__.py`` re-exports what it imports and is
exempt.
"""

import ast
from pathlib import Path

import pytest

import hyperconc

ROOT = Path(__file__).parent.parent
MODULES = sorted(
    path for path in Path(hyperconc.__file__).parent.glob("*.py") if path.name != "__init__.py"
) + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "import math\nfrom os import path, sep\n\nprint(path)\n"
    assert unused_imports(source) == ["math", "sep"]
