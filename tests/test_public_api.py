"""The package's public surface: the README's entry points, ``__all__``, and
the functions the benchmark traces."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import hyperconc

ROOT = Path(__file__).parent.parent


def entry_points_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_entry_points_are_all():
    namespace: dict = {}
    exec(entry_points_block(), namespace)
    names = set(namespace) - {"__builtins__"}
    assert names == set(hyperconc.__all__)
    for name in names:
        assert namespace[name] is getattr(hyperconc, name)


def test_all_is_what_init_imports():
    tree = ast.parse((ROOT / "src" / "hyperconc" / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(imported) == sorted(hyperconc.__all__)
    assert len(hyperconc.__all__) == len(set(hyperconc.__all__))


def test_benchmark_trace_targets_resolve(monkeypatch):
    """Every function the benchmark's tracer wraps is found through the package.

    The tracer is loaded read-only: no bytecode is written next to it.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, path, _ in tracing.TARGETS:
        assert callable(tracing._resolve(path)), path
