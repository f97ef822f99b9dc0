"""The public API: every exported name resolves, none is exported twice, and
every name that the benchmark harness imports from the package exists."""

import ast
import importlib
from pathlib import Path

import castelpoly

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_all_names_resolve():
    missing = [name for name in castelpoly.__all__ if not hasattr(castelpoly, name)]
    assert missing == []


def test_no_name_exported_twice():
    assert len(set(castelpoly.__all__)) == len(castelpoly.__all__)


def test_bench_imports_resolve():
    imports = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("castelpoly")
        for alias in node.names
    ]
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert imports and missing == []
