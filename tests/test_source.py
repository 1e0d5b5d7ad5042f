"""Checks on the library's source text."""

import ast
from pathlib import Path

import dtu


def test_library_has_no_assert_statements():
    # an assert statement is dropped under `python -O`, so every invariant
    # of the library raises AssertionError explicitly
    modules = sorted(Path(dtu.__file__).parent.rglob("*.py"))
    assert len(modules) > 10
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
