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


# written once, in golden._exact_scalar, for both exact scalar classes;
# dtu._Package defines its own __setattr__, so that name is not listed
SHARED_PROTOCOL = {"__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__",
                   "__delattr__", "bounds"}


def test_no_class_body_defines_a_shared_scalar_method():
    found = []
    for path in sorted(Path(dtu.__file__).parent.rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                found += [f"{path.name}:{cls.name}.{name}" for name in names
                          if name in SHARED_PROTOCOL]
    assert found == []
