"""Checks on the package's own source."""

import ast
from pathlib import Path

import paratower


def test_no_assert_statements_in_the_package():
    # correctness guards must survive python -O, which strips asserts
    modules = sorted(Path(paratower.__file__).parent.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
