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


TOWER_BUILDERS = {
    "f2_towers", "more_towers", "finite_normal_ext_towers", "extension_towers",
    "union_towers", "towers_from_filling",
}


def test_no_tower_builder_touches_the_checker_memo():
    # the tower check keeps no memo: towers.py defines no translate memo,
    # every builder is there, and no module holds a memo across calls in a
    # context var
    path = Path(paratower.__file__).parent / "towers.py"
    tree = ast.parse(path.read_text(), str(path))
    named = {
        getattr(node, key)
        for node in ast.walk(tree)
        for key in ("name", "id", "attr")
        if isinstance(getattr(node, key, None), str)
    }
    assert TOWER_BUILDERS <= named
    assert "_Translates" not in named
    modules = sorted(Path(paratower.__file__).parent.rglob("*.py"))
    imported = [
        path.name
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name == "contextvars" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "contextvars"
    ]
    assert imported == []


def test_the_benchmark_tracer_finds_every_function_it_wraps():
    # the benchmark's per-layer trace wraps package functions by name, so a
    # renamed or deleted one fails here, not first in a traced benchmark run
    import os
    import sys

    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import run
        import spans
    finally:
        sys.path.remove(bench)
    from paratower import subsets

    before = subsets.translate
    tracer = spans.Tracer()
    try:
        run.trace_paratower(tracer)
        assert subsets.translate is not before
    finally:
        tracer.remove()
    assert subsets.translate is before
