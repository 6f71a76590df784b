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
