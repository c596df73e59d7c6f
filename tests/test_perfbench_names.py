"""The library names that the benchmark's tracer wraps still exist.

The tracer replaces functions by module attribute, so a renamed or deleted
function breaks the benchmark only when it runs.  Its table is read here as
source text, without importing ``perfbench``.
"""

import ast
import importlib
import pathlib

from unknotforge import generate as gn

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_table():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_function_exists():
    table = _traced_table()
    assert table
    for _, module, funcs in table:
        mod = importlib.import_module(f"unknotforge.{module}")
        for name in funcs:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_generation_result_keeps_the_context_the_tracer_reads():
    assert isinstance(gn.GenerationResult.__dict__.get("context"), property)
