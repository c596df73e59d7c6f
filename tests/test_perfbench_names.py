"""The library names that the benchmark's tracer wraps still exist.

The tracer replaces functions by module attribute, so a renamed or deleted
function breaks the benchmark only when it runs.  Its table is read here as
source text, without importing ``perfbench``.
"""

import ast
import importlib
import pathlib

from unknotforge import generate as gn
from unknotforge import planemap as pm

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_table(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {TRACER}")


def test_every_traced_function_exists():
    table = _tracer_table("TRACED")
    assert table
    for _, module, funcs in table:
        mod = importlib.import_module(f"unknotforge.{module}")
        for name in funcs:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_generation_result_keeps_the_context_the_tracer_reads():
    assert isinstance(gn.GenerationResult.__dict__.get("context"), property)


def test_replay_kinds_name_every_generation_method():
    # the tracer names each replay span by its result's method, so a method
    # missing from REPLAY_KINDS is a KeyError in a traced run
    fig8 = pm.standard_figure8()
    methods = [gn.generate_unknots(pm.cn(5)).method,
               gn.generate_unknots(pm.cn(9)).method,
               gn.generate_unknots(fig8, method="digons").method,
               gn.generate_unknots(fig8, method="descending").method]
    assert methods == ["cycles", "digons-odd", "digons-even", "descending"]
    assert set(methods) <= set(_tracer_table("REPLAY_KINDS"))
