"""Every module-level import of the library and of its tests is used.

No linter ships with the toolchain, so this one check of pyflakes' kind is
made here with ``ast``: a name that a module imports at its top level and
never names again is dead code left behind by a deletion.  The benchmark's
own tests under ``perfbench/`` are not checked.
"""

import ast
import pathlib

import unknotforge

SRC = pathlib.Path(unknotforge.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    named = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in named)


def test_no_module_keeps_an_import_it_never_names():
    # the check itself first, on a module with two unused imports
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from .errors import A, B\n\nB(os.path)\n")
    assert _unused_imports(source) == [(3, "system"), (4, "A")]
    modules = sorted(SRC.glob("*.py"))
    tests = sorted(TESTS.glob("*.py"))
    assert len(modules) >= 10 and len(tests) >= 10
    for path in modules + tests:
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name
