"""Every cache in the library is bounded.

Pure per-shadow results (bracket plans, writhe signs, residue classes, PD
rows, faces) are cached at the functions that compute them and live for
the whole process, so each cache must stop at a finite size.
"""

import functools
import importlib
import pkgutil

import unknotforge
from unknotforge import invariants as iv
from unknotforge import planemap as pm


def _caches():
    for info in pkgutil.iter_modules(unknotforge.__path__):
        module = importlib.import_module(f"unknotforge.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                yield f"{info.name}.{name}", value


def test_every_cache_has_a_finite_bound_at_most_the_memo_cap():
    caches = dict(_caches())
    assert {"invariants._bracket_plan", "invariants._writhe_signs",
            "invariants._poly_class", "codec._pd_rows", "planemap.faces",
            "generate._bounds_a_face"} <= set(caches)
    for name, fn in caches.items():
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= iv._MEMO_CAP, name


def test_residue_classes_evaluate_through_the_module_attribute(monkeypatch):
    # a tracer wraps ``normalized_poly`` on the module; the class of a new
    # residue is evaluated through that wrapper, and once
    iv.reference_polynomials()
    seen = []
    real = iv.normalized_poly

    def wrapped(diagram, limit=iv.DEFAULT_LIMIT):
        seen.append(diagram)
        return real(diagram, limit)

    monkeypatch.setattr(iv, "normalized_poly", wrapped)
    monkeypatch.setattr(iv, "_poly_class",
                        functools.lru_cache(1)(iv._poly_class.__wrapped__))
    trefoil = iv.alternating_diagram(pm.standard_trefoil())
    for _ in range(2):
        cls = iv.residue_class(trefoil, iv.DEFAULT_LIMIT)
        assert cls.kind.startswith("trefoil")
    assert seen == [trefoil]
