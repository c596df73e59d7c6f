import importlib.util
import pathlib

import pytest

from unknotforge import planemap as pm


def builder_corpus():
    """Named knot shadows used across the suite."""
    out = [
        ("trivial", pm.trivial()),
        ("one_vertex", pm.one_vertex()),
        ("chorizo2", pm.chorizo(2)),
        ("chorizo4", pm.chorizo(4)),
        ("chorizo7", pm.chorizo(7)),
        ("cn3", pm.cn(3)),
        ("cn5", pm.cn(5)),
        ("cn7", pm.cn(7)),
        ("trefoil", pm.standard_trefoil()),
        ("figure8", pm.standard_figure8()),
    ]
    for i in range(8):
        n = 3 + (3 * i) % 9
        out.append((f"random{n}_{i}", pm.random_shadow(n, 100 + i)))
    return out


CORPUS = builder_corpus()


def load_braid():
    """The benchmark's braid module, ``perfbench/braid.py``, loaded by path."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "braid.py"
    spec = importlib.util.spec_from_file_location("perfbench_braid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def doubled_ring_link(n):
    """The doubled ring with an even number of crossings: two components."""
    pairs = []
    for i in range(n):
        j = (i + 1) % n
        pairs.append((pm.dart_at(i, 0), pm.dart_at(j, 1)))
        pairs.append((pm.dart_at(i, 3), pm.dart_at(j, 2)))
    return pm.build_shadow(pairs)


def plane_map_equal(a, b, bits_a=None, bits_b=None) -> bool:
    """Equality up to a per-vertex rotation of slot labels.

    Slot labels are only defined up to cyclic rotation, so codecs that do
    not transport them (Gauss and PD codes) round-trip modulo this relation.
    Over/under bits flip with odd rotations and are compared accordingly.
    """
    if a.n != b.n or a.free_loops != b.free_loops:
        return False
    if a.n == 0:
        return True
    for r0 in range(4):
        rot = [-1] * a.n
        rot[0] = r0
        stack = [0]
        ok = True
        seen = {0}
        while stack and ok:
            v = stack.pop()
            for s in range(4):
                da = pm.dart_at(v, s)
                db = pm.dart_at(v, (s + rot[v]) & 3)
                ta, tb = a.twin[da], b.twin[db]
                w = pm.vertex_of(ta)
                if pm.vertex_of(tb) != w:
                    ok = False
                    break
                need = (pm.slot_of(tb) - pm.slot_of(ta)) & 3
                if rot[w] < 0:
                    rot[w] = need
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
                elif rot[w] != need:
                    ok = False
                    break
        if ok and all(r >= 0 for r in rot):
            if bits_a is None:
                return True
            if all((bits_a[v] ^ (rot[v] & 1)) == bits_b[v] for v in range(a.n)):
                return True
    return False


@pytest.fixture(params=CORPUS, ids=[name for name, _ in CORPUS])
def corpus_shadow(request):
    return request.param[1]


@pytest.fixture
def corpus():
    return CORPUS
