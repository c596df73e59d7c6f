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


def doubled_ring_link(n):
    """The doubled ring with an even number of crossings: two components."""
    pairs = []
    for i in range(n):
        j = (i + 1) % n
        pairs.append((pm.dart_at(i, 0), pm.dart_at(j, 1)))
        pairs.append((pm.dart_at(i, 3), pm.dart_at(j, 2)))
    return pm.build_shadow(pairs)


@pytest.fixture(params=CORPUS, ids=[name for name, _ in CORPUS])
def corpus_shadow(request):
    return request.param[1]


@pytest.fixture
def corpus():
    return CORPUS
