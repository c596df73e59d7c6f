"""Core representation: validation, walks, queries, builders, surgery."""

import itertools

import pytest

from unknotforge import planemap as pm
from unknotforge.errors import (
    MissingOuterFace,
    NonOuterEdge,
    NotAKnotShadow,
    NotInvolution,
    PreconditionViolated,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_force_cut_vertices(shadow):
    """All 1-separation cut-vertices by scanning edge bipartitions."""
    edges = shadow.edges()
    cuts = set()
    for mask in range(1, 1 << (len(edges) - 1)):
        h_edges = [e for i, e in enumerate(edges) if (mask >> i) & 1]
        k_edges = [e for i, e in enumerate(edges) if not (mask >> i) & 1]
        if not h_edges or not k_edges:
            continue
        vh = {pm.vertex_of(d) for e in h_edges for d in (e, shadow.twin[e])}
        vk = {pm.vertex_of(d) for e in k_edges for d in (e, shadow.twin[e])}
        both = vh & vk
        if len(both) == 1:
            cuts.add(both.pop())
    return cuts


def floyd_warshall_depth(shadow):
    """Depth recomputed with all-pairs distances on the dual graph."""
    fs = pm.faces(shadow)
    if not fs:
        return 1 if shadow.free_loops else 0
    k = len(fs)
    inf = 10 ** 9
    dist = [[0 if i == j else inf for j in range(k)] for i in range(k)]
    face_of = {}
    for i, f in enumerate(fs):
        for d in f:
            face_of[d] = i
    for d in shadow.darts():
        i, j = face_of[d], face_of[shadow.twin[d]]
        if i != j:
            dist[i][j] = dist[j][i] = 1
    for mid in range(k):
        for i in range(k):
            for j in range(k):
                alt = dist[i][mid] + dist[mid][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return max(dist[shadow.outer_face])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_trivial_shadow_is_a_knot_shadow():
    s = pm.trivial()
    assert s.n == 0 and s.free_loops == 1
    assert pm.component_report(s).is_knot_shadow


def test_one_vertex_shadow_has_two_orbits():
    s = pm.one_vertex()
    assert len(pm.sigma_orbits(s)) == 2
    assert pm.component_report(s).kind == "knot"


def test_two_circles_rejected_in_knot_mode():
    pairs = [(0, 6), (2, 4), (1, 5), (3, 7)]
    link = pm.build_shadow(pairs)
    assert pm.component_report(link).kind == "link"
    with pytest.raises(NotAKnotShadow):
        pm.build_shadow(pairs, require_knot=True)


def test_build_rejects_self_paired_dart():
    with pytest.raises(NotInvolution):
        pm.build_shadow([(0, 0), (1, 2), (3, 3)])


def test_build_rejects_incomplete_cover():
    with pytest.raises(NotInvolution):
        pm.build_shadow([(0, 1)])


def test_build_rejects_a_dart_left_out():
    with pytest.raises(NotInvolution, match="out of range"):
        pm.build_shadow([(0, 1), (2, 7), (4, 5)])


def test_corpus_structure(corpus_shadow):
    s = corpus_shadow
    report = pm.validate_shadow(s)
    assert report.is_knot_shadow
    if s.n:
        assert len(pm.sigma_orbits(s)) == 2
        assert len(pm.faces(s)) == s.n + 2
        assert len(s.edges()) == 2 * s.n


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def test_trivial_walk_empty():
    assert len(pm.straight_walk(pm.trivial())) == 0


def test_one_vertex_walk():
    w = pm.straight_walk(pm.one_vertex(), 0)
    assert len(w) == 2
    assert w.vertices() == (0, 0)


def test_trefoil_walk_visits_each_vertex_twice():
    w = pm.eulerian_walk(pm.standard_trefoil())
    assert len(w) == 6
    assert sorted(w.vertices()) == [0, 0, 1, 1, 2, 2]


def test_decompose_covers_edges_disjointly(corpus_shadow):
    s = corpus_shadow
    if s.n == 0:
        return
    for v in range(s.n):
        w1, w2 = pm.decompose_at_vertex(s, v)
        assert w1.start_vertex == w2.start_vertex == v
        e1 = {s.edge_id(d) for d in w1.darts}
        e2 = {s.edge_id(d) for d in w2.darts}
        assert not e1 & e2
        assert len(w1.darts) + len(w2.darts) == 2 * s.n
        assert e1 | e2 == set(s.edges())


def test_chorizo_end_vertex_walk_is_the_loop():
    s = pm.chorizo(4)
    w1, w2 = pm.decompose_at_vertex(s, 0)
    assert min(len(w1), len(w2)) == 1


def test_decompose_rejects_a_link_crossing():
    # every crossing of the doubled 4-ring is one of its two curves over the
    # other, so the walk from it comes back only by the dart it left by
    from conftest import doubled_ring_link
    link = doubled_ring_link(4)
    assert len(pm.walks_at(link.twin, 0)) == 1
    with pytest.raises(NotAKnotShadow):
        pm.decompose_at_vertex(link, 0)


# ---------------------------------------------------------------------------
# cut vertices
# ---------------------------------------------------------------------------

def test_chorizo_vertices_all_cut():
    s = pm.chorizo(4)
    assert all(pm.is_cut_vertex(s, v) for v in range(4))


def test_trefoil_vertices_not_cut():
    s = pm.standard_trefoil()
    assert not any(pm.is_cut_vertex(s, v) for v in range(3))


def test_one_vertex_is_cut():
    assert pm.is_cut_vertex(pm.one_vertex(), 0)


def test_cut_vertices_match_brute_force(corpus):
    for name, s in corpus:
        if not 1 <= s.n <= 7:
            continue
        expect = brute_force_cut_vertices(s)
        got = {v for v in range(s.n) if pm.is_cut_vertex(s, v)}
        assert got == expect, name


# ---------------------------------------------------------------------------
# faces and depth
# ---------------------------------------------------------------------------

def test_depth_of_trivial_shadow():
    assert pm.depth(pm.trivial()) == 1


def test_depth_of_chorizo_is_one():
    assert pm.depth(pm.chorizo(4)) == 1


def test_depth_matches_all_pairs_oracle(corpus):
    for name, s in corpus:
        if s.n == 0:
            continue
        assert pm.depth(s) == floyd_warshall_depth(s), name


def test_validate_rejects_an_outer_face_out_of_range():
    s = pm.cn(3)
    assert pm.validate_shadow(s.with_outer(len(pm.faces(s)) - 1)).is_knot_shadow
    for outer in (len(pm.faces(s)), 99, -1):
        with pytest.raises(MissingOuterFace):
            pm.validate_shadow(s.with_outer(outer))
    with pytest.raises(MissingOuterFace):
        pm.build_shadow([(0, 1), (2, 3)], outer_face=3)


def test_depth_requires_outer_face():
    bad = pm.Shadow(pm.chorizo(4).n, pm.chorizo(4).twin, 0, None)
    with pytest.raises(MissingOuterFace):
        pm.depth(bad)


def test_depth_invariant_under_vertex_relabeling():
    s = pm.cn(7)
    k = s.n
    perm = [(v + 3) % k for v in range(k)]
    twin = [0] * (4 * k)
    for d in range(4 * k):
        nd = 4 * perm[pm.vertex_of(d)] + pm.slot_of(d)
        t = s.twin[d]
        twin[nd] = 4 * perm[pm.vertex_of(t)] + pm.slot_of(t)
    relabeled = pm.Shadow(k, tuple(twin), 0, 0)
    pm.validate_shadow(relabeled)
    outer_darts = {4 * perm[pm.vertex_of(d)] + pm.slot_of(d)
                   for d in pm.faces(s)[s.outer_face]}
    out_id = next(i for i, f in enumerate(pm.faces(relabeled))
                  if set(f) == outer_darts)
    assert pm.depth(relabeled.with_outer(out_id)) == pm.depth(s)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_chorizo_counts():
    s = pm.chorizo(4)
    assert s.n == 4 and len(s.edges()) == 8


def test_cn3_is_two_connected():
    s = pm.cn(3)
    assert s.n == 3 and len(s.edges()) == 6
    assert not any(pm.is_cut_vertex(s, v) for v in range(3))


def test_cn_rejects_even_and_small():
    for bad in (2, 4, 1, 6):
        with pytest.raises(PreconditionViolated):
            pm.cn(bad)


def test_random_shadow_deterministic_and_valid():
    a = pm.random_shadow(10, 1)
    b = pm.random_shadow(10, 1)
    assert a == b
    assert a.n == 10
    assert pm.component_report(a).kind == "knot"


def test_random_shadow_seeds_differ():
    assert pm.random_shadow(10, 1) != pm.random_shadow(10, 2)


def test_fact_every_shadow_has_two_straight_ahead_cycles(corpus_shadow):
    # the two closed walks at any vertex each contain a cycle, and the
    # walks are edge-disjoint
    from unknotforge import decomp as dc
    s = corpus_shadow
    if s.n == 0:
        return
    w1, w2 = pm.decompose_at_vertex(s, 0)
    c1 = dc.find_straight_ahead_cycle(s, w1)
    c2 = dc.find_straight_ahead_cycle(s, w2)
    assert not (c1.edge_ids(s) & c2.edge_ids(s))


# ---------------------------------------------------------------------------
# surgery moves
# ---------------------------------------------------------------------------

def test_insert_curl_everywhere_preserves_knot():
    s = pm.standard_trefoil()
    for d in s.darts():
        for flip in (False, True):
            out = pm.insert_curl(s, d, flip)
            assert out.n == 4
            assert pm.component_report(out).kind == "knot"


def test_poke_all_face_pairs():
    for s in (pm.standard_trefoil(), pm.standard_figure8(), pm.cn(3)):
        for face in pm.faces(s):
            for a, b in itertools.permutations(face, 2):
                if s.edge_id(a) == s.edge_id(b):
                    continue
                out = pm.poke(s, a, b)
                assert out is not None
                assert out.n == s.n + 2
                assert pm.component_report(out).kind == "knot"


def test_crossing_sum_validates_or_declines():
    s = pm.standard_figure8()
    hits = 0
    for face in pm.faces(s):
        for a, b in itertools.permutations(face, 2):
            if s.edge_id(a) == s.edge_id(b):
                continue
            out = pm.crossing_sum(s, a, b)
            if out is not None:
                hits += 1
                assert out.n == s.n + 1
                assert pm.component_report(out).kind == "knot"
    assert hits > 0


# ---------------------------------------------------------------------------
# connected sum
# ---------------------------------------------------------------------------

def test_connected_sum_with_trivial_is_identity():
    s = pm.standard_trefoil()
    assert pm.connected_sum(pm.trivial(), s) == s
    assert pm.connected_sum(s, pm.trivial()) == s


def test_connected_sum_of_trefoils():
    s = pm.standard_trefoil()
    out = pm.connected_sum(s, s)
    assert out.n == 6
    assert pm.component_report(out).kind == "knot"


def test_connected_sum_rejects_inner_edge():
    s = pm.standard_figure8()
    inner = next(e for e in s.edges() if e not in pm.outer_edges(s))
    with pytest.raises(NonOuterEdge):
        pm.connected_sum(s, s, edge_s=inner)


def test_connected_sum_preserves_all_cut():
    a, b = pm.chorizo(3), pm.chorizo(2)
    out = pm.connected_sum(a, b)
    assert pm.all_cut_vertices(out)
    c = pm.connected_sum(pm.standard_trefoil(), pm.chorizo(2))
    assert not pm.all_cut_vertices(c)


# ---------------------------------------------------------------------------
# plane map equality
# ---------------------------------------------------------------------------

def test_plane_map_equal_mod_rotation():
    s = pm.standard_trefoil()
    perm = {8 + i: 8 + ((i + 1) & 3) for i in range(4)}
    twin = [0] * 12
    for d in range(12):
        twin[perm.get(d, d)] = perm.get(s.twin[d], s.twin[d])
    rotated = pm.Shadow(3, tuple(twin), 0, 0)
    pm.validate_shadow(rotated)
    assert pm.plane_map_equal(s, rotated)
    assert not pm.plane_map_equal(s, pm.chorizo(3))
    # the doubled triangle is the trefoil shadow in another labelling
    assert pm.plane_map_equal(s, pm.cn(3))


# ---------------------------------------------------------------------------
# strand splicing
# ---------------------------------------------------------------------------

def test_splice_rejoins_strands_in_place():
    twin = list(pm.cn(3).twin)
    paths, loops = pm.splice(twin, {d: d ^ 2 for d in range(4)})
    assert loops == [] and twin[:4] == [-1] * 4
    assert paths == {6: (6, 3, 1, 8), 5: (5, 0, 2, 11)}
    assert (twin[8], twin[6], twin[11], twin[5]) == (6, 8, 5, 11)
    # the curl's only crossing leaves one closed curve behind
    twin = list(pm.one_vertex().twin)
    assert pm.splice(twin, {d: d ^ 2 for d in range(4)}) == ({}, [(0, 1, 3, 2)])
    assert twin == [-1] * 4


def test_excise_rejects_unrouted_darts_and_routes_onto_deleted_edges():
    s = pm.cn(3)
    with pytest.raises(PreconditionViolated, match="neither routed nor deleted"):
        pm.excise(s, {0: 2, 2: 0})
    # deleting an edge removes both its ends, which then need routes
    with pytest.raises(PreconditionViolated, match="neither routed nor deleted"):
        pm.excise(s, {}, frozenset({0}))
    straight = {d: d ^ 2 for d in range(8)}
    with pytest.raises(PreconditionViolated, match="onto a deleted edge"):
        pm.excise(s, straight, frozenset({0}))
