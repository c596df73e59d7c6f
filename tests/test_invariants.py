"""Bracket, writhe, normalized polynomial, simplify, classify, census."""

import random

import pytest

from unknotforge import invariants as iv
from unknotforge import planemap as pm
from unknotforge.errors import LimitExceeded, PreconditionViolated
from unknotforge.invariants import LaurentPoly


# ---------------------------------------------------------------------------
# independent state-sum oracle (union-find loop counting)
# ---------------------------------------------------------------------------

def oracle_bracket(diagram):
    """Brute-force bracket with an unrelated loop counter."""
    shadow = diagram.shadow
    n = shadow.n
    acc = {}
    for state in range(1 << n):
        parent = list(range(4 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        a = 0
        for v in range(n):
            a_smooth = (state >> v) & 1
            a += a_smooth
            if (a_smooth == 1) != (diagram.bits[v] == 0):
                pairs = ((0, 3), (1, 2))
            else:
                pairs = ((0, 1), (2, 3))
            for s1, s2 in pairs:
                union(4 * v + s1, 4 * v + s2)
        for d in range(4 * n):
            union(d, shadow.twin[d])
        loops = len({find(d) for d in range(4 * n)}) + shadow.free_loops
        if n == 0:
            loops = shadow.free_loops
        expo = 2 * a - n
        for e, c in (iv.DELTA ** (loops - 1)).terms:
            acc[e + expo] = acc.get(e + expo, 0) + c
    return LaurentPoly(acc)


A = LaurentPoly.monomial
BIG = 41            # a bracket limit that admits every large-n diagram here


def test_trivial_bracket_is_one():
    assert iv.kauffman_bracket(iv.trivial_diagram()) == 1


def test_one_vertex_brackets():
    s = pm.one_vertex()
    assert iv.kauffman_bracket(iv.Diagram(s, (0,))) == A(3, -1)
    assert iv.kauffman_bracket(iv.Diagram(s, (1,))) == A(-3, -1)


def _doubled_ring_link(n):
    """The doubled ring with an even number of crossings: two components."""
    pairs = []
    for i in range(n):
        j = (i + 1) % n
        pairs.append((pm.dart_at(i, 0), pm.dart_at(j, 1)))
        pairs.append((pm.dart_at(i, 3), pm.dart_at(j, 2)))
    return pm.build_shadow(pairs)


def test_bracket_matches_oracle_on_corpus(corpus):
    rng = random.Random(5)
    shadows = list(corpus)
    shadows += [(f"random_shadow({n}, {n})", pm.random_shadow(n, n))
                for n in range(3, 13)]
    shadows += [(f"ring_link{n}", _doubled_ring_link(n)) for n in (2, 6)]
    figure8 = pm.standard_figure8()
    shadows += [("figure8+2 free", pm.Shadow(figure8.n, figure8.twin, 2)),
                ("2 free", pm.Shadow(0, (), 2))]
    for name, s in shadows:
        assert s.n <= 12
        for _ in range(3):
            d = iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
            assert iv.kauffman_bracket(d) == oracle_bracket(d), name


def test_empty_diagram_bracket_is_undefined():
    with pytest.raises(PreconditionViolated):
        iv.kauffman_bracket(iv.Diagram(pm.Shadow(0, (), 0, 0), ()))


def test_trefoil_polynomials_match_tabulated_values():
    alt = iv.alternating_diagram(pm.standard_trefoil())
    if iv.writhe(alt) < 0:
        alt = iv.mirror(alt)
    assert iv.writhe(alt) == 3
    # positive trefoil: f(A) = -A^-16 + A^-12 + A^-4
    assert iv.normalized_poly(alt) == LaurentPoly({-16: -1, -12: 1, -4: 1})


def test_figure8_polynomial_matches_tabulated_value():
    f = iv.normalized_poly(iv.alternating_diagram(pm.standard_figure8()))
    assert f == LaurentPoly({-8: 1, -4: -1, 0: 1, 4: -1, 8: 1})
    assert f == f.invert_variable()


def test_writhe_of_curls():
    s = pm.one_vertex()
    assert abs(iv.writhe(iv.Diagram(s, (0,)))) == 1
    assert iv.writhe(iv.Diagram(s, (0,))) == -iv.writhe(iv.Diagram(s, (1,)))
    assert iv.writhe(iv.trivial_diagram()) == 0


def test_alternating_trefoil_writhe_is_three():
    assert abs(iv.writhe(iv.alternating_diagram(pm.standard_trefoil()))) == 3


def test_bracket_limit():
    s = pm.random_shadow(6, 3)
    with pytest.raises(LimitExceeded):
        iv.kauffman_bracket(iv.Diagram(s, (0,) * 6), limit=5)


# ---------------------------------------------------------------------------
# normalized polynomial invariance
# ---------------------------------------------------------------------------

def test_chorizo_diagrams_normalize_to_one():
    s = pm.chorizo(4)
    for d in iv.assignments(s):
        assert iv.normalized_poly(d) == 1


def test_normalized_invariant_under_random_moves(corpus):
    rng = random.Random(11)
    pool = [s for _, s in corpus if 1 <= s.n <= 7]
    for trial in range(100):
        s = pool[trial % len(pool)]
        d = iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
        f = iv.normalized_poly(d)
        d2 = iv.insert_curl_diagram(d, rng.randrange(4 * s.n),
                                    rng.random() < 0.5, rng.randrange(2))
        assert iv.normalized_poly(d2) == f
        reduced, _ = iv.simplify(d2)
        if reduced.n:
            assert iv.normalized_poly(reduced) == f
        face = rng.choice(pm.faces(s))
        cands = [(a, b) for a in face for b in face
                 if s.edge_id(a) != s.edge_id(b)]
        if cands:
            a, b = cands[rng.randrange(len(cands))]
            d3 = iv.insert_poke_diagram(d, a, b, rng.random() < 0.5)
            if d3 is not None:
                assert iv.normalized_poly(d3) == f


def test_mirror_inverts_the_variable(corpus):
    rng = random.Random(13)
    for name, s in corpus:
        if s.n > 7:
            continue
        d = iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
        assert iv.normalized_poly(iv.mirror(d)) == \
            iv.normalized_poly(d).invert_variable(), name


def _large_diagrams():
    """Diagrams of 18-39 crossings, beyond the reach of a 2^n state sum."""
    rng = random.Random(19)
    shadows = [pm.random_shadow(n, n) for n in (18, 24, 31, 39)]
    shadows += [pm.cn(21), pm.cn(39)]
    return [iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
            for s in shadows]


def test_mirror_inverts_the_bracket_at_large_n():
    for d in _large_diagrams():
        assert iv.kauffman_bracket(iv.mirror(d), limit=BIG) == \
            iv.kauffman_bracket(d, limit=BIG).invert_variable(), d.n


def test_normalized_invariant_under_insertions_at_large_n():
    rng = random.Random(23)
    for d in _large_diagrams():
        s = d.shadow
        f = iv.normalized_poly(d, limit=BIG)
        d2 = iv.insert_curl_diagram(d, rng.randrange(4 * s.n),
                                    rng.random() < 0.5, rng.randrange(2))
        assert iv.normalized_poly(d2, limit=BIG) == f, d.n
        pokes = [(a, b) for face in pm.faces(s) for a in face for b in face
                 if s.edge_id(a) != s.edge_id(b)]
        d3 = None
        while d3 is None:
            a, b = pokes.pop(rng.randrange(len(pokes)))
            d3 = iv.insert_poke_diagram(d, a, b, rng.random() < 0.5)
        assert d3.n == d.n + 2
        assert iv.normalized_poly(d3, limit=BIG) == f, d.n


# ---------------------------------------------------------------------------
# simplify
# ---------------------------------------------------------------------------

def test_simplify_one_vertex_by_r1():
    out, moves = iv.simplify(iv.Diagram(pm.one_vertex(), (0,)))
    assert out.n == 0 and out.shadow.free_loops == 1
    assert moves == [("r1", 0)]


def test_simplify_reduced_alternating_trefoil_is_stuck():
    alt = iv.alternating_diagram(pm.standard_trefoil())
    out, moves = iv.simplify(alt)
    assert out.n == 3 and moves == []


def test_simplify_never_increases_crossings_and_preserves_class(corpus):
    rng = random.Random(17)
    for name, s in corpus:
        if s.n > 7:
            continue
        d = iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
        out, _ = iv.simplify(d)
        assert out.n <= d.n, name
        if d.n:
            assert iv.normalized_poly(out) == iv.normalized_poly(d), name


def test_rii_removable_pairs_on_doubled_ring():
    s = pm.cn(3)
    alt = iv.alternating_diagram(s)
    assert iv.rii_removable_pairs(alt) == []
    non_alt = iv.Diagram(s, tuple(b ^ (1 if i == 0 else 0)
                                  for i, b in enumerate(alt.bits)))
    assert not iv.is_alternating(non_alt)
    pairs = iv.rii_removable_pairs(non_alt)
    assert pairs
    child, _ = iv.apply_rii_at(non_alt, *pairs[0])
    assert child.n == 1


def test_riii_slide_preserves_polynomial():
    # slides need a triangle face with non-degenerate surroundings, so the
    # 3- and 4-crossing shadows admit none; larger random shadows do
    rng = random.Random(0)
    hits = 0
    for seed in range(40):
        s = pm.random_shadow(5 + seed % 6, seed)
        d = iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
        for slid in iv.riii_moves(d):
            hits += 1
            assert iv.normalized_poly(slid) == iv.normalized_poly(d)
            assert pm.component_report(slid.shadow).kind == "knot"
            assert slid.shadow != d.shadow
    assert hits > 0
    alt = iv.alternating_diagram(pm.standard_trefoil())
    assert iv.riii_moves(alt) == []


# ---------------------------------------------------------------------------
# classify and census
# ---------------------------------------------------------------------------

def test_classify_one_vertex_diagrams():
    s = pm.one_vertex()
    assert iv.classify(iv.Diagram(s, (0,))) == iv.UNKNOT
    assert iv.classify(iv.Diagram(s, (1,))) == iv.UNKNOT


def test_classify_rejects_diagrams_that_are_no_knot():
    empty = iv.Diagram(pm.Shadow(0, (), 0, 0), ())
    unlink = iv.Diagram(pm.Shadow(0, (), 2, 0), ())
    for d in (empty, unlink):
        with pytest.raises(PreconditionViolated):
            iv.classify(d)


def test_classify_trefoils_and_mirror_swap():
    alt = iv.alternating_diagram(pm.standard_trefoil())
    a, b = iv.classify(alt), iv.classify(iv.mirror(alt))
    assert {a.kind, b.kind} == {"trefoil_left", "trefoil_right"}


def test_classify_figure8():
    assert iv.classify(
        iv.alternating_diagram(pm.standard_figure8())).kind == "figure_eight"


def test_census_figure8():
    named = {c.name: k for c, k in iv.census(pm.standard_figure8()).items()}
    assert named == {"unknot": 12, "trefoil_left": 1, "trefoil_right": 1,
                     "figure_eight": 2}


def test_census_chorizo4():
    named = {c.name: k for c, k in iv.census(pm.chorizo(4)).items()}
    assert named == {"unknot": 16}


def test_census_cn3():
    named = {c.name: k for c, k in iv.census(pm.cn(3)).items()}
    assert named == {"unknot": 6, "trefoil_left": 1, "trefoil_right": 1}


def test_census_counts_sum(corpus_shadow):
    s = corpus_shadow
    if s.n > 7:
        return
    census = iv.census(s)
    assert sum(census.values()) == 1 << s.n


def test_census_threaded_matches_sequential():
    s = pm.standard_figure8()
    seq = iv.census(s, threads=1)
    par = iv.census(pm.connected_sum(s, s), threads=2)
    seq2 = iv.census(pm.connected_sum(s, s), threads=1)
    assert par == seq2
    assert iv.unknot_count(seq) == 12


def test_census_limit():
    with pytest.raises(LimitExceeded):
        iv.census(pm.random_shadow(6, 1), limit=4)


def test_classify_mirror_swaps_census(corpus):
    for name, s in corpus:
        if not 1 <= s.n <= 6:
            continue
        for d in iv.assignments(s):
            a = iv.classify(d)
            b = iv.classify(iv.mirror(d))
            swap = {"trefoil_left": "trefoil_right",
                    "trefoil_right": "trefoil_left"}
            assert b.kind == swap.get(a.kind, a.kind) or a.kind == "other", name
