"""Bracket, writhe, normalized polynomial, simplify, classify, census."""

import functools
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import CORPUS, doubled_ring_link, load_braid
from unknotforge import codec as cd
from unknotforge import digon
from unknotforge import generate as gn
from unknotforge import invariants as iv
from unknotforge import planemap as pm
from unknotforge.errors import (LimitExceeded, NonPlanar, NotAKnotShadow,
                                NotInvolution, PreconditionViolated,
                                ShadowError)
from unknotforge.invariants import LaurentPoly


# ---------------------------------------------------------------------------
# independent state-sum oracle (union-find loop counting)
# ---------------------------------------------------------------------------

def oracle_bracket(diagram):
    """Brute-force bracket with an unrelated loop counter."""
    delta = LaurentPoly({2: -1, -2: -1})          # the loop value
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
        power = LaurentPoly({0: 1})
        for _ in range(loops - 1):
            power = power * delta
        for e, c in power.terms:
            acc[e + expo] = acc.get(e + expo, 0) + c
    return LaurentPoly(acc)


BIG = 41            # a bracket limit that admits every large-n diagram here


def test_trivial_bracket_is_one():
    assert iv.kauffman_bracket(iv.trivial_diagram()) == 1


def test_one_vertex_brackets():
    s = pm.one_vertex()
    assert iv.kauffman_bracket(iv.Diagram(s, (0,))) == LaurentPoly({3: -1})
    assert iv.kauffman_bracket(iv.Diagram(s, (1,))) == LaurentPoly({-3: -1})


def test_bracket_matches_oracle_on_corpus(corpus):
    rng = random.Random(5)
    shadows = list(corpus)
    shadows += [(f"random_shadow({n}, {n})", pm.random_shadow(n, n))
                for n in range(3, 13)]
    shadows += [(f"ring_link{n}", doubled_ring_link(n)) for n in (2, 6)]
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


def walk_writhe(diagram):
    """Writhe from the walk from dart 0, read afresh on every call."""
    shadow = diagram.shadow
    if shadow.n == 0:
        return 0
    walk = pm.eulerian_walk(shadow)
    in_slots = {}
    for k, exit_dart in enumerate(walk.darts):
        in_dart = shadow.twin[walk.darts[k - 1]]
        in_slots.setdefault(pm.vertex_of(exit_dart), []).append(pm.slot_of(in_dart))
    total = 0
    for v, (s1, s2) in in_slots.items():
        o, u = (s1, s2) if (s1 & 1) == diagram.bits[v] else (s2, s1)
        total += 1 if (u - o) % 4 == 3 else -1
    return total


def _counting(monkeypatch, name):
    """Give the cached ``iv`` function ``name`` an empty cache of its size,
    for the test only, and list the argument of each build of its body."""
    builds = []
    cached = getattr(iv, name)
    real = cached.__wrapped__

    def counted(arg):
        builds.append(arg)
        return real(arg)

    maxsize = cached.cache_info().maxsize
    monkeypatch.setattr(iv, name, functools.lru_cache(maxsize)(counted))
    return builds


def test_warm_plans_give_the_oracle_bracket_on_every_assignment(monkeypatch):
    # each shadow's plan and signs are taken once, on its first diagram, and
    # every later assignment is evaluated on them
    figure8 = pm.standard_figure8()
    shadows = [pm.one_vertex(), pm.cn(5), pm.Shadow(figure8.n, figure8.twin, 2),
               pm.connected_sum(figure8, figure8), doubled_ring_link(3)]
    plans = _counting(monkeypatch, "_bracket_plan")
    signs = _counting(monkeypatch, "_writhe_signs")
    seen = 0
    for k, s in enumerate(shadows):
        link = False
        for d in iv.assignments(s):
            assert iv.kauffman_bracket(d) == oracle_bracket(d), (s, d.bits)
            try:
                want = walk_writhe(d)
            except ShadowError as e:
                want = type(e)
                link = True
            try:
                got = iv.writhe(d)
            except ShadowError as e:
                got = type(e)
            assert got == want, (s, d.bits)
            seen += 1
        assert plans == [t.twin for t in shadows[:k + 1]]
        if not link:                        # a knot shadow: signs taken once
            assert signs.count(s.twin) == 1
        else:                               # a link has no walk: it raises
            assert signs.count(s.twin) == 1 << s.n
    assert seen == 2 + 32 + 16 + 256 + 8


def test_pure_results_outlive_the_shadow_record(monkeypatch):
    plans = _counting(monkeypatch, "_bracket_plan")
    with pytest.raises(LimitExceeded):      # before any plan is taken
        iv.kauffman_bracket(iv.Diagram(pm.cn(5), (0,) * 5), limit=4)
    assert plans == []
    # equal n, twin tables apart: two plans, never one for both
    a, b = pm.cn(5), pm.random_shadow(5, 3)
    assert a.n == b.n and a.twin != b.twin
    diagrams = [iv.Diagram(s, bits) for s in (a, b, a, b)
                for bits in ((0, 1, 1, 0, 1), (1, 1, 0, 0, 0))]
    for d in diagrams:
        assert iv.kauffman_bracket(d) == oracle_bracket(d)
        assert iv.writhe(d) == walk_writhe(d)
    assert plans == [a.twin, b.twin]
    # classify every diagram on A, then on B, then on A again: B's record
    # evicts A's, but no plan is built and no polynomial evaluated twice
    polys = []
    _counting(monkeypatch, "_poly_class")
    real = iv.normalized_poly

    def counted(diagram, limit=iv.DEFAULT_LIMIT):
        polys.append(diagram)
        return real(diagram, limit)

    monkeypatch.setattr(iv, "normalized_poly", counted)
    # nor is the type-A test's walk at a vertex of a twin table taken twice
    _counting(monkeypatch, "_type_a_row")
    walks = []
    real_walks = iv._type_a_walks

    def counted_walks(twin, v):
        walks.append((tuple(twin), v))
        return real_walks(twin, v)

    monkeypatch.setattr(iv, "_type_a_walks", counted_walks)
    monkeypatch.setattr(iv, "_record", None)
    a, b = pm.cn(7), pm.random_shadow(8, 5)
    plans.clear()
    verdicts = []
    for s in (a, b, a):
        verdicts.append([iv.classify(d) for d in iv.assignments(s)])
        assert iv._record.shadow == s
    assert verdicts[0] == verdicts[2]
    assert len(set(plans)) == len(plans) > 1
    assert len(set(polys)) == len(polys) > 1
    assert len(set(walks)) == len(walks) > 1


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


SIMPLIFY_PINS_PATH = pathlib.Path(__file__).parent / "data" / "simplify_pins.json"


def simplify_pin_cases():
    """Named (diagram, riii_depth) cases whose simplification is pinned.

    Connected sums of small knots stall the curl and bigon removals and
    need one-sided strand collapses; the random shadows take the bigon
    removal whose outer strands meet at the bigon itself, and some need
    triangle slides.
    """
    f8 = pm.standard_figure8()
    shadows = [("fig8#fig8", pm.connected_sum(f8, f8)),
               ("trefoil#fig8", pm.connected_sum(pm.standard_trefoil(), f8)),
               ("random_shadow(8, 1)", pm.random_shadow(8, 1)),
               ("random_shadow(12, 1)", pm.random_shadow(12, 1))]
    out = []
    for name, s in shadows:
        rng = random.Random(s.n)
        for k in range(8):
            bits = tuple(rng.randrange(2) for _ in range(s.n))
            out.append((f"{name}/{k}", iv.Diagram(s, bits), 0))
    # three of these stall until a triangle slide
    for n, seed in ((9, 188), (11, 126), (12, 87)):
        s = pm.random_shadow(n, seed)
        rng = random.Random(seed)
        for k in range(3):
            bits = tuple(rng.randrange(2) for _ in range(n))
            out.append((f"random_shadow({n}, {seed})/{k}/riii1",
                        iv.Diagram(s, bits), 1))
    for name in ("trefoil", "figure8", "random9_2"):
        s = dict(CORPUS)[name]
        out.append((f"{name}/alternating/riii2", iv.alternating_diagram(s), 2))
    return out


def _simplify_record(diagram, riii_depth):
    out, moves = iv.simplify(diagram, riii_depth)
    # round trip through JSON so tuples compare as the stored lists
    return json.loads(json.dumps({
        "twin": out.shadow.twin, "bits": out.bits,
        "free_loops": out.shadow.free_loops, "moves": moves}))


def test_simplify_matches_pins(monkeypatch):
    # {name: {"twin", "bits", "free_loops", "moves"}}, captured before the
    # simplifier's strand excision moved onto planemap's splicing engine;
    # the moves of the three cases that slide and then run on were pinned
    # again when the greedy moves after a slide joined the log
    pins = json.loads(SIMPLIFY_PINS_PATH.read_text())
    cases = simplify_pin_cases()
    assert list(pins) == [name for name, _, _ in cases]
    excisions = []
    real = iv._Mut.excise

    def counted(self, *args, **kwargs):
        excisions.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(iv._Mut, "excise", counted)
    collapses = fallbacks = 0
    for name, d, riii_depth in cases:
        excisions.clear()
        got = _simplify_record(d, riii_depth)
        assert got == pins[name], name
        if riii_depth == 0:
            # each collapse excises once; every other excision is a bigon
            # removal whose outer strands run through the bigon's vertices
            ta = sum(1 for m in got["moves"] if m[0] == "ta")
            collapses += ta
            fallbacks += len(excisions) - ta
    assert collapses > 0 and fallbacks > 0


def _crossings_removed(move):
    kind = move[0]
    if kind == "ta":
        return 1 + len(move[3])
    return {"r1": 1, "r2": 2, "r3": 0}[kind]


def test_simplify_log_accounts_for_every_removed_crossing():
    # slides included: the greedy moves that run after a slide are logged
    for name, d, riii_depth in simplify_pin_cases():
        out, moves = iv.simplify(d, riii_depth)
        assert sum(map(_crossings_removed, moves)) == d.n - out.n, name


def test_simplify_stalls_on_link_crossings():
    # no bigon of the doubled 4-ring is removable with all bits 0, and the
    # one-sided collapse scan finds each crossing joins two curves
    link = doubled_ring_link(4)
    out, moves = iv.simplify(iv.Diagram(link, (0,) * 4))
    assert moves == []
    assert (out.shadow.twin, out.bits, out.shadow.free_loops) == \
        (link.twin, (0,) * 4, 0)


def test_rii_removable_pairs_on_doubled_ring():
    # the ring has no curls, so a removable bigon is the simplifier's first
    # move, and apply_rii_at checks it on the diagram itself
    s = pm.cn(3)
    alt = iv.alternating_diagram(s)
    assert iv.simplify(alt)[1] == []
    non_alt = iv.Diagram(s, tuple(b ^ (1 if i == 0 else 0)
                                  for i, b in enumerate(alt.bits)))
    assert not iv.is_alternating(non_alt)
    _, moves = iv.simplify(non_alt)
    assert moves[0][0] == "r2"
    child, _ = iv.apply_rii_at(non_alt, *moves[0][1:])
    assert child.n == 1


def _reference_riii_apply(diagram, dx, dy, dz):
    """``iv._riii_apply`` with a whole-shadow check besides the local one:
    each candidate is validated as a shadow and must keep the diagram's
    number of curves."""
    shadow = diagram.shadow
    twin = list(shadow.twin)
    q, t = twin[dx], dx
    s, u = dz, twin[dz]
    p, r = dy, twin[dy]
    b1, b2 = twin[q ^ 2], twin[t ^ 2]
    g1, g2 = twin[s ^ 2], twin[u ^ 2]
    a1, a2 = twin[p ^ 2], twin[r ^ 2]
    new_pairs = [(q, b2), (q ^ 2, t ^ 2), (t, b1),
                 (s, g2), (s ^ 2, u ^ 2), (u, g1),
                 (r, a1), (r ^ 2, p ^ 2), (p, a2)]
    flat = [d for pair in new_pairs for d in pair]
    if len(set(flat)) != len(flat):
        return None
    for a, b in new_pairs:
        twin[a] = b
        twin[b] = a
    cand = pm.Shadow(shadow.n, tuple(twin), shadow.free_loops, 0)
    try:
        pm.validate_shadow(cand)
    except (NotInvolution, NonPlanar):
        return None
    if cand.curve_count() != shadow.curve_count():
        return None
    return iv.Diagram(cand, diagram.bits)


def _reference_riii_moves(diagram):
    """``iv.riii_moves`` over ``_reference_riii_apply``, with a filter for
    triangles with three distinct corners."""
    shadow = diagram.shadow
    out = []
    for f in pm.faces(shadow):
        if len(f) != 3 or len({pm.vertex_of(d) for d in f}) != 3:
            continue
        for i in range(3):
            a_side = f[(i + 1) % 3]
            if diagram.over_dart(a_side) != diagram.over_dart(shadow.twin[a_side]):
                continue
            cand = _reference_riii_apply(diagram, f[i], f[(i + 1) % 3],
                                         f[(i + 2) % 3])
            if cand is not None:
                out.append(cand)
    return out


def _slide_shadows():
    """The corpus, random shadows of 5-21 crossings, closed 3- and 4-braids
    and doubled rings."""
    braid = load_braid()
    out = [s for _, s in CORPUS]
    out += [pm.random_shadow(n, seed) for n in range(5, 22) for seed in range(4)]
    out += [cd.parse(braid.braid_pd(braid.torus_word(k), 3), "pd").shadow
            for k in (4, 5, 7)]
    out += _braid_shadows([(3, n) for n in range(6, 25, 2)]
                          + [(4, n) for n in range(7, 26, 2)], 29)
    out += [doubled_ring_link(k) for k in (2, 3, 4, 6)]
    return out


def test_riii_slides_match_the_whole_shadow_reference():
    # the local test accepts a slide exactly when the whole-shadow check
    # does, on every triangle face and rotation, and again on the shadow of
    # each slide; riii_moves lists the reference's slides in its order.
    # Triangles with a repeated corner are among those rejected.
    rng = random.Random(5)
    level = _slide_shadows()
    slides = degenerate = repeated = 0
    for _ in range(2):
        nxt = {}
        for s in level:
            d = iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
            assert list(iv.riii_moves(d)) == _reference_riii_moves(d), s
            for f in pm.faces(s):
                if len(f) != 3:
                    continue
                repeated += len({pm.vertex_of(x) for x in f}) != 3
                for i in range(3):
                    darts = (f[i], f[(i + 1) % 3], f[(i + 2) % 3])
                    got = iv._riii_apply(d, *darts)
                    assert got == _reference_riii_apply(d, *darts), (s, darts)
                    if got is None:
                        degenerate += 1
                    else:
                        slides += 1
                        nxt.setdefault(got.shadow.twin, got.shadow)
        level = nxt.values()
    assert slides > 2000 and degenerate > 300 and repeated > 50


@pytest.mark.parametrize("k, outputs, unresolved",
                         [(14, 32, 15), (17, 64, 31), (20, 128, 63)])
def test_one_slide_certifies_the_torus_closure_families(k, outputs, unresolved):
    # the greedy moves stall on these families above the oracle limit; one
    # triangle slide lets them run down to no crossings
    braid = load_braid()
    shadow = cd.parse(braid.braid_pd(braid.torus_word(k), 3), "pd").shadow
    diagrams = gn.generate_unknots(shadow).diagrams
    assert len(diagrams) == outputs
    kinds = [iv.classify(d).kind for d in diagrams]
    assert kinds.count("unresolved") == unresolved
    assert all(iv.classify(d, riii_depth=1) == iv.UNKNOT for d in diagrams)


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
    assert list(iv.riii_moves(alt)) == []


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
        with pytest.raises(NotAKnotShadow):
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


# ---------------------------------------------------------------------------
# per-shadow classification memo
# ---------------------------------------------------------------------------

def _has_curl(shadow):
    return any(shadow.twin[d] >> 2 == d >> 2 for d in shadow.darts())


def _curly_shadows():
    """Random shadows of 3-12 crossings, most of them with curls."""
    return [pm.random_shadow(n, seed) for n in range(3, 13) for seed in (n, 16)]


def test_classify_matches_the_unreduced_polynomial(corpus):
    # the memoized verdict, taken on the curl quotient, against the
    # normalized polynomial of the whole diagram
    by_kind = {cls.kind: f for f, cls in iv.reference_polynomials().items()}
    by_kind["unknot"] = iv.ONE
    shadows = [s for _, s in corpus if s.n] + _curly_shadows()
    assert sum(map(_has_curl, shadows)) >= 20
    rng = random.Random(29)
    checked = 0
    for s in shadows:
        if s.n <= 8:
            diagrams = list(iv.assignments(s))
        else:
            diagrams = [iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
                        for _ in range(24)]
        for d in diagrams:
            cls = iv.classify(d)
            want = cls.poly if cls.kind == "other" else by_kind[cls.kind]
            assert iv.normalized_poly(d) == want, (s, d.bits, cls)
            checked += 1
    assert checked > 1500


def _census(shadow, runs):
    """The census of the shadow, taken ``runs`` times in a row.  The later
    runs reuse the verdicts, residue classes and bracket plans the earlier
    ones left in the shadow record, and must count as the first did."""
    first = list(iv.census(shadow).items())
    for _ in range(runs - 1):
        assert list(iv.census(shadow).items()) == first, shadow
    return dict(first)


@pytest.mark.parametrize("runs", (1, 2))
def test_census_matches_classify_over_all_assignments(runs):
    f8 = pm.standard_figure8()
    curled = pm.insert_curl(pm.insert_curl(f8, 3), 17, True)
    shadows = [curled, pm.chorizo(6), pm.random_shadow(10, 16),
               pm.random_shadow(12, 16)]
    assert all(map(_has_curl, shadows))
    for s in shadows:
        brute = {}
        for d in iv.assignments(s):
            name = iv.classify(d).name
            brute[name] = brute.get(name, 0) + 1
        named = {}
        for cls, k in _census(s, runs).items():
            named[cls.name] = named.get(cls.name, 0) + k
        assert named == brute, s


@pytest.mark.parametrize("runs", (1, 2))
def test_census_matches_classify_on_curl_free_shadows(runs):
    # the curl quotient is the whole shadow, so the census walk does all the
    # work
    f8 = pm.standard_figure8()
    shadows = [pm.cn(9), pm.connected_sum(f8, f8)]
    assert not any(map(_has_curl, shadows))
    for s in shadows:
        brute = {}
        for d in iv.assignments(s):
            name = iv.classify(d).name
            brute[name] = brute.get(name, 0) + 1
        named = {c.name: k for c, k in _census(s, runs).items()}
        assert named == brute, s


EXPECTED_CENSUS_PATH = (pathlib.Path(__file__).parents[1] / "perfbench"
                        / "expected_census.json")


@pytest.mark.parametrize("runs", (1, 2))
def test_census_matches_the_benchmark_pin(runs):
    # {shadow name: {class name: count}}, the benchmark's census pin
    pins = json.loads(EXPECTED_CENSUS_PATH.read_text())
    f8 = pm.standard_figure8()
    for name, s in (("cn11", pm.cn(11)),
                    ("fig8#fig8#fig8",
                     pm.connected_sum(pm.connected_sum(f8, f8), f8))):
        named = {c.name: k for c, k in _census(s, runs).items()}
        assert named == pins[name], name


@pytest.mark.parametrize("runs", (1, 2))
def test_census_keeps_presumed_unknots_apart(runs):
    # (8, 16) has a 6-vertex curl quotient, (10, 16) an 8-vertex one
    for (n, seed), certified, presumed in (((8, 16), 144, 8), ((10, 16), 512, 32)):
        s = pm.random_shadow(n, seed)
        census = _census(s, runs)
        named = {c.name: k for c, k in census.items()}
        assert named["unknot"] == certified, (n, seed)
        assert named["unknot (presumed)"] == presumed, (n, seed)
        assert iv.unknot_count(census) == certified + presumed
        assert census[iv.KnotClass("unknot", presumed=True)] == presumed


def test_diagram_needs_one_bit_per_vertex():
    with pytest.raises(PreconditionViolated, match="bit vector length"):
        iv.Diagram(pm.cn(3), (0, 1))


def _fresh_verdict(diagram, limit, riii_depth):
    """The verdict of a new interpreter that classifies only this diagram."""
    src = os.path.dirname(os.path.dirname(iv.__file__))
    code = ("from unknotforge import invariants as iv, planemap as pm;"
            f"d = iv.Diagram(pm.Shadow({diagram.n}, {diagram.shadow.twin!r}, "
            f"{diagram.shadow.free_loops}, {diagram.shadow.outer_face}), "
            f"{diagram.bits!r}); c = iv.classify(d, {limit}, {riii_depth});"
            "print(c.name, c.presumed)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


MEMO_SETTINGS = ((12, 0), (iv.DEFAULT_LIMIT, 0), (iv.DEFAULT_LIMIT, 2), (12, 2))


def test_memo_keys_give_fresh_verdicts():
    # limit 12 leaves the alternating cn(13) unresolved, the default limit
    # resolves it; every call must agree with a fresh interpreter, whatever
    # ran before it on this shadow or on another
    d = iv.alternating_diagram(pm.cn(13))
    settings = MEMO_SETTINGS
    fresh = {k: _fresh_verdict(d, *k) for k in settings}
    assert fresh[(12, 0)].startswith("unresolved")
    assert fresh[(iv.DEFAULT_LIMIT, 0)].startswith("other")
    other = iv.Diagram(pm.cn(11), (0,) * 11)
    order = [0, 1, 2, 0, 3, 1, None, 2, 0, None, 1, 3, 2, 0]
    for i in order:
        if i is None:
            iv.classify(other)
            continue
        limit, depth = settings[i]
        cls = iv.classify(d, limit, depth)
        assert f"{cls.name} {cls.presumed}" == fresh[settings[i]], settings[i]


@pytest.mark.parametrize("shadow, q", [
    (pm.chorizo(4), 0), (pm.trivial(), 0), (pm.cn(5), 5), (pm.random_shadow(10, 5), 7),
], ids=("chorizo4", "trivial", "cn5", "random10_5"))
def test_record_picks_the_quotient_bits(shadow, q):
    # the record's picker against the bits read one quotient vertex at a
    # time, on every assignment: no vertex, every vertex, and a curl quotient
    rec = iv._ShadowRecord(shadow)
    assert len(rec.keep) == q
    for d in iv.assignments(shadow):
        assert rec.pick(d.bits) == tuple(d.bits[v] for v in rec.keep), d.bits


def _plain_verdict(rec, diagram, limit, riii_depth):
    """The verdict of a quotient diagram simplified from scratch."""
    bits = tuple(diagram.bits[v] for v in rec.keep)
    reduced, _ = iv.simplify(iv.Diagram(rec.quotient, bits), riii_depth)
    return iv.residue_class(reduced, limit)


@functools.lru_cache(maxsize=1)
def _tree_cases():
    """Every generated output and random assignments, grouped by shadow,
    and their plain verdicts at each of MEMO_SETTINGS."""
    rng = random.Random(53)
    groups = []
    for s in _runner_shadows() + _braid_shadows(((4, 21), (3, 30)), 61):
        diagrams = list(gn.generate_unknots(s).diagrams)
        diagrams += [iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
                     for _ in range(8)]
        groups.append(diagrams)
    # every diagram of a twist chain: their runs part in C(9, 4) = 126 ways,
    # so this tree grows past 100 leaves where the generated outputs, which
    # mostly differ in which strand of a removed bigon or walk is on top,
    # share far fewer
    groups.append(list(iv.assignments(pm.cn(9))))
    plain = {}
    for diagrams in groups:
        rec = iv._ShadowRecord(diagrams[0].shadow)
        for d in diagrams:
            for k in MEMO_SETTINGS:
                plain[d, k] = _plain_verdict(rec, d, *k)
    return groups, plain


@pytest.mark.parametrize("cap", (iv._MEMO_CAP, 6))
def test_tree_verdicts_equal_plain_verdicts(monkeypatch, cap):
    # each shadow's diagrams in turn, so trees grow deep, then a sample of
    # them shuffled, so trees are evicted between shadows; the small cap
    # makes verdicts fall back to simplify once a tree is full
    groups, plain = _tree_cases()
    rng = random.Random(67)
    monkeypatch.setattr(iv, "_MEMO_CAP", cap)
    by_shadow = []
    for diagrams in groups:
        calls = [(d, k) for d in diagrams for k in MEMO_SETTINGS]
        rng.shuffle(calls)
        by_shadow += calls
    shuffled = rng.sample(by_shadow, 1500)
    nodes = 0
    for calls in (by_shadow, shuffled):
        monkeypatch.setattr(iv, "_record", None)
        for d, (limit, depth) in calls:
            got = iv.classify(d, limit, depth)
            assert got == plain[d, (limit, depth)], (d, limit, depth)
            nodes = max(nodes, iv._record.nodes)
    if cap == 6:
        assert nodes == cap
    else:
        assert 100 < nodes < cap


def _tree_size(node):
    """The leaves of a classify tree: ``[log, None, shadow, order]`` is a
    leaf, ``[log, groups, paused, children]`` a branch whose children are
    keyed by test outcome."""
    if node is None:
        return 0
    if node[1] is None:
        return 1
    return sum(_tree_size(child) for child in node[3].values())


def test_memos_stop_growing_at_the_cap(monkeypatch):
    # the tree fills at the 9,826th assignment: below it many diagrams
    # share a leaf, as their runs' tests have equal outcomes (the 8,192
    # diagrams of cn(13) share 1,716 leaves)
    _counting(monkeypatch, "_poly_class")
    s = pm.cn(15)
    for d in itertools.islice(iv.assignments(s), 10_240):
        iv.classify(d)
    rec = iv._shadow_record(s)
    assert len(rec.verdicts) == iv._MEMO_CAP < 1 << s.n
    residues = iv._poly_class.cache_info()
    assert 0 < residues.currsize <= residues.maxsize == iv._MEMO_CAP
    assert _tree_size(rec.root) == rec.nodes == iv._MEMO_CAP


def _sideless(moves):
    """A move log with the side of each type-A collapse dropped."""
    return tuple(m[:2] + m[3:] if m[0] == "ta" else m for m in moves)


def test_tree_leaves_are_the_distinct_move_sequences(monkeypatch):
    # a leaf stands for one sequence of test outcomes, and so for one move
    # sequence up to the sides of the collapses; generated outputs that
    # differ only in which strand of a removed bigon or walk is on top
    # share it
    shared = 0
    for s in _runner_shadows() + _braid_shadows(((3, 24), (4, 25)), 61):
        monkeypatch.setattr(iv, "_record", None)
        rec = iv._shadow_record(s)
        runs = set()
        diagrams = gn.generate_unknots(s).diagrams
        for d in diagrams:
            iv.classify(d)
            bits = tuple(d.bits[v] for v in rec.keep)
            runs.add(_sideless(iv.simplify(iv.Diagram(rec.quotient, bits))[1]))
        assert iv._record is rec
        assert _tree_size(rec.root) == rec.nodes == len(runs), s
        shared += len(diagrams) - len(runs)
    assert shared > 5000


def test_a_mirror_reads_its_bits_from_the_shared_leaf(monkeypatch):
    # mirroring flips both sides of every test, so the mirror of a
    # classified diagram walks to its leaf and adds none, and the leaf
    # completes the residue with the mirror's bits, not the diagram's
    swapped = {"trefoil_left": "trefoil_right", "trefoil_right": "trefoil_left"}
    checked = 0
    for s in _runner_shadows():
        tre = gn.trefoil_diagram(s)
        if tre is None:
            continue
        monkeypatch.setattr(iv, "_record", None)
        cls = iv.classify(tre)
        nodes = iv._record.nodes
        assert nodes > 0
        assert iv.classify(iv.mirror(tre)).kind == swapped[cls.kind]
        assert iv._record.nodes == nodes
        checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# the resumable simplifier run
# ---------------------------------------------------------------------------

def _runner_shadows():
    """The corpus, random shadows and closed 3-braids."""
    braid = load_braid()
    rng = random.Random(43)
    out = [s for _, s in CORPUS if s.n]
    out += [pm.random_shadow(n, seed) for n in range(3, 15) for seed in (5, 6)]
    for length in (4, 6, 8, 10, 12, 14, 16):
        word = braid.random_knot_word(rng, 3, length)
        out.append(cd.parse(braid.braid_pd(word, 3), "pd").shadow)
    return out


def _run_state(state):
    return (list(state.twin), list(state.bits), state.free_loops,
            list(state.work), list(state.queued), list(state.moves))


def _finish(state, full):
    """Set the unknown bits of ``state`` from ``full`` and run it out."""
    bits = [full[v] if b is None else b for v, b in enumerate(state.bits)]
    state.bits[:] = bits
    assert state.run() is None
    return (state.to_diagram()[0], state.moves), tuple(bits)


def _outcomes(groups, bits):
    """The outcome of a move test over ``groups`` for every setting of the
    unknown bits, by brute force."""
    unknown = [v for v, b in enumerate(bits) if b is None]
    out = set()
    for fill in itertools.product((0, 1), repeat=len(unknown)):
        full = list(bits)
        for v, b in zip(unknown, fill):
            full[v] = b
        sides = [{(d & 1) ^ full[d >> 2] for d in group} for group in groups]
        out.add(next((k for k, side in enumerate(sides) if len(side) == 1), -1))
    return out


def test_first_one_sided_pauses_only_on_a_group_that_could_be_one_sided():
    # darts 0, 4 and 8 pass on sides 0, 1 and unknown: the first group's
    # known darts disagree, so it is passed over though it holds an unknown
    # bit, and the test pauses in the second group
    groups = [(0, 4, 8), (12, 17)]
    bits = [0, 1, None, None, None]
    with pytest.raises(iv._Pause) as e:
        iv._first_one_sided(groups, bits)
    assert e.value.args[0] in (3, 4)
    bits[3] = 0
    with pytest.raises(iv._Pause) as e:
        iv._first_one_sided(groups, bits)
    assert e.value.args[0] == 4
    assert iv._first_one_sided(groups, bits[:4] + [0]) == -1
    assert iv._first_one_sided(groups, bits[:4] + [1]) == 1
    # random groups of distinct vertices: an outcome returned is that of
    # every setting of the unknown bits; a pause names an unknown bit of a
    # group that is one-sided for some setting, and no group before that
    # one is one-sided for any
    rng = random.Random(29)
    pauses = 0
    for _ in range(3000):
        groups = [tuple(4 * v + rng.randrange(4)
                        for v in rng.sample(range(6), rng.randint(2, 4)))
                  for _ in range(rng.randint(1, 3))]
        bits = [None if rng.random() < 0.3 else rng.randrange(2) for _ in range(6)]
        outcomes = _outcomes(groups, bits)
        try:
            k = iv._first_one_sided(groups, bits)
        except iv._Pause as e:
            pauses += 1
            u = e.args[0]
            assert bits[u] is None
            assert any(j in outcomes and all(k < 0 or k >= j for k in outcomes)
                       for j, group in enumerate(groups)
                       if u in {d >> 2 for d in group}), (groups, bits)
        else:
            assert outcomes == {k}, (groups, bits)
    assert pauses > 500


def test_runner_stops_only_on_unknown_bits_and_forks_exactly():
    rng = random.Random(47)
    stops = 0
    for s in _runner_shadows():
        for _ in range(6):
            full = [rng.randrange(2) for _ in range(s.n)]
            bits = [None if rng.random() < 0.6 else b for b in full]
            state = iv._Mut(iv.Diagram(s, tuple(bits)))
            while True:
                u = state.run()
                if u is None:
                    break
                stops += 1
                assert state.bits[u] is None
                # the stopping test changed nothing: a second run stops at once
                before = _run_state(state)
                assert state.run() == u
                assert _run_state(state) == before
                for bit in (0, 1):
                    got, assignment = _finish(state.fork(u, bit), full)
                    assert assignment[u] == bit
                    assert got == iv.simplify(iv.Diagram(s, assignment)), (s, bits)
                state.bits[u] = rng.randrange(2)
            got, assignment = _finish(state, full)
            assert got == iv.simplify(iv.Diagram(s, assignment)), (s, bits)
    assert stops > 200


def _logged(diagram):
    """A logging run of the diagram, run out."""
    state = iv._Mut(diagram, logged=True)
    assert state.run() is None
    return state


def test_resumed_runs_log_what_unpaused_runs_log():
    # a logging run paused before its i-th logged test, for each i, and
    # then resumed logs what a run that never paused logs, and both end as
    # simplify.  Half the runs resume with the mirror's bits: mirroring
    # flips both sides of every test, so each test keeps its outcome and
    # the run goes on as the mirror's own run would
    rng = random.Random(71)
    tests = 0
    shadows = _runner_shadows() + _braid_shadows(((3, 24), (4, 21), (4, 25)), 61)
    for s in shadows:
        for trial in range(4):
            d = iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
            whole = _logged(d)
            assert (whole.to_diagram()[0], whole.moves) == iv.simplify(d)
            other = iv.mirror(d) if trial >= 2 else d
            reduced, moves = iv.simplify(other)
            # the collapses logged before the pause keep the sides of d
            want = reduced, _sideless(moves) if other is not d else moves
            for i in range(len(whole.log)):
                state = iv._Mut(d, logged=True)
                assert state.run(i) == -1
                assert state.log == whole.log[:i]
                # the test it paused before changed nothing
                before = _run_state(state)
                assert state.run(i) == -1
                assert _run_state(state) == before
                resumed = state.with_bits(other.bits)
                assert resumed.run() is None
                assert state.log + resumed.log == whole.log, (s, d, i)
                moves = resumed.moves
                got = resumed.to_diagram()[0], _sideless(moves) if other is not d else moves
                assert got == want
            tests += len(whole.log)
    assert tests > 1000


def _braid_shadows(specs, seed):
    """Closed braids, one for each (strands, length) in ``specs``."""
    braid = load_braid()
    rng = random.Random(seed)
    return [cd.parse(braid.braid_pd(braid.random_knot_word(rng, k, length), k),
                     "pd").shadow for k, length in specs]


def test_scan_resumes_at_its_stop(monkeypatch):
    # a logging run paused before a test of the type-A scan tests no vertex
    # below the stop once resumed, until its next collapse, and still ends
    # as simplify; each run is re-run from the start with a generated
    # output's bits and paused before each of its logged tests in turn, as
    # classify's tree re-runs an edge it splits
    tested = []
    real = iv._try_type_a

    def counted(state, v):
        tested.append(v)
        hit = real(state, v)
        if hit:
            tested.append("hit")
        return hit

    monkeypatch.setattr(iv, "_try_type_a", counted)
    stops = []
    shadows = _runner_shadows() + _braid_shadows(((3, 24), (4, 21), (4, 25)), 61)
    for s in shadows:
        for d in gn.generate_unknots(s).diagrams[:16]:
            logged = len(_logged(d).log)
            for i in range(logged):
                state = iv._Mut(d, logged=True)
                assert state.run(i) == -1
                if state.work:
                    continue            # paused before a bigon test
                stop = tested[-1]
                assert state.scan == stop
                tested.clear()
                resumed = state.with_bits(d.bits)
                assert resumed.run() is None
                if "hit" in tested:
                    del tested[tested.index("hit"):]
                assert tested[0] == stop and tested == sorted(tested), s
                assert (resumed.to_diagram()[0], resumed.moves) == iv.simplify(d), s
                assert len(state.log) + len(resumed.log) == logged
                stops.append(stop)
    assert len(stops) > 100 and sum(v > 0 for v in stops) > 50


# ---------------------------------------------------------------------------
# the census walk: paused runs with equal keys share their counts
# ---------------------------------------------------------------------------

def _curl_heavy_shadow():
    s = pm.random_shadow(14, 16)
    assert len(iv._shadow_record(s).keep) < s.n
    return s


def _fig8_cubed():
    f8 = pm.standard_figure8()
    return pm.connected_sum(pm.connected_sum(f8, f8), f8)


def test_census_merges_equal_paused_states(monkeypatch):
    # forks are counted by a wrapper; pauses and distinct paused states by
    # wrapping run, with keys taken where the run stops
    s = pm.cn(11)
    forks = []
    pauses = []
    real_fork, real_run, cap = iv._Mut.fork, iv._Mut.run, iv._CENSUS_CAP

    def fork(self, v, bit):
        forks.append(v)
        return real_fork(self, v, bit)

    def run(self):
        u = real_run(self)
        if u is not None:
            pauses.append(self.key())
        return u

    monkeypatch.setattr(iv._Mut, "fork", fork)
    monkeypatch.setattr(iv._Mut, "run", run)
    monkeypatch.setattr(iv, "_CENSUS_CAP", 0)   # no memo: the walk is a tree
    tree = iv.census(s)
    assert len(forks) == len(pauses) == 1865
    distinct = len(set(pauses))
    assert distinct == 85
    forks.clear()
    pauses.clear()
    monkeypatch.setattr(iv, "_CENSUS_CAP", cap)
    assert iv.census(s) == tree
    assert len(forks) <= distinct < len(pauses)


@pytest.mark.parametrize("n, states", ((11, 85), (13, 116)))
def test_census_forks_once_per_distinct_paused_state(monkeypatch, n, states):
    # the census memo has a bound of its own, so capping the classify memos
    # below the number of distinct paused states leaves it merging them all
    forks = []
    real_fork = iv._Mut.fork

    def fork(self, v, bit):
        forks.append(v)
        return real_fork(self, v, bit)

    monkeypatch.setattr(iv._Mut, "fork", fork)
    monkeypatch.setattr(iv, "_MEMO_CAP", 8)
    iv.census(pm.cn(n))
    assert len(forks) == states


def test_census_of_a_twist_chain_meets_the_closed_form(monkeypatch):
    # cn(n) is the (2, k) torus knot for k the signed count of its
    # crossings, an unknot exactly when |k| = 1: C(n + 1, (n + 1) / 2) of
    # the 2^n diagrams.  A paused run is fixed by the signed count of the
    # crossings read so far and the number still unknown, so the relabelled
    # keys leave (n^2 + 7n - 28) / 2 distinct paused states, one fork each
    forks = []
    real_fork = iv._Mut.fork

    def fork(self, v, bit):
        forks.append(v)
        return real_fork(self, v, bit)

    monkeypatch.setattr(iv._Mut, "fork", fork)
    for n in (15, 21, 31, 41):
        forks.clear()
        census = iv.census(pm.cn(n), limit=n)
        assert iv.unknot_count(census) == math.comb(n + 1, (n + 1) // 2)
        assert sum(census.values()) == 1 << n
        assert len(forks) == (n * n + 7 * n - 28) // 2
    assert len(forks) == 970


@pytest.mark.parametrize("runs", (1, 2))
def test_census_counts_do_not_depend_on_the_memo_cap(monkeypatch, runs):
    for s in (pm.cn(11), _fig8_cubed(), _curl_heavy_shadow()):
        got = []
        for cap in (0, 8, iv._CENSUS_CAP):
            with monkeypatch.context() as m:
                m.setattr(iv, "_CENSUS_CAP", cap)
                census = _census(s, runs)
            got.append(list(census.items()))
        assert got[0] == got[1] == got[2]
        assert sum(k for _, k in got[0]) == 1 << s.n


def _paused_states(shadow):
    """A copy of every paused run of the tree walk over the shadow."""
    out = []
    stack = [iv._Mut(iv.Diagram(shadow, (None,) * shadow.n))]
    while stack:
        state = stack.pop()
        u = state.run()
        if u is None:
            continue
        out.append(state.fork(u, None))
        stack.append(state.fork(u, 1))
        state.bits[u] = 0
        stack.append(state)
    return out


def _reference_key(state):
    """``_Mut.key`` built from ``planemap.renumber`` and a rank table."""
    twin, order = pm.renumber(state.twin)
    rank = {v: i for i, v in enumerate(order)}
    return ((twin, tuple(state.bits[v] for v in order),
             tuple(sorted(rank[v] for v in state.work if v in rank)),
             sum(v < state.scan for v in order), state.free_loops), list(order))


def test_census_keys_are_sound():
    # runs paused with equal keys end equal once their unknown live bits
    # are set alike, by the rank of the live vertex; unknown bits of removed
    # vertices are set at random.  The states of all the shadows share one
    # table, so keys are compared across shadows too
    rng = random.Random(53)
    f8 = pm.standard_figure8()
    groups = {}
    for s in (pm.cn(9), pm.connected_sum(f8, f8), pm.random_shadow(10, 16),
              pm.random_shadow(10, 5), pm.random_shadow(9, 5),
              pm.random_shadow(10, 49)):
        for state in _paused_states(s):
            key, live = _reference_key(state)
            assert state.key() == key
            groups.setdefault(key, []).append((state, live))
    shared = 0
    for states in groups.values():
        if len(states) < 2:
            continue
        shared += len(states) - 1
        for _ in range(4):
            fill = [rng.randrange(2) for _ in range(10)]
            ends = set()
            for state, live in states:
                state = state.fork(0, state.bits[0])    # a copy
                rank = {v: i for i, v in enumerate(live)}
                state.bits[:] = [b if b is not None else
                                 fill[rank[v]] if v in rank else rng.randrange(2)
                                 for v, b in enumerate(state.bits)]
                assert state.run() is None
                ends.add(state.to_diagram()[0])
            assert len(ends) == 1, states[0][0].twin
    assert shared > 100


def _first_error(shadow):
    """Type and message of the error ``classify`` raises on the first
    assignment in bit-vector order that raises one."""
    for d in iv.assignments(shadow):
        try:
            iv.classify(d)
        except ShadowError as e:
            return type(e), str(e)
    raise AssertionError("no assignment raises")


NOT_KNOT_SHADOWS = {
    "4": lambda: doubled_ring_link(4),
    "6": lambda: doubled_ring_link(6),
    "overlay20": lambda: digon.random_overlay(20, 3).shadow,
    "cn3_free_loop": lambda: pm.Shadow(3, pm.cn(3).twin, 1),
    "empty": lambda: pm.Shadow(0, (), 0),
    "unlink": lambda: pm.Shadow(0, (), 2),
}


@pytest.mark.parametrize("name", list(NOT_KNOT_SHADOWS))
def test_census_of_a_link_shadow_raises_as_classify(monkeypatch, name):
    # the shadow record rejects the shadow before the census walks it
    def walk(*args):
        raise AssertionError("the census walked a shadow that is no knot shadow")

    monkeypatch.setattr(iv, "_census_walk", walk)
    s = NOT_KNOT_SHADOWS[name]()
    kind, message = _first_error(s)
    assert kind is NotAKnotShadow
    with pytest.raises(NotAKnotShadow) as e:
        iv.census(s)
    assert str(e.value) == message


# ---------------------------------------------------------------------------
# the runner re-tests only the vertices a move rewired
# ---------------------------------------------------------------------------

def _requeue_all(monkeypatch):
    """Make every type-A collapse report every live vertex as touched, so
    that each run queues them all again, as the runner once did."""
    real = iv._try_type_a

    def every_live_vertex(state, v):
        hit = real(state, v)
        if hit:
            twin = state.twin
            return hit[0], [u for u in range(len(twin) // 4) if twin[4 * u] >= 0]
        return hit

    monkeypatch.setattr(iv, "_try_type_a", every_live_vertex)


def _calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` in a list of one int."""
    calls = [0]
    real = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _oracle_cases():
    """Shadows, each with its diagrams: every assignment up to 8 crossings,
    48 random ones above."""
    rng = random.Random(79)
    shadows = [s for _, s in CORPUS if s.n]
    shadows += [pm.cn(11), _fig8_cubed(), _curl_heavy_shadow()]
    shadows += [pm.random_shadow(n, seed) for n in range(3, 15) for seed in (3, 8)]
    cases = []
    for s in shadows:
        if s.n <= 8:
            diagrams = list(iv.assignments(s))
        else:
            diagrams = [iv.Diagram(s, tuple(rng.randrange(2) for _ in range(s.n)))
                        for _ in range(48)]
        cases.append((s, diagrams))
    return cases


def _oracle_results(monkeypatch, cases):
    """Per shadow: simplify at RIII depth 0 and 1 and classify at both
    depths of each diagram, and the census with its class order."""
    out = []
    for s, diagrams in cases:
        monkeypatch.setattr(iv, "_record", None)
        out.append(([iv.simplify(d) for d in diagrams],
                    [iv.simplify(d, 1) for d in diagrams],
                    [iv.classify(d, iv.DEFAULT_LIMIT, depth)
                     for depth in (0, 1) for d in diagrams],
                    list(iv.census(s).items())))
    return out


def test_runs_equal_the_requeue_all_runs(monkeypatch):
    # a vertex whose twin entries a collapse left alone fails its curl and
    # bigon tests again, so queueing every live vertex after a collapse
    # applies the same moves in the same order and gives the same censuses
    # and verdicts, only with more tests
    cases = _oracle_cases()
    tries = _calls(monkeypatch, iv, "_try_r1")
    got = _oracle_results(monkeypatch, cases)
    rewired, tries[0] = tries[0], 0
    with monkeypatch.context() as m:
        _requeue_all(m)
        want = _oracle_results(m, cases)
    for (s, _), g, w in zip(cases, got, want):
        assert g == w, s
    assert sum(len(d) for _, d in cases) > 2000
    assert rewired < tries[0]


def _repeated_tests(monkeypatch, work):
    """Call ``work`` and count its curl and bigon tests, and those that
    repeat a failed test at a vertex whose four twin entries have not
    changed since, within one run.  A run goes on over its pauses and into
    its copies, which inherit its failures.  A paused run retries the test
    it paused before, at ``work[0]``, after that vertex's curl test, so
    that vertex's failed curl test is forgotten at a pause."""
    failed = {}             # state -> {(test, v): the entries it failed on}
    current = [None]
    counts = {"tests": 0, "repeats": 0}
    real_run, real_copy = iv._Mut.run, iv._Mut.with_bits

    def run(self, stop=None):
        current[0] = self
        u = real_run(self, stop)
        if u is not None and self.work:
            failed.get(self, {}).pop(("_try_r1", self.work[0]), None)
        return u

    def with_bits(self, bits):
        new = real_copy(self, bits)
        failed[new] = dict(failed.get(self, {}))
        return new

    def watched(name):
        real = getattr(iv, name)

        def test(state, v):
            if state is not current[0]:
                return real(state, v)
            entries = tuple(state.twin[4 * v:4 * v + 4])
            seen = failed.setdefault(state, {})
            counts["tests"] += 1
            counts["repeats"] += seen.get((name, v)) == entries
            hit = real(state, v)            # a pause is no failure
            if not hit:
                seen[name, v] = entries
            return hit

        monkeypatch.setattr(iv, name, test)

    monkeypatch.setattr(iv._Mut, "run", run)
    monkeypatch.setattr(iv._Mut, "with_bits", with_bits)
    watched("_try_r1")
    watched("_try_r2")
    work()
    return counts


def _censuses_and_runs():
    """Three censuses, and classify and simplify of generated outputs,
    whose runs collapse one-sided walks."""
    for s in (_fig8_cubed(), pm.cn(11), _curl_heavy_shadow()):
        iv.census(s)
    for s in _runner_shadows():
        iv._record = None
        for d in gn.generate_unknots(s).diagrams[:16]:
            iv.classify(d)
            iv.simplify(d)


def test_no_run_repeats_a_test_that_failed_on_the_same_twin_entries(monkeypatch):
    monkeypatch.setattr(iv, "_record", None)
    with monkeypatch.context() as m:
        counts = _repeated_tests(m, _censuses_and_runs)
    assert counts["tests"] > 5000 and counts["repeats"] == 0
    # the check sees the repeats of the runner that queued every live
    # vertex again after a collapse
    with monkeypatch.context() as m:
        _requeue_all(m)
        counts = _repeated_tests(m, _censuses_and_runs)
    assert counts["repeats"] > 500


def test_census_of_fig8_cubed_makes_the_pinned_tests(monkeypatch):
    # a type-A collapse queues only the vertices it rewired; queueing every
    # live vertex again made 2,007 move tests and 1,222 bigon tries
    tests = _calls(monkeypatch, iv._Mut, "test")
    bigons = _calls(monkeypatch, iv, "_try_r2")
    iv.census(_fig8_cubed())
    assert (tests[0], bigons[0]) == (1695, 782)
