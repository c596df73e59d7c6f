"""Generators: descending, cycle lifts, digon routes, trefoil, even family."""

import dataclasses

import pytest

from unknotforge import decomp as dc
from unknotforge import generate as gn
from unknotforge import invariants as iv
from unknotforge import planemap as pm
from unknotforge.errors import (
    InternalInvariantViolation,
    SideIrrelevantForSingletonCycle,
)


def test_ceil_cbrt():
    assert [gn.ceil_cbrt(n) for n in (0, 1, 2, 8, 9, 27, 28)] == \
        [0, 1, 2, 2, 3, 3, 4]


# ---------------------------------------------------------------------------
# descending diagrams
# ---------------------------------------------------------------------------

def test_descending_trivial():
    assert gn.descending_diagram(pm.trivial()) == iv.trivial_diagram()


def test_descending_first_visits_are_over():
    s = pm.standard_trefoil()
    d = gn.descending_diagram(s)
    walk = pm.straight_walk(s, min(s.edges()))
    seen = set()
    for k, ex in enumerate(walk.darts):
        in_dart = s.twin[ex]
        v = pm.vertex_of(in_dart)
        if v not in seen:
            seen.add(v)
            assert d.over_dart(in_dart)


def test_descending_all_unknot_and_bounded(corpus_shadow):
    s = corpus_shadow
    parts = gn.all_descending_diagrams(s)
    assert len(parts) <= max(4 * s.n, 1)
    for d in parts:
        out, _ = iv.simplify(d)
        assert out.n == 0


def test_figure8_descending_count():
    assert len(gn.all_descending_diagrams(pm.standard_figure8())) <= 16


# ---------------------------------------------------------------------------
# lift over cycles
# ---------------------------------------------------------------------------

def _trefoil_step():
    s = pm.standard_trefoil()
    cyc = dc.find_straight_ahead_cycle(s, pm.eulerian_walk(s))
    return dc.quotient(s, cyc)


def test_multi_vertex_cycle_has_four_distinct_lifts():
    step = _trefoil_step()
    base = iv.Diagram(step.child, (0,) * step.child.n)
    lifts = {gn.lift_over_cycle(base, step, side, rb).bits
             for side in (pm.OVER, pm.UNDER) for rb in (0, 1)}
    assert len(lifts) == 4


def test_singleton_cycle_has_two_lifts():
    s = pm.one_vertex()
    cyc = dc.find_straight_ahead_cycle(s, pm.eulerian_walk(s))
    step = dc.quotient(s, cyc)
    base = iv.trivial_diagram()
    a = gn.lift_over_cycle(base, step, pm.OVER, 0)
    b = gn.lift_over_cycle(base, step, pm.OVER, 1)
    assert a.bits != b.bits
    with pytest.raises(SideIrrelevantForSingletonCycle):
        gn.lift_over_cycle(base, step, pm.UNDER, 0)


def test_lift_preserves_unknot_class():
    step = _trefoil_step()
    for base in iv.assignments(step.child):
        cls = iv.classify(base).kind
        for side in (pm.OVER, pm.UNDER):
            for rb in (0, 1):
                lifted = gn.lift_over_cycle(base, step, side, rb)
                assert iv.classify(lifted).kind == cls


def test_prop_lift_inequality_by_census(corpus):
    import random
    rng = random.Random(9)
    done = 0
    for name, s in corpus:
        if not 1 <= s.n <= 7:
            continue
        cycles = dc.enumerate_straight_ahead_cycles(s)
        cyc = cycles[rng.randrange(len(cycles))]
        step = dc.quotient(s, cyc)
        u_s = iv.unknot_count(iv.census(s))
        u_c = iv.unknot_count(iv.census(step.child))
        factor = 4 if len(set(cyc.vertices())) > 1 else 2
        assert u_s >= factor * u_c, name
        done += 1
    assert done >= 8


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_chorizo4_cycle_generation_yields_all():
    res = gn.gen_by_cycle_decomposition(pm.chorizo(4))
    assert res.count == 16
    assert {d.bits for d in res.diagrams} == {d.bits for d in
                                              iv.assignments(pm.chorizo(4))}
    assert gn.replay_all(res)


def test_cycle_generation_count_is_product(corpus_shadow):
    s = corpus_shadow
    dec = dc.greedy_cycle_decomposition(s)
    res = gn.gen_by_cycle_decomposition(s, dec)
    expect = 1
    for step in dec.steps:
        expect *= 2 if len(step.c_slots) == 1 else 4
    assert res.count == expect
    assert gn.replay_all(res)


def test_digon_generation_odd(corpus):
    for n in (3, 5, 9):
        s = pm.cn(n)
        d = dc.greedy_cycle_decomposition(s)
        pair = dc.reduce_to_subshadow(s, d, 0, 1)
        res = gn.gen_by_digons(s, pair)
        assert res.method == "digons-odd"
        assert res.count == 1 << ((n + 1) // 2)
        for dd in res.diagrams:
            assert iv.classify(dd).kind == "unknot"
        assert gn.replay_all(res)


def _even_digon_result():
    """Digon generation on the last primary pair of ``random_shadow(8, 908)``
    sharing an even number m >= 2 of vertices; returns (result, m)."""
    s = pm.random_shadow(8, 908)
    d = dc.greedy_cycle_decomposition(s)
    best = None
    for r in range(len(d.primary_vertices)):
        for t in range(r + 1, len(d.primary_vertices)):
            m = len(d.primary_vertices[r] & d.primary_vertices[t])
            if m >= 2 and m % 2 == 0:
                best = (r, t, m)
    assert best is not None
    pair = dc.reduce_to_subshadow(s, d, best[0], best[1])
    return gn.gen_by_digons(s, pair), best[2]


def test_digon_generation_even():
    res, m = _even_digon_result()
    assert res.method == "digons-even"
    assert res.count == 1 << (m // 2)
    for dd in res.diagrams:
        assert iv.classify(dd).kind == "unknot"
    assert gn.replay_all(res)


# even-case shadows whose gray residual keeps vertices (1 and 5), so the
# extension also assigns bits from the residual's descending diagram
GRAY_RESIDUAL = {"digons-even-gray8": (8, 24), "digons-even-gray9": (9, 53)}


@pytest.mark.parametrize("route, rejected, flips", [
    ("cycles", 72, 72),
    ("digons-odd", 64, 72),
    ("digons-even", 32, 32),
    ("digons-even-gray8", 16, 16),
    ("digons-even-gray9", 18, 18),
])
def test_replay_rejects_flipped_bits(route, rejected, flips):
    # each of the first outputs, with one bit flipped, is replayed against
    # its original certificate
    if route == "cycles":
        res = gn.generate_unknots(pm.random_shadow(9, 5), method="cycles")
    elif route == "digons-odd":
        res = gn.generate_unknots(pm.cn(9))
    elif route in GRAY_RESIDUAL:
        res = gn.generate_unknots(pm.random_shadow(*GRAY_RESIDUAL[route]),
                                  method="digons")
        route = "digons-even"
    else:
        res, _ = _even_digon_result()
    assert res.method == route
    family = {d.bits for d in res.diagrams}
    accepted = []
    total = 0
    for i in range(min(8, res.count)):
        d = res.diagrams[i]
        for v in range(d.n):
            bits = list(d.bits)
            bits[v] ^= 1
            flipped = iv.Diagram(d.shadow, tuple(bits))
            tampered = dataclasses.replace(
                res, diagrams=res.diagrams[:i] + (flipped,) + res.diagrams[i + 1:])
            total += 1
            try:
                ok = gn.replay_certificate(tampered, i)
            except InternalInvariantViolation:
                ok = False
            if ok:
                accepted.append((v, flipped.bits))
    assert (total - len(accepted), total) == (rejected, flips)
    # the odd route's base vertex is free: both its values are members
    assert len({v for v, _ in accepted}) <= 1
    assert all(bits in family for _, bits in accepted)


def _replays(result, i):
    try:
        return gn.replay_certificate(result, i)
    except InternalInvariantViolation:
        return False


@pytest.mark.parametrize("route", ("cycles", "digons-odd", "digons-even"))
def test_replay_all_checks_every_output(route):
    # replay_all shares certificate suffixes between outputs; one non-first
    # output with one bit flipped must still decide it, exactly as the
    # outputs replayed one by one do
    if route == "cycles":
        res = gn.generate_unknots(pm.random_shadow(9, 5), method="cycles")
    elif route == "digons-odd":
        res = gn.generate_unknots(pm.cn(9))
    else:
        res, _ = _even_digon_result()
    assert res.method == route
    assert gn.replay_all(res)
    rejected = 0
    for i in sorted({1, res.count // 2, res.count - 1}):
        d = res.diagrams[i]
        for v in range(d.n):
            bits = list(d.bits)
            bits[v] ^= 1
            tampered = dataclasses.replace(
                res, diagrams=res.diagrams[:i] + (iv.Diagram(d.shadow, tuple(bits)),)
                + res.diagrams[i + 1:])
            ok = gn.replay_all(tampered)
            assert ok == _replays(tampered, i), (i, v)
            assert ok == all(_replays(tampered, j) for j in range(res.count))
            rejected += not ok
    assert rejected >= 2 * d.n


def test_generate_unknots_meets_bound(corpus_shadow):
    s = corpus_shadow
    res = gn.generate_unknots(s)
    assert res.count >= 1 << gn.ceil_cbrt(s.n)
    assert res.bound_satisfied
    assert len({d.bits for d in res.diagrams}) == res.count
    assert gn.replay_all(res)
    for d in res.diagrams:
        assert iv.classify(d).kind == "unknot"


def test_generate_methods_all_unknot():
    s = pm.cn(5)
    for method in ("auto", "cycles", "digons", "descending"):
        res = gn.generate_unknots(s, method=method)
        for d in res.diagrams:
            assert iv.classify(d).kind == "unknot"
        assert gn.replay_all(res)


def test_auto_uses_digons_when_decomposition_small():
    res = gn.generate_unknots(pm.cn(9))
    assert res.method.startswith("digons")
    assert res.count >= 8


# ---------------------------------------------------------------------------
# trefoil construction
# ---------------------------------------------------------------------------

def test_trefoil_none_for_all_cut(corpus):
    for k in (1, 2, 5, 8):
        assert gn.trefoil_diagram(pm.chorizo(k)) is None


def test_trefoil_found_on_cn3_and_fig8():
    for s in (pm.cn(3), pm.standard_trefoil(), pm.standard_figure8()):
        d = gn.trefoil_diagram(s)
        assert d is not None
        assert iv.classify(d).kind in ("trefoil_left", "trefoil_right")


def test_trefoil_agrees_with_cut_characterization(corpus_shadow):
    s = corpus_shadow
    if s.n == 0 or s.n > 8:
        return
    tre = gn.trefoil_diagram(s)
    assert (tre is None) == pm.all_cut_vertices(s)
    if tre is not None:
        assert iv.classify(tre).kind in ("trefoil_left", "trefoil_right")


def test_all_unknot_equivalence_exhaustive(corpus):
    for name, s in corpus:
        if not 1 <= s.n <= 7:
            continue
        all_unknot = all(iv.classify(d).kind == "unknot"
                         for d in iv.assignments(s))
        assert all_unknot == pm.all_cut_vertices(s), name
        assert all_unknot == (gn.trefoil_diagram(s) is None), name


# ---------------------------------------------------------------------------
# the doubled-ring family
# ---------------------------------------------------------------------------

def test_even_family_c3():
    rep = gn.verify_even_family(3)
    names = {cls.name for cls in rep["census"]}
    assert names <= {"unknot", "trefoil_left", "trefoil_right"}
    assert rep["figure_eight_count"] == 0


@pytest.mark.parametrize("n", (5, 7))
def test_even_family_no_figure_eight(n):
    rep = gn.verify_even_family(n)
    assert rep["figure_eight_count"] == 0
    assert rep["rii_verified"] == rep["non_alternating"]
    assert rep["ring_verified"] == rep["non_alternating"]


# ---------------------------------------------------------------------------
# larger-scale arithmetic examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shadow, method", [
    (pm.chorizo(4), "digons"),
    (pm.standard_figure8(), "digons"),
    (pm.cn(9), "cycles"),
])
def test_forced_route_off_the_theorem_may_miss_the_bound(shadow, method):
    res = gn.generate_unknots(shadow, method=method)
    assert not res.bound_satisfied
    assert gn.replay_all(res)


@pytest.mark.parametrize("shadow, builder, route", [
    (pm.chorizo(4), "gen_by_cycle_decomposition", "cycles"),
    (pm.cn(9), "gen_by_digons", "digons"),
])
def test_theorem_route_that_misses_the_bound_raises(monkeypatch, shadow, builder, route):
    real = getattr(gn, builder)

    def short(*args):
        res = real(*args)
        return dataclasses.replace(res, diagrams=res.diagrams[:1],
                                   certificates=res.certificates[:1])

    monkeypatch.setattr(gn, builder, short)
    for method in ("auto", route):
        with pytest.raises(InternalInvariantViolation, match="misses the bound"):
            gn.generate_unknots(shadow, method=method)


def test_pigeonhole_on_27_vertex_ring():
    s = pm.cn(27)
    dec = dc.greedy_cycle_decomposition(s)
    assert dec.size <= 3
    r, t, m = dc.find_shared_pair(dec)
    assert m >= 6


def test_generate_on_27_vertex_ring_meets_bound():
    s = pm.cn(27)
    res = gn.generate_unknots(s)
    assert res.count >= 8          # 2^ceil(cbrt 27) = 8
    assert res.method == "digons-odd"
    assert res.count == 1 << 14
    for i in range(0, res.count, res.count // 4):
        assert gn.replay_certificate(res, i)


def test_connected_sum_census_multiplicative_trefoil():
    s = pm.standard_trefoil()
    square = pm.connected_sum(s, s)
    u1 = iv.unknot_count(iv.census(s))
    u2 = iv.unknot_count(iv.census(square))
    assert u2 == u1 * u1 == 36


def test_trefoil_on_shadow_without_multivertex_cycles():
    # a shadow whose straight-ahead cycles are all loops, yet three of its
    # vertices are not cut-vertices: the constructor must reduce curls first
    s = pm.random_shadow(7, 538)
    cycles = dc.enumerate_straight_ahead_cycles(s)
    assert all(len(set(c.vertices())) == 1 for c in cycles)
    assert not pm.all_cut_vertices(s)
    d = gn.trefoil_diagram(s)
    assert d is not None
    assert iv.classify(d).kind in ("trefoil_left", "trefoil_right")


def test_loop_quotient_doubles_census_classes(corpus):
    # removing a curl never changes an assignment's knot class, so the
    # census doubles exactly
    for name, s in corpus:
        if not 1 <= s.n <= 6:
            continue
        loop = next((c for c in dc.enumerate_straight_ahead_cycles(s)
                     if len(set(c.vertices())) == 1), None)
        if loop is None:
            continue
        step = dc.quotient(s, loop)
        parent = iv.census(s)
        child = iv.census(step.child)
        assert parent == {cls: 2 * k for cls, k in child.items()}, name
