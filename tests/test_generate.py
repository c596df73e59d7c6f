"""Generators: descending, cycle lifts, digon routes, trefoil, even family."""

import dataclasses
import itertools
import math
import sys

import pytest

from unknotforge import acceptance as ac
from unknotforge import decomp as dc
from unknotforge import digon as dg
from unknotforge import generate as gn
from unknotforge import invariants as iv
from unknotforge import planemap as pm
from unknotforge.errors import (
    InternalInvariantViolation,
    LimitExceeded,
    NotAKnotShadow,
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
        cycles = list(dc.enumerate_straight_ahead_cycles(s))
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
    s, pair, m = _even_digon_pair()
    return gn.gen_by_digons(s, pair), m


def _even_digon_pair():
    """``random_shadow(8, 908)``, its reduced pair for the even route, and m."""
    s = pm.random_shadow(8, 908)
    d = dc.greedy_cycle_decomposition(s)
    best = None
    for r in range(len(d.primary_vertices)):
        for t in range(r + 1, len(d.primary_vertices)):
            m = len(d.primary_vertices[r] & d.primary_vertices[t])
            if m >= 2 and m % 2 == 0:
                best = (r, t, m)
    assert best is not None
    return s, dc.reduce_to_subshadow(s, d, best[0], best[1]), best[2]


def test_split_moves_want_the_blue_pass_or_its_complement():
    s = pm.cn(9)
    pair = dc.reduce_to_subshadow(s, dc.greedy_cycle_decomposition(s), 0, 1)
    odd = dg.build_overlay(pair.subshadow, pair.blue, pair.red)
    for ov, stop_m in [(odd, 1)] + [(dg.random_overlay(8, seed), 0)
                                    for seed in range(5)]:
        moves, base = gn._split_moves(ov, stop_m)
        assert len(moves) == (ov.m - stop_m) // 2 and base.m == stop_m
        cur = ov
        for blue, red in moves:
            g = dg.digon_avoiding(cur)
            assert blue.want == tuple((w, cur.blue_parity(w)) for w in (g.u, g.v))
            assert red.want == tuple((w, b ^ 1) for w, b in blue.want)
            cur, child_to_parent = dg.split_digon(cur, g)
            for move in (blue, red):
                assert move.child == cur.shadow
                assert move.child_to_parent == child_to_parent
                assert move.bigon == {g.blue_edge, g.red_edge}


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
            if gn.replay_certificate(tampered, i):
                accepted.append((v, flipped.bits))
    assert (total - len(accepted), total) == (rejected, flips)
    # the odd route's base vertex is free: both its values are members
    assert len({v for v, _ in accepted}) <= 1
    assert all(bits in family for _, bits in accepted)


def _replays_alone(result, i):
    """Output i replayed anew, on a copy with an empty memo."""
    return gn.replay_certificate(dataclasses.replace(result), i)


def _route_result(route):
    if route == "cycles":
        res = gn.generate_unknots(pm.random_shadow(9, 5), method="cycles")
    elif route == "digons-odd":
        res = gn.generate_unknots(pm.cn(9))
    else:
        res, _ = _even_digon_result()
    assert res.method == route
    return res


def _flipped(result, i, v):
    """A copy of ``result`` with bit v of output i flipped."""
    d = result.diagrams[i]
    bits = list(d.bits)
    bits[v] ^= 1
    return dataclasses.replace(
        result, diagrams=result.diagrams[:i] + (iv.Diagram(d.shadow, tuple(bits)),)
        + result.diagrams[i + 1:])


ROUTES = ("cycles", "digons-odd", "digons-even")


def test_restrict_keeps_the_survivor_bits_in_child_order():
    # every move of every route's certificates, applied along each output,
    # against the bits read one child vertex at a time; moves onto one
    # child vertex and onto none are among them
    sizes = set()
    for route in ROUTES:
        res = _route_result(route)
        for i, d in enumerate(res.diagrams):
            shadow, bits = d.shadow, d.bits
            for move in res.certificate(i):
                child_bits = move.apply(shadow, bits)
                assert child_bits == tuple(bits[pv] for pv in move.child_to_parent)
                sizes.add(min(len(child_bits), 2))
                shadow, bits = move.child, child_bits
    assert sizes == {0, 1, 2}


@pytest.mark.parametrize("route", ("digons-odd", "digons-even"))
def test_replay_rejects_a_split_whose_bigon_is_no_face(route):
    # the first split level of every output, with its bigon moved to two
    # edges that bound no 2-face of the shadow it applies to
    res = _route_result(route)
    d = res.diagrams[0]
    shadow, bits = d.shadow, d.bits
    for k, level in enumerate(res.levels[:-1]):
        move = level.options[0]
        if move.bigon is not None:
            break
        shadow, bits = move.child, move.apply(shadow, bits)
    else:
        raise AssertionError("no split level")
    faces = {frozenset(shadow.edge_id(x) for x in f)
             for f in pm.faces(shadow) if len(f) == 2}
    assert move.bigon in faces
    bad = next(frozenset(pair) for pair in itertools.combinations(shadow.edges(), 2)
               if frozenset(pair) not in faces)
    with pytest.raises(InternalInvariantViolation, match="not a bigon face"):
        dataclasses.replace(move, bigon=bad).apply(shadow, bits)
    levels = list(res.levels)
    levels[k] = dataclasses.replace(level, options=tuple(
        dataclasses.replace(m, bigon=bad) for m in level.options))
    tampered = dataclasses.replace(res, levels=tuple(levels))
    assert all(_replays_alone(res, i) for i in range(res.count))
    assert not any(gn.replay_certificate(tampered, i) for i in range(res.count))


@pytest.mark.parametrize("route", ROUTES)
def test_replay_all_checks_every_output(route):
    # replays share certificate suffixes between outputs; one non-first
    # output with one bit flipped must still decide it, exactly as the
    # outputs replayed one by one do
    res = _route_result(route)
    assert gn.replay_all(res)
    rejected = 0
    for i in sorted({1, res.count // 2, res.count - 1}):
        d = res.diagrams[i]
        for v in range(d.n):
            tampered = _flipped(res, i, v)
            ok = gn.replay_all(tampered)
            assert ok == _replays_alone(tampered, i), (i, v)
            assert ok == all(_replays_alone(tampered, j) for j in range(res.count))
            rejected += not ok
    assert rejected >= 2 * d.n


@pytest.mark.parametrize("route", ROUTES)
def test_replay_all_replays_each_output_through_replay_certificate(
        route, monkeypatch):
    # replay_all looks replay_certificate up on the module, once per output,
    # and stops at the first output that fails
    res = _route_result(route)
    i = res.count // 2
    tampered = next(t for t in (_flipped(res, i, v) for v in range(res.shadow.n))
                    if not _replays_alone(t, i))
    original = gn.replay_certificate
    calls = []

    def counting(result, index):
        calls.append(index)
        return original(result, index)

    monkeypatch.setattr(gn, "replay_certificate", counting)
    assert gn.replay_all(res)
    assert calls == list(range(res.count))
    calls.clear()
    assert not gn.replay_all(tampered)
    assert calls == list(range(i + 1))


@pytest.mark.parametrize("route, applies", [
    ("cycles", 26), ("digons-odd", 60), ("digons-even", 10),
])
def test_replay_all_applies_each_shared_move_once(route, applies, monkeypatch):
    # the memo's work, pinned: replaying every output applies each move of
    # a shared suffix once, well under one apply per output and level
    res = _route_result(route)
    original = gn.Restrict.apply
    calls = []

    def counting(self, shadow, bits):
        calls.append(self)
        return original(self, shadow, bits)

    monkeypatch.setattr(gn.Restrict, "apply", counting)
    assert gn.replay_all(res)
    assert len(calls) == applies < res.count * (len(res.levels) - 1)


@pytest.mark.parametrize("route", ROUTES)
def test_replay_memo_belongs_to_one_result(route):
    # a replace copy of a replayed result starts with an empty memo, so a
    # flipped bit in a non-first output still fails its replay
    res = _route_result(route)
    assert gn.replay_all(res) and res.replayed
    i = res.count - 1
    fails = [v for v in range(res.shadow.n)
             if not _replays_alone(_flipped(_route_result(route), i, v), i)]
    assert fails
    for v in fails:
        tampered = _flipped(res, i, v)
        assert not tampered.replayed
        assert not gn.replay_all(tampered)


@pytest.mark.parametrize("route", ROUTES)
def test_replaying_twice_gives_the_same_answers(route):
    res = _route_result(route)
    tampered = _flipped(res, res.count - 1, 0)
    for result in (res, tampered):
        indices = range(result.count)
        first = [gn.replay_certificate(result, i) for i in indices]
        assert [gn.replay_certificate(result, i) for i in indices] == first
        assert gn.replay_all(result) == gn.replay_all(result) == all(first)
    assert gn.replay_all(res)


@pytest.mark.parametrize("route", ROUTES)
def test_replay_memo_keeps_a_tampered_survivor_apart(route):
    # output i differs from output 0 only at the first level with a choice,
    # so after that level both have the same suffix index, and output 0's
    # replay puts that node in the memo first; a flipped bit of output i
    # that survives the level must still be replayed from there
    res = _route_result(route)
    k = next(k for k, level in enumerate(res.levels[:-1]) if len(level.options) > 1)
    i = res.levels[k].stride
    cert = res.certificate(i)
    assert cert[:k] + cert[k + 1:] == res.certificate(0)[:k] + res.certificate(0)[k + 1:]
    survivors = list(range(res.shadow.n))
    for move in cert[:k + 1]:
        survivors = [survivors[pv] for pv in move.child_to_parent]
    assert survivors
    rejected = 0
    for v in survivors:
        tampered = _flipped(res, i, v)
        ok = gn.replay_all(tampered)
        assert any(key[:2] == (k + 1, 0) for key in tampered.replayed)
        assert ok == all(_replays_alone(tampered, j) for j in range(res.count))
        rejected += not ok
    # only the odd route's free base vertex replays either way
    assert rejected == len(survivors) - (route == "digons-odd")


# ---------------------------------------------------------------------------
# the order of a family's outputs
# ---------------------------------------------------------------------------

def _lift(move, child_bits):
    """The parent bits of ``child_bits`` under ``move``, one vertex at a time."""
    bits = [None] * (len(move.want) + len(move.child_to_parent))
    for cv, pv in enumerate(move.child_to_parent):
        bits[pv] = child_bits[cv]
    for v, b in move.want:
        bits[v] = b
    assert None not in bits
    return tuple(bits)


def _reference_cycles(shadow, dec):
    """(bits, certificate) of every cycles output: ``itertools.product`` over
    the step moves, the first step slowest, and each output's bits set from
    its wants pushed up to the shadow."""
    to_top = []
    cur = {v: v for v in range(shadow.n)}
    moves = []
    for step in dec.steps:
        to_top.append(dict(cur))
        cur = {cv: cur[pv] for cv, pv in enumerate(step.child_to_parent)}
        sides = (pm.OVER, pm.UNDER) if len(step.c_slots) > 1 else (pm.OVER,)
        moves.append([gn._cycle_move(step, side, rb) for side in sides for rb in (0, 1)])
    out = []
    for cert in itertools.product(*moves):
        bits = [None] * shadow.n
        for move, up in zip(cert, to_top):
            for v, b in move.want:
                bits[up[v]] = b
        out.append((tuple(bits), cert))
    return out


def _reference_digons(pair):
    """(bits, certificate) of every digon output, lifted bottom up from the
    bases with the outermost move fastest."""
    overlay = dg.build_overlay(pair.subshadow, pair.blue, pair.red)
    steps = [[gn._cycle_move(step, pm.OVER, 0)] for step in pair.lift_chain]
    if overlay.kind == "odd":
        splits, _ = gn._split_moves(overlay, 1)
        bases = [(0,), (1,)]
    else:
        splits, _ = gn._split_moves(overlay, 0)
        steps.append([gn._even_extension(pair.subshadow, pair, overlay)])
        bases = [()]
    lifted = [(bits, ()) for bits in bases]
    for options in reversed(steps + splits):
        lifted = [(_lift(m, bits), (m,) + cert) for bits, cert in lifted for m in options]
    return lifted


def _assert_order(res, reference):
    sizes = [len(level.options) for level in res.levels]
    assert res.count == math.prod(sizes) == len(res.diagrams) == len(reference)
    for i, (bits, cert) in enumerate(reference):
        assert res.diagrams[i].bits == bits, i
        assert res.certificate(i) == cert, i


def test_outputs_follow_the_reference_order():
    shadows = [s for _, s in ac.builder_corpus()]
    shadows += [pm.random_shadow(n, 11) for n in range(3, 13)]
    shadows += [pm.random_shadow(*args) for args in GRAY_RESIDUAL.values()]
    methods = set()
    for s in shadows:
        dec = dc.greedy_cycle_decomposition(s)
        _assert_order(gn.gen_by_cycle_decomposition(s, dec), _reference_cycles(s, dec))
        if s.n:
            r, t, _ = dc.find_shared_pair(dec)
            pair = dc.reduce_to_subshadow(s, dec, r, t)
            res = gn.gen_by_digons(s, pair)
            _assert_order(res, _reference_digons(pair))
            methods.add(res.method)
    s, pair, _ = _even_digon_pair()
    _assert_order(gn.gen_by_digons(s, pair), _reference_digons(pair))
    assert methods == {"digons-odd", "digons-even"}


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


def test_even_family_counts_are_the_classify_counts():
    rep = gn.verify_even_family(5)
    counts = {}
    for diagram in iv.assignments(pm.cn(5)):
        cls = iv.classify(diagram)
        counts[cls] = counts.get(cls, 0) + 1
    assert rep["census"] == counts
    assert rep["non_alternating"] == 30


def test_even_family_census_limit():
    with pytest.raises(LimitExceeded):
        gn.verify_even_family(iv.DEFAULT_LIMIT + 1)


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
        # the family cut down to its first output at every level
        res = real(*args)
        return dataclasses.replace(
            res, diagrams=res.diagrams[:1],
            levels=tuple(gn.Level(level.options[:1], 1) for level in res.levels))

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


def test_trefoil_checks_its_shadow_once(monkeypatch):
    # the shadow recurses over quotients five times; a quotient of a knot
    # shadow by a straight-ahead cycle is one too, so trefoil_diagram checks
    # only its own input, and still rejects a link
    report = pm.component_report
    checks, quotients = [], []

    def counting(shadow):
        if sys._getframe(1).f_code is gn.trefoil_diagram.__code__:
            checks.append(shadow)
        return report(shadow)

    over_quotient = gn._trefoil_over_quotient

    def recursing(*args):
        quotients.append(args)
        return over_quotient(*args)

    monkeypatch.setattr(pm, "component_report", counting)
    monkeypatch.setattr(gn, "_trefoil_over_quotient", recursing)
    s = pm.random_shadow(8, 2)
    d = gn.trefoil_diagram(s)
    assert iv.classify(d).kind in ("trefoil_left", "trefoil_right")
    assert checks == [s] and len(quotients) == 5
    with pytest.raises(NotAKnotShadow):
        gn.trefoil_diagram(pm.build_shadow([(0, 6), (2, 4), (1, 5), (3, 7)]))


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
