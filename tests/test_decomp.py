"""Cycles, quotients, decompositions, shared pairs, subshadow reduction."""

from collections import Counter

import pytest

from unknotforge import decomp as dc
from unknotforge import planemap as pm
from unknotforge.errors import CycleNotStraightAhead


def test_first_cycle_of_one_vertex_loop():
    s = pm.one_vertex()
    w = pm.eulerian_walk(s)
    c = dc.find_straight_ahead_cycle(s, w)
    assert len(c) == 1 and c.root == 0


def test_first_cycle_of_trefoil_walk():
    s = pm.standard_trefoil()
    c = dc.find_straight_ahead_cycle(s, pm.eulerian_walk(s))
    assert len(set(c.vertices())) == 3
    assert c.root == 0


def test_walk_that_is_already_a_cycle_returned_unchanged():
    s = pm.cn(3)
    c = dc.find_straight_ahead_cycle(s, pm.eulerian_walk(s))
    w = pm.Walk(c.darts, c.root)
    again = dc.find_straight_ahead_cycle(s, w)
    assert again.darts == c.darts


def test_first_cycle_none_without_a_repeated_vertex():
    s = pm.cn(3)
    walk = pm.eulerian_walk(s)
    c = dc.first_cycle(s, walk.darts)
    assert c == dc.find_straight_ahead_cycle(s, walk)
    # the cycle itself is a path through three distinct vertices
    assert len(set(c.vertices())) == 3
    assert dc.first_cycle(s, c.darts) is None
    assert dc.first_cycle(s, ()) is None


def test_cycle_validation_rejects_gaps():
    s = pm.standard_trefoil()
    with pytest.raises(CycleNotStraightAhead):
        dc.check_cycle(s, dc.StraightAheadCycle(0, (0, 1)))


def test_straight_ahead_cycles_have_odd_length(corpus):
    # the complement walk crosses a cycle transversally once per non-root
    # vertex, and a closed curve is crossed an even number of times
    for name, s in corpus:
        for c in dc.enumerate_straight_ahead_cycles(s):
            assert len(set(c.vertices())) % 2 == 1, name


# ---------------------------------------------------------------------------
# quotient
# ---------------------------------------------------------------------------

def test_quotient_one_vertex_to_trivial():
    s = pm.one_vertex()
    c = dc.find_straight_ahead_cycle(s, pm.eulerian_walk(s))
    step = dc.quotient(s, c)
    assert step.child.is_trivial()


def test_quotient_drops_exactly_cycle_vertices(corpus_shadow):
    s = corpus_shadow
    if s.n == 0:
        return
    c = dc.find_straight_ahead_cycle(s, pm.eulerian_walk(s))
    step = dc.quotient(s, c)
    assert step.child.n == s.n - len(set(c.vertices()))
    assert pm.component_report(step.child).is_knot_shadow


def test_quotient_round_trip_reconstructs_parent(corpus_shadow):
    # re-expanding the recorded edge paths recovers the parent's twin pairs
    s = corpus_shadow
    if s.n == 0:
        return
    c = dc.find_straight_ahead_cycle(s, pm.eulerian_walk(s))
    step = dc.quotient(s, c)
    recovered = set()
    for path in step.edge_paths.values():
        for k in range(0, len(path), 2):
            recovered.add(frozenset((path[k], path[k + 1])))
    for path in step.loop_paths:
        for k in range(0, len(path), 2):
            recovered.add(frozenset((path[k], path[k + 1])))
    cycle_edges = {frozenset((d, s.twin[d])) for d in c.darts}
    expected = {frozenset((e, s.twin[e])) for e in s.edges()} - cycle_edges
    assert recovered == expected


def test_iterated_quotients_terminate(corpus_shadow):
    s = corpus_shadow
    seen = 0
    while not s.is_trivial():
        c = dc.find_straight_ahead_cycle(s, pm.eulerian_walk(s))
        s = dc.quotient(s, c).child
        seen += 1
        assert seen < 100


# ---------------------------------------------------------------------------
# greedy decomposition
# ---------------------------------------------------------------------------

def test_trivial_decomposition_size_one():
    d = dc.greedy_cycle_decomposition(pm.trivial())
    assert d.size == 1


def test_chorizo_decomposition_all_singletons():
    d = dc.greedy_cycle_decomposition(pm.chorizo(4))
    assert d.size == 5
    assert all(len(set(s.cycle.vertices())) == 1 for s in d.steps)


def test_primary_sequence_partitions_edges(corpus_shadow):
    s = corpus_shadow
    d = dc.greedy_cycle_decomposition(s)
    all_edges = set()
    for es in d.primary_edges:
        assert not (all_edges & es)
        all_edges |= es
    assert all_edges == set(s.edges())
    counts = Counter()
    for vs in d.primary_vertices:
        counts.update(vs)
    assert all(counts[v] == 2 for v in range(s.n))
    assert sum(len(vs) for vs in d.primary_vertices) == 2 * s.n


def test_prop_two_straight_ahead_primaries(corpus_shadow):
    # every decomposition of a nontrivial shadow keeps at least two primary
    # cycles straight-ahead in the original
    s = corpus_shadow
    if s.n == 0:
        return
    d = dc.greedy_cycle_decomposition(s)
    straight = sum(
        1 for es in d.primary_edges
        if es and dc.cycle_from_edges(s, es) is not None)
    assert straight >= 2 or d.size == 2 and straight >= 1 or s.n == 0
    if d.size >= 2:
        assert straight >= 2


def test_prop_quotient_preserves_most_straight_cycles(corpus):
    # among any edge-disjoint family of straight-ahead cycles of the child
    # (here: the primary cycles of its own decomposition), at most one fails
    # to come from a straight-ahead cycle of the parent: only one of them
    # can use the merged edge hiding the removed cycle's root.  Without
    # edge-disjointness several cycles may share that edge and all fail.
    import random
    rng = random.Random(3)
    for name, s in corpus:
        if s.n == 0:
            continue
        cycles = dc.enumerate_straight_ahead_cycles(s)
        c = cycles[rng.randrange(len(cycles))]
        step = dc.quotient(s, c)
        child = step.child
        if child.is_trivial():
            continue
        child_dec = dc.greedy_cycle_decomposition(child)
        bad = 0
        for es in child_dec.primary_edges:
            cc = dc.cycle_from_edges(child, es)
            if cc is None:
                continue        # not straight-ahead in the child itself
            parent_edges = set()
            for d in cc.darts:
                path = step.edge_paths[child.edge_id(d)]
                for k in range(0, len(path), 2):
                    parent_edges.add(s.edge_id(path[k]))
            if dc.cycle_from_edges(s, frozenset(parent_edges)) is None:
                bad += 1
        assert bad <= 1, name


# ---------------------------------------------------------------------------
# shared pairs and reduction
# ---------------------------------------------------------------------------

def test_cn3_shared_pair_all_vertices():
    d = dc.greedy_cycle_decomposition(pm.cn(3))
    assert dc.find_shared_pair(d) == (0, 1, 3)


def test_chorizo_shared_pairs_one_vertex():
    d = dc.greedy_cycle_decomposition(pm.chorizo(4))
    r, s, m = dc.find_shared_pair(d)
    assert m == 1


def test_pigeonhole_when_decomposition_small(corpus):
    for name, s in corpus:
        d = dc.greedy_cycle_decomposition(s)
        if d.size ** 3 < s.n:
            _, _, m = dc.find_shared_pair(d)
            assert m ** 3 >= 8 * s.n, name


def test_reduce_cn3_is_identity():
    s = pm.cn(3)
    d = dc.greedy_cycle_decomposition(s)
    pair = dc.reduce_to_subshadow(s, d, 0, 1)
    assert pair.subshadow == s
    assert pair.lift_chain == ()
    assert pair.m == 3


def test_reduce_preserves_shared_count(corpus):
    for name, s in corpus:
        if s.n == 0:
            continue
        d = dc.greedy_cycle_decomposition(s)
        r, t, m = dc.find_shared_pair(d)
        if m == 0:
            continue
        pair = dc.reduce_to_subshadow(s, d, r, t)
        assert pair.m == m, name
        assert set(pair.blue.vertices()) & set(pair.red.vertices()) == \
            set(pair.shared_vertices)
        # both cycles straight-ahead in the subshadow by construction
        dc.check_cycle(pair.subshadow, pair.blue)
        dc.check_cycle(pair.subshadow, pair.red)


def test_decomposition_json_dump():
    import json
    d = dc.greedy_cycle_decomposition(pm.chorizo(3))
    payload = dc.decomposition_report(d)
    assert json.loads(json.dumps(payload)) == payload
    assert payload["size"] == d.size
    assert len(payload["cycles"]) == d.size
    assert all(len(c) == 1 for c in payload["cycles"][:-1])
