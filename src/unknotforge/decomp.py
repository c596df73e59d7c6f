"""Straight-ahead cycles, quotients, and cycle decompositions.

Removing the edges of a straight-ahead cycle and suppressing the resulting
degree-2 vertices yields a smaller shadow; iterating down to the trivial
shadow produces a cycle decomposition.  The primary sequence lifts the
removed cycles back to pairwise edge-disjoint cycles of the original shadow
whose union is the whole shadow, with every vertex on exactly two of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import planemap as pm
from .errors import (
    CycleNotStraightAhead,
    InternalInvariantViolation,
    NotAKnotShadow,
    PreconditionViolated,
)


@dataclass(frozen=True)
class StraightAheadCycle:
    """A cycle traversed by a straight-ahead walk; the walk turns only at
    its root vertex."""

    root: int
    darts: tuple            # exit darts along the walk, first at the root

    def __len__(self):
        return len(self.darts)

    def vertices(self):
        return tuple(pm.vertex_of(d) for d in self.darts)

    def edge_ids(self, shadow: pm.Shadow):
        return frozenset(shadow.edge_id(d) for d in self.darts)


def check_cycle(shadow: pm.Shadow, cyc: StraightAheadCycle) -> None:
    if not cyc.darts:
        raise CycleNotStraightAhead("empty dart sequence")
    for a, b in zip(cyc.darts, cyc.darts[1:]):
        if shadow.sigma(a) != b:
            raise CycleNotStraightAhead("consecutive darts are not sigma-linked")
    closing = pm.vertex_of(shadow.twin[cyc.darts[-1]])
    if closing != cyc.root or pm.vertex_of(cyc.darts[0]) != cyc.root:
        raise CycleNotStraightAhead("walk does not close at its root")
    verts = cyc.vertices()
    if len(set(verts)) != len(verts):
        raise CycleNotStraightAhead("cycle revisits a vertex")


def first_cycle(shadow: pm.Shadow, darts) -> StraightAheadCycle | None:
    """The straight-ahead cycle enclosed by the first repeated vertex along
    a straight-ahead dart sequence, rooted there; None when no vertex
    repeats."""
    first_pos = {}
    for k, d in enumerate(darts):
        v = pm.vertex_of(d)
        if v in first_pos:
            cyc = StraightAheadCycle(v, tuple(darts[first_pos[v]:k]))
            check_cycle(shadow, cyc)
            return cyc
        first_pos[v] = k
    return None


def find_straight_ahead_cycle(shadow: pm.Shadow, walk: pm.Walk) -> StraightAheadCycle:
    """First straight-ahead cycle met along a closed walk: the one of
    ``first_cycle``, or the whole walk when it repeats no vertex."""
    if not walk.darts:
        raise PreconditionViolated("walk has no darts")
    cyc = first_cycle(shadow, walk.darts)
    if cyc is None:
        cyc = StraightAheadCycle(walk.start_vertex, tuple(walk.darts))
        check_cycle(shadow, cyc)
    return cyc


def enumerate_straight_ahead_cycles(shadow: pm.Shadow):
    """All straight-ahead cycles, deduplicated by edge set, in the order
    their first witnessing dart appears; a generator, so a caller that
    stops at the first cycle it wants walks no further darts."""
    seen = set()
    for d0 in shadow.darts():
        root = pm.vertex_of(d0)
        visited = {root}
        seq = [d0]
        while True:
            nxt = pm.vertex_of(shadow.twin[seq[-1]])
            if nxt == root:
                cyc = StraightAheadCycle(root, tuple(seq))
                key = cyc.edge_ids(shadow)
                if key not in seen:
                    seen.add(key)
                    check_cycle(shadow, cyc)
                    yield cyc
                break
            if nxt in visited:
                break
            visited.add(nxt)
            seq.append(shadow.sigma(seq[-1]))


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientStep:
    """One quotient: the parent shadow, the removed cycle, and the child.

    ``c_slots`` records, per removed vertex, which slot darts carried the
    cycle; ``child_to_parent`` maps surviving vertices up.  ``edge_paths``
    and ``loop_paths`` describe how parent edges merged (parent darts in
    traversal order), which reconstructs the primary sequence.
    """

    parent: pm.Shadow
    cycle: StraightAheadCycle
    child: pm.Shadow
    child_to_parent: tuple
    c_slots: dict               # removed parent vertex -> its two cycle darts
    edge_paths: dict            # child edge id -> parent dart path
    loop_paths: tuple


def quotient(shadow: pm.Shadow, cyc: StraightAheadCycle) -> QuotientStep:
    """Remove the cycle's edges and suppress the resulting degree-2 vertices."""
    check_cycle(shadow, cyc)
    through = pm.cycle_through(shadow.twin, cyc.darts)
    c_slots = {pm.vertex_of(d): (d, through[d]) for d in cyc.darts}
    deleted = frozenset(shadow.edge_id(d) for d in cyc.darts)
    ex = pm.excise(shadow, through, deleted)
    return QuotientStep(
        parent=shadow,
        cycle=cyc,
        child=ex.child,
        child_to_parent=ex.old_vertex,
        c_slots=c_slots,
        edge_paths=ex.edge_paths,
        loop_paths=ex.loop_paths,
    )


def _path_edges(shadow: pm.Shadow, path) -> tuple:
    return tuple(shadow.edge_id(path[i]) for i in range(0, len(path), 2))


# ---------------------------------------------------------------------------
# Cycle decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleDecomposition:
    """Quotient chain ending at the trivial shadow plus the primary sequence.

    ``primary`` holds, per removed cycle, its subdivision inside the original
    shadow: a frozenset of edge ids and the frozenset of vertices on them.
    The last entry is the final free loop.
    """

    shadow: pm.Shadow
    steps: tuple
    primary_edges: tuple
    primary_vertices: tuple

    @property
    def size(self) -> int:
        return len(self.steps) + 1


def _vertices_of_edges(shadow: pm.Shadow, edge_ids) -> frozenset:
    out = set()
    for e in edge_ids:
        out.add(pm.vertex_of(e))
        out.add(pm.vertex_of(shadow.twin[e]))
    return frozenset(out)


def greedy_cycle_decomposition(shadow: pm.Shadow) -> CycleDecomposition:
    """Repeatedly extract the first cycle of the canonical walk and quotient.

    Deterministic: each walk starts at the least dart.  The primary sequence
    is reconstructed from the recorded edge merge paths.
    """
    report = pm.component_report(shadow)
    if not report.is_knot_shadow:
        raise NotAKnotShadow("cycle decompositions are defined for knot shadows")
    steps = []
    primary = []
    cur = shadow
    # current edge id -> tuple of original edge ids
    origin = {e: (e,) for e in shadow.edges()}
    while not cur.is_trivial():
        cyc = find_straight_ahead_cycle(cur, pm.eulerian_walk(cur))
        step = quotient(cur, cyc)
        primary.append(frozenset(
            oe for d in cyc.darts for oe in origin[cur.edge_id(d)]))
        new_origin = {}
        for ce, path in step.edge_paths.items():
            acc = []
            for pe in _path_edges(cur, path):
                acc.extend(origin[pe])
            new_origin[ce] = tuple(acc)
        if step.loop_paths:
            if not step.child.is_trivial():
                raise InternalInvariantViolation(
                    "free loop appeared before the trivial shadow")
            loop_edges = []
            for path in step.loop_paths:
                for pe in _path_edges(cur, path):
                    loop_edges.extend(origin[pe])
            primary.append(frozenset(loop_edges))
        steps.append(step)
        cur = step.child
        origin = new_origin
    if not steps:
        primary.append(frozenset())     # the trivial shadow's own free loop
    p_edges = tuple(primary)
    p_vertices = tuple(_vertices_of_edges(shadow, es) for es in p_edges)
    return CycleDecomposition(shadow, tuple(steps), p_edges, p_vertices)


def decomposition_report(dec: CycleDecomposition) -> dict:
    """The removed cycles as vertex sequences, for CLI inspection."""
    return {
        "size": dec.size,
        "cycles": [list(step.cycle.vertices()) for step in dec.steps] + [[]],
        "primary_vertices": [sorted(vs) for vs in dec.primary_vertices],
    }


def find_shared_pair(dec: CycleDecomposition):
    """Pair of primary cycles with the most common vertices.

    Returns (r, s, m) with 0-based indices, lexicographically least among
    the maxima.
    """
    p = len(dec.primary_vertices)
    best = (0, 1, -1)
    for r in range(p):
        for s in range(r + 1, p):
            m = len(dec.primary_vertices[r] & dec.primary_vertices[s])
            if m > best[2]:
                best = (r, s, m)
    if best[2] < 0:
        raise PreconditionViolated("decomposition has fewer than two cycles")
    return best


# ---------------------------------------------------------------------------
# Subshadow reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharedCyclePair:
    """Two straight-ahead cycles of a subshadow with many common vertices,
    plus the quotient chain leading back up to the original shadow."""

    subshadow: pm.Shadow
    blue: StraightAheadCycle
    red: StraightAheadCycle
    shared_vertices: tuple
    lift_chain: tuple            # QuotientSteps from the original down

    @property
    def m(self) -> int:
        return len(self.shared_vertices)


def cycle_from_edges(shadow: pm.Shadow, edge_ids):
    """Interpret an edge set as a straight-ahead cycle, or return None.

    The edge set must induce degree 2 on its vertices; it is straight-ahead
    exactly when at most one vertex sees its two cycle darts on rotation-
    adjacent slots (that vertex is the root).
    """
    darts_at = {}
    for e in edge_ids:
        for d in (e, shadow.twin[e]):
            darts_at.setdefault(pm.vertex_of(d), []).append(d)
    roots = []
    for v, ds in darts_at.items():
        if len(ds) != 2:
            return None
        if (ds[0] ^ ds[1]) & 3 != 2:
            roots.append(v)
    if len(roots) != 1:
        return None
    root = roots[0]
    start = min(d for d in darts_at[root])
    seq = [start]
    while True:
        nxt = shadow.twin[seq[-1]]
        if pm.vertex_of(nxt) == root:
            break
        seq.append(nxt ^ 2)
        if len(seq) > 4 * shadow.n:
            return None
    cyc = StraightAheadCycle(root, tuple(seq))
    try:
        check_cycle(shadow, cyc)
    except CycleNotStraightAhead:
        return None
    if cyc.edge_ids(shadow) != frozenset(edge_ids):
        return None
    return cyc


def reduce_to_subshadow(shadow: pm.Shadow, dec: CycleDecomposition,
                        r: int, s: int) -> SharedCyclePair:
    """Quotient away other primary cycles until the chosen two are
    straight-ahead.

    Every quotient uses a straight-ahead primary cycle other than the two
    tracked ones; one always exists because every cycle decomposition of a
    nontrivial shadow has at least two straight-ahead primary cycles.  The
    shared vertex count is preserved throughout.
    """
    if r == s:
        raise PreconditionViolated("need two distinct cycle indices")
    m0 = len(dec.primary_vertices[r] & dec.primary_vertices[s])
    cur = shadow
    # current edge id -> owning primary index
    owner = {}
    for i, es in enumerate(dec.primary_edges):
        for e in es:
            owner[e] = i
    chain = []
    while True:
        groups = {}
        for e in cur.edges():
            groups.setdefault(owner[e], set()).add(e)
        cyc_r = cycle_from_edges(cur, groups.get(r, ()))
        cyc_s = cycle_from_edges(cur, groups.get(s, ()))
        if cyc_r is not None and cyc_s is not None:
            shared = sorted(set(cyc_r.vertices()) & set(cyc_s.vertices()))
            if len(shared) != m0:
                raise InternalInvariantViolation(
                    f"shared count changed: {m0} -> {len(shared)}")
            return SharedCyclePair(cur, cyc_r, cyc_s, tuple(shared), tuple(chain))
        candidate = None
        for i in sorted(groups):
            if i in (r, s):
                continue
            cyc = cycle_from_edges(cur, groups[i])
            if cyc is not None:
                candidate = (i, cyc)
                break
        if candidate is None:
            raise InternalInvariantViolation(
                "no straight-ahead cycle available to quotient by")
        i, cyc = candidate
        step = quotient(cur, cyc)
        if step.loop_paths:
            raise InternalInvariantViolation("reduction produced a free loop")
        chain.append(step)
        new_owner = {}
        for ce, path in step.edge_paths.items():
            owners = {owner[pe] for pe in _path_edges(cur, path)}
            if len(owners) != 1:
                raise InternalInvariantViolation("edge merge crossed cycle bounds")
            new_owner[ce] = owners.pop()
        owner = new_owner
        cur = step.child
