"""Plane maps of knot and link shadows.

A shadow is stored as a dart-based rotation system.  Vertex ``v`` owns the
four darts ``4v .. 4v+3``; the slot ``d % 4`` is the counterclockwise rotation
position of dart ``d`` at its vertex.  An involution ``twin`` pairs the two
half-edges of every edge.  The two strands through a vertex occupy the
opposite slot pairs {0,2} and {1,3}, so the straight-ahead successor of a
dart is ``twin(d) ^ 2``.

Vertex-less closed-curve components carry no darts and are counted by
``free_loops``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    InternalInvariantViolation,
    MissingOuterFace,
    NonOuterEdge,
    NonPlanar,
    NotAKnotShadow,
    NotInvolution,
    PreconditionViolated,
)

OVER = "over"
UNDER = "under"


# ---------------------------------------------------------------------------
# Dart arithmetic
# ---------------------------------------------------------------------------

def vertex_of(dart: int) -> int:
    return dart >> 2


def slot_of(dart: int) -> int:
    return dart & 3


def dart_at(vertex: int, slot: int) -> int:
    return 4 * vertex + (slot & 3)


def rotate(dart: int) -> int:
    """Next dart counterclockwise around the vertex."""
    return (dart & ~3) | ((dart + 1) & 3)


# ---------------------------------------------------------------------------
# Shadow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shadow:
    """An immutable 4-regular plane multigraph plus vertex-less free loops.

    ``twin`` maps every dart to its partner on the same edge.  ``outer_face``
    is the id of the unbounded face (face ids index the face list computed
    from the rotation system; the trivial shadow uses 0 by convention).
    """

    n: int
    twin: tuple
    free_loops: int = 0
    outer_face: int = 0

    def darts(self):
        return range(4 * self.n)

    def sigma(self, dart: int) -> int:
        """Straight-ahead successor: cross the edge, leave by the opposite slot."""
        return self.twin[dart] ^ 2

    def edges(self):
        """Canonical edge ids (the smaller dart of each pair), sorted."""
        return [d for d in self.darts() if d < self.twin[d]]

    def edge_id(self, dart: int) -> int:
        """Canonical edge id: the smaller of the two paired darts."""
        t = self.twin[dart]
        return dart if dart < t else t

    def is_trivial(self) -> bool:
        return self.n == 0 and self.free_loops == 1

    def with_outer(self, outer_face: int) -> "Shadow":
        return Shadow(self.n, self.twin, self.free_loops, outer_face)

    def curve_count(self) -> int:
        """Number of closed curves, free loops included."""
        return len(sigma_orbits(self)) // 2 + self.free_loops


@dataclass(frozen=True)
class ComponentReport:
    kind: str                 # "trivial" | "knot" | "link" | "disconnected" | "empty"
    curve_count: int

    @property
    def is_knot_shadow(self) -> bool:
        return self.kind in ("trivial", "knot")


def sigma_orbits(shadow: Shadow):
    """Orbits of the straight-ahead permutation, in first-dart order."""
    twin = shadow.twin
    seen = [False] * (4 * shadow.n)
    orbits = []
    for start in range(4 * shadow.n):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = True
            orbit.append(d)
            d = twin[d] ^ 2
        orbits.append(tuple(orbit))
    return orbits


def graph_components(shadow: Shadow):
    """Vertex sets of the connected components of the underlying graph."""
    twin = shadow.twin
    seen = [False] * shadow.n
    comps = []
    for v0 in range(shadow.n):
        if seen[v0]:
            continue
        comp = [v0]
        seen[v0] = True
        stack = [v0]
        while stack:
            v = stack.pop()
            for s in range(4):
                w = vertex_of(twin[dart_at(v, s)])
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


@lru_cache(maxsize=4096)
def faces(shadow: Shadow):
    """Face orbits of the rotation system, ordered by least dart."""
    twin = shadow.twin
    seen = [False] * (4 * shadow.n)
    out = []
    for start in range(4 * shadow.n):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = True
            orbit.append(d)
            d = rotate(twin[d])
        out.append(tuple(orbit))
    return tuple(out)


def face_of_dart(shadow: Shadow, dart: int) -> int:
    for i, f in enumerate(faces(shadow)):
        if dart in f:
            return i
    raise ValueError(f"dart {dart} out of range")


def depth(shadow: Shadow) -> int:
    """Maximum dual-graph distance of a face from the outer face.

    Free loops are treated as nested once inside the outer face, so the
    trivial shadow has depth 1.
    """
    if shadow.outer_face is None:
        raise MissingOuterFace("shadow has no designated outer face")
    best = 1 if shadow.free_loops else 0
    if shadow.n == 0:
        return best
    fs = faces(shadow)
    if not 0 <= shadow.outer_face < len(fs):
        raise MissingOuterFace(f"outer face id {shadow.outer_face} out of range")
    face_of = [0] * (4 * shadow.n)
    for i, f in enumerate(fs):
        for d in f:
            face_of[d] = i
    # dual BFS from the outer face
    dist = [-1] * len(fs)
    dist[shadow.outer_face] = 0
    frontier = [shadow.outer_face]
    while frontier:
        nxt = []
        for f in frontier:
            for d in fs[f]:
                g = face_of[shadow.twin[d]]
                if dist[g] < 0:
                    dist[g] = dist[f] + 1
                    nxt.append(g)
        frontier = nxt
    return max(best, max(dist))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def component_report(shadow: Shadow) -> ComponentReport:
    orbits = sigma_orbits(shadow)
    if len(orbits) % 2:
        raise InternalInvariantViolation("odd straight-ahead orbit count")
    curves = len(orbits) // 2
    comps = graph_components(shadow)
    connected = len(comps) <= 1
    total_curves = curves + shadow.free_loops
    if shadow.n == 0:
        if shadow.free_loops == 0:
            kind = "empty"
        elif shadow.free_loops == 1:
            kind = "trivial"
        else:
            kind = "disconnected"
    elif not connected or shadow.free_loops > 0:
        kind = "disconnected"
    elif curves == 1:
        kind = "knot"
    else:
        kind = "link"
    return ComponentReport(kind, total_curves)


def validate_shadow(shadow: Shadow) -> ComponentReport:
    """Check involution, 4-regular dart bookkeeping, per-component planarity,
    and that the outer face id names a face."""
    nd = 4 * shadow.n
    twin = shadow.twin
    if len(twin) != nd:
        raise NotInvolution(f"twin table has {len(twin)} entries for {nd} darts")
    for d in range(nd):
        t = twin[d]
        if not 0 <= t < nd:
            raise NotInvolution(f"twin({d}) = {t} out of range")
        if t == d:
            raise NotInvolution(f"dart {d} paired with itself")
        if twin[t] != d:
            raise NotInvolution(f"twin is not an involution at dart {d}")
    if shadow.free_loops < 0:
        raise NotInvolution("free_loops must be nonnegative")
    # Euler's formula per connected component (sphere embedding each).
    if shadow.n:
        fs = faces(shadow)
        comp_of_vertex = {}
        comps = graph_components(shadow)
        for i, comp in enumerate(comps):
            for v in comp:
                comp_of_vertex[v] = i
        f_count = [0] * len(comps)
        for f in fs:
            f_count[comp_of_vertex[vertex_of(f[0])]] += 1
        for i, comp in enumerate(comps):
            # every component is 4-regular, so E = 2V and V-E+F = F-V
            v = len(comp)
            if f_count[i] - v != 2:
                raise NonPlanar(
                    f"component {i}: V-E+F = {v}-{2 * v}+{f_count[i]} != 2")
        if shadow.outer_face is None or not 0 <= shadow.outer_face < len(fs):
            raise MissingOuterFace(f"outer face id {shadow.outer_face} out of range")
    return component_report(shadow)


def build_shadow(twin_pairs, free_loops: int = 0, outer_face=None,
                 require_knot: bool = False) -> Shadow:
    """Assemble and validate a shadow from twin dart pairs.

    ``twin_pairs`` must cover every dart id 0..4n-1 exactly once with no dart
    paired to itself; ``validate_shadow`` checks that.  With ``require_knot``
    the curve structure must be a single closed curve (or the trivial
    shadow), else NotAKnotShadow.
    """
    pairs = [tuple(p) for p in twin_pairs]
    darts = [d for p in pairs for d in p]
    if not darts:
        n = 0
    else:
        hi = max(darts)
        if hi % 4 != 3:
            raise NotInvolution("dart ids must fill complete vertices of four")
        n = (hi + 1) // 4
    twin = [-1] * (4 * n)     # a dart left out stays out of range
    for a, b in pairs:
        twin[a] = b
        twin[b] = a
    shadow = Shadow(n, tuple(twin), free_loops, 0 if outer_face is None else outer_face)
    report = validate_shadow(shadow)
    if require_knot and not report.is_knot_shadow:
        raise NotAKnotShadow(f"expected a knot shadow, got {report.kind}")
    return shadow


# ---------------------------------------------------------------------------
# Walks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Walk:
    """A straight-ahead walk, stored as the sequence of exit darts."""

    darts: tuple
    start_vertex: int

    def __len__(self):
        return len(self.darts)

    def vertices(self):
        return tuple(vertex_of(d) for d in self.darts)


def straight_walk(shadow: Shadow, start_dart=None) -> Walk:
    """The straight-ahead orbit through ``start_dart`` as a closed walk."""
    if shadow.n == 0:
        return Walk((), -1)
    d0 = 0 if start_dart is None else start_dart
    if not 0 <= d0 < 4 * shadow.n:
        raise PreconditionViolated(f"dart {d0} out of range")
    seq = [d0]
    d = shadow.sigma(d0)
    while d != d0:
        seq.append(d)
        d = shadow.sigma(d)
    return Walk(tuple(seq), vertex_of(d0))


def eulerian_walk(shadow: Shadow) -> Walk:
    """Canonical straight-ahead Eulerian walk, starting at dart 0."""
    w = straight_walk(shadow, 0 if shadow.n else None)
    if shadow.n and len(w.darts) != 2 * shadow.n:
        raise NotAKnotShadow("straight-ahead orbit does not cover every edge once")
    return w


def walks_at(twin, v):
    """The straight-ahead walks from vertex ``v`` back to it, as exit dart
    lists, following the curve from dart ``4v`` until it leaves by that dart
    again.  A self-crossing of one curve gives two walks, a crossing of two
    curves one.  ``twin`` may be a mutable list; only ``v``'s curve is read.
    """
    walks = []
    first = 4 * v
    seq = []
    d = first
    while True:
        seq.append(d)
        d = twin[d] ^ 2
        if d >> 2 == v:
            walks.append(seq)
            seq = []
            if d == first:
                return walks


def decompose_at_vertex(shadow: Shadow, v: int):
    """Split the Eulerian walk at ``v`` into two edge-disjoint closed walks.

    Both walks start and end at ``v``; together they cover every edge once.
    """
    if not 0 <= v < shadow.n:
        raise PreconditionViolated(f"vertex {v} out of range")
    walks = walks_at(shadow.twin, v)
    if len(walks) != 2:
        raise NotAKnotShadow("walk does not revisit its start vertex")
    return tuple(Walk(tuple(w), v) for w in walks)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def is_cut_vertex(shadow: Shadow, v: int) -> bool:
    """Cut-vertex in the 1-separation sense.

    For a connected 4-regular graph this is equivalent to carrying a loop
    edge or disconnecting the graph on deletion.
    """
    if not 0 <= v < shadow.n:
        raise PreconditionViolated(f"vertex {v} out of range")
    if any(vertex_of(shadow.twin[dart_at(v, s)]) == v for s in range(4)):
        return True             # a loop edge at v
    if shadow.n <= 1:
        return False
    start = 0 if v != 0 else 1
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for s in range(4):
            w = vertex_of(shadow.twin[dart_at(u, s)])
            if w != v and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) != shadow.n - 1


def all_cut_vertices(shadow: Shadow) -> bool:
    return all(is_cut_vertex(shadow, v) for v in range(shadow.n))


def plane_map_equal(a: Shadow, b: Shadow, bits_a=None, bits_b=None) -> bool:
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
                da = dart_at(v, s)
                db = dart_at(v, (s + rot[v]) & 3)
                ta, tb = a.twin[da], b.twin[db]
                w = vertex_of(ta)
                if vertex_of(tb) != w:
                    ok = False
                    break
                need = (slot_of(tb) - slot_of(ta)) & 3
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


# ---------------------------------------------------------------------------
# Surgery: remove vertices and edges, then rejoin the strands
# ---------------------------------------------------------------------------

def splice(twin, through, deleted=()):
    """Remove vertices and edges from a mutable twin list and rejoin strands.

    ``deleted`` names a dart of each edge to delete.  The removed vertices
    are those of the darts in ``through`` and the ends of the deleted
    edges; ``through`` maps each of their darts not on a deleted edge to
    the dart its strand continues on at that vertex (an involution per
    vertex).  Every strand that ran through removed vertices is joined up
    and the darts of removed vertices are set to -1.

    Returns ``(paths, loops)``.  ``paths`` maps the smaller end dart of
    each rejoined strand to the parent darts the strand now runs along,
    from that dart to its new twin.  ``loops`` lists the parent dart paths
    of the closed curves that ran through removed vertices only, each from
    its least dart.
    """
    gone = set()
    for d in deleted:
        gone.add(d)
        gone.add(twin[d])
    dead = {d >> 2 for d in through} | {d >> 2 for d in gone}
    exits = []          # routed darts whose edge leads to a surviving vertex
    for v in dead:
        for d in range(4 * v, 4 * v + 4):
            if d in gone:
                continue
            if d not in through:
                raise PreconditionViolated(
                    f"dart {d} of a removed vertex is neither routed nor deleted")
            if twin[d] >> 2 not in dead:
                exits.append(d)
    paths = {}
    seen = set()
    for y in exits:
        q = twin[y]
        if q in seen:
            continue
        path = [q]
        while y >> 2 in dead:
            path.append(y)
            y = through[y]
            if y in gone:
                raise PreconditionViolated("through map routed onto a deleted edge")
            path.append(y)
            y = twin[y]
        path.append(y)
        seen.update(path)
        twin[q] = y
        twin[y] = q
        if y < q:
            q, y = y, q
            path.reverse()
        paths[q] = tuple(path)
    loops = []
    for d0 in sorted(through):
        if d0 in gone or d0 in seen:
            continue
        path = []
        d = d0
        while d not in seen:
            seen.add(d)
            path.append(d)
            q = twin[d]
            seen.add(q)
            path.append(q)
            d = through[q]
            if d in gone:
                raise PreconditionViolated("through map routed onto a deleted edge")
        loops.append(tuple(path))
    for v in dead:
        twin[4 * v:4 * v + 4] = (-1, -1, -1, -1)
    return paths, loops


def cycle_through(twin, darts):
    """The ``splice`` routing that deletes the edges of a cycle.

    ``darts`` are the cycle's exit darts; it visits each vertex once.  At
    each of its vertices the cycle's two darts are joined, and so are the
    other two, so the strand that met the cycle there is rejoined.
    """
    through = {}
    for k, d in enumerate(darts):
        in_dart = twin[darts[k - 1]]
        base = d & ~3
        rest = [x for x in range(base, base + 4) if x not in (d, in_dart)]
        through[rest[0]] = rest[1]
        through[rest[1]] = rest[0]
        through[d] = in_dart
        through[in_dart] = d
    return through


def renumber(twin):
    """Drop the vertices whose darts are -1 and number the rest in order.

    Returns the compact twin tuple and the old vertex of each new vertex.
    """
    keep = tuple(v for v in range(len(twin) // 4) if twin[4 * v] >= 0)
    new = {v: i for i, v in enumerate(keep)}
    out = []
    for v in keep:
        for t in twin[4 * v:4 * v + 4]:
            out.append(4 * new[t >> 2] + (t & 3))
    return tuple(out), keep


@dataclass(frozen=True)
class Excision:
    """Result of removing vertices and edges from a parent shadow.

    ``edge_paths`` records, per surviving child edge, the ordered parent
    darts the strand traverses (so merged edges know which parent edges and
    suppressed vertices they absorbed).  ``loop_paths`` lists parent dart
    paths of components that closed up into new free loops.
    """

    child: Shadow
    old_vertex: tuple          # child vertex -> parent vertex
    edge_paths: dict           # child edge id -> tuple of parent darts
    loop_paths: tuple


def excise(shadow: Shadow, through: dict, deleted_edges=frozenset()) -> Excision:
    """Remove the vertices of ``through`` and the ``deleted_edges``.

    ``splice`` on a copy of the twin table, renumbered; see ``splice`` for
    the meaning of the arguments.  Removed components that close up become
    free loops.
    """
    twin = list(shadow.twin)
    paths, loops = splice(twin, through, deleted_edges)
    child_twin, old_vertex = renumber(twin)
    child = Shadow(len(old_vertex), child_twin,
                   shadow.free_loops + len(loops), 0)
    validate_shadow(child)
    edge_paths = {}
    for i, v in enumerate(old_vertex):
        for s in range(4):
            nd = 4 * i + s
            if nd < child_twin[nd]:
                p = 4 * v + s
                edge_paths[nd] = paths.get(p) or (p, twin[p])
    return Excision(child, old_vertex, edge_paths, tuple(loops))


# ---------------------------------------------------------------------------
# Local expansion moves (used by random generation and invariance tests)
# ---------------------------------------------------------------------------

def insert_curl(shadow: Shadow, dart: int, flip: bool = False) -> Shadow:
    """Add a kink on the edge of ``dart``; one new self-crossing."""
    twin = list(shadow.twin)
    a = dart
    b = twin[a]
    x = shadow.n
    base = 4 * x
    twin.extend([0, 0, 0, 0])
    # slots: 0 toward a's side, 1 toward b's side, loop on {2,3}
    s0, s1 = (0, 1) if not flip else (1, 0)
    twin[a] = base + s0
    twin[base + s0] = a
    twin[b] = base + s1
    twin[base + s1] = b
    twin[base + 2] = base + 3
    twin[base + 3] = base + 2
    out = Shadow(x + 1, tuple(twin), shadow.free_loops, 0)
    validate_shadow(out)
    return out


def _try_wirings(shadow, a, b, wirings, n_new, expect_curves):
    """Apply the first candidate twin rewiring that validates planar with the
    expected curve count.  Returns None when none fits."""
    twin0 = shadow.twin
    ta, tb = twin0[a], twin0[b]
    for wiring in wirings:
        twin = list(twin0) + [0] * (4 * n_new)
        ok = True
        for u, w in wiring(a, ta, b, tb, 4 * shadow.n):
            twin[u] = w
            twin[w] = u
        cand = Shadow(shadow.n + n_new, tuple(twin), shadow.free_loops, 0)
        try:
            validate_shadow(cand)
        except NonPlanar:
            continue
        if cand.curve_count() == expect_curves:
            return cand
    return None


def poke(shadow: Shadow, dart_a: int, dart_b: int):
    """Push a finger of dart_a's edge across dart_b's edge: two new crossings.

    Both darts must lie on a common face and on distinct edges.  Preserves
    the number of closed curves.  Returns None if no planar wiring fits
    (which indicates a precondition violation).
    """
    if shadow.edge_id(dart_a) == shadow.edge_id(dart_b):
        raise PreconditionViolated("poke needs two distinct edges")

    # The finger of A passes straight through both new crossings x, y; the
    # strand of B enters y first.  The two candidates are the two sides of B
    # the finger may come from; which one embeds depends on the relative
    # orientation of the darts along their shared face.
    def finger(g):
        def wiring(a, ta, b, tb, base):
            x, y = base, base + 4
            return [(a, x + 0), (x + 2, y + 0), (y + 2, ta),
                    (b, y + 1), (y + 3, x + g), (x + (g ^ 2), tb)]
        return wiring

    expect = shadow.curve_count()
    return _try_wirings(shadow, dart_a, dart_b, [finger(3), finger(1)], 2, expect)


def crossing_sum(shadow: Shadow, dart_a: int, dart_b: int):
    """Pinch the edges of two face-sharing darts into one new transversal
    crossing, rerouting the strands.  Returns None if the rerouted curve
    system is not a planar single-curve expansion."""
    if shadow.edge_id(dart_a) == shadow.edge_id(dart_b):
        raise PreconditionViolated("crossing sum needs two distinct edges")

    # Both strands reroute through the new crossing: one pass joins the a and
    # b sides, the other the two far sides.  When the face traverses the two
    # darts with the wrong relative orientation no planar single-curve
    # rewiring exists and None is returned.
    def w1(a, ta, b, tb, base):
        return [(a, base + 0), (ta, base + 1), (b, base + 2), (tb, base + 3)]

    def w2(a, ta, b, tb, base):
        return [(a, base + 0), (tb, base + 1), (b, base + 2), (ta, base + 3)]

    expect = shadow.curve_count()
    return _try_wirings(shadow, dart_a, dart_b, [w1, w2], 1, expect)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def trivial() -> Shadow:
    """The vertex-less closed curve."""
    return Shadow(0, (), 1, 0)


def one_vertex() -> Shadow:
    """A single self-crossing: the curl, smallest nontrivial knot shadow."""
    return build_shadow([(0, 1), (2, 3)], require_knot=True)


def chorizo(k: int) -> Shadow:
    """Chain of ``k`` crossings with a loop at each end and doubled edges
    between neighbours.  Every vertex is a cut-vertex."""
    if k < 1:
        raise PreconditionViolated("chorizo needs k >= 1")
    if k == 1:
        return one_vertex()
    pairs = [(dart_at(0, 1), dart_at(0, 2)),
             (dart_at(k - 1, 0), dart_at(k - 1, 3))]
    for i in range(k - 1):
        pairs.append((dart_at(i, 0), dart_at(i + 1, 1)))
        pairs.append((dart_at(i, 3), dart_at(i + 1, 2)))
    s = build_shadow(pairs, require_knot=True)
    return s.with_outer(face_of_dart(s, dart_at(0, 1)))


def cn(n: int) -> Shadow:
    """Ring of ``n`` crossings with every ring edge doubled.

    Only odd ``n`` closes into a single curve; even ``n`` gives a two-
    component link, which is rejected here.
    """
    if n < 3 or n % 2 == 0:
        raise PreconditionViolated("cn needs odd n >= 3")
    pairs = []
    for i in range(n):
        j = (i + 1) % n
        pairs.append((dart_at(i, 0), dart_at(j, 1)))
        pairs.append((dart_at(i, 3), dart_at(j, 2)))
    s = build_shadow(pairs, require_knot=True)
    return s.with_outer(face_of_dart(s, dart_at(0, 1)))


def standard_trefoil() -> Shadow:
    """The 3-crossing shadow of the familiar trefoil diagram."""
    pairs = [(0, 7), (2, 9), (4, 11), (1, 6), (3, 8), (5, 10)]
    s = build_shadow(pairs, require_knot=True)
    return s.with_outer(face_of_dart(s, 0))


def standard_figure8() -> Shadow:
    """The 4-crossing shadow of the standard figure-eight diagram."""
    pairs = [(1, 10), (0, 6), (5, 11), (4, 15), (8, 14), (9, 2), (13, 3), (12, 7)]
    s = build_shadow(pairs, require_knot=True)
    return s.with_outer(face_of_dart(s, 2))


def random_shadow(n: int, seed: int) -> Shadow:
    """Random knot shadow with ``n`` vertices, deterministic in ``seed``.

    Grown from the one-vertex shadow by random curls, pokes, and crossing
    sums, so planarity and single-curve structure hold by construction.
    """
    if n < 1:
        raise PreconditionViolated("random_shadow needs n >= 1")
    rng = random.Random(seed)
    s = one_vertex()
    while s.n < n:
        room = n - s.n
        moves = ["curl"]
        if room >= 1:
            moves.append("sum")
        if room >= 2:
            moves.append("poke")
        move = rng.choice(moves)
        if move == "curl":
            s = insert_curl(s, rng.randrange(4 * s.n), rng.random() < 0.5)
            continue
        face = list(rng.choice(faces(s)))
        if len({s.edge_id(d) for d in face}) < 2:
            s = insert_curl(s, rng.randrange(4 * s.n), rng.random() < 0.5)
            continue
        a = rng.choice(face)
        choices = [d for d in face if s.edge_id(d) != s.edge_id(a)]
        b = rng.choice(choices)
        cand = poke(s, a, b) if move == "poke" else crossing_sum(s, a, b)
        if cand is not None:
            s = cand
        # else: rewiring never splits on a shared face, but stay safe
    return s.with_outer(face_of_dart(s, 0))


# ---------------------------------------------------------------------------
# Connected sum
# ---------------------------------------------------------------------------

def outer_edges(shadow: Shadow):
    """Edge ids with at least one side on the designated outer face."""
    fs = faces(shadow)
    if shadow.n == 0:
        return []
    outer = fs[shadow.outer_face]
    return sorted({shadow.edge_id(d) for d in outer})


def connected_sum(s: Shadow, t: Shadow, edge_s=None, edge_t=None) -> Shadow:
    """Splice the closed curves of two knot shadows at outer edges."""
    for name, sh in (("first", s), ("second", t)):
        if not component_report(sh).is_knot_shadow:
            raise PreconditionViolated(f"{name} argument is not a knot shadow")
    if s.is_trivial():
        return t
    if t.is_trivial():
        return s
    es = outer_edges(s)[0] if edge_s is None else edge_s
    et = outer_edges(t)[0] if edge_t is None else edge_t
    if es not in outer_edges(s):
        raise NonOuterEdge(f"edge {es} is not on the outer face of the first shadow")
    if et not in outer_edges(t):
        raise NonOuterEdge(f"edge {et} is not on the outer face of the second shadow")
    off = 4 * s.n
    union = Shadow(s.n + t.n, s.twin + tuple(d + off for d in t.twin), 0, 0)

    def crosswise(a, ta, b, tb, base):
        return [(a, tb), (b, ta)]

    def parallel(a, ta, b, tb, base):
        return [(a, b), (ta, tb)]

    cand = _try_wirings(union, es, et + off, [crosswise, parallel], 0, 1)
    if cand is None:
        raise InternalInvariantViolation(
            "neither wiring of the connected sum is one planar curve")
    return cand.with_outer(face_of_dart(cand, 0))
