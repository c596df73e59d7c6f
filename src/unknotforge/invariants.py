"""Diagrams over shadows, the scan-line bracket, and classification.

A diagram is a shadow plus one bit per vertex: bit 0 puts the strand through
slots {0,2} on top, bit 1 the strand through {1,3}.  The bracket is an exact
integer Laurent polynomial in the smoothing variable, summed by a scan line
that adds crossings one at a time and keeps one table per matching of the
open strand ends, not by enumerating all 2^n smoothings.  The matchings and
their transitions depend on the shadow alone, so the scan is compiled once
per shadow into a plan, and a diagram's bits only choose which smoothing of
each crossing is weighted A; plans, writhe signs and the simplifier's
type-A walks are cached on the twin table, and the classes of residue
diagrams on the diagram.  The writhe-normalized form is invariant under all
Reidemeister moves and is used, together with a greedy move-based
simplifier, to classify diagrams at desk scale.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from . import planemap as pm
from .errors import (
    InternalInvariantViolation,
    LimitExceeded,
    NotAKnotShadow,
    PreconditionViolated,
)

DEFAULT_LIMIT = 20

# each memo of a shadow record stops growing at this many entries, and each
# cache of a pure per-shadow result keeps at most this many
_MEMO_CAP = 4096


# ---------------------------------------------------------------------------
# Laurent polynomials with integer coefficients
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Immutable Laurent polynomial in one variable with int coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        self.terms = tuple(sorted((e, c) for e, c in terms.items() if c))
        self._hash = None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        """The hash of the term tuple, computed on first use: the census
        merges its counts on ``KnotClass`` keys, which hash their polynomial
        on every lookup."""
        h = self._hash
        if h is None:
            h = self._hash = hash(self.terms)
        return h

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
        return LaurentPoly(acc)

    def invert_variable(self):
        """Substitute the variable by its reciprocal."""
        return LaurentPoly({-e: c for e, c in self.terms})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e == 0:
                parts.append(f"{c:+d}")
            elif e == 1:
                parts.append(f"{c:+d}*A")
            else:
                parts.append(f"{c:+d}*A^{e}")
        return "".join(parts)

    __repr__ = __str__


ONE = LaurentPoly({0: 1})


def _minus_a_cubed_power(k: int) -> LaurentPoly:
    sign = -1 if k % 2 else 1
    return LaurentPoly({3 * k: sign})


# ---------------------------------------------------------------------------
# Diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagram:
    """A shadow with one over/under bit per vertex."""

    shadow: pm.Shadow
    bits: tuple

    def __post_init__(self):
        if len(self.bits) != self.shadow.n:
            raise PreconditionViolated("bit vector length must equal vertex count")

    @property
    def n(self):
        return self.shadow.n

    def over_dart(self, dart: int) -> bool:
        """Is the strand through this dart the overpass at its vertex?"""
        return (dart & 1) == self.bits[dart >> 2]


def trivial_diagram() -> Diagram:
    return Diagram(pm.trivial(), ())


def mirror(diagram: Diagram) -> Diagram:
    """Exchange every crossing: the mirror-image knot, same projection."""
    return Diagram(diagram.shadow, tuple(b ^ 1 for b in diagram.bits))


def alternating_diagram(shadow: pm.Shadow) -> Diagram:
    """The assignment whose crossings alternate over/under along the curve."""
    walk = pm.eulerian_walk(shadow)
    bits = [None] * shadow.n
    for k, exit_dart in enumerate(walk.darts):
        in_dart = shadow.twin[walk.darts[k - 1]]
        v = pm.vertex_of(exit_dart)
        want = (in_dart & 1) if k % 2 == 0 else (in_dart & 1) ^ 1
        if bits[v] is None:
            bits[v] = want
        elif bits[v] != want:
            raise InternalInvariantViolation("no alternating assignment exists")
    return Diagram(shadow, tuple(bits))


def is_alternating(diagram: Diagram) -> bool:
    if diagram.n == 0:
        return True
    alt = alternating_diagram(diagram.shadow)
    return diagram.bits in (alt.bits, tuple(b ^ 1 for b in alt.bits))


def assignments(shadow: pm.Shadow):
    """All 2^n diagrams of the shadow, in bit-vector order."""
    n = shadow.n
    for k in range(1 << n):
        yield Diagram(shadow, tuple((k >> i) & 1 for i in range(n)))


def _picker(indices):
    """``seq`` -> the tuple of ``seq[i]`` over ``indices``, for a tuple
    ``seq``.  ``itemgetter`` of one index returns the item, not a tuple, and
    takes no zero indices, so those cases slice the sequence."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        return itemgetter(slice(indices[0], indices[0] + 1))
    return itemgetter(slice(0, 0))


# ---------------------------------------------------------------------------
# Writhe and the scan-line bracket
# ---------------------------------------------------------------------------

def writhe(diagram: Diagram) -> int:
    """Sum of crossing signs, oriented along the walk from dart 0.

    The signs at bit 0 are a function of the twin table (bit 1 negates a
    sign), cached on it as the bracket plans are."""
    signs = _writhe_signs(diagram.shadow.twin)
    return sum(s if b == 0 else -s for s, b in zip(signs, diagram.bits))


@lru_cache(maxsize=_MEMO_CAP)
def _writhe_signs(twin: tuple) -> list:
    """The sign of each vertex at bit 0, along the walk from dart 0."""
    shadow = pm.Shadow(len(twin) // 4, twin)
    walk = pm.eulerian_walk(shadow)
    in_slots = {}
    for k, exit_dart in enumerate(walk.darts):
        in_dart = shadow.twin[walk.darts[k - 1]]
        in_slots.setdefault(pm.vertex_of(exit_dart), []).append(pm.slot_of(in_dart))
    signs = [0] * shadow.n
    for v, (s1, s2) in in_slots.items():
        o, u = (s1, s2) if s1 & 1 == 0 else (s2, s1)
        signs[v] = 1 if (u - o) % 4 == 3 else -1
    return signs


def kauffman_bracket(diagram: Diagram, limit: int = DEFAULT_LIMIT) -> LaurentPoly:
    """Scan-line sum over all smoothings; exact integer coefficients.

    The scan depends on the twin table alone: ``_bracket_plan`` takes it
    once per table, cached on it, and the bits only decide which
    of a vertex's two smoothings is weighted A and which A^-1.  A diagram
    carries one weight table per state through the plan's rows.  A table
    counts the smoothings by (A-smoothings ``a``, closed loops), packed
    into one integer: slot ``a + (n + 1) * loops`` of ``width`` bits.  A
    count is at most 2^n and a state has at most 2n loops, so the slots
    also hold the signed coefficients of the finish, a Horner sum in the
    loop value.
    """
    n = diagram.n
    if n > limit:
        raise LimitExceeded(f"bracket needs n <= {limit}, got {n}")
    free = diagram.shadow.free_loops
    if n == 0 and free == 0:
        raise PreconditionViolated("the bracket of an empty diagram is undefined")
    bits = diagram.bits
    width = 3 * n + free + 2
    level = (n + 1) * width             # the offset of one more closed loop
    tables = [1]
    for v, rows, size in _bracket_plan(diagram.shadow.twin):
        a = 0 if bits[v] else width     # bit 0 weights the even smoothing A
        b = width - a
        nxt = [0] * size
        for (i, ci, j, cj), t in zip(rows, tables):
            nxt[i] += t << ci * level + a
            nxt[j] += t << cj * level + b
        tables = nxt
    # The bracket sums count(a, loops) A^(2a - n) d^m over the table, with
    # m = loops + free - 1 and d = -(u^2 + 1) / u the loop value in u = A^2.
    # Horner's rule in d gives h(u) = u^top * sum of q_m(u) d^m, where
    # q_m(u) = sum of count(a, loops) u^a and top is the greatest m, so the
    # slot k of h holds the coefficient of A^(2k - n - 2 top).
    t = tables[0]
    top = (t.bit_length() - 1) // level + free - 1
    block = (1 << level) - 1
    h = 0
    for m in range(top, -1, -1):
        h = -(h + (h << 2 * width))
        if m >= free - 1:
            h += (t >> (m - free + 1) * level & block) << (top - m) * width
    acc = {}
    e = -n - 2 * top
    while h:
        c = h & (1 << width) - 1
        if c >> width - 1:
            c -= 1 << width
        if c:
            acc[e] = c
        h = (h - c) >> width
        e += 2
    return LaurentPoly(acc)


@lru_cache(maxsize=_MEMO_CAP)
def _bracket_plan(twin: tuple) -> list:
    """The bit-free scan of the bracket: one ``(v, rows, size)`` a step.

    Vertices are added one at a time, next the one with the most darts
    already joined to added ones (ties to the lowest index).  An open end
    is a dart of an added vertex whose twin is not added yet; a state is
    the perfect matching of the open ends made by the smoothings chosen so
    far, a tuple with the partner of each open end and -1 elsewhere.
    Adding ``v`` takes state ``k`` to ``rows[k] = (i, ci, j, cj)``: the
    smoothing that pairs slots {0,1},{2,3} to state ``i`` of the ``size``
    next ones, closing ``ci`` loops, and the one that pairs {0,3},{1,2} to
    state ``j``, closing ``cj``.
    """
    n = len(twin) // 4
    joined = [0] * n
    todo = set(range(n))
    states = {(-1,) * 4 * n: 0}
    steps = []
    for _ in range(n):
        v = max(todo, key=lambda u: (joined[u], -u))
        todo.discard(v)
        base = 4 * v
        glue = []           # edges to added vertices, and loop edges at v once
        for d in range(base, base + 4):
            t = twin[d]
            if t >> 2 in todo:
                joined[t >> 2] += 1
            elif t >> 2 != v or d < t:
                glue.append((d, t))
        nxt = {}
        rows = []
        for match in states:
            row = []
            for x0, y0, x1, y1 in ((base, base + 1, base + 2, base + 3),
                                   (base, base + 3, base + 1, base + 2)):
                p = list(match)
                p[x0], p[y0], p[x1], p[y1] = y0, x0, y1, x1
                closed = 0
                for d, t in glue:
                    x = p[d]
                    if x == t:      # both ends of one path: a closed loop
                        closed += 1
                    else:
                        y = p[t]
                        p[x] = y
                        p[y] = x
                    p[d] = p[t] = -1
                row += (nxt.setdefault(tuple(p), len(nxt)), closed)
            rows.append(tuple(row))
        steps.append((v, rows, len(nxt)))
        states = nxt
    return steps


def normalized_poly(diagram: Diagram, limit: int = DEFAULT_LIMIT) -> LaurentPoly:
    """Writhe-normalized bracket; invariant under all Reidemeister moves."""
    return _minus_a_cubed_power(-writhe(diagram)) * kauffman_bracket(diagram, limit)


# ---------------------------------------------------------------------------
# Move-based simplification
# ---------------------------------------------------------------------------

class _Pause(Exception):
    """A run stops before a move test: ``args[0]`` is the vertex of the
    unknown bit the test read, or -1 when the run's log is full."""


class _Mut:
    """Mutable diagram state of one greedy simplifier run.  A vertex is
    live while its darts are paired: removal sets them to -1.

    The moves read bits only to ask whether a strand passes on one side at
    each dart of a group: whether ``(d & 1) == bits[d >> 2]`` is alike over
    the group.  Every move test is one call of ``test``, which asks it of
    the groups in order and gives the index ``k`` of the first one-sided
    group, -1 if none; the move of group ``k`` is applied.  The groups and
    the state a test leaves depend on the state before it and on ``k``
    only, never on the bits.  ``bits[v]`` may be None (unknown, in the
    census), and a test whose outcome hangs on an unknown bit raises
    ``_Pause`` before it changes anything.  A logging run (classify's tree)
    logs each test whose outcome depends on the bits as ``(groups, k)``.

    Beside the diagram the state holds the run's position (the heap of
    queued vertices, ``work`` and ``queued``, and ``scan``, the vertex where
    the type-A scan resumes), the move log, and ``stop``, the length of
    ``log`` at which a logging run pauses.  ``row`` is the current twin
    table's row of type-A walks (``_type_a_row``), None until read.
    """

    __slots__ = ("twin", "bits", "free_loops", "work", "queued", "scan",
                 "moves", "row", "log", "stop")

    def __init__(self, diagram: Diagram, logged=False):
        n = diagram.n
        self.twin = list(diagram.shadow.twin)
        self.bits = list(diagram.bits)
        self.free_loops = diagram.shadow.free_loops
        self.work = list(range(n))      # a min-heap, each vertex at most once
        self.queued = [True] * n
        self.scan = 0
        self.moves = []
        self.row = None
        self.log = [] if logged else None
        self.stop = None

    def fork(self, v, bit):
        """A copy of the state with bit ``v`` set to ``bit``."""
        new = self.with_bits(self.bits)
        new.bits[v] = bit
        return new

    def with_bits(self, bits):
        """A copy of the state that goes on with the bit vector ``bits``; a
        logging state's copy starts an empty log."""
        new = _Mut.__new__(_Mut)
        new.twin = self.twin[:]
        new.bits = list(bits)
        new.free_loops = self.free_loops
        new.work = self.work[:]
        new.queued = self.queued[:]
        new.scan = self.scan
        new.moves = self.moves[:]
        new.row = self.row
        new.log = None if self.log is None else []
        new.stop = None
        return new

    def key(self):
        """Everything the rest of the run reads, up to an order-keeping
        relabelling of the live vertices.  Two states with equal keys run to
        the same end on corresponding settings of their unknown bits, the
        i-th live vertex of one standing for the i-th of the other.

        A removed vertex's bit is never read again: ``_try_r1`` reads no
        bit, ``_try_r2`` and ``_try_type_a`` read bits of live vertices
        only, and a heap entry of a removed vertex is popped without a test.
        ``queued[v]`` holds exactly when ``v`` is in ``work``, and a min-heap
        of distinct vertices pops them in sorted order, so the sorted live
        vertices in ``work`` fix the pops.  The moves compare vertices for
        equality only, and the pops and the type-A scan go in vertex order,
        so a relabelling that keeps the order keeps the run.  The key holds
        the twin table renumbered as ``planemap.renumber`` does, the bits of
        the live vertices, the ranks of the live vertices in ``work``,
        ``scan`` as the number of live vertices below it, and
        ``free_loops``.  ``row`` caches a function of the twin table; the
        census never reads ``moves`` and logs nothing.
        """
        twin, bits, work = self.twin, self.bits, self.work
        n = len(self.queued)
        live = [v for v in range(n) if twin[4 * v] >= 0]
        if len(live) == n:      # nothing removed: each vertex is its rank
            return (tuple(twin), tuple(bits), tuple(sorted(work)), self.scan,
                    self.free_loops)
        rank = [0] * n
        for i, v in enumerate(live):
            rank[v] = i
        return (tuple([rank[t >> 2] << 2 | t & 3 for t in twin if t >= 0]),
                tuple([bits[v] for v in live]),
                tuple(sorted([rank[v] for v in work if twin[4 * v] >= 0])),
                bisect_left(live, self.scan), self.free_loops)

    def test(self, groups):
        """The outcome of a move test over ``groups``: the index of the first
        one-sided group, -1 if none (``_first_one_sided``, which pauses on
        an unknown bit it needs).  A test whose first group has one dart has
        outcome 0 whatever the bits, and is not logged.  A logging run logs
        the test, or pauses before it once its log holds ``stop`` entries."""
        if len(groups[0]) == 1:
            return 0
        log = self.log
        if log is not None and len(log) == self.stop:
            raise _Pause(-1)
        k = _first_one_sided(groups, self.bits)
        if log is not None:
            log.append((groups, k))
        return k

    def excise(self, through, deleted=()):
        """Remove the vertices named in ``through`` by ``planemap.splice``;
        new closed curves on them become free loops.  Returns the surviving
        vertices whose twin entries splice rewired: the two ends of each
        rejoined strand."""
        paths, loops = pm.splice(self.twin, through, deleted)
        self.free_loops += len(loops)
        return {d >> 2 for path in paths.values() for d in (path[0], path[-1])}

    def type_a_walks(self, v):
        """``_type_a_walks`` of the current twin table, from its row."""
        row = self.row
        if row is None:
            row = self.row = _type_a_row(tuple(self.twin))
        walks = row[v]
        if walks is None:
            walks = row[v] = _type_a_walks(self.twin, v)
        return walks

    def run(self, stop=None):
        """Apply greedy moves until none applies: curl and bigon removals
        from the heap, lowest vertex first; when it is empty, the first
        type-A collapse of a scan in vertex order.  Each move queues the
        live vertices whose twin entries it rewired.  A curl or bigon test
        at a vertex reads only its four twin entries and bits, which a run
        never changes, and it fails only when no setting of its unknown
        bits passes it; so a vertex left off the heap would fail again.

        Returns None when done.  Otherwise the run paused before a move
        test, which changed nothing, and the next call retries it: it
        returns the vertex of an unknown bit the test read, or -1 when a
        logging run was given ``stop`` and its log holds ``stop`` entries.
        A scan that stopped resumes at its stop vertex: the vertices before
        it had no collapse, each for a walk with a known crossing of each
        kind or for none at all, and neither setting a bit nor going on with
        bits that give the logged tests the same outcomes changes that.
        """
        self.stop = stop
        twin, work, queued = self.twin, self.work, self.queued
        n = len(queued)
        scan = self.scan
        try:
            while True:
                if work:
                    v = work[0]
                    hit = twin[4 * v] >= 0 and (_try_r1(self, v)
                                                or _try_r2(self, v))
                    heapq.heappop(work)
                    queued[v] = False
                    if not hit:
                        continue
                else:
                    for scan in range(scan, n):
                        if twin[4 * scan] >= 0:
                            hit = _try_type_a(self, scan)
                            if hit:
                                break
                    else:
                        return None
                    scan = 0
                move, neighbours = hit
                self.moves.append(move)
                self.row = None
                for u in neighbours:
                    if twin[4 * u] >= 0 and not queued[u]:
                        queued[u] = True
                        heapq.heappush(work, u)
        except _Pause as e:
            self.scan = scan
            return e.args[0]

    def to_diagram(self):
        twin, order = pm.renumber(self.twin)
        shadow = pm.Shadow(len(order), twin, self.free_loops, 0)
        return Diagram(shadow, tuple(self.bits[v] for v in order)), order


def _first_one_sided(groups, bits):
    """The index of the first dart group whose strand passes on one side
    at every dart of it, -1 if none.  A group whose known darts lie on both
    sides is passed over, whatever its unknown bits; a group that could
    still be one-sided and holds an unknown bit raises ``_Pause`` on the
    vertex of its first unknown dart."""
    for k, group in enumerate(groups):
        side = unknown = None
        for d in group:
            b = bits[d >> 2]
            if b is None:
                if unknown is None:
                    unknown = d >> 2
            elif side is None:
                side = (d & 1) ^ b
            elif (d & 1) ^ b != side:
                break
        else:
            if unknown is not None:
                raise _Pause(unknown)
            return k
    return -1


def _straight_through_mut(vertices):
    out = {}
    for v in vertices:
        for s in range(4):
            out[4 * v + s] = (4 * v + s) ^ 2
    return out


def _try_r1(state: _Mut, v):
    twin = state.twin
    base = 4 * v
    for d, t in enumerate(twin[base:base + 4], base):
        if t >> 2 == v and (t ^ d) & 1:     # a loop edge on adjacent slots
            others = [base + r for r in range(4) if base + r not in (d, t)]
            x, y = twin[others[0]], twin[others[1]]
            if x == others[1]:
                state.free_loops += 1       # the last crossing of a curl chain
                neighbours = set()
            else:
                twin[x] = y
                twin[y] = x
                neighbours = {x >> 2, y >> 2}
            for r in range(4):
                twin[base + r] = -1
            return ("r1", v), neighbours
    return None


def _try_r2(state: _Mut, v):
    """Remove the first bigon at ``v``, in slot order, whose strand passes
    over (or under) both of its crossings: one test over the bigons at
    ``v``, a group ``(d, t)`` each.  The neighbours returned are the
    vertices at the four outer ends, ``v`` and ``w`` among them when an end
    is a loop edge; both are removed."""
    twin = state.twin
    base = 4 * v
    ts = twin[base:base + 4]
    groups = []
    for s in range(4):
        t = ts[s]
        # d and the dart before it at v bound a bigon with t and
        # x = rotate(t) at w when the dart before it is paired to x
        if t >> 2 != v and ts[s - 1] == (t & ~3) | ((t + 1) & 3):
            groups.append((base + s, t))
    if not groups:
        return None
    k = state.test(groups)
    if k < 0:
        return None
    d, t = groups[k]
    w = t >> 2
    x = (t & ~3) | ((t + 1) & 3)
    d2 = (d & ~3) | ((d - 1) & 3)
    ends = (twin[d ^ 2], twin[t ^ 2], twin[d2 ^ 2], twin[x ^ 2])
    neighbours = [e >> 2 for e in ends]
    if v not in neighbours and w not in neighbours:
        a1, b1, a2, b2 = ends
        twin[a1] = b1
        twin[b1] = a1
        twin[a2] = b2
        twin[b2] = a2
        twin[base:base + 4] = twin[4 * w:4 * w + 4] = (-1, -1, -1, -1)
    else:
        state.excise(_straight_through_mut((v, w)))
    return ("r2", v, w), neighbours


@lru_cache(maxsize=_MEMO_CAP)
def _type_a_row(twin: tuple) -> list:
    """The twin table's row of ``_type_a_walks``, one entry a vertex, None
    until ``_Mut.type_a_walks`` fills it."""
    return [None] * (len(twin) // 4)


def _type_a_walks(twin, v):
    """The bit-free half of the type-A test at ``v``: of the two walks from
    a self-crossing back to it, those with at least two edges and distinct
    interior vertices other than ``v``, each with its interior."""
    walks = pm.walks_at(twin, v)
    if len(walks) != 2:
        return ()               # v is not a self-crossing of its curve
    out = []
    for walk in walks:
        if len(walk) < 2:
            continue            # single loop edge: that is an R1 move
        interior = tuple(d >> 2 for d in walk[1:])
        if len(set(interior)) == len(interior) and v not in interior:
            out.append((walk, interior))
    return out


def _try_type_a(state: _Mut, v):
    """Collapse the first walk from ``v`` whose strand passes over (or
    under) every crossing inside it: one test over the walks, with the
    darts after each walk's first as its group.  The neighbours returned
    are the surviving ends of the strands the collapse rejoined, the only
    live vertices whose twin entries change."""
    walks = state.type_a_walks(v)
    if not walks:
        return None
    k = state.test([walk[1:] for walk, _ in walks])
    if k < 0:
        return None
    walk, interior = walks[k]
    over = (walk[1] & 1) == state.bits[walk[1] >> 2]
    side = pm.OVER if over else pm.UNDER
    touched = state.excise(pm.cycle_through(state.twin, walk), walk)
    return ("ta", v, side, interior), touched


def simplify(diagram: Diagram, riii_depth: int = 0):
    """Greedy untangling with curl removals, bigon removals, and one-sided
    strand collapses.  Returns the reduced diagram and the move log.

    The move set never increases the crossing count, so the result has at
    most as many crossings and represents the same knot.  With
    ``riii_depth`` > 0 a bounded search over triangle slides is tried each
    time the greedy moves stall (``_slide_loop``).
    """
    state = _Mut(diagram)
    if state.run() is not None:
        raise PreconditionViolated("simplify needs every bit set")
    out, _ = state.to_diagram()
    return _slide_loop(out, state.moves, riii_depth)


def _slide_loop(reduced: Diagram, moves: list, riii_depth: int):
    """Go on from a diagram where the greedy moves stall: a bounded search
    over triangle slides each time they stall, at ``riii_depth`` > 0.
    ``("r3", None)`` logs a slide, and the moves after it name the vertices
    of the reduced diagram it slid; they are appended to ``moves``."""
    while reduced.n and riii_depth > 0:
        found = _riii_search(reduced, riii_depth)
        if found is None:
            break
        reduced, slid_moves = found
        moves += [("r3", None)] + slid_moves
    return reduced, moves


def riii_moves(diagram: Diagram):
    """Yield the triangle slides available on the diagram, one at a time,
    so that a search can stop at the first one it takes.

    A slide needs a triangle face with three distinct corners where the
    strand of one side passes over (or under) the other two strands at both
    of its corners; that strand then moves across the third corner's
    crossing.  Crossing chirality and all over/under bits are preserved.
    """
    shadow = diagram.shadow
    for f in pm.faces(shadow):
        if len(f) != 3:
            continue
        for i in range(3):
            a_side = f[(i + 1) % 3]
            if diagram.over_dart(a_side) != diagram.over_dart(shadow.twin[a_side]):
                continue
            cand = _riii_apply(diagram, f[i], f[(i + 1) % 3], f[(i + 2) % 3])
            if cand is not None:
                yield cand


def _riii_apply(diagram: Diagram, dx, dy, dz):
    """Rewire one triangle slide; None when the local pattern degenerates.

    The edge of ``dy`` slides across the crossing at ``vertex_of(dx)``.  The
    two fixed crossings swap which side of the moving strand they see, and
    the moving strand reverses its passage through its own two crossings,
    swapping its slot usage there.

    It degenerates unless the 12 darts at the corners (so three distinct
    corners) and the 6 outer twins are all distinct; then the six outer
    edges leave the triangle's closed disk, and the rewiring is a move
    inside it, which keeps planarity and the number of curves.
    """
    twin = list(diagram.shadow.twin)
    q, t = twin[dx], dx            # side x-y: dart at y, dart at x
    s, u = dz, twin[dz]            # side z-x: dart at z, dart at x
    p, r = dy, twin[dy]            # sliding side: dart at y, dart at z
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
    shadow = pm.Shadow(diagram.n, tuple(twin), diagram.shadow.free_loops, 0)
    return Diagram(shadow, diagram.bits)


def _riii_search(diagram: Diagram, depth: int):
    """Bounded breadth-first search over triangle slides for a diagram where
    the greedy moves apply again; returns that run's reduced diagram and
    moves, or None.  Some generated families need it: depth 1 certifies
    every output of the torus closures (s1 s2)^k for k = 14, 17 and 20,
    where depth 0 leaves 15/32, 31/64 and 63/128 unresolved."""
    seen = {(diagram.shadow.twin, diagram.bits)}
    frontier = [diagram]
    for _ in range(depth):
        nxt = []
        for d in frontier:
            for cand in riii_moves(d):
                key = (cand.shadow.twin, cand.bits)
                if key in seen:
                    continue
                seen.add(key)
                reduced, moves = simplify(cand, 0)
                if reduced.n < diagram.n:
                    return reduced, moves
                nxt.append(cand)
        frontier = nxt
    return None


def apply_rii_at(diagram: Diagram, v: int, w: int):
    """Apply one bigon removal at the vertex pair, or raise."""
    state = _Mut(diagram)
    hit = _try_r2(state, v)
    if not hit or set(hit[0][1:]) != {v, w}:
        raise PreconditionViolated(f"no removable bigon at vertices {v},{w}")
    out, order = state.to_diagram()
    return out, order


# ---------------------------------------------------------------------------
# Diagram-level insertion moves (used by invariance tests)
# ---------------------------------------------------------------------------

def insert_curl_diagram(diagram: Diagram, dart: int, flip: bool = False,
                        bit: int = 0) -> Diagram:
    shadow = pm.insert_curl(diagram.shadow, dart, flip)
    return Diagram(shadow, diagram.bits + (bit,))


def insert_poke_diagram(diagram: Diagram, dart_a: int, dart_b: int,
                        a_over: bool = True):
    """Push dart_a's strand across dart_b's with a proper RII insertion."""
    shadow = pm.poke(diagram.shadow, dart_a, dart_b)
    if shadow is None:
        return None
    # the finger strand runs through slots {0,2} of both new vertices
    bit = 0 if a_over else 1
    return Diagram(shadow, diagram.bits + (bit, bit))


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnotClass:
    kind: str
    poly: LaurentPoly | None = None
    presumed: bool = False

    @property
    def name(self) -> str:
        if self.kind == "other":
            return f"other[{self.poly}]"
        if self.presumed:
            return f"{self.kind} (presumed)"
        return self.kind

    def __str__(self):
        return self.name


UNKNOT = KnotClass("unknot")
TREFOIL_LEFT = KnotClass("trefoil_left")
TREFOIL_RIGHT = KnotClass("trefoil_right")
FIGURE_EIGHT = KnotClass("figure_eight")
UNRESOLVED = KnotClass("unresolved")


@lru_cache(maxsize=1)
def reference_polynomials():
    """Normalized polynomials of the built-in canonical diagrams."""
    alt = alternating_diagram(pm.standard_trefoil())
    if writhe(alt) < 0:
        alt = mirror(alt)
    right = normalized_poly(alt)
    fig8 = normalized_poly(alternating_diagram(pm.standard_figure8()))
    return {
        right: TREFOIL_RIGHT,
        right.invert_variable(): TREFOIL_LEFT,
        fig8: FIGURE_EIGHT,
    }


def residue_class(reduced: Diagram, limit: int) -> KnotClass:
    """The class of a diagram the simplifier leaves: the unknot when it has
    no crossings, unresolved past ``limit``, else by its polynomial."""
    if reduced.n == 0:
        if reduced.shadow.free_loops != 1:
            raise PreconditionViolated(
                f"not a knot diagram: it reduces to {reduced.shadow.free_loops} "
                "free loops")
        return UNKNOT
    if reduced.n > limit:
        return UNRESOLVED
    return _poly_class(reduced)


@lru_cache(maxsize=_MEMO_CAP)
def _poly_class(reduced: Diagram) -> KnotClass:
    """The class of a diagram with crossings by its normalized polynomial;
    ``residue_class`` has checked the limit."""
    f = normalized_poly(reduced, reduced.n)
    if f == ONE:
        return KnotClass("unknot", presumed=True)
    return reference_polynomials().get(f) or KnotClass("other", f)


# the census memo of paused states stops growing at this many entries, about
# 1.2 KB each at 17-19 crossings and 2.4 KB at 41: cn(19) pauses in 233
# distinct relabelled states (0.3 MB) and cn(41) in 970 (2.4 MB)
_CENSUS_CAP = 1 << 15


class _ShadowRecord:
    """Classification state of one knot shadow; any other shadow raises
    ``NotAKnotShadow`` here, before a diagram of it is simplified.

    R1 curl removal never reads a bit, so the shadow's curl quotient (its R1
    closure, and ``keep``, the parent vertex of each quotient vertex) is
    computed once, and a diagram's verdict depends only on its bits at
    ``keep``.  ``pick`` is the picker of those bits, built once, so a
    diagram's quotient bits cost one ``itemgetter`` call.  Verdicts are
    memoized on those bits, ``limit`` and ``riii_depth``.

    The greedy runs of the quotient's diagrams share a path-compressed
    tree, grown as diagrams arrive.  A run's moves, and the shadow it
    leaves, depend only on the outcomes of its logged move tests (see
    ``_Mut``), and the residue's bits are the diagram's own bits at the
    surviving vertices.  So the tree branches on test outcomes, not on
    bits.  Each node is reached by an edge that holds ``log``, the
    ``(groups, k)`` tests of one run between the node's start and its end:
    a diagram whose bits give every test its logged outcome runs through
    the edge as that run did.  A leaf is ``[log, None, shadow, order]``:
    the shadow the run left, with ``order`` the quotient vertex of each of
    its vertices, from which a diagram takes its bits.  A branch is
    ``[log, groups, paused, children]``: the run paused after the log,
    before a test over ``groups``, and ``children`` maps each outcome of
    that test met so far to the node that goes on from it.  The root starts
    from a run of the whole quotient, a child from its parent's paused
    state.

    A diagram that walks off the tree, at a test whose outcome differs from
    the log, splits that edge: the edge's start is run again with the
    diagram's bits until its log holds the agreed tests, and a new leaf
    goes on from there.  A diagram with an outcome new to a branch adds a
    leaf there.  So the tree has one leaf per sequence of test outcomes
    that reached an end, and diagrams that differ only in which strand of a
    removed bigon or collapsed walk is on top share one.  It does not
    depend on ``limit`` or ``riii_depth`` and stops growing at
    ``_MEMO_CAP`` leaves.

    The record holds only what depends on its shadow's bits.  The pure
    results (type-A walks, bracket plans, writhe signs, polynomial classes)
    are cached where they are computed, and outlive the record.
    """

    __slots__ = ("shadow", "quotient", "keep", "pick", "verdicts", "root", "nodes")

    def __init__(self, shadow: pm.Shadow):
        if not pm.component_report(shadow).is_knot_shadow:
            raise NotAKnotShadow("classification is defined for knot shadows")
        state = _Mut(Diagram(shadow, (0,) * shadow.n))
        work = set(range(shadow.n))
        while work:
            v = work.pop()
            if state.twin[4 * v] >= 0:
                hit = _try_r1(state, v)
                if hit:
                    work.update(u for u in hit[1] if state.twin[4 * u] >= 0)
        reduced, self.keep = state.to_diagram()
        self.pick = _picker(self.keep)
        self.shadow = shadow
        self.quotient = reduced.shadow
        self.verdicts = {}
        self.root = None
        self.nodes = 0

    def verdict(self, bits: tuple, limit: int, riii_depth: int) -> KnotClass:
        """The class of the quotient diagram with these bits: that of its
        greedy residue, after the triangle-slide loop at ``riii_depth``."""
        key = (bits, limit, riii_depth)
        cls = self.verdicts.get(key)
        if cls is None:
            reduced, _ = _slide_loop(self.residue(bits), [], riii_depth)
            cls = residue_class(reduced, limit)
            if len(self.verdicts) < _MEMO_CAP:
                self.verdicts[key] = cls
        return cls

    def residue(self, bits: tuple) -> Diagram:
        """The diagram that ``simplify`` at RIII depth 0 leaves of the
        quotient diagram with these bits: read off its leaf, or simplified
        from scratch when the tree would have to grow past its cap."""
        leaf = self._leaf_of(bits)
        if leaf is None:
            return simplify(Diagram(self.quotient, bits))[0]
        return Diagram(leaf[2], tuple([bits[v] for v in leaf[3]]))

    def _leaf_of(self, bits: tuple):
        """The leaf these bits walk to, grown when it is not in the tree
        yet; None when the tree is full."""
        if self.root is None:
            self.root = self._leaf(self._start(bits), 0)
            return self.root
        full = self.nodes >= _MEMO_CAP
        node, parent = self.root, None
        while True:
            for i, (groups, k) in enumerate(node[0]):
                if _first_one_sided(groups, bits) != k:
                    return None if full else self._split(node, parent, i, bits)
            if node[1] is None:
                return node
            k = _first_one_sided(node[1], bits)
            child = node[3].get(k)
            if child is None:
                if full:
                    return None
                child = node[3][k] = self._leaf(node[2].with_bits(bits), 1)
                return child
            parent, node = node, child

    def _start(self, bits: tuple) -> _Mut:
        """The logging run of the quotient diagram with these bits."""
        return _Mut(Diagram(self.quotient, bits), logged=True)

    def _leaf(self, state: _Mut, skip: int) -> list:
        """The leaf of a run that goes on from ``state`` to its end; the
        first ``skip`` tests it logs lie above the leaf's edge."""
        self.nodes += 1
        if state.run() is not None:
            raise InternalInvariantViolation("a logging run paused without a stop")
        reduced, order = state.to_diagram()
        return [state.log[skip:], None, reduced.shadow, order]

    def _split(self, node: list, parent, i: int, bits: tuple) -> list:
        """Make ``node`` a branch on the ``i``-th test of its log, where
        ``bits`` give another outcome, and return the new leaf of ``bits``."""
        log = node[0]
        if parent is None:
            state, skip = self._start(bits), 0
        else:
            state, skip = parent[2].with_bits(bits), 1
        if state.run(skip + i) != -1:
            raise InternalInvariantViolation("a re-run did not pause where its log parts")
        groups, k = log[i]
        state.log.clear()
        leaf = self._leaf(state.with_bits(bits), 1)
        children = {k: [log[i + 1:]] + node[1:],
                     _first_one_sided(groups, bits): leaf}
        node[:] = [log[:i], groups, state, children]
        return leaf


_record = None


def _shadow_record(shadow: pm.Shadow) -> _ShadowRecord:
    """The record of this shadow; a new one evicts the last one's."""
    global _record
    if _record is None or (_record.shadow is not shadow and _record.shadow != shadow):
        _record = _ShadowRecord(shadow)
    return _record


def classify(diagram: Diagram, limit: int = DEFAULT_LIMIT,
             riii_depth: int = 0) -> KnotClass:
    """Certified-unknot via simplification, else polynomial lookup.

    Simplification to zero crossings is a sound unknot certificate; a
    non-trivial normalized polynomial is a sound knotted certificate.  A
    trivial polynomial without a simplifier certificate is reported as
    unknot flagged presumed.  A diagram whose shadow is no knot shadow (a
    link, a split unlink, the empty diagram) raises ``NotAKnotShadow`` when
    its shadow record is built.

    Both certificates are taken on the shadow's curl quotient, with the
    bits restricted to its vertices by the record's picker; removing a curl
    keeps the knot.  The last shadow classified keeps its record: verdicts
    memoized on the restricted bits, ``limit`` and ``riii_depth``, and one
    path-compressed tree of greedy simplifier runs that branches on the
    outcomes of the move tests.  The classes of residues are cached behind
    ``residue_class``.  A diagram follows the tree's edges while its bits
    give the logged tests their logged outcomes, and simplifies only from
    the first test where they do not.  A leaf keeps the residue's shadow,
    and the diagram's own bits at the surviving vertices complete it.
    Repeated verdicts cost a lookup.
    """
    rec = _shadow_record(diagram.shadow)
    return rec.verdict(rec.pick(diagram.bits), limit, riii_depth)


def _census_walk(state, unknown, limit, memo):
    """Census counts of the assignments below ``state``.

    The counts run over the assignments of the ``unknown`` bits that are
    unknown and live when the call starts.  The caller knows that number:
    ``census`` passes q, and a paused walk passes its unknown live bits
    less the one it sets.  An unknown bit whose vertex the run removes is
    never read and doubles the counts.  A run that ends enumerates the
    unknown bits of its live vertices on the reduced diagram, classified by
    ``residue_class``.  A run that pauses on bit ``u`` goes on with ``u``
    set to 0 in place and set to 1 on a fork, and the sum of the two is
    memoized on the relabelled ``state.key()`` (at most ``_CENSUS_CAP``
    entries), so the branches that pause in states of one shape share one
    walk: the tree of partial assignments becomes a DAG, and a paused state
    of a twist region depends on the bits read along its chain, not on the
    labels of the crossings the run has removed.
    """
    u = state.run()
    if u is None:
        reduced, _ = state.to_diagram()
        free = [i for i, b in enumerate(reduced.bits) if b is None]
        counts = {}
        leaf_bits = list(reduced.bits)
        for k in range(1 << len(free)):
            for j, i in enumerate(free):
                leaf_bits[i] = (k >> j) & 1
            cls = residue_class(Diagram(reduced.shadow, tuple(leaf_bits)), limit)
            counts[cls] = counts.get(cls, 0) + 1
        left = len(free)
    else:
        key = state.key()
        left = key[1].count(None)      # the unknown live bits at the pause
        counts = memo.get(key)
        if counts is None:
            one = state.fork(u, 1)
            state.bits[u] = 0
            counts = dict(_census_walk(state, left - 1, limit, memo))
            for cls, k in _census_walk(one, left - 1, limit, memo).items():
                counts[cls] = counts.get(cls, 0) + k
            if len(memo) < _CENSUS_CAP:
                memo[key] = counts
    if unknown > left:
        counts = {cls: k << (unknown - left) for cls, k in counts.items()}
    return counts


def census(shadow: pm.Shadow, limit: int = DEFAULT_LIMIT):
    """Classify all 2^n assignments as ``classify`` does at RIII depth 0,
    presumed unknots apart.

    Only the 2^q assignments of the curl quotient's q vertices are
    classified, each standing for the 2^(n - q) diagrams that differ from
    it at curls only, and they are classified by one walk of the greedy
    simplifier over a tree of partial assignments whose branches that pause
    in states equal up to an order-keeping relabelling are walked once
    (``_census_walk``, which starts with all q bits unknown).  After a
    move, a run re-tests only the vertices the move rewired (``_Mut.run``).
    A shadow that is no knot shadow raises ``NotAKnotShadow`` from its
    record, before the walk.  On a knot shadow no assignment fails: the
    greedy moves keep the number of curves, so a residue without crossings
    is one loop.
    """
    n = shadow.n
    if n > limit:
        raise LimitExceeded(f"census needs n <= {limit}, got {n}")
    rec = _shadow_record(shadow)
    q = len(rec.keep)
    state = _Mut(Diagram(rec.quotient, (None,) * q))
    counts = _census_walk(state, q, limit, {})
    return {cls: k << (n - q) for cls, k in counts.items()}


def unknot_count(census_result) -> int:
    """Unknots in a census, certified and presumed."""
    return sum(k for cls, k in census_result.items() if cls.kind == "unknot")
