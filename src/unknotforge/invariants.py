"""Diagrams over shadows, the scan-line bracket, and classification.

A diagram is a shadow plus one bit per vertex: bit 0 puts the strand through
slots {0,2} on top, bit 1 the strand through {1,3}.  The bracket is an exact
integer Laurent polynomial in the smoothing variable, summed by a scan line
that adds crossings one at a time and keeps one table per matching of the
open strand ends, not by enumerating all 2^n smoothings; the writhe-normalized
form is invariant under all Reidemeister moves and is used, together with a
greedy move-based simplifier, to classify diagrams at desk scale.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

from . import planemap as pm
from .errors import InternalInvariantViolation, LimitExceeded, PreconditionViolated

DEFAULT_LIMIT = 20


# ---------------------------------------------------------------------------
# Laurent polynomials with integer coefficients
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Immutable Laurent polynomial in one variable with int coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        self.terms = tuple(sorted((e, c) for e, c in items if c))

    @classmethod
    def monomial(cls, exponent=0, coeff=1):
        return cls({exponent: coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.terms})
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                k = e1 + e2
                acc[k] = acc.get(k, 0) + c1 * c2
        return LaurentPoly(acc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        out = LaurentPoly({0: 1})
        for _ in range(k):
            out = out * self
        return out

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
DELTA = LaurentPoly({2: -1, -2: -1})          # loop value


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


# ---------------------------------------------------------------------------
# Writhe and the scan-line bracket
# ---------------------------------------------------------------------------

def writhe(diagram: Diagram) -> int:
    """Sum of crossing signs, oriented along the walk from dart 0."""
    shadow = diagram.shadow
    if shadow.n == 0:
        return 0
    walk = pm.eulerian_walk(shadow)
    in_slots = {}
    total = 0
    for k, exit_dart in enumerate(walk.darts):
        in_dart = shadow.twin[walk.darts[k - 1]]
        v = pm.vertex_of(exit_dart)
        in_slots.setdefault(v, []).append(pm.slot_of(in_dart))
    for v, (s1, s2) in in_slots.items():
        over_first = (s1 & 1) == diagram.bits[v]
        o, u = (s1, s2) if over_first else (s2, s1)
        total += 1 if (u - o) % 4 == 3 else -1
    return total


def kauffman_bracket(diagram: Diagram, limit: int = DEFAULT_LIMIT) -> LaurentPoly:
    """Scan-line sum over all smoothings; exact integer coefficients.

    Vertices are added one at a time, next the one with the most darts
    already joined to added ones (ties to the lowest index).  An open end
    is a dart of an added vertex whose twin is not added yet; a state is
    the perfect matching of the open ends made by the smoothings chosen so
    far, weighted by a table (a - b, closed loops) -> count.
    """
    n = diagram.n
    if n > limit:
        raise LimitExceeded(f"bracket needs n <= {limit}, got {n}")
    free = diagram.shadow.free_loops
    if n == 0 and free == 0:
        raise PreconditionViolated("the bracket of an empty diagram is undefined")
    twin = diagram.shadow.twin
    joined = [0] * n
    todo = set(range(n))
    states = {(): {(0, 0): 1}}
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
        # A-smoothing pairs slots {0,1},{2,3} when bit 0 puts {0,2} on top
        even = ((base, base + 1), (base + 2, base + 3))
        odd = ((base, base + 3), (base + 1, base + 2))
        smoothings = ((1, even), (-1, odd)) if diagram.bits[v] == 0 \
            else ((1, odd), (-1, even))
        nxt = {}
        for match, table in states.items():
            for sign, pairs in smoothings:
                p = dict(match)
                for x, y in pairs:
                    p[x] = y
                    p[y] = x
                closed = 0
                for d, t in glue:
                    x = p.pop(d)
                    if x == t:      # both ends of one path: a closed loop
                        del p[t]
                        closed += 1
                    else:
                        y = p.pop(t)
                        p[x] = y
                        p[y] = x
                out = nxt.setdefault(tuple(sorted(p.items())), {})
                for (w, loops), c in table.items():
                    k = (w + sign, loops + closed)
                    out[k] = out.get(k, 0) + c
        states = nxt
    acc = {}
    delta_pows = [ONE]
    for (w, loops), c in states[()].items():
        while len(delta_pows) < loops + free:
            delta_pows.append(delta_pows[-1] * DELTA)
        for e, k in delta_pows[loops + free - 1].terms:
            acc[e + w] = acc.get(e + w, 0) + c * k
    return LaurentPoly(acc)


def normalized_poly(diagram: Diagram, limit: int = DEFAULT_LIMIT) -> LaurentPoly:
    """Writhe-normalized bracket; invariant under all Reidemeister moves."""
    return _minus_a_cubed_power(-writhe(diagram)) * kauffman_bracket(diagram, limit)


# ---------------------------------------------------------------------------
# Move-based simplification
# ---------------------------------------------------------------------------

class _Mut:
    """Mutable diagram state for in-place move application."""

    __slots__ = ("twin", "bits", "alive", "free_loops", "n_alive")

    def __init__(self, diagram: Diagram):
        self.twin = list(diagram.shadow.twin)
        self.bits = list(diagram.bits)
        self.alive = [True] * diagram.n
        self.free_loops = diagram.shadow.free_loops
        self.n_alive = diagram.n

    def sigma(self, d):
        return self.twin[d] ^ 2

    def over_dart(self, d):
        return (d & 1) == self.bits[d >> 2]

    def excise(self, through, deleted_edge_darts):
        """Remove the vertices named in ``through``; resplice strands.

        ``through`` maps each dart of a dying vertex to the dart its strand
        continues on there; darts of deleted edges are excluded from routing.
        New closed curves on dead vertices become free loops.
        """
        twin = self.twin
        dead_v = {d >> 2 for d in through}
        deleted = set()
        for d in deleted_edge_darts:
            deleted.add(d)
            deleted.add(twin[d])
        entries = []
        for v in sorted(dead_v):
            for s in range(4):
                d = 4 * v + s
                if d in deleted:
                    continue
                q = twin[d]
                if (q >> 2) not in dead_v:
                    entries.append(q)
        touched = set()
        walked = set()
        for q in entries:
            if q in touched:
                continue
            y = twin[q]
            while (y >> 2) in dead_v:
                walked.add(y)
                y = through[y]
                walked.add(y)
                y = twin[y]
            twin[q] = y
            twin[y] = q
            touched.add(y)
            touched.add(q)
        # dead closed curves -> free loops
        for d0 in sorted(through):
            if d0 in deleted or d0 in walked:
                continue
            d = d0
            while d not in walked:
                walked.add(d)
                q = twin[d]
                walked.add(q)
                d = through[q]
            self.free_loops += 1
        for v in dead_v:
            for s in range(4):
                twin[4 * v + s] = -1
            self.alive[v] = False
            self.bits[v] = None
        self.n_alive -= len(dead_v)

    def to_diagram(self):
        order = [v for v in range(len(self.alive)) if self.alive[v]]
        remap = {v: i for i, v in enumerate(order)}
        twin = [0] * (4 * len(order))
        for v in order:
            for s in range(4):
                t = self.twin[4 * v + s]
                twin[4 * remap[v] + s] = 4 * remap[t >> 2] + (t & 3)
        shadow = pm.Shadow(len(order), tuple(twin), self.free_loops, 0)
        return Diagram(shadow, tuple(self.bits[v] for v in order)), tuple(order)


def _straight_through_mut(vertices):
    out = {}
    for v in vertices:
        for s in range(4):
            out[4 * v + s] = (4 * v + s) ^ 2
    return out


def _try_r1(state: _Mut, v):
    twin = state.twin
    base = 4 * v
    for s in range(4):
        d = base + s
        t = twin[d]
        if t >> 2 == v and ((t - d) & 3) in (1, 3):
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
            state.alive[v] = False
            state.bits[v] = None
            state.n_alive -= 1
            return ("r1", v), neighbours
    return None


def _try_r2(state: _Mut, v):
    twin = state.twin
    for s in range(4):
        d = 4 * v + s
        t = twin[d]
        w = t >> 2
        if w == v or not state.alive[w]:
            continue
        # bigon face {d, rotate(t)}: requires rotate(twin(rotate(t))) == d
        x = pm.rotate(t)
        if pm.rotate(twin[x]) != d:
            continue
        if twin[x] >> 2 != v:
            continue
        if state.over_dart(d) != state.over_dart(t):
            continue
        neighbours = set()
        for z in (v, w):
            for r in range(4):
                q = twin[4 * z + r]
                if q >= 0 and q >> 2 not in (v, w):
                    neighbours.add(q >> 2)
        d2 = twin[x]                          # second bigon dart at v
        ends = (twin[d ^ 2], twin[t ^ 2], twin[d2 ^ 2], twin[x ^ 2])
        if all(e >> 2 not in (v, w) for e in ends):
            a1, b1, a2, b2 = ends
            twin[a1] = b1
            twin[b1] = a1
            twin[a2] = b2
            twin[b2] = a2
            for z in (v, w):
                for r in range(4):
                    twin[4 * z + r] = -1
                state.alive[z] = False
                state.bits[z] = None
            state.n_alive -= 2
        else:
            state.excise(_straight_through_mut((v, w)), deleted_edge_darts=())
        return ("r2", v, w), neighbours
    return None


def _closed_subwalks(state: _Mut, v):
    """The two straight-ahead closed subwalks based at vertex v."""
    walks = []
    first = pm.dart_at(v, 0)
    seq = []
    d = first
    while True:
        seq.append(d)
        d = state.sigma(d)
        if d >> 2 == v:
            walks.append(seq)
            seq = []
            if d == first:
                break
    return walks


def _try_type_a(state: _Mut, v):
    walks = _closed_subwalks(state, v)
    if len(walks) != 2:
        return None             # v is not a self-crossing of its curve
    for walk in walks:
        if len(walk) < 2:
            continue            # single loop edge: that is an R1 move
        interior = [d >> 2 for d in walk[1:]]
        if len(set(interior)) != len(interior) or v in interior:
            continue
        overs = {state.over_dart(d) for d in walk[1:]}
        if len(overs) != 1:
            continue
        side = pm.OVER if overs.pop() else pm.UNDER
        through = _straight_through_mut(interior)
        in_dart = state.twin[walk[-1]]
        survivors = [4 * v + s for s in range(4)
                     if 4 * v + s not in (walk[0], in_dart)]
        through[survivors[0]] = survivors[1]
        through[survivors[1]] = survivors[0]
        through[walk[0]] = in_dart
        through[in_dart] = walk[0]
        neighbours = set()
        state.excise(through, deleted_edge_darts=tuple(walk))
        return ("ta", v, side, tuple(interior)), neighbours
    return None


def simplify(diagram: Diagram, riii_depth: int = 0):
    """Greedy untangling with curl removals, bigon removals, and one-sided
    strand collapses.  Returns the reduced diagram and the move log.

    The move set never increases the crossing count, so the result has at
    most as many crossings and represents the same knot.  With
    ``riii_depth`` > 0 a bounded search over triangle slides is tried when
    the greedy moves stall.
    """
    state = _Mut(diagram)
    moves = []
    work = set(range(diagram.n))
    while True:
        progress = False
        while work:
            v = min(work)
            work.discard(v)
            if not state.alive[v]:
                continue
            hit = _try_r1(state, v) or _try_r2(state, v)
            if hit:
                move, neighbours = hit
                moves.append(move)
                work.update(u for u in neighbours if state.alive[u])
                progress = True
        for v in range(len(state.alive)):
            if state.alive[v]:
                hit = _try_type_a(state, v)
                if hit:
                    move, _ = hit
                    moves.append(move)
                    work.update(u for u in range(len(state.alive)) if state.alive[u])
                    progress = True
                    break
        if not progress:
            break
    out, _ = state.to_diagram()
    if out.n and riii_depth > 0:
        slid = _riii_search(out, riii_depth)
        if slid is not None and slid.n < out.n:
            slid_out, slid_moves = simplify(slid, riii_depth)
            return slid_out, moves + [("r3", None)] + slid_moves
    return out, moves


def riii_moves(diagram: Diagram):
    """All triangle slides available on the diagram.

    A slide needs a triangle face with three distinct corners where the
    strand of one side passes over (or under) the other two strands at both
    of its corners; that strand then moves across the third corner's
    crossing.  Crossing chirality and all over/under bits are preserved.
    """
    shadow = diagram.shadow
    out = []
    for f in pm.faces(shadow):
        if len(f) != 3:
            continue
        if len({pm.vertex_of(d) for d in f}) != 3:
            continue
        for i in range(3):
            a_side = f[(i + 1) % 3]
            if diagram.over_dart(a_side) != diagram.over_dart(shadow.twin[a_side]):
                continue
            cand = _riii_apply(diagram, f[i], f[(i + 1) % 3], f[(i + 2) % 3])
            if cand is not None:
                out.append(cand)
    return out


def _riii_apply(diagram: Diagram, dx, dy, dz):
    """Rewire one triangle slide; None when the local pattern degenerates.

    The edge of ``dy`` slides across the crossing at ``vertex_of(dx)``.  The
    two fixed crossings swap which side of the moving strand they see, and
    the moving strand reverses its passage through its own two crossings,
    swapping its slot usage there.
    """
    shadow = diagram.shadow
    twin = list(shadow.twin)
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
    cand = pm.Shadow(shadow.n, tuple(twin), shadow.free_loops, 0)
    try:
        pm.validate_shadow(cand)
    except Exception:
        return None
    if cand.curve_count() != shadow.curve_count():
        return None
    return Diagram(cand, diagram.bits)


def _riii_search(diagram: Diagram, depth: int):
    """Bounded breadth-first search over triangle slides for a diagram where
    the greedy moves apply again.  Serves stubborn hand-made inputs; the
    generated families reduce without it."""
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
                reduced, _ = simplify(cand, 0)
                if reduced.n < diagram.n:
                    return reduced
                nxt.append(cand)
        frontier = nxt
        if not frontier:
            break
    return None


def apply_rii_at(diagram: Diagram, v: int, w: int):
    """Apply one bigon removal at the vertex pair, or raise."""
    state = _Mut(diagram)
    hit = _try_r2(state, v)
    if not hit or set(hit[0][1:]) != {v, w}:
        raise PreconditionViolated(f"no removable bigon at vertices {v},{w}")
    out, order = state.to_diagram()
    return out, order


def rii_removable_pairs(diagram: Diagram):
    """Vertex pairs of bigon faces where one strand is over at both ends."""
    shadow = diagram.shadow
    out = []
    for f in pm.faces(shadow):
        if len(f) != 2:
            continue
        d, x = f
        v, w = pm.vertex_of(d), pm.vertex_of(x)
        if v == w:
            continue
        t = shadow.twin[d]
        over_v = (d & 1) == diagram.bits[v]
        over_w = (t & 1) == diagram.bits[pm.vertex_of(t)]
        if over_v == over_w:
            out.append(tuple(sorted((v, w))))
    return sorted(set(out))


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
    presumed: bool = field(default=False, compare=False)

    @property
    def name(self) -> str:
        if self.kind == "other":
            return f"other[{self.poly}]"
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


def classify(diagram: Diagram, limit: int = DEFAULT_LIMIT,
             riii_depth: int = 0) -> KnotClass:
    """Certified-unknot via simplification, else polynomial lookup.

    Simplification to zero crossings is a sound unknot certificate; a
    non-trivial normalized polynomial is a sound knotted certificate.  A
    trivial polynomial without a simplifier certificate is reported as
    unknot flagged presumed.  A diagram that reduces to no crossings but
    not to exactly one loop (the empty diagram, a split unlink) is no knot
    diagram: PreconditionViolated.
    """
    reduced, _ = simplify(diagram, riii_depth)
    if reduced.n == 0:
        if reduced.shadow.free_loops != 1:
            raise PreconditionViolated(
                f"not a knot diagram: it reduces to {reduced.shadow.free_loops} "
                "free loops")
        return UNKNOT
    try:
        f = normalized_poly(reduced, limit)
    except LimitExceeded:
        return UNRESOLVED
    if f == ONE:
        return KnotClass("unknot", presumed=True)
    named = reference_polynomials().get(f)
    if named is not None:
        return named
    return KnotClass("other", f)


def _census_chunk(args):
    shadow, start, stop, limit, riii_depth = args
    counts = {}
    n = shadow.n
    for k in range(start, stop):
        d = Diagram(shadow, tuple((k >> i) & 1 for i in range(n)))
        c = classify(d, limit, riii_depth)
        counts[c] = counts.get(c, 0) + 1
    return counts


def census(shadow: pm.Shadow, limit: int = DEFAULT_LIMIT, threads: int = 1,
           riii_depth: int = 0):
    """Classify all 2^n assignments.  Deterministic for any thread count."""
    n = shadow.n
    if n > limit:
        raise LimitExceeded(f"census needs n <= {limit}, got {n}")
    total = 1 << n
    if threads == 0:
        threads = min(os.cpu_count() or 1, 8)
    threads = max(1, min(threads, total))
    if threads == 1 or total < 256:
        return _census_chunk((shadow, 0, total, limit, riii_depth))
    chunk = (total + 4 * threads - 1) // (4 * threads)
    jobs = [(shadow, lo, min(lo + chunk, total), limit, riii_depth)
            for lo in range(0, total, chunk)]
    counts = {}
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(_census_chunk, jobs):
            for cls, k in part.items():
                counts[cls] = counts.get(cls, 0) + k
    return counts


def unknot_count(census_result) -> int:
    return sum(k for cls, k in census_result.items() if cls.kind == "unknot")
