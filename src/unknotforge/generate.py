"""Constructive generators of unknot diagrams and the trefoil builder.

Every generator returns its diagrams together with machine-checkable
certificates.  A certificate is a log of moves, outermost first: each move
checks some required bits (a one-sided cycle collapse, a bigon removal, the
even-case restriction to the overlay) and keeps the remaining bits on a
smaller recorded shadow.  Replaying the log takes each output down to a
diagram the simplifier clears, independently of the polynomial oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

from . import decomp as dc
from . import digon as dg
from . import invariants as iv
from . import planemap as pm
from .errors import (
    InternalInvariantViolation,
    LimitExceeded,
    NotAKnotShadow,
    PreconditionViolated,
    SideIrrelevantForSingletonCycle,
)


def ceil_cbrt(n: int) -> int:
    """Smallest integer k with k**3 >= n."""
    k = 0
    while k ** 3 < n:
        k += 1
    return k


# ---------------------------------------------------------------------------
# Descending diagrams
# ---------------------------------------------------------------------------

def descending_diagram(shadow: pm.Shadow, start_edge: int | None = None,
                       direction: str = "fwd") -> iv.Diagram:
    """First arrival at each crossing goes over, walking from an edge
    midpoint in the chosen direction.  Always an unknot diagram."""
    if shadow.n == 0:
        return iv.trivial_diagram()
    if direction not in ("fwd", "rev"):
        raise PreconditionViolated("direction must be fwd or rev")
    e = min(shadow.edges()) if start_edge is None else start_edge
    d0 = e if direction == "fwd" else shadow.twin[e]
    walk = pm.straight_walk(shadow, d0)
    if len(walk.darts) != 2 * shadow.n:
        raise NotAKnotShadow("descending diagrams need a knot shadow")
    bits = [None] * shadow.n
    for d in walk.darts:
        in_dart = shadow.twin[d]
        w = pm.vertex_of(in_dart)
        if bits[w] is None:
            bits[w] = in_dart & 1
    return iv.Diagram(shadow, tuple(bits))


def all_descending_diagrams(shadow: pm.Shadow):
    """Distinct descending diagrams over every start edge and direction."""
    if shadow.n == 0:
        return [iv.trivial_diagram()]
    out = {}
    for e in shadow.edges():
        for direction in ("fwd", "rev"):
            d = descending_diagram(shadow, e, direction)
            out.setdefault(d.bits, d)
    return list(out.values())


# ---------------------------------------------------------------------------
# Certificate moves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Restrict:
    """One certificate move: check required bits, keep the survivors' bits.

    ``want`` lists the (vertex, bit) pairs the move needs; every other
    vertex survives onto the smaller shadow ``child`` through
    ``child_to_parent``.  ``bigon``, when set, holds the two edge ids that
    must bound a 2-face of the diagram's shadow.  ``apply`` is the reference
    form of the move; ``replay_certificate`` makes the same checks from a
    result's replay plan, which holds the move's cached pickers.
    """

    want: tuple
    child: pm.Shadow
    child_to_parent: tuple
    bigon: frozenset | None = None

    def apply(self, shadow: pm.Shadow, bits: tuple) -> tuple:
        """The survivors' bits, in ``child`` order, of ``bits`` on ``shadow``;
        InternalInvariantViolation when a wanted bit or the bigon face is
        missing."""
        pick, wanted = self._wanted
        if pick(bits) != wanted:
            for v, b in self.want:
                if bits[v] != b:
                    raise InternalInvariantViolation(f"replay: vertex {v} needs bit {b}")
        if self.bigon is not None and not _bounds_a_face(shadow, self.bigon):
            raise InternalInvariantViolation("split digon is not a bigon face")
        return self._survivors(bits)

    @cached_property
    def _wanted(self):
        """The picker of the wanted vertices, and their wanted bits."""
        return iv._picker([v for v, _ in self.want]), tuple(b for _, b in self.want)

    @cached_property
    def _survivors(self):
        return iv._picker(self.child_to_parent)

    @cached_property
    def _lift(self):
        """The picker of the parent bits from the child bits followed by the
        wanted bits."""
        source = [None] * (len(self.want) + len(self.child_to_parent))
        for cv, pv in enumerate(self.child_to_parent):
            source[pv] = cv
        for j, (v, _) in enumerate(self.want, len(self.child_to_parent)):
            source[v] = j
        if None in source:
            raise InternalInvariantViolation("move leaves parent bits unset")
        return iv._picker(source)

    def lift(self, child_bits: tuple) -> tuple:
        """The parent bits that this move restricts to ``child_bits``."""
        return self._lift(child_bits + self._wanted[1])


@lru_cache(maxsize=iv._MEMO_CAP)
def _bounds_a_face(shadow: pm.Shadow, bigon: frozenset) -> bool:
    """Do the two edges of ``bigon`` bound a 2-face of ``shadow``?"""
    return any(len(f) == 2 and {shadow.edge_id(d) for d in f} == bigon
               for f in pm.faces(shadow))


def _cycle_move(step: dc.QuotientStep, side: str, root_bit: int) -> Restrict:
    """Collapse of the removed cycle with its strand entirely on ``side``."""
    flip = 0 if side == pm.OVER else 1
    root = step.cycle.root
    # a removed vertex's first cycle dart gives the parity of the cycle's pass
    want = tuple((v, root_bit if v == root else (darts[0] & 1) ^ flip)
                 for v, darts in step.c_slots.items())
    return Restrict(want, step.child, step.child_to_parent)


def lift_over_cycle(diagram: iv.Diagram, step: dc.QuotientStep, side: str,
                    root_bit: int) -> iv.Diagram:
    """Extend a child diagram over a removed straight-ahead cycle.

    The cycle's strand is set entirely over (or under) the rest, making it
    collapsible to its root; the root bit is free.  One-vertex cycles have
    no over/under choice, only the root bit.
    """
    if diagram.shadow != step.child:
        raise PreconditionViolated("diagram is not on the quotient child")
    if side not in (pm.OVER, pm.UNDER):
        raise PreconditionViolated("side must be over or under")
    if len(step.c_slots) == 1 and side == pm.UNDER:
        raise SideIrrelevantForSingletonCycle(
            "a one-vertex cycle admits two lifts, chosen by the root bit")
    return iv.Diagram(step.parent,
                      _cycle_move(step, side, root_bit).lift(diagram.bits))


# ---------------------------------------------------------------------------
# Generation results and certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Level:
    """One factor of a generated family: its options, and the stride of
    their digit in the output index.  Output i takes ``options[i // stride
    % len(options)]``."""

    options: tuple
    stride: int


@dataclass(frozen=True)
class GenerationResult:
    """A deduplicated family of diagrams, kept as its product of levels.

    ``levels`` holds the move levels, outermost first, then the base level,
    the assignments of the innermost shadow.  Output i takes one option of
    each level by its digit (``Level``); its certificate is the moves it
    takes, and its diagram, ``diagrams[i]``, is its base lifted back through
    them.  ``count`` is the product of the level sizes.  ``generate_unknots``
    keeps the greedy cycle decomposition it chose the route by, for every
    method.  ``replayed`` is the replay plan of this result alone, empty
    until the first ``replay_certificate``: one entry per move level, with
    the level's stride, option count, each option's pickers, child shadow
    and bigon, and the level's memo, a dict from index suffix to the bits
    that took that node to the end rule (none at level 0).  A ``replace``
    copy starts with an empty one, so a copy with other levels builds its
    own plan."""

    shadow: pm.Shadow
    method: str
    diagrams: tuple
    levels: tuple
    bound: int
    decomposition: dc.CycleDecomposition | None = None
    replayed: list = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def count(self) -> int:
        return math.prod(len(level.options) for level in self.levels)

    def certificate(self, index: int) -> tuple:
        """Output ``index``'s moves, outermost first."""
        return tuple(level.options[index // level.stride % len(level.options)]
                     for level in self.levels[:-1])

    @property
    def bound_satisfied(self) -> bool:
        return self.count >= self.bound

    @property
    def context(self) -> tuple:
        """``(method,)``, the certificate kind.  Its only reader is
        ``perfbench/tracer.py``, which names replay spans by it."""
        return (self.method,)

    def to_report(self):
        return {
            "method": self.method,
            "count": self.count,
            "bound": self.bound,
            "bound_satisfied": self.bound_satisfied,
            "diagrams": ["".join(map(str, d.bits)) for d in self.diagrams],
            "certificates": {"kind": self.method, "entries": self.count},
        }


def _family(shadow, method, options, outermost_fastest, bound, collided):
    """The family whose levels hold ``options``: move lists, outermost first,
    then the base assignments.  The outermost level's digit varies fastest
    in the output index, or slowest.  The outputs are lifted from the bases
    one level at a time, so outputs that take the same inner options share
    their lift up to there.  Each move's lift picker and wanted bits, what
    ``Restrict.lift`` reads on every call, are read once a level, so a lift
    costs one picker call.
    ``collided`` is raised when two outputs have the same bits."""
    sizes = [len(o) for o in options]
    strides = [math.prod(sizes[:k]) if outermost_fastest else math.prod(sizes[k + 1:])
               for k in range(len(sizes))]
    *moves, lifted = options
    for level_moves in reversed(moves):
        lifts = [(m._lift, m._wanted[1]) for m in level_moves]
        if outermost_fastest:
            lifted = [f(bits + w) for bits in lifted for f, w in lifts]
        else:
            lifted = [f(bits + w) for f, w in lifts for bits in lifted]
    if len(set(lifted)) != len(lifted):
        raise InternalInvariantViolation(collided)
    return GenerationResult(shadow, method,
                            tuple(iv.Diagram(shadow, bits) for bits in lifted),
                            tuple(map(Level, map(tuple, options), strides)), bound)


# ---------------------------------------------------------------------------
# Generator 1: cycle decompositions
# ---------------------------------------------------------------------------

def gen_by_cycle_decomposition(shadow: pm.Shadow,
                               dec: dc.CycleDecomposition | None = None,
                               bound: int = 0) -> GenerationResult:
    """All lift combinations backward through a cycle decomposition.

    Output size is exactly the product of per-step factors: 2 for one-vertex
    cycles, 4 otherwise; with p-1 singleton steps that is 2^n.  Each step is
    a level, and the first step's digit varies slowest.
    """
    if dec is None:
        dec = dc.greedy_cycle_decomposition(shadow)
    if dec.shadow != shadow:
        raise PreconditionViolated("decomposition belongs to a different shadow")
    if (dec.steps[-1].child if dec.steps else shadow).n:
        raise InternalInvariantViolation("cycle steps do not cover all vertices")
    moves = []
    for step in dec.steps:
        sides = (pm.OVER, pm.UNDER) if len(step.c_slots) > 1 else (pm.OVER,)
        moves.append([_cycle_move(step, side, rb) for side in sides for rb in (0, 1)])
    return _family(shadow, "cycles", moves + [[()]], False, bound,
                   "lift combinations collided")


# ---------------------------------------------------------------------------
# Generator 2: digon structures
# ---------------------------------------------------------------------------

def _split_moves(overlay: dg.MarkedOverlay, stop_m: int):
    """Split avoiding digons until ``stop_m`` shared vertices remain.

    Every assignment of a split's smaller overlay lifts to exactly two of
    the larger one: the digon strand fully over in blue (the blue pass's
    parity at both endpoints), or fully over in red (the complement).
    Returns, outermost first, each split's two moves (blue on top, red on
    top), and the last overlay.
    """
    moves = []
    cur = overlay
    while cur.m > stop_m:
        g = dg.digon_avoiding(cur)
        blue_over = tuple((w, cur.blue_parity(w)) for w in (g.u, g.v))
        red_over = tuple((w, b ^ 1) for w, b in blue_over)
        cur, child_to_parent = dg.split_digon(cur, g)
        bigon = frozenset((g.blue_edge, g.red_edge))
        moves.append([Restrict(want, cur.shadow, child_to_parent, bigon)
                      for want in (blue_over, red_over)])
    return moves, cur


def gen_by_digons(shadow: pm.Shadow, pair: dc.SharedCyclePair,
                  bound: int = 0) -> GenerationResult:
    """Unknot diagrams from two straight-ahead cycles with m common vertices.

    Odd m: the subshadow is the union of the cycles; avoiding digons split
    down to the one-vertex shadow, whose two diagrams lift doubling per
    split.  Even m: the two-curve overlay splits to the crossing-free
    unlink; each unlink assignment extends over the subshadow by putting the
    cycles above the gray strands and finishing with a descending residual.
    Everything then lifts back over the reduction chain.
    """
    if pair.m < 1:
        raise PreconditionViolated("digon generation needs m >= 1")
    t_shadow = pair.subshadow
    overlay = dg.build_overlay(t_shadow, pair.blue, pair.red)
    steps = [[_cycle_move(step, pm.OVER, 0)] for step in pair.lift_chain]

    if overlay.kind == "odd":
        method = "digons-odd"
        splits, base = _split_moves(overlay, 1)
        if base.shadow.n != 1:
            raise InternalInvariantViolation("odd reduction missed the base")
        bases = [(0,), (1,)]
    else:
        method = "digons-even"
        splits, base = _split_moves(overlay, 0)
        if base.shadow.n != 0 or base.shadow.free_loops != 2:
            raise InternalInvariantViolation("even reduction missed the unlink")
        bases = [()]
        steps.append([_even_extension(t_shadow, pair, overlay)])

    # the outermost level's digit varies fastest
    return _family(shadow, method, steps + splits + [bases], True, bound,
                   "digon lifts collided")


def _even_extension(t_shadow, pair, overlay) -> Restrict:
    """The even case's restriction of the subshadow to the overlay.

    It wants colour over gray wherever one coloured pass crosses a gray
    strand, zero bits at the two roots, and the descending diagram on the
    gray residual (the shadow left after deleting both cycles' edges).
    That residual must simplify to the trivial diagram; this is checked
    here, once for every output that shares it.  The overlay's vertices are
    the subshadow vertices with four coloured darts, in order.
    """
    colored = pair.blue.edge_ids(t_shadow) | pair.red.edge_ids(t_shadow)
    colored_darts = set()
    for e in colored:
        colored_darts.add(e)
        colored_darts.add(t_shadow.twin[e])
    want = {}
    through = {}
    overlay_vertices = []
    for v in range(t_shadow.n):
        darts = [pm.dart_at(v, s) for s in range(4)]
        cds = [d for d in darts if d in colored_darts]
        if len(cds) == 4:
            overlay_vertices.append(v)
        elif len(cds) == 2:
            if (cds[0] ^ cds[1]) & 3 == 2:
                # one colored pass crossing gray: colour goes on top
                want[v] = cds[0] & 1
            rest = [d for d in darts if d not in cds]
            through[rest[0]] = rest[1]
            through[rest[1]] = rest[0]
        elif len(cds) % 2:
            raise InternalInvariantViolation("odd colour degree at a vertex")
    for root in (pair.blue.root, pair.red.root):
        want[root] = 0
    ex = pm.excise(t_shadow, through, frozenset(colored))
    gray = descending_diagram(ex.child)
    if not _simplifies_to_trivial(gray):
        raise InternalInvariantViolation("gray residual does not simplify")
    for gv, tv in enumerate(ex.old_vertex):
        if tv in want:
            raise InternalInvariantViolation("gray vertex already assigned")
        want[tv] = gray.bits[gv]
    return Restrict(tuple(want.items()), overlay.shadow, tuple(overlay_vertices))


# ---------------------------------------------------------------------------
# The main generator
# ---------------------------------------------------------------------------

def generate_unknots(shadow: pm.Shadow, method: str = "auto") -> GenerationResult:
    """Guaranteed family of unknot diagrams, at least 2^ceil(cbrt(n)) many.

    With a cycle decomposition of size p >= cbrt(n) the lift fan-out
    suffices; otherwise two primary cycles share at least 2*cbrt(n)
    vertices, and the digon route through the reduced subshadow applies.
    ``auto`` takes that route; the bound is promised on it only, and a
    shortfall there raises InternalInvariantViolation.  A shadow that is no
    knot shadow raises NotAKnotShadow from the cycle decomposition.
    """
    dec = dc.greedy_cycle_decomposition(shadow)
    n = shadow.n
    bound = 1 << ceil_cbrt(n)
    theorem = "digons" if dec.size ** 3 < n else "cycles"
    if method == "auto":
        method = theorem
    if method == "descending":
        diagrams = tuple(all_descending_diagrams(shadow))
        result = GenerationResult(shadow, "descending", diagrams,
                                  (Level(tuple(d.bits for d in diagrams), 1),), 0)
    elif method == "cycles":
        result = gen_by_cycle_decomposition(shadow, dec, bound)
    elif method == "digons":
        r, s, m = dc.find_shared_pair(dec)
        if theorem == "digons" and m ** 3 < 8 * n:
            raise InternalInvariantViolation(
                f"pigeonhole refuted: p={dec.size}, max shared m={m}, n={n}")
        pair = dc.reduce_to_subshadow(shadow, dec, r, s)
        result = gen_by_digons(shadow, pair, bound)
    else:
        raise PreconditionViolated(f"unknown method {method!r}")
    if method == theorem and not result.bound_satisfied:
        raise InternalInvariantViolation("generated family misses the bound")
    return replace(result, decomposition=dec)


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------

def _simplifies_to_trivial(diagram: iv.Diagram) -> bool:
    return diagram.n == 0 or iv.simplify(diagram)[0].n == 0


def _replay_plan(result: GenerationResult) -> list:
    """Fill ``result.replayed`` with the replay plan of its move levels and
    return it.  The plan reads the moves only, never the generated bits."""
    plan = [(level.stride, len(level.options),
             [(*m._wanted, m._survivors, m.child, m.bigon) for m in level.options],
             {} if k else None)
            for k, level in enumerate(result.levels[:-1])]
    result.replayed.extend(plan)
    return plan


def replay_certificate(result: GenerationResult, index: int) -> bool:
    """Apply the output's moves, outermost first; the construction holds when
    no crossings are left or the simplifier clears the rest.  False when a
    move's check or the end rule fails.

    The moves come from the result's replay plan, ``result.replayed``,
    which the first replay builds: one entry ``(stride, size, options,
    memo)`` per move level.  Each option holds a move's wanted-bits picker,
    wanted bits, survivors picker, child shadow and bigon, so a move makes
    the checks of ``Restrict.apply`` without a method call.

    After the first move, a replay stops early at a node that an earlier
    replay of this result took to the end rule, with the same bits.  A node
    is (level k, the index with the digits of the levels before k zeroed):
    the index suffix fixes the moves from level k on.  Level k's memo maps
    each suffix to the bits before level k's move that replayed from there;
    the bits are the diagram's own, so a tampered output whose bits differ
    misses the memo and replays on.  A node enters it only when its replay
    reached the end rule."""
    diagram = result.diagrams[index]
    shadow, bits = diagram.shadow, diagram.bits
    rest = index
    path = []
    for stride, size, options, memo in result.replayed or _replay_plan(result):
        if memo is not None:
            if memo.get(rest) == bits:
                break
            path.append((memo, rest, bits))
        digit = rest // stride % size
        rest -= digit * stride
        pick, wanted, survivors, child, bigon = options[digit]
        if pick(bits) != wanted:
            return False
        if bigon is not None and not _bounds_a_face(shadow, bigon):
            return False
        shadow, bits = child, survivors(bits)
    else:
        if not _simplifies_to_trivial(iv.Diagram(shadow, bits)):
            return False
    for memo, suffix, node_bits in path:
        memo[suffix] = node_bits
    return True


def replay_all(result: GenerationResult) -> bool:
    """Does every output replay?  False at the first that does not.  Each is
    a call of the module attribute ``replay_certificate``, in index order,
    which tracers wrap; the first builds the result's replay plan and the
    rest share its memos."""
    return all(replay_certificate(result, i) for i in range(result.count))


# ---------------------------------------------------------------------------
# Trefoil construction
# ---------------------------------------------------------------------------

def trefoil_diagram(shadow: pm.Shadow,
                    limit: int = iv.DEFAULT_LIMIT) -> iv.Diagram | None:
    """A certified trefoil diagram, or None when every vertex is a cut-vertex
    (then every diagram of the shadow is unknot).

    A shadow with a non-cut vertex need not contain a multi-vertex
    straight-ahead cycle directly (curls between essential crossings can
    force every straight-ahead walk through a repeated vertex).  Removing a
    curl never changes any assignment's knot class, so such shadows reduce
    by loop quotients until a usable cycle appears, and the constructed
    diagram lifts back across the removed curls.  The shadow is checked to
    be a knot shadow here, once: a quotient of a knot shadow by a
    straight-ahead cycle is one too, so the recursion skips the check.
    """
    if not pm.component_report(shadow).is_knot_shadow:
        raise NotAKnotShadow("trefoil construction is defined for knot shadows")
    return _trefoil(shadow, limit)


def _trefoil(shadow, limit):
    """``trefoil_diagram`` of a knot shadow."""
    if shadow.n == 0 or pm.all_cut_vertices(shadow):
        return None
    cyc = None
    loop = None
    for cand in dc.enumerate_straight_ahead_cycles(shadow):
        if len(set(cand.vertices())) >= 2:
            cyc = cand
            break
        loop = loop if loop is not None else cand
    if cyc is not None:
        return _trefoil_from_cycle(shadow, cyc, limit)
    if loop is None:
        raise InternalInvariantViolation(
            "nontrivial shadow without any straight-ahead cycle")
    return _trefoil_over_quotient(shadow, loop, limit)


def _trefoil_over_quotient(shadow, cyc, limit):
    """Solve the quotient by a cycle and lift back with the removed strand
    on top; the quotient keeps a non-cut vertex, so a trefoil exists."""
    step = dc.quotient(shadow, cyc)
    inner = _trefoil(step.child, limit)
    if inner is None:
        raise InternalInvariantViolation(
            "the quotient lost the non-cut structure")
    return lift_over_cycle(inner, step, pm.OVER, 0)


def _trefoil_from_cycle(shadow, cyc, limit):
    orbit = pm.straight_walk(shadow, cyc.darts[0])
    if orbit.darts[:len(cyc.darts)] != cyc.darts:
        raise InternalInvariantViolation("cycle is not a prefix of its orbit")
    w_darts = orbit.darts[len(cyc.darts):]
    r = cyc.root
    cset = set(cyc.vertices())
    u_idx = next((k for k in range(1, len(w_darts))
                  if pm.vertex_of(w_darts[k]) in cset), None)
    if u_idx is None:
        raise InternalInvariantViolation("complement walk misses the cycle")
    v_idx = next((k for k in range(u_idx + 1, len(w_darts))
                  if pm.vertex_of(w_darts[k]) in cset), None)
    if v_idx is None:
        raise InternalInvariantViolation("complement walk re-enters only once")
    u = pm.vertex_of(w_darts[u_idx])
    v = pm.vertex_of(w_darts[v_idx])
    parts = (w_darts[:u_idx], w_darts[u_idx:v_idx], w_darts[v_idx:])
    for part in parts:
        # a repeated vertex encloses a straight-ahead cycle avoiding the
        # frame; quotient it away
        f_cyc = dc.first_cycle(shadow, part)
        if f_cyc is not None:
            if {r, u, v} & set(f_cyc.vertices()):
                raise InternalInvariantViolation(
                    "inner cycle touches the frame vertices")
            return _trefoil_over_quotient(shadow, f_cyc, limit)
    # all three walks are paths: the long way round goes on top and the
    # three frame crossings get searched for a trefoil prescription
    bits = [None] * shadow.n
    w3 = parts[2]
    for k in range(1, len(w3)):
        in_dart = shadow.twin[w3[k - 1]]
        z = pm.vertex_of(in_dart)
        bits[z] = in_dart & 1
    unset = [z for z in range(shadow.n) if bits[z] is None]
    if sorted(unset) != sorted({r, u, v}):
        raise InternalInvariantViolation(
            f"frame vertices {sorted({r, u, v})} vs unset {sorted(unset)}")
    for combo in itertools.product((0, 1), repeat=3):
        for z, b in zip(sorted({r, u, v}), combo):
            bits[z] = b
        cand = iv.Diagram(shadow, tuple(bits))
        cls = iv.classify(cand, limit)
        if cls.kind in ("trefoil_left", "trefoil_right"):
            return cand
        if cls.kind == "unresolved":
            raise LimitExceeded("cannot certify the trefoil at this size")
    raise InternalInvariantViolation(
        "no prescription at the frame vertices yields a trefoil")


# ---------------------------------------------------------------------------
# The doubled-ring family checker
# ---------------------------------------------------------------------------

def _is_doubled_ring(shadow: pm.Shadow, k: int) -> bool:
    """Does the shadow look like the k-ring with every edge doubled?"""
    if shadow.n != k or shadow.free_loops:
        return False
    for v in range(shadow.n):
        nbrs = {}
        for s in range(4):
            w = pm.vertex_of(shadow.twin[pm.dart_at(v, s)])
            nbrs[w] = nbrs.get(w, 0) + 1
        if v in nbrs:
            return False
        if sorted(nbrs.values()) != [2, 2]:
            return False
    return True


def verify_even_family(n: int) -> dict:
    """Census the doubled ring on odd n: no figure-eight class may appear,
    and every non-alternating diagram must admit a bigon removal landing on
    the (n-2)-ring."""
    if n < 3 or n % 2 == 0:
        raise PreconditionViolated("the family is defined for odd n >= 3")
    shadow = pm.cn(n)
    counts = iv.census(shadow)
    non_alternating = 0
    rii_verified = 0
    ring_verified = 0
    for diagram in iv.assignments(shadow):
        if iv.is_alternating(diagram):
            continue
        non_alternating += 1
        _, moves = iv.simplify(diagram)
        if any(m[0] == "r2" for m in moves):
            rii_verified += 1
        # no curls, so a removable bigon is the simplifier's first move
        if moves and moves[0][0] == "r2":
            child, _ = iv.apply_rii_at(diagram, *moves[0][1:])
            if n == 3 or _is_doubled_ring(child.shadow, n - 2):
                ring_verified += 1
    fig8 = sum(c for cls, c in counts.items() if cls.kind == "figure_eight")
    return {
        "n": n,
        "census": counts,
        "figure_eight_count": fig8,
        "non_alternating": non_alternating,
        "rii_verified": rii_verified,
        "ring_verified": ring_verified,
    }
