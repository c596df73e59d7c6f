"""Two-curve overlays and digon surgery.

An overlay is a shadow whose edges are 2-coloured by two closed curves.  Two
straight-ahead cycles of a knot shadow give one of two forms: either the
shadow itself is the union of the curves and they share a tangential root
(odd number of common vertices), or the gray remainder is discarded and the
curves survive as a 2-component link with the cycle roots remembered as
marked edge midpoints (even number of common vertices, all transversal).

A digon is a blue edge and a red edge with the same two endpoints, both
transversal crossings.  Splitting a digon removes its two endpoints by the
crossing-clearing smoothing, swapping the colours of the two merged arcs;
any assignment of the smaller overlay lifts to exactly two assignments of
the larger one (the digon strand fully over in blue, or fully in red).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import planemap as pm
from .decomp import StraightAheadCycle
from .errors import (
    CyclesNotDistinct,
    InternalInvariantViolation,
    MalformedRoots,
    NoAvoidingDigon,
    NotADigon,
    PreconditionViolated,
)

BLUE = "b"
RED = "r"


@dataclass(frozen=True)
class MarkedOverlay:
    """A 2-coloured curve overlay with root or mark bookkeeping.

    ``colors`` assigns BLUE or RED to every dart.  In the odd form the
    overlay is the whole shadow and ``root`` is the single tangential
    vertex.  In the even form the overlay is the two curves alone and
    ``blue_mark``/``red_mark`` are the edges carrying the suppressed cycle
    roots.
    """

    shadow: pm.Shadow
    kind: str                       # "odd" | "even"
    colors: tuple
    root: int | None = None
    blue_mark: int | None = None
    red_mark: int | None = None

    @property
    def m(self) -> int:
        """Number of shared (blue-red) vertices: each curve is a cycle, so
        every vertex of the overlay is one."""
        return self.shadow.n

    def blue_edges(self):
        return [e for e in self.shadow.edges() if self.colors[e] == BLUE]

    def red_edges(self):
        return [e for e in self.shadow.edges() if self.colors[e] == RED]

    def darts_of_color(self, v: int, color: str):
        return [pm.dart_at(v, s) for s in range(4)
                if self.colors[pm.dart_at(v, s)] == color]

    def is_tangential(self, v: int) -> bool:
        """Blue darts rotation-adjacent rather than opposite."""
        blue = self.darts_of_color(v, BLUE)
        return len(blue) == 2 and (blue[0] ^ blue[1]) & 3 != 2

    def blue_parity(self, v: int) -> int:
        """Strand parity of the blue pass at a transversal shared vertex."""
        blue = self.darts_of_color(v, BLUE)
        if len(blue) != 2 or (blue[0] ^ blue[1]) & 3 != 2:
            raise PreconditionViolated(f"vertex {v} has no transversal blue pass")
        return blue[0] & 1


@dataclass(frozen=True)
class Digon:
    """A blue and a red edge with common transversal endpoints."""

    blue_edge: int
    red_edge: int
    u: int
    v: int


@dataclass(frozen=True)
class SplitLift:
    """How assignments of the split overlay lift back across one split.

    Bits at the removed endpoints make the blue strand the overpass at both,
    or the red strand; every other vertex copies through ``child_to_parent``.
    """

    blue_over_bits: dict
    red_over_bits: dict
    child_to_parent: tuple


def _validate_overlay(ov: MarkedOverlay):
    shadow = ov.shadow
    for v in range(shadow.n):
        blue = ov.darts_of_color(v, BLUE)
        if len(blue) != 2:
            raise MalformedRoots(f"vertex {v} has {len(blue)} blue darts, not 2")
    tang = [v for v in range(shadow.n) if ov.is_tangential(v)]
    if (shadow.n - len(tang)) % 2:
        raise InternalInvariantViolation(
            "odd number of transversal intersections violates curve parity")
    if ov.kind == "odd":
        if len(tang) != 1 or ov.root not in tang:
            raise MalformedRoots("odd overlay needs exactly the root tangential")
    else:
        if tang:
            raise MalformedRoots("even overlay must be all-transversal")


def build_overlay(shadow: pm.Shadow, blue: StraightAheadCycle,
                  red: StraightAheadCycle) -> MarkedOverlay:
    """Overlay of two distinct straight-ahead cycles of a knot shadow.

    When the two cycles cover the whole shadow they share their root and the
    odd form is returned; otherwise the gray edges are removed, degree-2
    vertices suppressed, and the roots become marked edges of the resulting
    two-component link shadow.
    """
    blue_ids = blue.edge_ids(shadow)
    red_ids = red.edge_ids(shadow)
    if blue_ids == red_ids:
        raise CyclesNotDistinct("the two cycles coincide")
    if blue_ids & red_ids:
        raise CyclesNotDistinct("straight-ahead cycles must be edge-disjoint")
    all_edges = set(shadow.edges())
    colored = blue_ids | red_ids
    colors = [None] * (4 * shadow.n)
    for e in blue_ids:
        colors[e] = BLUE
        colors[shadow.twin[e]] = BLUE
    for e in red_ids:
        colors[e] = RED
        colors[shadow.twin[e]] = RED

    if colored == all_edges:
        if blue.root != red.root:
            raise MalformedRoots("full-cover overlay must share its root")
        ov = MarkedOverlay(shadow, "odd", tuple(colors), root=blue.root)
        _validate_overlay(ov)
        return ov

    # even form: drop gray edges, suppress what remains of degree 2
    gray = all_edges - colored
    through = {}
    for v in range(shadow.n):
        cds = [pm.dart_at(v, s) for s in range(4) if colors[pm.dart_at(v, s)]]
        if len(cds) in (0, 4):
            continue
        if len(cds) == 2:
            through[cds[0]] = cds[1]
            through[cds[1]] = cds[0]
        else:
            raise MalformedRoots(f"vertex {v} has {len(cds)} coloured darts")
    ex = pm.excise(shadow, through, frozenset(gray))
    child = ex.child
    child_colors = [None] * (4 * child.n)
    blue_mark = red_mark = None
    for ce, path in ex.edge_paths.items():
        path_colors = {colors[d] for d in path}
        if len(path_colors) != 1:
            raise InternalInvariantViolation("merged edge mixes colours")
        col = path_colors.pop()
        child_colors[ce] = col
        child_colors[child.twin[ce]] = col
        interior = {pm.vertex_of(path[i]) for i in range(1, len(path) - 1)}
        if blue.root in interior:
            blue_mark = ce
        if red.root in interior:
            red_mark = ce
    if child.n and (blue_mark is None or red_mark is None):
        raise MalformedRoots("cycle roots did not land on overlay edges")
    ov = MarkedOverlay(child, "even", tuple(child_colors),
                       blue_mark=blue_mark, red_mark=red_mark)
    _validate_overlay(ov)
    return ov


# ---------------------------------------------------------------------------
# Digon detection
# ---------------------------------------------------------------------------

def digons(overlay: MarkedOverlay):
    """All digons: blue/red edge pairs with identical transversal endpoints."""
    shadow = overlay.shadow
    by_ends = {}
    for e in overlay.blue_edges():
        u, v = pm.vertex_of(e), pm.vertex_of(shadow.twin[e])
        if u == v:
            continue
        by_ends.setdefault(frozenset((u, v)), []).append(e)
    out = []
    for f in overlay.red_edges():
        u, v = pm.vertex_of(f), pm.vertex_of(shadow.twin[f])
        if u == v:
            continue
        if overlay.is_tangential(u) or overlay.is_tangential(v):
            continue
        for e in by_ends.get(frozenset((u, v)), ()):
            lo, hi = sorted((u, v))
            out.append(Digon(e, f, lo, hi))
    return sorted(out, key=lambda g: (g.u, g.v, g.blue_edge, g.red_edge))


def digon_avoiding(overlay: MarkedOverlay) -> Digon:
    """The least digon avoiding the marks (even) or the root (odd).

    Such a digon always exists for m >= 2 transversal overlays and for
    rooted overlays with m >= 3; below that PreconditionViolated, and its
    absence above is surfaced loudly.
    """
    m = overlay.m
    if overlay.kind == "odd":
        if m < 3:
            raise PreconditionViolated("odd overlay needs m >= 3 for digons")
    elif m < 2:
        raise PreconditionViolated("even overlay needs m >= 2 for digons")
    cands = digons(overlay)
    if overlay.kind == "even":
        cands = [g for g in cands
                 if g.blue_edge != overlay.blue_mark
                 and g.red_edge != overlay.red_mark]
    else:
        cands = [g for g in cands if overlay.root not in (g.u, g.v)]
    if not cands:
        raise NoAvoidingDigon(
            f"no avoiding digon on a {overlay.kind} overlay with m={overlay.m}")
    return cands[0]


# ---------------------------------------------------------------------------
# Digon splitting
# ---------------------------------------------------------------------------

def split_digon(overlay: MarkedOverlay, g: Digon):
    """Clear the digon's two crossings; colours swap across the merged arcs.

    Returns the smaller overlay and the lift descriptor mapping each child
    assignment to its two parent extensions.
    """
    shadow = overlay.shadow
    if g not in digons(overlay):
        raise NotADigon(f"{g} is not a digon of this overlay")
    e_darts = (g.blue_edge, shadow.twin[g.blue_edge])
    f_darts = (g.red_edge, shadow.twin[g.red_edge])
    through = {}
    for w in (g.u, g.v):
        e_end = next(d for d in e_darts if pm.vertex_of(d) == w)
        f_end = next(d for d in f_darts if pm.vertex_of(d) == w)
        others = [pm.dart_at(w, s) for s in range(4)
                  if pm.dart_at(w, s) not in (e_end, f_end)]
        blue_other = next(d for d in others if overlay.colors[d] == BLUE)
        red_other = next(d for d in others if overlay.colors[d] == RED)
        # crossing-clearing smoothing: each curve deflects onto the other's
        # digon edge, so the blue arc continues on the red edge and back
        through[blue_other] = f_end
        through[f_end] = blue_other
        through[red_other] = e_end
        through[e_end] = red_other
    ex = pm.excise(shadow, through)
    child = ex.child

    # parent bits making blue (red) the overpass at both endpoints
    blue_over = {}
    red_over = {}
    for w in (g.u, g.v):
        bp = overlay.blue_parity(w)
        blue_over[w] = bp
        red_over[w] = bp ^ 1
    lift = SplitLift(blue_over, red_over, ex.old_vertex)

    if child.n == 0:
        child_colors = ()
        new_blue_mark = new_red_mark = None
    else:
        # the new blue curve is the old one rerouted over the red digon edge
        blue_prime = (set(overlay.blue_edges()) - {g.blue_edge}) | {g.red_edge}
        child_colors = [None] * (4 * child.n)
        for ce, path in ex.edge_paths.items():
            p_edges = {shadow.edge_id(d) for d in path}
            if p_edges <= blue_prime:
                col = BLUE
            elif p_edges.isdisjoint(blue_prime):
                col = RED
            else:
                raise InternalInvariantViolation("merged arc mixes the new colours")
            child_colors[ce] = col
            child_colors[child.twin[ce]] = col
        new_blue_mark = _carried_mark(shadow, ex, overlay.blue_mark)
        new_red_mark = _carried_mark(shadow, ex, overlay.red_mark)
        child_colors = tuple(child_colors)

    child_ov = MarkedOverlay(
        child, overlay.kind, child_colors,
        root=(ex.old_vertex.index(overlay.root) if overlay.root in ex.old_vertex
              else None),
        blue_mark=new_blue_mark, red_mark=new_red_mark,
    )
    if child.n:
        _validate_overlay(child_ov)
        if overlay.kind == "odd" and child_ov.root is None:
            raise InternalInvariantViolation("split removed the root")
    return child_ov, lift


def _carried_mark(parent: pm.Shadow, ex: pm.Excision, mark):
    if mark is None:
        return None
    mark_darts = {mark, parent.twin[mark]}
    for ce, path in ex.edge_paths.items():
        if mark_darts & set(path):
            return ce
    raise InternalInvariantViolation("marked edge vanished in a split")


# ---------------------------------------------------------------------------
# Random overlays (property-test corpus)
# ---------------------------------------------------------------------------

def two_circle_overlay() -> MarkedOverlay:
    """Two circles crossing at exactly two points."""
    shadow = pm.build_shadow([(0, 6), (2, 4), (1, 5), (3, 7)])
    colors = [None] * 8
    for e in ((0, 6), (2, 4)):
        colors[e[0]] = colors[e[1]] = BLUE
    for e in ((1, 5), (3, 7)):
        colors[e[0]] = colors[e[1]] = RED
    return MarkedOverlay(shadow, "even", tuple(colors))


def random_overlay(m: int, seed: int) -> MarkedOverlay:
    """Random marked all-transversal overlay with ``m`` crossings (even m >= 2).

    Grown from two crossing circles by repeatedly poking one curve across
    the other; deterministic in the seed.
    """
    if m < 2 or m % 2:
        raise PreconditionViolated("overlays need even m >= 2")
    rng = random.Random(seed)
    ov = two_circle_overlay()
    while ov.shadow.n < m:
        shadow = ov.shadow
        face = list(rng.choice(pm.faces(shadow)))
        blues = [d for d in face if ov.colors[d] == BLUE]
        reds = [d for d in face if ov.colors[d] == RED]
        if not blues or not reds:
            continue
        a = rng.choice(blues)
        b = rng.choice(reds)
        if rng.random() < 0.5:
            a, b = b, a
        child = pm.poke(shadow, a, b)
        if child is None:
            continue
        colors = [None] * (4 * child.n)
        a_color = ov.colors[a]
        curve = {child.edge_id(d)
                 for d in pm.straight_walk(child, 4 * shadow.n).darts}
        for ce in child.edges():
            col = a_color if ce in curve else (RED if a_color == BLUE else BLUE)
            colors[ce] = col
            colors[child.twin[ce]] = col
        ov = MarkedOverlay(child, "even", tuple(colors))
    _validate_overlay(ov)
    blue_mark = rng.choice(ov.blue_edges())
    red_mark = rng.choice(ov.red_edges())
    return MarkedOverlay(ov.shadow, "even", ov.colors,
                         blue_mark=blue_mark, red_mark=red_mark)
