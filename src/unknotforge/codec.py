"""Text formats for shadows, diagrams, and reports.

Three formats: ``rotmap`` (the rotation system, lossless and bit-exact),
``gauss`` (signed double-occurrence words; shadows as ``+3``, diagrams as
``+U3``/``-L3`` with U the upper and L the lower pass), and ``pd`` (per
crossing ``X[a,b,c,d]``, edge labels counterclockwise from the incoming
under-strand edge; diagrams only).

Gauss and PD codes carry no absolute slot labels, so their round trip
reproduces the plane map up to per-vertex slot rotation; emission is
canonicalized (components anchored at the least vertex, lexicographically
least orientation) so equal plane maps emit byte-identical text.
"""

from __future__ import annotations

import itertools
import json
import re
from functools import lru_cache
from operator import getitem

from . import invariants as iv
from . import planemap as pm
from .errors import (
    CodecSyntaxError,
    NonPlanar,
    UnrealizableCode,
    UnsupportedConversion,
)

FORMATS = ("rotmap", "gauss", "pd")


# ---------------------------------------------------------------------------
# rotmap
# ---------------------------------------------------------------------------

def _emit_rotmap(shadow: pm.Shadow) -> str:
    lines = [f"shadow v={shadow.n} loops={shadow.free_loops} outer={shadow.outer_face}"]
    for v in range(shadow.n):
        ts = " ".join(str(shadow.twin[4 * v + s]) for s in range(4))
        lines.append(f"v{v}: {ts}")
    return "\n".join(lines) + "\n"


def _parse_rotmap(text: str) -> pm.Shadow:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CodecSyntaxError("empty rotmap input", 1)
    head = re.fullmatch(r"shadow v=(\d+) loops=(\d+) outer=(\d+)", lines[0].strip())
    if not head:
        raise CodecSyntaxError("bad rotmap header", 1)
    n, loops, outer = (int(head.group(i)) for i in (1, 2, 3))
    if len(lines) != n + 1:
        raise CodecSyntaxError(f"expected {n} vertex lines, got {len(lines) - 1}", 2)
    twin = [0] * (4 * n)
    for i, ln in enumerate(lines[1:]):
        m = re.fullmatch(rf"v{i}:\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)", ln.strip())
        if not m:
            raise CodecSyntaxError(f"bad vertex line for v{i}", i + 2)
        for s in range(4):
            twin[4 * i + s] = int(m.group(s + 1))
    shadow = pm.Shadow(n, tuple(twin), loops, outer)
    pm.validate_shadow(shadow)
    return shadow


# ---------------------------------------------------------------------------
# gauss
# ---------------------------------------------------------------------------

def _component_walks(shadow: pm.Shadow):
    """One canonical walk per closed curve, anchored at the least vertex."""
    orbits = pm.sigma_orbits(shadow)
    taken = set()
    walks = []
    for orbit in orbits:
        if orbit[0] in taken:
            continue
        for d in orbit:
            taken.add(d)
            taken.add(shadow.twin[d])
        walks.append(orbit)
    return walks


def _candidate_walks(shadow: pm.Shadow, walk):
    """The component walk rolled to start at each dart of its least vertex,
    in both orientations."""
    anchor = min(pm.vertex_of(d) for d in walk)
    rev = tuple(shadow.twin[d] for d in reversed(walk))
    out = []
    for d0 in range(4 * anchor, 4 * anchor + 4):
        for seq in (walk, rev):
            if d0 in seq:
                i = seq.index(d0)
                out.append(tuple(seq[i:]) + tuple(seq[:i]))
    return out


def _gauss_tokens(shadow: pm.Shadow, walk, bits):
    """Token list for one component walk; None if a sign is undefined."""
    visits = {}
    tokens = []
    for k, ex in enumerate(walk):
        in_dart = shadow.twin[walk[k - 1]]
        v = pm.vertex_of(ex)
        visits.setdefault(v, []).append(pm.slot_of(in_dart))
    signs = {}
    for v, ins in visits.items():
        if len(ins) == 2:
            norm = (ins[1] + (2 - ins[0])) % 4
            signs[v] = "+" if norm == 3 else "-"
    for k, ex in enumerate(walk):
        v = pm.vertex_of(ex)
        sign = signs.get(v, "+")
        if bits is None:
            tokens.append(f"{sign}{v + 1}")
        else:
            in_dart = shadow.twin[walk[k - 1]]
            over = (in_dart & 1) == bits[v]
            tokens.append(f"{sign}{'U' if over else 'L'}{v + 1}")
    return tokens


def _emit_gauss(obj) -> str:
    if isinstance(obj, iv.Diagram):
        shadow, bits = obj.shadow, obj.bits
    else:
        shadow, bits = obj, None
    if shadow.n == 0 or shadow.free_loops:
        raise UnsupportedConversion(
            "gauss codes cannot express vertex-less components; use rotmap")
    lines = []
    for walk in _component_walks(shadow):
        lines.append(min(" ".join(_gauss_tokens(shadow, seq, bits))
                         for seq in _candidate_walks(shadow, walk)))
    return "\n".join(sorted(lines)) + "\n"


_GAUSS_TOKEN = re.compile(r"([+-])([UL]?)(\d+)")


def _parse_gauss(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CodecSyntaxError("empty gauss input", 1)
    words = []
    labelled = None
    for lno, ln in enumerate(lines, start=1):
        word = []
        for tok in ln.split():
            m = _GAUSS_TOKEN.fullmatch(tok)
            if not m:
                raise CodecSyntaxError(f"bad gauss token {tok!r}", lno)
            sign, layer, label = m.group(1), m.group(2), int(m.group(3))
            if labelled is None:
                labelled = bool(layer)
            elif labelled != bool(layer):
                raise CodecSyntaxError("mixed shadow and diagram tokens", lno)
            word.append((sign, layer, label))
        words.append(word)
    counts = {}
    for word in words:
        for _, _, label in word:
            counts[label] = counts.get(label, 0) + 1
    bad = [l for l, c in counts.items() if c != 2]
    if bad:
        raise CodecSyntaxError(f"labels {sorted(bad)} do not occur exactly twice", 1)
    vertex_of_label = {l: i for i, l in enumerate(sorted(counts))}
    n = len(vertex_of_label)
    sign_of = {}
    layer1 = {}
    pairs_ends = []      # (exit dart, component, position)
    enters = []
    visit_no = {}
    for ci, word in enumerate(words):
        comp_exits = []
        comp_enters = []
        for sign, layer, label in word:
            v = vertex_of_label[label]
            k = visit_no.get(v, 0)
            visit_no[v] = k + 1
            if k == 0:
                sign_of[v] = sign
                layer1[v] = layer
                enter, exit_ = 2, 0
            else:
                if sign_of[v] != sign:
                    raise CodecSyntaxError(
                        f"label {label} carries two different signs", 1)
                enter = 3 if sign == "+" else 1
                exit_ = enter ^ 2
            comp_enters.append(4 * v + enter)
            comp_exits.append(4 * v + exit_)
        pairs_ends.append(comp_exits)
        enters.append(comp_enters)
    pairs = []
    for comp_exits, comp_enters in zip(pairs_ends, enters):
        L = len(comp_exits)
        for k in range(L):
            pairs.append((comp_exits[k], comp_enters[(k + 1) % L]))
    try:
        shadow = pm.build_shadow(pairs)
    except NonPlanar as e:
        raise UnrealizableCode(f"gauss code admits no planar realization: {e}")
    if not labelled:
        return shadow
    bits = [None] * n
    for word in words:
        for _, layer, label in word:
            v = vertex_of_label[label]
            if bits[v] is None:
                # first visit runs through the even slot pair
                bits[v] = 0 if layer == "U" else 1
            elif layer != ("U" if bits[v] == 1 else "L"):
                raise CodecSyntaxError(
                    f"label {label} is on the same layer at both visits", 1)
    return iv.Diagram(shadow, tuple(bits))


# ---------------------------------------------------------------------------
# pd
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _pd_rows(shadow: pm.Shadow) -> list:
    """The PD rows of every diagram on one shadow, cached for the last one.

    One list per candidate walk combination, whose entry v is crossing v's
    ``X[...]`` row for bit 0 and for bit 1; a diagram's text under that
    combination joins the row its bit picks at every crossing.
    """
    twin = shadow.twin
    walks = _component_walks(shadow)
    walks.sort(key=lambda w: min(pm.vertex_of(d) for d in w))
    out = []
    for combo in itertools.product(*(_candidate_walks(shadow, w) for w in walks)):
        label = [""] * (4 * shadow.n)
        in_darts = [False] * (4 * shadow.n)
        nxt = 1
        for seq in combo:
            for k, ex in enumerate(seq):
                label[ex] = label[twin[ex]] = str(nxt)
                nxt += 1
                in_darts[twin[seq[k - 1]]] = True
        rows = []
        for v in range(shadow.n):
            around = label[4 * v:4 * v + 4]
            pair = []
            for bit in (0, 1):
                # the incoming under-strand dart has the other parity;
                # the walks pass each strand once, so there is one
                for s in range(4):
                    if in_darts[4 * v + s] and (s & 1) != bit:
                        under_in = s
                pair.append("X[" + ",".join(
                    around[under_in:] + around[:under_in]) + "]")
            rows.append(tuple(pair))
        out.append(rows)
    return out


def _emit_pd(diagram: iv.Diagram) -> str:
    shadow = diagram.shadow
    if shadow.n == 0 or shadow.free_loops:
        raise UnsupportedConversion(
            "pd codes cannot express vertex-less components; use rotmap")
    bits = diagram.bits
    # the text is the least join over the candidate walks.  Each row is
    # X[...] and its only "]" ends it, so no row is a prefix of another and
    # the joins compare as their row tuples do: keep the candidates with the
    # least row at each crossing in turn, and join the first one left
    candidates = _pd_rows(shadow)
    for v, b in enumerate(bits):
        if len(candidates) == 1:
            break
        least = min(rows[v][b] for rows in candidates)
        candidates = [rows for rows in candidates if rows[v][b] == least]
    return " ".join(map(getitem, candidates[0], bits)) + "\n"


_PD_ROW = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")


def _parse_pd(text: str) -> iv.Diagram:
    rows = []
    for lno, ln in enumerate(text.splitlines(), start=1):
        for tok in ln.split():
            m = _PD_ROW.fullmatch(tok)
            if not m:
                raise CodecSyntaxError(f"bad pd token {tok!r}", lno)
            rows.append(tuple(int(m.group(i)) for i in (1, 2, 3, 4)))
    if not rows:
        raise CodecSyntaxError("empty pd input", 1)
    n = len(rows)
    positions = {}
    for v, row in enumerate(rows):
        for s, label in enumerate(row):
            positions.setdefault(label, []).append(4 * v + s)
    bad = [l for l, ds in positions.items() if len(ds) != 2]
    if bad:
        raise CodecSyntaxError(f"edge labels {sorted(bad)} do not occur exactly twice", 1)
    if sorted(positions) != list(range(1, 2 * n + 1)):
        raise CodecSyntaxError("edge labels must be 1..2n", 1)
    pairs = [tuple(ds) for ds in positions.values()]
    try:
        shadow = pm.build_shadow(pairs)
    except NonPlanar as e:
        raise UnrealizableCode(f"pd code admits no planar realization: {e}")
    # slot 0 of every row is on the incoming under-strand: pass {0,2} under
    return iv.Diagram(shadow, tuple(1 for _ in range(n)))


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def parse(text: str, fmt: str):
    """Parse text in the given format into a Shadow or Diagram."""
    if fmt == "rotmap":
        return _parse_rotmap(text)
    if fmt == "gauss":
        return _parse_gauss(text)
    if fmt == "pd":
        return _parse_pd(text)
    raise UnsupportedConversion(f"unknown format {fmt!r}")


def emit(obj, fmt: str) -> str:
    """Serialize a Shadow or Diagram to canonical text.

    Rotmap text stores shadows only; emit a diagram's ``shadow`` to drop
    its bits.
    """
    if fmt == "rotmap":
        if isinstance(obj, iv.Diagram):
            raise UnsupportedConversion("rotmap stores shadows, not diagrams")
        return _emit_rotmap(obj)
    if fmt == "gauss":
        return _emit_gauss(obj)
    if fmt == "pd":
        if not isinstance(obj, iv.Diagram):
            raise UnsupportedConversion("pd codes encode diagrams, not shadows")
        return _emit_pd(obj)
    raise UnsupportedConversion(f"unknown format {fmt!r}")


def detect_format(text: str) -> str:
    head = text.lstrip()[:7]
    if head.startswith("shadow"):
        return "rotmap"
    if head.startswith("X["):
        return "pd"
    return "gauss"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def census_to_names(census: dict) -> dict:
    """Counts by class name, in name order (not the census's visiting order)."""
    return dict(sorted((cls.name, count) for cls, count in census.items()))


def census_csv(census: dict) -> str:
    lines = ["class,count"]
    for name, count in census_to_names(census).items():
        lines.append(f"{name},{count}")
    return "\n".join(lines) + "\n"


def census_report_json(shadow: pm.Shadow, census: dict, runtime_ms=0) -> str:
    """The census as JSON; ``unknot_count`` includes presumed unknots."""
    payload = {
        "shadow": _emit_rotmap(shadow),
        "n": shadow.n,
        "census": census_to_names(census),
        "unknot_count": iv.unknot_count(census),
        "generated_count": None,
        "method": None,
        "runtime_ms": runtime_ms,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
