"""The three workloads: their inputs, one operation each, and output checks.

A workload's pass is ``groups_per_pass`` groups.  Group ``g`` of seed ``s``
is a list of inputs drawn from ``random.Random(f"{s}/{g}")``, and every
group has the same composition, so the mix does not depend on the seed.  An
operation processes one shadow and fills an ``OpResult``; a raised exception
or a failed check is a miss, recorded in the result, and the run goes on.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import braid

HERE = os.path.dirname(os.path.abspath(__file__))
TREFOILS = ("trefoil_left", "trefoil_right")


@dataclass
class OpResult:
    name: str
    seconds: float = 0.0
    classified: int = 0      # diagrams classified (census or classify)
    resolved: int = 0        # of those, with a certified verdict
    certified: int = 0       # generated diagrams passing all three checks
    misses: list = field(default_factory=list)
    probe_s: float = 0.0     # probe time around the operation (run.py)
    group: int = 0           # the group of the pass the input came from

    @property
    def ok(self):
        return not self.misses


def _named(census):
    out = {}
    for cls, c in census.items():
        out[cls.name] = out.get(cls.name, 0) + c
    return out


def _is_knotted(cls):
    return cls.kind not in ("unknot", "unresolved")


def _certified_verdict(cls):
    return cls.kind != "unresolved" and not cls.presumed


def _certify(res, classes, replayed, out):
    """The three checks on a generated family; counts what passed."""
    before = len(out.misses)
    if not res.bound_satisfied:
        out.misses.append(f"family of {res.count} below bound {res.bound}")
    knotted = [c.name for c in classes if _is_knotted(c)]
    if knotted:
        out.misses.append(f"{len(knotted)} outputs classify as knotted, "
                          f"e.g. {knotted[0]}")
    if not replayed:
        out.misses.append("certificate replay failed")
    out.classified += len(classes)
    out.resolved += sum(1 for c in classes if _certified_verdict(c))
    if len(out.misses) == before:
        out.certified += sum(1 for c in classes if c.kind == "unknot")


# ---------------------------------------------------------------------------
# census-knotted
# ---------------------------------------------------------------------------

class CensusKnotted:
    """Censuses of shadows without cut vertices whose diagrams mostly keep a
    knotted residue, so the bracket state sum does most of the work.  Each
    shadow is also run through generate-and-certify, a small share of the
    time, and its family is checked against the census."""

    name = "census-knotted"
    groups_per_pass = 1
    # four operations a pass, so no percentile above the median has ten
    # beyond it; the tail is the slowest census
    tail_percentile = 100

    def __init__(self):
        with open(os.path.join(HERE, "expected_census.json")) as f:
            self.expected = json.load(f)

    def setup(self, lib):
        self.lib = lib
        pm = lib.pm
        f8 = self.fig8 = pm.standard_figure8()
        # fig8#fig8#fig8 keeps the library's default sum edges: depending on
        # the edges its census takes 5.2 s or 8.9 s (the greedy simplifier
        # is sensitive to the embedding), which moved a run's throughput by
        # a third from seed to seed.  The defaults are the slow kind.
        self.fixed = [("cn11", pm.cn(11)), ("cn13", pm.cn(13)),
                      ("fig8#fig8#fig8",
                       pm.connected_sum(pm.connected_sum(f8, f8), f8))]

    def group(self, seed, g):
        rng = random.Random(f"{seed}/{g}")
        pm, f8 = self.lib.pm, self.fig8
        twice = pm.connected_sum(f8, f8, rng.choice(pm.outer_edges(f8)),
                                 rng.choice(pm.outer_edges(f8)))
        return self.fixed + [("fig8#fig8", twice)]

    def run(self, item, out):
        name, shadow = item
        iv, gn = self.lib.iv, self.lib.gn
        named = _named(iv.census(shadow))
        total = 1 << shadow.n
        out.classified += sum(named.values())
        out.resolved += sum(c for k, c in named.items() if k != "unresolved")
        if sum(named.values()) != total:
            out.misses.append(f"census sums to {sum(named.values())}, not {total}")
        if named.get("trefoil_left") != named.get("trefoil_right"):
            out.misses.append("trefoil counts are not mirror-symmetric")
        if named != self.expected[name]:
            out.misses.append("class counts differ from the pinned census")
        res = gn.generate_unknots(shadow)
        classes = [iv.classify(d) for d in res.diagrams]
        replayed = gn.replay_all(res)
        if res.count > named.get("unknot", 0):
            out.misses.append(f"{res.count} generated unknots exceed the "
                              f"census's {named.get('unknot', 0)}")
        _certify(res, classes, replayed, out)


# ---------------------------------------------------------------------------
# certify-curl
# ---------------------------------------------------------------------------

class CertifyCurl:
    """The criterion-4 pipeline (generate, classify every output, replay)
    on the builder corpus plus seeded random shadows, which are curl-heavy,
    so simplify dominates and the bracket does almost nothing.  Each group
    holds one random shadow of every size MIN_N..MAX_N; a single n=16 shadow
    can take ten seconds, so sizes stop at 12 to keep the mix steady per
    run.  Sizes 1 and 2 are left out: like most of the builder corpus they
    take under 0.4 ms, and with them the median operation fell on the edge
    between those and the 0.6 ms ones, which moved it by a sixth from seed
    to seed."""

    name = "certify-curl"
    groups_per_pass = 28
    # 644 operations a pass, 12 beyond p98
    tail_percentile = 98
    MIN_N, MAX_N = 3, 12

    def setup(self, lib):
        self.lib = lib
        self.builders = lib.ac.builder_corpus()

    def group(self, seed, g):
        rng = random.Random(f"{seed}/{g}")
        pm = self.lib.pm
        return self.builders + [
            (f"random{n}", pm.random_shadow(n, rng.randrange(1 << 30)))
            for n in range(self.MIN_N, self.MAX_N + 1)]

    def run(self, item, out):
        _, shadow = item
        iv, gn = self.lib.iv, self.lib.gn
        res = gn.generate_unknots(shadow)
        classes = [iv.classify(d) for d in res.diagrams]
        replayed = gn.replay_all(res)
        _certify(res, classes, replayed, out)


# ---------------------------------------------------------------------------
# braid
# ---------------------------------------------------------------------------

class Braid:
    """Closed braids on 3 and 4 strands with 16-40 crossings, given to the
    program as PD text.  The only workload that reaches the digon routes,
    even case included; n is above the bracket limit, so classify meets the
    unresolved path.  Each group holds one positive torus word (sigma1
    sigma2)^k and one random word per (strands, length band) stratum.

    Outputs are classified with the library's oracle limit (the CLI's
    ``--oracle-limit``) set to ORACLE_LIMIT.  At the default of 20, a single
    output whose simplified residue keeps 17-20 crossings costs seconds to
    minutes of state sum, so a handful of outputs would set a run's time;
    above the limit those outputs are ``unresolved``, which stays visible in
    ``resolved_ratio``."""

    name = "braid"
    groups_per_pass = 30
    # 180 operations a pass, 27 beyond p85.  The slowest tenth mixes the
    # fixed torus words with 3-strand words of 28-30 crossings whose times
    # differ threefold by seed, which moved p90 by a fifth between seeds.
    tail_percentile = 85
    ORACLE_LIMIT = 10
    # search depth of the second, deeper verdict on a trefoil_diagram
    # output that the default classify leaves unresolved
    TREFOIL_RIII_DEPTH = 2
    # 3 | k gives a three-component link, so those k are not knots
    TORUS_K = tuple(k for k in range(14, 21) if k % 3)
    # (strands, shortest, longest).  Random 3-strand words of 32-40 crossings
    # are left out: their families run from 64 to 512 diagrams, and that
    # spread alone moved a 30-second run's figures by a quarter from seed to
    # seed.  The torus words cover 3 strands at 28-40 crossings.
    STRATA = ((3, 16, 23), (3, 24, 31), (4, 16, 23), (4, 24, 31), (4, 32, 40))

    def setup(self, lib):
        self.lib = lib

    def group(self, seed, g):
        rng = random.Random(f"{seed}/{g}")
        k = self.TORUS_K[g % len(self.TORUS_K)]
        words = [(f"torus3_{k}", braid.torus_word(k), 3)]
        for strands, lo, hi in self.STRATA:
            # the group index, not the seed, picks the length, so every pass
            # has the same mix of lengths and the seed draws the letters
            lengths = range(lo + (lo - strands + 1) % 2, hi + 1, 2)
            w = braid.random_knot_word(rng, strands, lengths[g % len(lengths)])
            words.append((f"b{strands}_{len(w)}", w, strands))
        return [(name, len(w), braid.braid_pd(w, s)) for name, w, s in words]

    def run(self, item, out):
        _, length, pd = item
        lib = self.lib
        iv, gn, cd = lib.iv, lib.gn, lib.cd
        diagram = cd.parse(pd, "pd")
        shadow = diagram.shadow
        if shadow.n != length:
            out.misses.append(f"parsed {shadow.n} crossings from a word of {length}")
        res = gn.generate_unknots(shadow)
        replayed = gn.replay_all(res)
        classes = [iv.classify(d, self.ORACLE_LIMIT) for d in res.diagrams]
        texts = [cd.emit(d, "pd") for d in res.diagrams]
        if any(t.count("X[") != shadow.n for t in texts):
            out.misses.append("a PD emission lost crossings")
        tre = gn.trefoil_diagram(shadow)
        cls = iv.classify(tre) if tre is not None else None
        verdict = cls
        if cls is not None and cls.kind == "unresolved":
            # The greedy simplifier can stall above the bracket limit on a
            # lifted trefoil (ROADMAP item 4).  Triangle slides are sound
            # moves too, so a trefoil verdict after them certifies the
            # output; the default verdict still counts as unresolved.
            verdict = iv.classify(tre, riii_depth=self.TREFOIL_RIII_DEPTH)
        if verdict is None or verdict.kind not in TREFOILS:
            out.misses.append(f"trefoil_diagram gave {verdict}")
        else:
            out.classified += 1
            out.resolved += _certified_verdict(cls)
        _certify(res, classes, replayed, out)


WORKLOADS = {w.name: w for w in (CensusKnotted, CertifyCurl, Braid)}
