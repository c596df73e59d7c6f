"""The acceptance criteria, runnable as a suite (CLI selftest and pytest).

Each criterion returns (name, passed, detail).  Tolerances are exact counts
or hard runtime ceilings; nothing is calibrated at run time.
"""

from __future__ import annotations

import random
import time

from . import codec as cd
from . import decomp as dc
from . import digon as dg
from . import generate as gn
from . import invariants as iv
from . import planemap as pm


def builder_corpus():
    out = [
        ("trivial", pm.trivial()),
        ("one_vertex", pm.one_vertex()),
        ("chorizo2", pm.chorizo(2)),
        ("chorizo3", pm.chorizo(3)),
        ("chorizo4", pm.chorizo(4)),
        ("chorizo6", pm.chorizo(6)),
        ("chorizo8", pm.chorizo(8)),
        ("cn3", pm.cn(3)),
        ("cn5", pm.cn(5)),
        ("cn7", pm.cn(7)),
        ("cn9", pm.cn(9)),
        ("trefoil", pm.standard_trefoil()),
        ("figure8", pm.standard_figure8()),
    ]
    return out


def random_corpus(count=50, max_n=16, seed=7):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = 1 + rng.randrange(max_n)
        out.append((f"random{n}_{i}", pm.random_shadow(n, seed * 1000 + i)))
    return out


def check_1_figure8_census(fast=False, seed=7):
    t0 = time.monotonic()
    census = iv.census(pm.standard_figure8())
    dt = time.monotonic() - t0
    named = cd.census_to_names(census)
    ok = (sum(named.values()) == 16 and named.get("unknot") == 12 and dt < 1.0)
    return ("figure-eight census 12/16 under 1s", ok,
            f"counts={named}, runtime={dt:.3f}s")


def check_2_chorizo_all_unknot(fast=False, seed=7):
    details = []
    ok = True
    ks = (1, 2, 3, 4) if fast else (1, 2, 3, 4, 5, 6, 7, 8)
    for k in ks:
        named = cd.census_to_names(iv.census(pm.chorizo(k)))
        good = named == {"unknot": 1 << k}
        ok = ok and good
        details.append(f"k={k}:{'ok' if good else named}")
    top = 16 if fast else 64
    misses = [k for k in range(1, top + 1)
              if gn.trefoil_diagram(pm.chorizo(k)) is not None]
    ok = ok and not misses
    details.append(f"trefoil None for all k<={top}: {not misses}")
    return ("chorizo censuses all-unknot; no trefoil up to k=64", ok,
            ", ".join(details))


def check_3_c3_census(fast=False, seed=7):
    named = cd.census_to_names(iv.census(pm.cn(3)))
    ok = named == {"unknot": 6, "trefoil_left": 1, "trefoil_right": 1}
    return ("C3 census exactly {unknot:6, trefoils:1+1}", ok, f"counts={named}")


def check_4_generation_bound(fast=False, seed=7):
    corpus = builder_corpus()
    corpus += random_corpus(10 if fast else 50, max_n=12 if fast else 16, seed=seed)
    t0 = time.monotonic()
    bad = []
    for name, shadow in corpus:
        result = gn.generate_unknots(shadow)
        for d in result.diagrams:
            if iv.classify(d).kind != "unknot":
                bad.append(f"{name}: non-unknot output")
                break
        if not gn.replay_all(result):
            bad.append(f"{name}: certificate replay failed")
    dt = time.monotonic() - t0
    ok = not bad and dt < 60.0
    return ("2^cbrt(n) unknot families, certified and replayed, under 60s", ok,
            f"{len(corpus)} shadows in {dt:.1f}s" + ("; " + "; ".join(bad) if bad else ""))


def check_5_lift_inequalities(fast=False, seed=7):
    instances = []
    pool = builder_corpus() + random_corpus(20, max_n=9, seed=seed + 1)
    want = 10 if fast else 30
    for name, shadow in pool:
        if not 1 <= shadow.n <= 10:
            continue
        for cyc in dc.enumerate_straight_ahead_cycles(shadow):
            instances.append((name, shadow, cyc))
            if len(instances) >= want:
                break
        if len(instances) >= want:
            break
    bad = []
    for name, shadow, cyc in instances:
        u_parent = iv.unknot_count(iv.census(shadow))
        step = dc.quotient(shadow, cyc)
        u_child = iv.unknot_count(iv.census(step.child))
        factor = 4 if len(cyc.vertices()) > 1 else 2
        if u_parent < factor * u_child:
            bad.append(f"{name}: {u_parent} < {factor}*{u_child}")
    ok = not bad and len(instances) >= want
    return (f"unknot count at least doubles per removed cycle ({len(instances)} pairs)",
            ok, "; ".join(bad) if bad else "all hold")


def check_6_digon_bounds(fast=False, seed=7):
    rng = random.Random(seed + 2)
    trials = 60 if fast else 200
    bad = []
    for i in range(trials):
        m = 2 + 2 * rng.randrange(5)
        ov = dg.random_overlay(m, seed * 10000 + i)
        ds = dg.digons(ov)
        if len(ds) < 4:
            bad.append(f"trial {i}: {len(ds)} digons at m={m}")
            continue
        try:
            dg.digon_avoiding(ov)
        except Exception as e:
            bad.append(f"trial {i}: avoiding digon missing ({e})")
    tc = dg.two_circle_overlay()
    four = len(dg.digons(tc)) == 4
    marked = dg.MarkedOverlay(tc.shadow, "even", tc.colors,
                              blue_mark=tc.blue_edges()[0],
                              red_mark=tc.red_edges()[0])
    doubly = [g for g in dg.digons(marked)
              if g.blue_edge != marked.blue_mark and g.red_edge != marked.red_mark]
    one = len(doubly) == 1
    ok = not bad and four and one
    return (f"at least 4 digons on {trials} random overlays; 2-crossing case exact",
            ok,
            f"two-circle digons=4:{four}, doubly-avoiding=1:{one}"
            + ("; " + "; ".join(bad[:3]) if bad else ""))


def check_7_trefoil_characterization(fast=False, seed=7):
    corpus = [(n, s) for n, s in builder_corpus() if s.n <= 8]
    corpus += [(n, s) for n, s in random_corpus(25, max_n=8, seed=seed + 3)]
    bad = []
    for name, shadow in corpus:
        if shadow.n == 0:
            continue
        all_unknot = cd.census_to_names(iv.census(shadow)) == {"unknot": 1 << shadow.n}
        all_cut = pm.all_cut_vertices(shadow)
        tre = gn.trefoil_diagram(shadow)
        if not (all_unknot == all_cut == (tre is None)):
            bad.append(f"{name}: census={all_unknot} cut={all_cut} trefoil={tre is None}")
            continue
        if tre is not None and iv.classify(tre).kind not in (
                "trefoil_left", "trefoil_right"):
            bad.append(f"{name}: constructed diagram is not a trefoil")
    ok = not bad
    return (f"all-unknot <=> all-cut <=> no-trefoil on {len(corpus)} shadows (n<=8)",
            ok, "; ".join(bad) if bad else "equivalence holds")


def check_8_even_family(fast=False, seed=7):
    bad = []
    ns = (3, 5, 7) if fast else (3, 5, 7, 9)
    for n in ns:
        rep = gn.verify_even_family(n)
        if rep["figure_eight_count"] != 0:
            bad.append(f"n={n}: figure-eight appeared")
        if rep["rii_verified"] != rep["non_alternating"]:
            bad.append(f"n={n}: {rep['rii_verified']}/{rep['non_alternating']} RII logs")
        if rep["ring_verified"] != rep["non_alternating"]:
            bad.append(f"n={n}: RII does not land on the smaller ring")
    ok = not bad
    return (f"doubled rings n={ns}: no figure-eight; RII reductions verified",
            ok, "; ".join(bad) if bad else "all verified")


def check_9_connected_sum(fast=False, seed=7):
    f8 = pm.standard_figure8()
    u1 = iv.unknot_count(iv.census(f8))
    square = pm.connected_sum(f8, f8)
    u2 = iv.unknot_count(iv.census(square))
    ok = u1 == 12 and u2 == 144 and square.n == 8
    return ("connected-sum multiplicativity: 144 of 256 on the doubled figure-eight",
            ok, f"unknot(T)={u1}, unknot(T^2)={u2}")


def check_10_invariance_suites(fast=False, seed=7):
    rng = random.Random(seed + 4)
    corpus = [s for _, s in builder_corpus() if 1 <= s.n <= 8]
    bad = []
    trials = 30 if fast else 100
    for i in range(trials):
        shadow = corpus[rng.randrange(len(corpus))]
        bits = tuple(rng.randrange(2) for _ in range(shadow.n))
        d = iv.Diagram(shadow, bits)
        f = iv.normalized_poly(d)
        if iv.normalized_poly(iv.mirror(d)) != f.invert_variable():
            bad.append(f"trial {i}: mirror symmetry failed")
            continue
        d2 = iv.insert_curl_diagram(d, rng.randrange(4 * shadow.n),
                                    rng.random() < 0.5, rng.randrange(2))
        if iv.normalized_poly(d2) != f:
            bad.append(f"trial {i}: curl insertion changed the polynomial")
            continue
        face = rng.choice(pm.faces(shadow))
        pair = [(a, b) for a in face for b in face
                if shadow.edge_id(a) != shadow.edge_id(b)]
        if pair:
            a, b = pair[rng.randrange(len(pair))]
            d3 = iv.insert_poke_diagram(d, a, b, rng.random() < 0.5)
            if d3 is not None and iv.normalized_poly(d3) != f:
                bad.append(f"trial {i}: poke insertion changed the polynomial")
    ok = not bad
    return (f"normalized polynomial invariant under {trials} random moves + mirror",
            ok, "; ".join(bad[:3]) if bad else "all invariant")


CHECKS = (
    check_1_figure8_census,
    check_2_chorizo_all_unknot,
    check_3_c3_census,
    check_4_generation_bound,
    check_5_lift_inequalities,
    check_6_digon_bounds,
    check_7_trefoil_characterization,
    check_8_even_family,
    check_9_connected_sum,
    check_10_invariance_suites,
)


def run_all(fast: bool = False, seed: int = 7):
    return [check(fast=fast, seed=seed or 7) for check in CHECKS]
