"""Text formats: round trips, canonical emission, reports, error paths."""

import json
import pathlib
import random

import pytest

from conftest import CORPUS, doubled_ring_link
from unknotforge import codec as cd
from unknotforge import generate as gn
from unknotforge import invariants as iv
from unknotforge import planemap as pm
from unknotforge.errors import (
    CodecSyntaxError,
    UnrealizableCode,
    UnsupportedConversion,
)


def test_trivial_rotmap_text():
    assert cd.emit(pm.trivial(), "rotmap") == "shadow v=0 loops=1 outer=0\n"
    assert cd.parse("shadow v=0 loops=1 outer=0\n", "rotmap") == pm.trivial()


def test_rotmap_round_trip_exact(corpus_shadow):
    s = corpus_shadow
    text = cd.emit(s, "rotmap")
    assert cd.parse(text, "rotmap") == s
    assert cd.emit(cd.parse(text, "rotmap"), "rotmap") == text


def test_gauss_round_trip_shadow(corpus_shadow):
    s = corpus_shadow
    if s.n == 0:
        return
    text = cd.emit(s, "gauss")
    back = cd.parse(text, "gauss")
    assert pm.plane_map_equal(s, back)
    assert cd.emit(back, "gauss") == text


def test_gauss_round_trip_diagram(corpus_shadow):
    s = corpus_shadow
    if s.n == 0:
        return
    d = iv.alternating_diagram(s)
    text = cd.emit(d, "gauss")
    back = cd.parse(text, "gauss")
    assert pm.plane_map_equal(d.shadow, back.shadow, d.bits, back.bits)
    assert cd.emit(back, "gauss") == text


def test_pd_round_trip(corpus_shadow):
    s = corpus_shadow
    if s.n == 0:
        return
    for d in (iv.alternating_diagram(s), iv.Diagram(s, (0,) * s.n)):
        text = cd.emit(d, "pd")
        back = cd.parse(text, "pd")
        assert pm.plane_map_equal(d.shadow, back.shadow, d.bits, back.bits)
        assert cd.emit(back, "pd") == text


def test_pd_of_alternating_trefoil_classifies_trefoil():
    d = iv.alternating_diagram(pm.standard_trefoil())
    back = cd.parse(cd.emit(d, "pd"), "pd")
    assert iv.classify(back).kind in ("trefoil_left", "trefoil_right")


def test_random_shadow_round_trips():
    for seed in range(100):
        s = pm.random_shadow(1 + seed % 12, seed)
        assert cd.parse(cd.emit(s, "rotmap"), "rotmap") == s
        back = cd.parse(cd.emit(s, "gauss"), "gauss")
        assert pm.plane_map_equal(s, back)
        if seed % 5 == 0:
            d = iv.alternating_diagram(s)
            dback = cd.parse(cd.emit(d, "pd"), "pd")
            assert pm.plane_map_equal(d.shadow, dback.shadow, d.bits, dback.bits)


def test_canonical_emission_under_slot_rotation():
    s = pm.standard_figure8()
    perm = {8 + i: 8 + ((i + 3) & 3) for i in range(4)}
    twin = [0] * 16
    for d in range(16):
        twin[perm.get(d, d)] = perm.get(s.twin[d], s.twin[d])
    rotated = pm.Shadow(4, tuple(twin), 0, 0)
    pm.validate_shadow(rotated)
    assert pm.plane_map_equal(s, rotated)
    assert cd.emit(s, "gauss") == cd.emit(rotated, "gauss")
    d1 = iv.alternating_diagram(s)
    d2 = iv.alternating_diagram(rotated)
    assert cd.emit(d1, "pd") == cd.emit(d2, "pd")


def test_gauss_label_occurring_once_is_syntax_error():
    with pytest.raises(CodecSyntaxError):
        cd.parse("+1 -2 +1", "gauss")


def test_gauss_same_layer_twice_rejected():
    with pytest.raises(CodecSyntaxError):
        cd.parse("+U1 +U1", "gauss")


def test_nonplanar_gauss_rejected():
    with pytest.raises(UnrealizableCode):
        cd.parse("+1 +2 +1 +2", "gauss")


def test_diagram_to_shadow_format_needs_strip():
    d = iv.alternating_diagram(pm.standard_trefoil())
    with pytest.raises(UnsupportedConversion):
        cd.emit(d, "rotmap")
    stripped = cd.emit(d.shadow, "rotmap")
    assert cd.parse(stripped, "rotmap") == d.shadow
    gauss_shadow = cd.emit(d.shadow, "gauss")
    assert "U" not in gauss_shadow and "L" not in gauss_shadow


@pytest.mark.parametrize("fmt, text, line", [
    ("rotmap", "", 1),
    ("rotmap", "shadow v=x\n", 1),
    ("rotmap", "shadow v=1 loops=0 outer=0\n", 2),
    ("rotmap", "shadow v=1 loops=0 outer=0\nv1: 1 0 3 2\n", 2),
    ("gauss", "", 1),
    ("gauss", "+1 x", 1),
    ("gauss", "+U1 +2 +L1 +2", 1),
    ("gauss", "+1 -1", 1),
    ("pd", "Y[1]", 1),
    ("pd", "", 1),
    ("pd", "X[1,2,3,4]", 1),
    ("pd", "X[1,1,3,3]", 1),
])
def test_malformed_text_is_a_syntax_error_at_its_line(fmt, text, line):
    with pytest.raises(CodecSyntaxError) as info:
        cd.parse(text, fmt)
    assert info.value.line == line


def test_nonplanar_pd_rejected():
    with pytest.raises(UnrealizableCode):
        cd.parse("X[1,1,2,2] X[3,4,3,4]", "pd")


def test_unknown_format_and_trivial_gauss_are_unsupported():
    with pytest.raises(UnsupportedConversion):
        cd.parse("+1 +1", "xml")
    with pytest.raises(UnsupportedConversion):
        cd.emit(pm.trivial(), "gauss")
    with pytest.raises(UnsupportedConversion):
        cd.emit(pm.standard_trefoil(), "xml")


def test_pd_emits_every_assignment(corpus_shadow):
    # every crossing has an incoming dart of each parity in every PD walk,
    # so no assignment lacks an incoming underpass
    s = corpus_shadow
    if s.n == 0:
        return
    for d in iv.assignments(s):
        text = cd.emit(d, "pd")
        assert text.count("X[") == s.n
        back = cd.parse(text, "pd")
        assert pm.plane_map_equal(d.shadow, back.shadow, d.bits, back.bits)


def test_pd_rejects_shadow_and_trivial():
    with pytest.raises(UnsupportedConversion):
        cd.emit(pm.standard_trefoil(), "pd")
    with pytest.raises(UnsupportedConversion):
        cd.emit(iv.trivial_diagram(), "pd")


def test_detect_format():
    assert cd.detect_format("shadow v=0 loops=1 outer=0") == "rotmap"
    assert cd.detect_format("X[1,2,3,4]") == "pd"
    assert cd.detect_format("+1 -1") == "gauss"


def test_census_csv_sorted():
    census = iv.census(pm.standard_figure8())
    text = cd.census_csv(census)
    lines = text.strip().splitlines()
    assert lines[0] == "class,count"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == sorted(names)
    assert "unknot,12" in lines


def test_census_report_json_schema():
    census = iv.census(pm.chorizo(4))
    payload = json.loads(cd.census_report_json(pm.chorizo(4), census))
    assert set(payload) == {"shadow", "n", "census", "unknot_count",
                            "generated_count", "method", "runtime_ms"}
    assert payload["generated_count"] is None and payload["method"] is None
    assert payload["n"] == 4
    assert payload["unknot_count"] == 16
    assert payload["census"] == {"unknot": 16}
    assert payload["runtime_ms"] == 0


# ---------------------------------------------------------------------------
# pinned PD and Gauss text
# ---------------------------------------------------------------------------

PINS_PATH = pathlib.Path(__file__).parent / "data" / "codec_pins.json"


def pin_cases():
    """Named diagrams whose PD and Gauss text is pinned; consecutive cases
    often share a shadow."""
    out = []
    for name, s in CORPUS:
        if s.n:
            out.append((f"{name}/alternating", iv.alternating_diagram(s)))
            out.append((f"{name}/zeros", iv.Diagram(s, (0,) * s.n)))
    for n in range(3, 14):
        s = pm.random_shadow(n, n)
        rng = random.Random(n)
        for k in range(3):
            bits = tuple(rng.randrange(2) for _ in range(n))
            out.append((f"random_shadow({n}, {n})/{k}", iv.Diagram(s, bits)))
    for n in (2, 6):
        s = doubled_ring_link(n)
        rng = random.Random(n)
        out.append((f"ring_link{n}/zeros", iv.Diagram(s, (0,) * n)))
        for k in range(2):
            bits = tuple(rng.randrange(2) for _ in range(n))
            out.append((f"ring_link{n}/{k}", iv.Diagram(s, bits)))
    # cn(9) takes the odd digon route by default; the two random shadows
    # take the odd and the even digon route when it is forced
    for name, s, method in (("cn9", pm.cn(9), "auto"),
                            ("random_shadow(16, 19)", pm.random_shadow(16, 19), "digons"),
                            ("random_shadow(17, 5)", pm.random_shadow(17, 5), "digons")):
        res = gn.generate_unknots(s, method=method)
        assert res.method.startswith("digons")
        for i, d in enumerate(res.diagrams):
            out.append((f"{name}/{res.method}/{i}", d))
    return out


@pytest.fixture(scope="module")
def cases():
    return dict(pin_cases())


@pytest.fixture(scope="module")
def pins():
    # {name: {"pd": emit(d, "pd"), "gauss": emit(d, "gauss")}}, captured
    # from the per-call PD emitter that the per-shadow tables replaced
    return json.loads(PINS_PATH.read_text())


def test_emission_matches_pins(cases, pins):
    assert list(pins) == list(cases)
    for name, d in cases.items():
        assert cd.emit(d, "pd") == pins[name]["pd"], name
        assert cd.emit(d, "gauss") == pins[name]["gauss"], name


def test_pd_tables_are_kept_for_the_last_shadow(cases, pins):
    a, b = "cn3", "figure8"
    for name in (f"{a}/alternating", f"{b}/alternating", f"{a}/zeros",
                 f"{b}/zeros"):
        assert cd.emit(cases[name], "pd") == pins[name]["pd"], name
    # an equal shadow that is another object reuses the last tables
    tables = cd._pd_tables
    s = cases[f"{b}/zeros"].shadow
    copy = pm.Shadow(s.n, tuple(list(s.twin)), s.free_loops, s.outer_face)
    assert copy == s and copy is not s
    assert cd.emit(iv.alternating_diagram(copy), "pd") == pins[f"{b}/alternating"]["pd"]
    assert cd._pd_tables is tables
    # a link between two knots
    for name in ("ring_link6/0", "ring_link6/zeros", f"{a}/zeros"):
        assert cd.emit(cases[name], "pd") == pins[name]["pd"], name
