"""End-to-end command-line checks."""

import json
import pathlib

import pytest

from unknotforge import cli
from unknotforge import codec as cd
from unknotforge import decomp as dc
from unknotforge import invariants as iv
from unknotforge import planemap as pm


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return _run


@pytest.fixture
def fig8_file(tmp_path):
    p = tmp_path / "fig8.rot"
    p.write_text(cd.emit(pm.standard_figure8(), "rotmap"))
    return str(p)


def test_family_and_validate(run, tmp_path):
    expected = {
        ("chorizo", "4"): pm.chorizo(4),
        ("cn", "5"): pm.cn(5),
        ("trefoil",): pm.standard_trefoil(),
        ("figure8",): pm.standard_figure8(),
        ("one_vertex",): pm.one_vertex(),
        ("trivial",): pm.trivial(),
        ("random", "11"): pm.random_shadow(11, 6),
    }
    assert sorted(name for name, *_ in expected) == sorted(cli.FAMILIES)
    for argv, shadow in expected.items():
        code, out, _ = run("--seed", "6", "family", *argv)
        assert code == 0, argv
        assert out == cd.emit(shadow, "rotmap"), argv
    code, out, _ = run("family", "chorizo", "4")
    assert code == 0 and out.startswith("shadow v=4")
    p = tmp_path / "c4.rot"
    p.write_text(out)
    code, out, _ = run("validate", str(p))
    assert code == 0
    assert "kind: knot" in out


def test_validate_rejects_link(run, tmp_path):
    p = tmp_path / "link.rot"
    link = pm.build_shadow([(0, 6), (2, 4), (1, 5), (3, 7)])
    p.write_text(cd.emit(link, "rotmap"))
    code, out, _ = run("validate", str(p))
    assert code == 1
    assert "kind: link" in out


def test_census_text_and_json(run, fig8_file):
    code, out, _ = run("census", fig8_file)
    assert code == 0
    assert "unknot,12" in out
    assert "unknot_fraction,12/16" in out
    code, out, _ = run("--format", "json", "census", fig8_file)
    payload = json.loads(out)
    assert payload["unknot_count"] == 12
    assert payload["runtime_ms"] == 0


def test_census_splits_presumed_unknots(run, tmp_path):
    # classify presumes 8 of this shadow's 256 diagrams unknot
    p = tmp_path / "r8.rot"
    p.write_text(cd.emit(pm.random_shadow(8, 16), "rotmap"))
    code, out, _ = run("census", str(p))
    lines = out.splitlines()
    assert code == 0
    assert "unknot,144" in lines and "unknot (presumed),8" in lines
    assert lines[-2:] == ["total,256", "unknot_fraction,152/256"]
    code, out, _ = run("--format", "csv", "census", str(p))
    lines = out.splitlines()
    assert code == 0 and lines[0] == "class,count"
    assert "unknot,144" in lines and "unknot (presumed),8" in lines
    code, out, _ = run("--format", "json", "census", str(p))
    payload = json.loads(out)
    assert code == 0
    assert payload["census"]["unknot"] == 144
    assert payload["census"]["unknot (presumed)"] == 8
    assert payload["unknot_count"] == 152


def test_census_byte_identical_across_threads(run, fig8_file):
    _, out1, _ = run("--threads", "1", "census", fig8_file)
    _, out2, _ = run("--threads", "2", "census", fig8_file)
    assert out1 == out2


def test_generate_bound(run, fig8_file):
    code, out, _ = run("--format", "json", "generate", fig8_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["bound_satisfied"] is True
    assert payload["replay_ok"] is True
    assert payload["count"] >= payload["bound"]


def test_generate_json_dumps_the_decomposition(run, tmp_path):
    for shadow in (pm.cn(5), pm.random_shadow(8, 24)):
        p = tmp_path / "shadow.rot"
        p.write_text(cd.emit(shadow, "rotmap"))
        code, out, _ = run("--format", "json", "generate", str(p),
                           "--dump-decomposition")
        assert code == 0
        got = json.loads(out)["decomposition"]
        dec = dc.greedy_cycle_decomposition(shadow)
        assert got["size"] == dec.size
        assert got["cycles"] == [list(st.cycle.vertices()) for st in dec.steps] + [[]]


def test_generate_methods(run, tmp_path):
    p = tmp_path / "cn5.rot"
    p.write_text(cd.emit(pm.cn(5), "rotmap"))
    for method in ("auto", "cycles", "digons", "descending"):
        code, out, _ = run("generate", str(p), "--method", method)
        assert code == 0, method
        assert "bound_satisfied: true" in out or method == "descending"


GENERATE_PINS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "generate_pins.json").read_text())


@pytest.mark.parametrize("pin", GENERATE_PINS,
                         ids=lambda pin: f"{pin['name']}-{pin['method']}")
def test_generate_json_output_is_pinned(run, tmp_path, pin):
    # stdout and exit code of `generate --format json`, recorded before the
    # certificates became move logs; the bound is promised on the route
    # that auto takes only, so a forced route that misses it exits 0
    code, out, _ = run(*pin["family"])
    assert code == 0
    p = tmp_path / "shadow.rot"
    p.write_text(out)
    code, out, _ = run("--format", "json", "generate", str(p),
                       "--method", pin["method"])
    assert (code, out) == (pin["exit"], pin["stdout"])


def test_classify_bits(run, fig8_file):
    code, out, _ = run("classify", fig8_file, "--bits", "0000")
    assert code == 0
    assert out.strip() in {"unknot", "trefoil_left", "trefoil_right",
                           "figure_eight"} or out.startswith("other")


def test_limits_default_to_the_library_limit(run, tmp_path):
    args = cli.build_parser().parse_args(["classify", "x.rot"])
    assert args.oracle_limit == args.census_limit == iv.DEFAULT_LIMIT
    # a reduced alternating 17-crossing diagram: the simplifier is stuck,
    # so the verdict comes from the bracket
    s = pm.cn(17)
    p = tmp_path / "cn17.rot"
    p.write_text(cd.emit(s, "rotmap"))
    bits = "".join(map(str, iv.alternating_diagram(s).bits))
    code, out, _ = run("classify", str(p), "--bits", bits)
    assert code == 0 and out.startswith("other[")
    code, out, _ = run("--oracle-limit", "16", "classify", str(p), "--bits", bits)
    assert code == 0 and out.strip() == "unresolved"


def test_classify_usage_error(run, fig8_file):
    code, out, err = run("classify", fig8_file, "--bits", "01")
    assert code == 64
    assert out == "" and err == "usage: --bits needs 4 characters of 0/1\n"
    code, out, err = run("classify", fig8_file)
    assert code == 64
    assert out == "" and err == "usage: input is a shadow; supply --bits\n"


def test_trefoil_on_chorizo_and_cn3(run, tmp_path):
    p = tmp_path / "c5.rot"
    p.write_text(cd.emit(pm.chorizo(5), "rotmap"))
    code, out, _ = run("trefoil", str(p))
    assert code == 0 and "all-unknot shadow" in out
    q = tmp_path / "cn3.rot"
    q.write_text(cd.emit(pm.cn(3), "rotmap"))
    code, out, _ = run("trefoil", str(q))
    assert code == 0 and "class: trefoil" in out


def test_cutcheck(run, tmp_path):
    p = tmp_path / "c4.rot"
    p.write_text(cd.emit(pm.chorizo(4), "rotmap"))
    code, out, _ = run("cutcheck", str(p))
    assert code == 0
    assert "all_cut: true" in out
    q = tmp_path / "t.rot"
    q.write_text(cd.emit(pm.standard_trefoil(), "rotmap"))
    code, out, _ = run("cutcheck", str(q))
    assert "all_cut: false" in out
    assert "cut_vertices: none" in out


def test_depth(run, tmp_path):
    p = tmp_path / "c4.rot"
    p.write_text(cd.emit(pm.chorizo(4), "rotmap"))
    code, out, _ = run("depth", str(p))
    assert code == 0 and out.strip() == "1"


def test_connsum(run, tmp_path, fig8_file):
    code, out, _ = run("connsum", fig8_file, fig8_file)
    assert code == 0
    merged = cd.parse(out, "rotmap")
    assert merged.n == 8


def test_outer_face_out_of_range_is_invalid(run, tmp_path, fig8_file):
    s = pm.cn(3)
    p = tmp_path / "cn3.rot"
    p.write_text(cd.emit(s, "rotmap").replace(f"outer={s.outer_face}", "outer=99", 1))
    code, out, _ = run("validate", str(p))
    assert code == 1
    assert out.startswith("invalid: MissingOuterFace")
    code, out, err = run("connsum", str(p), fig8_file)
    assert code == 1
    assert out == "" and err.startswith("error: MissingOuterFace")


def test_gauss_and_pd_inputs(run, tmp_path):
    g = tmp_path / "trefoil.gauss"
    g.write_text(cd.emit(pm.standard_trefoil(), "gauss"))
    code, out, _ = run("validate", str(g))
    assert code == 0 and "kind: knot" in out
    from unknotforge import invariants as iv
    d = iv.alternating_diagram(pm.standard_trefoil())
    p = tmp_path / "trefoil.pd"
    p.write_text(cd.emit(d, "pd"))
    code, out, _ = run("classify", str(p))
    assert code == 0 and out.startswith("trefoil")


def test_validate_prints_the_bits_of_a_diagram(run, tmp_path):
    d = iv.alternating_diagram(pm.standard_trefoil())
    for fmt in ("gauss", "pd"):
        text = cd.emit(d, fmt)
        p = tmp_path / f"trefoil.{fmt}"
        p.write_text(text)
        code, out, _ = run("validate", str(p))
        bits = "".join(map(str, cd.parse(text, fmt).bits))
        assert code == 0 and out.splitlines()[-1] == f"bits: {bits}", fmt


def test_bad_file_exit_code(run, tmp_path):
    p = tmp_path / "bad.rot"
    p.write_text("shadow v=1 loops=0 outer=0\nv0: 0 1 2 3\n")
    code, _, err = run("validate", str(p))
    assert code == 1


@pytest.mark.parametrize("line, message", [
    ("v0: 0 1 2 3", "dart 0 paired with itself"),
    ("v0: 4 1 2 3", "twin(0) = 4 out of range"),
    ("v0: 1 2 3 0", "twin is not an involution at dart 0"),
])
def test_malformed_rotmap_names_the_involution_fault(run, tmp_path, line, message):
    p = tmp_path / "bad.rot"
    p.write_text(f"shadow v=1 loops=0 outer=0\n{line}\n")
    code, out, _ = run("validate", str(p))
    assert (code, out) == (1, f"invalid: NotInvolution: {message}\n")
    code, out, err = run("census", str(p))
    assert (code, out, err) == (1, "", f"error: NotInvolution: {message}\n")


def test_missing_file(run):
    code, _, err = run("census", "/nonexistent/file")
    assert code == 1


def test_directory_input_exit_code(run, tmp_path):
    code, out, err = run("census", str(tmp_path))
    assert code == 1
    assert out == "" and err.startswith("error: ")


def test_non_utf8_input_exit_code(run, tmp_path):
    p = tmp_path / "latin1.rot"
    p.write_bytes(b"shadow v=0 loops=1 outer=0 \xe9\n")
    code, out, err = run("census", str(p))
    assert code == 1
    assert out == "" and err.startswith("error: ")


def test_non_integer_thread_setting_is_a_usage_error(run, fig8_file, monkeypatch):
    monkeypatch.setenv("UNKNOT_FORGE_THREADS", "two")
    code, out, err = run("census", fig8_file)
    assert code == 64
    assert out == "" and "UNKNOT_FORGE_THREADS" in err


def test_negative_thread_setting_is_a_usage_error(run, fig8_file, monkeypatch):
    code, out, err = run("--threads", "-3", "census", fig8_file)
    assert code == 64
    assert out == "" and err.startswith("usage: ")
    monkeypatch.setenv("UNKNOT_FORGE_THREADS", "-1")
    code, out, err = run("--threads", "2", "census", fig8_file)
    assert code == 64
    assert out == "" and err.startswith("usage: ")


def test_negative_census_limit_is_a_usage_error(run, fig8_file):
    code, out, err = run("--census-limit", "-1", "census", fig8_file)
    assert code == 64
    assert out == "" and err == "usage: --census-limit must be 0 or more, not -1\n"


def test_negative_oracle_limit_is_a_usage_error(run, fig8_file):
    code, out, err = run("--oracle-limit", "-1", "classify", fig8_file,
                         "--bits", "0101")
    assert code == 64
    assert out == "" and err == "usage: --oracle-limit must be 0 or more, not -1\n"


def test_usage_error_exit(run):
    code, _, _ = run("frobnicate")
    assert code == 64


def test_deterministic_output(run, fig8_file):
    _, out1, _ = run("--format", "json", "generate", fig8_file)
    _, out2, _ = run("--format", "json", "generate", fig8_file)
    assert out1 == out2


def test_selftest_fast(run):
    code, out, _ = run("selftest", "--fast")
    assert code == 0
    assert out.count("[PASS]") == 10
    assert "10/10 criteria passed" in out
