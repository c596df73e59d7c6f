"""Tests of the benchmark's own code: input generator, span arithmetic,
timing arithmetic, metric names, and one small group of each workload.

    python3 -m pytest perfbench/tests
"""

import json
import os
import random
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import braid  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def test_braid_pd_parses_to_knot_shadow_of_word_length(lib):
    words = [(braid.torus_word(k), 3) for k in workloads.Braid.TORUS_K]
    rng = random.Random(0)
    for strands, lo, hi in workloads.Braid.STRATA:
        for length in (lo, hi):
            length -= (length - strands + 1) % 2
            words.append((braid.random_knot_word(rng, strands, length), strands))
    for word, strands in words:
        d = lib.cd.parse(braid.braid_pd(word, strands), "pd")
        assert d.n == len(word)
        assert lib.pm.component_report(d.shadow).is_knot_shadow


def test_braid_generator_rejects_links():
    assert not braid.closes_to_knot([1, 2] * 3, 3)
    with pytest.raises(ValueError):
        braid.braid_pd([1, 2] * 15, 3)
    with pytest.raises(ValueError):
        braid.random_knot_word(random.Random(0), 3, 17)


def test_braid_generator_draws_known_knots(lib):
    trefoil = lib.cd.parse(braid.braid_pd([1, 1, 1], 2), "pd")
    fig8 = lib.cd.parse(braid.braid_pd([1, -2, 1, -2], 3), "pd")
    assert lib.iv.classify(trefoil).kind in workloads.TREFOILS
    assert lib.iv.classify(fig8).kind == "figure_eight"


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; [5, 9] has child [6, 8]
    starts = [0.0, 1.0, 5.0, 6.0, 20.0]
    ends = [10.0, 4.0, 9.0, 8.0, 21.5]
    parents = [-1, 0, 0, 2, -1]
    got = tracer.self_times(starts, ends, parents)
    assert got == pytest.approx([3.0, 3.0, 2.0, 2.0, 1.5])


def test_times_are_scaled_to_nominal_speed_and_rates_are_group_medians():
    nominal = run.NOMINAL_PROBE_S

    def op(seconds, probe, group):
        return workloads.OpResult("x", seconds, 10, 10, 10, probe_s=probe, group=group)

    # the second pass ran at half speed: every time and probe doubled
    fast = [op(1.0, nominal, 0), op(2.0, nominal, 1), op(9.0, nominal, 2)]
    slow = [op(2.0, 2 * nominal, 0), op(4.0, 2 * nominal, 1), op(18.0, 2 * nominal, 2)]
    assert run.op_times([fast, slow]) == pytest.approx([1.0, 2.0, 9.0])
    metrics = run.end_to_end([fast, slow], 1.0, 50)
    # group rates 10, 5 and 10/9 per second: the slow group leaves the median
    assert metrics["diagrams_per_s"][0] == pytest.approx(5.0)
    assert metrics["shadow_ms_p50"][0] == pytest.approx(2000.0)


def test_metric_names_are_well_formed_and_match_benchmark_json(lib):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    t = tracer.Tracer(lib)
    t.install()
    t.uninstall()
    layer = set(t.metrics()) | {"trace.overhead_s", "trace.overhead_ratio"}
    op = workloads.OpResult("x", 1.0, 1, 1, 1, probe_s=run.NOMINAL_PROBE_S)
    e2e = set(run.end_to_end([[op]], 1.0, 50))
    assert layer == {m["name"] for m in spec["per_layer"]}
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    for name in layer | e2e | {w["name"] for w in spec["workloads"]}:
        assert NAME.fullmatch(name), name


def test_pinned_census_counts_are_consistent():
    with open(os.path.join(BENCH, "expected_census.json")) as f:
        pinned = json.load(f)
    sizes = {"cn11": 11, "cn13": 13, "fig8#fig8": 8, "fig8#fig8#fig8": 12}
    assert set(pinned) == set(sizes)
    for name, counts in pinned.items():
        assert sum(counts.values()) == 1 << sizes[name]
        assert counts["trefoil_left"] == counts["trefoil_right"]
    assert pinned["fig8#fig8"]["unknot"] == 12 ** 2
    assert pinned["fig8#fig8#fig8"]["unknot"] == 12 ** 3


SMOKE = {
    "census-knotted": lambda item: item[0] in ("cn11", "fig8#fig8"),
    "certify-curl": lambda item: item[1].n <= 8,
    "braid": lambda item: item[1] <= 24,
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_group_passes_output_checks(lib, name):
    w = workloads.WORKLOADS[name]()
    w.setup(lib)
    items = [item for item in w.group(1, 0) if SMOKE[name](item)]
    assert items
    for item in items:
        out = workloads.OpResult(item[0])
        w.run(item, out)
        assert out.ok, out.misses
        assert out.classified > 0 and out.certified > 0
