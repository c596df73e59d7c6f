"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; the suite passing is the exit
criterion for the build.
"""

from unknotforge import acceptance


def _report(result):
    name, ok, detail = result
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_figure8_census():
    _report(acceptance.check_1_figure8_census())


def test_criterion_02_chorizo_all_unknot():
    _report(acceptance.check_2_chorizo_all_unknot())


def test_criterion_03_c3_census():
    _report(acceptance.check_3_c3_census())


def test_census_details_list_classes_by_name():
    _, _, detail = acceptance.check_3_c3_census()
    assert detail == "counts={'trefoil_left': 1, 'trefoil_right': 1, 'unknot': 6}"


def test_criterion_04_generation_bound_runtime():
    _report(acceptance.check_4_generation_bound())


def test_criterion_05_lift_inequalities():
    _report(acceptance.check_5_lift_inequalities())


def test_criterion_06_digon_bounds():
    _report(acceptance.check_6_digon_bounds())


def test_criterion_07_trefoil_characterization():
    _report(acceptance.check_7_trefoil_characterization())


def test_criterion_08_even_family():
    _report(acceptance.check_8_even_family())


def test_criterion_09_connected_sum():
    _report(acceptance.check_9_connected_sum())


def test_criterion_10_invariance_suites():
    _report(acceptance.check_10_invariance_suites())
