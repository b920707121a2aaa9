"""The benchmark's oracles against facts known by hand, and against the
catalog entries that the H x A rule must reproduce."""

import json

import pytest

import oracles
import workload


@pytest.mark.parametrize("n, degrees", [
    (4, [1, 1, 2, 3, 3]),
    (5, [1, 1, 4, 4, 5, 5, 6]),
])
def test_hook_length_degrees(n, degrees):
    assert oracles.symmetric_facts(n)["degrees"] == degrees


@pytest.mark.parametrize("n, classes, degrees, two_regular", [
    (4, 4, [1, 1, 1, 3], 3),
    (5, 5, [1, 3, 3, 4, 5], 4),
])
def test_alternating_splitting(n, classes, degrees, two_regular):
    facts = oracles.alternating_facts(n)
    assert (facts["classes"], facts["degrees"], facts["two_regular"]) == \
        (classes, degrees, two_regular)


@pytest.mark.parametrize("spec", [
    ("symmetric", 7), ("symmetric", 8), ("alternating", 8), ("alternating", 9),
    ("direct", ("alternating", 5), ("alternating", 5)),
    ("wreath", 2, 2), ("wreath", 4, 4), ("wreath", 8, 2), ("wreath", 3, 2),
])
def test_facts_are_consistent(spec):
    facts = oracles.table_facts(spec)
    assert len(facts["degrees"]) == facts["classes"]
    assert sum(d * d for d in facts["degrees"]) == facts["order"]


def test_wreath_small_cases():
    d8 = oracles.wreath_facts(2, 2)
    assert (d8["order"], d8["degrees"], d8["two_regular"]) == (8, [1, 1, 1, 1, 2], 1)
    # Z3 wr Z2 has order 18: the 2-regular classes are those inside Z3 x Z3
    assert oracles.wreath_facts(3, 2)["two_regular"] == 6


def test_two_regular_counts_from_odd_partitions():
    assert oracles.symmetric_facts(7)["two_regular"] == 5   # 7, 511, 331, 31111, 1^7
    assert oracles.alternating_facts(8)["two_regular"] == 8


def test_h_times_a_rule_reproduces_catalog_entries():
    cores = oracles.load_cores(workload.CATALOG_FILE)
    with open(workload.CATALOG_FILE, encoding="utf-8") as fh:
        entries = {e["name"]: e["expected"] for e in json.load(fh)["entries"]}
    for name, core, a_order in (("S4xZ2", "S4", 2), ("A4xZ4", "A4", 4),
                                ("L48xZ2", "L48", 2)):
        want = oracles.expected_case(cores[core], a_order)
        exp = entries[name]
        assert want["case_label"] == exp["case_label"]
        assert want["k_b"] == exp["k_b"] and want["l_b"] == exp["l_b"]
        assert want["lower_defect"] == sorted(exp["lower_defect"], reverse=True)


def test_l192_class_count_by_sympy():
    """k(b) = 24 for L192: it has one 2-block, so k(b) is its class count.
    Built apart from blockscope as affine maps of (Z8)^2 on 64 points."""
    from sympy.combinatorics import Permutation, PermutationGroup

    def perm(f):
        return Permutation([8 * (f(x, y)[0] % 8) + f(x, y)[1] % 8
                            for x in range(8) for y in range(8)])

    group = PermutationGroup([perm(lambda x, y: (x + 1, y)),
                              perm(lambda x, y: (x, y + 1)),
                              perm(lambda x, y: (-y, x - y))])
    assert group.order() == 192
    assert len(group.conjugacy_classes()) == oracles.L192_CORE["k_b"]


def test_check_case_reports_a_wrong_count():
    expected = oracles.expected_case({"case_label": "case_ii", "k_b": 5, "l_b": 2,
                                      "lower_defect": [[8, 1], [1, 1]]}, 2)
    report = {"case_label": "case_ii", "lower_defect": [[16, 1], [2, 1]],
              "measured": {"k_b": 10, "l_b": 2, "k_c": 10, "l_c": 2, "weights": 2}}
    assert oracles.check_case("S4xZ2", expected, report) == []
    report["measured"]["weights"] = 3
    assert oracles.check_case("S4xZ2", expected, report)


def test_check_table_reports_a_wrong_degree():
    facts = oracles.symmetric_facts(4)
    got = {"order": 24, "degrees": [1, 1, 2, 3, 3], "block_k": [5], "block_l": [2]}
    assert oracles.check_table("S4", facts, got) == []
    got["degrees"] = [1, 1, 1, 3, 3]
    assert oracles.check_table("S4", facts, got)


def test_catalog_check_reads_the_file_not_the_verdicts():
    catalog = {"entries": [{"name": "Z6", "expected": {"case_label": "nilpotent",
                                                       "block_count": 3}}]}
    item = {"name": "Z6", "status": "pass", "case_label": "nilpotent", "evidence": {},
            "measured": {}, "lower_defect": [], "expected_verdicts": {},
            "blocks": [{"is_principal": True, "k": 2, "l": 1}] * 2}
    problems = oracles.check_catalog_report([item], catalog)
    assert problems == ["Z6: block_count = 2, catalog says 3"]


def test_paper_checks_name_a_missing_count():
    report = {"case_label": "case_ii", "measured": {"l_b": 2, "weights": 2}}
    assert oracles.paper_checks("S4", report) == ["S4: l_c = None, paper predicts 2"]


def test_analyze_error_without_report_counts_as_failed(tmp_path):
    """Exit 1 with no report is an error raised inside analyze_group."""
    inputs = workload.prepare("theorem_cases", 1, tmp_path)
    outputs = {op["name"]: 1 for op in inputs["ops"]}
    attempted, failed, problems = workload.check("theorem_cases", inputs, outputs)
    assert (attempted, failed, problems) == (len(inputs["ops"]), len(inputs["ops"]), [])
