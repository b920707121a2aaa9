"""Acceptance suite: every criterion runs at its stated tolerance, which is
exact equality throughout (all arithmetic is exact; there are no float
tolerances anywhere).  One printed line per criterion."""

from conftest import group
from blockscope.blocks import (block_distribution, lower_defect_multiplicities,
                               principal_block)
from blockscope.catalog import (_check_idempotents, builtin_catalog_path,
                                load_catalog, run_catalog)
from blockscope.chartable import character_table
from blockscope.classify import (IN_SCOPE, check_local_structure, classify_case,
                                 count_weights, verify_counts)
from blockscope.fusion import FusionSystem
from blockscope.groups import (abelian_invariants, centralizer, same_subgroup,
                               subgroup_fingerprint, sylow_subgroup)


def _report(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_s4_counting():
    g = group("S4")
    rep = verify_counts(classify_case(g, 2))
    fs = rep.fusion
    s = fs.essential_classes()[0].representative
    q = fs.hyperfocal().subgroup
    ok = (rep.case_label == "case_ii"
          and same_subgroup(s, q) and abelian_invariants(q) == (2, 2)
          and fs.sylow.order // s.order == 2
          and rep.measured["l_b"] == 2
          and rep.measured["k_b"] == 5 and rep.measured["k_c"] == 5
          and rep.measured["normalizer_q_order"] == 24)
    _report(1, ok, f"S4: case_ii with S=Q=V4, l(b)=2, k(b)=k(c)=5 "
                   f"(measured {rep.measured['l_b']}, {rep.measured['k_b']})")


def test_criterion_2_s5_counting():
    g = group("S5")
    blocks = block_distribution(character_table(g), 2)
    rep = verify_counts(classify_case(g, 2))
    m = rep.measured
    ok = (len(blocks) == 2
          and m["k_b"] == 5 and m["l_b"] == 2
          and m["normalizer_q_order"] == 24
          and m["k_c"] == 5 and m["l_c"] == 2
          and all(rep.verdicts[v] == "pass" for v in ("l_b", "l_c", "k_b=k_c")))
    _report(2, ok, f"S5: two blocks; principal k=5 l=2; N(V4)=S4 principal k=5 l=2")


def test_criterion_3_order96_boundary():
    g = group("G96")
    rep = verify_counts(classify_case(g, 2))
    fs = rep.fusion
    p = fs.sylow
    q = fs.hyperfocal().subgroup
    ess = fs.essential_classes()
    # rank-2 wreath shape of the Sylow subgroup, by invariant fingerprints
    w = sylow_subgroup(group("Z4wrZ2"), 2)
    shape_ok = (p.order == 32
                and subgroup_fingerprint(p) == subgroup_fingerprint(w)
                and abelian_invariants(centralizer(p, p)) == (4,))
    ok = (rep.case_label == "case_ii" and q.order == 16 and shape_ok
          and len(ess) == 1 and same_subgroup(ess[0].representative, q)
          and ess[0].automizer.is_symmetric_3
          and rep.measured["l_b"] == 2)
    _report(3, ok, "order-96 boundary case: case_ii, Sylow of wreath shape, "
                   "unique essential S=Q with automizer S3, l(b)=2")


def test_criterion_4_a4_p_equals_q():
    g = group("A4")
    rep = verify_counts(classify_case(g, 2))
    b = principal_block(g, 2)
    table = lower_defect_multiplicities(b)
    by_order = table.by_order()
    zeros = all(m == 0 for r, m in zip(table.subgroup_classes, table.multiplicities)
                if r.order not in (1, 4))
    ok = (rep.case_label == "P_equals_Q"
          and rep.measured["l_b"] == 3 and rep.measured["k_b"] == 4
          and by_order == {4: 1, 1: 2} and zeros)
    _report(4, ok, f"A4: l=3 k=4, lower defect m(V4)=1 m(1)=2, zero elsewhere")


def test_criterion_5_lemma_m_b_1():
    b = principal_block(group("G96"), 2)
    table = lower_defect_multiplicities(b)
    ok = table.by_order().get(1, 0) == 1
    _report(5, ok, "order-96 boundary case: m(b,1) = 1 exactly")


def test_criterion_6_case_i_96():
    g = group("L48xZ2")
    rep = check_local_structure(verify_counts(classify_case(g, 2)))
    m = rep.measured
    ls = rep.local_structure
    zp = centralizer(rep.fusion.sylow, rep.fusion.sylow)
    q = rep.fusion.hyperfocal().subgroup
    ok = (rep.case_label == "case_i"
          and all(x in zp for x in q.generators)
          and m["l_b"] == m["l_c"] == m["l_b0"] == 3
          and m["k_b"] == m["k_c"] == m["k_b0"] == 16
          and ls["q_meets_fixed_trivially"] == "pass"
          and ls["q_times_fixed_is_site"] == "pass"
          and ls["q_equals_commutator_with_complement"] == "pass")
    _report(6, ok, "case_i at order 96: l-triple = 3, k-triple equal, "
                   "Q x| C_P(E) decomposition holds")


def test_criterion_7_remark_analogues():
    r1 = classify_case(group("L96_Z6"), 2)
    r2 = classify_case(group("K192"), 2)
    ok = (r1.case_label == "out_of_scope_Q_not_central"
          and r1.evidence["controlled_by_sylow_normalizer"]
          and r2.case_label == "out_of_scope_Q_not_central"
          and not r2.evidence["controlled_by_sylow_normalizer"]
          and r2.evidence["q_in_center_of_essential"] is False)
    _report(7, ok, "hypothesis-violating analogues: controlled/not-central and "
                   "essential/not-central both labeled out_of_scope_Q_not_central")


IN_SCOPE_NAMES = ("S4", "S5", "A4", "A5", "L48", "G96", "L48xZ2", "A4xZ4", "S4xZ2")


def test_criterion_8_weight_counts():
    results = {}
    for name in IN_SCOPE_NAMES:
        g = group(name)
        b = principal_block(g, 2)
        results[name] = (count_weights(g, 2, b), b.l)
    ok = all(w == l for w, l in results.values()) and len(results) >= 8
    _report(8, ok, f"weight count equals l(b) on {len(results)} in-scope groups: "
                   + ", ".join(f"{k}:{v[0]}" for k, v in sorted(results.items())))


SUITE_NAMES = ("S4", "S5", "A4", "A5", "L48", "G96", "L48xZ2", "A4xZ4", "S4xZ2",
               "L96_Z6", "K192", "W384", "F56", "Z4wrZ2", "Z3wrZ2", "Z6", "S3xS3")


def test_criterion_9_property_suites():
    failures = []
    for name in SUITE_NAMES:
        g = group(name)
        fs = FusionSystem(g, p=2)
        hyp = fs.hyperfocal()
        if not same_subgroup(fs._hyperfocal_commutator(), hyp.subgroup):
            failures.append(f"{name}: hyperfocal methods disagree")
        table = character_table(g)
        table.verify_orthogonality()     # raises on failure
        blocks = block_distribution(table, 2)
        if sum(b.l for b in blocks) != len(table.p_regular_indices(2)):
            failures.append(f"{name}: sum of l(b) mismatch")
        for b in blocks:
            t = lower_defect_multiplicities(b)
            if sum(t.multiplicities) != b.l:
                failures.append(f"{name}: lower-defect sum mismatch")
        if not _check_idempotents(table, 2):
            failures.append(f"{name}: idempotent check failed")
    _report(9, not failures,
            f"hyperfocal agreement, lower-defect sums, exact orthogonality, "
            f"l-sums and idempotents over {len(SUITE_NAMES)} groups"
            + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_10_catalog_instances_stand_in_for_generality():
    # the general statements are verified through instances: the shipped
    # catalog must cover every label and pass end to end
    report, code = run_catalog(builtin_catalog_path())
    labels = {item["case_label"] for item in report["entries"]}
    ok = (code == 0
          and report["summary"]["failed"] == 0
          and report["summary"]["errored"] == 0
          and report["summary"]["total"] >= 12
          and {"case_i", "case_ii", "P_equals_Q", "nilpotent",
               "out_of_scope_not_homocyclic", "out_of_scope_Q_not_central",
               "out_of_scope_Q_too_large"} <= labels)
    _report(10, ok, f"full catalog: {report['summary']['total']} entries, "
                    f"{report['summary']['passed']} passed, exit {code}")
