import pytest

from conftest import group, table_value
from blockscope.blocks import (block_distribution, brauer_induce, p_subgroup_classes,
                               principal_block)
from blockscope.chartable import character_table
from blockscope.classify import (check_local_structure, classify_case,
                                 count_weights, verify_counts)
from blockscope.exact import nu
from blockscope.groups import normalizer


LABELS = {
    "S4": "case_ii",
    "S5": "case_ii",
    "A4": "P_equals_Q",
    "A5": "P_equals_Q",
    "L48": "P_equals_Q",
    "G96": "case_ii",
    "L48xZ2": "case_i",
    "A4xZ4": "case_i",
    "S4xZ2": "case_ii",
    "L96_Z6": "out_of_scope_Q_not_central",
    "K192": "out_of_scope_Q_not_central",
    "F56": "out_of_scope_not_homocyclic",
    "Z4wrZ2": "nilpotent",
    "Z3wrZ2": "nilpotent",
    "Z6": "nilpotent",
    "S3xS3": "nilpotent",
}


@pytest.mark.parametrize("name,label", sorted(LABELS.items()))
def test_case_labels(name, label):
    rep = classify_case(group(name), 2)
    assert rep.case_label == label


def test_w384_label():
    rep = classify_case(group("W384"), 2)
    assert rep.case_label == "out_of_scope_Q_too_large"
    assert rep.evidence["hyperfocal_invariants"] == [8, 8]
    assert rep.evidence["q_in_center_of_essential"] is True


def test_s4_evidence():
    rep = classify_case(group("S4"), 2)
    ev = rep.evidence
    assert ev["hyperfocal_invariants"] == [2, 2]
    assert ev["essential_order"] == 4
    assert ev["sylow_essential_index"] == 2
    assert ev["q_order"] == 4
    assert ev["essential_is_centralizer_of_q0"]


def test_strict_threshold_flips_g96():
    assert classify_case(group("G96"), 2).case_label == "case_ii"
    strict = classify_case(group("G96"), 2, strict_lt_threshold=True)
    assert strict.case_label == "out_of_scope_Q_too_large"
    # the order-4 boundary is unaffected
    assert classify_case(group("S4"), 2, strict_lt_threshold=True).case_label == "case_ii"


def test_odd_prime_gives_no_label():
    rep = classify_case(group("S4"), 3)
    assert rep.case_label is None
    assert rep.evidence["sylow_order"] == 3


def test_verify_counts_s5():
    rep = verify_counts(classify_case(group("S5"), 2))
    m = rep.measured
    assert (m["k_b"], m["l_b"], m["k_c"], m["l_c"]) == (5, 2, 5, 2)
    assert m["normalizer_q_order"] == 24
    assert all(v == "pass" for v in rep.verdicts.values())


def test_verify_counts_case_i():
    rep = verify_counts(classify_case(group("L48xZ2"), 2))
    m = rep.measured
    assert m["l_b"] == m["l_c"] == m["l_b0"] == 3
    assert m["k_b"] == m["k_c"] == m["k_b0"] == 16
    assert all(v == "pass" for v in rep.verdicts.values())


def test_verify_counts_p_equals_q():
    rep = verify_counts(classify_case(group("A5"), 2))
    assert rep.predicted == {"l_b": 3}
    assert rep.verdicts["l_b"] == "pass"
    assert rep.measured["k_c"] == 4 and rep.measured["l_c"] == 3


def test_weights():
    for name, expected in [("S4", 2), ("A4", 3), ("A5", 3), ("S5", 2),
                           ("L48", 3), ("G96", 2)]:
        g = group(name)
        b = principal_block(g, 2)
        assert count_weights(g, 2, b) == expected == b.l


def _weights_over_every_subgroup(group, p, blk):
    """The weight count with no radical filter: every class R gets the
    character table of N_G(R)."""
    total = 0
    for r in p_subgroup_classes(group, p):
        n = normalizer(group, r) if r.order > 1 else group
        tab_n = character_table(n)
        blocks_n = block_distribution(tab_n, p)
        target_nu = nu(n.order // r.order, p)
        for i in range(tab_n.n_classes):
            if any(table_value(tab_n, i, n.class_of(x)) != tab_n.degrees[i]
                   for x in r.generators):
                continue
            if nu(tab_n.degrees[i], p) != target_nu:
                continue
            blk_n = next(bb for bb in blocks_n if i in bb.char_indices)
            ind = brauer_induce(tab_n, blk_n.char_indices[0], group, p)
            if ind is not None and ind.char_indices == blk.char_indices:
                total += 1
    return total


@pytest.mark.parametrize("name", ["S4", "A4", "A5", "L48", "A4xZ4"])
def test_radical_filter_keeps_the_weight_count(name):
    g = group(name)
    for blk in block_distribution(character_table(g), 2):
        assert count_weights(g, 2, blk) == _weights_over_every_subgroup(g, 2, blk)


@pytest.mark.parametrize("name", ["S5", "L48"])
def test_weights_build_no_block_distribution_of_a_normalizer(name, monkeypatch):
    from blockscope import blocks
    from blockscope.recipes import construct_group
    from conftest import RECIPES
    g = construct_group(RECIPES[name])             # no normalizer memoised yet
    found = block_distribution(character_table(g), 2)
    built = []
    real = blocks._block_distribution
    monkeypatch.setattr(blocks, "_block_distribution",
                        lambda table, p: built.append(table.group) or real(table, p))
    assert [count_weights(g, 2, b) for b in found] == [b.l for b in found]
    assert not built


def test_weights_nonprincipal_block_s5():
    s5 = group("S5")
    blocks = block_distribution(character_table(s5), 2)
    small = blocks[1]
    assert count_weights(s5, 2, small) == small.l == 1


def test_local_structure_s4():
    rep = check_local_structure(verify_counts(classify_case(group("S4"), 2)))
    assert all(v == "pass" for v in rep.local_structure.values())
    assert rep.local_structure["essential_automizer_s3"] == "pass"


def test_local_structure_case_i():
    rep = check_local_structure(verify_counts(classify_case(group("A4xZ4"), 2)))
    ls = rep.local_structure
    assert ls["q0_in_center_of_sylow"] == "pass"
    assert ls["q_equals_commutator_with_complement"] == "pass"
    assert ls["q_times_fixed_is_site"] == "pass"


def test_case_i_sylow_automizer_has_odd_part_three():
    from blockscope.fusion import FusionSystem
    for name in ("L48xZ2", "A4xZ4"):
        fs = FusionSystem(group(name), p=2)
        odd = fs.automizer_group(fs.sylow).order
        while odd % 2 == 0:
            odd //= 2
        assert odd == 3


def test_case_ii_essential_automizer_is_s3():
    from blockscope.fusion import FusionSystem
    for name in ("S4", "S5", "G96", "S4xZ2"):
        fs = FusionSystem(group(name), p=2)
        ess = fs.essential_classes()
        assert len(ess) == 1
        assert ess[0].automizer.is_symmetric_3
