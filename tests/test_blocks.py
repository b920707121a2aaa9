import dataclasses
import math

import numpy as np
import pytest

from conftest import group, table_value
from blockscope.blocks import (_block_distribution, _idempotent_vectors,
                               block_distribution, block_idempotent_vectors,
                               brauer_induce, central_characters, induce_principal_block,
                               lower_defect_multiplicities, p_subgroup_classes,
                               principal_block)
from blockscope.chartable import character_table
from blockscope.cyclotomic import Cyclo, _power_basis_rows
from blockscope.errors import InputError, InternalInconsistency, NotPIntegral
from blockscope.exact import p_part
from blockscope.groups import (normalizer, quotient_by_normal, sylow_subgroup,
                               sylow_subgroup_classes)
from blockscope.modp import _poly_powmod, mod_p_context
from blockscope.perms import Perm
from blockscope.recipes import alternating, construct_group, cyclic, direct, symmetric


def cyc(degree, *cycles):
    return Perm.from_cycles(degree, [list(c) for c in cycles])


# -- central characters


def test_trivial_character_central_values_are_class_sizes():
    table = character_table(group("S4"))
    om = central_characters(table)
    for j, cls in enumerate(table.classes):
        assert om[0, j].tolist() == [cls.size] + [0] * (om.shape[2] - 1)


def test_degree2_vanishes_on_transpositions():
    table = character_table(group("S4"))
    om = central_characters(table)
    i = table.degrees.index(2)
    j = next(j for j, c in enumerate(table.classes)
             if c.element_order == 2 and c.size == 6)
    assert not om[i, j].any()


def test_a4_degree3_vanishes_on_three_cycles():
    table = character_table(group("A4"))
    om = central_characters(table)
    i = table.degrees.index(3)
    j = next(j for j, c in enumerate(table.classes) if c.element_order == 3)
    assert not om[i, j].any()


# -- block distribution


def test_s4_single_block():
    blocks = block_distribution(character_table(group("S4")), 2)
    assert len(blocks) == 1
    b = blocks[0]
    assert b.k == 5 and b.defect == 3 and b.is_principal
    assert b.defect_group.order == 8


def test_s5_two_blocks():
    blocks = block_distribution(character_table(group("S5")), 2)
    assert len(blocks) == 2
    b, small = blocks
    assert b.is_principal and b.k == 5 and b.defect == 3
    assert small.k == 2 and small.defect == 1
    assert small.degrees() == (4, 4)
    assert small.defect_group.order == 2


def test_s5_small_block_defect_group_from_three_cycles():
    s5 = group("S5")
    blocks = block_distribution(character_table(s5), 2)
    small = blocks[1]
    # Sylow_2(C_S5((123))) = <(45)>
    assert small.defect_group.order == 2
    gen = small.defect_group.generators[0]
    assert [len(c) for c in gen.cycles()] == [2]


def test_a4_single_block():
    blocks = block_distribution(character_table(group("A4")), 2)
    assert len(blocks) == 1 and blocks[0].k == 4


def test_z6_three_blocks():
    blocks = block_distribution(character_table(group("Z6")), 2)
    assert [(b.k, b.l) for b in blocks] == [(2, 1)] * 3


def test_s4_at_3():
    blocks = block_distribution(character_table(group("S4")), 3)
    ks = sorted(b.k for b in blocks)
    assert ks == [1, 1, 3]
    b = blocks[0]
    assert b.is_principal and b.k == 3 and b.l == 2 and b.defect == 1


def test_odd_prime_pipeline_end_to_end():
    from blockscope.catalog import analyze_group
    r = analyze_group(group("S4"), 3)
    assert r["case_label"] is None  # case analysis is specific to p = 2
    assert all(r["invariant_suite"].values())
    assert r["lower_defect"] == [[3, 1], [1, 1]]
    r5 = analyze_group(group("A5"), 5)
    assert all(r5["invariant_suite"].values())
    assert [(b["k"], b["l"], b["defect"]) for b in r5["blocks"]] == \
        [(4, 2, 1), (1, 1, 0)]


# -- invariants k and l


@pytest.mark.parametrize("name,k,l", [
    ("S4", 5, 2), ("A4", 4, 3), ("A5", 4, 3), ("S5", 5, 2),
    ("L48", 8, 3), ("G96", 10, 2),
])
def test_principal_invariants(name, k, l):
    b = principal_block(group(name), 2)
    assert (b.k, b.l) == (k, l)


def test_block_count_sums():
    for name in ("S4", "S5", "A5", "L48", "G96", "Z6", "S3xS3", "Z3wrZ2"):
        table = character_table(group(name))
        blocks = block_distribution(table, 2)
        assert sum(b.k for b in blocks) == table.n_classes
        assert sum(b.l for b in blocks) == len(table.p_regular_indices(2))
        for b in blocks:
            assert 1 <= b.l <= b.k
            if b.defect == 0:
                assert b.k == b.l == 1 and b.defect_group.order == 1


def test_rank_certificate_catches_tampered_residues():
    table = character_table(group("S5"))
    small = block_distribution(table, 2)[1]
    residues = table.residues.copy()
    residues[list(small.char_indices)] = 0     # that block's rank mod ell drops to 0
    with pytest.raises(InternalInconsistency, match="p-regular classes"):
        _block_distribution(dataclasses.replace(table, residues=residues), 2)


def test_principal_defect_group_is_sylow():
    for name in ("S4", "S5", "G96", "F56"):
        g = group(name)
        b = principal_block(g, 2)
        assert b.defect_group.order == sylow_subgroup(g, 2).order


def galois_twist(coords, e, a):
    """sigma_a on power-basis coordinates of Z[zeta_e] (last axis), for the
    automorphism zeta_e -> zeta_e^a: basis element k goes to zeta_e^(a k)."""
    rows = _power_basis_rows(e)
    return coords @ np.array([rows[a * k % e] for k in range(coords.shape[-1])])


def test_partition_is_ideal_choice_independent():
    # Phi_21 splits in two factors mod 2, so S3 x Z7 (exponent 42) has two
    # ideals above 2; reducing sigma_a(w) at the pinned ideal P reduces w at
    # sigma_a^-1(P), and as a runs over the units mod 42 that reaches both
    table = character_table(construct_group(direct(symmetric(3), cyclic(7))))
    om = central_characters(table)
    ctx = mod_p_context(table.exponent, 2)
    parts, signatures = set(), set()
    for a in (a for a in range(1, 42) if math.gcd(a, 42) == 1):
        twisted = ctx.reduce(galois_twist(om, table.exponent, a), table.exponent)
        keys = [tuple(map(tuple, row)) for row in twisted.tolist()]
        sig = {}
        for i, key in enumerate(keys):
            sig.setdefault(key, set()).add(i)
        parts.add(frozenset(frozenset(v) for v in sig.values()))
        signatures.add(tuple(keys))
    assert len(parts) == 1 and len(next(iter(parts))) == 14
    assert len(signatures) > 1     # the twists do change the reductions


# -- Brauer induction


def test_principal_of_klein_normalizer_induces_to_principal():
    s5 = group("S5")
    v4 = s5.subgroup([cyc(5, (0, 1), (2, 3)), cyc(5, (0, 2), (1, 3))])
    n = normalizer(s5, v4)
    assert n.order == 24
    ind = brauer_induce(character_table(n), 0, s5, 2)   # the trivial character
    assert ind is not None and ind.is_principal


def test_principal_induction_for_all_local_subgroups():
    # class-intersection counts against the induction through a local table
    cases = [(name, 2) for name in ("S4", "A4", "S5", "L48", "G96", "F56", "Z4wrZ2",
                                    "S3xS3")] + [("S5", 3)]
    for name, p in cases:
        g = group(name)
        for r in p_subgroup_classes(g, p):
            if r.order == 1:
                continue
            n = normalizer(g, r)
            ind = induce_principal_block(n, g, p)
            assert ind is brauer_induce(character_table(n), 0, g, p)
            assert ind is not None and ind.is_principal


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_block_distribution_rejects_a_non_prime(p):
    with pytest.raises(InputError):
        block_distribution(character_table(group("A4")), p)


def test_nonprincipal_induction_s5():
    # the defect-1 block of Z2 x S3 = N_S5(<(12)>) induces to the defect-1
    # block of S5, not to the principal block
    s5 = group("S5")
    r = s5.subgroup([cyc(5, (0, 1))])
    n = normalizer(s5, r)
    assert n.order == 12
    blocks_n = block_distribution(character_table(n), 2)
    small_targets = [brauer_induce(b.table, b.char_indices[0], s5, 2)
                     for b in blocks_n if not b.is_principal]
    assert any(t is not None and not t.is_principal for t in small_targets)


def _induce_elementwise(table_h, chi, group, p):
    """The induced block from the definition: chi summed over the elements
    of h in each class of `group`, divided by chi(1) after the sum."""
    h = table_h.group
    table_g = character_table(group)
    ctx = mod_p_context(table_g.exponent, p)
    totals = [Cyclo.zero()] * table_g.n_classes
    elements = h.elements()
    for j, hj in zip(group.classes_of(elements).tolist(), h.classes_of(elements).tolist()):
        totals[j] = totals[j] + table_value(table_h, chi, hj)
    quotients = [total.exact_div(table_h.degrees[chi]) for total in totals]
    assert None not in quotients         # sums of central characters of h
    sig = tuple(tuple(ctx.reduce(w.coeffs, w.m).tolist()) for w in quotients)
    return next((b for b in block_distribution(table_g, p) if b.signature == sig), None)


@pytest.mark.parametrize("name, p", [("S4", 2), ("S5", 2), ("L48", 2), ("G96", 2), ("S5", 3)])
def test_induction_over_class_fusion_matches_the_elementwise_sum(name, p):
    g = group(name)
    for r in p_subgroup_classes(g, p):
        table_n = character_table(normalizer(g, r) if r.order > 1 else g)
        for chi in range(table_n.n_classes):
            assert brauer_induce(table_n, chi, g, p) is _induce_elementwise(table_n, chi, g, p)


def _fresh(name):
    from conftest import RECIPES
    return construct_group(RECIPES[name])     # no memo of an earlier test


@pytest.mark.parametrize("name", ["S5", "L48", "Z3wrZ2"])
def test_block_distribution_computes_no_defect_group(name, monkeypatch):
    from blockscope import blocks
    calls = []
    monkeypatch.setattr(blocks, "centralizer", lambda *a: calls.append(a))
    monkeypatch.setattr(blocks, "sylow_subgroup", lambda *a: calls.append(a))
    found = block_distribution(character_table(_fresh(name)), 2)
    assert [b.k for b in found] and not calls


def test_a_principal_defect_group_that_is_not_sylow_is_refused_when_read():
    g = _fresh("S4")
    table = character_table(g)
    principal = block_distribution(table, 2)[0]      # builds no defect group
    assert table.classes[0].representative.is_identity()
    # the identity is the principal block's first defect class
    g._memo(("class_defect_group", 2, 0), lambda: g.subgroup([cyc(4, (0, 1))]))
    with pytest.raises(InternalInconsistency, match="not Sylow"):
        principal.defect_group


# -- idempotents


def test_idempotents_orthogonal_and_sum_to_one():
    for name in ("S5", "Z6", "A5", "S3xS3"):
        table = character_table(group(name))
        vectors, ctx = block_idempotent_vectors(table, 2)
        from blockscope.catalog import _check_idempotents
        assert _check_idempotents(table, 2)
        # coefficients are p-integral by construction (reduction succeeded)
        assert vectors.shape == (len(block_distribution(table, 2)), table.n_classes, ctx.f)


def test_idempotent_division_not_p_integral():
    table = character_table(group("Z6"))
    block_distribution(table, 2)               # blocks of the true table
    coords = table.coords.copy()
    # the principal block's coefficient at 1 becomes (2 + 1) / 6, not 2-integral
    coords[0, 0] = 0
    coords[0, 0, 0] = 2
    with pytest.raises(NotPIntegral):
        _idempotent_vectors(dataclasses.replace(table, coords=coords), 2)


def test_idempotents_swapped_within_a_frobenius_orbit_fail_the_check(monkeypatch):
    # the product check runs on one block per orbit; the check e_sigma(a) =
    # F(e_a) is what sees the rows of the rest of the orbit
    from blockscope import catalog
    from blockscope.blocks import _frobenius_orbit
    table = character_table(construct_group(cyclic(47)))
    found = block_distribution(table, 2)
    vectors, ctx = block_idempotent_vectors(table, 2)
    assert catalog._check_idempotents(table, 2)
    orbit = next(o for o in map(_frobenius_orbit, found) if len(o) == 23)
    a, b = found.index(orbit[1]), found.index(orbit[2])
    swapped = vectors.copy()
    swapped[[a, b]] = vectors[[b, a]]
    monkeypatch.setattr(catalog, "block_idempotent_vectors", lambda t, p: (swapped, ctx))
    assert not catalog._check_idempotents(table, 2)


# -- lower defect multiplicities


def test_lower_defect_a4():
    b = principal_block(group("A4"), 2)
    t = lower_defect_multiplicities(b)
    assert t.by_order() == {4: 1, 1: 2}


def test_lower_defect_s4():
    b = principal_block(group("S4"), 2)
    t = lower_defect_multiplicities(b)
    assert t.by_order() == {8: 1, 1: 1}


def test_lower_defect_g96():
    b = principal_block(group("G96"), 2)
    t = lower_defect_multiplicities(b)
    assert t.by_order() == {32: 1, 1: 1}
    assert t.by_order().get(1) == 1


def test_lower_defect_sums_to_l_everywhere():
    for name in ("S4", "A4", "A5", "S5", "L48", "G96", "Z6", "S3xS3", "Z4wrZ2"):
        table = character_table(group(name))
        for b in block_distribution(table, 2):
            t = lower_defect_multiplicities(b)
            assert sum(t.multiplicities) == b.l
            # nonzero rows sit below the defect group; the defect group row is positive
            assert t.by_order().get(b.defect_group.order, 0) >= 1 or b.defect == 0


def test_lower_defect_quotient_compatibility():
    # normal p-subgroup R with p-power centralizer index: m(b, R) = m(bbar, 1)
    g = group("L48xZ2")
    z2 = g.subgroup([cyc(21, (19, 20))])
    b = principal_block(g, 2)
    t = lower_defect_multiplicities(b)
    m_at_z2 = t.by_order().get(2, 0)
    quo = quotient_by_normal(g, z2)
    bq = principal_block(quo, 2)
    tq = lower_defect_multiplicities(bq)
    assert m_at_z2 == tq.by_order().get(1, 0) == 2


def test_lower_defect_json_fingerprints():
    b = principal_block(group("S4"), 2)
    rows = lower_defect_multiplicities(b).to_json()
    assert all({"fingerprint", "order", "multiplicity"} <= set(r) for r in rows)
    assert len({r["fingerprint"] for r in rows}) == len(rows)


@pytest.mark.parametrize("name", ["K192", "W384", "S3xS3", "Z3wrZ2"])
def test_lower_defect_tables_fingerprint_each_class_once(name, monkeypatch):
    from blockscope import groups
    from conftest import RECIPES
    g = construct_group(RECIPES[name])   # a fresh group: no memo
    calls = []
    fingerprint = groups._fingerprint
    monkeypatch.setattr(groups, "_fingerprint", lambda h: calls.append(h) or fingerprint(h))
    for b in block_distribution(character_table(g), 2):
        table = lower_defect_multiplicities(b)
        assert table.to_json() == table.to_json()    # serialised twice
    assert [id(h) for h in calls] == [id(r) for r in p_subgroup_classes(g, 2)]


# multiplicities of every 2-block, in block order, as computed when each block
# still found its own p-regular classes' defect groups
LOWER_DEFECT_BY_BLOCK = {
    "Z3wrZ2": [(0, 1), (0, 1), (0, 1), (1, 0), (1, 0), (1, 0)],
    "S3xS3": [(0, 0, 0, 0, 1), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (1, 0, 0, 0, 0)],
    "S5": [(1, 0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0, 0)],
}


@pytest.mark.parametrize("name", LOWER_DEFECT_BY_BLOCK)
def test_lower_defect_finds_each_class_defect_group_once(name, monkeypatch):
    from blockscope import blocks
    from blockscope.recipes import construct_group
    from conftest import RECIPES
    table = character_table(construct_group(RECIPES[name]))   # a fresh group: no memo
    found = block_distribution(table, 2)
    assert len(found) > 1
    calls = []
    centralizer = blocks.centralizer
    monkeypatch.setattr(blocks, "centralizer", lambda g, h: calls.append(h) or centralizer(g, h))
    assert found[0].defect_group.order == sylow_subgroup(table.group, 2).order
    assert all(b.defect_group.order for b in found)      # every block's, before the labels
    got = [lower_defect_multiplicities(b).multiplicities for b in found]
    assert got == LOWER_DEFECT_BY_BLOCK[name]
    # one centralizer per p-regular class, not one per class and block: the
    # blocks' defect groups and the lower defect labels share them
    assert len(calls) == len(table.p_regular_indices(2))


def _all_classes_multiplicities(blk):
    """Oracle: the rank jump at every p-subgroup class, with containment read
    from a full class x class matrix built from the members inside P."""
    from blockscope.blocks import (_class_defect_group, _frobenius_orbit,
                                   _times_class_sums)
    from blockscope.exact import _rref_mod
    table, p = blk.table, blk.p
    classes = sylow_subgroup_classes(table.group, p)
    sets = [m[0].element_set() for m in classes.members]
    leq = [[any(s.element_set() <= b for s in m) for b in sets] for m in classes.members]
    idempotents, ctx = block_idempotent_vectors(table, p)
    blocks = block_distribution(table, p)
    orbit = _frobenius_orbit(blk)
    e = idempotents[[blocks.index(b) for b in orbit]].sum(axis=0) % p
    regular = list(table.p_regular_indices(p))
    class_rep_of = [classes.index_of(_class_defect_group(table, p, j)) for j in regular]
    vectors = _times_class_sums(table, ctx, e[:, 0])[regular]

    def span_rank(pred):
        picked = [k for k, c in enumerate(class_rep_of) if pred(c)]
        return len(_rref_mod(vectors[picked], p)[1])

    jumps = [span_rank(lambda c: leq[c][r]) - span_rank(lambda c: leq[c][r] and c != r)
             for r in range(len(sets))]
    assert all(j % len(orbit) == 0 for j in jumps)
    return tuple(j // len(orbit) for j in jumps)


@pytest.mark.parametrize("name, p", [
    ("S4", 2), ("S5", 2), ("G96", 2), ("K192", 2), ("W384", 2), ("L48xZ2", 2),
    ("S3xS3", 2), ("Z3wrZ2", 2), ("A5xZ7", 2), ("Z47", 2), ("S4", 3), ("S3xS3", 3)])
def test_ranks_at_the_defect_classes_match_ranks_at_every_class(name, p):
    g = {"A5xZ7": lambda: construct_group(direct(alternating(5), cyclic(7))),
         "Z47": lambda: construct_group(cyclic(47))}.get(name, lambda: group(name))()
    for b in block_distribution(character_table(g), p):
        assert lower_defect_multiplicities(b).multiplicities == _all_classes_multiplicities(b)


def test_lower_defect_ranks_only_at_the_defect_classes(monkeypatch):
    from blockscope import blocks
    from conftest import RECIPES
    g = construct_group(RECIPES["K192"])   # a fresh group: no memo
    blk = block_distribution(character_table(g), 2)[0]
    calls = []
    rref = blocks._rref_mod
    monkeypatch.setattr(blocks, "_rref_mod", lambda a, ell: calls.append(a) or rref(a, ell))
    lower_defect_multiplicities(blk)
    classes = sylow_subgroup_classes(g, 2)
    defect_classes = {classes.index_of(blocks._class_defect_group(blk.table, 2, j))
                      for j in blk.table.p_regular_indices(2)}
    assert len(defect_classes) == 2 and len(calls) <= 2 * len(defect_classes)


@pytest.mark.parametrize("name, sizes", [
    ("Z47", [1, 23, 23]),                  # 2 has order 23 mod 47
    ("A5xZ7", [1, 1, 3, 3, 3, 3]),         # A5's two blocks times 1 + 3 + 3 of Z7
    ("Z3wrZ2", [1, 1, 2, 2]),
])
def test_frobenius_orbits_and_constant_multiplicities(name, sizes):
    from blockscope.blocks import _frobenius_orbit
    from blockscope.recipes import alternating
    from conftest import RECIPES
    recipes = {"Z47": cyclic(47), "A5xZ7": direct(alternating(5), cyclic(7)),
               "Z3wrZ2": RECIPES["Z3wrZ2"]}
    found = block_distribution(character_table(construct_group(recipes[name])), 2)
    orbits = {tuple(sorted(found.index(a) for a in _frobenius_orbit(b))) for b in found}
    assert sorted(map(len, orbits)) == sizes and sum(sizes) == len(found)
    for orbit in orbits:
        assert len({lower_defect_multiplicities(found[i]).multiplicities for i in orbit}) == 1


def test_a_short_frobenius_orbit_fails_the_gf_p_check(monkeypatch):
    from blockscope import blocks
    found = block_distribution(character_table(group("Z3wrZ2")), 2)
    blk = next(b for b in found if len(blocks._frobenius_orbit(b)) > 1)
    monkeypatch.setattr(blocks, "_frobenius_orbit", lambda b: [b])
    with pytest.raises(InternalInconsistency, match="outside GF"):
        lower_defect_multiplicities(blk)


def test_a_frobenius_image_that_is_no_block_is_refused(monkeypatch):
    from blockscope import blocks
    blk = principal_block(group("Z3wrZ2"), 2)
    monkeypatch.setattr(blocks, "_block_with_signature", lambda table, p, sig: None)
    with pytest.raises(InternalInconsistency, match="does not permute"):
        lower_defect_multiplicities(blk)


def test_a5_times_z7_blocks_at_2():
    # A5's 2-blocks are {1, 3, 3', 5} (defect group V4, l = 3: the 2-regular
    # classes 1, 3, 5a, 5b less the defect-0 block {4}) and {4}; each of the
    # 7 characters of Z7, of odd order, is a block of defect 0; the blocks
    # of the product are the products of blocks
    from blockscope.catalog import analyze_group
    from blockscope.recipes import alternating
    report = analyze_group(construct_group(direct(alternating(5), cyclic(7))), 2)
    shapes = sorted((b["k"], b["l"], b["defect"], b["defect_group_order"], sorted(b["degrees"]))
                    for b in report["blocks"])
    assert shapes == [(1, 1, 0, 1, [4])] * 7 + [(4, 3, 2, 4, [1, 3, 3, 5])] * 7
    assert report["invariant_suite"] and all(report["invariant_suite"].values())


def test_a_prime_past_int64_products_stays_exact():
    # at p = 2^31 - 1 a sum of two products of residues passes 2^62, so the
    # Z(kG) arrays hold Python integers; the residue field is GF(p^2), as
    # p = 7 mod 12, and p does not divide |S4|, so every block has defect 0
    from blockscope.catalog import analyze_group
    p = 2**31 - 1
    g = group("S4")
    report = analyze_group(g, p)
    assert [(b["k"], b["l"], b["defect"]) for b in report["blocks"]] == [(1, 1, 0)] * 5
    assert all(report["invariant_suite"].values())
    vectors, ctx = block_idempotent_vectors(character_table(g), p)
    assert vectors.dtype == object and ctx.f == 2


# -- the coordinate arrays against the former per-value Cyclo arithmetic


def _oracle_group(name):
    recipes = {"A5xZ7": direct(alternating(5), cyclic(7)), "Z47": cyclic(47)}
    return construct_group(recipes[name]) if name in recipes else group(name)


def _images_by_value(ctx):
    """The image of zeta_m^k for k < m': y^k mod the context's modulus, by
    polynomial powers, not by the context's own table."""
    out = []
    for k in range(ctx.m_prime):
        v = _poly_powmod([0, 1], k, list(ctx.modulus), ctx.p)
        out.append(v + [0] * (ctx.f - len(v)))
    return out


def _reduce_by_value(ctx, images, x):
    """One cyclotomic integer (or int) reduced coordinate by coordinate."""
    if isinstance(x, int):
        x = Cyclo.integer(x)
    step = ctx.m // x.m
    out = [0] * ctx.f
    for k, c in enumerate(x.coeffs):
        if c % ctx.p:
            for i, y in enumerate(images[k * step % ctx.m_prime]):
                out[i] += c * y
    return tuple(c % ctx.p for c in out)


def _central_characters_by_value(table):
    return [[(table_value(table, i, j) * cls.size).exact_div(table.degrees[i])
             for j, cls in enumerate(table.classes)] for i in range(table.n_classes)]


def _idempotent_vectors_by_value(table, p, images):
    ctx = mod_p_context(table.exponent, p)
    n_p = p_part(table.group.order, p)
    inverse = pow(table.group.order // n_p, -1, p)
    out = []
    for blk in block_distribution(table, p):
        vec = []
        for j in range(table.n_classes):
            total = Cyclo.zero()
            for i in blk.char_indices:
                total = total + table_value(table, i, table.inverse_class[j]) * table.degrees[i]
            w = total.exact_div(n_p)
            assert w is not None
            vec.append([c * inverse % p for c in _reduce_by_value(ctx, images, w)])
        out.append(vec)
    return out


def _induced_block_by_value(group, p, classes, terms, images):
    table = character_table(group)
    totals = [0] * table.n_classes
    for j, w in zip(classes, terms):
        totals[j] = totals[j] + w
    ctx = mod_p_context(table.exponent, p)
    sig = tuple(_reduce_by_value(ctx, images, w) for w in totals)
    return next((b for b in block_distribution(table, p) if b.signature == sig), None)


@pytest.mark.parametrize("name, p", [("S4", 2), ("S5", 2), ("L48", 2), ("G96", 2),
                                     ("A5xZ7", 2), ("Z47", 2), ("K192", 3), ("S5", 3),
                                     ("A5", 5)])
def test_coordinate_arrays_match_the_per_value_arithmetic(name, p):
    g = _oracle_group(name)
    table = character_table(g)
    e = table.exponent
    ctx = mod_p_context(e, p)
    images = _images_by_value(ctx)
    omegas = _central_characters_by_value(table)
    assert central_characters(table).tolist() == [[list(w._lift(e)) for w in row]
                                                  for row in omegas]
    for blk in block_distribution(table, p):
        for i in blk.char_indices:
            assert blk.signature == tuple(_reduce_by_value(ctx, images, w) for w in omegas[i])
    assert (block_idempotent_vectors(table, p)[0].tolist()
            == _idempotent_vectors_by_value(table, p, images))
    for r in p_subgroup_classes(g, p):
        n = normalizer(g, r)
        table_n = character_table(n)
        fusion = g.classes_of([c.representative for c in table_n.classes]).tolist()
        omegas_n = _central_characters_by_value(table_n)
        for chi in range(table_n.n_classes):
            assert brauer_induce(table_n, chi, g, p) is _induced_block_by_value(
                g, p, fusion, omegas_n[chi], images)
        assert induce_principal_block(n, g, p) is _induced_block_by_value(
            g, p, g.classes_of(n.elements()).tolist(), [1] * n.order, images)


@pytest.mark.parametrize("name, p", [("S5", 2), ("L48", 2), ("S5", 3)])
def test_the_block_layer_does_no_cyclo_arithmetic(name, p, monkeypatch):
    from blockscope.classify import count_weights
    calls = []
    for attr in ("__add__", "__mul__", "exact_div"):
        original = getattr(Cyclo, attr)
        monkeypatch.setattr(Cyclo, attr, lambda self, *args, _f=original, _name=attr:
                            calls.append(_name) or _f(self, *args))
    g = _fresh(name)
    table = character_table(g)
    found = block_distribution(table, p)
    block_idempotent_vectors(table, p)
    for blk in found:
        lower_defect_multiplicities(blk)
        count_weights(g, p, blk)
    for r in p_subgroup_classes(g, p):
        table_n = character_table(normalizer(g, r))
        for chi in range(table_n.n_classes):
            brauer_induce(table_n, chi, g, p)
    assert found and not calls
