import pytest

from conftest import RECIPES, derived_subgroup, group
from blockscope.blocks import p_subgroup_classes
from blockscope.errors import InputError, MethodDisagreement, NotAbelian
from blockscope.fusion import FusionSystem, _automizer_info, _strongly_p_embedded, omega1
from blockscope.groups import (abelian_invariants, normal_closure, normalizer, o_p_residual,
                               same_subgroup, sylow_subgroup, sylow_subgroup_classes)
from blockscope.perms import Perm
from blockscope.recipes import (alternating, construct_group, cyclic, direct,
                                semidirect, symmetric)


def cyc(degree, *cycles):
    return Perm.from_cycles(degree, [list(c) for c in cycles])


def fs_of(name, **kw):
    return FusionSystem(group(name), p=2, **kw)


def are_conjugate(fs, a, b):
    """Oracle: g in G with a_i^g = b_i for all i, or None, for tuples of
    elements of the Sylow subgroup.  Brute scan over G."""
    a = tuple(a)
    b = tuple(b)
    if len(a) != len(b):
        return None
    if not a:
        return fs.group.identity
    pset = fs.sylow.element_set()
    if any(x not in pset for x in a + b):
        raise ValueError("tuple entries must lie in the Sylow subgroup")
    for g in fs.group.elements():
        if all(x ** g == y for x, y in zip(a, b)):
            return g
    return None


# -- F-conjugacy


def test_f_conjugacy_in_s4():
    fs = fs_of("S4")
    a = cyc(4, (0, 1), (2, 3))
    b = cyc(4, (0, 2), (1, 3))
    g = are_conjugate(fs, (a,), (b,))
    assert g is not None and a ** g == b
    assert are_conjugate(fs, (a,), (a,)) is not None


def test_f_conjugacy_a4_involutions():
    fs = fs_of("A4")
    invs = [x for x in fs.sylow.elements() if x.order() == 2]
    assert len(invs) == 3
    for y in invs:
        assert are_conjugate(fs, (invs[0],), (y,)) is not None


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_fusion_system_rejects_a_non_prime(p):
    with pytest.raises(InputError):
        FusionSystem(group("A4"), p=p)


def test_f_conjugacy_requires_sylow_membership():
    fs = fs_of("S4")
    with pytest.raises(ValueError):
        are_conjugate(fs, (cyc(4, (0, 1, 2)),), (cyc(4, (0, 1, 2)),))


def test_f_conjugacy_closed_under_composition_and_restriction():
    import random
    fs = fs_of("G96")
    elems = list(fs.sylow.elements())
    rng = random.Random(2)
    for _ in range(25):
        a = elems[rng.randrange(len(elems))]
        g1 = rng.choice(list(fs.group.elements()))
        g2 = rng.choice(list(fs.group.elements()))
        b, c = a ** g1, a ** (g1 * g2)
        pset = fs.sylow.element_set()
        if b not in pset or c not in pset:
            continue
        assert are_conjugate(fs, (a,), (b,)) is not None
        assert are_conjugate(fs, (b,), (c,)) is not None
        assert are_conjugate(fs, (a,), (c,)) is not None    # composition
        # restriction: a pair morphism restricts to its first coordinate
        d = elems[rng.randrange(len(elems))]
        wit = are_conjugate(fs, (a, d), (a ** g1, d ** g1)) \
            if (d ** g1) in pset else None
        if wit is not None:
            assert are_conjugate(fs, (a,), (a ** g1,)) is not None


# -- strongly p-embedded subgroups (Quillen's criterion)


@pytest.mark.parametrize("recipe,p,order", [
    (symmetric(3), 2, 2), (symmetric(4), 2, None), (symmetric(4), 3, 6),
    (alternating(4), 3, 3), (semidirect(cyclic(4), cyclic(2), [["(1,4,3,2)"]]), 2, None),
    (alternating(5), 2, 12), (alternating(5), 3, 6), (alternating(5), 5, 10),
    (symmetric(5), 2, None), (symmetric(5), 3, 12), (symmetric(5), 5, 20),
    # larger groups: the criterion enumerates no subgroups
    (alternating(6), 2, None), (alternating(6), 3, 36), (alternating(6), 5, 10),
    (alternating(7), 3, None), (alternating(7), 5, 20),
])
def test_strongly_p_embedded_witness_order(recipe, p, order):
    # `order` is that of the smallest strongly p-embedded subgroup, None if
    # there is none; Quillen's criterion answers only whether one exists
    assert _strongly_p_embedded(construct_group(recipe), p) is (order is not None)


# -- hyperfocal subgroups


@pytest.mark.parametrize("name,order,invariants", [
    ("S4", 4, (2, 2)),
    ("A4", 4, (2, 2)),
    ("S5", 4, (2, 2)),
    ("L48", 16, (4, 4)),
    ("G96", 16, (4, 4)),
    ("K192", 16, (4, 4)),
    ("F56", 8, (2, 2, 2)),
    ("Z4wrZ2", 1, ()),
    ("S3xS3", 1, ()),
])
def test_hyperfocal_two_methods(name, order, invariants):
    fs = fs_of(name)
    rep = fs.hyperfocal()
    assert rep.subgroup.order == order
    assert same_subgroup(fs._hyperfocal_commutator(), rep.subgroup)
    assert rep.invariants == invariants
    # the residual keeps an element of P meet O^p(G) only when it is new to
    # the subgroup grown so far, so each generator at least doubles it
    assert 2 ** len(rep.subgroup.generators) <= order


def _residual_by_checked_subgroups(fs):
    """Oracle: P meet O^p(G) grown in a throwaway subgroup's BSGS, then
    rebuilt from its generators by the checked `group.subgroup`."""
    opg = o_p_residual(fs.group, fs.p)
    q = fs.group.subgroup([])
    return fs.group.subgroup([x for x in fs.sylow.elements() if x in opg and q.bsgs.add(x)])


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_the_residual_keeps_the_bsgs_it_grew(name, monkeypatch):
    """The residual's handle holds the BSGS its generators were added to, the
    one `_BSGS` the method builds besides O^p(G)'s normal closure, and it is
    the BSGS the checked subgroup of the same generators builds afresh."""
    from blockscope.groups import _BSGS
    fs = fs_of(name)
    fs.sylow.elements(), fs.group.conjugacy_classes()
    built = []
    init = _BSGS.__init__
    monkeypatch.setattr(_BSGS, "__init__",
                        lambda self, *a: built.append(self) or init(self, *a))
    q = fs._hyperfocal_residual()
    q.order, q.bsgs
    assert len(built) == 2 and q._bsgs is built[1]
    monkeypatch.undo()
    want = _residual_by_checked_subgroups(fs)
    assert q.generators == want.generators
    assert q.bsgs.base == want.bsgs.base
    assert q.bsgs.level_gens == want.bsgs.level_gens
    assert [list(o.items()) for o in q.bsgs.inverses] == [
        list(o.items()) for o in want.bsgs.inverses]
    assert q.elements() == want.elements()


def test_hyperfocal_methods_that_disagree_are_refused(monkeypatch):
    fs = fs_of("S4")
    monkeypatch.setattr(fs, "_hyperfocal_commutator", lambda: fs.sylow)
    with pytest.raises(MethodDisagreement, match="hyperfocal methods disagree"):
        fs.hyperfocal()


def _hyperfocal_over_all_classes(fs):
    """Oracle: P-normal closure of u^-1 u^x over every subgroup class U of P,
    every u in U and every p'-element x of N_G(U)."""
    gens = set()
    for u in p_subgroup_classes(fs.group, fs.p):
        xs = [x for x in normalizer(fs.group, u).elements() if x.order() % fs.p]
        gens.update(uu.inverse() * (uu ** x) for uu in u.elements() for x in xs)
    return normal_closure(fs.sylow, [c for c in gens if not c.is_identity()])


@pytest.mark.parametrize("name", ["A4", "L48", "S4", "G96", "A4xZ4", "K192", "Z4wrZ2"])
def test_hyperfocal_from_alperin_generators_matches_all_classes(name):
    fs = fs_of(name)
    oracle = _hyperfocal_over_all_classes(fs)
    alperin = fs._hyperfocal_commutator()
    residual = fs.hyperfocal().subgroup
    assert same_subgroup(alperin, oracle) and same_subgroup(oracle, residual)


def test_hyperfocal_over_the_enumeration_cap_raises():
    from blockscope.errors import CapExceeded
    fs = FusionSystem(construct_group(cyclic(512)), p=2)
    with pytest.raises(CapExceeded, match="exceeds enumeration cap 256"):
        fs.hyperfocal()


def test_hyperfocal_normal_in_sylow_and_inside_derived():
    for name in ("S4", "S5", "G96", "L96_Z6"):
        fs = fs_of(name)
        q = fs.hyperfocal().subgroup
        p = fs.sylow
        for x in q.generators:
            for y in p.generators:
                assert (x ** y) in q
        dg = derived_subgroup(fs.group)
        assert all(x in dg for x in q.generators)


def test_hyperfocal_a4_equals_sylow():
    fs = fs_of("A4")
    assert same_subgroup(fs.hyperfocal().subgroup, fs.sylow)


def test_hyperfocal_l48_equals_sylow():
    fs = fs_of("L48")
    assert same_subgroup(fs.hyperfocal().subgroup, fs.sylow)


# -- omega1


def test_omega1():
    q44 = construct_group(direct(cyclic(4), cyclic(4)))
    assert abelian_invariants(omega1(q44)) == (2, 2)
    v4 = construct_group(direct(cyclic(2), cyclic(2)))
    assert omega1(v4).order == 4
    z8 = construct_group(cyclic(8))
    assert omega1(z8).order == 2
    with pytest.raises(NotAbelian):
        omega1(group("S4"))


# -- essential classes


def test_s4_unique_essential():
    ess = fs_of("S4").essential_classes()
    assert len(ess) == 1
    e = ess[0]
    assert e.representative.order == 4
    assert abelian_invariants(e.representative) == (2, 2)
    assert e.automizer.order == 6 and e.automizer.is_symmetric_3


def test_a4_no_essentials():
    assert fs_of("A4").essential_classes() == []


def test_g96_unique_essential_is_hyperfocal():
    fs = fs_of("G96")
    ess = fs.essential_classes()
    assert len(ess) == 1
    assert same_subgroup(ess[0].representative, fs.hyperfocal().subgroup)
    assert ess[0].automizer.is_symmetric_3


def test_k192_essential_has_noncentral_hyperfocal():
    from blockscope.groups import centralizer
    fs = fs_of("K192")
    ess = fs.essential_classes()
    assert len(ess) == 1
    s = ess[0].representative
    assert s.order == 32
    q = fs.hyperfocal().subgroup
    zs = centralizer(s, s)
    assert not all(x in zs for x in q.generators)


# -- control


def test_control_examples():
    fsa = fs_of("A4")
    assert not fsa.essential_classes()

    fss = fs_of("S4")
    assert fss.essential_classes()


@pytest.mark.parametrize("name", ["S4", "G96", "K192"])
def test_essential_search_builds_no_automizer_of_the_sylow(name, monkeypatch):
    fs = fs_of(name)
    orders = []
    automizer_group = fs.automizer_group
    monkeypatch.setattr(fs, "automizer_group",
                        lambda u: orders.append(u.order) or automizer_group(u))
    assert fs.essential_classes()
    assert orders and fs.sylow.order not in orders


def _essentials_by_every_automizer(fs):
    """Oracle: the essential search without the p-group prefilter, with the
    centric check on Perm products."""
    out = []
    classes = sylow_subgroup_classes(fs.group, fs.p)
    for members in classes.members:
        u = members[0]
        if u.order in (1, fs.sylow.order):
            continue
        if not all(_perm_centric(fs, m.element_set(), m.generators) for m in members):
            continue
        quo = fs.automizer_group(u)
        if _strongly_p_embedded(quo, fs.p):
            out.append((u.element_set(), _automizer_info(quo)))
    return out


def _perm_centric(fs, uset, gens):
    return not any(y not in uset and all(y * x == x * y for x in gens)
                   for y in fs.sylow.elements())


@pytest.mark.parametrize("name", ["S4", "G96", "K192"])
def test_essential_search_builds_automizers_only_for_normalizers_that_are_not_p_groups(
        name, monkeypatch):
    fs = FusionSystem(construct_group(RECIPES[name]), p=2)
    built = []
    automizer_group = fs.automizer_group
    monkeypatch.setattr(fs, "automizer_group",
                        lambda u: built.append(u) or automizer_group(u))
    got = fs.essential_classes()
    assert built
    assert not [u for u in built if normalizer(fs.group, u).is_p_group(2)]
    classes = sylow_subgroup_classes(fs.group, 2)
    assert [(classes.reps[classes.index_of(e.representative)].element_set(), e.automizer)
            for e in got] == _essentials_by_every_automizer(fs)


@pytest.mark.parametrize("name", ["K192", "G96"])
def test_essential_search_reads_the_order_of_a_skipped_class_from_the_record(
        name, monkeypatch):
    """A class skipped before the automizer step builds no BSGS for its
    representative: its order is the size of its first member's element set."""
    fs = FusionSystem(construct_group(RECIPES[name]), p=2)
    built = []
    automizer_group = fs.automizer_group
    monkeypatch.setattr(fs, "automizer_group",
                        lambda u: built.append(id(u)) or automizer_group(u))
    fs.essential_classes()
    skipped = [u for u in sylow_subgroup_classes(fs.group, 2).reps if id(u) not in built]
    assert skipped and all(u._bsgs is None for u in skipped)


def test_the_fully_normalized_representative_is_a_member_handle():
    """On every group with essential classes: the representative is one of
    its class's member handles, the one the loop over (element set,
    generators) pairs, each rebuilt as a checked subgroup, picked.  Every
    class of those groups is compared too, so that ties on |N_P| occur."""
    def by_pairs(fs, pairs):
        best = None
        for _, gens in pairs:
            member = fs.group.subgroup(gens)
            nsize = normalizer(fs.sylow, member).order
            if best is None or nsize > best[0]:
                best = (nsize, member)
        return best[1]

    checked = []
    for name in RECIPES:
        fs = fs_of(name)
        essentials = fs.essential_classes()
        if not essentials:
            continue
        checked.append(name)
        classes = sylow_subgroup_classes(fs.group, 2)
        for e in essentials:
            members = classes.members[classes.index_of(e.representative)]
            assert fs._fully_normalized_rep(members) is e.representative
        for members in classes.members:
            got = fs._fully_normalized_rep(members)
            want = by_pairs(fs, [(m.element_set(), m.generators) for m in members])
            assert any(got is m for m in members)
            assert (got.generators, got.element_set()) == (want.generators, want.element_set())
    assert {"S4", "G96", "K192"} <= set(checked)


@pytest.mark.parametrize("name", ["S4", "G96", "K192", "W384"])
def test_the_table_centric_check_matches_perm_products(name):
    fs = fs_of(name)
    for members in sylow_subgroup_classes(fs.group, 2).members:
        for m in members:
            assert fs._centric_local(m) == _perm_centric(fs, m.element_set(), m.generators)


def test_l96_z6_controlled_but_not_central():
    from blockscope.groups import centralizer
    fs = fs_of("L96_Z6")
    assert not fs.essential_classes()
    q = fs.hyperfocal().subgroup
    zp = centralizer(fs.sylow, fs.sylow)
    assert not all(x in zp for x in q.generators)
    assert zp.order == 4


# -- automizers


def test_automizer_v4_in_s4():
    fs = fs_of("S4")
    v4 = group("S4").subgroup([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    info = _automizer_info(fs.automizer_group(v4))
    assert info.order == 6 and info.is_symmetric_3


def test_automizer_noncentral_klein_in_s4():
    fs = fs_of("S4")
    k = group("S4").subgroup([cyc(4, (0, 1)), cyc(4, (2, 3))])
    info = _automizer_info(fs.automizer_group(k))
    assert info.order == 2 and not info.is_symmetric_3


def test_automizer_sylow_in_own_fusion():
    w = group("Z4wrZ2")
    fs = FusionSystem(w, p=2)
    info = _automizer_info(fs.automizer_group(fs.sylow))
    assert info.order == 1


# -- odd complements


def test_odd_complement_a4():
    fs = fs_of("A4")
    e, fixed = fs.odd_complement_fixed_points(fs.sylow)
    assert e.order == 12 and fixed.order == 1


def test_odd_complement_g96_essential():
    fs = fs_of("G96")
    s = fs.essential_classes()[0].representative
    e, fixed = fs.odd_complement_fixed_points(s)
    assert e.order % 3 == 0
    assert fixed.order == 1     # the order-3 twist acts freely


def test_odd_complement_case_i_product():
    fs = fs_of("L48xZ2")
    p = fs.sylow
    q = fs.hyperfocal().subgroup
    e, fixed = fs.odd_complement_fixed_points(p)
    assert fixed.order == 2
    qset = q.element_set()
    assert all(x not in qset or x.is_identity() for x in fixed.elements())
    assert q.order * fixed.order == p.order
    commutators = [x.inverse() * (x ** g) for x in q.elements() for g in e.generators]
    gen = fs.group.subgroup([c for c in commutators if not c.is_identity()])
    assert same_subgroup(gen, q)


def test_nilpotency_of_q0_centralizer_block():
    # the principal block of C_G(omega1(Q)) has trivial hyperfocal subgroup
    for name in ("S4", "A4", "G96", "S5"):
        fs = fs_of(name)
        q0 = omega1(fs.hyperfocal().subgroup)
        from blockscope.groups import centralizer
        h = centralizer(fs.group, q0)
        assert FusionSystem(h, p=2).hyperfocal().subgroup.order == 1
