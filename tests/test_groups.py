import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (ORACLE_CAP, RECIPES, brute_centralizer_order, brute_class_count,
                      brute_conjugator, brute_normalizer_order, derived_subgroup, group)
from blockscope.errors import CapExceeded, InternalInconsistency, NotAbelian, NotNormalized
from blockscope.blocks import block_distribution
from blockscope.chartable import character_table
from blockscope.exact import nu, p_part, prime_factors
from blockscope.groups import (PermGroup, _BSGS, _element_index, _element_orders,
                               _images_at, _stabilizer_of_action, _subgroups_of_p_group,
                               abelian_invariants,
                               centralizer, normal_closure, normalizer,
                               o_p_core, o_p_residual, quotient_by_normal,
                               subgroup_fingerprint, sylow_subgroup, sylow_subgroup_classes,
                               same_subgroup)
from blockscope.recipes import (alternating, construct_group, cyclic, direct, symmetric,
                                wreath)
from blockscope.perms import Perm


def cyc(degree, *cycles):
    return Perm.from_cycles(degree, [list(c) for c in cycles])


# -- orders


@pytest.mark.parametrize("name,order", [
    ("S4", 24), ("A5", 60), ("S5", 120), ("S6", 720), ("L48", 48), ("G96", 96),
])
def test_orders(name, order):
    assert group(name).order == order


def test_order_direct_product():
    assert group("S4xZ2").order == 48


def test_order_independent_of_generator_listing():
    g = group("S5")
    rng = random.Random(7)
    for _ in range(5):
        gens = list(g.generators)
        rng.shuffle(gens)
        gens.append(gens[0] * gens[-1])
        assert PermGroup(g.degree, gens).order == g.order


def test_order_equals_element_count():
    for name in ("S4", "A4", "L48", "D8"):
        g = group(name)
        assert len(set(g.elements())) == g.order


def test_membership():
    s4 = group("S4")
    assert cyc(4, (0, 1, 2)) in s4
    a4 = s4.subgroup([cyc(4, (0, 1, 2)), cyc(4, (1, 2, 3))])
    assert a4.order == 12
    assert cyc(4, (0, 1)) not in a4


def test_subgroup_generator_outside_parent_rejected():
    a4 = group("A4")
    with pytest.raises(ValueError):
        a4.subgroup([cyc(4, (0, 1))])
    # membership is tested in the group itself, not in a group it came from
    v4 = group("S4").subgroup([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    with pytest.raises(ValueError):
        v4.subgroup([cyc(4, (0, 1))])


# -- conjugacy classes


def test_class_sizes_s4():
    sizes = sorted(c.size for c in group("S4").conjugacy_classes())
    assert sizes == [1, 3, 6, 6, 8]


def test_class_sizes_a4():
    sizes = sorted(c.size for c in group("A4").conjugacy_classes())
    assert sizes == [1, 3, 4, 4]


def test_class_count_l48():
    assert len(group("L48").conjugacy_classes()) == 8


def test_class_invariants():
    for name in ("S4", "A4", "L48", "G96", "Z3wrZ2"):
        g = group(name)
        classes = g.conjugacy_classes()
        assert sum(c.size for c in classes) == g.order
        for c in classes:
            assert c.size * c.centralizer_order == g.order
            assert c.representative.order() == c.element_order
        assert len(classes) == brute_class_count(g)


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_class_count_stable_under_relabeling(rnd):
    g = group("S4")
    relabel = Perm(tuple(rnd.sample(range(g.degree), g.degree)))
    conj = PermGroup(g.degree, [x ** relabel for x in g.generators])
    assert conj.order == g.order
    assert len(conj.conjugacy_classes()) == len(g.conjugacy_classes())


# -- centralizers and normalizers against brute force


def test_centralizer_examples():
    s4 = group("S4")
    c = centralizer(s4, cyc(4, (0, 1), (2, 3)))
    assert c.order == 8
    assert centralizer(s4, s4.identity).order == 24
    assert centralizer(s4, s4.subgroup([cyc(4, (0, 1, 2))])).order == 3


def test_centralizer_of_the_identity_is_the_group(monkeypatch):
    s6 = group("S6")
    built = []
    original = _BSGS.__init__

    def counting_init(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(_BSGS, "__init__", counting_init)
    assert centralizer(s6, s6.identity) is s6
    assert built == []


def test_normalizer_examples():
    s4 = group("S4")
    assert normalizer(s4, s4.subgroup([cyc(4, (0, 1))])).order == 4
    s5 = group("S5")
    v4 = s5.subgroup([cyc(5, (0, 1), (2, 3)), cyc(5, (0, 2), (1, 3))])
    assert normalizer(s5, v4).order == 24
    assert normalizer(s4, s4).order == 24


# (stabilizer, acting group) pairs in which the stabilizer is the whole group


def _normalizer_of_v4_in_s4():
    s4 = group("S4")
    return normalizer(s4, s4.subgroup([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])), s4


def _normalizer_of_z4xz4_in_l48():
    l48 = group("L48")
    q = sylow_subgroup(l48, 2)
    assert abelian_invariants(q) == (4, 4)
    return normalizer(l48, q), l48


def _normalizer_of_the_trivial_subgroup():
    s5 = group("S5")
    return normalizer(s5, s5.subgroup([])), s5


def _centralizer_of_a_central_involution():
    g = group("S4xZ2")
    (z,) = [x for x in g.elements()
            if x.order() == 2 and all(x * y == y * x for y in g.generators)]
    return centralizer(g, z), g


def _centralizer_of_an_abelian_group_in_itself():
    a = construct_group(direct(cyclic(4), cyclic(4)))
    return centralizer(a, a), a


@pytest.mark.parametrize("case", [
    _normalizer_of_v4_in_s4, _normalizer_of_z4xz4_in_l48,
    _normalizer_of_the_trivial_subgroup, _centralizer_of_a_central_involution,
    _centralizer_of_an_abelian_group_in_itself,
], ids=lambda f: f.__name__.lstrip("_"))
def test_a_stabilizer_that_is_the_whole_group_is_its_handle(case):
    """A normalizer or centralizer equal to the acting group is that
    group's own handle, so its BSGS, classes and table are shared."""
    stab, g = case()
    assert stab is g


@pytest.mark.parametrize("name", ["S4", "L48", "G96"])
def test_a_moved_seed_gets_the_stabilizer_of_index_its_orbit(name):
    import blockscope.groups
    g = construct_group(RECIPES[name])
    x = next(y for y in g.elements() if any(y ** h != y for h in g.generators))
    for seed in (frozenset([x]), g.subgroup([x]).element_set()):
        orbit, stab, _ = blockscope.groups._stabilizer_of_action(g, seed)
        assert len(orbit) > 1 and stab is not g
        assert stab.order == g.order // len(orbit)


def test_normalizer_of_a_subgroup_outside_the_group():
    a4 = group("A4")
    n = normalizer(a4, PermGroup(4, [cyc(4, (0, 1))]))
    assert n.order == 2
    assert all(x in a4 for x in n.generators)


def test_centralizer_normalizer_match_brute_force():
    cases = [
        ("S4", [cyc(4, (0, 1), (2, 3))]),
        ("S4", [cyc(4, (0, 1, 2))]),
        ("S5", [cyc(5, (0, 1, 2, 3, 4))]),
        ("S6", [cyc(6, (0, 1), (2, 3, 4))]),
        ("G96", None),
        ("L48", None),
    ]
    rng = random.Random(3)
    for name, targets in cases:
        g = group(name)
        assert g.order <= ORACLE_CAP
        if targets is None:
            targets = [rng.choice(list(g.elements()))]
        got = centralizer(g, targets[0]).order
        assert got == brute_centralizer_order(g, targets)
    for name in ("S4", "S5", "S6", "G96"):
        g = group(name)
        h = sylow_subgroup(g, 2)
        assert normalizer(g, h).order == brute_normalizer_order(g, h)


@pytest.mark.parametrize("recipe", [
    direct(alternating(5), cyclic(2)),
    direct(direct(alternating(5), cyclic(2)), cyclic(2)),
    direct(symmetric(5), cyclic(2)),
], ids=["A5xZ2", "A5xZ2xZ2", "S5xZ2"])
def test_analysis_builds_one_table_per_distinct_group(recipe, monkeypatch):
    """Here N_G(Q) = N_G(P) for Q != P; the second normalizer query reuses
    the first one's handle, so no element set gets a second table."""
    from blockscope import chartable
    from blockscope.catalog import analyze_group
    built = []
    build = chartable._build_table
    monkeypatch.setattr(chartable, "_build_table",
                        lambda g: built.append(g.element_set()) or build(g))
    analyze_group(construct_group(recipe), 2)
    assert built and len(built) == len(set(built))


@pytest.mark.parametrize("name", ["S4", "S5", "G96", "L48"])
def test_normalizer_of_a_conjugate_member(name):
    """N(r^x) for x outside N(r) is walked from r^x itself, as the orbit
    memo is keyed by seeds only; it must be N(r^x), of the order of N(r)."""
    g = construct_group(RECIPES[name])
    reps = sylow_subgroup_classes(g, 2).reps
    tried = 0
    for r in reps:
        n_r = normalizer(g, r)
        x = next((y for y in g.elements() if y not in n_r), None)
        if x is None:
            continue
        rx = g.subgroup([t ** x for t in r.generators])
        rx_set = rx.element_set()
        assert rx_set != r.element_set()
        n = normalizer(g, rx)
        assert n.order == brute_normalizer_order(g, rx) == n_r.order
        for y in n.generators:
            assert y in g
            assert frozenset(t ** y for t in rx_set) == rx_set
        tried += 1
    assert tried > 0


def _conjugation_orbit(g, sset):
    """Oracle: the orbit of an element set under conjugation by g."""
    orbit = {sset}
    queue = [sset]
    while queue:
        s = queue.pop()
        for gg in g.generators:
            t = frozenset(x ** gg for x in s)
            if t not in orbit:
                orbit.add(t)
                queue.append(t)
    return orbit


def test_each_orbit_of_element_sets_is_walked_once(monkeypatch):
    """A walk of a subgroup's element set is a call of `_stabilizer_of_action`
    from `_orbit_entry`: the class enumeration and every normalizer read the
    memoised walks.  A centralizer walks one-element sets outside the memo."""
    import sys
    import blockscope.groups
    from blockscope.catalog import analyze_group
    walks = []
    stabilizer_of_action = blockscope.groups._stabilizer_of_action

    def recording_stabilizer(g, seed):
        if sys._getframe(1).f_code.co_name == "_orbit_entry":
            walks.append((g, seed))
        return stabilizer_of_action(g, seed)

    monkeypatch.setattr(blockscope.groups, "_stabilizer_of_action", recording_stabilizer)
    for name in ("K192", "L48xZ2"):
        analyze_group(construct_group(RECIPES[name]), 2)
    assert walks
    walked: dict[int, set] = {}   # id of the acting group -> members of its walked orbits
    for g, seed in walks:   # `walks` keeps every g alive, so ids stay distinct
        orbit = _conjugation_orbit(g, seed)
        members = walked.setdefault(id(g), set())
        assert not orbit & members, f"an orbit of order-{len(seed)} sets walked twice"
        members |= orbit


@pytest.mark.parametrize("name", ["S4", "G96", "K192"])
def test_the_orbit_memo_holds_one_entry_per_walk(name, monkeypatch):
    """`_orbit_entry` keeps one entry per walk of g, under its seed, which
    is the first member of the orbit the entry holds; a normalizer query
    for a seed reads that entry and walks nothing."""
    import blockscope.groups
    g = construct_group(RECIPES[name])
    walked = []
    walk = blockscope.groups._stabilizer_of_action
    monkeypatch.setattr(blockscope.groups, "_stabilizer_of_action",
                        lambda h, seed: (h is g and walked.append(seed)) or walk(h, seed))
    classes = sylow_subgroup_classes(g, 2)
    for r in classes.reps:
        normalizer(g, r)
    memo = g._cache["set_orbits"]
    assert list(memo) == walked
    assert all(orbit[0] == seed for seed, (orbit, _, _) in memo.items())
    assert sum(len(orbit) for orbit, _, _ in memo.values()) > len(memo)


_SMALL_RECIPES = st.sampled_from([cyclic(2), cyclic(3), cyclic(4), cyclic(6), symmetric(3),
                                  symmetric(4), alternating(4)])


@settings(max_examples=25, deadline=None)
@given(st.one_of(_SMALL_RECIPES, st.builds(direct, _SMALL_RECIPES, _SMALL_RECIPES),
                 st.builds(wreath, st.sampled_from([cyclic(2), cyclic(3), symmetric(3)]),
                           st.sampled_from([cyclic(2), cyclic(3)]))))
def test_classes_and_centralizers_match_sympy(recipe):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    g = construct_group(recipe)
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(x.images)) for x in g.generators])
    classes = g.conjugacy_classes()
    their_classes = theirs.conjugacy_classes()
    assert len(classes) == len(their_classes)
    for their_class in their_classes:
        members = [Perm(tuple(x.array_form)) for x in their_class]
        i = g.class_of(members[0])
        assert {g.class_of(x) for x in members} == {i}
        assert classes[i].size == len(their_class)
    for c in classes:
        x = combinatorics.Permutation(list(c.representative.images))
        assert centralizer(g, c.representative).order == c.centralizer_order \
            == theirs.centralizer(x).order()


def _classes_by_perm_walk(g):
    """The class walk one element at a time on Perm objects: the oracle for
    the array walk in PermGroup._conjugacy_classes."""
    elems = g.elements()
    conjugators = [x.conjugator() for x in g.generators]
    unseen = set(elems)
    raw = []
    for x in sorted(elems):
        if x not in unseen:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for conj in conjugators:
                z = conj(y)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        unseen -= orbit
        rep = min(orbit)
        raw.append((rep.order(), len(orbit), rep.images, g.order // len(orbit),
                    tuple(sorted(orbit))))
    raw.sort(key=lambda c: c[:3])
    return raw


def _assert_classes_match_perm_walk(g):
    g.bsgs   # its transversals are Perms; count only those the walk builds
    built = []
    raw = Perm._raw
    with mock.patch.object(Perm, "_raw", staticmethod(lambda im: built.append(im) or raw(im))):
        got = g.conjugacy_classes()
    # the walk builds no per-element Perm tuple: one Perm per class
    # representative and one inverse per generator, and no element list
    assert len(built) <= len(got) + len(g.generators)
    assert not {"elements", "element_set"} & set(g._cache)
    want = _classes_by_perm_walk(g)
    at = g.classes_of(g.elements()).tolist()
    members = [tuple(sorted(x for x, k in zip(g.elements(), at) if k == i))
               for i in range(len(got))]
    assert [(c.element_order, c.size, c.representative.images, c.centralizer_order,
             m) for c, m in zip(got, members)] == want


@pytest.mark.parametrize("name", ["S4", "S5", "G96", "L48xZ2", "K192", "W384", "Z6", "D8"])
def test_class_walk_matches_the_perm_walk(name):
    _assert_classes_match_perm_walk(construct_group(RECIPES[name]))


@settings(max_examples=25, deadline=None)
@given(st.one_of(_SMALL_RECIPES, st.builds(direct, _SMALL_RECIPES, _SMALL_RECIPES),
                 st.builds(wreath, st.sampled_from([cyclic(2), cyclic(3), symmetric(3)]),
                           st.sampled_from([cyclic(2), cyclic(3)]))))
def test_class_walk_matches_the_perm_walk_on_drawn_groups(recipe):
    _assert_classes_match_perm_walk(construct_group(recipe))


def test_class_walk_of_the_trivial_group():
    g = PermGroup(3, [])
    (c,) = g.conjugacy_classes()
    assert (c.representative, c.size) == (g.identity, 1)
    assert g.classes_of([g.identity]).tolist() == [0]
    assert g.class_of(g.identity) == 0


def test_class_of_refuses_a_non_member():
    a4 = group("A4")
    with pytest.raises(ValueError, match="outside the group"):
        a4.class_of(cyc(a4.degree, (0, 1)))


def test_element_keys_stay_exact_past_a_radix_of_the_base():
    # 11 disjoint transpositions on 64 points: order 2^11, base length 11,
    # and 64^11 = 2^66, so a plain radix code of the base images would overflow
    g = PermGroup(64, [cyc(64, (2 * t, 2 * t + 1)) for t in range(11)])
    index = _element_index(g)
    assert g.order == 2048
    assert g.degree ** len(index.base) >= 2**63
    elems = g.elements()
    keys = index.keys(_images_at(elems, index.base, index.images.dtype)).tolist()
    assert sorted(keys) == list(range(g.order))
    key_of = dict(zip(elems, keys))
    for x, k in key_of.items():
        assert index.images[k].tolist() == [x(b) for b in index.base]
    rnd = random.Random(11)
    xs = [rnd.choice(elems) for _ in range(200)]
    ys = [rnd.choice(elems) for _ in range(200)]
    # x y at the base points only: (x y)(b) = y(x(b))
    at_base = np.array([[y(x(b)) for b in index.base] for x, y in zip(xs, ys)],
                       dtype=index.images.dtype)
    assert index.keys(at_base).tolist() == [key_of[x * y] for x, y in zip(xs, ys)]


@pytest.mark.parametrize("name", [*RECIPES, "trivial"])
def test_the_array_built_index_matches_one_built_from_the_elements(name):
    g = PermGroup(3, []) if name == "trivial" else construct_group(RECIPES[name])
    index = _element_index(g)
    assert "elements" not in g._cache   # built from the image array alone
    assert index.base == list(g.bsgs.base)
    elems = g.elements()
    # the key of elements()[k] is k, and images[k] holds its base images
    assert index.images.tolist() == [[x(b) for b in index.base] for x in elems]
    assert index.images.dtype == np.min_scalar_type(g.degree - 1)
    assert index.keys(_images_at(elems, index.base, index.images.dtype)).tolist() == \
        list(range(g.order))
    assert g.element_images().tolist() == [list(x.images) for x in elems]


def test_a_fresh_table_and_its_blocks_build_no_element_list():
    g = construct_group(alternating(8))
    block_distribution(character_table(g), 2)
    assert not {"elements", "element_set"} & set(g._cache)


# -- the key walk against the Perm walk


def _perm_walk(group, seed):
    """Oracle: the orbit-stabilizer walk on Perm objects, conjugating a
    frozenset seed member by member and sifting every Schreier generator."""
    canon = {x: x for x in seed}
    actions = [(g, lambda s, c=g.conjugator(): frozenset(
                    canon.setdefault(y, y) for y in map(c, s)))
               for g in group.generators]
    if all(act(seed) == seed for _, act in actions):
        return {seed: group.identity}, group
    orbit = {seed: group.identity}
    queue = [seed]
    gens = []
    bsgs = _BSGS(group.degree, [])
    for x in queue:
        wit = orbit[x]
        for g, act in actions:
            y = act(x)
            w = orbit.get(y)
            if w is None:
                orbit[y] = wit * g
                queue.append(y)
            else:
                s = wit * g * w.inverse()
                if bsgs.add(s):
                    gens.append(s)
    return orbit, PermGroup(group.degree, gens), bsgs


def _assert_same_walk(g, seed):
    orbit, stab, keys = _stabilizer_of_action(g, seed)
    want = _perm_walk(g, seed)
    assert orbit == list(want[0])
    if all(x in g for x in seed):
        # row i of the key array: the sorted keys of the i-th orbit member
        index = _element_index(g)
        assert [row.tolist() for row in keys] == [sorted(index.keys(_images_at(
            y, index.base, index.images.dtype)).tolist()) for y in orbit]
    if len(want) == 2:
        assert stab is g
        return
    bsgs = want[2]
    assert stab.generators == want[1].generators
    assert stab.bsgs.base == bsgs.base
    assert stab.bsgs.level_gens == bsgs.level_gens
    assert stab.elements() == want[1].elements()


@pytest.mark.parametrize("name", ["S4", "S5", "L48", "G96", "K192"])
def test_the_key_walk_matches_the_perm_walk(name):
    """Same orbit keys, order and witnesses, same stabilizer base, strong
    generators and element order, for every subgroup of the Sylow
    2-subgroup and every class representative as the seed."""
    g = construct_group(RECIPES[name])
    for s in _subgroups_of_p_group(sylow_subgroup(g, 2), 2):
        _assert_same_walk(g, s)
    for c in g.conjugacy_classes():
        _assert_same_walk(g, frozenset([c.representative]))


def test_the_key_walk_matches_the_perm_walk_on_seeds_outside_the_group():
    """A seed outside g walks in <g, seed>: a transposition's subgroup
    under A4, and the generators of E = <C_G(u), Sylow_3(N_G(u))> acting
    on u = V4 in S4, as odd_complement_fixed_points walks them."""
    from blockscope.fusion import FusionSystem
    a4 = construct_group(alternating(4))
    _assert_same_walk(a4, PermGroup(4, [cyc(4, (0, 1))]).element_set())
    s4 = construct_group(symmetric(4))
    v4 = s4.subgroup([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    e, _ = FusionSystem(s4, 2).odd_complement_fixed_points(v4)
    current = v4
    outside = 0
    for t in e.generators:
        outside += t not in current
        _assert_same_walk(current, frozenset([t]))
        current = _stabilizer_of_action(current, frozenset([t]))[1]
    assert outside


def test_the_class_pass_sifts_no_schreier_generator_once_the_stabilizer_is_complete(
        monkeypatch):
    import blockscope.groups
    sifted = []   # (BSGS, its order when a Schreier generator was added)
    add = _BSGS.add
    monkeypatch.setattr(_BSGS, "add", lambda self, x, *order: sifted.append((self, self.order()))
                        or add(self, x, *order))
    walks = []
    walk = blockscope.groups._stabilizer_of_action
    monkeypatch.setattr(blockscope.groups, "_stabilizer_of_action",
                        lambda g, seed: walks.append((g, walk(g, seed))) or walks[-1][1])
    sylow_subgroup_classes(construct_group(RECIPES["K192"]), 2)
    complete = {id(stab.bsgs): g.order // len(orbit)
                for g, (orbit, stab, _) in walks if stab is not g}
    assert complete
    assert not [order for bsgs, order in sifted
                if order >= complete.get(id(bsgs), order + 1)]


@pytest.mark.parametrize("name", ["S5", "L48", "G96", "K192"])
def test_a_closure_stopped_at_the_known_order_builds_the_same_bsgs(name, monkeypatch):
    g = group(name)
    *first, last = g.generators
    h_order = PermGroup(g.degree, first).order
    sifted = []
    sift = _BSGS.sift
    monkeypatch.setattr(_BSGS, "sift", lambda self, x: sifted.append(self) or sift(self, x))
    stopped = _BSGS(g.degree, [])
    for x in first:
        stopped.add(x, h_order)
    full = _BSGS(g.degree, first)
    state = lambda b: (b.base, b.level_gens, b.inverses)
    assert stopped.order() == h_order
    assert state(stopped) == state(full)
    assert sifted.count(stopped) < sifted.count(full)   # the stop skipped sifts
    assert not any(stopped.pending)   # the pairs left are dropped
    # and the BSGS grows on as a full closure's does
    stopped.add(last)
    full.add(last)
    assert state(stopped) == state(full) == state(_BSGS(g.degree, g.generators))


def test_a_walk_in_a_group_over_the_order_cap_is_refused():
    s10 = construct_group(symmetric(10))
    with pytest.raises(CapExceeded, match="exceeds cap"):
        sylow_subgroup(s10, 2)


# -- Sylow subgroups


@pytest.mark.parametrize("name,p,order", [
    ("S4", 2, 8), ("A4", 2, 4), ("S4", 3, 3), ("S5", 2, 8), ("G96", 2, 32),
    ("S6", 2, 16), ("S6", 3, 9),
])
def test_sylow_orders(name, p, order):
    g = group(name)
    s = sylow_subgroup(g, p)
    assert s.order == order
    assert s.is_p_group(p)


_DEGREE_9_RECIPES = st.one_of(
    _SMALL_RECIPES, st.just(symmetric(5)),
    st.builds(direct, _SMALL_RECIPES, _SMALL_RECIPES),
    st.builds(wreath, st.sampled_from([cyclic(2), cyclic(3), symmetric(3)]),
              st.sampled_from([cyclic(2), cyclic(3)])))


@settings(max_examples=25, deadline=None)
@given(_DEGREE_9_RECIPES, st.data())
def test_sylow_derived_and_normal_closure_orders_match_sympy(recipe, data):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    g = construct_group(recipe)
    assume(g.degree <= 9)
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(x.images)) for x in g.generators])
    x = data.draw(st.sampled_from(g.elements()))
    for p in (2, 3):
        # grown from <x_p>, x_p the p-part of x, a Sylow subgroup contains it
        start = g.subgroup([x ** (x.order() // p_part(x.order(), p))])
        grown = sylow_subgroup(g, p, start)
        assert all(y in grown for y in start.generators)
        for sylow in (sylow_subgroup(g, p), grown):
            assert sylow.order == theirs.sylow_subgroup(p).order()
            assert sylow.is_p_group(p) and all(y in g for y in sylow.generators)
    assert derived_subgroup(g).order == theirs.derived_subgroup().order()
    seeds = data.draw(st.lists(st.sampled_from(g.elements()), min_size=1, max_size=2))
    closure = theirs.normal_closure(combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(x.images)) for x in seeds]))
    assert normal_closure(g, seeds).order == closure.order()


def test_sylow_a4_elementary_abelian():
    s = sylow_subgroup(group("A4"), 2)
    assert abelian_invariants(s) == (2, 2)


def test_sylow_g96_is_rank2_wreath_shape():
    s = sylow_subgroup(group("G96"), 2)
    w = sylow_subgroup(group("Z4wrZ2"), 2)
    assert s.order == 32
    assert subgroup_fingerprint(s) == subgroup_fingerprint(w)


def _climb_sylow(g, p):
    """The former construction, kept as an oracle: from the trivial group,
    add the first p-element of N_g(s) outside s, every normalizer taken in g."""
    target = p_part(g.order, p)
    s = g.subgroup([])
    while s.order < target:
        n = normalizer(g, s) if s.order > 1 else g
        z = next(xp for xp in (x ** (x.order() // p_part(x.order(), p))
                               for x in n.elements()) if xp not in s)
        s = g.subgroup(list(s.generators) + [z])
        assert s.is_p_group(p)
    return s


def _climb_o_p(g, p):
    core = frozenset(_climb_sylow(g, p).elements())
    for x in g.elements():
        core &= frozenset(y ** x for y in core)
    return core


@pytest.mark.parametrize("name", ["D8", "Z4wrZ2"])
def test_sylow_of_a_p_group_is_the_group(name):
    g = group(name)
    assert sylow_subgroup(g, 2) is g
    assert sylow_subgroup(g, 2, g.subgroup([])) is g
    assert o_p_core(g, 2) == g.element_set()


def test_sylow_is_memoised_without_a_start():
    g = construct_group(symmetric(6))
    s = sylow_subgroup(g, 2)
    assert sylow_subgroup(g, 2) is s
    assert sylow_subgroup(g, 3) is not s
    # grown from a start, a Sylow subgroup is built afresh and not memoised
    t = g.subgroup([cyc(6, (0, 1))])
    grown = sylow_subgroup(g, 2, t)
    assert grown.order == 16 and t.generators[0] in grown
    assert sylow_subgroup(g, 2) is s


def test_radical_test_matches_the_former_climb_on_in_scope_entries():
    from blockscope.blocks import p_subgroup_classes
    from blockscope.catalog import builtin_catalog_path, load_catalog

    entries = [e for e in load_catalog(builtin_catalog_path())
               if e.expected.get("case_label") in ("P_equals_Q", "case_i", "case_ii")]
    assert len(entries) >= 8
    for entry in entries:
        g = construct_group(entry.recipe)
        sylow = sylow_subgroup(g, 2)
        for r in p_subgroup_classes(g, 2):
            n = normalizer(g, r) if r.order > 1 else g
            core = o_p_core(n, 2, start=normalizer(sylow, r))
            assert core == o_p_core(n, 2)
            assert len(core) == len(_climb_o_p(n, 2)), (entry.name, r.order)


# -- O^p


def test_o2_s4_is_a4():
    s4 = group("S4")
    n = o_p_residual(s4, 2)
    assert n.order == 12
    assert cyc(4, (0, 1, 2)) in n


def test_o2_a4_is_a4():
    assert o_p_residual(group("A4"), 2).order == 12


def test_o2_cyclic4_trivial():
    from blockscope.recipes import construct_group, cyclic
    z4 = construct_group(cyclic(4))
    assert o_p_residual(z4, 2).order == 1


def test_o_p_residual_properties():
    for name, p in [("S4", 2), ("S4", 3), ("G96", 2), ("S3xS3", 2), ("F56", 2)]:
        g = group(name)
        n = o_p_residual(g, p)
        index = g.order // n.order
        while index % p == 0:
            index //= p
        assert index == 1, "quotient must be a p-group"
        assert o_p_residual(n, p).order == n.order, "idempotence"
        # minimality below the oracle cap: no p'-element survives outside
        if g.order <= ORACLE_CAP:
            for x in g.elements():
                o = x.order()
                if o % p != 0:
                    assert x in n


def _pprime_part(x, p):
    """x^(a t), a the p-part of x's order m a and a t = 1 mod m: the generator
    of the p'-part of <x>."""
    n = x.order()
    a = p_part(n, p)
    if n == a:
        return Perm.identity(x.degree)
    return x ** (a * pow(a, -1, n // a))


def _o_p_residual_by_scan(g, p):
    """O^p(g) by an element scan: the normal closure of the p'-parts of the
    generators, grown by a p'-part found outside it until the index is a
    power of p."""
    n = normal_closure(g, [_pprime_part(x, p) for x in g.generators])
    while p_part(g.order // n.order, p) != g.order // n.order:
        missed = next(y for y in (_pprime_part(x, p) for x in g.elements()) if y not in n)
        n = normal_closure(g, list(n.generators) + [missed])
    return n


@pytest.mark.parametrize("name, p", [("S4", 2), ("S5", 2), ("L48", 2), ("G96", 2),
                                     ("K192", 2), ("F56", 2), ("S4", 3), ("A5", 5)])
def test_o_p_residual_matches_the_element_scan(name, p):
    g = group(name)
    assert o_p_residual(g, p).element_set() == _o_p_residual_by_scan(g, p).element_set()


# -- subgroup conjugacy


def test_conjugate_klein_subgroups():
    s4 = group("S4")
    a = s4.subgroup([cyc(4, (0, 1)), cyc(4, (2, 3))])
    b = s4.subgroup([cyc(4, (0, 2)), cyc(4, (1, 3))])
    classes = sylow_subgroup_classes(s4, 2)
    assert classes.index_of(a) == classes.index_of(b)
    assert brute_conjugator(s4, a, b) is not None


def test_nonconjugate_klein_subgroups():
    s4 = group("S4")
    v4 = s4.subgroup([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    other = s4.subgroup([cyc(4, (0, 1)), cyc(4, (2, 3))])
    classes = sylow_subgroup_classes(s4, 2)
    assert classes.index_of(v4) != classes.index_of(other)
    assert brute_conjugator(s4, v4, other) is None


def test_a_subgroup_with_no_class_is_an_internal_inconsistency():
    s4 = group("S4")
    a4 = s4.subgroup([cyc(4, (0, 1, 2)), cyc(4, (1, 2, 3))])   # not a 2-subgroup
    with pytest.raises(InternalInconsistency, match="no enumerated p-subgroup class"):
        sylow_subgroup_classes(s4, 2).index_of(a4)


_RECORD_CASES = [("S4", 2), ("S4", 3), ("A5", 2), ("L48", 2), ("S3xS3", 3), ("G96", 2)]


@pytest.mark.parametrize("name,p", [("S4", 2), ("S4", 3), ("A5", 2), ("L48", 2),
                                    ("S3xS3", 3)])
def test_transporter_agrees_with_brute_force(name, p):
    """Two p-subgroups share a class label exactly when the brute-force
    transporter finds an element that conjugates one onto the other."""
    g = group(name)
    x = g.generators[-1] * g.generators[0]
    classes = sylow_subgroup_classes(g, p)
    targets = list(classes.reps) + [g.subgroup([t ** x for t in r.generators])
                                    for r in classes.reps]
    for a in classes.reps:
        for b in targets:
            same = classes.class_of[a.element_set()] == classes.class_of[b.element_set()]
            assert same == (brute_conjugator(g, a, b) is not None)


@pytest.mark.parametrize("name,p", _RECORD_CASES)
def test_class_of_labels_every_conjugate_of_every_subgroup_of_the_sylow(name, p):
    g = group(name)
    classes = sylow_subgroup_classes(g, p)
    orbits = {}   # class index -> the orbit of its representative's element set
    for i, r in enumerate(classes.reps):
        assert classes.class_of[r.element_set()] == i
        orbits[i] = _conjugation_orbit(g, r.element_set())
    for s in _subgroups_of_p_group(sylow_subgroup(g, p), p):
        i = classes.class_of[s]
        assert s in orbits[i]
        assert all(classes.class_of[t] == i for t in _conjugation_orbit(g, s))
    assert set(classes.class_of) == set().union(*orbits.values())


@pytest.mark.parametrize("name,p", _RECORD_CASES)
def test_leq_is_containment_of_some_conjugate(name, p):
    """`below(a, b)` is containment of some conjugate: some conjugate of
    reps[a] lies in reps[b]."""
    g = group(name)
    classes = sylow_subgroup_classes(g, p)
    sets = [r.element_set() for r in classes.reps]
    for a, sa in enumerate(sets):
        orbit = _conjugation_orbit(g, sa)
        assert [classes.below(a, b) for b in range(len(sets))] == [
            any(t <= sb for t in orbit) for sb in sets]


@pytest.mark.parametrize("name,p", _RECORD_CASES)
def test_members_are_the_conjugates_inside_the_sylow(name, p):
    g = group(name)
    pset = sylow_subgroup(g, p).element_set()
    classes = sylow_subgroup_classes(g, p)
    for r, members in zip(classes.reps, classes.members):
        inside = {t for t in _conjugation_orbit(g, r.element_set()) if t <= pset}
        assert [m.element_set() for m in members] == sorted(
            inside, key=lambda t: sorted(x.images for x in t))
        for m in members:
            assert PermGroup(g.degree, m.generators).element_set() == m.element_set()


@pytest.mark.parametrize("name,p", _RECORD_CASES + [("K192", 2), ("W384", 2)])
def test_classes_are_ordered_by_the_least_sorted_images_over_the_class(name, p):
    g = group(name)
    keys = [(r.order, min(tuple(sorted(x.images for x in t))
                          for t in _conjugation_orbit(g, r.element_set())))
            for r in sylow_subgroup_classes(g, p).reps]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name,p", _RECORD_CASES + [("K192", 2)])
def test_each_representative_is_its_first_member_handle(name, p):
    classes = sylow_subgroup_classes(group(name), p)
    assert len(classes.reps) == len(classes.members)
    assert all(r is m[0] for r, m in zip(classes.reps, classes.members))


@pytest.mark.parametrize("name,p", _RECORD_CASES)
def test_representatives_read_their_order_and_elements_from_the_members(name, p):
    """Every member handle, each representative among them, knows its order
    and element set from the enumeration, and reading them builds no BSGS."""
    g = construct_group(RECIPES[name])
    classes = sylow_subgroup_classes(g, p)
    for members in classes.members:
        for m in members:
            assert m.order == len(m.element_set())
            assert m._bsgs is None   # neither read built a BSGS


# -- subgroup enumeration


def test_subgroup_classes_d8_in_s4():
    s4 = group("S4")
    classes = sylow_subgroup_classes(s4, 2).reps
    assert [c.order for c in classes] == [1, 2, 2, 4, 4, 4, 8]
    # ten subgroups in total, fused to seven classes under S4
    d8 = sylow_subgroup(s4, 2)
    classes_in_d8 = sylow_subgroup_classes(d8, 2).reps
    assert len(classes_in_d8) == 8   # D8-conjugacy is finer
    assert len({c.element_set() for c in classes_in_d8}) == 8
    assert len(_subgroups_of_p_group(d8, 2)) == 10


def test_subgroup_classes_v4_in_a4():
    classes = sylow_subgroup_classes(group("A4"), 2).reps
    assert [c.order for c in classes] == [1, 2, 4]


def test_subgroup_classes_trivial():
    z3 = group("A4").subgroup([cyc(4, (0, 1, 2))])   # its Sylow 2-subgroup is trivial
    assert [c.order for c in sylow_subgroup_classes(z3, 2).reps] == [1]


def _elementary(rank):
    recipe = cyclic(2)
    for _ in range(rank - 1):
        recipe = direct(recipe, cyclic(2))
    return construct_group(recipe)


@pytest.mark.parametrize("name,build,count", [
    ("D8", lambda: group("D8"), 10),
    ("Q8", lambda: PermGroup(8, [cyc(8, (0, 1, 2, 3), (4, 5, 6, 7)),
                                 cyc(8, (0, 4, 2, 6), (1, 7, 3, 5))]), 6),
    ("Z2^3", lambda: _elementary(3), 16),
    ("Z4xZ2", lambda: construct_group(direct(cyclic(4), cyclic(2))), 8),
    ("Z4xZ4", lambda: construct_group(direct(cyclic(4), cyclic(4))), 15),
    ("D16", lambda: PermGroup(8, [cyc(8, (0, 1, 2, 3, 4, 5, 6, 7)),
                                  cyc(8, (1, 7), (2, 6), (3, 5))]), 19),
    ("Z2^4", lambda: _elementary(4), 67),
])
def test_subgroup_enumeration_counts(name, build, count):
    pgrp = build()
    assert pgrp.is_p_group(2)
    subgroups = _subgroups_of_p_group(pgrp, 2)
    assert len(subgroups) == len(set(subgroups)) == count
    for s in subgroups:
        assert all(x * y in s for x in s for y in s)


def _perm_subgroups(pgrp, p):
    """Oracle: the maximal-extension enumeration on Perm objects."""
    elements = [(x, x.inverse(), x ** p) for x in pgrp.elements()]
    trivial = frozenset([pgrp.identity])
    gens_of = {trivial: ()}
    layer = [trivial]
    size = 1
    while size < pgrp.order:
        nxt = []
        for hset in layer:
            gens = gens_of[hset]
            covered = set(hset)
            for x, x_inv, x_p in elements:
                if x in covered or x_p not in hset:
                    continue
                if any(x_inv * y * x not in hset for y in gens):
                    continue
                new = set(hset)
                y = x
                while y not in new:
                    new.update(c * y for c in hset)
                    y = y * x
                covered |= new
                fz = frozenset(new)
                if fz not in gens_of:
                    gens_of[fz] = gens + (x,)
                    nxt.append(fz)
        if not nxt:
            break
        layer = nxt
        size *= p
    return {s: gens_of[s] for s in
            sorted(gens_of, key=lambda s: (len(s), sorted(x.images for x in s)))}


@pytest.mark.parametrize("name", ["S4", "G96", "K192", "W384", "L48xZ2"])
def test_the_table_enumeration_matches_the_perm_enumeration(name):
    """Same subgroups, in the same order, with the same generator tuples."""
    pgrp = sylow_subgroup(construct_group(RECIPES[name]), 2)
    got = _subgroups_of_p_group(pgrp, 2)
    assert list(got.items()) == list(_perm_subgroups(pgrp, 2).items())


def test_bsgs_stores_inverse_transversals():
    """Each level's transversal is held once, as u^-1: v = u^-1 maps its
    orbit point back to the base point."""
    for name in ("S5", "L48", "G96", "K192"):
        bsgs = group(name).bsgs
        assert len(bsgs.inverses) == len(bsgs.base)
        for b, inverses in zip(bsgs.base, bsgs.inverses):
            assert inverses[b].is_identity()
            for pt, v in inverses.items():
                assert v(pt) == b


@pytest.mark.parametrize("name", ["S5", "L48", "G96", "K192"])
def test_every_schreier_generator_fixes_the_base_through_its_level(name, monkeypatch):
    """The closure forms u_pt g u_(g pt)^-1 from the stored u^-1 alone:
    each one it sifts fixes b_1, ..., b_i for the level i of its pair."""
    import sys
    sifted = []   # (Schreier generator, the base points it must fix)
    sift = _BSGS.sift

    def recording_sift(self, x):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_close":
            sifted.append((x, self.base[:caller.f_locals["level"] + 1]))
        return sift(self, x)

    monkeypatch.setattr(_BSGS, "sift", recording_sift)
    g = group(name)
    _BSGS(g.degree, g.generators)
    assert sifted
    assert all(x(b) == b for x, fixed in sifted for b in fixed)


def _elements_by_recursion(bsgs):
    """The element enumeration as one Perm product per element: level by
    level, each transversal in point order, the first level varying slowest."""
    transversals = [[v.inverse() for _, v in sorted(inverses.items())]
                    for inverses in bsgs.inverses]

    def rec(level):
        if level == len(bsgs.base):
            yield bsgs.identity
            return
        for u in transversals[level]:
            for h in rec(level + 1):
                yield h * u

    return list(rec(0))


ENUMERATED = {
    "trivial": lambda: PermGroup(3, []),          # empty base
    "Z2": lambda: PermGroup(2, [cyc(2, (0, 1))]),  # one level
    "S5": lambda: group("S5"),
    "A8": lambda: construct_group(alternating(8)),
    "Z4wrZ4": lambda: construct_group(wreath(cyclic(4), cyclic(4))),
    "11 transpositions": lambda: PermGroup(64, [cyc(64, (2 * t, 2 * t + 1))
                                                for t in range(11)]),
}


@pytest.mark.parametrize("name", ENUMERATED)
def test_element_blocks_match_the_recursive_enumeration(name):
    g = ENUMERATED[name]()
    got = list(g.elements())
    assert got == _elements_by_recursion(g.bsgs)
    assert g.bsgs.element_images().tolist() == [list(x.images) for x in got]
    assert len(got) == len(set(got)) == g.order
    assert all(type(x.images) is tuple and type(x.images[0]) is int for x in got)


def test_element_blocks_cover_an_empty_base_and_a_single_level():
    assert [len(ENUMERATED[name]().bsgs.base) for name in ("trivial", "Z2")] == [0, 1]


# -- incremental Schreier-Sims against sympy


def _perm_lists(max_degree=9, max_gens=4):
    return st.integers(1, max_degree).flatmap(lambda n: st.tuples(
        st.lists(st.permutations(range(n)), min_size=0, max_size=max_gens),
        st.lists(st.permutations(range(n)), min_size=1, max_size=6)))


@settings(max_examples=60, deadline=None)
@given(_perm_lists())
def test_bsgs_matches_sympy(case):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens, probes = case
    degree = len(probes[0])
    ours = _BSGS(degree, [Perm(tuple(g)) for g in gens])
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in gens] or
        [combinatorics.Permutation(list(range(degree)))])
    assert ours.order() == theirs.order()
    for x in probes:
        assert ours.contains(Perm(tuple(x))) == theirs.contains(
            combinatorics.Permutation(list(x)))
    for inverses in ours.inverses:
        for v in inverses.values():
            u = v.inverse()
            assert theirs.contains(combinatorics.Permutation(list(u.images)))


class _CountingBSGS(_BSGS):
    """Records every Schreier pair queued, as (level, point, generator)."""

    def __init__(self, degree, gens):
        self.queued = []
        super().__init__(degree, gens)

    def _extend_orbit(self, level, g, g_inv):
        before = len(self.pending[level])
        super()._extend_orbit(level, g, g_inv)
        self.queued.extend((level, pt, h) for pt, h in self.pending[level][before:])


@settings(max_examples=40, deadline=None)
@given(_perm_lists(max_gens=5))
def test_bsgs_grown_one_add_at_a_time_agrees(case):
    gens, probes = case
    degree = len(probes[0])
    gens = [Perm(tuple(g)) for g in gens]
    at_once = _BSGS(degree, gens)
    grown = _CountingBSGS(degree, [])
    for g in gens:
        grown.add(g)
        assert not any(grown.pending)
    assert grown.order() == at_once.order()
    for x in [Perm(tuple(x)) for x in probes] + gens:
        assert grown.contains(x) == at_once.contains(x)
    _assert_pairs_queued_once(grown)


def _assert_pairs_queued_once(bsgs):
    """Every Schreier pair off the orbits' spanning trees was queued, and
    so sifted, exactly once; none is left pending."""
    assert not any(bsgs.pending)
    assert len(set(bsgs.queued)) == len(bsgs.queued)
    assert len(bsgs.queued) == sum(
        len(orbit) * len(gens_at) - (len(orbit) - 1)
        for orbit, gens_at in zip(bsgs.inverses, bsgs.level_gens))


def test_bsgs_pairs_are_queued_once_on_catalog_groups():
    for name in ("S6", "G96", "K192"):
        g = group(name)
        bsgs = _CountingBSGS(g.degree, g.generators)
        assert bsgs.order() == g.order
        _assert_pairs_queued_once(bsgs)


def _brute_o_p(g, p):
    sylow = frozenset(sylow_subgroup(g, p).elements())
    core = sylow
    for x in g.elements():
        core &= frozenset(y ** x for y in sylow)
    return core


@pytest.mark.parametrize("name,p,order", [
    ("S4", 2, 4), ("A4", 2, 4), ("A5", 2, 1), ("S3xS3", 3, 9), ("S3xS3", 2, 1),
    ("L48", 2, 16), ("G96", 2, 16), ("S5", 2, 1),
])
def test_o_p_core_is_the_intersection_of_all_sylow_subgroups(name, p, order):
    g = group(name)
    core = o_p_core(g, p)
    assert core == _brute_o_p(g, p)
    assert len(core) == order


# -- fixed points of a group acting by conjugation, as centralizers


def test_fixed_points_free_action():
    l48 = group("L48")
    q = sylow_subgroup(l48, 2)
    theta = next(x for x in l48.elements() if x.order() == 3)
    actors = l48.subgroup([theta])
    assert centralizer(q, actors).order == 1


def test_fixed_points_identity_actors():
    s4 = group("S4")
    d8 = sylow_subgroup(s4, 2)
    assert centralizer(d8, s4.subgroup([])).order == 8


# -- structure helpers


def test_center_and_derived():
    d8 = group("D8")
    assert centralizer(d8, d8).order == 2
    assert derived_subgroup(group("S4")).order == 12
    assert derived_subgroup(group("A4")).order == 4


def _invariants_by_element_orders(g):
    """Oracle: the elementary divisors from every element's Perm.order()."""
    orders = [x.order() for x in g.elements()]
    out = []
    for q in prime_factors(g.order):
        counts = [sum(1 for o in orders if q**i % o == 0) for i in range(nu(g.order, q) + 1)]
        lam = []
        for i in range(1, len(counts)):
            h = nu(counts[i] // counts[i - 1], q)
            lam += [0] * (h - len(lam))
            lam[:h] = [i] * h
        out.extend(q**e for e in lam)
    return tuple(sorted(out))


@pytest.mark.parametrize("name", ["W384", "K192", "Z4wrZ2", "F56", "L48xZ2"])
def test_abelian_invariants_match_the_element_orders(name):
    """Every abelian subgroup of a Sylow subgroup, at every prime of |G|."""
    g = group(name)
    for p in prime_factors(g.order):
        for s, gens in _subgroups_of_p_group(sylow_subgroup(g, p), p).items():
            h = PermGroup(g.degree, gens)
            if len(s) > 1 and h.is_abelian():
                assert abelian_invariants(h) == _invariants_by_element_orders(h)
    # the class representatives, whose rows come from their known element sets
    for r in sylow_subgroup_classes(g, 2).reps:
        if r.order > 1 and r.is_abelian():
            assert abelian_invariants(r) == _invariants_by_element_orders(
                PermGroup(g.degree, r.generators))
    for n in (1, 2, 12, 30, 64, 81):
        z = construct_group(cyclic(n))
        assert abelian_invariants(z) == _invariants_by_element_orders(z)


@pytest.mark.parametrize("name", [*RECIPES, "trivial"])
def test_element_orders_match_perm_order(name):
    """On the group, read from its image array, and on every 2-subgroup
    class representative, read from its known element set."""
    g = PermGroup(3, []) if name == "trivial" else construct_group(RECIPES[name])
    for h in (g, *sylow_subgroup_classes(g, 2).reps):
        want = sorted(x.order() for x in PermGroup(g.degree, h.generators).elements())
        assert sorted(_element_orders(h).tolist()) == want


def test_abelian_invariants():
    from blockscope.recipes import construct_group, cyclic, direct
    assert abelian_invariants(construct_group(direct(cyclic(4), cyclic(4)))) == (4, 4)
    assert abelian_invariants(construct_group(cyclic(12))) == (3, 4)
    assert abelian_invariants(construct_group(direct(cyclic(2), cyclic(6)))) == (2, 2, 3)
    with pytest.raises(NotAbelian):
        abelian_invariants(group("S4"))


def test_quotient_by_normal():
    s4 = group("S4")
    v4 = s4.subgroup([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    q = quotient_by_normal(s4, v4)
    assert q.order == 6 and not q.is_abelian()
    assert q.degree == 6          # one point per coset
    with pytest.raises(NotNormalized):
        quotient_by_normal(s4, s4.subgroup([cyc(4, (0, 1))]))


def test_same_subgroup():
    s4 = group("S4")
    a = s4.subgroup([cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))])
    b = s4.subgroup([cyc(4, (0, 2), (1, 3)), cyc(4, (0, 3), (1, 2))])
    assert same_subgroup(a, b)
