"""Character tables against independently known data.

The frozen tables below are the classical ones, written down from scratch
(permutation characters, sign twists, induction from index-2 subgroups),
not read back from the implementation.  Classes are matched by the key
(element order, class size); keys shared by two classes (algebraically
conjugate ones) are resolved by trying both assignments.
"""

import itertools

import pytest

from conftest import group
from blockscope.chartable import character_table, class_mult_coefficients
from blockscope.cyclotomic import Cyclo, zeta
from blockscope.errors import CapExceeded
from blockscope.groups import derived_subgroup

W = zeta(3)
W2 = zeta(3, 2)
PHI = 1 + zeta(5) + zeta(5, 4)        # (1 + sqrt 5) / 2
PSI = 1 + zeta(5, 2) + zeta(5, 3)    # (1 - sqrt 5) / 2

# rows: degree-first tuples, columns keyed by (element order, size)
FROZEN = {
    "S4": {
        "columns": [(1, 1), (2, 6), (2, 3), (3, 8), (4, 6)],
        "rows": [
            (1, 1, 1, 1, 1),
            (1, -1, 1, 1, -1),
            (2, 0, 2, -1, 0),
            (3, 1, -1, 0, -1),
            (3, -1, -1, 0, 1),
        ],
    },
    "A4": {
        "columns": [(1, 1), (2, 3), (3, 4), (3, 4)],
        "rows": [
            (1, 1, 1, 1),
            (1, 1, W, W2),
            (1, 1, W2, W),
            (3, -1, 0, 0),
        ],
    },
    "A5": {
        "columns": [(1, 1), (2, 15), (3, 20), (5, 12), (5, 12)],
        "rows": [
            (1, 1, 1, 1, 1),
            (3, -1, 0, PHI, PSI),
            (3, -1, 0, PSI, PHI),
            (4, 0, 1, -1, -1),
            (5, 1, -1, 0, 0),
        ],
    },
    "S5": {
        "columns": [(1, 1), (2, 10), (2, 15), (3, 20), (4, 30), (5, 24), (6, 20)],
        "rows": [
            (1, 1, 1, 1, 1, 1, 1),
            (1, -1, 1, 1, -1, 1, -1),
            (4, 2, 0, 1, 0, -1, -1),
            (4, -2, 0, 1, 0, -1, 1),
            (5, 1, 1, -1, -1, 0, 1),
            (5, -1, 1, -1, 1, 0, -1),
            (6, 0, -2, 0, 0, 1, 0),
        ],
    },
    "D8": {
        "columns": [(1, 1), (2, 1), (2, 2), (2, 2), (4, 2)],
        "rows": [
            (1, 1, 1, 1, 1),
            (1, 1, 1, -1, -1),
            (1, 1, -1, 1, -1),
            (1, 1, -1, -1, 1),
            (2, -2, 0, 0, 0),
        ],
    },
}


def _match_frozen(name):
    g = group(name)
    table = character_table(g)
    frozen = FROZEN[name]
    keys = [(c.element_order, c.size) for c in table.classes]
    assert sorted(keys) == sorted(frozen["columns"])

    # candidate column assignments: permute within groups of equal keys
    positions = {}
    for idx, key in enumerate(frozen["columns"]):
        positions.setdefault(key, []).append(idx)
    slots = {}
    for idx, key in enumerate(keys):
        slots.setdefault(key, []).append(idx)

    want_rows = {tuple(Cyclo.rational(v) if isinstance(v, int) else v for v in row)
                 for row in frozen["rows"]}

    def assignments():
        keys_unique = list(positions)
        pools = [list(itertools.permutations(positions[k])) for k in keys_unique]
        for combo in itertools.product(*pools):
            mapping = [None] * len(keys)
            for k, perm in zip(keys_unique, combo):
                for slot, col in zip(slots[k], perm):
                    mapping[slot] = col
            yield mapping

    for mapping in assignments():
        got_rows = set()
        for i in range(table.n_classes):
            row = [None] * len(keys)
            for j in range(table.n_classes):
                row[mapping[j]] = table.values[i][j]
            got_rows.add(tuple(row))
        if got_rows == want_rows:
            return
    raise AssertionError(f"no column matching reproduces the frozen {name} table")


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_tables_match_frozen_classics(name):
    _match_frozen(name)


def test_degrees():
    assert character_table(group("S4")).degrees == (1, 1, 2, 3, 3)
    assert character_table(group("A4")).degrees == (1, 1, 1, 3)
    assert sorted(character_table(group("L48")).degrees) == [1, 1, 1, 3, 3, 3, 3, 3]


def test_z4wr_z2_degree_profile():
    g = group("Z4wrZ2")
    table = character_table(g)
    assert sorted(table.degrees) == [1] * 8 + [2] * 6
    # linear character count equals the abelianization order, derived independently
    assert g.order // derived_subgroup(g).order == 8


def test_trivial_character_first():
    for name in ("S4", "A5", "G96"):
        table = character_table(group(name))
        assert table.degrees[0] == 1
        assert all(v == Cyclo.one() for v in table.values[0])


def test_inverse_class_values_are_conjugate():
    for name in ("A4", "A5", "L48", "G96"):
        table = character_table(group(name))
        for i in range(table.n_classes):
            for j in range(table.n_classes):
                assert table.values[i][table.inverse_class[j]] == \
                    table.values[i][j].conjugate()


def test_values_are_algebraic_integers():
    for name in ("S5", "L48", "Z4wrZ2"):
        table = character_table(group(name))
        assert all(v.is_integral() for row in table.values for v in row)


def test_row_orthogonality_public():
    table = character_table(group("A5"))
    n = table.group.order
    for i in range(table.n_classes):
        for j in range(table.n_classes):
            assert table.row_inner(i, j) == (n if i == j else 0)


def test_determinism():
    from blockscope.recipes import construct_group, symmetric
    t1 = character_table(construct_group(symmetric(4)))
    t2 = character_table(construct_group(symmetric(4)))
    assert t1.degrees == t2.degrees
    assert [[v.key() for v in row] for row in t1.values] == \
        [[v.key() for v in row] for row in t2.values]


def test_class_cap():
    from blockscope.recipes import construct_group, cyclic
    big = construct_group(cyclic(400))
    with pytest.raises(CapExceeded):
        character_table(big)


def test_int64_overflow_is_refused(monkeypatch):
    from blockscope import chartable
    from blockscope.recipes import construct_group, symmetric
    # five classes mod a prime near 2^31 would need sums past 2^63
    monkeypatch.setattr(chartable, "_choose_prime", lambda exponent, n: 2**31 - 1)
    monkeypatch.setattr(chartable, "_common_eigenvectors",
                        lambda *args: pytest.fail("int64 arithmetic reached unguarded"))
    with pytest.raises(CapExceeded, match="overflow"):
        character_table(construct_group(symmetric(4)))


# -- class multiplication coefficients


def test_transposition_pairs_to_identity():
    s4 = group("S4")
    cls = s4.conjugacy_classes()
    transp = next(i for i, c in enumerate(cls) if c.element_order == 2 and c.size == 6)
    assert class_mult_coefficients(s4, transp, transp, 0) == 6


def test_identity_class_unit():
    s4 = group("S4")
    r = len(s4.conjugacy_classes())
    for j in range(r):
        for k in range(r):
            assert class_mult_coefficients(s4, 0, j, k) == (1 if j == k else 0)


def test_a4_double_transposition_pairs():
    a4 = group("A4")
    cls = a4.conjugacy_classes()
    k2 = next(i for i, c in enumerate(cls) if c.element_order == 2)
    assert cls[k2].size == 3
    assert class_mult_coefficients(a4, k2, k2, 0) == 3


def test_structure_constant_identities():
    g = group("S4")
    cls = g.conjugacy_classes()
    r = len(cls)
    inv = [g.class_of(c.representative.inverse()) for c in cls]
    for i in range(r):
        for k in range(r):
            # each x in K_i pairs with exactly one y; rows sum to |K_i|
            assert sum(class_mult_coefficients(g, i, j, k) for j in range(r)) \
                == cls[i].size
    for i in range(r):
        for j in range(r):
            for k in range(r):
                # symmetric count over the triple (x, y, z with xy = z)
                assert class_mult_coefficients(g, i, j, k) * cls[k].size == \
                    class_mult_coefficients(g, inv[i], k, j) * cls[j].size


def test_table_json_shape():
    table = character_table(group("A4"))
    blob = table.to_json()
    assert blob["order"] == 12
    assert len(blob["characters"]) == 4
    assert {"conductor", "coeffs"} <= set(blob["characters"][1][2])
