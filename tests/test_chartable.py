"""Character tables against independently known data.

The frozen tables below are the classical ones, written down from scratch
(permutation characters, sign twists, induction from index-2 subgroups),
not read back from the implementation.  Classes are matched by the key
(element order, class size); keys shared by two classes (algebraically
conjugate ones) are resolved by trying both assignments.
"""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import RECIPES, derived_subgroup, group, sympy_rref, table_value
from blockscope import chartable, exact
from blockscope.chartable import (_charpoly_mod, _choose_prime, _class_matrices,
                                  _class_matrix, _common_eigenvectors, character_table)
from blockscope.cyclotomic import Cyclo, _phi, _power_basis_rows, zeta
from blockscope.errors import CapExceeded, InternalInconsistency
from blockscope.exact import _nullspace_mod, _rref_mod
from blockscope.recipes import (alternating, construct_group, cyclic, direct, symmetric,
                                wreath)

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

    want_rows = {tuple(Cyclo.integer(v) if isinstance(v, int) else v for v in row)
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
                row[mapping[j]] = table_value(table, i, j)
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
        assert all(table_value(table, 0, j) == Cyclo.one() for j in range(table.n_classes))


def _conjugate(v):
    """The complex conjugate: zeta_m^k -> zeta_m^-k on every term."""
    return Cyclo.from_exponents(v.m, {(-k) % v.m: c for k, c in enumerate(v.coeffs)})


def test_inverse_class_values_are_conjugate():
    for name in ("A4", "A5", "L48", "G96"):
        table = character_table(group(name))
        for i in range(table.n_classes):
            for j in range(table.n_classes):
                assert table_value(table, i, table.inverse_class[j]) == \
                    _conjugate(table_value(table, i, j))


TABLES_WORKLOAD = {
    "S7": symmetric(7), "A8": alternating(8), "A5xA5": direct(alternating(5), alternating(5)),
    "Z4wrZ4": wreath(cyclic(4), cyclic(4)), "Z8wrZ2": wreath(cyclic(8), cyclic(2)),
}


@pytest.mark.parametrize("name", sorted(RECIPES) + sorted(TABLES_WORKLOAD))
def test_inverse_class_is_the_class_of_each_inverted_representative(name):
    """The power map's last entry, z^(o - 1) = z^-1, names the inverse class."""
    g = group(name) if name in RECIPES else construct_group(TABLES_WORKLOAD[name])
    table = character_table(g)
    assert list(table.inverse_class) == g.classes_of(
        [c.representative.inverse() for c in table.classes]).tolist()


def test_values_are_algebraic_integers():
    for name in ("S5", "L48", "Z4wrZ2"):
        table = character_table(group(name))
        # integer coordinates in the power basis, an integral basis
        assert table.coords.dtype == np.int64
        assert table.coords.shape == (table.n_classes, table.n_classes, _phi(table.exponent))


def _row_inner(table, i1, i2):
    """Sum over classes of |K| chi1(g) chi2(g^-1), exactly: the oracle for
    the row relation that verify_orthogonality checks in array form."""
    total = Cyclo.zero()
    for j, cls in enumerate(table.classes):
        total = total + (table_value(table, i1, j) * table_value(table, i2, table.inverse_class[j])
                         * cls.size)
    return total


def test_row_orthogonality_public():
    table = character_table(group("A5"))
    n = table.group.order
    for i in range(table.n_classes):
        for j in range(table.n_classes):
            assert _row_inner(table, i, j) == (n if i == j else 0)


def test_determinism():
    from blockscope.recipes import construct_group, symmetric
    t1 = character_table(construct_group(symmetric(4)))
    t2 = character_table(construct_group(symmetric(4)))
    assert t1.degrees == t2.degrees
    assert np.array_equal(t1.coords, t2.coords)
    assert t1.to_json() == t2.to_json()


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


def class_mult_coefficients(group, i, j, k):
    """a_ijk: pair count (x, y) in K_i x K_j with xy equal to a fixed z in K_k."""
    return int(_class_matrix(group, i)[j, k])


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


# -- the eigenvalue search


@pytest.mark.parametrize("ell", [2, 97, 421])
def test_charpoly_matches_sympy(ell):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(ell)
    for d in range(1, 21):
        for density in (1.0, 0.3, 0.0):
            # sparse matrices take the Hessenberg pivot swap and skip branches
            a = [[rng.randrange(-50, 50) if rng.random() < density else 0
                  for _ in range(d)] for _ in range(d)]
            want = [int(c) % ell for c in reversed(sympy.Matrix(a).charpoly(x).all_coeffs())]
            got = _charpoly_mod(np.array(a, dtype=np.int64), ell)
            assert [int(c) for c in got] == want, (d, density, a)


def _common_eigenvectors_by_scan(mats, r, ell):
    """The eigenvalue search as a scan over every lambda in GF(ell): the
    reference the characteristic-polynomial roots must reproduce."""
    spaces = [np.eye(r, dtype=np.int64)]
    for mi in mats[1:]:
        if all(b.shape[0] == 1 for b in spaces):
            break
        mt = mi.T % ell
        new_spaces = []
        for b in spaces:
            d = b.shape[0]
            if d == 1:
                new_spaces.append(b)
                continue
            bm = (b @ mt) % ell
            _, pivots = _rref_mod(b.copy(), ell)
            at = bm[:, pivots].T % ell
            remaining = d
            for lam in range(ell):
                if remaining == 0:
                    break
                ker, _ = _nullspace_mod((at - lam * np.eye(d, dtype=np.int64)) % ell, ell)
                if ker.shape[0] == 0:
                    continue
                sub, _ = _rref_mod((ker @ b) % ell, ell)
                new_spaces.append(sub)
                remaining -= ker.shape[0]
            assert remaining == 0
        spaces = new_spaces
    return [b[0] % ell for b in spaces]


SCANNED = {"A5xZ2": direct(alternating(5), cyclic(2)),
           # 44 classes; most class matrices act as scalars on most subspaces
           "Z8wrZ2": wreath(cyclic(8), cyclic(2))}


@pytest.mark.parametrize("name", ["S4", "A5", "L48", "Z4wrZ2", "A5xZ2", "Z8wrZ2"])
def test_eigenlines_match_the_lambda_scan(name):
    g = construct_group(SCANNED[name]) if name in SCANNED else group(name)
    table = character_table(g)
    r = table.n_classes
    ell = _choose_prime(table.exponent, g.order)
    mats = _class_matrices(g)
    got = _common_eigenvectors(lambda i, rows: mats[i], r, ell)
    want = _common_eigenvectors_by_scan(mats, r, ell)
    assert [v.tolist() for v in got] == [v.tolist() for v in want]
    assert len(got) == r


@st.composite
def _matrices_mod(draw):
    """(a, ell): up to 12 x 12, of a drawn rank, with some columns zeroed."""
    ell = draw(st.sampled_from([2, 97, 421]))
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    rank = draw(st.integers(0, min(rows, cols)))
    entries = st.integers(-ell, ell)
    left = draw(st.lists(entries, min_size=rows * rank, max_size=rows * rank))
    right = draw(st.lists(entries, min_size=rank * cols, max_size=rank * cols))
    a = (np.array(left, dtype=np.int64).reshape(rows, rank)
         @ np.array(right, dtype=np.int64).reshape(rank, cols))
    a[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols)) if cols else []] = 0
    return a, ell


@settings(max_examples=300, deadline=None)
@given(_matrices_mod())
def test_rref_mod_matches_the_exact_elimination(case):
    a, ell = case
    got, pivots = _rref_mod(a.copy(), ell)
    want, want_pivots = sympy_rref(a, ell)
    assert pivots == want_pivots
    assert got.tolist() == [list(row) for row in want]


@settings(max_examples=300, deadline=None)
@given(_matrices_mod())
def test_nullspace_mod_is_an_rref_kernel(case):
    a, ell = case
    ker, free = _nullspace_mod(a, ell)
    pivots = sympy_rref(a, ell)[1]
    # the exact dimension, and every row in the kernel
    assert ker.shape == (a.shape[1] - len(pivots), a.shape[1])
    assert not (a @ ker.T % ell).any()
    # the identity on the columns that are not pivots of the rref
    assert free == [c for c in range(a.shape[1]) if c not in pivots]
    assert ker[:, free].tolist() == np.eye(len(free), dtype=np.int64).tolist()


# -- the orthogonality check


def _flipped_sign_table():
    """S4's table with the sign character's value at the transpositions
    negated: its norm is unchanged, its product with the trivial row is not."""
    table = character_table(group("S4"))
    sign = next(i for i in range(table.n_classes)
                if table.degrees[i] == 1 and i != 0)
    j = next(j for j in range(table.n_classes)
             if table_value(table, sign, j) == Cyclo.integer(-1))
    coords = table.coords.copy()
    coords[sign, j] = -coords[sign, j]
    return dataclasses.replace(table, coords=coords), sign


def test_a_flipped_value_fails_row_orthogonality():
    table, sign = _flipped_sign_table()
    with pytest.raises(InternalInconsistency,
                       match=f"row orthogonality failed at characters 0, {sign}"):
        table.verify_orthogonality()
    # the JSON is derived from the same coordinates, so it shows the flip
    assert table.to_json() != character_table(group("S4")).to_json()


def test_a_missing_character_fails_column_orthogonality():
    # for a square table the row relation implies the column relation, so a
    # single changed value always fails the row check first; a table that
    # lacks a character keeps its rows orthonormal and fails only the columns
    table = character_table(group("A5"))
    short = dataclasses.replace(table, degrees=table.degrees[:-1],
                                coords=table.coords[:-1])
    with pytest.raises(InternalInconsistency,
                       match="column orthogonality failed at classes 0, 0"):
        short.verify_orthogonality()


def _gram(a, b, fold):
    """g[x, y] = sum_j a[x, j] * b[y, j] for power-basis coordinates a[x, j, t]:
    convolutions in the coordinate index, folded back by the rows of fold."""
    nx, m, phi = a.shape
    ny = b.shape[0]
    conv = np.zeros((nx, ny, 2 * phi - 1), dtype=a.dtype)
    right = b.transpose(1, 0, 2).reshape(m, ny * phi)
    for t in np.flatnonzero(a.any(axis=(0, 1))):
        conv[:, :, t:t + phi] += (a[:, :, t] @ right).reshape(nx, ny, phi)
    return conv @ fold


def _coordinate_gram_verdict(table, dtype):
    """The oracle: both relations as exact products of coordinate vectors,
    in dtype (np.int64 or Python integers), every Gram entry compared
    coordinate by coordinate; the first failing pair's message, or None."""
    n = table.group.order
    e = table.exponent
    phi = _phi(e)
    fold = np.array([_power_basis_rows(e)[s % e] for s in range(2 * phi - 1)], dtype=dtype)
    values = table.coords.astype(dtype)
    conj = values[:, list(table.inverse_class)]
    sizes = np.array([c.size for c in table.classes], dtype=dtype)
    for what, gram, diag in (
            ("row orthogonality failed at characters",
             _gram(values * sizes[:, None], conj, fold), [n] * len(values)),
            ("column orthogonality failed at classes",
             _gram(values.transpose(1, 0, 2), conj.transpose(1, 0, 2), fold),
             [c.centralizer_order for c in table.classes])):
        gram[range(len(diag)), range(len(diag)), 0] -= diag
        bad = np.argwhere(gram.any(axis=2))
        if bad.size:
            return f"{what} {bad[0][0]}, {bad[0][1]}"
    return None


def _verdict(table):
    try:
        table.verify_orthogonality()
    except InternalInconsistency as err:
        return str(err)
    return None


ORACLE_TABLES = {"S7": symmetric(7), "A8": alternating(8),
                 "A5xA5": direct(alternating(5), alternating(5)),
                 "Z4wrZ4": wreath(cyclic(4), cyclic(4)), "Z8wrZ2": wreath(cyclic(8), cyclic(2))}


def _oracle_table(name):
    return character_table(construct_group(ORACLE_TABLES[name]) if name in ORACLE_TABLES
                           else group(name))


@pytest.mark.parametrize("name", sorted(RECIPES) + sorted(ORACLE_TABLES))
def test_embedding_check_agrees_with_the_coordinate_gram(name, monkeypatch):
    table = _oracle_table(name)
    chosen = {}
    embedding = chartable._embedding

    def spy(e, bits, i):
        chosen[e, bits, i] = embedding(e, bits, i)
        return chosen[e, bits, i]

    monkeypatch.setattr(chartable, "_embedding", spy)
    assert _verdict(table) is None
    for dtype in (np.int64, object):
        assert _coordinate_gram_verdict(table, dtype) is None
    # the primes and roots the check chose, against the bound as stated
    n, e, phi = table.group.order, table.exponent, _phi(table.exponent)
    rows, r = table.coords.shape[:2]
    reach = max(abs(c) for row in _power_basis_rows(e)[:2 * phi - 1] for c in row)
    bound = n * int(np.abs(table.coords).max()) ** 2 * phi * (2 * phi - 1) * reach + n
    assert bound < 2**62      # so the oracle's int64 mode is exact too
    bits = max(chartable.CLASS_COUNT_CAP, rows, r, phi).bit_length()
    assert {key[:2] for key in chosen} == {(e, bits)}
    found = [chosen[key] for key in sorted(chosen)]
    assert sorted(key[2] for key in chosen) == list(range(len(found))) and found
    assert math.prod(ell for ell, _ in found) > 2 * bound
    for ell, omega in found:
        assert ell % e == 1 and exact.is_prime(ell)
        assert max(rows, r, phi) * ell * ell < 2**63
        assert pow(omega, e, ell) == 1
        assert all(pow(omega, d, ell) != 1 for d in range(1, e) if e % d == 0)


def test_conjugations_generate_the_galois_group():
    # sigma_k sends zeta to zeta^k, so row 1 of S_k is basis row k; the
    # closure check needs the k to generate all of (Z/e)^x
    for e in range(3, 301):
        basis = _power_basis_rows(e)
        ks = [basis.index(tuple(s[1].tolist())) for s in chartable._conjugations(e)[0]]
        span = {1}
        while not {s * k % e for s in span for k in ks} <= span:
            span |= {s * k % e for s in span for k in ks}
        assert span == {k for k in range(e) if math.gcd(k, e) == 1}, e
        assert len(ks) <= len(exact.prime_factors(e)) + 1, e


def _a5_with_a_repeated_row():
    """A5's table with its second degree-3 row overwritten by the first: the
    rows are no longer closed under the sigma_k that swaps sqrt 5 and -sqrt 5."""
    table = character_table(group("A5"))
    first, second = [i for i, d in enumerate(table.degrees) if d == 3]
    coords = table.coords.copy()
    coords[second] = coords[first]
    return dataclasses.replace(table, coords=coords)


def _missing_character_table():
    table = character_table(group("A5"))
    return dataclasses.replace(table, degrees=table.degrees[:-1], coords=table.coords[:-1])


@pytest.mark.parametrize("tamper", [lambda: _flipped_sign_table()[0], _missing_character_table],
                         ids=["flipped_sign", "missing_character"])
def test_tampered_tables_fail_as_the_coordinate_gram_does(tamper):
    table = tamper()
    want = _coordinate_gram_verdict(table, np.int64)
    assert want is not None
    assert _coordinate_gram_verdict(table, object) == want
    assert _verdict(table) == want


def test_a_row_without_its_galois_conjugate_fails_the_closure_check():
    table = _a5_with_a_repeated_row()
    want = "row orthogonality failed at characters 1, 2"
    assert [_coordinate_gram_verdict(table, dtype) for dtype in (np.int64, object)] == [want] * 2
    with pytest.raises(InternalInconsistency, match="no row is a Galois conjugate of character 1"):
        table.verify_orthogonality()


def test_table_arrays_are_read_only():
    g = group("S4")
    table = character_table(g)
    coords, residues, json_before = table.coords.copy(), table.residues.copy(), table.to_json()
    with pytest.raises(ValueError):
        character_table(g).coords[1, 1, 0] = 7
    with pytest.raises(ValueError):
        character_table(g).residues[1, 1] = 7
    again = character_table(g)
    assert again is table
    assert np.array_equal(again.coords, coords) and np.array_equal(again.residues, residues)
    assert again.to_json() == json_before


# -- class matrices on demand


def _assert_pair_counts(g, mats):
    """M_i[j, k] against #{(x, y) in K_i x K_j : x y = z_k}, counted over
    every pair with a class lookup built here, not by the element index."""
    classes = g.conjugacy_classes()
    r = len(classes)
    class_of = {c.representative ** y: i for i, c in enumerate(classes) for y in g.elements()}
    reps = {c.representative: k for k, c in enumerate(classes)}
    want = np.zeros((r, r, r), dtype=np.int64)
    for x in g.elements():
        for y in g.elements():
            k = reps.get(x * y)
            if k is not None:
                want[class_of[x], class_of[y], k] += 1
    for i in range(r):
        assert mats[i].tolist() == want[i].tolist(), i


def _spy_on_row_counts(monkeypatch):
    """The list of (i, rows) that every call of the row counter appends to."""
    counted = []
    count = chartable._count_class_rows

    def spy(grp, i, rows):
        counted.append((i, rows.tolist()))
        return count(grp, i, rows)

    monkeypatch.setattr(chartable, "_count_class_rows", spy)
    return counted


@pytest.mark.parametrize("recipe", ["S5", "Z4wrZ2"])
def test_class_matrices_on_demand_match_pair_counts(monkeypatch, recipe):
    # a fresh group, so that no class matrix is memoised before the table
    g = construct_group(RECIPES[recipe])
    r = len(g.conjugacy_classes())
    counted = _spy_on_row_counts(monkeypatch)
    character_table(g)
    # the splitting reads M_1, M_2, ... in order, each counted by one call
    assert [i for i, _ in counted] == list(range(1, len(counted) + 1))
    mats = _class_matrices(g)
    assert sorted((i, j) for i, rows in counted for j in rows) == \
        [(i, j) for i in range(r) for j in range(r)]
    _assert_pair_counts(g, mats)


@pytest.mark.parametrize("recipe", ["S4", "S5", "L48", "Z4wrZ2", "G96"])
def test_each_class_matrix_row_is_counted_once(monkeypatch, recipe):
    g = construct_group(RECIPES[recipe])
    counted = _spy_on_row_counts(monkeypatch)
    character_table(g)
    _class_matrices(g)
    _class_matrices(g)
    pairs = [(i, j) for i, rows in counted for j in rows]
    assert len(pairs) == len(set(pairs))
    # the class representatives' rows are held once, as one array
    assert g._cache["representative_images"].tolist() == \
        [list(c.representative.images) for c in g.conjugacy_classes()]


@pytest.mark.parametrize("recipe, matrices, rows", [(alternating(8), 12, 58),
                                                    (wreath(cyclic(4), cyclic(4)), 73, 613)],
                         ids=["A8", "Z4wrZ4"])
def test_the_table_counts_only_the_rows_the_split_reads(monkeypatch, recipe, matrices, rows):
    # whole matrices would be 12 x 14 = 168 rows for A8, 73 x 88 = 6,424 for Z4 wr Z4
    g = construct_group(recipe)
    counted = _spy_on_row_counts(monkeypatch)
    character_table(g)
    assert len(counted) == matrices
    assert sum(len(rows) for _, rows in counted) == rows


def test_a_tampered_class_size_is_refused():
    g = construct_group(symmetric(4))
    classes, class_at = g._class_walk()
    # 8 elements of order 3, claimed to be 7: some |K_j| #{...} is not a multiple of 7
    k = next(k for k, c in enumerate(classes) if c.element_order == 3)
    g._cache["classes"] = (classes[:k] + (dataclasses.replace(classes[k], size=7),)
                           + classes[k + 1:], class_at)
    with pytest.raises(InternalInconsistency, match="not divisible"):
        _class_matrices(g)


_SMALL = st.sampled_from([cyclic(2), cyclic(3), cyclic(4), cyclic(6), symmetric(3),
                          alternating(4), symmetric(4)])


@settings(max_examples=20, deadline=None)
@given(st.one_of(_SMALL, st.builds(direct, _SMALL, st.sampled_from([cyclic(2), cyclic(3),
                                                                    symmetric(3)])),
                 st.builds(wreath, st.sampled_from([cyclic(2), cyclic(3), symmetric(3)]),
                           st.sampled_from([cyclic(2), cyclic(3)]))))
def test_class_matrices_match_pair_counts_on_drawn_groups(recipe):
    g = construct_group(recipe)
    assume(g.order <= 96)
    _assert_pair_counts(g, _class_matrices(g))


@settings(max_examples=20, deadline=None)
@given(st.one_of(_SMALL, st.builds(direct, _SMALL, st.sampled_from([cyclic(2), symmetric(3)]))),
       st.data())
def test_partial_then_full_class_matrices_match_pair_counts(recipe, data):
    g = construct_group(recipe)
    assume(g.order <= 96)
    r = len(g.conjugacy_classes())
    want = {}
    for i in data.draw(st.lists(st.integers(0, r - 1), max_size=4)):
        rows = data.draw(st.lists(st.integers(0, r - 1), max_size=r))
        want[i] = want.get(i, set()) | set(rows)
        got = chartable._class_matrix(g, i, rows)
        # rows asked for now or before are counted, the rest are still 0
        assert not got[[j for j in range(r) if j not in want[i]]].any()
    mats = _class_matrices(g)
    for i in want:
        assert mats[i] is chartable._class_matrix(g, i)
    _assert_pair_counts(g, mats)


# -- one exact form: the coordinates


def _refuse_lift(self, m):
    raise AssertionError(f"a value of conductor {self.m} was lifted to {m}")


@pytest.mark.parametrize("recipe, p", [(symmetric(4), 2), (RECIPES["L48"], 2),
                                       (direct(alternating(5), cyclic(7)), 2),
                                       (RECIPES["K192"], 3)],
                         ids=["S4", "L48", "A5xZ7", "K192"])
def test_analysis_computes_on_the_coordinates_alone(recipe, p, monkeypatch):
    # tables, blocks, weights and lower defect multiplicities of a fresh
    # group, with no per-value lift between conductors anywhere
    from blockscope.catalog import analyze_group
    monkeypatch.setattr(Cyclo, "_lift", _refuse_lift)
    assert analyze_group(construct_group(recipe), p)["invariant_suite"]


def test_table_json_is_derived_from_the_coordinates(monkeypatch):
    monkeypatch.setattr(Cyclo, "_lift", _refuse_lift)
    table = character_table(construct_group(alternating(8)))
    characters = table.to_json()["characters"]
    assert [[v["conductor"] for v in row] for row in characters][0] == [1] * table.n_classes
    assert {v["conductor"] for row in characters for v in row} == {1, 7, 15}


@pytest.mark.parametrize("name", ["S4", "A5", "L48", "Z4wrZ2", "A5xZ2", "Z8wrZ2"])
def test_canonical_forms_and_row_order_match_unique_and_key_sort(name):
    # the lexsort dedupe against np.unique, and the ranked lexsort of the
    # rows against sorting them by their values' keys
    g = construct_group(SCANNED[name]) if name in SCANNED else group(name)
    table = character_table(g)
    coords = table.coords[::-1]
    r, c, phi = coords.shape
    forms, at = chartable._canonical(table.exponent, coords)
    distinct, inverse = np.unique(coords.reshape(r * c, phi), axis=0, return_inverse=True)
    assert [f.key() for f in forms] == [Cyclo(table.exponent, v).key() for v in distinct.tolist()]
    assert at.ravel().tolist() == inverse.ravel().tolist()
    degrees = list(table.degrees[::-1])
    values = [[forms[k] for k in row] for row in at.tolist()]
    want = sorted(range(r - 1), key=lambda a: (degrees[a], tuple(v.key() for v in values[a])))
    assert chartable._row_order(degrees, coords, table.exponent) == [r - 1] + want
