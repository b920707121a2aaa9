"""Exact ordinary character tables.

The table is computed by the classical finite-field method: the class-sum
structure constants give commuting integer matrices whose simultaneous
eigenvectors over a prime field GF(ell), ell = 1 (mod exponent) and
ell^2 > 4|G|, are the central characters mod ell.  Class matrices are
counted only when the splitting reads them, and each one splits a space
by the kernels at the roots of its restriction's characteristic
polynomial, the roots found by evaluating it on all of GF(ell) at once.
A class matrix is counted by array operations on base images: products
are composed at the base points only and named by the exact element keys
of groups._ElementIndex, whose codes stay below |G| * degree, so int64
never overflows for a group the order cap admits.
Degrees are recovered from the orthogonality relation, and the exact
character values, integer vectors in the power basis of Z[zeta_e], are
reconstructed by discrete Fourier inversion over the power maps, using the
root-of-unity correspondence zeta_e <-> w^((ell-1)/e) for a fixed
primitive root w.  The table keeps ell and the values mod ell (the prime
above ell that this correspondence fixes), from which blocks takes l(b)
as a rank over GF(ell).

Every emitted table is verified against both orthogonality relations, in
full and in exact integer arithmetic on power-basis coordinates (int64
array products under an explicit bound, Python integers above it); a
failure aborts with InternalInconsistency rather than emitting a wrong
table.  Row order is deterministic: the trivial character first, then by
(degree, value fingerprint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .cyclotomic import Cyclo
from .errors import CapExceeded, InternalInconsistency
from .exact import is_prime, prime_factors
from .groups import PermGroup, _element_index
from .perms import Perm

__all__ = ["CharacterTable", "character_table", "CLASS_COUNT_CAP"]

CLASS_COUNT_CAP = 300


# ---------------------------------------------------------------------------
# dense linear algebra mod ell (int64 numpy, entries reduced)


def _rref_mod(a: np.ndarray, ell: int):
    a = a % ell
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, ell)) % ell
        for rr in range(rows):
            if rr != r and a[rr, c]:
                a[rr] = (a[rr] - int(a[rr, c]) * a[r]) % ell
        pivots.append(c)
        r += 1
    return a, pivots


def _nullspace_mod(a: np.ndarray, ell: int) -> np.ndarray:
    rows, cols = a.shape
    r, pivots = _rref_mod(a.copy(), ell)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[i, pc] = (-int(r[ri, fc])) % ell
    return basis


# ---------------------------------------------------------------------------
# table data


@dataclass(frozen=True)
class CharacterTable:
    group: PermGroup
    classes: tuple
    degrees: tuple[int, ...]
    values: tuple          # values[i][j]: Cyclo, character i at class j
    exponent: int
    inverse_class: tuple[int, ...]
    ell: int                  # the prime of the eigenvector method, ell = 1 (mod exponent)
    residues: np.ndarray = field(compare=False, repr=False)  # values mod ell, int64 r x r

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_index(self, g: Perm) -> int:
        return self.group.class_of(g)

    def p_regular_indices(self, p: int) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.classes) if c.is_p_regular(p))

    def verify_orthogonality(self):
        """Both orthogonality relations, exactly and in full.

        Character values are algebraic integers: integer vectors in the
        power basis of the exponent field.  With B the largest coordinate
        and R the largest power-basis row entry, no partial sum exceeds
        n B^2 phi (2 phi - 1) R, so below 2^62 the products run in int64
        and otherwise on Python integers.
        """
        from .cyclotomic import _power_basis_rows, _phi

        n = self.group.order
        e = self.exponent
        phi = _phi(e)
        fold = [_power_basis_rows(e)[s % e] for s in range(2 * phi - 1)]
        lifted = [[v._lift(e) for v in row] for row in self.values]
        big = max(abs(c) for row in lifted for v in row for c in v)
        reach = max(abs(c) for row in fold for c in row)
        bound = n * big * big * phi * (2 * phi - 1) * reach
        dtype = np.int64 if bound < _INT64_PRODUCT_LIMIT else object
        values = np.array(lifted, dtype=dtype)          # values[i, j, t]
        conj = values[:, list(self.inverse_class)]      # values at inverse classes
        fold = np.array(fold, dtype=dtype)
        sizes = np.array([c.size for c in self.classes], dtype=dtype)
        for what, gram, diag in (
                ("row orthogonality failed at characters",
                 _gram(values * sizes[:, None], conj, fold), [n] * len(values)),
                ("column orthogonality failed at classes",
                 _gram(values.transpose(1, 0, 2), conj.transpose(1, 0, 2), fold),
                 [c.centralizer_order for c in self.classes])):
            gram[range(len(diag)), range(len(diag)), 0] -= diag
            bad = np.argwhere(gram.any(axis=2))
            if bad.size:
                raise InternalInconsistency(f"{what} {bad[0][0]}, {bad[0][1]}")

    def to_json(self):
        return {
            "order": self.group.order,
            "classes": [
                {"representative": c.representative.cycle_string(),
                 "size": c.size, "element_order": c.element_order}
                for c in self.classes
            ],
            "degrees": list(self.degrees),
            "characters": [[v.to_json() for v in row] for row in self.values],
        }


# Partial sums of the orthogonality products stay below this in int64.
_INT64_PRODUCT_LIMIT = 2**62


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


# ---------------------------------------------------------------------------
# structure constants


def _class_matrices(group: PermGroup) -> list[np.ndarray]:
    """M_i[j][k] = #{(x, y) in K_i x K_j : x y = z_k} for a fixed z_k."""
    return [_class_matrix(group, i) for i in range(len(group.conjugacy_classes()))]


def _class_matrix(group: PermGroup, i: int) -> np.ndarray:
    """M_i alone, counted the first time it is asked for."""
    return group._memo(("class_matrix", i), lambda: _count_class_products(group, i))


def _count_class_products(group: PermGroup, i: int) -> np.ndarray:
    """M_i as an array kernel on element keys (groups._ElementIndex).

    As x runs over K_i, x^-1 runs over the inverse class, whose base images
    the index holds.  Composing them with z_k at the base points only gives
    the base images of x^-1 z_k; their keys give their classes, and counting
    the classes gives column k.  The classes k are taken a few at a time, at
    most |G| products per block, so a block is never larger than the index.
    Keys are found from codes below |G| * degree, so the int64 arithmetic
    cannot overflow.
    """
    classes, class_at = group._class_walk()
    r = len(classes)
    index = _element_index(group)
    inverses = index.images[class_at == group.class_of(classes[i].representative.inverse())]
    size, m = inverses.shape
    step = max(1, group.order // size)
    # no entry exceeds |K_i| <= |G|
    mi = np.empty((r, r), dtype=np.min_scalar_type(group.order))
    for k in range(0, r, step):
        zs = np.array([c.representative.images for c in classes[k:k + step]],
                      dtype=inverses.dtype)
        b = len(zs)
        # row s: the classes of x^-1 z_(k+s), offset by s * r so that one
        # bincount counts the whole block
        found = class_at[index.keys(zs[:, inverses].reshape(b * size, m))].reshape(b, size)
        counts = np.bincount((found + r * np.arange(b)[:, None]).ravel(), minlength=b * r)
        mi[:, k:k + b] = counts.reshape(b, r).T
    return mi


# ---------------------------------------------------------------------------
# main construction


def character_table(group: PermGroup, class_cap: int = CLASS_COUNT_CAP) -> CharacterTable:
    return group._memo("char_table", lambda: _build_table(group, class_cap))


def _build_table(group: PermGroup, class_cap: int) -> CharacterTable:
    classes = group.conjugacy_classes()
    r = len(classes)
    if r > class_cap:
        raise CapExceeded(f"{r} classes exceeds cap {class_cap}")
    n = group.order
    exponent = 1
    for c in classes:
        exponent = math.lcm(exponent, c.element_order)
    ell = _choose_prime(exponent, n)
    # _rref_mod, _charpoly_mod and the products in _common_eigenvectors hold
    # sums of at most r products of residues in int64
    if r * ell * ell >= 2**63:
        raise CapExceeded(f"{r} classes mod {ell} overflow int64 arithmetic")

    eigvecs = _common_eigenvectors(lambda i: _class_matrix(group, i), r, ell)
    if len(eigvecs) != r:
        raise InternalInconsistency(
            f"expected {r} one-dimensional eigenspaces, found {len(eigvecs)}")

    inverse_class = tuple(
        group.classes_of([c.representative.inverse() for c in classes]).tolist())
    sizes = [c.size for c in classes]
    size_inv = [pow(s % ell, -1, ell) for s in sizes]

    w = _primitive_root(ell)
    z_e = pow(w, (ell - 1) // exponent, ell)
    # power_classes[j][s] = class of z_j^s
    powers = iter(group.classes_of([c.representative ** s for c in classes
                                    for s in range(c.element_order)]).tolist())
    power_classes = [list(islice(powers, c.element_order)) for c in classes]
    # root_powers[j][k] = z_j^-k for z_j = z_e^(exponent / e_j), the root matching class j
    root_powers = [[pow(z_e, -k * (exponent // c.element_order), ell)
                    for k in range(c.element_order)] for c in classes]

    rows = []
    lifted: dict = {}   # (e_j, multiplicities) -> Cyclo, shared by this table's rows
    for v in eigvecs:
        # normalize so the identity-class entry is 1
        v = (v * pow(int(v[0]), -1, ell)) % ell
        # degree from the orthogonality relation
        s = 0
        for j in range(r):
            s = (s + int(v[j]) * int(v[inverse_class[j]]) * size_inv[j]) % ell
        d2 = (n * pow(s, -1, ell)) % ell
        deg = _sqrt_small(d2, ell, n)
        chi_mod = [(deg * int(v[j]) * size_inv[j]) % ell for j in range(r)]
        values = _lift_row(chi_mod, deg, power_classes, root_powers, ell, lifted)
        rows.append((deg, values, chi_mod))

    rows = _sort_rows(rows)
    degrees = tuple(deg for deg, _, _ in rows)
    values = tuple(tuple(vals) for _, vals, _ in rows)

    if sum(d * d for d in degrees) != n:
        raise InternalInconsistency("degree squares do not sum to the group order")
    table = CharacterTable(group=group, classes=classes, degrees=degrees,
                           values=values, exponent=exponent,
                           inverse_class=inverse_class, ell=ell,
                           residues=np.array([res for _, _, res in rows], dtype=np.int64))
    table.verify_orthogonality()
    return table


def _choose_prime(exponent: int, n: int) -> int:
    ell = exponent + 1
    while True:
        if ell * ell > 4 * n and is_prime(ell):
            return ell
        ell += exponent


def _primitive_root(ell: int) -> int:
    factors = prime_factors(ell - 1)
    for w in range(2, ell):
        if all(pow(w, (ell - 1) // q, ell) != 1 for q in factors):
            return w
    raise InternalInconsistency("no primitive root found")  # pragma: no cover


def _common_eigenvectors(class_matrix, r: int, ell: int):
    """Split GF(ell)^r into common eigenlines of the class matrices.

    Subspaces are stored as rref row-basis matrices; class_matrix(i), read
    for i = 1, 2, ... until every subspace is a line, refines every
    subspace of dimension > 1 into eigenspaces of its restriction (acting
    on row vectors by M^T).
    """
    spaces = [np.eye(r, dtype=np.int64)]
    points = np.arange(ell, dtype=np.int64)
    for i in range(1, r):
        if all(b.shape[0] == 1 for b in spaces):
            break
        mt = class_matrix(i).T.astype(np.int64) % ell   # counts come in the smallest dtype
        new_spaces = []
        for b in spaces:
            d = b.shape[0]
            if d == 1:
                new_spaces.append(b)
                continue
            bm = (b @ mt) % ell
            _, pivots = _rref_mod(b.copy(), ell)
            # restriction A with A @ b = b @ M^T (read off pivot columns of rref basis);
            # eigen-rows c of the restriction satisfy c A = lambda c, i.e. lie in the
            # kernel of (A^T - lambda I), lambda a root of the characteristic polynomial,
            # found by Horner's rule at all points of GF(ell) at once
            at = bm[:, pivots].T % ell
            value = np.zeros(ell, dtype=np.int64)
            for c in _charpoly_mod(at, ell)[::-1]:
                value = (value * points + c) % ell
            remaining = d
            for lam in np.flatnonzero(value == 0):
                ker = _nullspace_mod((at - int(lam) * np.eye(d, dtype=np.int64)) % ell, ell)
                if ker.shape[0] == 0:
                    raise InternalInconsistency("an eigenvalue has no eigenvector")
                sub, _ = _rref_mod((ker @ b) % ell, ell)
                new_spaces.append(sub)
                remaining -= ker.shape[0]
            if remaining != 0:  # pragma: no cover - the algebra splits over GF(ell)
                raise InternalInconsistency("eigen decomposition did not split")
        spaces = new_spaces
    return [b[0] % ell for b in spaces]


def _charpoly_mod(a: np.ndarray, ell: int) -> np.ndarray:
    """det(x I - a) mod ell, constant term first.

    Reduces a to upper Hessenberg form by similarity, then runs the
    recurrence of Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 2.2.9.
    """
    h = a % ell
    d = h.shape[0]
    for m in range(1, d - 1):
        nz = np.nonzero(h[m:, m - 1])[0]
        if nz.size == 0:
            continue
        piv = m + int(nz[0])
        if piv != m:
            h[[m, piv]] = h[[piv, m]]
            h[:, [m, piv]] = h[:, [piv, m]]
        u = h[m + 1:, m - 1] * pow(int(h[m, m - 1]), -1, ell) % ell
        # rows k > m lose u_k times row m; column m gains u_k times column k
        h[m + 1:] = (h[m + 1:] - np.outer(u, h[m])) % ell
        h[:, m] = (h[:, m] + h[:, m + 1:] @ u) % ell
    polys = [np.ones(1, dtype=np.int64)]
    for m in range(1, d + 1):
        prev = polys[m - 1]
        p = np.zeros(m + 1, dtype=np.int64)
        p[1:] = prev
        p[:m] -= int(h[m - 1, m - 1]) * prev
        sub = 1
        for i in range(m - 1, 0, -1):
            sub = sub * int(h[i, i - 1]) % ell
            p[:i] -= (int(h[i - 1, m - 1]) * sub % ell) * polys[i - 1]
        polys.append(p % ell)
    return polys[d]


def _sqrt_small(d2: int, ell: int, n: int) -> int:
    """The square root of d2 mod ell lying in [1, sqrt(n)]; unique as ell > 2 sqrt(n)."""
    root = None
    for cand in range(1, math.isqrt(n) + 1):
        if (cand * cand) % ell == d2:
            root = cand
            break
    if root is None:
        raise InternalInconsistency("no character degree matches the eigenvector")
    return root


def _lift_row(chi_mod, deg, power_classes, root_powers, ell, lifted):
    """Exact values from mod-ell data: root-of-unity multiplicities per class.

    `lifted` memoises each value by (e_j, multiplicities) across the rows of
    one table; most classes of a table repeat a few multiplicity patterns.
    """
    values = []
    for pows, zpow in zip(power_classes, root_powers):
        e_j = len(pows)
        if e_j == 1:
            values.append(Cyclo.integer(deg))
            continue
        e_j_inv = pow(e_j, -1, ell)
        chi_pows = [chi_mod[q] for q in pows]
        mult = {}
        total = 0
        for t in range(e_j):
            acc = sum(x * zpow[s * t % e_j] for s, x in enumerate(chi_pows))
            mu = (acc * e_j_inv) % ell
            if mu > deg:
                raise InternalInconsistency("eigenvalue multiplicity exceeds the degree")
            if mu:
                mult[t] = mu
                total += mu
        if total != deg:
            raise InternalInconsistency("multiplicities do not sum to the degree")
        key = (e_j, tuple(sorted(mult.items())))
        value = lifted.get(key)
        if value is None:
            value = lifted[key] = Cyclo.from_exponents(e_j, mult)
        values.append(value)
    return values


def _sort_rows(rows):
    """Rows (degree, values, residues): the trivial character first, then by
    (degree, value fingerprint)."""
    def fingerprint(vals):
        return tuple(v.key() for v in vals)

    trivial = None
    rest = []
    one = Cyclo.one()
    for row in rows:
        deg, vals, _ = row
        if deg == 1 and trivial is None and all(v == one for v in vals):
            trivial = row
        else:
            rest.append(row)
    if trivial is None:
        raise InternalInconsistency("trivial character missing from the table")
    rest.sort(key=lambda row: (row[0], fingerprint(row[1])))
    return [trivial] + rest
