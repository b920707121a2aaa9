"""Exact ordinary character tables.

The table is computed by the classical finite-field method: the class-sum
structure constants give commuting integer matrices whose simultaneous
eigenvectors over a prime field GF(ell), ell = 1 (mod exponent) and
ell^2 > 4|G|, are the central characters mod ell.  Degrees are recovered
from the orthogonality relation, and the exact cyclotomic character
values are reconstructed by discrete Fourier inversion over the power
maps, using the root-of-unity correspondence zeta_e <-> w^((ell-1)/e) for
a fixed primitive root w.

Every emitted table is verified against both orthogonality relations in
exact cyclotomic arithmetic; a failure aborts with InternalInconsistency
rather than emitting a wrong table.  Row order is deterministic: the
trivial character first, then by (degree, value fingerprint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cyclotomic import Cyclo, zeta
from .errors import CapExceeded, InternalInconsistency
from .exact import is_prime, prime_factors
from .groups import PermGroup
from .perms import Perm

__all__ = ["CharacterTable", "character_table", "class_mult_coefficients",
           "CLASS_COUNT_CAP"]

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

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_index(self, g: Perm) -> int:
        return self.group.class_of(g)

    def p_regular_indices(self, p: int) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.classes) if c.is_p_regular(p))

    def row_inner(self, i1: int, i2: int) -> Cyclo:
        """Sum over classes of |K| chi1(g) chi2(g^-1), exactly."""
        total = Cyclo.zero()
        row1 = self.values[i1]
        row2 = self.values[i2]
        for j, cls in enumerate(self.classes):
            a = row1[j]
            if a.is_zero():
                continue
            b = row2[self.inverse_class[j]]
            if b.is_zero():
                continue
            total = total + a * b * cls.size
        return total

    def verify_orthogonality(self):
        """Both orthogonality relations, exactly.

        Character values are algebraic integers, so each value is an
        integer vector in the power basis of the exponent field; products
        and sums stay integral and the check never leaves exact integer
        arithmetic.
        """
        from .cyclotomic import _power_basis_rows, _phi

        n = self.group.order
        e = self.exponent
        phi = _phi(e)
        rows = _power_basis_rows(e)
        lifted = [[[int(c) for c in v._lift(e)] for v in row] for row in self.values]

        def mul(a, b):
            conv = {}
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            conv[i + j] = conv.get(i + j, 0) + x * y
            out = [0] * phi
            for k, c in conv.items():
                row = rows[k % e]
                for t in range(phi):
                    if row[t]:
                        out[t] += c * row[t]
            return out

        zero = [0] * phi
        for i1 in range(self.n_classes):
            for i2 in range(i1, self.n_classes):
                acc = [0] * phi
                for j, cls in enumerate(self.classes):
                    a = lifted[i1][j]
                    b = lifted[i2][self.inverse_class[j]]
                    if any(a) and any(b):
                        prod = mul(a, b)
                        for t in range(phi):
                            acc[t] += cls.size * prod[t]
                want = zero if i1 != i2 else [n] + [0] * (phi - 1)
                if acc != want:
                    raise InternalInconsistency(
                        f"row orthogonality failed at characters {i1}, {i2}")
        for j1 in range(self.n_classes):
            for j2 in range(j1, self.n_classes):
                acc = [0] * phi
                for i in range(self.n_classes):
                    a = lifted[i][j1]
                    b = lifted[i][self.inverse_class[j2]]
                    if any(a) and any(b):
                        prod = mul(a, b)
                        for t in range(phi):
                            acc[t] += prod[t]
                cz = self.classes[j1].centralizer_order
                want = zero if j1 != j2 else [cz] + [0] * (phi - 1)
                if acc != want:
                    raise InternalInconsistency(
                        f"column orthogonality failed at classes {j1}, {j2}")

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


# ---------------------------------------------------------------------------
# structure constants


def _class_matrices(group: PermGroup) -> list[np.ndarray]:
    """M_i[j][k] = #{(x, y) in K_i x K_j : x y = z_k} for a fixed z_k."""
    return group._memo("class_matrices", lambda: _count_class_products(group))


def _count_class_products(group: PermGroup) -> list[np.ndarray]:
    classes = group.conjugacy_classes()
    r = len(classes)
    class_of = {x: idx for idx, c in enumerate(classes) for x in c.elements}
    reps = [c.representative for c in classes]
    mats = [np.zeros((r, r), dtype=np.int64) for _ in range(r)]
    for i, ci in enumerate(classes):
        inverses = [x.inverse() for x in ci.elements]
        for k, z in enumerate(reps):
            mi = mats[i]
            for xinv in inverses:
                j = class_of[xinv * z]
                mi[j, k] += 1
    return mats


def class_mult_coefficients(group: PermGroup, i: int, j: int, k: int) -> int:
    """a_ijk: pair count (x, y) in K_i x K_j with xy equal to a fixed z in K_k."""
    return int(_class_matrices(group)[i][j, k])


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
    # _rref_mod and the products in _common_eigenvectors hold sums of r
    # products of residues in int64
    if r * ell * ell >= 2**63:
        raise CapExceeded(f"{r} classes mod {ell} overflow int64 arithmetic")

    eigvecs = _common_eigenvectors(_class_matrices(group), r, ell)
    if len(eigvecs) != r:
        raise InternalInconsistency(
            f"expected {r} one-dimensional eigenspaces, found {len(eigvecs)}")

    inverse_class = tuple(group.class_of(c.representative.inverse()) for c in classes)
    sizes = [c.size for c in classes]
    size_inv = [pow(s % ell, -1, ell) for s in sizes]

    w = _primitive_root(ell)
    z_e = pow(w, (ell - 1) // exponent, ell)
    power_classes = [
        [group.class_of(c.representative ** s) for s in range(c.element_order)]
        for c in classes
    ]

    rows = []
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
        values = _lift_row(chi_mod, deg, classes, power_classes, exponent, z_e, ell)
        rows.append((deg, values))

    rows = _sort_rows(rows, r)
    degrees = tuple(deg for deg, _ in rows)
    values = tuple(tuple(vals) for _, vals in rows)

    if sum(d * d for d in degrees) != n:
        raise InternalInconsistency("degree squares do not sum to the group order")
    for row in values:
        for v in row:
            if not v.is_integral():
                raise InternalInconsistency("character value is not an algebraic integer")
    table = CharacterTable(group=group, classes=classes, degrees=degrees,
                           values=values, exponent=exponent,
                           inverse_class=inverse_class)
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


def _common_eigenvectors(mats, r: int, ell: int):
    """Split GF(ell)^r into common eigenlines of the class matrices.

    Subspaces are stored as rref row-basis matrices; each class matrix
    refines every subspace of dimension > 1 into eigenspaces of its
    restriction (acting on row vectors by M^T).
    """
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
            rb, pivots = _rref_mod(b.copy(), ell)
            # restriction A with A @ b = b @ M^T (read off pivot columns of rref basis);
            # eigen-rows c of the restriction satisfy c A = lambda c, i.e. lie in the
            # kernel of (A^T - lambda I)
            a = bm[:, pivots] % ell
            at = a.T % ell
            remaining = d
            for lam in range(ell):
                if remaining == 0:
                    break
                ker = _nullspace_mod((at - lam * np.eye(d, dtype=np.int64)) % ell, ell)
                if ker.shape[0] == 0:
                    continue
                sub = (ker @ b) % ell
                sub, _ = _rref_mod(sub, ell)
                new_spaces.append(sub)
                remaining -= ker.shape[0]
            if remaining != 0:  # pragma: no cover - the algebra splits over GF(ell)
                raise InternalInconsistency("eigen decomposition did not split")
        spaces = new_spaces
    return [b[0] % ell for b in spaces]


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


def _lift_row(chi_mod, deg, classes, power_classes, exponent, z_e, ell):
    """Exact values from mod-ell data: root-of-unity multiplicities per class."""
    values = []
    for j, cls in enumerate(classes):
        e_j = cls.element_order
        if e_j == 1:
            values.append(Cyclo.rational(deg))
            continue
        z_j = pow(z_e, exponent // e_j, ell)
        z_j_inv = pow(z_j, -1, ell)
        e_j_inv = pow(e_j, -1, ell)
        pows = power_classes[j]
        mult = {}
        total = 0
        for t in range(e_j):
            acc = 0
            for s in range(e_j):
                acc = (acc + chi_mod[pows[s]] * pow(z_j_inv, (s * t) % e_j, ell)) % ell
            mu = (acc * e_j_inv) % ell
            if mu > deg:
                raise InternalInconsistency("eigenvalue multiplicity exceeds the degree")
            if mu:
                mult[t] = mu
                total += mu
        if total != deg:
            raise InternalInconsistency("multiplicities do not sum to the degree")
        values.append(Cyclo.from_exponents(e_j, mult))
    return values


def _sort_rows(rows, r):
    def fingerprint(vals):
        return tuple(v.key() for v in vals)

    trivial = None
    rest = []
    one = Cyclo.one()
    for deg, vals in rows:
        if deg == 1 and trivial is None and all(v == one for v in vals):
            trivial = (deg, vals)
        else:
            rest.append((deg, vals))
    if trivial is None:
        raise InternalInconsistency("trivial character missing from the table")
    rest.sort(key=lambda row: (row[0], fingerprint(row[1])))
    return [trivial] + rest
