"""Exact ordinary character tables.

The table is computed by the classical finite-field method: the class-sum
structure constants give commuting integer matrices whose simultaneous
eigenvectors over a prime field GF(ell), ell = 1 (mod exponent) and
ell^2 > 4|G|, are the central characters mod ell.  Class matrices are
counted only when the splitting reads them.  Each one splits only the
subspaces on which it does not act as a scalar (Schneider 1990), by the
kernels at the roots of its restriction's characteristic polynomial, the
roots found by evaluating it on all of GF(ell) at once, each kernel from
one elimination; a subspace is a basis that is the identity on a set of
columns.  A class matrix is counted on base images: products are composed
at the base points only and named by the element keys of
groups._ElementIndex, their coordinates in the BSGS.
Degrees are recovered from the orthogonality relation, and the exact
character values, integer vectors in the power basis of Z[zeta_e], are
reconstructed by discrete Fourier inversion over the power maps, using the
root-of-unity correspondence zeta_e <-> w^((ell-1)/e) for a fixed
primitive root w: all rows at once, one matrix product mod ell per class.
Those coordinates, CharacterTable.coords, are the table's one exact form
of its values, which blocks and classify compute on too; canonical
(minimal-conductor) forms are derived from them for the row order and the
JSON only.  The table also keeps ell and the values mod ell (the prime
above ell that the correspondence fixes), for l(b) as a rank over GF(ell).

Every emitted table is verified against both orthogonality relations,
exactly and in full: an integer check that Gal(Q(zeta_e)/Q) maps rows to
rows, then r x r int64 products mod a few primes ell = 1 (mod e), one
embedding each (proof at verify_orthogonality).  A failure raises
InternalInconsistency rather than emitting a wrong table; the arrays are
read-only.  Row order is deterministic: the trivial character first,
then by (degree, value fingerprint).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

import numpy as np

from .cyclotomic import Cyclo, _phi, _power_basis_rows
from .errors import CapExceeded, InternalInconsistency
from .exact import _nullspace_mod, _rref_mod, is_prime, nu, prime_factors
from .groups import PermGroup, _element_index

__all__ = ["CharacterTable", "character_table", "CLASS_COUNT_CAP"]

CLASS_COUNT_CAP = 300


# ---------------------------------------------------------------------------
# table data


@dataclass(frozen=True)
class CharacterTable:
    group: PermGroup
    classes: tuple
    degrees: tuple[int, ...]
    exponent: int
    inverse_class: tuple[int, ...]
    ell: int                  # the prime of the eigenvector method, ell = 1 (mod exponent)
    # coords[i, j, t]: coordinate t of character i at class j in the power
    # basis of Q(zeta_exponent), int64 r x r x phi(exponent)
    coords: np.ndarray = field(compare=False, repr=False)
    residues: np.ndarray = field(compare=False, repr=False)  # values mod ell, int64 r x r

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def p_regular_indices(self, p: int) -> tuple[int, ...]:
        return tuple(j for j, c in enumerate(self.classes) if c.is_p_regular(p))

    def verify_orthogonality(self):
        """Both orthogonality relations, exactly and in full, one embedding per prime.

        An exact check first: each generator sigma_k of Gal(Q(zeta_e)/Q) maps
        every row to a row.  Then both Grams are r x r int64 products mod primes
        ell = 1 (mod e), under iota: zeta_e -> omega into GF(ell).  Proof: let
        x = R[a, b] - n delta, R the row Gram.  Equal rows would give
        R[a, b] = R[a, a], so a passing row check makes the rows distinct and
        sigma_k a permutation pi of them: sigma_k(x) = R[pi a, pi b] - n delta,
        so iota sigma(x) = 0 for all sigma.  As ell splits completely in
        Z[zeta_e] (Washington, Thm 2.13), these are all phi embeddings into
        GF(ell), so ell divides each coordinate of x, which is at most
        n B^2 phi (2 phi - 1) R + n (B the largest coordinate, R the largest
        power-basis row entry); the primes multiply past twice that: x = 0.
        A column Gram entry is fixed by every pi, a rational integer settled
        by the same primes.
        """
        n, e, coords = self.group.order, self.exponent, self.coords
        rows, r, phi = coords.shape
        conjugations, reach = _conjugations(e)
        big = max(int(coords.max()), -int(coords.min()))
        bound = 2 * (n * big * big * phi * (2 * phi - 1) * reach + n)
        bits = max(CLASS_COUNT_CAP, rows, r, phi).bit_length()
        embeddings = []
        while math.prod(ell for ell, _ in embeddings) <= bound:
            embeddings.append(_embedding(e, bits, len(embeddings)))
        seen = {row.tobytes() for row in coords}
        for s in conjugations:
            for a, row in enumerate(coords @ s):
                if row.tobytes() not in seen:
                    raise InternalInconsistency(f"no row is a Galois conjugate of character {a}")
        values = [coords % ell @ np.array([pow(w, t, ell) for t in range(phi)]) % ell
                  for ell, w in embeddings]
        sizes, inv = np.array([c.size for c in self.classes]), list(self.inverse_class)
        for what, diag, gram in (
                ("row orthogonality failed at characters", [n] * rows,
                 lambda x, ell: x * (sizes % ell) % ell @ x[:, inv].T % ell),
                ("column orthogonality failed at classes",
                 [c.centralizer_order for c in self.classes],
                 lambda x, ell: x.T @ x[:, inv] % ell)):
            bad = np.logical_or.reduce([gram(x, ell) != np.diag(diag) % ell
                                        for x, (ell, _) in zip(values, embeddings)])
            for a, b in np.argwhere(bad)[:1]:
                raise InternalInconsistency(f"{what} {a}, {b}")

    def to_json(self):
        return {
            "order": self.group.order,
            "classes": [
                {"representative": c.representative.cycle_string(),
                 "size": c.size, "element_order": c.element_order}
                for c in self.classes
            ],
            "degrees": list(self.degrees),
            "characters": [[v.to_json() for v in row]
                           for row in _canonical(self.exponent, self.coords)],
        }


def _canonical(exponent: int, coords: np.ndarray) -> list[list[Cyclo]]:
    """The canonical (minimal-conductor) form of every value, from its
    coordinates in the exponent field; each distinct value is normalized
    once."""
    r, c, phi = coords.shape
    distinct, at = np.unique(coords.reshape(r * c, phi), axis=0, return_inverse=True)
    forms = [Cyclo(exponent, v) for v in distinct.tolist()]
    return [[forms[k] for k in row] for row in at.reshape(r, c).tolist()]


@lru_cache(maxsize=None)
def _conjugations(e: int):
    """The matrices S_k (row t: basis[k t mod e]) by which sigma_k acts on
    coordinates, for generators k of (Z/e)^x: lifts, 1 mod e / q, of a
    primitive root mod each odd prime power q || e and of -1 and 5 mod
    q = 2^a; and the largest entry of basis rows below 2 phi - 1."""
    basis = np.array(_power_basis_rows(e), dtype=np.int64)
    phi, mats = basis.shape[1], []
    for p in prime_factors(e):
        q, rest = p ** nu(e, p), e // p ** nu(e, p)
        if p == 2:
            local = [-1, 5][:nu(e, 2) - 1]
        else:   # g + p is a primitive root mod p^2 when g is not
            g = _root_of_order(p - 1, p)
            local = [g + p if pow(g, p - 1, p * p) == 1 else g]
        mats += [basis[(1 + rest * ((g - 1) * pow(rest, -1, q) % q)) * np.arange(phi) % e]
                 for g in local]
    return mats, int(np.abs(basis[:2 * phi - 1]).max())


@lru_cache(maxsize=None)
def _embedding(e: int, bits: int, i: int):
    """The i-th largest prime ell = 1 (mod e) with 2^bits ell^2 <= 2^62 and
    an omega of order e in GF(ell), found without factoring ell - 1."""
    top = _embedding(e, bits, i - 1)[0] - e if i else (math.isqrt(2**(62 - bits)) - 1) // e * e + 1
    ell = next(x for x in range(top, 1, -e) if is_prime(x))
    return ell, _root_of_order(e, ell)


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


def character_table(group: PermGroup) -> CharacterTable:
    return group._memo("char_table", lambda: _build_table(group))


def _build_table(group: PermGroup) -> CharacterTable:
    classes = group.conjugacy_classes()
    r = len(classes)
    if r > CLASS_COUNT_CAP:
        raise CapExceeded(f"{r} classes exceeds cap {CLASS_COUNT_CAP}")
    n = group.order
    exponent = 1
    for c in classes:
        exponent = math.lcm(exponent, c.element_order)
    ell = _choose_prime(exponent, n)
    # the eliminations and products of _common_eigenvectors and the degree
    # sums hold sums of at most r products of residues in int64, the
    # multiplicity products of _lift_columns sums of e_j <= exponent of them
    if max(r, exponent) * ell * ell >= 2**63:
        raise CapExceeded(f"{r} classes of exponent {exponent} mod {ell} "
                          "overflow int64 arithmetic")

    # the central characters mod ell: 1 at the identity class, the leading entry
    v = _common_eigenvectors(lambda i: _class_matrix(group, i), r, ell)
    if len(v) != r:
        raise InternalInconsistency(f"expected {r} one-dimensional eigenspaces, found {len(v)}")

    # power_classes[j][s] = class of z_j^s; z_j^(o - 1) = z_j^-1
    powers = iter(group.classes_of([c.representative ** s for c in classes
                                    for s in range(c.element_order)]).tolist())
    power_classes = [list(islice(powers, c.element_order)) for c in classes]
    inverse_class = tuple(pows[-1] for pows in power_classes)
    size_inv = np.array([pow(c.size % ell, -1, ell) for c in classes], dtype=np.int64)

    # degrees from the orthogonality relation
    norms = (v * v[:, inverse_class] % ell * size_inv % ell).sum(axis=1) % ell
    degrees = _sqrt_small([n * pow(int(x), -1, ell) % ell for x in norms], ell, n)
    chi_mod = degrees[:, None] * v % ell * size_inv % ell

    # z_e from the least primitive root: an omega of order e found directly
    # could be another power of it, and would Galois-conjugate the table
    z_e = pow(_root_of_order(ell - 1, ell), (ell - 1) // exponent, ell)
    coords = _lift_columns(chi_mod, degrees, power_classes, z_e, exponent, ell)
    order = _row_order(degrees.tolist(), coords, exponent)
    degrees = tuple(degrees[order].tolist())

    if sum(d * d for d in degrees) != n:
        raise InternalInconsistency("degree squares do not sum to the group order")
    coords, residues = coords[order], chi_mod[order]
    coords.flags.writeable = residues.flags.writeable = False
    table = CharacterTable(group=group, classes=classes, degrees=degrees,
                           exponent=exponent, inverse_class=inverse_class, ell=ell,
                           coords=coords, residues=residues)
    table.verify_orthogonality()
    return table


def _choose_prime(exponent: int, n: int) -> int:
    ell = exponent + 1
    while True:
        if ell * ell > 4 * n and is_prime(ell):
            return ell
        ell += exponent


def _root_of_order(k: int, ell: int) -> int:
    """omega = g^((ell - 1) / k) of order exactly k in GF(ell), k | ell - 1,
    for the least g >= 2 that gives one; k = ell - 1 gives the least
    primitive root."""
    factors = prime_factors(k)
    return next(w for w in (pow(g, (ell - 1) // k, ell) for g in range(2, ell))
                if all(pow(w, k // q, ell) != 1 for q in factors))


def _common_eigenvectors(class_matrix, r: int, ell: int):
    """Split GF(ell)^r into common eigenlines of the class matrices, each
    returned with leading entry 1.

    Each subspace is a row basis b with b[:, pivots] = I.  class_matrix(i),
    read for i = 1, 2, ... until every subspace is a line, acts on row
    vectors by M^T; its restriction A to a subspace, with A b = b M^T, is
    read off the pivot columns.  A subspace on which M acts as a scalar is
    kept whole (Schneider, "Dixon's character table algorithm revisited",
    J. Symbolic Comput. 9, 1990); any other splits into the eigenspaces of A
    at the roots of its characteristic polynomial, found by Horner's rule at
    all points of GF(ell) at once.  The eigen-rows c of A (c A = lambda c)
    form the kernel K of A^T - lambda I, with K[:, f] = I on its free
    columns f (exact._nullspace_mod), so K b is the identity on pivots[f].
    """
    spaces = [(np.eye(r, dtype=np.int64), list(range(r)))]
    points = np.arange(ell, dtype=np.int64)
    for i in range(1, r):
        if all(b.shape[0] == 1 for b, _ in spaces):
            break
        mt = class_matrix(i).T.astype(np.int64) % ell   # counts come in the smallest dtype
        new_spaces = []
        for b, pivots in spaces:
            d = b.shape[0]
            if d == 1:
                new_spaces.append((b, pivots))
                continue
            at = (b @ mt[:, pivots]).T % ell
            if (at == at[0, 0] * np.eye(d, dtype=np.int64)).all():
                new_spaces.append((b, pivots))
                continue
            value = np.zeros(ell, dtype=np.int64)
            for c in _charpoly_mod(at, ell)[::-1]:
                value = (value * points + c) % ell
            remaining = d
            for lam in np.flatnonzero(value == 0):
                ker, free = _nullspace_mod((at - int(lam) * np.eye(d, dtype=np.int64)) % ell, ell)
                if ker.shape[0] == 0:
                    raise InternalInconsistency("an eigenvalue has no eigenvector")
                new_spaces.append(((ker @ b) % ell, [pivots[k] for k in free]))
                remaining -= ker.shape[0]
            if remaining != 0:  # pragma: no cover - the algebra splits over GF(ell)
                raise InternalInconsistency("eigen decomposition did not split")
        spaces = new_spaces
    lines = np.array([b[0] for b, _ in spaces])
    return lines * np.array([pow(int(x[x != 0][0]), -1, ell) for x in lines])[:, None] % ell


def _charpoly_mod(a: np.ndarray, ell: int) -> np.ndarray:
    """det(x I - a) mod ell, constant term first.

    Reduces a to upper Hessenberg form by similarity, then runs the
    recurrence of Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 2.2.9, with the terms of the earlier polynomials in
    each step summed by one vector-matrix product.
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
    polys = np.zeros((d + 1, d + 1), dtype=np.int64)   # row m: p_m, constant term first
    polys[0, 0] = 1
    sub = np.ones(d, dtype=np.int64)   # sub[i - 1] = h[i, i-1] ... h[m-1, m-2], i < m
    for m in range(1, d + 1):
        sub[:m - 1] = sub[:m - 1] * h[m - 1, m - 2] % ell
        p, prev = polys[m, :m + 1], polys[m - 1, :m]
        p[1:] = prev
        p[:m] -= h[m - 1, m - 1] * prev
        # p_m -= sum over i < m of h[i-1, m-1] sub[i - 1] p_(i-1)
        p[:m - 1] -= h[:m - 1, m - 1] * sub[:m - 1] % ell @ polys[:m - 1, :m - 1]
        p %= ell
    return polys[d]


def _sqrt_small(d2s, ell: int, n: int) -> np.ndarray:
    """For each d2, its square root mod ell in [1, sqrt(n)]; unique as ell > 2 sqrt(n)."""
    roots = np.arange(1, math.isqrt(n) + 1, dtype=np.int64)
    squares = roots * roots % ell
    by_square = np.argsort(squares)
    at = by_square[np.minimum(np.searchsorted(squares, d2s, sorter=by_square), len(roots) - 1)]
    if (squares[at] != d2s).any():
        raise InternalInconsistency("no character degree matches the eigenvector")
    return roots[at]


def _lift_columns(chi_mod, degrees, power_classes, z_e, exponent, ell):
    """Exact values from mod-ell data, one class (column) at a time, as
    coordinates c[i, j, t] in the power basis of the exponent field.

    The values of the characters at class j are sums of e_j-th roots of
    unity; their multiplicities mod ell are chi_mod at the powers of z_j,
    times the powers of the matching root w_j = z_e^(exponent / e_j), over
    e_j: one (rows x e_j) @ (e_j x e_j) product per class.  The root
    zeta_(e_j)^t is zeta_exponent^(t exponent / e_j), so the coordinates
    are the multiplicities times those power-basis rows: one more product.
    """
    basis = np.array(_power_basis_rows(exponent), dtype=np.int64)
    coords = np.empty((len(degrees), len(power_classes), _phi(exponent)), dtype=np.int64)
    fourier: dict = {}  # e_j -> f[s, t] = w_j^(-s t) / e_j
    for j, pows in enumerate(power_classes):
        e_j = len(pows)
        f = fourier.get(e_j)
        if f is None:
            root = pow(z_e, -(exponent // e_j), ell)
            w = np.array([pow(root, k, ell) for k in range(e_j)], dtype=np.int64)
            st = np.outer(np.arange(e_j), np.arange(e_j)) % e_j
            f = fourier[e_j] = w[st] * pow(e_j, -1, ell) % ell
        mult = chi_mod[:, pows] @ f % ell
        if (mult > degrees[:, None]).any():
            raise InternalInconsistency("eigenvalue multiplicity exceeds the degree")
        if (mult.sum(axis=1) != degrees).any():
            raise InternalInconsistency("multiplicities do not sum to the degree")
        coords[:, j] = mult @ basis[::exponent // e_j]
    return coords


def _row_order(degrees, coords, exponent):
    """The trivial character first, then by (degree, value fingerprint): the
    degree, then the canonical forms of the row's values."""
    rows = range(len(degrees))
    trivial = next((i for i in rows if (coords[i, :, 0] == 1).all() and not coords[i, :, 1:].any()),
                   None)
    if trivial is None:
        raise InternalInconsistency("trivial character missing from the table")
    forms = _canonical(exponent, coords)
    rest = sorted((i for i in rows if i != trivial),
                  key=lambda i: (degrees[i], tuple(v.key() for v in forms[i])))
    return [trivial] + rest
