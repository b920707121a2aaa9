"""p-blocks of a character table and their invariants.

Block distribution uses the standard central-character criterion: two
irreducible characters lie in the same p-block exactly when the reduced
central characters omega(K) = |K| chi(g_K) / chi(1) agree modulo the
fixed maximal ideal above p, for every class K.

k(b) is the number of ordinary characters in the block; l(b) is the rank
over GF(ell) of the block's character values mod ell restricted to the
p-regular classes, ell the table's prime (see _l_by_rank for why that rank
is exact, and the certificate that the ranks sum to the number of
p-regular classes).  Central characters, idempotent coefficients and
induced central characters are integer array products on the table's
coordinates (CharacterTable.coords), a quotient that is not integral
raises, and each array reduces mod p in one contraction.  A block's defect
group is found on its first read, from one Sylow p-subgroup per p-regular
class (that of the class's centralizer, shared with the lower defect
multiplicities); building the blocks computes no centralizer or Sylow
subgroup.  Lower defect multiplicities m(b, R) come from the defect
filtration of the p-regular class sums in Z(kG), k the residue field
GF(p^f) of modp: dimension jumps of e_b * span{class sums with defect
group below R}, read as ranks over GF(p) on the sum of the e_a over b's
Frobenius orbit, and computed only at the classes R of
groups.sylow_subgroup_classes that hold a p-regular class's defect group.
The sum over all R must equal l(b), a hard runtime assertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .chartable import CharacterTable, _class_matrices, character_table
from .errors import InputError, InternalInconsistency, NoDefectClass, NotPIntegral
from .exact import _rref_mod, dtype_for, is_prime, nu, p_part
from .groups import (PermGroup, abelian_invariants, centralizer, subgroup_fingerprint,
                     sylow_subgroup, sylow_subgroup_classes)
from .modp import ModPContext, mod_p_context

__all__ = ["Block", "LowerDefectTable", "central_characters", "block_distribution",
           "brauer_induce", "induce_principal_block", "lower_defect_multiplicities",
           "block_idempotent_vectors", "p_subgroup_classes"]


@dataclass(frozen=True)
class Block:
    """A p-block as an index set of Irr(G) plus its basic invariants."""

    table: CharacterTable
    p: int
    char_indices: tuple[int, ...]
    defect: int
    is_principal: bool
    k: int
    l: int
    signature: tuple   # reduced central character, one field element per class

    @property
    def group(self) -> PermGroup:
        return self.table.group

    @cached_property
    def defect_group(self) -> PermGroup:
        """Sylow p-subgroup of the centralizer of a defect class: a p-regular
        class with nonzero reduced central character whose class defect
        equals the block defect.  Computed on first read."""
        table, p = self.table, self.p
        nu_g = nu(self.group.order, p)
        j = next((j for j, cls in enumerate(table.classes) if cls.is_p_regular(p)
                  and any(self.signature[j]) and nu_g - nu(cls.size, p) == self.defect), None)
        if j is None:
            raise NoDefectClass(f"no defect class found for a block of defect {self.defect}")
        dg = _class_defect_group(table, p, j)
        if self.is_principal and dg.order != p_part(self.group.order, p):
            raise InternalInconsistency("principal block defect group is not Sylow")
        return dg

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.table.degrees[i] for i in self.char_indices)

    def to_json(self):
        dg = self.defect_group
        return {
            "p": self.p,
            "characters": list(self.char_indices),
            "degrees": list(self.degrees()),
            "defect": self.defect,
            "defect_group_order": dg.order,
            "defect_group_invariants": (list(abelian_invariants(dg))
                                        if dg.is_abelian() else None),
            "is_principal": self.is_principal,
            "k": self.k,
            "l": self.l,
        }


def central_characters(table: CharacterTable) -> np.ndarray:
    """omega[i, j, t] = |K_j| a[i, j, t] / chi_i(1) for the coordinates a:
    omega_chi_i(K_j) in the power basis, an algebraic integer, so every
    quotient must be exact.  The products are at most B |G| in absolute
    value, B the largest coordinate.  Memoised on the group."""
    return table.group._memo("central_chars", lambda: _central_characters(table))


def _central_characters(table: CharacterTable) -> np.ndarray:
    a = table.coords
    dtype = dtype_for(int(np.abs(a).max()) * table.group.order)
    scaled = a.astype(dtype) * np.array([c.size for c in table.classes], dtype=dtype)[:, None]
    degrees = np.array(table.degrees, dtype=dtype)[:, None, None]
    bad = np.argwhere((scaled % degrees).any(axis=2))
    if bad.size:
        raise InternalInconsistency(
            f"central character ({bad[0][0]},{bad[0][1]}) is not an algebraic integer")
    return scaled // degrees


def block_distribution(table: CharacterTable, p: int) -> list[Block]:
    """Partition of Irr(G) into p-blocks, principal block first.

    Refuses a p that is not prime before any work.
    """
    if not is_prime(p):
        raise InputError(f"p = {p} is not a prime")
    return table.group._memo(("blocks", p), lambda: _block_distribution(table, p))


def _block_distribution(table: CharacterTable, p: int) -> list[Block]:
    sigs = mod_p_context(table.exponent, p).reduce(central_characters(table), table.exponent)
    sig_of: dict[tuple, list[int]] = {}
    for i, row in enumerate(sigs.tolist()):
        sig_of.setdefault(tuple(map(tuple, row)), []).append(i)

    nu_g = nu(table.group.order, p)
    blocks = []
    for sig, idxs in sig_of.items():
        idxs = tuple(sorted(idxs))
        defect = nu_g - min(nu(table.degrees[i], p) for i in idxs)
        blocks.append(Block(
            table=table, p=p, char_indices=idxs, defect=defect,
            is_principal=0 in idxs, k=len(idxs),
            l=_l_by_rank(table, p, idxs), signature=sig,
        ))
    blocks.sort(key=lambda b: (not b.is_principal, b.char_indices))
    # sanity: the blocks partition Irr(G)
    seen = sorted(i for b in blocks for i in b.char_indices)
    if seen != list(range(table.n_classes)):
        raise InternalInconsistency("blocks do not partition the characters")
    # certificate for the ranks mod ell (_l_by_rank)
    s = len(table.p_regular_indices(p))
    if sum(b.l for b in blocks) != s:
        raise InternalInconsistency(
            f"ranks mod {table.ell} sum to {sum(b.l for b in blocks)}, "
            f"not to the {s} p-regular classes")
    return blocks


def _class_defect_group(table: CharacterTable, p: int, j: int) -> PermGroup:
    """A Sylow p-subgroup of the centralizer of class j's representative, the
    class's defect group; memoised per class, shared by every block."""
    group = table.group
    return group._memo(("class_defect_group", p, j), lambda: sylow_subgroup(
        centralizer(group, table.classes[j].representative), p))


def _l_by_rank(table: CharacterTable, p: int, idxs) -> int:
    """l(b): the rank over GF(ell) of b's rows of the table mod ell, on the
    p-regular classes.

    Why this is exact, with s the number of p-regular classes: l(b) is the
    rank of the same rows over the cyclotomic field.  A rank can only drop
    under reduction, so each rank mod ell is at most l(b).  Column
    orthogonality gives X^T X-bar = diag |C_G(g)| for the table X, and ell
    does not divide |G|, so X mod ell is invertible and its p-regular
    columns have rank s; hence the ranks mod ell of the blocks sum to at
    least s.  As the l(b) sum to s, s <= sum rank_ell(b) <= sum l(b) = s,
    and every rank mod ell equals l(b).  _block_distribution raises when
    the ranks do not sum to s.
    """
    _, pivots = _rref_mod(table.residues[np.ix_(idxs, table.p_regular_indices(p))], table.ell)
    return len(pivots)


def principal_block(group: PermGroup, p: int) -> Block:
    return block_distribution(character_table(group), p)[0]


# ---------------------------------------------------------------------------
# Brauer induction


def brauer_induce(table_h: CharacterTable, chi: int, group: PermGroup, p: int):
    """Block of `group` that the block of chi in Irr(h) induces to, h the
    group of `table_h`, or None when induction is undefined.

    The induced central character at a class K of `group` is the sum of
    omega_chi over the classes of h inside K; no block of h is built.
    """
    fusion = group.classes_of([cls.representative for cls in table_h.classes])
    return _induced_block(group, p, fusion, central_characters(table_h)[chi], table_h.exponent)


def induce_principal_block(h: PermGroup, group: PermGroup, p: int):
    """Block of `group` that the principal block of its subgroup h induces
    to, or None when induction is undefined.

    The trivial character of h lies in its principal block, so the induced
    central character on a class K of `group` is |K cap h|: a 1 for each
    element of h.  No character table or block of h is built.
    """
    return _induced_block(group, p, group.classes_of(h.elements()),
                          np.ones((h.order, 1), dtype=np.int64), 1)


def _induced_block(group: PermGroup, p: int, classes, terms: np.ndarray, conductor: int):
    """The block of `group` whose signature is the class function summing
    terms[i], coordinates in Z[zeta_conductor], on class classes[i] of
    `group`, or None; a sum is at most len(terms) times the largest term.
    The sums are reduced in the big group's context, so the maximal-ideal
    choice is shared with its blocks."""
    table = character_table(group)
    totals = np.zeros((table.n_classes, terms.shape[1]),
                      dtype=dtype_for(len(terms) * int(np.abs(terms).max())))
    np.add.at(totals, classes, terms.astype(totals.dtype))
    sig = mod_p_context(table.exponent, p).reduce(totals, conductor)
    return _block_with_signature(table, p, tuple(map(tuple, sig.tolist())))


def _block_with_signature(table: CharacterTable, p: int, sig: tuple):
    """The block of `table` whose reduced central character is `sig`, or None;
    the signatures of the blocks are distinct by construction."""
    return next((b for b in block_distribution(table, p) if b.signature == sig), None)


def _frobenius_orbit(blk: Block) -> list[Block]:
    """b and its images under the Frobenius x -> x^p of the residue field,
    in turn: the image of a block has its signature raised to the p-th power."""
    ctx = mod_p_context(blk.table.exponent, blk.p)
    orbit, sig = [blk], np.array(blk.signature, dtype=ctx.dtype(ctx.f))
    while True:
        sig = sig @ ctx.frobenius % blk.p
        nxt = _block_with_signature(blk.table, blk.p, tuple(map(tuple, sig.tolist())))
        if nxt is blk:
            return orbit
        if nxt is None or len(orbit) == ctx.f:
            raise InternalInconsistency("the Frobenius does not permute the blocks")
        orbit.append(nxt)


# ---------------------------------------------------------------------------
# block idempotents mod p and lower defect groups


def block_idempotent_vectors(table: CharacterTable, p: int):
    """(e_b mod p for every block b, the context): an array of shape
    (blocks, classes, f) holding each coefficient over the class-sum basis
    of Z(kG) as a field element.

    The class-K coefficient of e_b is sum_{chi in b} chi(1) chi(g_K^-1) / |G|,
    a p-integral cyclotomic value: the sum, one array product for all
    blocks on the coordinates a at the inverse classes and at most
    B sum_chi chi(1) for B the largest |a|, divides exactly by |G|_p (else
    NotPIntegral), and the quotient reduces times the inverse of |G|_p' mod p.
    """
    return table.group._memo(("idempotents", p), lambda: _idempotent_vectors(table, p))


def _idempotent_vectors(table: CharacterTable, p: int):
    ctx = mod_p_context(table.exponent, p)
    n = table.group.order
    n_p = p_part(n, p)
    a = table.coords
    dtype = dtype_for(int(np.abs(a).max()) * sum(table.degrees))
    weights = np.array([[d if i in b.char_indices else 0 for i, d in enumerate(table.degrees)]
                        for b in block_distribution(table, p)], dtype=dtype)
    totals = np.tensordot(weights, a.astype(dtype)[:, list(table.inverse_class)], axes=1)
    bad = np.argwhere((totals % n_p).any(axis=2))
    if bad.size:
        raise NotPIntegral(
            f"idempotent coefficient at class {bad[0][1]} is not {p}-integral")
    vectors = ctx.reduce(totals // n_p, ctx.m).astype(ctx.dtype(table.n_classes * ctx.f))
    return vectors * pow(n // n_p, -1, p) % p, ctx


def _times_class_sums(table: CharacterTable, ctx: ModPContext, e: np.ndarray) -> np.ndarray:
    """e K_j in Z(kG) for every class j, e an array of class-sum coefficients
    (field elements, or GF(p) values): out[j, k] is the coefficient of K_k,
    (sum_i e_i M_i)[j, k] for the class matrices M_i."""
    out = np.zeros((table.n_classes,) + e.shape, dtype=e.dtype)
    for i, mi in enumerate(_class_matrices(table.group)):
        if np.any(e[i]):
            out += np.multiply.outer(mi.astype(e.dtype) % ctx.p, e[i])
    return out % ctx.p


def p_subgroup_classes(group: PermGroup, p: int) -> list[PermGroup]:
    """One representative per G-conjugacy class of p-subgroups, in the
    order of :func:`groups.sylow_subgroup_classes`."""
    return list(sylow_subgroup_classes(group, p).reps)


@dataclass(frozen=True)
class LowerDefectTable:
    subgroup_classes: tuple          # PermGroup representatives, deterministic order
    multiplicities: tuple[int, ...]  # aligned with subgroup_classes

    def by_order(self) -> dict[int, int]:
        """Nonzero multiplicities keyed by subgroup order (orders distinct here)."""
        out: dict[int, int] = {}
        for r, m in zip(self.subgroup_classes, self.multiplicities):
            if m:
                out[r.order] = out.get(r.order, 0) + m
        return out

    def to_json(self):
        entries = []
        for idx, (r, m) in enumerate(zip(self.subgroup_classes, self.multiplicities)):
            entries.append({
                "fingerprint": f"{subgroup_fingerprint(r)}#{idx}",
                "order": r.order,
                "multiplicity": m,
            })
        return entries


def lower_defect_multiplicities(blk: Block) -> LowerDefectTable:
    """Multiplicities m(b, R) over p-subgroup classes R, via the defect filtration.

    m(b, R) is the k-dimension jump of e_b V_R against e_b V_<R, V_R the
    span of the p-regular class sums whose defect group is in R's class or
    below.  The Frobenius x -> x^p of k, on coefficients, is a semilinear
    ring automorphism of kG that fixes the class sums, keeps k-dimensions
    and maps e_b to the idempotent of the block whose signature is b's
    raised to the p-th power.  So over b's orbit O, E = sum_{a in O} e_a
    has GF(p) coefficients (hard assertion), E V is the direct sum of the
    e_a V, all of one dimension, and its dimension is the GF(p)-rank of
    the E K_j: each jump of those ranks is |O| m(b, R) (Linckelmann, *The
    Block Theory of Finite Group Algebras* I, 2018, for Z(OG)e_b).

    Jumps are computed only at the defect classes D, those holding the
    defect group of some p-regular class.  For R outside D, V_R and V_<R
    are spanned by the same class sums, so the jump is 0.  Every class sum
    has its defect class in D, so the containments read are c <= R for c
    and R in D, and R <= the block's defect class, which is in D as the
    block's defect group is that of a p-regular class.  Hard assertions:
    |O| divides each jump, the multiplicities sum to l(b), the defect group
    carries multiplicity at least 1, and classes not below it carry 0.
    """
    table, p = blk.table, blk.p
    classes = sylow_subgroup_classes(table.group, p)
    idempotents, ctx = block_idempotent_vectors(table, p)
    blocks = block_distribution(table, p)
    orbit = _frobenius_orbit(blk)
    e = idempotents[[blocks.index(b) for b in orbit]].sum(axis=0) % p
    if e[:, 1:].any():
        raise InternalInconsistency("a Frobenius orbit's idempotents sum outside GF(p)")

    # the class of each p-regular class's defect group in the class list
    class_rep_of = [classes.index_of(_class_defect_group(table, p, j))
                    for j in table.p_regular_indices(p)]
    defect_classes = set(class_rep_of)
    vectors = _times_class_sums(table, ctx, e[:, 0])[list(table.p_regular_indices(p))]

    def span_rank(picked):
        return len(_rref_mod(vectors[[c in picked for c in class_rep_of]], p)[1])

    mult = [0] * len(classes.reps)
    for ri in defect_classes:
        below = {c for c in defect_classes if classes.below(c, ri)}
        jump = span_rank(below) - span_rank(below - {ri})
        if jump % len(orbit):
            raise InternalInconsistency(
                f"a Frobenius orbit of {len(orbit)} blocks has a dimension jump of {jump}")
        mult[ri] = jump // len(orbit)

    if sum(mult) != blk.l:
        raise InternalInconsistency(
            f"lower defect multiplicities sum to {sum(mult)}, expected l(b) = {blk.l}")
    dclass = classes.index_of(blk.defect_group)
    if mult[dclass] < 1:
        raise InternalInconsistency("defect group multiplicity is zero")
    for ri, m in enumerate(mult):
        if m and not classes.below(ri, dclass):
            raise InternalInconsistency(
                "nonzero multiplicity outside the defect group's subgroups")
    return LowerDefectTable(subgroup_classes=classes.reps, multiplicities=tuple(mult))
