"""The fusion system of a finite group on a fixed Sylow p-subgroup.

Morphisms are conjugation maps between subgroups of P induced by elements
of G.  The module computes the hyperfocal subgroup by two independent
deterministic algorithms (commutators from Alperin's generators, that is
from P and the essential subgroups, and P meet O^p(G)) and locates the
essential subgroup classes, never P, with their automizers; by Alperin's
fusion theorem N_G(P) controls fusion exactly when there are none.
Subgroup classes and their members inside P are read from
groups.sylow_subgroup_classes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InputError, MethodDisagreement, NoComplementFound, NotAbelian
from .exact import is_prime, p_part, prime_factors
from .groups import (PermGroup, _BSGS, _cayley_table, _with_bsgs, abelian_invariants,
                     centralizer, conjugation_image, normalizer, normal_closure,
                     o_p_residual, quotient_by_normal, same_subgroup, sylow_subgroup,
                     sylow_subgroup_classes)
from .perms import Perm

__all__ = ["FusionSystem", "HyperfocalReport", "EssentialClass", "AutomizerInfo",
           "omega1"]


@dataclass(frozen=True)
class HyperfocalReport:
    subgroup: PermGroup
    invariants: tuple


@dataclass(frozen=True)
class AutomizerInfo:
    """Structure descriptor of N_G(U) / U C_G(U)."""

    order: int
    is_symmetric_3: bool


@dataclass(frozen=True)
class EssentialClass:
    representative: PermGroup          # fully normalized class representative
    automizer: AutomizerInfo


def omega1(q: PermGroup, p: int = 2) -> PermGroup:
    """Subgroup of elements of order dividing p in an abelian p-group."""
    if not q.is_abelian():
        raise NotAbelian("omega1 requires an abelian group")
    gens = [x for x in q.elements() if not x.is_identity() and (x ** p).is_identity()]
    return PermGroup(q.degree, gens)


class FusionSystem:
    """Queries against the fusion category of G on a Sylow p-subgroup P."""

    def __init__(self, group: PermGroup, p: int = 2):
        if not is_prime(p):
            raise InputError(f"p = {p} is not a prime")
        self.group = group
        self.p = p
        self.sylow = sylow_subgroup(group, p)
        self._cache: dict = {}

    # -- hyperfocal subgroup

    def hyperfocal(self) -> HyperfocalReport:
        cached = self._cache.get("hyperfocal")
        if cached is not None:
            return cached
        residual = self._hyperfocal_residual()
        commutator = self._hyperfocal_commutator()
        if not same_subgroup(commutator, residual):
            raise MethodDisagreement(
                f"hyperfocal methods disagree: commutator order "
                f"{commutator.order}, residual order {residual.order}")
        report = HyperfocalReport(
            subgroup=residual,
            invariants=(abelian_invariants(residual) if residual.is_abelian() else None),
        )
        self._cache["hyperfocal"] = report
        return report

    def _hyperfocal_residual(self) -> PermGroup:
        """P meet O^p(G), the hyperfocal subgroup by the residual characterization;
        its handle keeps the BSGS that its generators were added to."""
        opg = o_p_residual(self.group, self.p)
        bsgs = _BSGS(self.group.degree, [])
        gens = [x for x in self.sylow.elements() if x in opg and bsgs.add(x)]
        return _with_bsgs(self.group, gens, bsgs)

    def _hyperfocal_commutator(self) -> PermGroup:
        """The hyperfocal subgroup from Alperin's generators of the fusion system.

        T is the P-normal closure of u^-1 u^x over U in {P} and the fully
        normalized essential representatives, u in U and x in the generators
        X of O^p(N_G(U)).  With every u of U taken, T contains [U, O^p(N_G(U))]
        because u^-1 u^(xy) = (u^-1 u^x)(v^-1 v^y) with v = u^x in U.

        T <= hyp(F) because O^p(N_G(U)) maps onto O^p(Aut_F(U)) and hyp(F) is
        normal in P.  Conversely, for fully normalized E, Aut_F(E) =
        O^p(Aut_F(E)) Aut_P(E), so each automorphism of P or of an essential
        agrees modulo T with a conjugation by an element of P.  By Alperin's
        fusion theorem (Aschbacher, Kessar and Oliver, *Fusion Systems in
        Algebra and Topology*, 2011, Thm I.3.5 and sec. I.7) every F-morphism
        is a composite of restrictions of such automorphisms, so it too acts
        on P/T as a conjugation by an element of P/T.  A p'-element of
        Aut_F(R) therefore acts on RT/T as an automorphism of p'-order and of
        p-power order at once, that is trivially: [R, O^p(Aut_F(R))] <= T for
        every R, and hyp(F) <= T.
        """
        gens: list[Perm] = []
        for u in [self.sylow] + [e.representative for e in self.essential_classes()]:
            xs = o_p_residual(normalizer(self.group, u), self.p).generators
            for uu in u.elements():
                uu_inv = uu.inverse()
                for x in xs:
                    c = uu_inv * (uu ** x)
                    if not c.is_identity():
                        gens.append(c)
        return normal_closure(self.sylow, gens)

    # -- automizers

    def automizer_group(self, u: PermGroup) -> PermGroup:
        """N_G(u)/(u C_G(u)) as a permutation group.

        Realized as the quotient of the conjugation image of N_G(u) on u by
        the image of u (inner automorphisms).
        """
        image = conjugation_image(normalizer(self.group, u), u)
        inner_image = conjugation_image(u, u)
        return quotient_by_normal(image, inner_image)

    # -- essential subgroups

    def essential_classes(self) -> list[EssentialClass]:
        cached = self._cache.get("essentials")
        if cached is not None:
            return cached
        out = []
        classes = sylow_subgroup_classes(self.group, self.p)
        orbit_sizes = Counter(classes.class_of.values())
        for i, members in enumerate(classes.members):
            u = members[0]
            # P is Sylow in N_G(P), so Out_F(P) is a p'-group and P is never
            # essential: no automizer of P is built
            if u.order in (1, self.sylow.order):
                continue
            if not all(map(self._centric_local, members)):
                continue
            # |N_G(u)| = |G| / |orbit of u|, each member labelled in class_of;
            # when that is a power of p, Out_F(u) is a p-group and has no
            # strongly p-embedded subgroup
            n_order = self.group.order // orbit_sizes[i]
            if p_part(n_order, self.p) == n_order:
                continue
            quo = self.automizer_group(u)
            if not _strongly_p_embedded(quo, self.p):
                continue
            out.append(EssentialClass(representative=self._fully_normalized_rep(members),
                                      automizer=_automizer_info(quo)))
        self._cache["essentials"] = out
        return out

    def _centric_local(self, u: PermGroup) -> bool:
        """No y in P outside u, a member handle of a class record, commutes
        with u's generators, that is C_P(u) = Z(u).  Read from P's Cayley
        table: y commutes with x exactly when mult[y, x] == mult[x, y]."""
        mult, position = _cayley_table(self.sylow)
        at = [position[x] for x in u.generators]
        commuting = (mult[:, at] == mult[at, :].T).all(axis=1).tolist()
        uset = u.element_set()
        return all(y in uset for y, c in zip(self.sylow.elements(), commuting) if c)

    def _fully_normalized_rep(self, members) -> PermGroup:
        """Of a class's member handles inside P, the one maximizing
        |N_P(member)|, the first in enumeration order on ties."""
        return max(members, key=lambda m: normalizer(self.sylow, m).order)

    # -- odd complements and their fixed points

    def odd_complement_fixed_points(self, u: PermGroup):
        """(E, C_u(E)): E is the preimage in N_G(u) of an odd-order complement
        to the Sylow p-subgroup of N_G(u)/C_G(u).

        In scope, odd automorphisms of u act faithfully on the hyperfocal
        subgroup Q ~ Z_{2^n} x Z_{2^n}, and Aut(Q) has odd part 3, so the
        odd part of the quotient is a prime power.  For that prime q, a
        Sylow q-subgroup of N_G(u) maps onto one of the quotient, so
        E = <C_G(u), Sylow_q(N_G(u))>.  Any other odd part raises
        NoComplementFound.
        """
        n = normalizer(self.group, u)
        cent = centralizer(self.group, u)
        m = n.order // cent.order
        odd = m // p_part(m, self.p)
        if odd == 1:
            return cent, centralizer(u, cent)
        qprimes = prime_factors(odd)
        if len(qprimes) != 1:
            raise NoComplementFound(
                f"odd part {odd} of the automizer layer is not a prime power")
        e_gens = list(cent.generators) + list(sylow_subgroup(n, qprimes[0]).generators)
        e = self.group.subgroup(e_gens)
        return e, centralizer(u, e)


def _automizer_info(quo: PermGroup) -> AutomizerInfo:
    return AutomizerInfo(order=quo.order,
                         is_symmetric_3=quo.order == 6 and not quo.is_abelian())


def _strongly_p_embedded(quo: PermGroup, p: int) -> bool:
    """Whether quo has a strongly p-embedded subgroup.

    Quillen's criterion (Adv. Math. 28, 1978, Prop. 5.2): exactly when p
    divides |quo| and the commuting graph on its elements of order p is
    disconnected.
    """
    if quo.order % p != 0:
        return False
    vertices = [x for x in quo.elements() if x.order() == p]
    component = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        x = stack.pop()
        for y in vertices:
            if y not in component and x * y == y * x:
                component.add(y)
                stack.append(y)
    return len(component) < len(vertices)
