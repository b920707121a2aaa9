"""The fusion system of a finite group on a fixed Sylow p-subgroup.

Morphisms are conjugation maps between subgroups of P induced by elements
of G.  The module computes the hyperfocal subgroup by two independent
deterministic algorithms (commutators from Alperin's generators, that is
from P and the essential subgroups, and P meet O^p(G)), locates essential
subgroup classes with their automizers, and decides control by normalizers
via Alperin's fusion theorem.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, MethodDisagreement, NoComplementFound, NotAbelian
from .exact import is_prime, p_part, prime_factors
from .groups import (PermGroup, abelian_invariants, centralizer,
                     conjugation_image, fixed_points, normalizer, normal_closure,
                     o_p_residual, quotient_by_normal, subgroup_fingerprint,
                     sylow_subgroup, _set_orbit,
                     _stabilizer_of_action, same_subgroup)
from .perms import Perm

__all__ = ["FusionSystem", "HyperfocalReport", "EssentialClass", "AutomizerInfo",
           "omega1"]


@dataclass(frozen=True)
class HyperfocalReport:
    subgroup: PermGroup
    invariants: tuple
    commutator_order: int
    residual_order: int


@dataclass(frozen=True)
class AutomizerInfo:
    """Structure descriptor of N_G(U) / U C_G(U)."""

    order: int
    is_symmetric_3: bool
    abelian_invariants: tuple | None
    sylow_orders: tuple


@dataclass(frozen=True)
class EssentialClass:
    representative: PermGroup          # fully normalized class representative
    automizer: AutomizerInfo
    witness: str                       # strongly p-embedded subgroup description


def omega1(q: PermGroup, p: int = 2) -> PermGroup:
    """Subgroup of elements of order dividing p in an abelian p-group."""
    if not q.is_abelian():
        raise NotAbelian("omega1 requires an abelian group")
    gens = [x for x in q.elements() if not x.is_identity() and (x ** p).is_identity()]
    return PermGroup(q.degree, gens, parent=q._top(),
                     _skip_check=True)


class FusionSystem:
    """Queries against the fusion category of G on a Sylow p-subgroup P."""

    def __init__(self, group: PermGroup, sylow: PermGroup | None = None, p: int = 2):
        if not is_prime(p):
            raise InputError(f"p = {p} is not a prime")
        self.group = group
        self.p = p
        self.sylow = sylow if sylow is not None else sylow_subgroup(group, p)
        if self.sylow.order != p_part(group.order, p):
            raise ValueError("subgroup is not Sylow")
        self._cache: dict = {}

    # -- hyperfocal subgroup

    def hyperfocal_subgroup(self) -> PermGroup:
        """The hyperfocal subgroup P meet O^p(G), cached without the
        two-method report (cheap; used by downstream verification passes)."""
        q = self._cache.get("hyperfocal_q")
        if q is None:
            q = self._cache["hyperfocal_q"] = self._hyperfocal_residual()
        return q

    def hyperfocal(self) -> HyperfocalReport:
        cached = self._cache.get("hyperfocal")
        if cached is not None:
            return cached
        residual = self.hyperfocal_subgroup()
        commutator = self._hyperfocal_commutator()
        if not same_subgroup(commutator, residual):
            raise MethodDisagreement(
                f"hyperfocal methods disagree: commutator order "
                f"{commutator.order}, residual order {residual.order}")
        report = HyperfocalReport(
            subgroup=residual,
            invariants=(abelian_invariants(residual) if residual.is_abelian() else None),
            commutator_order=commutator.order,
            residual_order=residual.order,
        )
        self._cache["hyperfocal"] = report
        return report

    def _hyperfocal_residual(self) -> PermGroup:
        """P meet O^p(G), the hyperfocal subgroup by the residual characterization."""
        opg = o_p_residual(self.group, self.p)
        gens = [x for x in self.sylow.elements() if x in opg and not x.is_identity()]
        return self.group.subgroup(gens)

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

    # -- subgroup classes of P up to G-conjugacy

    def subgroup_classes(self) -> list[PermGroup]:
        from .blocks import p_subgroup_classes
        return p_subgroup_classes(self.group, self.p, sylow=self.sylow)

    # -- automizers

    def automizer_group(self, u: PermGroup) -> PermGroup:
        """N_G(u)/(u C_G(u)) as a permutation group.

        Realized as the quotient of the conjugation image of N_G(u) on u by
        the image of u (inner automorphisms).
        """
        image = conjugation_image(normalizer(self.group, u), u)
        inner_image = conjugation_image(u, u)
        return quotient_by_normal(image, inner_image)[0]

    def automizer(self, u: PermGroup) -> AutomizerInfo:
        return _automizer_info(self.automizer_group(u))

    # -- essential subgroups

    def essential_classes(self) -> list[EssentialClass]:
        cached = self._cache.get("essentials")
        if cached is not None:
            return cached
        p = self.p
        pset_all = self.sylow.element_set()
        out = []
        for u in self.subgroup_classes():
            if u.order == 1:
                continue
            # P itself is excluded automatically: its outer automizer has
            # order prime to p, so it has no strongly p-embedded subgroup
            if not self._is_centric(u, pset_all):
                continue
            quo = self.automizer_group(u)
            witness = _strongly_p_embedded(quo, p)
            if witness is None:
                continue
            rep = self._fully_normalized_rep(u)
            out.append(EssentialClass(
                representative=rep,
                automizer=_automizer_info(quo),
                witness=witness,
            ))
        cached = out
        self._cache["essentials"] = cached
        return cached

    def _is_centric(self, u: PermGroup, pset_all) -> bool:
        """C_P(u') = Z(u') for every conjugate u' of u inside P."""
        uset = u.element_set()
        # cheap local test first
        if not self._centric_local(uset):
            return False
        for conj in _set_orbit(self.group, frozenset(uset)):
            if conj <= pset_all and not self._centric_local(conj):
                return False
        return True

    def _centric_local(self, uset) -> bool:
        gens = [x for x in uset if not x.is_identity()]
        for y in self.sylow.elements():
            if all(y * x == x * y for x in gens) and y not in uset:
                return False
        return True

    def _fully_normalized_rep(self, u: PermGroup) -> PermGroup:
        """Class member inside P maximizing |N_P(member)|, canonical tie-break."""
        pset_all = self.sylow.element_set()
        best = None
        for conj in sorted(_set_orbit(self.group, frozenset(u.element_set())),
                           key=lambda s: sorted(x.images for x in s)):
            if not conj <= pset_all:
                continue
            member = self.group.subgroup([x for x in conj if not x.is_identity()])
            nsize = normalizer(self.sylow, member).order
            if best is None or nsize > best[0]:
                best = (nsize, member)
        return best[1]

    # -- control by normalizers

    def is_controlled_by_normalizer(self, h: PermGroup | None = None) -> bool:
        """Control by h (default N_G(P)).

        For h = N_G(P) this is Alperin's criterion: no essential classes.
        For general h it checks that the automizer of P and of every
        essential representative is induced by h.
        """
        essentials = self.essential_classes()
        if h is None or same_subgroup(h, normalizer(self.group, self.sylow)):
            return not essentials
        targets = [self.sylow] + [e.representative for e in essentials]
        for x in targets:
            n = normalizer(self.group, x)
            c = centralizer(self.group, x)
            h_in_n = [g for g in h.elements() if all(s ** g in x for s in x.generators)]
            gens = list(c.generators) + h_in_n
            if self.group.subgroup(gens).order != n.order:
                return False
        return True

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
            return cent, fixed_points(u, cent)
        qprimes = prime_factors(odd)
        if len(qprimes) != 1:
            raise NoComplementFound(
                f"odd part {odd} of the automizer layer is not a prime power")
        e_gens = list(cent.generators) + list(sylow_subgroup(n, qprimes[0]).generators)
        e = self.group.subgroup(e_gens)
        return e, fixed_points(u, e)


def _automizer_info(quo: PermGroup) -> AutomizerInfo:
    order = quo.order
    is_s3 = order == 6 and not quo.is_abelian()
    inv = abelian_invariants(quo) if quo.is_abelian() else None
    sylos = sorted(p_part(order, q) for q in prime_factors(order))
    return AutomizerInfo(order=order, is_symmetric_3=is_s3,
                         abelian_invariants=inv, sylow_orders=tuple(sylos))


def _strongly_p_embedded(quo: PermGroup, p: int):
    """Description of the smallest strongly p-embedded subgroup of quo, or None.

    Quillen's criterion (Adv. Math. 28, 1978, Prop. 5.2): quo has a
    strongly p-embedded subgroup exactly when p divides |quo| and the
    commuting graph on its elements of order p is disconnected.  The
    stabilizer of one component under conjugation is then the smallest
    strongly p-embedded subgroup.
    """
    if quo.order % p != 0:
        return None
    vertices = [x for x in quo.elements() if x.order() == p]
    component = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        x = stack.pop()
        for y in vertices:
            if y not in component and x * y == y * x:
                component.add(y)
                stack.append(y)
    if len(component) == len(vertices):
        return None
    m = _stabilizer_of_action(quo, frozenset(component),
                              lambda s, g: frozenset(map(g.conjugator(), s)))
    return f"order {m.order}: {subgroup_fingerprint(m)}"
