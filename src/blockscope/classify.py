"""End-to-end classification and verification of a group at a prime.

``classify_case`` assembles the fusion-theoretic evidence (hyperfocal
subgroup, essential subgroup data, control by the Sylow normalizer as the
absence of essentials) and assigns exactly one case label.
``verify_counts`` measures the character counts k and l for the principal
block and its correspondents in the normalizers of the hyperfocal and
Sylow subgroups and records a verdict per identity the label predicts.
``count_weights`` counts conjugacy classes of pairs (R, defect-zero
character of N_G(R)/R lying over the block), and ``check_local_structure``
verifies the expected local decompositions, reading the essential
geometry from the evidence.

The two threshold readings of "small" hyperfocal order (at most 16, or
strictly below 16) are both implemented; reports always state which one
was applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .blocks import (Block, brauer_induce, induce_principal_block, p_subgroup_classes,
                     principal_block)
from .chartable import character_table
from .errors import InternalInconsistency
from .exact import nu, p_part
from .fusion import FusionSystem, omega1
from .groups import (PermGroup, abelian_invariants, centralizer, normalizer, o_p_core,
                     same_subgroup, sylow_subgroup)

__all__ = ["ClassificationReport", "classify_case", "verify_counts",
           "count_weights", "check_local_structure", "Q_ORDER_LIMIT"]

Q_ORDER_LIMIT = 16

# per in-scope label: the predicted l values, and the predicted k equalities
_PREDICTED = {
    "P_equals_Q": ({"l_b": 3}, ()),
    "case_i": ({"l_b": 3, "l_c": 3, "l_b0": 3}, ("k_b=k_c", "k_b=k_b0")),
    "case_ii": ({"l_b": 2, "l_c": 2}, ("k_b=k_c",)),
}

IN_SCOPE = tuple(_PREDICTED)


@dataclass
class ClassificationReport:
    group: PermGroup
    prime: int
    case_label: str | None
    strict_lt_threshold: bool
    evidence: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    local_structure: dict = field(default_factory=dict)
    fusion: FusionSystem | None = None

    @property
    def in_scope(self) -> bool:
        return self.case_label in IN_SCOPE


def verdict(ok: bool) -> str:
    """The report's word for a check's outcome."""
    return "pass" if ok else "fail"


def _central_in(h: PermGroup, g: PermGroup) -> bool:
    """h <= Z(g), tested on generators without building Z(g)."""
    return all(x in g and all(x * y == y * x for y in g.generators) for x in h.generators)


def _is_homocyclic_rank2(q: PermGroup, p: int) -> bool:
    if q.order == 1 or not q.is_abelian():
        return False
    inv = abelian_invariants(q)
    return len(inv) == 2 and inv[0] == inv[1] and p_part(inv[0], p) == inv[0]


def classify_case(group: PermGroup, p: int = 2,
                  strict_lt_threshold: bool = False) -> ClassificationReport:
    """Evidence portion of the report: hyperfocal data, control, case label.

    The case logic is specific to p = 2; for odd p only generic evidence is
    emitted and the label is None.  No seed steers anything: both hyperfocal
    methods are deterministic, and their agreement is a hard assertion.
    """
    fs = FusionSystem(group, p=p)
    report = ClassificationReport(group=group, prime=p, case_label=None,
                                  strict_lt_threshold=strict_lt_threshold,
                                  fusion=fs)
    sylow = fs.sylow
    hyp = fs.hyperfocal()
    q = hyp.subgroup
    report.evidence.update({
        "order": group.order,
        "degree": group.degree,
        "sylow_order": sylow.order,
        "hyperfocal_order": q.order,
        "hyperfocal_invariants": (list(hyp.invariants)
                                  if hyp.invariants is not None else None),
        # fs.hyperfocal raises MethodDisagreement unless the two methods agree
        "hyperfocal_methods_agree": True,
    })
    if p != 2:
        return report

    if q.order == 1:
        report.case_label = "nilpotent"
        return report

    homocyclic = _is_homocyclic_rank2(q, p)
    report.evidence["hyperfocal_homocyclic_rank2"] = homocyclic
    if not homocyclic:
        report.case_label = "out_of_scope_not_homocyclic"
        return report

    if same_subgroup(q, sylow):
        report.case_label = "P_equals_Q"
        report.evidence["controlled_by_sylow_normalizer"] = True
        report.evidence["q_in_center_of_sylow"] = True
        return report

    essentials = fs.essential_classes()
    report.evidence["controlled_by_sylow_normalizer"] = not essentials
    q_central = _central_in(q, sylow)
    report.evidence["q_in_center_of_sylow"] = q_central

    if not essentials:
        report.case_label = "case_i" if q_central else "out_of_scope_Q_not_central"
        return report

    report.evidence["essential_class_count"] = len(essentials)
    if len(essentials) != 1:
        raise InternalInconsistency(
            "a non-controlled block with homocyclic rank-2 hyperfocal subgroup "
            f"must have exactly one essential class, found {len(essentials)}")
    ess = essentials[0]
    s = ess.representative
    q0 = omega1(q, p)
    s_is_cpq0 = same_subgroup(s, centralizer(sylow, q0))
    index = sylow.order // s.order
    q_in_zs = _central_in(q, s)
    report.evidence.update({
        "essential_order": s.order,
        "essential_automizer_order": ess.automizer.order,
        "essential_automizer_is_s3": ess.automizer.is_symmetric_3,
        "essential_is_centralizer_of_q0": s_is_cpq0,
        "sylow_essential_index": index,
        "q_in_center_of_essential": q_in_zs,
        "q_order": q.order,
    })
    if not (s_is_cpq0 and index == 2):
        raise InternalInconsistency(
            "essential subgroup geometry contradicts the homocyclic hyperfocal "
            "structure theory (S != C_P(Q0) or |P:S| != 2)")
    if not q_in_zs:
        report.case_label = "out_of_scope_Q_not_central"
        return report
    limit_ok = q.order < Q_ORDER_LIMIT if strict_lt_threshold else q.order <= Q_ORDER_LIMIT
    report.case_label = "case_ii" if limit_ok else "out_of_scope_Q_too_large"
    return report


# ---------------------------------------------------------------------------
# counting verification


def verify_counts(report: ClassificationReport) -> ClassificationReport:
    """Measure k and l for the principal block and its local correspondents.

    c is the principal block of N_G(Q) and b0 the principal block of
    N_G(P); for principal blocks these are the Brauer correspondents, and
    the induction is verified explicitly.  Failures become verdict entries
    rather than exceptions.
    """
    if not report.in_scope:
        return report
    group = report.group
    p = report.prime
    fs = report.fusion
    q = fs.hyperfocal().subgroup
    b = principal_block(group, p)
    n_q = normalizer(group, q)
    n_p = normalizer(group, fs.sylow)
    c = principal_block(n_q, p)
    b0 = principal_block(n_p, p)
    report.measured.update({
        "k_b": b.k, "l_b": b.l,
        "k_c": c.k, "l_c": c.l,
        "k_b0": b0.k, "l_b0": b0.l,
        "normalizer_q_order": n_q.order,
        "normalizer_p_order": n_p.order,
    })
    ind_c = induce_principal_block(n_q, group, p)
    ind_b0 = induce_principal_block(n_p, group, p)
    report.verdicts["brauer_correspondent_c"] = verdict(
        ind_c is not None and ind_c.is_principal)
    report.verdicts["brauer_correspondent_b0"] = verdict(
        ind_b0 is not None and ind_b0.is_principal)

    l_values, k_equalities = _PREDICTED[report.case_label]
    report.predicted.update(l_values)
    if k_equalities:
        report.predicted["k_equalities"] = list(k_equalities)
    for key, value in l_values.items():
        report.verdicts[key] = verdict(report.measured[key] == value)
    for equality in k_equalities:
        left, right = equality.split("=")
        report.verdicts[equality] = verdict(report.measured[left] == report.measured[right])
    return report


# ---------------------------------------------------------------------------
# weights


def count_weights(group: PermGroup, p: int, blk: Block) -> int:
    """Number of weights of the block.

    A weight is a pair (R, theta): R a p-subgroup up to conjugacy and
    theta an irreducible character of N_G(R)/R of defect zero whose
    inflation's block in N_G(R) induces to blk.  Inflations are detected
    by kernel containment, so no quotient tables are needed.  Each such
    character is induced directly from its central character
    (blocks.brauer_induce), so no block distribution of N_G(R) is built;
    N_G(1) is G's own handle, and induction from it returns the character's
    own block.  Only radical R, with R = O_p(N_G(R)), can carry a weight.
    The radical test grows the Sylow subgroup of N_G(R) from N_P(R), with P
    the Sylow subgroup the classes R were enumerated in; N_P(R) is most
    often Sylow in N_G(R) already, so the climb takes no step.
    """
    sylow = sylow_subgroup(group, p)
    total = 0
    for r in p_subgroup_classes(group, p):
        n = normalizer(group, r)
        # N/R has a block of defect zero only if O_p(N/R) = 1 (Alperin 1987)
        if len(o_p_core(n, p, start=normalizer(sylow, r))) != r.order:
            continue
        tab_n = character_table(n)
        quotient_order = n.order // r.order
        target_nu = nu(quotient_order, p)
        at_r = tab_n.coords[:, [n.class_of(x) for x in r.generators]]
        for i in range(tab_n.n_classes):
            # inflation from N/R: R inside the kernel, chi(x) = chi(1) at R's
            # generators x, the coordinates (chi(1), 0, ..., 0)
            if (at_r[i, :, 0] != tab_n.degrees[i]).any() or at_r[i, :, 1:].any():
                continue
            if nu(tab_n.degrees[i], p) != target_nu:
                continue
            ind = brauer_induce(tab_n, i, group, p)
            if ind is not None and ind.char_indices == blk.char_indices:
                total += 1
    return total


# ---------------------------------------------------------------------------
# local structure checks


def check_local_structure(report: ClassificationReport) -> ClassificationReport:
    """Local decompositions expected of in-scope cases.

    Records pass/fail verdicts for: nilpotency of the principal block of
    the centralizer of Q0 = omega1(Q); Q0 central in P (controlled case)
    or the essential geometry (non-controlled case); and the odd-complement
    decomposition X = Q x| C_X(E) with Q = [Q, E] at X = P or X = S.
    """
    if not report.in_scope:
        return report
    group = report.group
    p = report.prime
    fs = report.fusion
    sylow = fs.sylow
    q = fs.hyperfocal().subgroup
    q0 = omega1(q, p)
    out = report.local_structure

    # centralizer of Q0 has nilpotent principal block: trivial hyperfocal there
    c_gq0 = centralizer(group, q0)
    local_fs = FusionSystem(c_gq0, p=p)
    out["centralizer_q0_block_nilpotent"] = verdict(
        local_fs.hyperfocal().subgroup.order == 1)

    if report.case_label in ("case_i", "P_equals_Q"):
        out["q0_in_center_of_sylow"] = verdict(_central_in(q0, sylow))
        site = sylow
    else:
        # the essential geometry as classify_case recorded it
        ev = report.evidence
        out["unique_essential"] = verdict(ev["essential_class_count"] == 1)
        out["essential_is_centralizer_of_q0"] = verdict(ev["essential_is_centralizer_of_q0"])
        out["sylow_essential_index_2"] = verdict(ev["sylow_essential_index"] == 2)
        out["essential_automizer_s3"] = verdict(ev["essential_automizer_is_s3"])
        site = fs.essential_classes()[0].representative

    e, fixed = fs.odd_complement_fixed_points(site)
    qset = q.element_set()
    inter = [x for x in fixed.elements() if x in qset and not x.is_identity()]
    product_order = q.order * fixed.order // (len(inter) + 1)
    out["q_meets_fixed_trivially"] = verdict(not inter)
    out["q_times_fixed_is_site"] = verdict(product_order == site.order)
    commutators = [x.inverse() * (x ** g)
                   for x in q.elements() for g in e.generators]
    gen_q = group.subgroup([c for c in commutators if not c.is_identity()])
    out["q_equals_commutator_with_complement"] = verdict(same_subgroup(gen_q, q))
    report.measured["odd_complement_order"] = e.order
    report.measured["complement_fixed_order"] = fixed.order
    return report
