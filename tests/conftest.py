"""Shared fixtures: catalog groups are session-scoped so expensive derived
data (tables, class lists, subgroup lattices) is computed once per run."""

from __future__ import annotations

import numpy as np
import pytest

from blockscope.cyclotomic import Cyclo
from blockscope.groups import normal_closure
from blockscope.recipes import (alternating, construct_group, cyclic, direct,
                                semidirect, symmetric, wreath)

Q44 = direct(cyclic(4), cyclic(4))
THETA_ROW = ["(5,6,7,8)", "(1,4,3,2)(5,8,7,6)"]
SWAP_ROW = ["(5,6,7,8)", "(1,2,3,4)"]

RECIPES = {
    "S4": symmetric(4),
    "S5": symmetric(5),
    "S6": symmetric(6),
    "A4": alternating(4),
    "A5": alternating(5),
    "D8": semidirect(cyclic(4), cyclic(2), [["(1,4,3,2)"]]),
    "Z6": cyclic(6),
    "L48": semidirect(Q44, cyclic(3), [THETA_ROW]),
    "G96": semidirect(Q44, symmetric(3), [SWAP_ROW, THETA_ROW]),
    "L48xZ2": direct(semidirect(Q44, cyclic(3), [THETA_ROW]), cyclic(2)),
    "A4xZ4": direct(alternating(4), cyclic(4)),
    "S4xZ2": direct(symmetric(4), cyclic(2)),
    "L96_Z6": semidirect(Q44, cyclic(6), [["(5,8,7,6)", "(1,2,3,4)(5,6,7,8)"]]),
    "K192": semidirect(Q44, direct(cyclic(2), symmetric(3)),
                       [["(1,4,3,2)", "(5,8,7,6)"], SWAP_ROW, THETA_ROW]),
    "Z4wrZ2": wreath(cyclic(4), cyclic(2)),
    "Z3wrZ2": wreath(cyclic(3), cyclic(2)),
    "S3xS3": direct(symmetric(3), symmetric(3)),
    "F56": semidirect(direct(direct(cyclic(2), cyclic(2)), cyclic(2)), cyclic(7),
                      [["(3,4)", "(5,6)", "(1,2)(3,4)"]]),
    "W384": semidirect(direct(cyclic(8), cyclic(8)), symmetric(3),
                       [["(9,10,11,12,13,14,15,16)", "(1,2,3,4,5,6,7,8)"],
                        ["(9,10,11,12,13,14,15,16)",
                         "(1,8,7,6,5,4,3,2)(9,16,15,14,13,12,11,10)"]]),
}

_built: dict = {}


def group(name: str):
    if name not in _built:
        _built[name] = construct_group(RECIPES[name])
    return _built[name]


@pytest.fixture(scope="session")
def groups():
    return group


# -- brute-force oracles (used only below the oracle cap of 5000)

ORACLE_CAP = 5000


def brute_centralizer_order(g, targets) -> int:
    assert g.order <= ORACLE_CAP
    return sum(1 for x in g.elements() if all(x * t == t * x for t in targets))


def brute_normalizer_order(g, h) -> int:
    assert g.order <= ORACLE_CAP
    hset = h.element_set()
    return sum(1 for x in g.elements()
               if all((t ** x) in hset for t in h.generators))


def brute_conjugator(g, a, b):
    assert g.order <= ORACLE_CAP
    aset, bset = a.element_set(), b.element_set()
    for x in g.elements():
        if frozenset(t ** x for t in aset) == bset:
            return x
    return None


def derived_subgroup(g):
    """G' as the normal closure of the commutators of G's generators."""
    gens = g.generators
    return normal_closure(g, [a.inverse() * b.inverse() * a * b
                              for i, a in enumerate(gens) for b in gens[i + 1:]])


def brute_class_count(g) -> int:
    assert g.order <= ORACLE_CAP
    elems = list(g.elements())
    seen = set()
    count = 0
    for x in elems:
        if x in seen:
            continue
        orbit = {y.inverse() * x * y for y in elems}
        seen |= orbit
        count += 1
    return count


def table_value(table, i, j) -> Cyclo:
    """Character i of the table at class j in canonical form, built from the
    table's coordinates: the per-value oracle for the array computations."""
    return Cyclo(table.exponent, tuple(table.coords[i, j].tolist()))


def sympy_rref(a, ell):
    """(rref rows, pivots) of the integer matrix a over GF(ell) by sympy's
    DomainMatrix: the oracle for the elimination mod ell."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    a = np.array(a, dtype=object)
    field = sympy.GF(ell)
    dm = DomainMatrix([[field(int(x)) for x in row] for row in a.tolist()], a.shape, field)
    reduced, pivots = dm.rref()
    return [[int(x) % ell for x in row] for row in reduced.to_Matrix().tolist()], list(pivots)
