import itertools
import random

import pytest

from blockscope.cyclotomic import Cyclo, zeta
from blockscope.modp import _find_irreducible, _is_irreducible, mod_p_context


def test_gf4_context():
    ctx = mod_p_context(3, 2)
    assert ctx.field.size == 4
    img = ctx.reduce(zeta(3))
    assert ctx.field.element_order(img) == 3


def test_p_power_part_collapses():
    ctx = mod_p_context(4, 2)
    assert ctx.field.size == 2
    assert ctx.reduce(zeta(4)) == ctx.field.one


def test_conductor_12_factors_through_3():
    ctx = mod_p_context(12, 2)
    assert ctx.field.size == 4
    z3, z4, z12 = ctx.reduce(zeta(3)), ctx.reduce(zeta(4)), ctx.reduce(zeta(12))
    assert z4 == ctx.field.one
    assert z12 == ctx.field.mul(z3, z4) == z3


def test_rational_reduction():
    ctx = mod_p_context(4, 2)
    assert ctx.reduce(Cyclo.integer(7)) == ctx.field.one
    assert ctx.reduce(zeta(4) + zeta(4, 3)) == ctx.field.zero
    assert ctx.reduce(-3) == ctx.field.one


def _sympy_irreducible(p, poly):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    return sympy.Poly(list(reversed(poly)), x, modulus=p).is_irreducible


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_irreducibility_matches_sympy(p, f):
    for tail in itertools.product(range(p), repeat=f):
        poly = tail + (1,)
        assert _is_irreducible(p, poly) == _sympy_irreducible(p, poly), poly


@pytest.mark.parametrize("p,f", [(2, 4), (2, 6), (2, 8), (2, 12), (3, 4), (3, 6),
                                 (3, 12), (5, 4), (5, 6), (7, 3), (7, 6)])
def test_find_irreducible_matches_sympy(p, f):
    # x^6 + x + 1 over GF(3) and x^12 + x^2 + 1 over GF(3) pass the test
    # without Rabin's gcd step, yet both are reducible
    poly = _find_irreducible(p, f)
    assert len(poly) == f + 1 and poly[-1] == 1
    assert _sympy_irreducible(p, poly)


def test_reduction_is_ring_homomorphism():
    rng = random.Random(11)
    for m, p in [(12, 2), (15, 2), (24, 2), (12, 3)]:
        ctx = mod_p_context(m, p)
        for _ in range(1000):
            a = sum((zeta(m, rng.randrange(m)) * rng.randrange(-3, 4)
                     for _ in range(2)), Cyclo.zero())
            b = sum((zeta(m, rng.randrange(m)) * rng.randrange(-3, 4)
                     for _ in range(2)), Cyclo.zero())
            assert ctx.reduce(a + b) == ctx.field.add(ctx.reduce(a), ctx.reduce(b))
            assert ctx.reduce(a * b) == ctx.field.mul(ctx.reduce(a), ctx.reduce(b))
        assert ctx.reduce(Cyclo.one()) == ctx.field.one
        assert ctx.reduce(Cyclo.integer(p)) == ctx.field.zero


def test_factor_choice_is_pinned_and_enumerable():
    ctx = mod_p_context(15, 2)
    assert len(ctx.factors) == 2
    assert ctx.factors[0] < ctx.factors[1]
    alt = mod_p_context(15, 2, factor_index=1)
    assert alt.field.size == ctx.field.size == 16
    # different ideals, same homomorphism laws
    assert ctx.reduce(zeta(15)) != ctx.field.zero
    assert alt.reduce(zeta(15)) != alt.field.zero


def test_zeta_image_power_table_consistency():
    ctx = mod_p_context(15, 2)
    for k in range(15):
        expected = ctx.field.pow(ctx.zeta_image, k)
        assert ctx.reduce(zeta(15, k)) == expected
