import itertools
import random

import numpy as np
import pytest

from blockscope.cyclotomic import Cyclo, cyclotomic_polynomial, zeta
from blockscope.modp import _berlekamp, _mult_order, _phi_factors_mod_p, mod_p_context

sympy = pytest.importorskip("sympy")


def mul(ctx, a, b):
    """a b in the residue field: the coordinate row of b times the matrix of a."""
    return tuple(int(c) for c in np.array(b) @ ctx.regular(np.array(a)) % ctx.p)


def red(ctx, x):
    """The image of a Cyclo or an int, from its coordinates at its own conductor."""
    if isinstance(x, int):
        x = Cyclo.integer(x)
    return tuple(ctx.reduce(x.coeffs, x.m).tolist())


def power(ctx, a, n):
    out = (1,) + (0,) * (ctx.f - 1)
    for _ in range(n):
        out = mul(ctx, out, a)
    return out


def order(ctx, a):
    one = (1,) + (0,) * (ctx.f - 1)
    return next(n for n in range(1, ctx.p ** ctx.f) if power(ctx, a, n) == one)


def sympy_factors(poly, p):
    """The monic irreducible factors of poly over GF(p), as sorted
    ascending coefficient tuples over 0..p-1."""
    x = sympy.symbols("x")
    _, factors = sympy.Poly(list(reversed(poly)), x, modulus=p).factor_list()
    return sorted(tuple(int(c) % p for c in reversed(g.all_coeffs())) for g, _ in factors)


def test_gf4_context():
    ctx = mod_p_context(3, 2)
    assert ctx.f == 2
    assert order(ctx, red(ctx, zeta(3))) == 3


def test_p_power_part_collapses():
    ctx = mod_p_context(4, 2)
    assert ctx.f == 1
    assert red(ctx, zeta(4)) == (1,)


def test_conductor_12_factors_through_3():
    ctx = mod_p_context(12, 2)
    assert ctx.f == 2
    z3, z4, z12 = red(ctx, zeta(3)), red(ctx, zeta(4)), red(ctx, zeta(12))
    assert z4 == (1, 0)
    assert z12 == mul(ctx, z3, z4) == z3


def test_rational_reduction():
    ctx = mod_p_context(4, 2)
    assert red(ctx, Cyclo.integer(7)) == (1,)
    assert red(ctx, zeta(4) + zeta(4, 3)) == (0,)
    assert red(ctx, -3) == (1,)


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_irreducibility_matches_sympy(p, f):
    # Berlekamp finds one factor exactly for the irreducible polynomials,
    # and sympy's factors for every squarefree one
    x = sympy.symbols("x")
    for tail in itertools.product(range(p), repeat=f):
        poly = tail + (1,)
        sp = sympy.Poly(list(reversed(poly)), x, modulus=p)
        if sympy.degree(sympy.gcd(sp, sp.diff(x))) > 0:
            continue
        factors = _berlekamp(poly, p)
        assert (len(factors) == 1) == sp.is_irreducible, poly
        assert list(factors) == sympy_factors(poly, p), poly


@pytest.mark.parametrize("p,f", [(2, 4), (2, 6), (2, 8), (2, 12), (3, 4), (3, 6),
                                 (3, 12), (5, 4), (5, 6), (7, 3), (7, 6)])
def test_find_irreducible_matches_sympy(p, f):
    # the residue field of degree f at the least conductor that needs it
    m = next(m for m in itertools.count(2) if m % p and _mult_order(p, m) == f)
    ctx = mod_p_context(m, p)
    assert ctx.f == f and len(ctx.modulus) == f + 1 and ctx.modulus[-1] == 1
    assert ctx.modulus == sympy_factors(cyclotomic_polynomial(m), p)[0]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pinned_factor_is_sympys_least_factor(p):
    # the factors are sympy's: each passes sympy's irreducibility test and
    # their product is Phi_m mod p, so by unique factorization they are all
    # of them; below m = 40 they are also compared with sympy's factor list
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_from_int_poly, gf_irreducible_p, gf_mul
    for m in range(1, 130):
        if m % p == 0:
            continue
        factors = _phi_factors_mod_p(m, p)
        product = [1]
        for g in factors:
            assert gf_irreducible_p(list(reversed(g)), p, ZZ), (m, g)
            product = gf_mul(product, list(reversed(g)), p, ZZ)
        assert product == gf_from_int_poly(list(reversed(cyclotomic_polynomial(m))), p), m
        assert list(factors) == sorted(factors) and len(set(factors)) == len(factors)
        if m < 40:
            assert list(factors) == sympy_factors(cyclotomic_polynomial(m), p), m
        assert mod_p_context(m, p).modulus == factors[0], m


def test_reduction_is_ring_homomorphism():
    rng = random.Random(11)
    for m, p in [(12, 2), (15, 2), (24, 2), (12, 3)]:
        ctx = mod_p_context(m, p)
        for _ in range(1000):
            a = sum((zeta(m, rng.randrange(m)) * rng.randrange(-3, 4)
                     for _ in range(2)), Cyclo.zero())
            b = sum((zeta(m, rng.randrange(m)) * rng.randrange(-3, 4)
                     for _ in range(2)), Cyclo.zero())
            values = (a, b, a + b, a * b)
            # each value at its own (normalized) conductor and lifted to m,
            # the second all four in one contraction
            lifted = ctx.reduce([v._lift(m) for v in values], m).tolist()
            assert [red(ctx, v) for v in values] == list(map(tuple, lifted))
            assert red(ctx, a + b) == tuple(
                (x + y) % p for x, y in zip(red(ctx, a), red(ctx, b)))
            assert red(ctx, a * b) == mul(ctx, red(ctx, a), red(ctx, b))
        assert red(ctx, Cyclo.one()) == (1,) + (0,) * (ctx.f - 1)
        assert red(ctx, Cyclo.integer(p)) == (0,) * ctx.f


def test_reduce_refuses_a_foreign_conductor_or_a_wrong_length():
    ctx = mod_p_context(12, 2)
    with pytest.raises(ValueError, match="does not divide"):
        ctx.reduce([1] * 4, 5)
    with pytest.raises(ValueError):
        ctx.reduce([1, 0, 0], 12)


def test_factor_choice_is_pinned_and_enumerable():
    factors = _phi_factors_mod_p(15, 2)
    assert len(factors) == 2
    assert factors[0] < factors[1]
    ctx = mod_p_context(15, 2)
    assert ctx.modulus == factors[0] and ctx.f == 4
    assert red(ctx, zeta(15)) == (0, 1, 0, 0)


def test_zeta_image_power_table_consistency():
    ctx = mod_p_context(15, 2)
    y = red(ctx, zeta(15))
    for k in range(15):
        assert red(ctx, zeta(15, k)) == power(ctx, y, k)


def test_zeta_image_order_is_checked(monkeypatch):
    from blockscope import modp
    from blockscope.errors import InternalInconsistency
    # y^2 + y + 1 is a factor of Phi_3, not of Phi_9: y has order 3, not 9
    monkeypatch.setattr(modp, "_phi_factors_mod_p", lambda m, p: ((1, 1, 1),))
    with pytest.raises(InternalInconsistency, match="order 9"):
        modp.ModPContext(9, 2)


def test_berlekamp_factor_count_is_checked(monkeypatch):
    from blockscope import modp
    from blockscope.errors import InternalInconsistency
    # a factor list of the wrong degree is refused
    monkeypatch.setattr(modp, "_berlekamp", lambda g, p: ((1, 1), (1, 0, 1, 1)))
    with pytest.raises(InternalInconsistency, match="degree"):
        modp._phi_factors_mod_p.__wrapped__(5, 2)


@pytest.mark.parametrize("m, p, f", [(3, 2, 2), (7, 2, 3), (5, 2, 4), (8, 3, 2), (3, 5, 2)])
def test_frobenius_matrix_is_the_p_th_power(m, p, f):
    # GF(4), GF(8), GF(16), GF(9) and GF(25): every x, its p-th power by products
    ctx = mod_p_context(m, p)
    assert ctx.f == f
    for x in itertools.product(range(p), repeat=f):
        got = tuple(int(c) for c in np.array(x) @ ctx.frobenius % p)
        assert got == power(ctx, x, p), x
