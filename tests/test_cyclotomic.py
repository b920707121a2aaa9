import pytest
from hypothesis import given, settings, strategies as st

from blockscope.cyclotomic import Cyclo, _poly_divide_exact, cyclotomic_polynomial, zeta


def cyclos():
    def build(m, entries):
        total = Cyclo.zero()
        for k, c in entries:
            total = total + zeta(m, k) * c
        return total
    return st.builds(
        build,
        st.sampled_from([1, 3, 4, 5, 8, 12]),
        st.lists(st.tuples(st.integers(0, 11), st.integers(-6, 6)), min_size=0, max_size=4),
    )


def conjugate(v):
    """The complex conjugate: zeta_m^k -> zeta_m^-k on every term."""
    return Cyclo.from_exponents(v.m, {(-k) % v.m: c for k, c in enumerate(v.coeffs)})


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _cyclotomic_by_divisors(m, known):
    """The oracle: x^m - 1 divided by Phi_d for every proper divisor d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divide_exact(num, known[d])
    return tuple(num)


def test_prime_recurrence_matches_the_divisor_quotient():
    known = {}
    for m in range(1, 501):
        known[m] = _cyclotomic_by_divisors(m, known)
        assert cyclotomic_polynomial(m) == known[m], m


def test_roots_of_unity_relations():
    assert zeta(4) * zeta(4) == Cyclo.integer(-1)
    assert zeta(3) + zeta(3, 2) == Cyclo.integer(-1)
    assert zeta(6) == -zeta(3, 2)
    assert zeta(2) == Cyclo.integer(-1)
    z8 = zeta(8)
    sqrt2 = z8 + conjugate(z8)
    assert sqrt2 * sqrt2 == Cyclo.integer(2)


def test_conductor_minimization():
    assert zeta(12, 4).m == 3
    assert (zeta(12, 3)).m == 4
    assert (zeta(5) * zeta(5, 4)).m == 1
    assert (zeta(8) * zeta(8, 7)) == Cyclo.one()


def test_golden_ratio_square():
    phi = 1 + zeta(5) + zeta(5, 4)           # (1 + sqrt 5) / 2
    assert phi * phi == phi + 1


@settings(max_examples=60, deadline=None)
@given(cyclos(), cyclos())
def test_add_sub_inverse(a, b):
    assert (a + b) - b == a


@settings(max_examples=60, deadline=None)
@given(cyclos())
def test_mul_one(a):
    assert a * Cyclo.one() == a
    assert a * Cyclo.zero() == Cyclo.zero()


@settings(max_examples=40, deadline=None)
@given(cyclos(), cyclos(), cyclos())
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


# (d, q): m = d q has q exactly dividing it when q does not divide d, and
# q^2 dividing it when q does; m = 2 mod 4 and d = 2 mod 4 are both covered
_SUBFIELDS = [(1, 3), (2, 3), (3, 2), (5, 3), (7, 2), (3, 5), (15, 2), (10, 7), (12, 5),
              (2, 2), (4, 2), (3, 3), (6, 3), (5, 5), (9, 3), (12, 2), (20, 2), (14, 7)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_SUBFIELDS).flatmap(lambda dq: st.tuples(
    st.just(dq), st.dictionaries(st.integers(0, dq[0] - 1), st.integers(-5, 5), max_size=6))))
def test_from_exponents_is_independent_of_the_ambient_field(case):
    (d, q), exps = case
    m = d * q
    assert Cyclo.from_exponents(m, {k * q: c for k, c in exps.items()}) == \
        Cyclo.from_exponents(d, exps)


def test_conjugation_is_an_involution_and_hom():
    a = zeta(12) + 3
    b = zeta(12, 5) * 2
    assert conjugate(conjugate(a)) == a
    assert conjugate(a * b) == conjugate(a) * conjugate(b)
    assert conjugate(zeta(4)) == zeta(4, 3)
    assert conjugate(Cyclo.integer(5)) == 5


def test_integrality():
    assert ((zeta(5) + 2) * 6).exact_div(3) == (zeta(5) + 2) * 2
    assert (zeta(5) * 3).exact_div(2) is None
    assert Cyclo.integer(7).exact_div(7) == Cyclo.one()
    assert Cyclo.zero().exact_div(5) == Cyclo.zero()
    with pytest.raises(TypeError):
        Cyclo.integer(0.5)


def test_hash_and_eq_canonical():
    assert hash(zeta(3) * zeta(3)) == hash(zeta(3, 2))
    assert zeta(12, 2) == zeta(6)           # conductor drops to 3 on both sides
    assert Cyclo.integer(2) == 2
