import pytest
from hypothesis import given, strategies as st

from blockscope.errors import ParseError
from blockscope.perms import Perm, parse_perm


def perms(degree):
    return st.permutations(range(degree)).map(lambda xs: Perm(tuple(xs)))


def test_identity_and_application():
    e = Perm.identity(5)
    assert e.is_identity() and e(3) == 3 and e.order() == 1


def test_composition_is_left_to_right():
    p = Perm.from_cycles(3, [[0, 1]])
    q = Perm.from_cycles(3, [[1, 2]])
    assert (p * q)(0) == q(p(0)) == 2


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


@given(perms(6), perms(6), perms(6))
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(perms(6))
def test_inverse_and_identity(a):
    e = Perm.identity(6)
    assert a * a.inverse() == e
    assert a * e == a and e * a == a


@given(perms(7), perms(7))
def test_conjugation_is_action(a, g):
    assert a ** g == g.inverse() * a * g
    assert (a ** g).order() == a.order()
    assert sorted(map(len, (a ** g).cycles())) == sorted(map(len, a.cycles()))


@given(st.integers(0, 9).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
def test_conjugator_is_conjugation(triple):
    a, b, g = triple
    conj = g.conjugator()
    # images[x] = g(a(g^-1(x))), straight from h ** g == g^-1 * h * g
    ginv = g.inverse().images
    assert conj(a).images == tuple(g.images[a.images[ginv[x]]] for x in range(a.degree))
    assert conj(a) == a ** g and conj(b) == b ** g


@given(perms(6), st.integers(-12, 12))
def test_power_matches_repeated_product(a, n):
    expected = Perm.identity(6)
    step = a if n >= 0 else a.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert a ** n == expected


def test_order_is_cycle_lcm():
    p = Perm.from_cycles(7, [[0, 1], [2, 3, 4]])
    assert p.order() == 6


def test_cycle_string_round_trip():
    p = Perm.from_cycles(6, [[0, 3, 1], [4, 5]])
    assert parse_perm(p.cycle_string(), 6) == p
    assert parse_perm("()", 4) == Perm.identity(4)
    assert parse_perm("(1,2)(3 4)", 4) == Perm.from_cycles(4, [[0, 1], [2, 3]])


@pytest.mark.parametrize("bad", ["(1,2", "(0,1)", "(1,2)(2,3)", "(1,9)", "xyz"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_perm(bad, 4)


def test_shift_and_extend():
    p = Perm.from_cycles(2, [[0, 1]])
    assert p.extend(4) == Perm.from_cycles(4, [[0, 1]])
    assert p.shift(2, 4) == Perm.from_cycles(4, [[2, 3]])


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_small_degree_products_and_identity(degree):
    e = Perm.identity(degree)
    assert e.is_identity() and (e * e).is_identity() and e * e == e
    if degree == 2:
        s = Perm((1, 0))
        assert not s.is_identity()
        assert s * e == e * s == s
        assert (s * s).is_identity()


@given(st.integers(0, 9).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_product_matches_tuple_definition(pair):
    a, b = pair
    assert (a * b).images == tuple(b.images[i] for i in a.images)
    assert (a * b).is_identity() == (a.images == b.inverse().images)
