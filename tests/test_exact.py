import itertools
import operator
import random
from fractions import Fraction

import pytest

from blockscope.exact import is_prime, nu, p_part, prime_factors, row_reduce
from blockscope.modp import GFq

sympy = pytest.importorskip("sympy")

RATIONAL = (operator.not_, lambda x: 1 / x, operator.mul, operator.sub)


# -- integer arithmetic


def test_prime_factors_match_sympy():
    for n in range(1, 2001):
        assert prime_factors(n) == sorted(sympy.factorint(n)), n


def test_nu_and_p_part_match_sympy():
    for n in range(1, 2001):
        factors = sympy.factorint(n)
        for p in (2, 3, 5, 7, 11, 13, 4, 6):
            want = sympy.multiplicity(p, n)
            assert nu(n, p) == want, (n, p)
            assert p_part(n, p) == p ** want, (n, p)
        for p, e in factors.items():
            assert nu(n, p) == e and p_part(n, p) == p ** e


def test_is_prime_matches_sympy():
    for n in range(-5, 2001):
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n, p", [(0, 2), (12, 1), (12, 0), (12, -3)])
def test_nu_rejects_values_where_it_is_undefined(n, p):
    with pytest.raises(ValueError):
        nu(n, p)


# -- row reduction


def random_rational_matrix(rng, rows, cols, rank):
    """A rows x cols matrix of small fractions with rank at most `rank`."""
    left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)]
            for _ in range(rows)]
    right = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def test_rank_matches_sympy_on_random_rational_matrices():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        a = random_rational_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        reduced, pivots = row_reduce(a, *RATIONAL)
        assert len(pivots) == sympy.Matrix(a).rank()
        assert sympy.Matrix(reduced) == sympy.Matrix(a).rref()[0]
        assert tuple(pivots) == sympy.Matrix(a).rref()[1]


def test_inverse_matches_sympy_on_random_rational_matrices():
    rng = random.Random(11)
    done = 0
    while done < 30:
        n = rng.randint(1, 5)
        a = random_rational_matrix(rng, n, n, n)
        if sympy.Matrix(a).det() == 0:
            continue
        aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
        reduced, pivots = row_reduce(aug, *RATIONAL)
        assert pivots == list(range(n))
        assert sympy.Matrix([row[n:] for row in reduced]) == sympy.Matrix(a).inv()
        done += 1


def test_rank_over_gf4_matches_brute_force():
    field = GFq(2, (1, 1, 1))   # GF(2)[y]/(y^2 + y + 1)
    elems = list(field.elements())
    ops = (lambda a: a == field.zero, field.inv, field.mul, field.sub)
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        a = [[rng.choice(elems) for _ in range(cols)] for _ in range(rows)]
        span = set()
        for coeffs in itertools.product(elems, repeat=rows):
            vec = [field.zero] * cols
            for c, row in zip(coeffs, a):
                vec = [field.add(v, field.mul(c, x)) for v, x in zip(vec, row)]
            span.add(tuple(vec))
        _, pivots = row_reduce(a, *ops)
        assert len(span) == 4 ** len(pivots)


def test_row_reduce_of_no_rows_has_rank_zero():
    assert row_reduce([], *RATIONAL) == ([], [])
