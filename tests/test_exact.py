import random

import numpy as np
import pytest

from blockscope.errors import InputError
from blockscope.exact import (PRIMALITY_BOUND, _rref_mod, dtype_for, is_prime, nu, p_part,
                              prime_factors)
from conftest import sympy_rref

sympy = pytest.importorskip("sympy")
GF = sympy.GF


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


def test_is_prime_matches_a_sieve_below_10_to_the_5():
    n = 10**5
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, int(n ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, n, d))
    assert [is_prime(k) for k in range(n)] == sieve


@pytest.mark.parametrize("n", [
    3215031751,                    # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,           # strong pseudoprime to the bases 2, ..., 23
    318665857834031151167461,      # psi_12: strong pseudoprime to the bases 2, ..., 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2**31 - 1, 2**61 - 1])
def test_is_prime_accepts_mersenne_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", [PRIMALITY_BOUND, 2**89 - 1])
def test_is_prime_refuses_past_the_proven_bound(n):
    with pytest.raises(InputError):
        is_prime(n)


@pytest.mark.parametrize("n, p", [(0, 2), (12, 1), (12, 0), (12, -3)])
def test_nu_rejects_values_where_it_is_undefined(n, p):
    with pytest.raises(ValueError):
        nu(n, p)


# -- elimination mod ell


def random_matrix(rng, rows, cols, rank, ell):
    """A rows x cols matrix mod ell of rank at most `rank`, as Python ints."""
    left = [[rng.randrange(ell) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(ell) for _ in range(cols)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank)) % ell
             for j in range(cols)] for i in range(rows)]


def as_array(a, ell):
    """int64 while the elimination's products fit, else Python integers."""
    return np.array(a, dtype=dtype_for(ell * ell))


ELLS = [2, 3, 101, 2**31 - 1, 2**61 - 1]


def test_rref_mod_matches_sympy_domain_matrix():
    # past 2^31 the arrays hold Python integers
    rng = random.Random(7)
    for ell in ELLS:
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)), ell)
            reduced, pivots = _rref_mod(as_array(a, ell), ell)
            assert (reduced.tolist(), pivots) == sympy_rref(a, ell)


def test_inverse_mod_p_matches_sympy():
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(11)
    cases = [(ell, n) for ell in ELLS for n in range(1, 6) for _ in range(4)]
    for ell, n in cases:
        a = random_matrix(rng, n, n, n, ell)
        dm = DomainMatrix([[GF(ell)(x) for x in row] for row in a], (n, n), GF(ell))
        if dm.rank() < n:
            continue
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
        reduced, pivots = _rref_mod(as_array(aug, ell), ell)
        assert pivots == list(range(n))
        inverse = [[int(x) % ell for x in row] for row in dm.inv().to_Matrix().tolist()]
        assert reduced[:, n:].tolist() == inverse


def test_rref_mod_of_no_rows_has_rank_zero():
    reduced, pivots = _rref_mod(np.zeros((0, 3), dtype=np.int64), 5)
    assert reduced.shape == (0, 3) and pivots == []
