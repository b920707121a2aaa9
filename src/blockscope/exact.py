"""Exact helpers shared by every layer.

Integer arithmetic (distinct prime factors, p-adic valuations and p-parts,
primality) and the one Gauss-Jordan elimination, over a prime field
GF(ell) on numpy arrays: character tables split eigenspaces with it, blocks
take ranks mod ell and mod p with it, and the residue fields factor
cyclotomic polynomials with it.  Arrays hold int64 while every partial sum
stays below INT64_PRODUCT_LIMIT and Python integers (object arrays) above
it.  There is no floating point.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = ["prime_factors", "nu", "p_part", "is_prime", "INT64_PRODUCT_LIMIT", "dtype_for",
           "PRIMALITY_BOUND"]

# Partial sums of exact integer array products stay below this in int64.
INT64_PRODUCT_LIMIT = 2**62

# psi_13: below it, Miller-Rabin to the 13 prime bases 2, ..., 41 proves
# primality (Sorenson and Webster, Math. Comp. 86, 2017).
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def dtype_for(bound: int):
    """The array dtype for exact sums below `bound`: int64 under
    INT64_PRODUCT_LIMIT, Python integers (object arrays) from there on."""
    return np.int64 if bound < INT64_PRODUCT_LIMIT else object


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending (empty for n <= 1)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, ..., 41: exact below PRIMALITY_BOUND,
    InputError from there on."""
    if n >= PRIMALITY_BOUND:
        raise InputError(f"{n} is past the primality bound {PRIMALITY_BOUND}")
    if n < 2 or n in _WITNESSES:
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1   # 2^s exactly divides n - 1
    d = (n - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nu(n: int, p: int) -> int:
    """The exponent of p in the nonzero integer n, for p >= 2."""
    if n == 0 or p < 2:
        raise ValueError(f"nu({n}, {p}) is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_part(n: int, p: int) -> int:
    """The largest power of p dividing the nonzero integer n."""
    return p ** nu(n, p)


def _rref_mod(a: np.ndarray, ell: int):
    """(reduced row echelon form of a mod ell, pivot columns).

    Each pivot clears its column with one rank-one update over the columns
    from the pivot on; the columns before it are already zero in its row.
    An update adds products of two residues, so pass an array of
    dtype_for(ell^2).
    """
    a = a % ell
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, ell) % ell
        f = a[:, c].copy()
        f[r] = 0
        a[:, c:] = (a[:, c:] - np.outer(f, a[r, c:])) % ell
        pivots.append(c)
        r += 1
    return a, pivots


def _nullspace_mod(a: np.ndarray, ell: int):
    """(basis of the kernel {x : a x = 0} mod ell, the free columns): from
    the one rref of a, a row per non-pivot column c, 1 at c, 0 at the other
    free columns and minus rref column c at the pivots."""
    r, pivots = _rref_mod(a.copy(), ell)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), a.shape[1]), dtype=a.dtype)
    basis[np.arange(len(free)), free] = 1
    if pivots:
        basis[:, pivots] = -r[:len(pivots), free].T % ell
    return basis, free
