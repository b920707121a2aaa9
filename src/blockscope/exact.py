"""Exact helpers shared by every layer.

Integer arithmetic (distinct prime factors, p-adic valuations and p-parts,
primality) and one Gauss-Jordan elimination over an exact field, which the
caller describes by its zero test, inverse, product and difference.  There
is no floating point.
"""

from __future__ import annotations

__all__ = ["prime_factors", "nu", "p_part", "is_prime", "row_reduce"]


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
    return n >= 2 and prime_factors(n) == [n]


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


def row_reduce(rows, is_zero, inv, mul, sub):
    """Reduced row echelon form over an exact field.

    Returns (rows, pivot columns): the first len(pivots) returned rows are
    the reduced basis of the row space, the rest are zero.  Elimination
    stops once every row holds a pivot.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        if rank == len(rows):
            break
        piv = next((r for r in range(rank, len(rows)) if not is_zero(rows[r][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale = inv(rows[rank][col])
        rows[rank] = [mul(v, scale) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and not is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [sub(a, mul(f, b)) for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots
