"""Reduction of cyclotomic integers modulo a maximal ideal above p.

For a conductor m = p^a * m' (p not dividing m'), the residue field is
GF(p^f) with f the multiplicative order of p mod m'.  The ideal is pinned
by the lexicographically least monic irreducible factor g of Phi_{m'} over
GF(p), found by Berlekamp's algorithm (Bell Syst. Tech. J. 46, 1967): the
field is GF(p)[y]/(g) and zeta_m maps to the class of y (so the p-power
part of zeta collapses to 1).  A field element is the vector of its f
coordinates in the basis 1, y, ..., y^(f-1), so arrays of them are integer
arrays: products are contractions with one multiplication tensor, and the
Frobenius x -> x^p, which is GF(p)-linear, is one f x f matrix.  Reduction
contracts power-basis coordinates mod p with the images of the basis, one
product per array, so it is defined on all of Z[zeta_m]; a p-integral
quotient x / n is reduced by its caller as (x / n_p) times the inverse of
n_p' mod p.  Block partitions do not depend on the factor choice: the
Galois group of Q(zeta_m) permutes the ideals above p, and the test suite
asserts identical partitions under every Galois twist of one group's values.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cyclotomic import _phi, cyclotomic_polynomial
from .errors import InternalInconsistency
from .exact import _nullspace_mod, dtype_for, p_part

__all__ = ["ModPContext", "mod_p_context"]


def _mult_order(p: int, m: int) -> int:
    if m == 1:
        return 1
    o, v = 1, p % m
    while v != 1:
        v = (v * p) % m
        o += 1
    return o


@lru_cache(maxsize=None)
def _phi_factors_mod_p(mprime: int, p: int) -> tuple:
    """All monic irreducible factors of Phi_{m'} over GF(p), sorted.

    Factors are coefficient tuples (ascending degree) over 0..p-1, sorted
    lexicographically; this order pins the maximal-ideal choice.  There
    must be phi(m') / f of them, each of degree f.
    """
    f = _mult_order(p, mprime)
    phi = cyclotomic_polynomial(mprime)
    factors = _berlekamp(phi, p)
    if len(factors) * f != len(phi) - 1 or any(len(g) != f + 1 for g in factors):
        raise InternalInconsistency(
            f"Phi_{mprime} mod {p} does not split into factors of degree {f}")
    return factors


def _berlekamp(g, p: int) -> tuple:
    """The monic irreducible factors of the monic squarefree g over GF(p),
    as sorted coefficient tuples.

    The v in GF(p)[y]/(g) with v^p = v form the kernel of Q - I, row i of Q
    being y^(p i) mod g; its dimension is the number of factors, and v is
    a constant mod each of them.  Where v is not constant mod a product h
    of factors, gcd(h, (v + s)^e - 1) for e = (p - 1) / 2 (e = 1 for
    p = 2) splits h for some s in GF(p): for p > 3 exactly where v + s is
    a nonzero square, for p <= 3 exactly where v + s = 1.
    """
    g = _trim(g, p)
    d = len(g) - 1
    yp = _poly_powmod([0, 1], p, g, p)
    rows, row = [], [1]
    for _ in range(d):
        rows.append(row + [0] * (d - len(row)))
        row = _poly_mulmod(row, yp, g, p)
    q = np.array(rows, dtype=dtype_for(p * p))
    kernel, _ = _nullspace_mod((q - np.eye(d, dtype=np.int64)).T % p, p)
    e = max(1, (p - 1) // 2)
    factors = [g]
    for v in kernel.tolist():
        for s in range(p):
            movable = [h for h in factors if len(_poly_divmod(v, h, p)[1]) > 1]
            if not movable:
                break
            w = _poly_powmod([v[0] + s] + v[1:], e, g, p) or [0]
            w[0] -= 1
            for h in movable:
                c = _poly_gcd(h, w, p)
                if 1 < len(c) < len(h):
                    factors.remove(h)
                    factors += [c, _poly_divmod(h, c, p)[0]]
    return tuple(sorted(tuple(h) for h in factors))


# polynomials over GF(p): coefficient lists, ascending degree, no trailing
# zeros ([] is 0)

def _trim(a, p: int) -> list:
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a, b, p: int):
    """(quotient, remainder) of a by the trimmed nonzero b."""
    a = _trim(a, p)
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + len(b) - 1] * inv % p
        for j, y in enumerate(b):
            a[i + j] -= c * y
    return _trim(q, p), _trim(a[:len(b) - 1], p)


def _poly_mulmod(a, b, g, p: int) -> list:
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _poly_divmod(prod, g, p)[1]


def _poly_powmod(a, n: int, g, p: int) -> list:
    result, a = [1], _poly_divmod(a, g, p)[1]
    while n:
        if n & 1:
            result = _poly_mulmod(result, a, g, p)
        a = _poly_mulmod(a, a, g, p)
        n >>= 1
    return result


def _poly_gcd(a, b, p: int) -> list:
    """The monic gcd of a and b, not both 0."""
    a, b = _trim(a, p), _trim(b, p)
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


class ModPContext:
    """Ring homomorphism from cyclotomic integers of conductor | m onto
    GF(p^f) = GF(p)[y]/(modulus)."""

    def __init__(self, m: int, p: int):
        self.p = p
        self.m = m
        mprime = m // p_part(m, p)
        self.m_prime = mprime
        self.modulus = _phi_factors_mod_p(mprime, p)[0]
        f = self.f = len(self.modulus) - 1
        # y^k mod modulus for k up to m' and 2f - 2, one shift by y per step
        top = [-c % p for c in self.modulus[:-1]]
        powers = [[1] + [0] * (f - 1)]
        for _ in range(max(mprime, 2 * f - 2)):
            v = powers[-1]
            powers.append([(a + v[-1] * t) % p for a, t in zip([0] + v[:-1], top)])
        if powers[mprime] != powers[0] or powers[0] in powers[1:mprime]:
            raise InternalInconsistency(f"the image of zeta does not have order {mprime}")
        powers = np.array(powers, dtype=self.dtype(f))
        # row k is the image of zeta_m^k, which depends only on k mod m'
        self._zpow = powers[:mprime]
        # times[s, t] = y^(s + t): the product of a and b is sum a_s b_t times[s, t]
        span = np.arange(f)
        self.times = powers[span[:, None] + span]
        # row t is y^(p t): the coordinate row of x times it is x^p
        self.frobenius = self._zpow[[p * t % mprime for t in range(f)]]

    def dtype(self, terms: int):
        """The dtype for sums of `terms` products of two residues."""
        return dtype_for(terms * (self.p - 1) ** 2)

    def reduce(self, coords, conductor: int) -> np.ndarray:
        """Images in the residue field of the values whose power-basis
        coordinates in Z[zeta_c], c = conductor dividing m, run along the
        last axis of `coords`: one contraction mod p with the images of the
        power basis, sums of phi(c) products of two residues."""
        if self.m % conductor:
            raise ValueError(f"conductor {conductor} does not divide context conductor {self.m}")
        dtype = self.dtype(_phi(conductor))
        # zeta_c^k = zeta_m^(k m / c); a wrong coordinate count fails the product
        basis = self._zpow[np.arange(_phi(conductor)) * (self.m // conductor) % self.m_prime]
        return (np.asarray(coords) % self.p).astype(dtype) @ basis.astype(dtype) % self.p

    def regular(self, v: np.ndarray) -> np.ndarray:
        """The GF(p)-matrix of multiplication by each field element v[..., :]:
        row t holds y^t v, so the coordinate row of b times it is b v."""
        return np.tensordot(v, self.times, axes=([-1], [1])) % self.p

    def __repr__(self):
        return (f"ModPContext(m={self.m}, p={self.p}, "
                f"field=GF({self.p}^{self.f}), modulus={self.modulus})")


@lru_cache(maxsize=None)
def mod_p_context(m: int, p: int) -> ModPContext:
    return ModPContext(m, p)
