"""Reduction of cyclotomic integers modulo a maximal ideal above p.

For a conductor m = p^a * m' (p not dividing m'), the residue field is
GF(p^f) with f the multiplicative order of p mod m'.  The ideal is pinned
by the lexicographically least irreducible factor g of Phi_{m'} over
GF(p): the field is realized as GF(p)[y]/(g) and zeta_m maps to the class
of y (so the p-power part of zeta collapses to 1).  A value's integer
power-basis coordinates reduce mod p, so the map is defined on all of
Z[zeta_m]; a p-integral quotient x / n is reduced by its caller as
(x / n_p) times the inverse of n_p' mod p.  Block partitions do not depend
on the factor choice; the test suite re-runs one group under a second
factor and asserts identical partitions.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import Cyclo
from .errors import InternalInconsistency
from .exact import p_part, prime_factors

__all__ = ["GFq", "ModPContext", "mod_p_context"]


class GFq:
    """GF(p^f) as GF(p)[y]/(modulus); elements are coefficient tuples."""

    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.modulus = tuple(c % p for c in modulus)
        if self.modulus[-1] != 1:
            raise InternalInconsistency(f"modulus {modulus} is not monic mod {p}")
        self.f = len(modulus) - 1
        self.size = p**self.f
        self.zero = (0,) * self.f
        self.one = tuple([1] + [0] * (self.f - 1)) if self.f else ()
        # reduction rows for y^f .. y^(2f-2)
        self._red = []
        top = tuple((-c) % p for c in self.modulus[:-1])
        cur = top
        self._red.append(cur)
        for _ in range(self.f - 2):
            cur = self._shift_reduce(cur, top)
            self._red.append(cur)

    def _shift_reduce(self, vec, top):
        carry = vec[-1]
        shifted = (0,) + vec[:-1]
        return tuple((s + carry * t) % self.p for s, t in zip(shifted, top))

    def scalar(self, c: int) -> tuple:
        out = [0] * self.f
        out[0] = c % self.p
        return tuple(out)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        f, p = self.f, self.p
        conv = [0] * (2 * f - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = [c % p for c in conv[:f]]
        for k in range(f, 2 * f - 1):
            c = conv[k] % p
            if c:
                row = self._red[k - f]
                for i in range(f):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def pow(self, a, n: int):
        n %= (self.size - 1) if any(a) else 1
        r = self.one
        q = a
        while n:
            if n & 1:
                r = self.mul(r, q)
            q = self.mul(q, q)
            n >>= 1
        return r

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero in GFq")
        return self.pow(a, self.size - 2)

    def element_order(self, a) -> int:
        if not any(a):
            raise ValueError("zero has no multiplicative order")
        n = self.size - 1
        order = n
        for q in prime_factors(n):
            while order % q == 0 and self.pow(a, order // q) == self.one:
                order //= q
        return order

    def elements(self):
        def rec(i):
            if i == self.f:
                yield ()
                return
            for rest in rec(i + 1):
                for c in range(self.p):
                    yield (c,) + rest
        return rec(0)


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
    lexicographically; this order pins the maximal-ideal choice.
    """
    if mprime == 1:
        return (((-1) % p, 1),)
    f = _mult_order(p, mprime)
    # bootstrap field: any irreducible polynomial of degree f
    boot = _find_irreducible(p, f)
    K = GFq(p, boot)
    gen = _find_generator(K)
    zeta = K.pow(gen, (K.size - 1) // mprime)
    _check_order(K, zeta, mprime)
    # Frobenius orbits on primitive residues give the irreducible factors
    prim = [j for j in range(1, mprime) if math.gcd(j, mprime) == 1]
    seen = set()
    factors = []
    for j in prim:
        if j in seen:
            continue
        orbit = []
        k = j
        while k not in orbit:
            orbit.append(k)
            seen.add(k)
            k = (k * p) % mprime
        # min poly = prod (y - zeta^k) over the orbit, computed in K
        poly = [K.one]
        for k in orbit:
            root = K.pow(zeta, k)
            new = [K.zero] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] = K.add(new[i + 1], c)
                new[i] = K.sub(new[i], K.mul(c, root))
            poly = new
        coeffs = []
        for c in poly:
            if any(c[1:]):
                raise InternalInconsistency(f"a factor of Phi_{mprime} is not over GF({p})")
            coeffs.append(c[0])
        factors.append(tuple(coeffs))
    factors.sort()
    return tuple(factors)


def _find_irreducible(p: int, f: int) -> tuple:
    if f == 1:
        return (0, 1)
    for code in range(p**f):
        coeffs = []
        c = code
        for _ in range(f):
            coeffs.append(c % p)
            c //= p
        poly = tuple(coeffs) + (1,)
        if _is_irreducible(p, poly):
            return poly
    raise InternalInconsistency("no irreducible polynomial found")  # pragma: no cover


def _is_irreducible(p: int, poly: tuple) -> bool:
    """Rabin's test for a monic poly of degree f: x^(p^f) = x mod poly, and
    gcd(x^(p^(f/q)) - x, poly) = 1 for every prime q | f."""
    f = len(poly) - 1
    if _polpow_x(p, poly, p**f) != (0, 1):
        return False
    for q in prime_factors(f):
        h = list(_polpow_x(p, poly, p**(f // q))) + [0]
        h[1] -= 1
        if not _coprime(p, poly, h):
            return False
    return True


def _coprime(p: int, a, b) -> bool:
    """gcd(a, b) = 1 over GF(p), for coefficient sequences, ascending degree."""
    a, b = _canonical_mod(p, a), _canonical_mod(p, b)
    while b:
        inv = pow(b[-1], -1, p)
        # a mod b, by long division
        while len(a) >= len(b):
            c = a[-1] * inv
            shift = len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] -= c * y
            a = _canonical_mod(p, a)
        a, b = b, a
    return len(a) == 1


def _canonical_mod(p: int, a) -> list:
    """Coefficients reduced mod p without trailing zeros; [] is 0."""
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _polpow_x(p: int, modulus: tuple, n: int) -> tuple:
    """x^n mod modulus over GF(p), returned trimmed."""
    f = len(modulus) - 1

    def mul(a, b):
        conv = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        # reduce
        for k in range(len(conv) - 1, f - 1, -1):
            c = conv[k]
            if c:
                conv[k] = 0
                for i in range(f + 1):
                    conv[k - f + i] = (conv[k - f + i] - c * modulus[i]) % p
        out = conv[:f]
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return tuple(out)

    result = (1,)
    base = (0, 1) if f > 1 else ((-modulus[0]) % p,)
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


def _check_order(K: GFq, a, order: int):
    if K.element_order(a) != order:
        raise InternalInconsistency(f"the image of zeta does not have order {order}")


def _find_generator(K: GFq) -> tuple:
    n = K.size - 1
    primes = prime_factors(n)
    for a in K.elements():
        if not any(a):
            continue
        if all(K.pow(a, n // q) != K.one for q in primes):
            return a
    raise InternalInconsistency("no multiplicative generator found")  # pragma: no cover


class ModPContext:
    """Ring homomorphism from p-integral cyclotomics of conductor | m to GF(p^f)."""

    def __init__(self, m: int, p: int, factor_index: int = 0):
        self.p = p
        self.m = m
        mprime = m // p_part(m, p)
        self.m_prime = mprime
        self.factors = _phi_factors_mod_p(mprime, p)
        if not 0 <= factor_index < len(self.factors):
            raise ValueError(f"factor index {factor_index} out of range")
        self.factor_index = factor_index
        self.field = GFq(p, self.factors[factor_index])
        if mprime == 1:
            self.zeta_image = self.field.one
        elif self.field.f == 1:
            # linear factor y - root: the class of y is the root itself
            self.zeta_image = ((-self.field.modulus[0]) % p,)
            _check_order(self.field, self.zeta_image, mprime)
        else:
            self.zeta_image = tuple([0, 1] + [0] * (self.field.f - 2))
            _check_order(self.field, self.zeta_image, mprime)
        # image of zeta_m^k depends only on k mod m'
        table = []
        cur = self.field.one
        for _ in range(mprime):
            table.append(cur)
            cur = self.field.mul(cur, self.zeta_image)
        self._zpow = table

    def reduce(self, x) -> tuple:
        """Image of a cyclotomic integer (or an int) in the residue field."""
        if isinstance(x, int):
            x = Cyclo.integer(x)
        if self.m % x.m != 0:
            raise ValueError(f"conductor {x.m} does not divide context conductor {self.m}")
        step = self.m // x.m
        p = self.p
        out = [0] * self.field.f
        for k, c in enumerate(x.coeffs):
            if c % p:
                for i, y in enumerate(self._zpow[(k * step) % self.m_prime]):
                    out[i] += c * y
        return tuple(c % p for c in out)

    def __repr__(self):
        return (f"ModPContext(m={self.m}, p={self.p}, "
                f"field=GF({self.p}^{self.field.f}), factor={self.factor_index})")


@lru_cache(maxsize=None)
def mod_p_context(m: int, p: int, factor_index: int = 0) -> ModPContext:
    return ModPContext(m, p, factor_index)
