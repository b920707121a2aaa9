"""Exact arithmetic in rings of cyclotomic integers.

A value is stored as an integer vector over the power basis
1, z, ..., z^(phi(m)-1) of Z[zeta_m] = Z[x]/(Phi_m), together with its
conductor m.  The power basis is an integral basis, so these are exactly
the algebraic integers of Q(zeta_m); character values all are.  Every
constructed value is normalized: reduced modulo the cyclotomic polynomial
and rebased into the smallest cyclotomic field that contains it (with m
never congruent to 2 mod 4, and m = 1 for integers).  Equality and hashing
therefore work on the canonical form.  Division is only by an integer and
only when it is exact (Cyclo.exact_div).  Character tables keep coordinate
arrays and build a Cyclo only for a canonical form (row order, JSON).

Arithmetic is exact throughout; there is no floating point anywhere.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .errors import InternalInconsistency
from .exact import prime_factors

__all__ = ["Cyclo", "zeta", "cyclotomic_polynomial"]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending degree: Phi_1 = x - 1, and for a
    prime p and m = p n, Phi_m(x) = Phi_n(x^p) if p | n, else
    Phi_n(x^p) / Phi_n(x): one exact division per distinct prime of m."""
    if m == 1:
        return (-1, 1)
    p = prime_factors(m)[0]
    low = cyclotomic_polynomial(m // p)
    high = [0] * ((len(low) - 1) * p + 1)
    high[::p] = low
    return tuple(high if m // p % p == 0 else _poly_divide_exact(high, low))


def _poly_divide_exact(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    if any(num):
        raise InternalInconsistency("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def _phi(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


@lru_cache(maxsize=None)
def _power_basis_rows(m: int) -> tuple:
    """Row k = coordinates of x^k mod Phi_m, for k in range(m)."""
    phi = _phi(m)
    poly = cyclotomic_polynomial(m)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1}) since Phi is monic
    top = tuple(-c for c in poly[:phi])
    rows = []
    for k in range(phi):
        rows.append(tuple(1 if i == k else 0 for i in range(phi)))
    for k in range(phi, m):
        prev = rows[k - 1]
        shifted = (0,) + prev[:phi - 1]
        carry = prev[phi - 1]
        rows.append(tuple(s + carry * t for s, t in zip(shifted, top)))
    return tuple(rows)


def _reduce_exponent_dict(m: int, expcoeffs: dict) -> tuple:
    phi = _phi(m)
    rows = _power_basis_rows(m)
    out = [0] * phi
    for e, c in expcoeffs.items():
        if c == 0:
            continue
        row = rows[e % m]
        for i in range(phi):
            if row[i]:
                out[i] += c * row[i]
    return tuple(out)


@lru_cache(maxsize=None)
def _galois_exponents(m: int, d: int) -> tuple[int, ...]:
    """Residues a mod m, a = 1 mod d, gcd(a, m) = 1, a != 1."""
    return tuple(a for a in range(1 + d, m, d) if math.gcd(a, m) == 1)


class Cyclo:
    """A cyclotomic integer in canonical (minimal-conductor) form."""

    __slots__ = ("m", "coeffs", "_hash")

    def __init__(self, m: int, coeffs, _normalized: bool = False):
        if _normalized:
            self.m = m
            self.coeffs = coeffs
        else:
            mm, cc = _normalize(m, tuple(coeffs))
            self.m = mm
            self.coeffs = cc
        self._hash = None

    # -- constructors

    @staticmethod
    def integer(n: int) -> "Cyclo":
        return Cyclo(1, (operator.index(n),), _normalized=True)

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo.integer(0)

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo.integer(1)

    @staticmethod
    def from_exponents(m: int, expcoeffs: dict) -> "Cyclo":
        """sum c zeta_m^e over the items e: c, for integers c."""
        return Cyclo(m, _reduce_exponent_dict(m, expcoeffs))

    # -- predicates and accessors

    def key(self):
        return (self.m, self.coeffs)

    # -- arithmetic

    def _lift(self, m: int) -> tuple:
        """Coordinates in the power basis of Q(zeta_m), for self.m dividing m."""
        if m == self.m:
            return self.coeffs
        if self.m == 1:
            return self.coeffs + (0,) * (_phi(m) - 1)
        step = m // self.m
        return _reduce_exponent_dict(m, {k * step: c for k, c in enumerate(self.coeffs)})

    def __add__(self, other):
        other = _coerce(other)
        # adding an integer shifts the constant coordinate; the conductor
        # cannot change, so normalization is unnecessary
        if other.m == 1:
            if self.m == 1:
                return Cyclo(1, (self.coeffs[0] + other.coeffs[0],), _normalized=True)
            return Cyclo(self.m, (self.coeffs[0] + other.coeffs[0],) + self.coeffs[1:],
                         _normalized=True)
        if self.m == 1:
            return other.__add__(self)
        m = math.lcm(self.m, other.m)
        a, b = self._lift(m), other._lift(m)
        return Cyclo(m, tuple(x + y for x, y in zip(a, b)))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Cyclo(self.m, tuple(-c for c in self.coeffs), _normalized=True)

    def __sub__(self, other):
        return self.__add__(-_coerce(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = _coerce(other)
        # integer scalars rescale the coordinates without changing the field
        if other.m == 1:
            c = other.coeffs[0]
            if self.m == 1:
                return Cyclo(1, (self.coeffs[0] * c,), _normalized=True)
            if c == 0:
                return Cyclo.zero()
            return Cyclo(self.m, tuple(x * c for x in self.coeffs), _normalized=True)
        if self.m == 1:
            return other.__mul__(self)
        m = math.lcm(self.m, other.m)
        a, b = self._lift(m), other._lift(m)
        conv: dict[int, int] = {}
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                k = i + j
                if k in conv:
                    conv[k] += x * y
                else:
                    conv[k] = x * y
        return Cyclo(m, _reduce_exponent_dict(m, conv))

    def __rmul__(self, other):
        return self.__mul__(other)

    def exact_div(self, n: int) -> "Cyclo | None":
        """self / n when that is again an algebraic integer, else None.

        The power basis is an integral basis, so that is when n divides
        every coordinate.  Callers raise their own error on None.
        """
        if any(c % n for c in self.coeffs):
            return None
        return Cyclo(self.m, tuple(c // n for c in self.coeffs), _normalized=True)

    # -- canonical form plumbing

    def __eq__(self, other):
        if not isinstance(other, (Cyclo, int)):
            return NotImplemented
        other = _coerce(other)
        return self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.m, self.coeffs))
        return h

    def __repr__(self):
        if self.m == 1:
            return f"Cyclo({self.coeffs[0]})"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                terms.append(f"{c}*z{self.m}^{k}" if c != 1 else f"z{self.m}^{k}")
        return "Cyclo(" + (" + ".join(terms) or "0") + ")"

    def to_json(self):
        return {"conductor": self.m, "coeffs": [str(c) for c in self.coeffs]}


def zeta(m: int, k: int = 1) -> Cyclo:
    return Cyclo.from_exponents(m, {k % m: 1})


def _coerce(x) -> Cyclo:
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, int):
        return Cyclo.integer(x)
    raise TypeError(f"cannot coerce {x!r} to Cyclo")


def _normalize(m: int, vec: tuple) -> tuple:
    if len(vec) != _phi(m):
        raise ValueError("coefficient vector has wrong length")
    while m > 1 and any(vec[1:]):
        if m % 4 == 2:
            # Q(zeta_m) = Q(zeta_{m/2}) for odd m/2: zeta_m = -zeta_{m/2}^((m/2+1)/2)
            d = m // 2
            s = (d + 1) // 2
            exps = {}
            for k, c in enumerate(vec):
                if c == 0:
                    continue
                e = (k * s) % d
                exps[e] = exps.get(e, 0) + (c if k % 2 == 0 else -c)
            vec = _reduce_exponent_dict(d, exps)
            m = d
            continue
        for q in prime_factors(m):
            d = m // q
            if all(_galois_fixes(m, a, vec) for a in _galois_exponents(m, d)):
                vec = _rebase(m, q, vec)
                m = d
                break
        else:
            return m, tuple(vec)
    return 1, (vec[0],)


def _rebase(m: int, q: int, vec: tuple) -> tuple:
    """Coordinates in Z[zeta_d], d = m / q, of a value v of Z[zeta_m] fixed
    by Gal(Q(zeta_m)/Q(zeta_d)): v = Tr(v) / [Q(zeta_m) : Q(zeta_d)].

    For q | d the degree is q and Tr(zeta_m^k) = q zeta_d^(k/q) when q | k,
    else 0.  For q not dividing d the degree is q - 1 and, with
    alpha = q^-1 mod d, Tr(zeta_m^k) = (q - 1 if q | k, else -1) zeta_d^(alpha k).
    """
    d = m // q
    if d % q == 0:
        degree = q
        terms = ((k // q, q * c) for k, c in enumerate(vec) if k % q == 0)
    else:
        degree = q - 1
        alpha = pow(q, -1, d)
        terms = ((alpha * k % d, (degree if k % q == 0 else -1) * c)
                 for k, c in enumerate(vec))
    trace: dict[int, int] = {}
    for e, c in terms:
        trace[e] = trace.get(e, 0) + c
    new = _reduce_exponent_dict(d, trace)
    # the trace divides exactly, and the rebased value reproduces vec
    if any(c % degree for c in new) or _reduce_exponent_dict(
            m, {j * q: c // degree for j, c in enumerate(new)}) != tuple(vec):
        raise InternalInconsistency(f"conductor rebase from {m} to {d} does not reproduce the value")
    return tuple(c // degree for c in new)


def _galois_fixes(m: int, a: int, vec) -> bool:
    out: dict[int, int] = {}
    for k, c in enumerate(vec):
        if c == 0:
            continue
        e = (k * a) % m
        out[e] = out.get(e, 0) + c
    return _reduce_exponent_dict(m, out) == tuple(vec)
