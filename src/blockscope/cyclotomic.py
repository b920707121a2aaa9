"""Exact arithmetic in cyclotomic fields.

A value is stored as a rational vector over the power basis
1, z, ..., z^(phi(m)-1) of Q(zeta_m) = Q[x]/(Phi_m), together with its
conductor m.  Every constructed value is normalized: reduced modulo the
cyclotomic polynomial and rebased into the smallest cyclotomic field that
contains it (with m never congruent to 2 mod 4, and m = 1 for rationals).
Equality and hashing therefore work on the canonical form.

Arithmetic is exact throughout; there is no floating point anywhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .exact import prime_factors, row_reduce

__all__ = ["Cyclo", "zeta", "cyclotomic_polynomial"]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending degree, computed by exact division."""
    if m == 1:
        return (-1, 1)
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divide_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_divide_exact(num, den):
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
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
    out = [Fraction(0)] * phi
    for e, c in expcoeffs.items():
        if c == 0:
            continue
        row = rows[e % m]
        for i in range(phi):
            if row[i]:
                out[i] += c * row[i]
    return tuple(out)


@lru_cache(maxsize=None)
def _rebase_solver(m: int, d: int):
    """Data expressing an invariant value of Q(zeta_m) in Q(zeta_d), d | m.

    Returns (pivot_rows, inverse_matrix, basis_columns) so that for a
    coordinate vector v the new coordinates are inverse_matrix @ v[pivot_rows],
    with basis_columns available for verification.
    """
    phi_d = _phi(d)
    step = m // d
    cols = tuple(_reduce_exponent_dict(m, {j * step: _F1}) for j in range(phi_d))
    # the first phi_d independent rows of the phi_m x phi_d matrix with these
    # columns are the pivot columns of its transpose
    _, pivots = row_reduce(cols, *_RATIONAL_FIELD)
    assert len(pivots) == phi_d, "power basis images are dependent"
    # invert the square submatrix on those rows by reducing [square | identity]
    aug = [[col[i] for col in cols] + [Fraction(int(i == k)) for k in pivots]
           for i in pivots]
    reduced, _ = row_reduce(aug, *_RATIONAL_FIELD)
    return tuple(pivots), tuple(tuple(r[phi_d:]) for r in reduced), cols


@lru_cache(maxsize=None)
def _galois_exponents(m: int, d: int) -> tuple[int, ...]:
    """Residues a mod m, a = 1 mod d, gcd(a, m) = 1, a != 1."""
    return tuple(a for a in range(1 + d, m, d) if math.gcd(a, m) == 1)


_F0 = Fraction(0)
_F1 = Fraction(1)
# zero test, inverse, product and difference of Q, for row_reduce
_RATIONAL_FIELD = (operator.not_, lambda x: 1 / x, operator.mul, operator.sub)


class Cyclo:
    """An element of a cyclotomic field in canonical (minimal-conductor) form."""

    __slots__ = ("m", "coeffs", "_hash")

    def __init__(self, m: int, coeffs, _normalized: bool = False):
        if _normalized:
            self.m = m
            self.coeffs = coeffs
        else:
            cc = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
            mm, cc = _normalize(m, cc)
            self.m = mm
            self.coeffs = cc
        self._hash = None

    # -- constructors

    @staticmethod
    def rational(q) -> "Cyclo":
        return Cyclo(1, (Fraction(q),), _normalized=True)

    @staticmethod
    def zero() -> "Cyclo":
        return Cyclo.rational(0)

    @staticmethod
    def one() -> "Cyclo":
        return Cyclo.rational(1)

    @staticmethod
    def from_exponents(m: int, expcoeffs: dict) -> "Cyclo":
        vec = _reduce_exponent_dict(m, {e: Fraction(c) for e, c in expcoeffs.items()})
        return Cyclo(m, vec)

    # -- predicates and accessors

    def is_zero(self) -> bool:
        return self.m == 1 and self.coeffs[0] == 0

    def is_integral(self) -> bool:
        """True when the value is an algebraic integer (integer coordinates)."""
        return all(c.denominator == 1 for c in self.coeffs)

    def key(self):
        return (self.m, self.coeffs)

    # -- arithmetic

    def _lift(self, m: int) -> tuple:
        """Coordinates in the power basis of Q(zeta_m), for self.m dividing m."""
        if m == self.m:
            return self.coeffs
        if self.m == 1:
            return self.coeffs + (_F0,) * (_phi(m) - 1)
        step = m // self.m
        return _reduce_exponent_dict(m, {k * step: c for k, c in enumerate(self.coeffs)})

    def __add__(self, other):
        other = _coerce(other)
        # adding a rational shifts the constant coordinate; the conductor
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
        # rational scalars rescale the coordinates without changing the field
        if other.m == 1:
            c = other.coeffs[0]
            if self.m == 1:
                return Cyclo(1, (self.coeffs[0] * c,), _normalized=True)
            if c == 0:
                return Cyclo(1, (_F0,), _normalized=True)
            return Cyclo(self.m, tuple(x * c for x in self.coeffs), _normalized=True)
        if self.m == 1:
            return other.__mul__(self)
        m = math.lcm(self.m, other.m)
        a, b = self._lift(m), other._lift(m)
        conv: dict[int, Fraction] = {}
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

    def __truediv__(self, other):
        other = _coerce(other)
        return self * other.inverse()

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.m == 1:
            return Cyclo.rational(Fraction(1) / self.coeffs[0])
        phi = _phi(self.m)
        f = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        g = list(self.coeffs)
        # ext-gcd(f, g) in Q[x]; f irreducible so gcd is a unit
        r0, r1 = f, _trim(g)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        t0 = [Fraction(1)]
        while _deg(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, _trim(r)
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert _deg(r1) == 0 and r1[0] != 0
        inv = [c / r1[0] for c in s1]
        vec = _reduce_exponent_dict(self.m, {i: c for i, c in enumerate(inv)})
        return Cyclo(self.m, vec)

    def galois(self, a: int) -> "Cyclo":
        """Apply the automorphism zeta -> zeta^a (a coprime to the conductor)."""
        if self.m == 1:
            return self
        if math.gcd(a, self.m) != 1:
            raise ValueError("galois exponent must be coprime to the conductor")
        vec = _reduce_exponent_dict(
            self.m, {(k * a) % self.m: c for k, c in enumerate(self.coeffs)})
        return Cyclo(self.m, vec)

    def conjugate(self) -> "Cyclo":
        return self.galois(self.m - 1) if self.m > 1 else self

    # -- canonical form plumbing

    def __eq__(self, other):
        if not isinstance(other, (Cyclo, int, Fraction)):
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
    if isinstance(x, (int, Fraction)):
        return Cyclo.rational(x)
    raise TypeError(f"cannot coerce {x!r} to Cyclo")


def _normalize(m: int, vec: tuple) -> tuple:
    if len(vec) != _phi(m):
        raise ValueError("coefficient vector has wrong length")
    # fast path: constant vectors are rational
    if all(c == 0 for c in vec[1:]):
        return 1, (vec[0],)
    changed = True
    while changed and m > 1:
        changed = False
        if m % 4 == 2:
            # Q(zeta_m) = Q(zeta_{m/2}) for odd m/2: zeta_m = -zeta_{m/2}^((m/2+1)/2)
            d = m // 2
            s = (d + 1) // 2
            exps = {}
            for k, c in enumerate(vec):
                if c == 0:
                    continue
                e = (k * s) % d
                exps[e] = exps.get(e, Fraction(0)) + (c if k % 2 == 0 else -c)
            vec = _reduce_exponent_dict(d, exps)
            m = d
            changed = True
            continue
        for q in prime_factors(m):
            d = m // q
            if d % 4 == 2:
                d //= 2
            if d == m:
                continue
            if all(_galois_fixes(m, a, vec) for a in _galois_exponents(m, d)):
                pivots, inv, cols = _rebase_solver(m, d)
                sub = [vec[i] for i in pivots]
                new = tuple(sum(inv[i][j] * sub[j] for j in range(len(sub)))
                            for i in range(len(sub)))
                # verify: the rebased value must reproduce vec exactly
                check = [Fraction(0)] * _phi(m)
                for j, c in enumerate(new):
                    if c:
                        col = cols[j]
                        for i in range(_phi(m)):
                            check[i] += c * col[i]
                assert tuple(check) == tuple(vec), "conductor rebase mismatch"
                vec = new
                m = d
                changed = True
                break
    if m == 1:
        return 1, (vec[0],)
    if all(c == 0 for c in vec[1:]):
        return 1, (vec[0],)
    return m, tuple(vec)


def _galois_fixes(m: int, a: int, vec) -> bool:
    out: dict[int, Fraction] = {}
    for k, c in enumerate(vec):
        if c == 0:
            continue
        e = (k * a) % m
        out[e] = out.get(e, Fraction(0)) + c
    return _reduce_exponent_dict(m, out) == tuple(vec)


# -- small exact polynomial helpers (dense, ascending coefficients)


def _deg(p) -> int:
    return len(p) - 1


def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return list(p)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _poly_divmod(a, b):
    a = [Fraction(c) for c in a]
    b = _trim([Fraction(c) for c in b])
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while _deg(_trim(r)) >= _deg(b) and any(c != 0 for c in r):
        r = _trim(r)
        if len(r) < len(b):
            break
        c = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = c
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
        r = _trim(r)
    return _trim(q), _trim(r)
