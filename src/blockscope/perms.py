"""Permutations of {0, ..., n-1} with exact arithmetic.

Composition is left-to-right: ``(p * q)(x) == q(p(x))``.  Conjugation is
``h ** g == g^-1 * h * g``.  Cycle text notation is 1-based (the file and
CLI surface); everything internal is 0-based.
"""

from __future__ import annotations

import functools
import math
import re
from operator import itemgetter

from .errors import ParseError

__all__ = ["Perm", "parse_perm"]


class Perm:
    __slots__ = ("images", "_hash")

    def __init__(self, images):
        imgs = tuple(images)
        if not _is_bijection(imgs):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs
        self._hash = None

    @staticmethod
    def _raw(images: tuple) -> "Perm":
        # internal fast path: caller guarantees images is a valid tuple
        p = object.__new__(Perm)
        p.images = images
        p._hash = None
        return p

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm._raw(_identity_images(degree))

    @staticmethod
    def from_cycles(degree: int, cycles) -> "Perm":
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        images = self.images
        if len(images) < 2:
            # itemgetter() needs an argument, and with one it returns a scalar
            return Perm._raw(tuple(other.images[i] for i in images))
        return Perm._raw(itemgetter(*images)(other.images))

    def __pow__(self, g):
        # h ** g is conjugation; h ** int is iterated composition
        if isinstance(g, Perm):
            return g.inverse() * self * g
        n = g
        if n == 0:
            return Perm.identity(self.degree)
        if n < 0:
            return self.inverse() ** (-n)
        q, r = self, Perm.identity(self.degree)
        while n:
            if n & 1:
                r = r * q
            q = q * q
            n >>= 1
        return r

    def conjugator(self):
        """The map h -> h ** self, with self's inverse built once."""
        inv = self.inverse()
        return lambda h: inv * h * self

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._raw(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def order(self) -> int:
        n = 1
        for cycle in self.cycles():
            n = math.lcm(n, len(cycle))
        return n

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for i in range(len(self.images)):
            if i in seen or self.images[i] == i:
                continue
            cycle = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cycle.append(j)
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def moved_points(self):
        return [i for i, j in enumerate(self.images) if i != j]

    def min_moved(self):
        for i, j in enumerate(self.images):
            if i != j:
                return i
        return None

    def extend(self, degree: int) -> "Perm":
        """Same permutation acting on a larger point set."""
        if degree < len(self.images):
            raise ValueError("cannot shrink a permutation")
        return Perm._raw(self.images + tuple(range(len(self.images), degree)))

    def shift(self, offset: int, degree: int) -> "Perm":
        """Move the support to [offset, offset + self.degree), identity elsewhere."""
        images = list(range(degree))
        for i, j in enumerate(self.images):
            images[offset + i] = offset + j
        return Perm._raw(tuple(images))

    def cycle_string(self, one_based: bool = True) -> str:
        shift = 1 if one_based else 0
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(p + shift) for p in c) + ")" for c in cycles)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.images)
        return h

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Perm{self.cycle_string(one_based=False)}<{self.degree}>"


@functools.cache
def _identity_images(degree: int) -> tuple:
    return tuple(range(degree))


def _is_bijection(images: tuple) -> bool:
    n = len(images)
    seen = [False] * n
    for j in images:
        if not isinstance(j, int) or not 0 <= j < n or seen[j]:
            return False
        seen[j] = True
    return True


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*[, ]\s*\d+)*)?\s*\)")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse 1-based disjoint-cycle notation, e.g. ``(1,2,3)(4,5)``."""
    stripped = text.strip()
    if stripped in ("", "()", "id", "e"):
        return Perm.identity(degree)
    cycles = []
    pos = 0
    for m in _CYCLE_RE.finditer(stripped):
        if stripped[pos:m.start()].strip():
            raise ParseError(f"unexpected text in permutation: {text!r}")
        pos = m.end()
        if m.group(1) is None:
            continue
        pts = [int(t) - 1 for t in re.split(r"[, ]+", m.group(1).strip())]
        if any(p < 0 or p >= degree for p in pts):
            raise ParseError(f"point out of range 1..{degree} in {text!r}")
        if len(set(pts)) != len(pts):
            raise ParseError(f"repeated point in cycle: {text!r}")
        cycles.append(pts)
    if pos != len(stripped) and stripped[pos:].strip():
        raise ParseError(f"could not parse permutation: {text!r}")
    flat = [p for c in cycles for p in c]
    if len(set(flat)) != len(flat):
        raise ParseError(f"cycles are not disjoint: {text!r}")
    return Perm.from_cycles(degree, cycles)
