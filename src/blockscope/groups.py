"""Exact permutation-group engine.

Groups carry a base and strong generating set built by a deterministic
Schreier-Sims procedure, which gives exact orders, membership tests and
element enumeration; each level's transversal is stored once, as the
inverses u^-1.  The BSGS's transversal gather is the one source of
element data: :meth:`PermGroup.element_images` is an (order x degree)
array of image rows, and :meth:`PermGroup.elements` wraps those rows in
Perms only for a caller that needs objects.  Centralizers and normalizers
are computed by orbit-stabilizer searches on the conjugation action: walks
over the generators on element keys, which need the acting group's
elements (order at most ORDER_CAP) and sift Schreier generators only until
the stabilizer has order |G| / |orbit|.  Their correctness is anchored by brute-force
oracles in the test suite for every group below the oracle cap.  A Sylow
subgroup is grown from a given p-subgroup through nested normalizers, so
its orbit walks run in ever smaller groups; each group memoises one Sylow
subgroup per prime.

The G-classes of p-subgroups are one record per group and prime
(:func:`sylow_subgroup_classes`), made in the pass that enumerates the
subgroups of a Sylow subgroup and walks each conjugation orbit once,
memoised by its seed; each member inside the Sylow subgroup is one
handle that knows its order and element set.  Blocks and fusion read the
record and walk no orbit of their own.

All objects are immutable after construction and safe for concurrent
reads.  Derived data (classes, element lists, local subgroups) is memoised
on the instance.  Array kernels (the class walk and the orbit walks, which
share one conjugation map per generator; the class-sum structure constants;
the Cayley table of a p-group, on which its subgroups are enumerated) name
elements by their coordinates in the BSGS (:class:`_ElementIndex`), which
are their row numbers, and gather whatever columns they need from the
rows.  The class walk builds one Perm per class, not per element; an
orbit walk's seed is an element set (a centralizer walks one-element
sets), and it names each orbit member as a frozenset of the objects of
`elements()`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import CapExceeded, InternalInconsistency, NotAbelian, NotNormalized
from .exact import nu, p_part, prime_factors
from .perms import Perm

__all__ = [
    "PermGroup",
    "ConjClass",
    "centralizer",
    "normalizer",
    "sylow_subgroup",
    "o_p_residual",
    "o_p_core",
    "SubgroupClasses",
    "sylow_subgroup_classes",
    "normal_closure",
    "quotient_by_normal",
    "conjugation_image",
    "abelian_invariants",
    "subgroup_fingerprint",
    "same_subgroup",
    "ORDER_CAP",
    "SUBGROUP_ENUM_CAP",
    "QUOTIENT_INDEX_CAP",
]

# Refuse element enumeration and class computation above this order.
ORDER_CAP = 10**6
# Cap on |P| for exhaustive p-subgroup enumeration.
SUBGROUP_ENUM_CAP = 2**8
# Refuse a quotient by a normal subgroup of index above this.
QUOTIENT_INDEX_CAP = 10**5


# ---------------------------------------------------------------------------
# base and strong generating set


class _BSGS:
    """Deterministic incremental Schreier-Sims data: base, strong generators,
    transversals (Seress, *Permutation Group Algorithms*, 2003, sec. 4.2).

    Each level's transversal is stored once, as point -> u^-1 (u maps the
    base point to the point): `sift` composes with u^-1, and only a
    Schreier generator inverts one.  The base only grows, and a transversal
    is only ever extended: inserting a strong generator extends each orbit
    it acts on by a walk from the old points under the new generator and
    from the new points under every generator of the level.  Each step that
    lands on a known point queues its Schreier pair (point, generator);
    :meth:`_close` sifts the queued pairs, deepest level first, until none
    is left or a known order is reached.  A pair that sifts to the identity
    stays a member for good, as the transversals it sifted through never
    change: no pair is sifted twice.  A group grown one element at a time
    (stabilizers, normal closures) extends a single instance with :meth:`add`.
    """

    __slots__ = ("degree", "base", "level_gens", "inverses", "pending", "identity")

    def __init__(self, degree: int, gens):
        self.degree = degree
        self.base: list[int] = []
        # per level: (g, g^-1) for the strong generators fixing the base prefix
        self.level_gens: list[list[tuple[Perm, Perm]]] = []
        self.inverses: list[dict[int, Perm]] = []  # per level: point -> u^-1, u(b) = point
        self.pending: list[list[tuple[int, Perm]]] = []  # per level: unsifted Schreier pairs
        self.identity = Perm.identity(degree)
        for g in gens:
            self.add(g)

    def order(self) -> int:
        n = 1
        for orb in self.inverses:
            n *= len(orb)
        return n

    def _level_of(self, g: Perm) -> int:
        for i, b in enumerate(self.base):
            if g(b) != b:
                return i
        return len(self.base)

    def _insert(self, g: Perm):
        lvl = self._level_of(g)
        if lvl == len(self.base):
            b = g.min_moved()
            self.base.append(b)
            self.level_gens.append([])
            self.inverses.append({b: self.identity})
            self.pending.append([])
        g_inv = g.inverse()
        for i in range(lvl + 1):
            self.level_gens[i].append((g, g_inv))
            self._extend_orbit(i, g, g_inv)

    def _extend_orbit(self, level: int, g: Perm, g_inv: Perm):
        """Close a level's orbit after g joined its generators: old points
        step under g, new points under every generator.  A step that lands
        on a known point queues its Schreier pair."""
        inverses = self.inverses[level]
        pending = self.pending[level]
        steps = [(pt, g, g_inv) for pt in list(inverses)]
        gens = self.level_gens[level]
        while steps:
            pt, h, h_inv = steps.pop()
            im = h(pt)
            if im in inverses:
                pending.append((pt, h))
            else:
                inverses[im] = h_inv * inverses[pt]  # (u h)^-1 = h^-1 u^-1
                steps.extend((im, k, k_inv) for k, k_inv in gens)

    def sift(self, g: Perm) -> Perm:
        """The residue of g down the chain: the identity iff g is a member."""
        for b, inverses in zip(self.base, self.inverses):
            im = g(b)
            if im != b:   # the transversal element of b itself is the identity
                u_inv = inverses.get(im)
                if u_inv is None:
                    return g
                g = g * u_inv
        return g

    def contains(self, g: Perm) -> bool:
        return self.sift(g).is_identity()

    def add(self, g: Perm, order: int = 0) -> bool:
        """Extend the group by g; False, and no change, when g is a member.
        Sifting stops once the orbit lengths multiply to `order`, when given
        the order of a group that holds every element added: the product
        reaches it only when the transversals give every element, so each
        pair still queued would sift to the identity, and is dropped."""
        if self.contains(g):
            return False
        self._insert(g)
        self._close(order)
        return True

    def _close(self, order: int = 0):
        # every Schreier generator u_pt g u_(g pt)^-1 must sift to the identity
        done, level = self.order() == order, len(self.base) - 1
        while level >= 0:
            pending = self.pending[level]
            if done or not pending:
                pending.clear()
                level -= 1
                continue
            pt, g = pending.pop()
            inverses = self.inverses[level]
            s = inverses[pt].inverse() * g * inverses[g(pt)]
            r = self.sift(s)
            if not r.is_identity():
                self._insert(r)
                done, level = self.order() == order, len(self.base) - 1

    def inverse_rows(self):
        """Per level, the basic orbit in point order and the image rows of
        the u^-1 in that order, an (orbit x degree) array in the least
        dtype that holds a point."""
        dtype = np.min_scalar_type(max(self.degree - 1, 0))
        for inverses in self.inverses:
            orbit = sorted(inverses)
            yield orbit, np.array([inverses[pt].images for pt in orbit], dtype=dtype)

    def element_images(self) -> np.ndarray:
        """Every element once, as the products u_m ... u_2 u_1 of one
        transversal element per level: an (order x degree) array of image
        rows, the first level's element varying slowest.  Each level's
        transversal, in point order, is read off its u^-1 rows (the row of
        u is the argsort of the row of u^-1) and composes the rows of the
        levels below it: u[rows] composes rows with u."""
        rows = np.arange(self.degree, dtype=np.min_scalar_type(max(self.degree - 1, 0)))[None, :]
        for _, inverse in reversed(list(self.inverse_rows())):
            u = np.argsort(inverse, axis=1).astype(rows.dtype)
            rows = u[:, rows].reshape(-1, self.degree)
        return rows


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class ConjClass:
    representative: Perm
    size: int
    element_order: int
    centralizer_order: int

    def is_p_regular(self, p: int) -> bool:
        return self.element_order % p != 0


class PermGroup:
    """A finite permutation group, given by generators.

    :meth:`subgroup` verifies that every generator is a member of the
    group; a subgroup's own order is computed from a fresh base and strong
    generating set.  Subgroups returned by the orbit-stabilizer
    constructions keep the BSGS built while finding them; a stabilizer that
    is the whole acting group is that group's own handle.  A subgroup holds
    no link to the group it came from.
    """

    def __init__(self, degree: int, generators, name: str | None = None):
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self._bsgs = None
        self._cache: dict = {}

    # -- construction helpers

    def subgroup(self, generators) -> "PermGroup":
        gens = list(generators)
        if not all(g in self for g in gens):
            raise ValueError("subgroup generator outside the group")
        return PermGroup(self.degree, gens)

    # -- BSGS-backed primitives

    @property
    def bsgs(self) -> _BSGS:
        if self._bsgs is None:
            self._bsgs = _BSGS(self.degree, self.generators)
        return self._bsgs

    def _memo(self, key, compute):
        """Derived data memoised on this group under `key`; every layer that
        caches on a group goes through here."""
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    @property
    def order(self) -> int:
        return self._memo("order", lambda: self.bsgs.order())

    def __contains__(self, g: Perm) -> bool:
        return g.degree == self.degree and self.bsgs.contains(g)

    def __repr__(self):
        label = self.name or "PermGroup"
        return f"<{label} deg={self.degree} order={self.order}>"

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def element_images(self) -> np.ndarray:
        """Every element's images, one row each, in the order of
        :meth:`elements`; gathered from the BSGS afresh on each call."""
        if self.order > ORDER_CAP:
            raise CapExceeded(f"order {self.order} exceeds cap {ORDER_CAP}")
        return self.bsgs.element_images()

    def elements(self) -> tuple:
        return self._memo("elements", lambda: tuple(
            map(Perm._raw, map(tuple, self.element_images().tolist()))))

    def element_set(self) -> frozenset:
        return self._memo("element_set", lambda: frozenset(self.elements()))

    def is_abelian(self) -> bool:
        gens = self.generators
        return self._memo("abelian", lambda: all(
            gens[i] * gens[j] == gens[j] * gens[i]
            for i in range(len(gens)) for j in range(i)))

    def is_p_group(self, p: int) -> bool:
        return p_part(self.order, p) == self.order

    # -- conjugacy classes

    def conjugacy_classes(self) -> tuple:
        return self._class_walk()[0]

    def _class_walk(self) -> tuple[tuple, np.ndarray]:
        """(classes, class index of each element key), computed once."""
        return self._memo("classes", self._conjugacy_classes)

    def _conjugacy_classes(self) -> tuple[tuple, np.ndarray]:
        """The classes, and the class index of each element key.

        Elements are ranked in Perm order, one lexsort over their image rows
        (:meth:`element_images`); the conjugation maps of
        :func:`_conjugation_maps` give one successor map of ranks per
        generator.  Each orbit is labelled by its least rank: every element
        takes the least label over its successors until nothing changes.  A
        class's representative is its least member in Perm order, the one
        Perm the walk builds per class.
        """
        rows = self.element_images()
        n = len(rows)
        keys = _perm_order(rows)   # by rank
        rank_of_key = np.empty(n, dtype=np.intp)
        rank_of_key[keys] = np.arange(n)
        successors = [rank_of_key[c[keys]] for c in _conjugation_maps(self)]
        label = np.arange(n)
        while True:
            new = label
            for succ in successors:
                new = np.minimum(new, new[succ])
            # a label is the rank of an orbit member, so the label of the
            # label is one too; taking it halves the distances left to cover
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        by_label = np.argsort(label, kind="stable")   # ranks ascending within a class
        found = []
        for ranks in np.split(by_label, np.flatnonzero(np.diff(label[by_label])) + 1):
            rep = Perm._raw(tuple(rows[keys[ranks[0]]].tolist()))
            found.append((ConjClass(
                representative=rep,
                size=len(ranks),
                element_order=rep.order(),
                centralizer_order=n // len(ranks),
            ), ranks))
        found.sort(key=lambda f: (f[0].element_order, f[0].size, f[0].representative.images))
        class_at = np.empty(n, dtype=np.min_scalar_type(len(found)))
        for i, (_, ranks) in enumerate(found):
            class_at[keys[ranks]] = i
        return tuple(c for c, _ in found), class_at

    def class_of(self, g: Perm) -> int:
        if g not in self:
            raise ValueError("element outside the group")
        return int(self.classes_of([g])[0])

    def classes_of(self, members) -> np.ndarray:
        """Class index of each of the given members, read from their keys;
        unlike class_of, it does not test that they are members."""
        class_at = self._class_walk()[1]
        index = _element_index(self)
        return class_at[index.keys(_images_at(members, index.base, index.images.dtype))]


# ---------------------------------------------------------------------------
# element keys


class _ElementIndex:
    """Exact integer keys for the elements of a group: their coordinates in
    its BSGS (Seress, *Permutation Group Algorithms*, 2003, sec. 4.1).

    An element is x = u_1 u_2 ... u_m (u_m applied first), u_t the element
    of level t's transversal that maps b_t into the basic orbit Delta_t.
    Its key is the places of u_1, ..., u_m in the sorted orbits read in mixed
    radix, level 1 most significant: x's row of `group.element_images()`,
    laid out in that order, and its position in `group.elements()`.  A key
    is below |G|.  :meth:`keys` sifts base images: at level t the image of
    b_t gives u_t, through `position` (point -> place in Delta_t), and the
    later base images are mapped through `inverse` (row j: the images of
    the j-th u_t^-1, from :meth:`_BSGS.inverse_rows`).  `images[k]` holds
    the base images of the element of key k, each array in the least
    integer dtype; the index holds no Perm.
    """

    __slots__ = ("base", "position", "inverse", "images")

    def __init__(self, group: "PermGroup"):
        self.base = list(group.bsgs.base)
        self.position, self.inverse = [], []
        for orbit, inverse in group.bsgs.inverse_rows():
            position = np.zeros(group.degree, dtype=np.min_scalar_type(len(orbit) - 1))
            position[orbit] = np.arange(len(orbit))
            self.position.append(position)
            self.inverse.append(inverse)
        self.images = group.element_images()[:, self.base]

    def keys(self, images: np.ndarray) -> np.ndarray:
        """Keys of the members whose base images are the rows of `images`."""
        key = np.zeros(len(images), dtype=np.intp)
        columns = list(images.T)
        for t, (position, inverse) in enumerate(zip(self.position, self.inverse)):
            at = position[columns[t]]
            key = key * len(inverse) + at
            # one flat gather per later column: u_t^-1 starts at row * degree
            start, flat = at.astype(np.intp) * inverse.shape[1], inverse.ravel()
            columns[t + 1:] = [flat[start + c] for c in columns[t + 1:]]
        return key


def _element_index(group: "PermGroup") -> _ElementIndex:
    return group._memo("element_index", lambda: _ElementIndex(group))


def _perm_order(rows: np.ndarray) -> np.ndarray:
    """The row numbers sorted in Perm order, which is lexicographic in the
    images: one lexsort, first column primary (the rows are distinct)."""
    return np.lexsort(rows.T[::-1])


def _conjugation_maps(group: "PermGroup") -> np.ndarray:
    """c[t, k]: the key of x_k ** g_t, with x_k the element of key k and g_t
    the t-th generator, in the least dtype that holds a key; memoised.  One
    column gather per generator from the image rows: (x^g)(b) = g(x(g^-1(b)))."""
    def compute():
        index = _element_index(group)
        rows = group.element_images()
        maps = np.empty((len(group.generators), len(rows)),
                        dtype=np.min_scalar_type(len(rows) - 1))
        for t, g in enumerate(group.generators):
            inv = g.inverse().images
            moved = rows[:, [inv[b] for b in index.base]]
            maps[t] = index.keys(np.array(g.images, dtype=rows.dtype)[moved])
        return maps
    return group._memo("conjugation_maps", compute)


def _images_at(elements, points, dtype) -> np.ndarray:
    """a[e, t] = elements[e](points[t])."""
    rows = [x.images for x in elements]
    out = np.empty((len(rows), len(points)), dtype=dtype)
    for t, p in enumerate(points):
        out[:, t] = np.fromiter(map(itemgetter(p), rows), dtype=dtype, count=len(rows))
    return out


# ---------------------------------------------------------------------------
# orbit-stabilizer searches on the conjugation action


def _with_bsgs(group: PermGroup, gens, bsgs: _BSGS) -> PermGroup:
    """Subgroup of `group` that keeps the BSGS its generators built."""
    h = PermGroup(group.degree, gens)
    h._bsgs = bsgs
    return h


def _stabilizer_of_action(group: PermGroup, seed) -> tuple[list, PermGroup, np.ndarray]:
    """Conjugation orbit of `seed`, a frozenset of permutations, under
    `group`, as a list of member sets with the seed first, the stabilizer
    of `seed`, and the orbit as keys: row i holds the sorted element keys of
    the i-th orbit member.

    The walk runs on element keys (:class:`_ElementIndex`) of `group`, or
    of <group, seed> for a seed outside it: a seed is its sorted key array,
    and a step under generator t a sorted gather through row t of
    :func:`_conjugation_maps`.  The whole orbit is walked breadth-first,
    then each member y, a frozenset of the objects of `elements()`, is
    given a witness w_y with seed^(w_y) = y, one product per tree step.
    In step order, the Schreier generator w_x g w_y^-1 of each other step
    x -> y then extends the stabilizer's BSGS, which the returned handle
    keeps, until its order is |group| / |orbit|, at which each `add` also
    stops its closure.  It is then the whole stabilizer, so each later
    Schreier generator, which fixes the seed, is a member, and `_BSGS.add`
    of a member changes nothing: the result is the one sifting them all
    gives.  The witnesses serve only these generators and are not returned.

    A seed fixed by every generator returns `group` itself, memos shared.
    The walk would build the same BSGS (base, transversals, element order):
    its Schreier generators 1·g·1⁻¹ = g come in generator order, the `add`
    sequence of `group.bsgs`; its handle only dropped redundant generators.
    """
    members = group.element_set()
    outside = tuple(x for x in seed if x not in members)
    space = PermGroup(group.degree, group.generators + outside) if outside else group
    index = _element_index(space)
    maps = _conjugation_maps(space)[:len(group.generators)]
    start = np.sort(index.keys(_images_at(seed, index.base, index.images.dtype)))
    found = [start.astype(maps.dtype)]
    place = {found[0].tobytes(): 0}
    steps = []   # (member, generator, image member), in walk order
    for i, keys in enumerate(found):
        for t, c in enumerate(maps):
            image = np.sort(c[keys])
            j = place.setdefault(image.tobytes(), len(found))
            if j == len(found):
                found.append(image)
            steps.append((i, t, j))
    if len(found) == 1:
        return [seed], group, found[0][None]
    witness = [group.identity]
    target = group.order // len(found)
    bsgs = _BSGS(group.degree, [])
    gens: list[Perm] = []
    for i, t, j in steps:
        g = group.generators[t]
        if j == len(witness):
            witness.append(witness[i] * g)
        elif bsgs.order() < target:
            s = witness[i] * g * witness[j].inverse()
            if bsgs.add(s, target):
                gens.append(s)
    elems = space.elements()
    keys = np.stack(found)
    orbit = [seed] + [frozenset(map(elems.__getitem__, row)) for row in keys[1:].tolist()]
    return orbit, _with_bsgs(group, gens, bsgs), keys


def _orbit_entry(group: PermGroup, sset: frozenset) -> tuple[list, PermGroup, np.ndarray]:
    """(orbit, stabilizer of its seed, keys) for the conjugation orbit of an
    element set, walked from it once: memoised on the group by the seed
    only, one entry per walk; another member of the orbit walks afresh."""
    memo = group._memo("set_orbits", dict)
    entry = memo.get(sset)
    if entry is None:
        entry = memo[sset] = _stabilizer_of_action(group, sset)
    return entry


def centralizer(g: PermGroup, h) -> PermGroup:
    """C_g(h) for a single permutation or a group handle h, which need not
    lie in g: with h acting on g by conjugation, the fixed points of h,
    the stabilizer of each one-element set {t}, t in turn h or each of its
    generators.  When h centralizes g, this is g's own handle."""
    current = g
    for t in [h] if isinstance(h, Perm) else h.generators:
        current = _stabilizer_of_action(current, frozenset([t]))[1]
    return current


def normalizer(g: PermGroup, h: PermGroup) -> PermGroup:
    """N_g(h), the stabilizer of the element set of h under conjugation,
    read from the memoised orbit walk seeded at h's element set.

    Memoised on g by the element set of h, so repeated queries share the
    handle (and everything cached on it, like its character table); one
    memoised for another subgroup that is the same group (`same_subgroup`)
    is reused, generators and all, so those depend on query order.  When g
    normalizes h, this is g's handle.
    """
    hset = h.element_set()
    memo = g._memo("normalizers", dict)
    if hset not in memo:
        stab = _orbit_entry(g, hset)[1]
        memo[hset] = next((n for n in memo.values() if same_subgroup(stab, n)), stab)
    return memo[hset]


# ---------------------------------------------------------------------------
# characteristic constructions


def normal_closure(g: PermGroup, seeds) -> PermGroup:
    """Smallest normal subgroup of g containing the given permutations."""
    bsgs = _BSGS(g.degree, [])
    queue = [s for s in seeds if not s.is_identity()]
    gens = [s for s in queue if bsgs.add(s)]
    while queue:
        x = queue.pop()
        for gg in g.generators:
            c = x ** gg
            if bsgs.add(c):
                gens.append(c)
                queue.append(c)
    return _with_bsgs(g, gens, bsgs)


def o_p_residual(g: PermGroup, p: int) -> PermGroup:
    """O^p(g): the smallest normal subgroup with p-group quotient.

    A normal subgroup N has a p-group quotient exactly when it holds every
    p'-element: the image of a p'-element in a p-group is trivial, and a
    quotient of order divisible by a prime q != p has an element of order
    q, whose preimage's p'-part lies outside N.  So O^p(g) is the normal
    closure of the p'-elements.  A normal subgroup holding one element
    holds its whole class, and every p'-element is conjugate to the
    representative of a p-regular class, so the closure of those
    representatives is O^p(g).
    """
    return normal_closure(g, [c.representative for c in g.conjugacy_classes()
                              if c.is_p_regular(p)])


def o_p_core(g: PermGroup, p: int, start: PermGroup | None = None) -> frozenset:
    """Element set of O_p(g), the core of a Sylow p-subgroup.

    A p-group is its own core.  Otherwise intersects the element set of the
    Sylow subgroup grown from `start` (see :func:`sylow_subgroup`) with its
    conjugates under g's generators until it stops changing; what remains
    is normalized by every generator, so it is the largest normal subgroup
    inside the Sylow.
    """
    if g.is_p_group(p):
        return frozenset(g.elements())
    core = frozenset(sylow_subgroup(g, p, start).elements())
    while True:
        shrunk = core
        for gg in g.generators:
            shrunk = shrunk & frozenset(map(gg.conjugator(), shrunk))
        if shrunk == core:
            return core
        core = shrunk


def sylow_subgroup(g: PermGroup, p: int, start: PermGroup | None = None) -> PermGroup:
    """A Sylow p-subgroup of g containing `start`, a p-subgroup of g.

    A p-group is its own Sylow subgroup.  Without `start` the climb begins
    at the trivial group and its result is memoised on g, so every caller
    shares one Sylow subgroup per group and prime; grown from a `start`,
    the result is not memoised.

    Growth: while |s| < |g|_p, let n = N_g(s).  If n < g, s becomes the
    Sylow subgroup of n containing s, found by recursion into n.  If n = g
    (tested on generators, without computing n), s is normal in g and grows
    to <s, z> = s<z>, a p-group, with z the first p-element outside s in g's
    element enumeration.

    Why each pass grows s: s is normal in n, so s lies in every Sylow
    subgroup of n.  If s is not Sylow in g, then in a Sylow subgroup P of g
    containing s, N_P(s) > s, so |n|_p > |s|: the recursion returns a
    larger group, and when n = g some Sylow subgroup holds a p-element
    outside s.  Each recursion is into a smaller group, so the climb ends.
    Its orbit walks run in the nested normalizers, not in g.
    Deterministic: the choices depend only on the generators.
    """
    if g.is_p_group(p):
        return g
    if start is None:
        return g._memo(("sylow", p), lambda: _grow_sylow(
            g, p, PermGroup(g.degree, [])))
    return _grow_sylow(g, p, start)


def _grow_sylow(g: PermGroup, p: int, s: PermGroup) -> PermGroup:
    target = p_part(g.order, p)
    while s.order < target:
        if any(x ** y not in s for x in s.generators for y in g.generators):
            grown = sylow_subgroup(normalizer(g, s), p, s)
        else:
            # the rows in element order, one Perm per row scanned
            scan = (Perm._raw(tuple(row.tolist())) for row in g.element_images())
            p_parts = (x ** (x.order() // p_part(x.order(), p)) for x in scan)
            z = next((z for z in p_parts if z not in s), None)
            grown = None if z is None else PermGroup(g.degree, list(s.generators) + [z])
        # neither can happen: each contradicts Sylow theory
        if grown is None or grown.order == s.order:  # pragma: no cover
            raise InternalInconsistency("sylow climb stalled")
        if not grown.is_p_group(p):  # pragma: no cover
            raise InternalInconsistency("sylow climb left the p-group")
        s = grown
    return s


# ---------------------------------------------------------------------------
# subgroup enumeration and fusion


def _cayley_table(pgrp: PermGroup) -> tuple[np.ndarray, dict]:
    """(mult, position): mult[i, j] is the position of e_i * e_j in
    `pgrp.elements()`, and position maps each element to its own; memoised.
    The base images (e_i e_j)(b) = e_j(e_i(b)) are one gather from the image
    rows, keyed at once; a key's row is its element's position."""
    def compute():
        index = _element_index(pgrp)
        full = pgrp.element_images()
        n, m = len(full), len(index.base)
        position = {x: i for i, x in enumerate(pgrp.elements())}
        products = full[np.arange(n)[None, :, None], full[:, index.base][:, None, :]]
        keys = index.keys(products.reshape(n * n, m)).astype(np.min_scalar_type(n - 1))
        return keys.reshape(n, n), position
    return pgrp._memo("cayley_table", compute)


def _subgroups_of_p_group(pgrp: PermGroup, p: int) -> dict[frozenset, tuple]:
    """All subgroups of a p-group, each element set mapped to generators of
    it, by maximal extension; sorted by (order, sorted element images).

    Each subgroup of order p^(k+1) is <h, x> for some h of order p^k and x
    in N_P(h) with x^p in h; x normalizes h when it conjugates h's
    generators into h's element set.  The search runs on positions in
    `pgrp.elements()`, with products read from :func:`_cayley_table`.
    """
    if pgrp.order > SUBGROUP_ENUM_CAP:
        raise CapExceeded(f"|P| = {pgrp.order} exceeds enumeration cap {SUBGROUP_ENUM_CAP}")
    elements = pgrp.elements()
    table, position = _cayley_table(pgrp)
    mult = table.tolist()
    n = len(elements)
    e = position[pgrp.identity]
    inverse = [row.index(e) for row in mult]
    power = [position[x ** p] for x in elements]   # binary powering: p may be huge
    trivial = frozenset([e])
    gens_of = {trivial: ()}   # set of positions -> positions of generators
    layer = [trivial]
    size = 1
    while size < n:
        nxt = []
        for h in layer:
            gens = gens_of[h]
            covered = set(h)   # elements of the extensions of h found so far
            for x in range(n):
                if x in covered or power[x] not in h:
                    continue
                x_inv = mult[inverse[x]]   # x_inv[y] is the position of x^-1 y
                if any(mult[x_inv[y]][x] not in h for y in gens):
                    continue
                # <h, x> = union of cosets h x^i since x normalizes h
                new = set(h)
                y = x
                while y not in new:
                    new.update([mult[c][y] for c in h])
                    y = mult[y][x]
                covered |= new
                fz = frozenset(new)
                if fz not in gens_of:
                    gens_of[fz] = gens + (x,)
                    nxt.append(fz)
        if not nxt:
            break
        layer = nxt
        size *= p
    rank = dict(zip(_perm_order(pgrp.element_images()).tolist(), range(n)))
    return {frozenset(map(elements.__getitem__, s)): tuple(map(elements.__getitem__, gens_of[s]))
            for s in sorted(gens_of, key=lambda s: (len(s), sorted(map(rank.__getitem__, s))))}


@dataclass(frozen=True)
class SubgroupClasses:
    """The G-conjugacy classes of p-subgroups, from the subgroups of a Sylow
    p-subgroup P, ordered by (order, least sorted element images over the
    class).  `members[i]`: a handle for each member of class i inside P, in
    enumeration order, with the generators the enumeration found and its
    order and element set known, so reading them builds no BSGS.
    `reps[i]` is `members[i][0]`, the least member.  `class_of`: the
    element set of every p-subgroup of G -> its class.  Containment
    between classes is computed on call, by :meth:`below`.
    """

    class_of: dict
    members: tuple

    @property
    def reps(self) -> tuple:
        return tuple(m[0] for m in self.members)

    def below(self, a: int, b: int) -> bool:
        """Some member of class a inside P, so some conjugate of reps[a],
        lies in reps[b]."""
        rep = self.members[b][0].element_set()
        return any(s.element_set() <= rep for s in self.members[a])

    def index_of(self, h: PermGroup) -> int:
        """The class index of the p-subgroup h."""
        i = self.class_of.get(h.element_set())
        if i is None:
            raise InternalInconsistency("subgroup matches no enumerated p-subgroup class")
        return i


def sylow_subgroup_classes(group: PermGroup, p: int) -> SubgroupClasses:
    """The classes of p-subgroups of group, enumerated in its memoised Sylow
    p-subgroup; memoised per group and prime."""
    return group._memo(("p_subgroup_classes", p), lambda: _sylow_subgroup_classes(group, p))


def _sylow_subgroup_classes(group: PermGroup, p: int) -> SubgroupClasses:
    """One pass over the subgroups of P: the first member of an orbit met
    walks the orbit, and every later member of it is only labelled.

    An orbit's canonical key is its least member's sorted Perm-order ranks,
    read from the walk's key arrays: ranks preserve Perm order, so this is
    the order of the members' sorted element images.
    """
    rank = np.empty(group.order, dtype=np.intp)
    rank[_perm_order(group.element_images())] = np.arange(group.order)
    found = []      # per orbit: [canonical key, members inside P]
    position = {}   # element set of every orbit member -> its orbit's place in found
    # the subgroups come sorted, so a class's first member met is its least in P
    for s, gens in _subgroups_of_p_group(sylow_subgroup(group, p), p).items():
        at = position.get(s)
        if at is None:
            orbit, _, keys = _orbit_entry(group, s)
            ranks = np.sort(rank[keys], axis=1)
            at = len(found)
            position.update(dict.fromkeys(orbit, at))
            found.append([(len(s), ranks[_perm_order(ranks)[0]].tolist()), []])
        found[at][1].append(_with_elements(group, s, gens))
    order = sorted(range(len(found)), key=lambda i: found[i][0])
    index = {at: i for i, at in enumerate(order)}
    return SubgroupClasses(class_of={t: index[at] for t, at in position.items()},
                           members=tuple(tuple(found[at][1]) for at in order))


def _with_elements(group: PermGroup, elements: frozenset, gens) -> PermGroup:
    """Subgroup of `group` generated by `gens`, with `elements` its known
    element set: its order and element set need no BSGS."""
    h = PermGroup(group.degree, gens)
    h._cache.update(order=len(elements), element_set=elements)
    return h


# ---------------------------------------------------------------------------
# quotients and actions


def conjugation_image(group: PermGroup, normalized: PermGroup) -> PermGroup:
    """The image of `group` acting by conjugation on `normalized`'s elements.

    The kernel is the centralizer, so `image ~ group / C_group(normalized)`.
    """
    domain = sorted(normalized.elements())
    index = {x: i for i, x in enumerate(domain)}

    def act_perm(n: Perm) -> Perm:
        return Perm._raw(tuple(index[x] for x in map(n.conjugator(), domain)))

    return PermGroup(len(domain), [act_perm(n) for n in group.generators])


def quotient_by_normal(g: PermGroup, n: PermGroup):
    """g / n as a permutation group on the cosets of a normal subgroup n."""
    for x in n.generators:
        for gg in g.generators:
            if x ** gg not in n:
                raise NotNormalized("subgroup is not normal")
    n_elems = sorted(n.elements())

    def coset_key(rep: Perm):
        return min((m * rep).images for m in n_elems)

    reps = [g.identity]
    keys = {coset_key(g.identity): 0}
    i = 0
    while i < len(reps):
        for gg in g.generators:
            cand = reps[i] * gg
            k = coset_key(cand)
            if k not in keys:
                if len(reps) >= QUOTIENT_INDEX_CAP:
                    raise CapExceeded(f"quotient index exceeds cap {QUOTIENT_INDEX_CAP}")
                keys[k] = len(reps)
                reps.append(cand)
        i += 1

    return PermGroup(len(reps), [
        Perm._raw(tuple(keys[coset_key(rep * gg)] for rep in reps)) for gg in g.generators])


# ---------------------------------------------------------------------------
# structure descriptors


def abelian_invariants(g: PermGroup) -> tuple[int, ...]:
    """Elementary divisors of an abelian group, e.g. (2, 4, 4)."""
    if not g.is_abelian():
        raise NotAbelian("abelian invariants require an abelian group")
    if g.order == 1:
        return ()
    orders = _element_orders(g)
    out = []
    n = g.order
    for q in prime_factors(n):
        # c_i = #elements whose order divides q^i; c_i / c_{i-1} = q^(number of
        # cyclic q-factors of exponent >= q^i), which recovers the type.
        counts = [int((q**i % orders == 0).sum()) for i in range(nu(n, q) + 1)]
        lam: list[int] = []
        for i in range(1, len(counts)):
            h = nu(counts[i] // counts[i - 1], q)
            while len(lam) < h:
                lam.append(0)
            for j in range(h):
                lam[j] = i
        out.extend(q**e for e in lam)
    return tuple(sorted(out))


def _element_orders(g: PermGroup) -> np.ndarray:
    """The order of every element of g, in no set order, from its image rows.

    For each prime q with q^a exactly dividing n = |g|, y = x^(n / q^a) has
    order the q-part of x's: raising y to q until it is the identity counts
    its exponent.  The rows come from g's element set when that is already
    known (a p-subgroup class representative's), so no BSGS is built."""
    known = g._cache.get("element_set")
    rows = g.element_images() if known is None else np.array([x.images for x in known])
    identity = np.arange(g.degree)
    n = g.order
    orders = np.ones(len(rows), dtype=np.int64)
    for q in prime_factors(n):
        a = nu(n, q)
        power = _row_power(rows, n // q**a)
        for _ in range(a):
            moved = (power != identity).any(axis=1)
            if not moved.any():
                break
            orders[moved] *= q
            power = _row_power(power, q)
    return orders


def _row_power(rows: np.ndarray, e: int) -> np.ndarray:
    """x^e for every image row x, e >= 1, by binary powering: a product of
    two powers of x is a gather of one row through the other."""
    out, square = None, rows
    while True:
        if e & 1:
            out = square if out is None else np.take_along_axis(out, square, axis=1)
        e >>= 1
        if not e:
            return out
        square = np.take_along_axis(square, square, axis=1)


def subgroup_fingerprint(h: PermGroup) -> str:
    """Cheap isomorphism fingerprint: order plus structure summary.

    Abelian groups report their elementary divisors; non-abelian groups an
    element-order histogram.  Not a full isomorphism test.  Memoised on h.
    """
    return h._memo("fingerprint", lambda: _fingerprint(h))


def _fingerprint(h: PermGroup) -> str:
    if h.order == 1:
        return "1"
    if h.order <= SUBGROUP_ENUM_CAP * 16 and h.is_abelian():
        inv = abelian_invariants(h)
        return f"{h.order}:ab[{','.join(map(str, inv))}]"
    hist = Counter(_element_orders(h).tolist())
    body = ",".join(f"{k}^{v}" for k, v in sorted(hist.items()))
    return f"{h.order}:ord{{{body}}}"


def same_subgroup(a: PermGroup, b: PermGroup) -> bool:
    return a.order == b.order and all(g in b for g in a.generators)
