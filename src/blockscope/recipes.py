"""Group construction from JSON recipes.

A recipe is a plain JSON object, nested through six kinds:

    symmetric(n), alternating(n), cyclic(n),
    direct(a, b), semidirect(base, acting, action), wreath(base, top)

Each is written ``{"kind": ..., ...}``, with permutations in 1-based
disjoint-cycle text.  The constructors of the same names build these
dicts, and :func:`recipe_from_json` validates one and returns it in
canonical form, the known keys only; that dict goes unchanged from the
file into every report.  A recipe nested deeper than MAX_RECIPE_DEPTH is
a ParseError, so validation and evaluation, both recursive, stay far
inside the interpreter's recursion limit.  Evaluation is deterministic: the same recipe
always yields the identical generator list.

Semidirect products are realized on the disjoint union of the base
group's element set (right translation, twisted by the action) and the
acting group's own points, which keeps the representation faithful for
any action.  The action table maps each acting generator to images of the
base generators; each column is verified to define an automorphism, and
the final group order is checked against the recipe-theoretic order, so a
table that fails to respect the acting group's relations is rejected.

Wreath products ``base wr top`` take one base copy per moved point of the
top group.
"""

from __future__ import annotations

from .errors import DegreeOverflow, InvalidAction, ParseError
from .groups import PermGroup
from .perms import Perm, parse_perm

__all__ = ["construct_group", "recipe_from_json",
           "symmetric", "alternating", "cyclic", "direct", "semidirect", "wreath",
           "DEGREE_CAP", "MAX_RECIPE_DEPTH"]

DEGREE_CAP = 2**14
# Base groups of semidirect products are realized on their element sets.
SEMIDIRECT_BASE_CAP = 2**12
# Deepest accepted nesting of recipes; a leaf has depth 1.
MAX_RECIPE_DEPTH = 100


def symmetric(n: int) -> dict:
    return {"kind": "symmetric", "n": n}


def alternating(n: int) -> dict:
    return {"kind": "alternating", "n": n}


def cyclic(n: int) -> dict:
    return {"kind": "cyclic", "n": n}


def direct(a: dict, b: dict) -> dict:
    return {"kind": "direct", "a": a, "b": b}


def semidirect(base: dict, acting: dict, action) -> dict:
    """action[i][j]: image of base generator j under acting generator i.

    Entries are permutations of the base group's points (Perm objects or
    1-based cycle strings); a Perm is written as its cycle string.
    """
    return {"kind": "semidirect", "base": base, "acting": acting,
            "action": [[e.cycle_string() if isinstance(e, Perm) else e for e in row]
                       for row in action]}


def wreath(base: dict, top: dict) -> dict:
    return {"kind": "wreath", "base": base, "top": top}


# ---------------------------------------------------------------------------
# evaluation


def construct_group(recipe) -> PermGroup:
    """The group of a recipe, validated first by :func:`recipe_from_json`."""
    group, order = _eval(recipe_from_json(recipe))
    if group.order != order:
        raise InvalidAction(
            f"recipe-theoretic order {order} != constructed order {group.order}")
    return group


def _eval(recipe: dict):
    kind = recipe["kind"]
    if kind == "symmetric":
        n = _check_n(recipe["n"])
        gens = []
        if n >= 2:
            gens.append(Perm.from_cycles(n, [[0, 1]]))
        if n >= 3:
            gens.append(Perm.from_cycles(n, [list(range(n))]))
        from math import factorial
        return PermGroup(n, gens, name=f"S{n}"), factorial(n)
    if kind == "alternating":
        n = _check_n(recipe["n"])
        gens = []
        if n >= 3:
            gens.append(Perm.from_cycles(n, [[0, 1, 2]]))
        if n >= 4:
            cyc = list(range(n)) if n % 2 == 1 else list(range(1, n))
            gens.append(Perm.from_cycles(n, [cyc]))
        from math import factorial
        return PermGroup(n, gens, name=f"A{n}"), factorial(n) // 2 if n >= 2 else 1
    if kind == "cyclic":
        n = _check_n(recipe["n"])
        gens = [Perm.from_cycles(n, [list(range(n))])] if n > 1 else []
        return PermGroup(n, gens, name=f"Z{n}"), n
    if kind == "direct":
        ga, na = _eval(recipe["a"])
        gb, nb = _eval(recipe["b"])
        deg = ga.degree + gb.degree
        if deg > DEGREE_CAP:
            raise DegreeOverflow(f"direct product degree {deg} exceeds cap {DEGREE_CAP}")
        gens = [p.extend(deg) for p in ga.generators]
        gens += [p.shift(ga.degree, deg) for p in gb.generators]
        return PermGroup(deg, gens), na * nb
    if kind == "semidirect":
        return _eval_semidirect(recipe)
    return _eval_wreath(recipe)


def _check_n(n) -> int:
    if not isinstance(n, int) or n < 1:
        raise ParseError(f"invalid size parameter: {n!r}")
    if n > DEGREE_CAP:
        raise DegreeOverflow(f"degree {n} exceeds cap {DEGREE_CAP}")
    return n


def _eval_semidirect(recipe: dict):
    base, base_order = _eval(recipe["base"])
    acting, acting_order = _eval(recipe["acting"])
    action = recipe["action"]
    if base_order > SEMIDIRECT_BASE_CAP:
        raise DegreeOverflow(
            f"semidirect base order {base_order} exceeds cap {SEMIDIRECT_BASE_CAP}")
    deg = base_order + acting.degree
    if deg > DEGREE_CAP:
        raise DegreeOverflow(f"semidirect degree {deg} exceeds cap {DEGREE_CAP}")
    if len(action) != len(acting.generators):
        raise InvalidAction("action table must have one row per acting generator")

    base_elems = sorted(base.elements())
    index = {x: i for i, x in enumerate(base_elems)}

    auts = []
    for row in action:
        if len(row) != len(base.generators):
            raise InvalidAction("action row must have one image per base generator")
        images = [_as_perm(entry, base.degree) for entry in row]
        for img in images:
            if img not in base:
                raise InvalidAction("generator image lies outside the base group")
        auts.append(_automorphism_map(base, base_elems, index, images))

    gens = []
    # base generators: right translation on the element set
    for b in base.generators:
        images = [0] * deg
        for i, x in enumerate(base_elems):
            images[i] = index[x * b]
        for j in range(acting.degree):
            images[base_order + j] = base_order + j
        gens.append(Perm(images))
    # acting generators: automorphism on the element set, natural action on own points
    for aut, a in zip(auts, acting.generators):
        images = [0] * deg
        for i in range(base_order):
            images[i] = aut[i]
        for j in range(acting.degree):
            images[base_order + j] = base_order + a(j)
        gens.append(Perm(images))
    return PermGroup(deg, gens), base_order * acting_order


def _automorphism_map(base: PermGroup, base_elems, index, gen_images):
    """Extend generator images to a permutation of the element set.

    Verifies multiplicativity along the way and bijectivity at the end;
    raises InvalidAction when the table is not an automorphism.
    """
    phi: dict[Perm, Perm] = {base.identity: base.identity}
    queue = [base.identity]
    while queue:
        x = queue.pop(0)
        fx = phi[x]
        for g, fg in zip(base.generators, gen_images):
            y = x * g
            fy = fx * fg
            if y in phi:
                if phi[y] != fy:
                    raise InvalidAction("action table does not preserve products")
            else:
                phi[y] = fy
                queue.append(y)
    if len(phi) != len(base_elems) or len(set(phi.values())) != len(base_elems):
        raise InvalidAction("action table is not bijective on the base group")
    return [index[phi[x]] for x in base_elems]


def _eval_wreath(recipe: dict):
    base, base_order = _eval(recipe["base"])
    top, top_order = _eval(recipe["top"])
    support = sorted({p for g in top.generators for p in g.moved_points()})
    m = len(support)
    pos = {pt: i for i, pt in enumerate(support)}
    deg = m * base.degree
    if deg > DEGREE_CAP:
        raise DegreeOverflow(f"wreath degree {deg} exceeds cap {DEGREE_CAP}")
    gens = []
    for i in range(m):
        for b in base.generators:
            gens.append(b.shift(i * base.degree, deg))
    for t in top.generators:
        images = [0] * deg
        for i, pt in enumerate(support):
            j = pos[t(pt)]
            for k in range(base.degree):
                images[i * base.degree + k] = j * base.degree + k
        gens.append(Perm(images))
    return PermGroup(deg, gens), base_order**m * top_order


def _as_perm(entry, degree: int) -> Perm:
    if isinstance(entry, str):
        return parse_perm(entry, degree)
    raise ParseError(f"cannot interpret {entry!r} as a permutation")


# ---------------------------------------------------------------------------
# JSON surface


def recipe_from_json(obj, depth: int = 1) -> dict:
    """The canonical recipe dict of obj, its known keys only; a malformed
    recipe, or one nested deeper than MAX_RECIPE_DEPTH, is a ParseError.
    `depth` is obj's own depth within the recipe being read."""
    if depth > MAX_RECIPE_DEPTH:
        raise ParseError(f"recipe nested deeper than {MAX_RECIPE_DEPTH} levels")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("recipe JSON must be an object with a 'kind' field")
    kind = obj["kind"]

    def field(name, types=(dict,)):
        # a missing or ill-typed field is a parse error, not a KeyError later;
        # bool is a subclass of int, but true is no group size
        value = obj.get(name)
        if not isinstance(value, types) or isinstance(value, bool):
            raise ParseError(f"{kind!r} recipe needs a field {name!r} of type "
                             + " or ".join(t.__name__ for t in types))
        return obj[name]

    if kind in ("symmetric", "alternating", "cyclic"):
        return {"kind": kind, "n": field("n", (int,))}
    sub = lambda name: recipe_from_json(field(name), depth + 1)
    if kind == "direct":
        return {"kind": kind, "a": sub("a"), "b": sub("b")}
    if kind == "semidirect":
        action = field("action", (list,))
        if not all(isinstance(row, list) for row in action):
            raise ParseError("'semidirect' recipe action must be a list of rows")
        return {"kind": kind, "base": sub("base"), "acting": sub("acting"),
                "action": [list(row) for row in action]}
    if kind == "wreath":
        return {"kind": kind, "base": sub("base"), "top": sub("top")}
    raise ParseError(f"unknown recipe kind: {kind!r}")
