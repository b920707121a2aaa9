import json

import pytest

from conftest import RECIPES, group
from blockscope.errors import DegreeOverflow, InvalidAction, ParseError
from blockscope.groups import abelian_invariants, sylow_subgroup
from blockscope.perms import parse_perm
from blockscope.recipes import (MAX_RECIPE_DEPTH, alternating, construct_group, cyclic,
                                direct, recipe_from_json, semidirect, symmetric, wreath)

Q44 = direct(cyclic(4), cyclic(4))
THETA = ["(5,6,7,8)", "(1,4,3,2)(5,8,7,6)"]


def test_wreath_z4_z2_order():
    assert construct_group(wreath(cyclic(4), cyclic(2))).order == 32


def test_semidirect_theta_order_48():
    assert construct_group(semidirect(Q44, cyclic(3), [THETA])).order == 48


def test_semidirect_s3_order_96_and_twist_relation():
    g = construct_group(semidirect(Q44, symmetric(3),
                                   [["(5,6,7,8)", "(1,2,3,4)"], THETA]))
    assert g.order == 96
    # the acting generators appear as group elements: swap s, three-cycle t
    s, t = g.generators[-2], g.generators[-1]
    assert s.inverse() * t * s == t * t, "conjugating the order-3 twist by the swap must invert it"


@pytest.mark.parametrize("name,order", [("S4", 24), ("A5", 60), ("S4xZ2", 48)])
def test_basic_orders(name, order):
    assert group(name).order == order


def test_wreath_order_uses_top_support():
    # top group Z2 embedded with a fixed point: support has size 2
    top = direct(cyclic(2), cyclic(1))
    g = construct_group(wreath(cyclic(3), top))
    assert g.order == 3**2 * 2


def test_wreath_sylow_shape():
    g = group("G96")
    s = sylow_subgroup(g, 2)
    q = next(x for x in s.elements() if x.order() == 4)
    assert s.order == 32


def test_determinism():
    r = semidirect(Q44, cyclic(3), [THETA])
    g1, g2 = construct_group(r), construct_group(r)
    assert g1.generators == g2.generators


def test_invalid_action_not_bijective():
    with pytest.raises(InvalidAction):
        construct_group(semidirect(Q44, cyclic(2), [["(1,3)(2,4)", "(5,6,7,8)"]]))


def test_invalid_action_wrong_order():
    # swap a<->b has order 2, cannot be the image of an order-3 generator
    with pytest.raises(InvalidAction):
        construct_group(semidirect(Q44, cyclic(3), [["(5,6,7,8)", "(1,2,3,4)"]]))


def test_invalid_action_row_shape():
    with pytest.raises(InvalidAction):
        construct_group(semidirect(Q44, cyclic(2), [["(1,2,3,4)"]]))


def test_degree_overflow():
    with pytest.raises(DegreeOverflow):
        construct_group(cyclic(2**14 + 1))
    with pytest.raises(DegreeOverflow):
        construct_group(direct(cyclic(2**13), cyclic(2**13 + 1)))


def test_json_round_trip():
    r = semidirect(Q44, symmetric(3), [["(5,6,7,8)", "(1,2,3,4)"], THETA])
    blob = json.dumps(r)
    r2 = recipe_from_json(json.loads(blob))
    g1, g2 = construct_group(r), construct_group(r2)
    assert g1.generators == g2.generators


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_constructors_return_the_canonical_json(name):
    r = RECIPES[name]
    assert r == recipe_from_json(json.loads(json.dumps(r)))


def test_semidirect_writes_a_perm_as_its_cycle_string():
    perms = [[parse_perm(x, 8) for x in THETA]]
    assert semidirect(Q44, cyclic(3), perms) == semidirect(Q44, cyclic(3), [THETA])


def test_canonical_json_keeps_the_known_keys_only():
    r = recipe_from_json({"kind": "direct", "note": "x", "a": {"kind": "cyclic", "n": 2,
                                                              "extra": 1},
                          "b": {"kind": "cyclic", "n": 3}})
    assert r == direct(cyclic(2), cyclic(3))


@pytest.mark.parametrize("recipe", [
    direct(cyclic(2), None),
    wreath(cyclic(2), {"n": 2}),
    semidirect({"kind": "cyclic", "n": "3"}, cyclic(2), [["(1,3,2)"]]),
    direct(cyclic(2), cyclic(2.0)),
    "S4",
    None,
    [cyclic(2)],
])
def test_construct_group_refuses_a_malformed_recipe_with_a_parse_error(recipe):
    with pytest.raises(ParseError):
        construct_group(recipe)


def test_json_parse_errors():
    with pytest.raises(ParseError):
        recipe_from_json({"kind": "frobnicate"})
    with pytest.raises(ParseError):
        recipe_from_json([1, 2, 3])


def _chain(depth):
    """A left-deep chain of `direct` recipes of the given depth over Z2s."""
    r = cyclic(2)
    for _ in range(depth - 1):
        r = direct(r, cyclic(2))
    return r


def test_a_recipe_at_the_depth_bound_is_built():
    g = construct_group(_chain(MAX_RECIPE_DEPTH))
    assert (g.degree, g.order) == (2 * MAX_RECIPE_DEPTH, 2**MAX_RECIPE_DEPTH)


@pytest.mark.parametrize("depth", [MAX_RECIPE_DEPTH + 1, 600, 5000])
def test_a_recipe_nested_past_the_depth_bound_is_a_parse_error(depth):
    with pytest.raises(ParseError, match="nested deeper"):
        recipe_from_json(_chain(depth))
    with pytest.raises(ParseError, match="nested deeper"):
        construct_group(wreath(cyclic(2), _chain(depth)))


def test_alternating_small_cases():
    assert construct_group(alternating(3)).order == 3
    assert construct_group(alternating(2)).order == 1
    assert construct_group(cyclic(1)).order == 1


def test_f56_action_has_order_seven():
    g = group("F56")
    assert g.order == 56
    assert abelian_invariants(sylow_subgroup(g, 2)) == (2, 2, 2)
