"""Tests for diagonal symmetry groups and group transposition."""

import sys
from fractions import Fraction
from math import lcm

import pytest

from hmskit import symmetry
from hmskit.exactmat import det_int, mat_transpose
from hmskit.polyforms import parse_model
from hmskit.symmetry import (
    DiagonalGroup,
    ResourceLimitError,
    SymmetryError,
    format_element,
    gmax,
    is_sl,
    j_element,
    krawitz_transpose,
    parse_group_string,
)

from reference_exact import lattice, ref_gmax, ref_transpose, subgroups

F = Fraction
D4T = [[3, 1], [0, 2]]
D4T_DUAL = [[3, 0], [1, 2]]


def _formatted(group):
    return [format_element(g) for g in group.elements()]


def test_gmax_chain():
    g = gmax([[4]])
    assert g.order == 4
    assert ((1,), 4) in g
    assert ((1,), 2) in g


def test_gmax_order_matches_determinant():
    for name in ["A1", "A4", "D3", "D5", "D4t", "D6t", "A2+D4t"]:
        p = parse_model(name)
        assert gmax(p.matrix).order == abs(det_int(p.matrix))


def test_gmax_rejects_singular():
    with pytest.raises(SymmetryError):
        gmax([[1, 1], [1, 1]])


def test_j_element_d4t():
    lphi, ell = j_element(D4T)
    assert (lphi, ell) == ((1, 3), 6)  # phi = (1/6, 1/2)
    assert format_element((lphi, ell)) == "1/6,1/2"
    assert (lphi, ell) in gmax(D4T)


def test_j_element_chain():
    assert j_element([[3]]) == ((1,), 3)


def test_worked_example_transpose():
    # G = <(1/2, 1/2)> for the matrix [[3,1],[0,2]]; its dual on the
    # transposed side is the order-3 group generated by (1/3, 1/3)
    g = DiagonalGroup(2, [[1, 1]], 2)
    dual = krawitz_transpose(D4T, g)
    assert dual.order == 3
    assert ((1, 1), 3) in dual
    assert ((2, 2), 3) in dual
    full = gmax(D4T_DUAL)
    assert all(e in full for e in dual.elements())
    # the input group is special-linear, the dual one is not
    assert is_sl(g)
    assert not is_sl(dual)


def test_transpose_extremes():
    # the full group and the trivial group exchange under transposition
    full = gmax(D4T)
    triv = krawitz_transpose(D4T, full)
    assert triv.order == 1
    # triv lives on the transposed side; dualizing it from there comes back
    back = krawitz_transpose(D4T_DUAL, triv)
    assert back == full


def test_transpose_involutive_on_all_subgroups():
    for name in ["A2", "A3", "A5", "D4t", "D5", "D6t", "D4"]:
        a = parse_model(name).matrix
        at = mat_transpose(a)
        for ref in subgroups(ref_gmax(a)):
            sub = lattice(ref)
            dual = krawitz_transpose(a, sub)
            back = krawitz_transpose(at, dual)
            assert back == sub, (name, ref.elements)


def test_transpose_reverses_order():
    # |G| * |G dual| = |det A|
    a = D4T
    d = abs(det_int(a))
    for ref in subgroups(ref_gmax(a)):
        sub = lattice(ref)
        dual = krawitz_transpose(a, sub)
        assert sub.order * dual.order == d


def test_transpose_rejects_non_symmetry():
    with pytest.raises(SymmetryError):
        krawitz_transpose(D4T, DiagonalGroup(2, [[1, 0]], 5))


def test_is_sl():
    assert is_sl(DiagonalGroup(2, [[1, 1]], 2))
    assert not is_sl(DiagonalGroup(2, [[1, 0]], 2))
    assert is_sl(DiagonalGroup(1, [], 1))


def test_subgroup_enumeration_counts():
    # cyclic of order 6 has one subgroup per divisor
    g = ref_gmax([[5, 1], [0, 2]])  # det 10 -> cyclic? count divisors instead
    orders = sorted(len(s) for s in subgroups(g))
    for s in subgroups(g):
        assert len(g) % len(s) == 0
    assert orders[0] == 1 and orders[-1] == len(g)
    c6 = ref_gmax(D4T)
    assert [len(s) for s in subgroups(c6)] == [1, 2, 3, 6]


def test_group_parsing_and_formatting():
    g = parse_group_string("1/2,1/2", 2)
    assert g.order == 2
    assert _formatted(g) == ["0,0", "1/2,1/2"]
    assert format_element(((1, 2), 3)) == "1/3,2/3"
    assert format_element(((4, -1, 0), 6)) == "2/3,5/6,0"
    trivial = parse_group_string("", 2)
    assert trivial.order == 1
    two_gens = parse_group_string("1/2,0;0,1/2", 2)
    assert two_gens.order == 4
    # signs, integers and mixed denominators, taken mod 1
    assert parse_group_string(" -1/2 , +3/2 ; 1,-2/6", 2) == parse_group_string("1/2,1/2;0,2/3", 2)
    with pytest.raises(SymmetryError):
        parse_group_string("1/2", 2)
    # coordinates are integers or fractions of integers: no decimals
    for text in ["1/0,0", "a,b", "0.5,0", ".5,0", "1e-1,0", "1/-2,0", "1/,0", "/2,0", "1/2/3,0", ",0"]:
        with pytest.raises(SymmetryError, match="cannot parse generator"):
            parse_group_string(text, 2)
    if hasattr(sys, "get_int_max_str_digits"):  # more digits than int() takes
        with pytest.raises(SymmetryError, match="cannot parse generator"):
            parse_group_string("1/" + "7" * (sys.get_int_max_str_digits() + 1) + ",0", 2)


def test_group_membership_normalizes_mod_one():
    g = DiagonalGroup(2, [[1, 1]], 2)
    assert ((3, -1), 2) in g
    assert ((2, 1), 4) not in g
    with pytest.raises(SymmetryError):
        ((1,), 2) in g


def test_elements_are_sorted_and_contain_zero():
    g = DiagonalGroup(1, [[1]], 3)
    assert g.elements() == [((0,), 3), ((1,), 3), ((2,), 3)]


def test_elements_refuse_a_group_above_the_bound(monkeypatch):
    # the order comes off the Hermite basis, so a refusal lists nothing
    g = gmax([[1000, 0], [0, 1000]])
    assert g.order == 10**6 and g.basis == [[1, 0], [0, 1]] and g.den == 1000
    with pytest.raises(ResourceLimitError, match="group has 1000000 elements, above the limit 131072"):
        g.elements()
    monkeypatch.setattr(symmetry, "MAX_GROUP_ORDER", 5)
    with pytest.raises(ResourceLimitError, match="group has 6 elements, above the limit 5"):
        gmax(D4T).elements()
    monkeypatch.setattr(symmetry, "MAX_GROUP_ORDER", 6)
    assert len(gmax(D4T).elements()) == 6


def _pair(e):
    """A tuple of Fractions as a (nums, den) pair."""
    den = lcm(1, *(x.denominator for x in e))
    return tuple(int(x * den) for x in e), den


@pytest.mark.parametrize("name", ["A2", "A3", "A5", "D4", "D5", "D6t", "D4t", "A2+A2", "A2+D4t"])
def test_lattice_groups_agree_with_the_element_set_reference(name):
    a = parse_model(name).matrix
    full = ref_gmax(a)
    assert lattice(full) == gmax(a)
    for ref in subgroups(full):
        g = lattice(ref)
        assert _formatted(g) == ref.formatted() and g.order == len(ref)
        assert all(_pair(e) in g for e in ref.elements)
        # an element of gmax(A) outside the subgroup, or one of order
        # |det A| + 1, which no symmetry has
        outside = next((e for e in full.elements if e not in ref), (F(1, len(full) + 1),) + (F(0),) * (g.n - 1))
        assert outside not in ref and _pair(outside) not in g
        assert is_sl(g) == ref.is_sl()
        assert _formatted(krawitz_transpose(a, g)) == ref_transpose(a, ref).formatted()
