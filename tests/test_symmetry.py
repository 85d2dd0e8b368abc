"""Tests for diagonal symmetry groups and group transposition."""

from fractions import Fraction

import pytest

from hmskit.exactmat import det_int, mat_transpose
from hmskit.polyforms import parse_model
from hmskit.symmetry import (
    DiagonalGroup,
    SymmetryError,
    format_element,
    format_group,
    gmax,
    is_sl,
    j_element,
    krawitz_transpose,
    parse_group_string,
)

from reference_exact import subgroups

F = Fraction
D4T = [[3, 1], [0, 2]]
D4T_DUAL = [[3, 0], [1, 2]]


def test_gmax_chain():
    g = gmax([[4]])
    assert len(g) == 4
    assert (F(1, 4),) in g
    assert (F(1, 2),) in g


def test_gmax_order_matches_determinant():
    for name in ["A1", "A4", "D3", "D5", "D4t", "D6t", "A2+D4t"]:
        p = parse_model(name)
        assert len(gmax(p.matrix)) == abs(det_int(p.matrix))


def test_gmax_rejects_singular():
    with pytest.raises(SymmetryError):
        gmax([[1, 1], [1, 1]])


def test_j_element_d4t():
    phi, ell, j = j_element(D4T)
    assert phi == (F(1, 6), F(1, 2))
    assert ell == 6
    assert j == (F(1, 6), F(1, 2))
    assert j in gmax(D4T)


def test_j_element_chain():
    phi, ell, j = j_element([[3]])
    assert phi == (F(1, 3),)
    assert ell == 3


def test_worked_example_transpose():
    # G = <(1/2, 1/2)> for the matrix [[3,1],[0,2]]; its dual on the
    # transposed side is the order-3 group generated by (1/3, 1/3)
    g = DiagonalGroup.generated(2, [(F(1, 2), F(1, 2))])
    dual = krawitz_transpose(D4T, g)
    assert len(dual) == 3
    assert (F(1, 3), F(1, 3)) in dual
    assert (F(2, 3), F(2, 3)) in dual
    assert set(dual.elements) <= set(gmax(D4T_DUAL).elements)
    # the input group is special-linear, the dual one is not
    assert is_sl(g)
    assert not is_sl(dual)


def test_transpose_extremes():
    # the full group and the trivial group exchange under transposition
    full = gmax(D4T)
    triv = krawitz_transpose(D4T, full)
    assert len(triv) == 1
    # triv lives on the transposed side; dualizing it from there comes back
    back = krawitz_transpose(D4T_DUAL, triv)
    assert back == full


def test_transpose_involutive_on_all_subgroups():
    for name in ["A2", "A3", "A5", "D4t", "D5", "D6t", "D4"]:
        a = parse_model(name).matrix
        at = mat_transpose(a)
        for sub in subgroups(gmax(a)):
            dual = krawitz_transpose(a, sub)
            back = krawitz_transpose(at, dual)
            assert back == sub, (name, sub.elements)


def test_transpose_reverses_order():
    # |G| * |G dual| = |det A|
    a = D4T
    d = abs(det_int(a))
    for sub in subgroups(gmax(a)):
        dual = krawitz_transpose(a, sub)
        assert len(sub) * len(dual) == d


def test_transpose_rejects_non_symmetry():
    with pytest.raises(SymmetryError):
        krawitz_transpose(D4T, [(F(1, 5), F(0))])


def test_is_sl():
    assert is_sl(DiagonalGroup.generated(2, [(F(1, 2), F(1, 2))]))
    assert not is_sl(DiagonalGroup.generated(2, [(F(1, 2), F(0))]))
    assert is_sl(DiagonalGroup.generated(1, []))


def test_subgroup_enumeration_counts():
    # cyclic of order 6 has one subgroup per divisor
    g = gmax([[5, 1], [0, 2]])  # det 10 -> cyclic? count divisors instead
    orders = sorted(len(s) for s in subgroups(g))
    for s in subgroups(g):
        assert len(g) % len(s) == 0
    assert orders[0] == 1 and orders[-1] == len(g)
    c6 = gmax(D4T)
    assert [len(s) for s in subgroups(c6)] == [1, 2, 3, 6]


def test_group_parsing_and_formatting():
    g = parse_group_string("1/2,1/2", 2)
    assert len(g) == 2
    assert format_group(g) == "0,0;1/2,1/2"
    assert format_element((F(1, 3), F(2, 3))) == "1/3,2/3"
    trivial = parse_group_string("", 2)
    assert len(trivial) == 1
    two_gens = parse_group_string("1/2,0;0,1/2", 2)
    assert len(two_gens) == 4
    with pytest.raises(SymmetryError):
        parse_group_string("1/2", 2)
    with pytest.raises(SymmetryError):
        parse_group_string("1/0,0", 2)
    with pytest.raises(SymmetryError):
        parse_group_string("a,b", 2)


def test_group_membership_normalizes_mod_one():
    g = DiagonalGroup.generated(2, [(F(1, 2), F(1, 2))])
    assert (F(3, 2), F(-1, 2)) in g
    assert (F(1, 2), F(1, 4)) not in g


def test_elements_are_sorted_and_contain_zero():
    g = DiagonalGroup.generated(1, [(F(1, 3),)])
    assert g.elements == ((F(0),), (F(1, 3),), (F(2, 3),))
