"""Tests for polynomial recognition, transposition, and sums."""

import pytest

from hmskit.exactmat import Poly
from hmskit.grading import lbar_representatives
from hmskit.polyforms import (
    Atom,
    PolyFormError,
    atom_from_name,
    build,
    parse_model,
    transpose,
)


def test_chain_atom():
    p = build([[3]])
    assert p.name == "A2"
    assert p.format() == "x^3"
    assert p.ctx.deg_c.free[0] == 3


def test_dihedral_atoms():
    p = build([[4, 1], [0, 2]])
    assert p.name == "D5t"
    assert p.format() == "x^4*y + y^2"
    q = build([[4, 0], [1, 2]])
    assert q.name == "D5"
    assert q.format() == "x^4 + x*y^2"


def test_atoms_compare_and_hash_by_their_fields():
    a = Atom("Dt", 5, (0, 1))
    assert build([[4, 1], [0, 2]]).atoms == [a]
    assert a == Atom("Dt", 5, (0, 1)) and hash(a) == hash(Atom("Dt", 5, (0, 1)))
    others = [Atom("D", 5, (0, 1)), Atom("Dt", 4, (0, 1)), Atom("Dt", 5, (1, 0))]
    assert all(a != b for b in others)
    assert len({a, Atom("Dt", 5, (0, 1)), *others}) == 4
    assert a != ("Dt", 5, (0, 1))
    assert repr(a) == "Atom(kind='Dt', param=5, variables=(0, 1))"


@pytest.mark.parametrize("field", ["kind", "param", "variables", "other"])
def test_atom_is_immutable(field):
    a = Atom("A", 2, (0,))
    with pytest.raises(AttributeError):
        setattr(a, field, 3)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == Atom("A", 2, (0,))


def test_transpose_swaps_orientation():
    p = build([[4, 0], [1, 2]])
    t = transpose(p)
    assert t.name == "D5t"
    assert t.matrix == [[4, 1], [0, 2]]
    assert transpose(t).matrix == p.matrix


def test_transpose_chain_is_self():
    p = build([[5]])
    assert transpose(p).matrix == p.matrix


def test_sum_and_ordering():
    s = parse_model("A2+D4t")
    assert s.name == "A2+D4t"
    assert s.nvars == 3
    assert s.matrix == [[3, 0, 0], [0, 3, 1], [0, 0, 2]]
    assert len(lbar_representatives(s.ctx)) == 18


def test_permuted_variables_recognized():
    # same sum with the blocks interleaved: rows/vars renumbered
    a = [
        [1, 0, 2],
        [0, 3, 0],
        [4, 0, 0],
    ]
    # rows: x z^2, y^3, x^4 -> D5 in (x, z), A2 in y
    p = build(a)
    assert p.name == "D5+A2"
    kinds = {at.kind: at for at in p.atoms}
    assert kinds["D"].variables == (0, 2)
    assert kinds["A"].variables == (1,)


def test_empty_polynomial():
    p = build([])
    assert p.name == "0"
    assert p.poly == Poly.zero(0)
    assert p.atoms == []


@pytest.mark.parametrize(
    "name", ["D4t", "D5t", "D6t", "A1", "A2", "A3", "A4", "A5", "A2+A2", "A3+A3", "A2+D4t", "A2+A2+A2", "A3+D4t"]
)
def test_lazy_polynomial_is_the_sum_of_the_row_monomials(name):
    p = parse_model(name)
    eager = Poly.zero(p.nvars)
    for row in p.matrix:
        eager = eager + Poly.monomial(p.nvars, tuple(row))
    assert p.poly == eager and p.poly is p.poly


def test_rejections():
    with pytest.raises(PolyFormError):
        build([[1, 2], [2, 4]])  # singular
    with pytest.raises(PolyFormError):
        build([[1]])  # linear monomial
    with pytest.raises(PolyFormError):
        build([[2, 1], [1, 2]])  # not in the atom class
    with pytest.raises(PolyFormError):
        build([[3, 0], [0, -2]])  # negative exponent
    with pytest.raises(PolyFormError):
        build([[3, 0]])  # not square
    with pytest.raises(PolyFormError):
        # three variables tangled together
        build([[2, 1, 0], [0, 2, 1], [1, 0, 2]])


def test_atom_names():
    assert atom_from_name("A4").template() == [[5]]
    assert atom_from_name("D5").template() == [[4, 0], [1, 2]]
    assert atom_from_name("D5t").template() == [[4, 1], [0, 2]]
    for bad in ["A0", "D2", "B3", "A2t", "", "D", "5"]:
        with pytest.raises(PolyFormError):
            atom_from_name(bad)


def test_parse_model():
    p = parse_model("A2+D4t")
    assert p.matrix == [[3, 0, 0], [0, 3, 1], [0, 0, 2]]
    assert parse_model("A1").matrix == [[2]]
    with pytest.raises(PolyFormError):
        parse_model("A2 + ")
    with pytest.raises(PolyFormError):
        parse_model("")


def test_transpose_of_sum_is_sum_of_transposes():
    s = parse_model("A3+D5")
    t = transpose(s)
    assert t.name == "A3+D5t"
    assert transpose(t).matrix == s.matrix


def test_isolated_critical_points_symbolically():
    # dual-route check: the gradient of every small atom vanishes only at
    # the origin, verified with a symbolic solver
    sympy = pytest.importorskip("sympy")
    models = ["A1", "A2", "A5", "D3", "D4", "D6", "D3t", "D4t", "D6t"]
    for name in models:
        p = parse_model(name)
        xs = sympy.symbols(f"v:{p.nvars}")
        w = 0
        for row in p.matrix:
            term = 1
            for x, e in zip(xs, row):
                term *= x**e
            w += term
        sols = sympy.solve([sympy.diff(w, x) for x in xs], list(xs), dict=True)
        for sol in sols:
            assert all(sol.get(x, 0) == 0 for x in xs), (name, sol)
