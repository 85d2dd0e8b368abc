"""Tests for the exact linear algebra and polynomial layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmskit.exactmat import (
    GaussInt,
    I,
    Poly,
    charpoly,
    det_int,
    hermite,
    identity_matrix,
    integer_columns,
    int_kernel,
    int_rank,
    mat_inverse,
    mat_mul,
    smith_normal_form,
    snf_diagonal,
)

from reference_exact import parse_poly_string, rat_kernel, rat_rank


def mat_strategy(max_dim=5, max_entry=30):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


# ---------------------------------------------------------------- SNF


def test_snf_identity():
    u, d, v = smith_normal_form(identity_matrix(3))
    assert d == identity_matrix(3)
    assert mat_mul(mat_mul(u, identity_matrix(3)), v) == d


def test_snf_worked_2x2():
    a = [[2, 4], [6, 8]]
    u, d, v = smith_normal_form(a)
    assert snf_diagonal(d) == [2, 4]
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1


def test_snf_1x1():
    for m in range(1, 7):
        u, d, v = smith_normal_form([[m + 1]])
        assert d == [[m + 1]]


def test_snf_rectangular_and_zero():
    u, d, v = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert snf_diagonal(d) == [0, 0]
    u, d, v = smith_normal_form([[1, 2, 3]])
    assert snf_diagonal(d) == [1]
    assert mat_mul(mat_mul(u, [[1, 2, 3]]), v) == d


def test_snf_needs_divisibility_fixup():
    # diag(2, 3) is not in normal form; the invariant factors are 1, 6
    a = [[2, 0], [0, 3]]
    u, d, v = smith_normal_form(a)
    assert snf_diagonal(d) == [1, 6]
    assert mat_mul(mat_mul(u, a), v) == d


@settings(max_examples=150, deadline=None)
@given(mat_strategy())
def test_snf_properties(a):
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    diag = snf_diagonal(d)
    rows = len(d)
    cols = len(d[0])
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for x in diag:
        assert x >= 0
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0


@settings(max_examples=40, deadline=None)
@given(mat_strategy(max_dim=4, max_entry=12))
def test_snf_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    _, d, _ = smith_normal_form(a)
    ours = [abs(x) for x in snf_diagonal(d) if x != 0]
    theirs_mat = sympy_snf(sympy.Matrix(a))
    theirs = [
        abs(int(theirs_mat[i, i]))
        for i in range(min(theirs_mat.rows, theirs_mat.cols))
        if theirs_mat[i, i] != 0
    ]
    assert ours == theirs


# ---------------------------------------------------------------- kernels


def test_rat_kernel_examples():
    assert len(rat_kernel([[0, 0], [0, 0]])) == 2
    assert rat_kernel(identity_matrix(3)) == []
    basis = rat_kernel([[1, 1], [2, 2]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v != [0, 0]


@settings(max_examples=150, deadline=None)
@given(mat_strategy())
def test_rat_kernel_properties(a):
    basis = rat_kernel(a)
    cols = len(a[0])
    for vec in basis:
        assert any(x != 0 for x in vec)
        for row in a:
            assert sum(Fraction(x) * y for x, y in zip(row, vec)) == 0
    # rank-nullity
    assert rat_rank(a) + len(basis) == cols
    # independence: stack the vectors and check full rank
    if basis:
        assert rat_rank(basis) == len(basis)


@settings(max_examples=60, deadline=None)
@given(mat_strategy(max_dim=4))
def test_int_kernel_properties(a):
    basis = int_kernel(a)
    assert len(basis) == len(rat_kernel(a))
    for vec in basis:
        assert all(isinstance(x, int) for x in vec)
        for row in a:
            assert sum(x * y for x, y in zip(row, vec)) == 0


# ---------------------------------------------------------------- det / inverse


def test_det_examples():
    assert det_int([[3, 1], [0, 2]]) == 6
    assert det_int([[2, 0], [1, 2]]) == 4
    assert det_int([[1, 2], [2, 4]]) == 0
    assert det_int([]) == 1


@settings(max_examples=60, deadline=None)
@given(mat_strategy(max_dim=4, max_entry=9).filter(lambda a: len(a) == len(a[0])))
def test_det_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    assert det_int(a) == int(sympy.Matrix(a).det())


def test_inverse_roundtrip():
    a = [[3, 1], [0, 2]]
    inv, den = mat_inverse(a)
    assert (inv, den) == ([[2, -1], [0, 3]], 6)  # the least denominator
    assert mat_mul(a, inv) == [[den, 0], [0, den]]
    assert mat_inverse([[2, 0], [0, 2]]) == ([[1, 0], [0, 1]], 2)
    assert mat_inverse([]) == ([], 1)
    with pytest.raises(ValueError):
        mat_inverse([[1, 2], [2, 4]])


# ------------------------------------------------------------------ hermite


def _reduce(row, basis):
    """row minus the integer combination of the echelon basis that clears
    its pivot columns, or None when some pivot does not divide."""
    row = list(row)
    for b in basis:
        c = next(j for j, x in enumerate(b) if x)
        q, r = divmod(row[c], b[c])
        if r:
            return None
        row = [x - q * y for x, y in zip(row, b)]
    return row


def test_hermite_examples():
    assert hermite([[2, 4], [0, 6]], 2) == [[2, 4], [0, 6]]
    assert hermite([[0, 6], [2, 4]], 2) == [[2, 4], [0, 6]]
    assert hermite([[2, 10], [0, 6]], 2) == [[2, 4], [0, 6]]  # 10 reduced mod 6
    assert hermite([[-3, 0], [0, 0], [6, 1]], 2) == [[3, 0], [0, 1]]
    assert hermite([[1, 2, 3], [2, 4, 6]], 3) == [[1, 2, 3]]
    assert hermite([], 2) == []


@settings(max_examples=150, deadline=None)
@given(mat_strategy(max_dim=4, max_entry=9), st.randoms(use_true_random=False))
def test_hermite_is_an_echelon_basis_of_the_same_lattice(a, rnd):
    n = len(a[0])
    h = hermite(a, n)
    assert len(h) == rat_rank(a)
    pivots = [next(j for j, x in enumerate(r) if x) for r in h]
    assert pivots == sorted(set(pivots))
    for i, (r, c) in enumerate(zip(h, pivots)):
        assert r[c] > 0 and all(0 <= b[c] < r[c] for b in h[:i])
    # every input row lies in the lattice of h, and h in that of the rows:
    # shuffled rows plus integer combinations of them give the same basis
    assert all(_reduce(r, h) == [0] * n for r in a)
    rows = [list(r) for r in a]
    for _ in range(4):
        i, j = rnd.randrange(len(rows)), rnd.randrange(len(rows))
        if i != j:
            k = rnd.randint(-3, 3)
            rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])]
    rnd.shuffle(rows)
    assert hermite(rows + [[0] * n], n) == h


# ---------------------------------------------------------------- charpoly


def test_charpoly_small():
    # det(tI - C) for the 2x2 companion-like matrix [[0,-1],[1,-1]]
    assert charpoly([[0, -1], [1, -1]]) == [1, 1, 1]
    assert charpoly([[5]]) == [1, -5]
    assert charpoly([[2, 0], [0, 3]]) == [1, -5, 6]


def test_charpoly_returns_ints():
    coeffs = charpoly([[1, 2, 0], [-3, 4, 5], [7, 0, -6]])
    assert coeffs == [1, 1, -20, -10]
    assert all(type(c) is int for c in coeffs)


@settings(max_examples=40, deadline=None)
@given(mat_strategy(max_dim=4, max_entry=6).filter(lambda a: len(a) == len(a[0])))
def test_charpoly_matches_sympy(a):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    theirs = sympy.Matrix(a).charpoly(t).all_coeffs()
    ours = charpoly(a)
    assert [Fraction(int(c)) for c in theirs] == [Fraction(c) for c in ours]


# ---------------------------------------------------------------- int_rank


def _to_rows(a):
    return [{j: v for j, v in enumerate(row) if v} for row in a]


@settings(max_examples=150, deadline=None)
@given(mat_strategy())
def test_int_rank_matches_rat_rank(a):
    rows = _to_rows(a)
    assert int_rank(rows, []) == rat_rank(a)


def test_int_rank_empty_and_huge_entries():
    assert int_rank([], []) == 0
    assert int_rank([{}], []) == 0
    big = 10**40
    assert int_rank([{0: big, 1: big}, {0: big, 1: -big}], []) == 2


def test_int_rank_input_not_mutated():
    rows = [{0: 2, 1: 4}, {0: 1, 1: 3}]
    snapshot = [dict(r) for r in rows]
    int_rank(rows, [])
    assert rows == snapshot


def sparse_mat_strategy(max_dim=25):
    """Sparse matrices, wide, tall or with empty rows: mostly zeros, then
    +-1, then small non-unit entries."""
    entry = st.sampled_from([0] * 12 + [1, -1] * 3 + [2, -2, 3, -3, 4, 6, -6])
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@settings(max_examples=150, deadline=None)
@given(sparse_mat_strategy())
def test_int_rank_sparse_matches_rat_rank(a):
    rows = _to_rows(a)
    snapshot = [dict(r) for r in rows]
    assert int_rank(rows, []) == rat_rank(a)
    assert rows == snapshot


@settings(max_examples=100, deadline=None)
@given(sparse_mat_strategy())
def test_int_rank_reports_independent_pivot_columns(a):
    rows = _to_rows(a)
    snapshot = [dict(r) for r in rows]
    pivots = []
    rank = int_rank(rows, pivots)
    assert rows == snapshot
    assert len(pivots) == len(set(pivots)) == rank
    # the rows restricted to the pivot columns keep the rank
    assert rat_rank([[row[c] for c in pivots] for row in a]) == rank


@st.composite
def peel_mat_strategy(draw):
    """Sparse rows, then rows that are sums of others, then planted
    singleton columns: a fresh column with one nonzero entry in a random
    row.  Rows with a planted column are peeled; the dependent rows make a
    core that only elimination resolves."""
    a = draw(sparse_mat_strategy(max_dim=12))
    row = st.integers(0, len(a) - 1)
    for p, q, sign in draw(st.lists(st.tuples(row, row, st.sampled_from([1, -1, 2])), max_size=6)):
        a.append([x + sign * y for x, y in zip(a[p], a[q])])
    planted = st.tuples(st.integers(0, len(a) - 1), st.sampled_from([1, -1, 2, -3]))
    for i, v in draw(st.lists(planted, max_size=8)):
        for j, r in enumerate(a):
            r.append(v if j == i else 0)
    return a


@settings(max_examples=150, deadline=None)
@given(peel_mat_strategy())
def test_int_rank_peels_and_eliminates(a):
    rows = _to_rows(a)
    snapshot = [dict(r) for r in rows]
    pivots = []
    rank = int_rank(rows, pivots)
    assert rank == rat_rank(a)
    assert len(pivots) == len(set(pivots)) == rank
    assert rat_rank([[row[c] for c in pivots] for row in a]) == rank
    assert rows == snapshot


def test_int_rank_peels_a_permuted_identity():
    # every identity column is a singleton, so peeling takes every pivot;
    # elimination would prefer the unit entries of the dense columns
    rng = random.Random(7)
    n = 40
    perm = list(range(n))
    rng.shuffle(perm)
    a = []
    for i in range(n):
        row = [0] * n + [rng.choice((1, -1)) for _ in range(5)]
        row[perm[i]] = rng.choice((2, -3, 5))
        a.append(row)
    rows = _to_rows(a)
    snapshot = [dict(r) for r in rows]
    pivots = []
    assert int_rank(rows, pivots) == n == rat_rank(a)
    assert sorted(pivots) == list(range(n))
    assert rows == snapshot


def test_int_rank_pivot_paths_agree():
    # transposing and permuting rows changes which rows peel and in which
    # order the core is reduced, so the elimination takes other pivots
    rng = random.Random(20100401)
    a = [[0] * 140 for _ in range(120)]
    for i in range(120):
        for j in rng.sample(range(140), rng.randint(0, 6)):
            a[i][j] = rng.choice((1, -1))
    # dependent rows: sums and differences of earlier ones
    for i in range(100, 120):
        p, q = rng.sample(range(100), 2)
        a[i] = [x + rng.choice((1, -1)) * y for x, y in zip(a[p], a[q])]
    rank = int_rank(_to_rows(a), [])
    assert rank == rat_rank(a)
    assert rank <= 100
    at = [list(col) for col in zip(*a)]
    assert int_rank(_to_rows(at), []) == rank
    perm = list(range(120))
    rng.shuffle(perm)
    assert int_rank(_to_rows([a[i] for i in perm]), []) == rank


def test_int_rank_non_unit_entries():
    # no unit entry anywhere, so every pivot takes the gcd-reduced update
    a = [
        [2, 3, 6, 0, 0],
        [6, 0, 2, 3, 0],
        [0, 6, 3, 0, 2],
        [6, 0, 2, 3, 0],
        [2, 0, 0, 2, 6],
        [0, 0, 0, 0, 0],
    ]
    rows = _to_rows(a)
    snapshot = [dict(r) for r in rows]
    assert int_rank(rows, []) == rat_rank(a) == 4
    assert int_rank(rows + [{c: 6 for c in range(5)}], []) == 5
    assert int_rank(_to_rows([[6, 6], [6, 6], [2, 2], [3, 3]]), []) == 1
    assert rows == snapshot


# ---------------------------------------------------------------- polynomials


def test_poly_basics():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    assert x * x == Poly.monomial(2, (2, 0))
    sq = (x + y) * (x + y)
    assert sq == Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert not Poly.zero(2)
    assert not (x + -x)


def test_poly_mismatched_vars_rejected():
    with pytest.raises(ValueError):
        Poly.variable(1, 0) + Poly.variable(2, 0)
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(1, {(-1,): 1})


def poly_strategy(nvars=2):
    coeff = st.one_of(
        st.integers(-5, 5),
        st.builds(GaussInt, st.integers(-3, 3), st.integers(-3, 3)),
    )
    term = st.tuples(
        st.tuples(*[st.integers(0, 4) for _ in range(nvars)]),
        coeff,
    )
    return st.lists(term, max_size=5).map(
        lambda ts: Poly(nvars, {e: c for e, c in ts if c})
    )


@settings(max_examples=100, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p * Poly.monomial(2, (0, 0)) == p
    assert p + Poly.zero(2) == p


def test_poly_format_and_parse():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    w = (x * x) * x + x * (y * y)
    assert w.format() == "x^3 + x*y^2"
    assert parse_poly_string("x^3 + x*y^2", 2) == w
    assert parse_poly_string("0", 2) == Poly.zero(2)
    neg = Poly(2, {(1, 0): -2, (0, 0): 3})
    assert parse_poly_string(neg.format(), 2) == neg


@settings(max_examples=60, deadline=None)
@given(poly_strategy())
def test_poly_format_roundtrip(p):
    assert parse_poly_string(p.format(), 2) == p


def test_poly_coefficients_are_canonical():
    # coefficients lie in Z[i]: a Fraction is refused, even an integral one
    with pytest.raises(TypeError):
        Poly(1, {(1,): Fraction(4, 2)})
    with pytest.raises(TypeError):
        Poly(1, {(1,): Fraction(1, 2)})
    with pytest.raises(TypeError):
        parse_poly_string("1/2*x", 1)
    p = Poly(1, {(1,): GaussInt(2, 0)})
    q = Poly(1, {(1,): 2})
    assert type(p.terms[(1,)]) is int
    assert p == q and hash(p) == hash(q)
    x = Poly.variable(2, 0)
    with pytest.raises(TypeError):
        x * Fraction(1, 2)
    unit = x * I * -I
    assert type(unit.terms[(1, 0)]) is int
    assert unit == x and hash(unit) == hash(x)
    iy = I * Poly.variable(2, 1)
    assert type((iy * iy).terms[(0, 2)]) is int
    assert type(iy.terms[(0, 1)]) is GaussInt


def test_gaussian_poly_format_and_parse():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    plus = x + I * y
    minus = Poly.variable(2, 0, 2) - I * y
    mixed = Poly(2, {(1, 0): GaussInt(1, -2), (0, 0): GaussInt(0, 3)})
    assert plus.format() == "x + i*y"
    assert minus.format() == "x^2 - i*y"
    assert mixed.format() == "(1-2*i)*x + 3*i"
    assert (-plus).format() == "-x - i*y"
    for p in (plus, minus, mixed, -mixed):
        assert parse_poly_string(p.format(), 2) == p
    # a product whose imaginary parts cancel is the rational polynomial
    prod = (x + I * y) * (x - I * y)
    assert prod == parse_poly_string("x^2 + y^2", 2)
    assert plus.is_gaussian() and not prod.is_gaussian()
    with pytest.raises(TypeError):
        plus * Fraction(1, 2)


def _realified_rank(cols):
    return int_rank(integer_columns(cols), [])


def test_gaussian_rank_by_realification():
    # columns (1, i) and (i, -1): the second is i times the first
    cols = [{0: 1, 1: I}, {0: I, 1: -1}]
    assert _realified_rank(cols) == 2  # Q(i)-rank 1
    assert _realified_rank([{0: 1, 1: I}, {0: 1, 1: -I}]) == 4
    # an integer matrix keeps its rank, doubled
    assert _realified_rank([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 2


def test_integer_columns_keep_positions():
    # input column s is output columns 2s and 2s + 1, so the indices of a
    # realified map line up with its source coordinates
    cols = [{0: 1}, {}, {1: 1}, {0: I}]
    assert integer_columns(cols) == [
        {0: 1}, {1: 1}, {}, {}, {2: 1}, {3: 1}, {1: 1}, {0: -1},
    ]
    assert integer_columns([{}, {}]) == [{}, {}, {}, {}]


gauss_entry = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(gauss_entry, min_size=3, max_size=3), min_size=1, max_size=4))
def test_gaussian_rank_matches_sympy(entries):
    sympy = pytest.importorskip("sympy")
    cols = [
        {r: GaussInt(a, b) for r, (a, b) in enumerate(col) if a or b}
        for col in entries
    ]
    oracle = sympy.Matrix(
        [[a + b * sympy.I for a, b in col] for col in entries]
    ).rank()
    rank = _realified_rank(cols)
    assert rank % 2 == 0
    assert rank // 2 == oracle

