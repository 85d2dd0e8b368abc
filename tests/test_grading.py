"""Tests for grading groups, transversals, sums, and symmetry quotients."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmskit.grading import (
    GradingError,
    LElement,
    grading_group,
    lbar_representatives,
    m_grading,
    quotient_presentation,
    sum_grading_maps,
)
from hmskit.exactmat import mat_transpose
from hmskit.hmscli import _grading_json
from hmskit.symmetry import DiagonalGroup, gmax, krawitz_transpose, parse_group_string

from reference_exact import grading_invariants, rat_rank

A2 = [[3]]
D4T = [[3, 1], [0, 2]]


def test_chain_polynomial_grading():
    for m in range(1, 7):
        ctx = grading_group([[m + 1]])
        assert ctx.free_rank == 1
        assert ctx.torsion == ()
        assert ctx.deg_x == (ctx.element(1),)
        assert ctx.deg_c == ctx.element(m + 1)
        reps = lbar_representatives(ctx)
        assert reps == [ctx.element(f) for f in range(m + 1)]


def test_d4_transposed_grading():
    ctx = grading_group(D4T)
    assert ctx.free_rank == 1 and ctx.torsion == ()
    assert [d.free[0] for d in ctx.deg_x] == [1, 3]
    assert ctx.deg_c.free[0] == 6
    assert len(lbar_representatives(ctx)) == 6


def test_d_family_grading():
    # x^(n-1) y + y^2 with deg x = 1 forces deg y = n - 1, c = 2n - 2
    for n in range(3, 8):
        ctx = grading_group([[n - 1, 1], [0, 2]])
        assert [d.free[0] for d in ctx.deg_x] == [1, n - 1]
        assert ctx.deg_c.free[0] == 2 * n - 2


def test_degree_relation_holds():
    ctx = grading_group(D4T)
    x, y = ctx.deg_x
    assert 3 * x + y == ctx.deg_c
    assert 2 * y == ctx.deg_c


def test_trivial_context():
    ctx = grading_group([])
    assert ctx.free_rank == 1
    assert ctx.deg_x == ()
    assert ctx.deg_c == ctx.element(1)
    assert lbar_representatives(ctx) == [ctx.element(0)]


def test_sum_grading_two_chains():
    ctx = sum_grading_maps(grading_group(A2), grading_group(A2))[0]
    assert ctx.free_rank == 1
    assert ctx.torsion == (3,)
    assert len(lbar_representatives(ctx)) == 9
    # degrees of the two variables differ by a generator of the torsion
    d1, d2 = ctx.deg_x
    assert d1.free == d2.free
    diff = d1 - d2
    assert diff.free == (0,) and diff.tors[0] % 3 != 0
    assert 3 * d1 == ctx.deg_c and 3 * d2 == ctx.deg_c


def test_sum_grading_matches_block_matrix():
    # building the sum from the block-diagonal exponent matrix directly
    # gives an isomorphic answer
    block = [[3, 0], [0, 3]]
    direct = grading_group(block)
    summed = sum_grading_maps(grading_group(A2), grading_group(A2))[0]
    assert grading_invariants(direct) == grading_invariants(summed)

    block2 = [[3, 0, 0], [0, 3, 1], [0, 0, 2]]
    direct2 = grading_group(block2)
    summed2 = sum_grading_maps(grading_group(A2), grading_group(D4T))[0]
    assert grading_invariants(direct2) == grading_invariants(summed2)
    assert len(lbar_representatives(summed2)) == 18


def test_sum_grading_embeddings():
    ctx1 = grading_group(A2)
    ctx2 = grading_group(D4T)
    ctx, emb1, emb2 = sum_grading_maps(ctx1, ctx2)
    assert emb1(ctx1.deg_c) == ctx.deg_c
    assert emb2(ctx2.deg_c) == ctx.deg_c
    assert tuple(emb1(d) for d in ctx1.deg_x) + tuple(
        emb2(d) for d in ctx2.deg_x
    ) == ctx.deg_x
    # embeddings are homomorphisms
    a, b = ctx2.deg_x
    assert emb2(a + b) == emb2(a) + emb2(b)
    assert emb2(-a) == -emb2(a)


def test_lbar_rejects_infinite_quotients():
    with pytest.raises(GradingError):
        lbar_representatives(grading_group([[1, 1], [1, 1]]))


def test_quotient_presentation_examples():
    # invariant factors merge coprime parts: Z/2 + Z/3 = Z/6
    free, tors, moduli = quotient_presentation(2, [[2, 0], [0, 3]])
    assert free == [] and moduli == [6]
    free, tors, moduli = quotient_presentation(2, [[3, -3]])
    assert len(free) == 1 and moduli == [3]
    free, tors, moduli = quotient_presentation(3, [])
    assert len(free) == 3 and moduli == []


def test_m_grading_worked_example():
    # the group {0, (1/3,1/3), (2/3,2/3)}, given by all its elements
    group = DiagonalGroup(2, [[0, 0], [1, 1], [2, 2]], 3)
    ctx = m_grading([[3, 0], [1, 2]], group)
    assert ctx.free_rank == 1 and ctx.torsion == ()
    assert [d.free[0] for d in ctx.deg_x] == [1, 1]
    assert ctx.deg_c.free[0] == 3
    assert len(lbar_representatives(ctx)) == 3


def test_m_grading_with_full_group_matches_universal():
    # the maximal diagonal symmetry group recovers the universal grading
    a = D4T
    gen = (5, 3)  # (-1/6 mod 1, 1/2)
    group = DiagonalGroup(2, [[(k * g) % 6 for g in gen] for k in range(6)], 6)
    ctx = m_grading(a, group)
    assert grading_invariants(ctx) == grading_invariants(grading_group(a))


def test_m_grading_with_cyclic_j_group():
    # grading by the group generated by the exponential element alone:
    # free of rank one with variable degrees equal to the scaled weights
    a = D4T
    j = (1, 3)  # (1/6, 1/2)
    group = DiagonalGroup(2, [[(k * g) % 6 for g in j] for k in range(6)], 6)
    ctx = m_grading(a, group)
    assert ctx.free_rank == 1 and ctx.torsion == ()
    assert [d.free[0] for d in ctx.deg_x] == [1, 3]
    assert ctx.deg_c.free[0] == 6


def test_m_grading_requires_j_in_group():
    with pytest.raises(GradingError, match="not in the group"):
        m_grading([[3, 0], [1, 2]], DiagonalGroup(2, [], 1))


def test_m_grading_rejects_non_symmetry():
    # J = (1/3, 1/3) and (1/2, 1/5), which is no symmetry of x^3 + x y^2
    bad = DiagonalGroup(2, [[10, 10], [15, 6]], 30)
    with pytest.raises(GradingError, match="not a symmetry"):
        m_grading([[3, 0], [1, 2]], bad)


def _generating_sets(group, rnd, count):
    """`count` shuffled generating sets of a DiagonalGroup, each as integer
    rows over the group's den: elements drawn at random until they generate
    the group, with repeats and the zero element allowed."""
    elements = group.elements()
    out = []
    while len(out) < count:
        rows = []
        while DiagonalGroup(group.n, rows, group.den) != group:
            rows.append(list(rnd.choice(elements)[0]))
        rnd.shuffle(rows)
        out.append(rows)
    return out


@pytest.mark.parametrize(
    "a, group",
    [
        (D4T, gmax(D4T)),
        ([[3, 0], [1, 2]], "1/3,1/3"),
        ([[6, 0], [0, 6]], "1/6,1/6"),
        ([[3, 0, 0], [0, 3, 0], [0, 0, 3]], None),
        ([[12, 0, 0], [0, 6, 0], [0, 0, 4]], None),
        ([[3, 0, 0], [0, 3, 1], [0, 0, 2]], None),
    ],
)
def test_m_grading_depends_on_the_group_alone(a, group):
    # a group string is parsed; None stands for the dual of the trivial
    # group on the transposed side, which transpose grades by; the whole
    # group and shuffled generating sets of it give one report
    if group is None:
        group = krawitz_transpose(a, parse_group_string("", len(a)))
        a = mat_transpose(a)
    elif isinstance(group, str):
        group = parse_group_string(group, len(a))
    whole = DiagonalGroup(group.n, [list(e[0]) for e in group.elements()], group.den)
    expected = _grading_json(m_grading(a, whole))
    for rows in _generating_sets(group, random.Random(group.order), 5):
        assert _grading_json(m_grading(a, DiagonalGroup(group.n, rows, group.den))) == expected


def test_element_arithmetic():
    ctx = sum_grading_maps(grading_group(A2), grading_group(A2))[0]
    e = ctx.element(4, (2,))
    assert e + ctx.zero() == e
    assert e - e == ctx.zero()
    assert 3 * e == e + e + e
    assert (-1) * e == -e
    assert (e + ctx.element(0, (1,))).tors == ((2 + 1) % 3,)


def test_element_with_the_torsion_part_omitted_has_zero_torsion():
    ctx = sum_grading_maps(grading_group(A2), grading_group(A2))[0]
    assert ctx.torsion == (3,)
    assert ctx.element(1) == ctx.element(1, (0,))
    assert (ctx.element(1) + ctx.element(0, (1,))).tors == (1,)
    with pytest.raises(GradingError, match="torsion part"):
        ctx.element(1, (0, 0))


def test_element_torsion_reduction():
    e = LElement((1,), (7,), (3,))
    assert e.tors == (1,)
    f = LElement((0,), (-1,), (3,))
    assert f.tors == (2,)


def test_element_equality_hash_and_order_follow_its_fields():
    a = LElement((1,), (4,), (3,))
    assert a == LElement((1,), (1,), (3,)) and hash(a) == hash(LElement((1,), (1,), (3,)))
    assert a != LElement((1,), (1,), (5,)) and a != LElement((2,), (1,), (3,))
    assert a != ((1,), (1,), (3,))
    elems = [LElement((f,), (t,), (m,)) for f in (1, 0) for t in (4, 0, 2) for m in (5, 3)]
    assert sorted(elems) == sorted(elems, key=lambda e: (e.free, e.tors, e.moduli))
    assert LElement((0,), (2,), (3,)) < LElement((1,), (0,), (3,))
    assert LElement((0,), (1,), (3,)) < LElement((0,), (1,), (5,))
    assert not a < LElement((1,), (1,), (3,))
    assert len({a, LElement((1,), (1,), (3,)), LElement((1,), (7,), (3,))}) == 1


@pytest.mark.parametrize("field", ["free", "tors", "moduli", "other"])
def test_element_is_immutable(field):
    e = LElement((1,), (2,), (3,))
    with pytest.raises(AttributeError):
        setattr(e, field, (0,))
    with pytest.raises(AttributeError):
        delattr(e, field)
    assert e == LElement((1,), (2,), (3,))


def test_mixed_group_arithmetic_rejected():
    a = grading_group(A2).element(1)
    b = sum_grading_maps(grading_group(A2), grading_group(A2))[0].element(1, (0,))
    with pytest.raises(GradingError):
        a + b


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=4
    )
)
def test_quotient_presentation_kills_relations(rows):
    free, tors, moduli = quotient_presentation(3, rows)

    def cls(v):
        f = tuple(sum(a * b for a, b in zip(r, v)) for r in free)
        t = tuple(sum(a * b for a, b in zip(r, v)) % m for r, m in zip(tors, moduli))
        return f, t

    zero = cls([0, 0, 0])
    for r in rows:
        assert cls(r) == zero
    # the map is onto the advertised normal form: generators hit a full
    # lattice, checked via the projection rows having full row rank
    proj = [list(r) for r in free] + [list(r) for r in tors]
    if proj:
        assert rat_rank(proj) == len(proj)
