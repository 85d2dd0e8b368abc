"""Tests for graded matrix factorizations, hom dimensions, and ext tables."""

import gc
import itertools
import json
import math
import operator
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmskit import factorization, matfac
from hmskit.exactmat import I, Poly, int_rank
from hmskit.grading import GradingContext, grading_group, lbar_representatives, m_grading, sum_grading_maps
from hmskit.hmscli import _table_json
from hmskit.polyforms import build, parse_model
from hmskit.quivercat import dynkin_quiver, simple_hom_dims, tensor_model
from hmskit.symmetry import DiagonalGroup, j_element, parse_group_string
from hmskit.factorization import (
    MatrixFactorization,
    MFError,
    ResourceLimitError,
    koszul_mf,
    mf_from_pair,
    mf_to_json,
    poly_class,
    quotient_graded_collection,
    shift_mf,
    tensor_mf,
    translate_mf,
)
from hmskit.matfac import (
    _hom_memo,
    ext_table,
    generator_collection,
    generator_E,
    hom_dim,
    monomials_of_degree,
    one_period_end_total,
    residue_mf_D,
)

from oracle_homs import _exponents, _slots, oracle_hom_dim
from reference_assembly import boundary_args, cell_keys, first_block_rows, reference_boundary_columns
from reference_audit import reference_validate
from reference_collection import reference_collection
from reference_exact import hom_at, parse_poly_string


def _model(name):
    return parse_model(name)


def _twist(ctx, t):
    return ctx.element(t, (0,) * len(ctx.torsion))


def _rank_one_objects(name):
    # the two objects cut out by a variable and its cofactor
    p = _model(name)
    labels = [lab for lab, _ in generator_collection(p)]
    return p, generator_collection(p), labels


# ---------------------------------------------------------------- construction


def test_pair_factorization_has_forced_labels():
    p = _model("D4t")
    y = Poly.variable(2, 1)
    cof = parse_poly_string("x^3 + y", 2)
    k = mf_from_pair(p.ctx, p.poly, y, cof)
    assert [e.key() for e in k.p0] == [((0,), ())]
    assert [e.key() for e in k.p1] == [((3,), ())]
    k.validate()

    shifted = mf_from_pair(p.ctx, p.poly, y, cof, shift=_twist(p.ctx, -2))
    assert [e.key() for e in shifted.p0] == [((-2,), ())]
    assert [e.key() for e in shifted.p1] == [((1,), ())]


def test_pair_factorization_rejects_bad_products():
    p = _model("D4t")
    y = Poly.variable(2, 1)
    with pytest.raises(MFError, match="does not equal the potential"):
        mf_from_pair(p.ctx, p.poly, y, y)
    with pytest.raises(MFError, match="does not equal the potential"):
        mf_from_pair(p.ctx, p.poly, Poly.zero(2), y)


def test_gaussian_factorization_validates():
    # x^3 + x*y^2 = (x + i*y) * x(x - i*y) over Z[i], in the grading of <J>
    ctx = m_grading([[3, 0], [1, 2]], parse_group_string("1/3,1/3", 2))
    w = parse_poly_string("x^3 + x*y^2", 2)
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    a = x + I * y
    k = mf_from_pair(ctx, w, a, x * (x - I * y))
    k.validate()
    assert k.field == "Q(i)"
    assert mf_to_json(k)["d0"] == [["x + i*y"]]
    assert mf_to_json(k)["d1"] == [["x^2 - i*x*y"]]
    with pytest.raises(MFError, match="W times the identity"):
        MatrixFactorization(ctx, w, k.p0, k.p1, [[a]], [[x * (x + I * y)]])
    assert generator_collection(_model("D4t"))[0][1].field == "Q"


def _broken(case):
    """Arguments of a factorization of x^2 (A1) that breaks one condition
    of validate, and the MFError message that condition raises; case None
    breaks none."""
    ctx = _model("A1").ctx
    x, x2 = Poly.variable(1, 0), Poly.monomial(1, (2,))
    l = [_twist(ctx, t) for t in range(3)]
    args = {"w": x2, "p0": [l[0]], "p1": [l[1]], "d0": [[x]], "d1": [[x]]}
    change, message = {
        None: ({}, None),
        "potential variables": ({"w": Poly.monomial(2, (2, 0))}, "potential has the wrong number of variables"),
        "d0 shape": ({"d0": [[x, x]]}, "d0 has the wrong shape"),
        "d1 shape": ({"d1": [[x], [x]]}, "d1 has the wrong shape"),
        "potential homogeneity": ({"w": x2 + x}, r"polynomial is not homogeneous: x\^2 \+ x"),
        "potential degree": ({"w": x2 * x}, "potential is not homogeneous of degree c"),
        "entry variables": ({"d1": [[Poly.variable(2, 0)]]}, r"d1\[0\]\[0\] = Poly\(x\) is not a polynomial"),
        "entry type": ({"d0": [[5]]}, r"d0\[0\]\[0\] = 5 is not a polynomial"),
        "d1*d0": ({"d1": [[x * 2]]}, r"d1\*d0 is not W times the identity"),
        # d1*d0 = W holds, but d0*d1 has rank one
        "d0*d1": ({"p1": [l[1], l[1]], "d0": [[x], [x * 0]], "d1": [[x, x * 0]]}, r"d0\*d1 is not W times the identity"),
        "entry degree": ({"p1": [l[2]]}, r"d0\[0\]\[0\] = x is not homogeneous of the degree forced by its slots"),
        # diag(x, x) conjugated by the non-homogeneous [[1, 1 + x], [0, 1]]
        "entry homogeneity": (
            {"p0": [l[0]] * 2, "p1": [l[1]] * 2, "d0": [[x, x + x2], [x * 0, x]], "d1": [[x, -x - x2], [x * 0, x]]},
            r"polynomial is not homogeneous: x\^2 \+ x",
        ),
    }[case]
    args.update(change)
    return (ctx, args["w"], args["p0"], args["p1"], args["d0"], args["d1"]), message


_BROKEN_CASES = (
    "potential variables", "d0 shape", "d1 shape", "potential homogeneity", "potential degree", "entry variables",
    "entry type", "d1*d0", "d0*d1", "entry degree", "entry homogeneity",
)


@pytest.mark.parametrize("case", _BROKEN_CASES)
def test_validate_rejects_each_broken_condition(case):
    args, message = _broken(case)
    with pytest.raises(MFError, match=message):
        MatrixFactorization(*args)
    with pytest.raises(MFError, match=message):
        MatrixFactorization(*args, check=False).validate()
    if case not in ("entry variables", "entry type"):
        # the Poly reference rejects it the same way; on those two it raised
        # ValueError and AttributeError
        with pytest.raises(MFError, match=message):
            reference_validate(MatrixFactorization(*args, check=False))


def test_unbroken_factorization_of_the_rejection_cases_validates():
    args, _ = _broken(None)
    MatrixFactorization(*args).validate()


def test_labels_of_another_grading_still_reach_validate():
    # the relative labels of the once-per-form key cannot be formed here, so
    # validate runs and reports the first broken condition as before
    (ctx, w, _, p1, _, d1), _ = _broken(None)
    foreign = [_twist(_model("A2+A2").ctx, 0)]
    x = Poly.variable(1, 0)
    with pytest.raises(MFError, match="d0 has the wrong shape"):
        MatrixFactorization(ctx, w, foreign, p1, [[x, x]], d1)


def test_residue_field_family():
    for n in range(3, 7):
        k = residue_mf_D(n)
        assert [e.key() for e in k.p1] == [((-1,), ()), ((-n + 1,), ())]
        assert [e.key() for e in k.p0] == [((-n,), ()), ((-2 * n + 2,), ())]
        assert k.d0 == k.d1
        k.validate()
    with pytest.raises(MFError, match="needs n >= 3"):
        residue_mf_D(2)


def test_koszul_of_chain_atom_is_a_shifted_pair():
    # one monomial in one variable: the Koszul construction collapses to
    # the (x, x^m) pair placed so that both label solutions agree
    for name, m in (("A1", 1), ("A2", 2), ("A4", 4)):
        p = _model(name)
        k = koszul_mf(p, p.ctx)
        x = Poly.variable(1, 0)
        pair = mf_from_pair(p.ctx, p.poly, x, Poly.monomial(1, (m,)))
        assert k.same_data(shift_mf(pair, _twist(p.ctx, -1)))


def test_koszul_canonical_splitting():
    p = _model("D4t")
    k = koszul_mf(p, p.ctx)
    # gamma is the first column of d1
    assert [row[0].format() for row in k.d1] == ["x^2*y", "y"]
    assert [e.key() for e in k.p0] == [((-1,), ()), ((-3,), ())]
    assert [e.key() for e in k.p1] == [((0,), ()), ((2,), ())]
    assert [[q.format() for q in row] for row in k.d0] == [["x", "y"], ["-y", "x^2*y"]]
    assert [[q.format() for q in row] for row in k.d1] == [["x^2*y", "-y"], ["y", "x"]]


def test_koszul_splitting_can_be_steered():
    p = _model("D4t")
    k = koszul_mf(p, p.ctx, gamma_choice={(3, 1): 1})
    # gamma is the first column of d1
    assert not k.d1[0][0]
    assert k.d1[1][0] == parse_poly_string("x^3 + y", 2)
    k.validate()

    with pytest.raises(MFError, match="not in W"):
        koszul_mf(p, p.ctx, gamma_choice={(1, 1): 0})
    with pytest.raises(MFError, match="does not divide"):
        koszul_mf(p, p.ctx, gamma_choice={(0, 2): 0})


def test_koszul_agrees_with_residue_family_up_to_signed_swap():
    # same object, different basis: reversing the odd summands and negating
    # both differentials carries one presentation to the other
    p = _model("D4t")
    k = koszul_mf(p, p.ctx)
    t = translate_mf(residue_mf_D(4, ctx=p.ctx))
    assert list(k.p0) == list(t.p0)
    assert [k.p1[1], k.p1[0]] == list(t.p1)
    swap_rows = [[-q for q in t.d0[1]], [-q for q in t.d0[0]]]
    swap_cols = [[-row[1], -row[0]] for row in t.d1]
    assert [list(r) for r in k.d0] == swap_rows
    assert [list(r) for r in k.d1] == swap_cols


def test_rank_two_context_is_rejected_by_hom():
    ctx2 = GradingContext([[1, 0], [0, 1]], [], [], [[1, 0], [0, 1]], [2, 0])
    w = Poly.monomial(2, (2, 0))
    x = Poly.variable(2, 0)
    k = mf_from_pair(ctx2, w, x, x)
    with pytest.raises(MFError, match="free rank must be one"):
        hom_at(k, k, 0)


# ---------------------------------------------------------------- shifts


def test_shift_and_translate_algebra():
    p = _model("D4t")
    ctx = p.ctx
    k = residue_mf_D(4, ctx=ctx)
    s = shift_mf(k, _twist(ctx, 5))
    assert [e.key() for e in s.p1] == [((4,), ()), ((2,), ())]
    t2 = translate_mf(translate_mf(k))
    assert t2.same_data(shift_mf(k, ctx.deg_c))
    # translate swaps the summands and shifts the new odd part by c
    t = translate_mf(k)
    assert list(t.p0) == list(k.p1)
    assert [e.key() for e in t.p1] == [(e + ctx.deg_c).key() for e in k.p0]


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=25, deadline=None)
def test_shifts_compose_additively(a, b):
    p = _model("A2")
    k = koszul_mf(p, p.ctx)
    one = shift_mf(shift_mf(k, _twist(p.ctx, a)), _twist(p.ctx, b))
    both = shift_mf(k, _twist(p.ctx, a + b))
    assert one.same_data(both)


# ---------------------------------------------------------------- tensor


def _unit_mf():
    """Identity for tensor products: the empty factorization of 0."""
    ctx = grading_group([])
    return MatrixFactorization(ctx, Poly.zero(0), [ctx.zero()], [], [], [[]])


def test_unit_object_is_a_tensor_identity():
    u = _unit_mf()
    p = _model("A2")
    k = koszul_mf(p, p.ctx)
    right = tensor_mf(k, u, sum_grading_maps(k.ctx, u.ctx))
    left = tensor_mf(u, k, sum_grading_maps(u.ctx, k.ctx))
    assert right.ctx == k.ctx and left.ctx == k.ctx
    assert right.same_data(k)
    assert left.same_data(k)


def test_tensor_of_rank_one_factors():
    p = _model("A1+A1")
    a1 = _model("A1")
    x = Poly.variable(1, 0)
    f = mf_from_pair(a1.ctx, a1.poly, x, x)
    prod = tensor_mf(f, f, sum_grading_maps(f.ctx, f.ctx))
    assert prod.rank0 == 2 and prod.rank1 == 2
    prod.validate()
    assert prod.ctx.torsion == (2,)
    # same folded endomorphism count as the direct two-variable model
    gens = [shift_mf(prod, r) for r in lbar_representatives(prod.ctx)]
    assert one_period_end_total(gens, periods=4) == 16
    k = koszul_mf(p, p.ctx)
    alt = [shift_mf(k, r) for r in lbar_representatives(k.ctx)]
    assert one_period_end_total(alt, periods=4) == 16


def test_tensor_block_layout_and_sign():
    # P0 = (0, 0), (1, 1) and P1 = (0, 1), (1, 0); d = d_1 x 1 + (-1)^a 1 x d_2
    a2 = _model("A2")
    x = Poly.variable(1, 0)
    k = mf_from_pair(a2.ctx, a2.poly, x, x * x)
    t = tensor_mf(k, k, sum_grading_maps(k.ctx, k.ctx))
    got = mf_to_json(t)
    assert got["w"] == "x^3 + y^3"
    assert got["d0"] == [["y", "x^2"], ["x", "-y^2"]]
    assert got["d1"] == [["y^2", "x^2"], ["x", "-y"]]
    dx, dy = t.ctx.deg_x
    assert t.p0 == (t.ctx.zero(), dx + dy - t.ctx.deg_c)  # the (1, 1) block is one c lower
    assert t.p1 == (dy, dx)
    assert got["p0"] == [{"free": [0], "tors": [0]}, {"free": [-1], "tors": [1]}]
    assert got["p1"] == [{"free": [1], "tors": [0]}, {"free": [1], "tors": [1]}]


# ---------------------------------------------------------------- hom dims


def test_self_hom_of_rank_one_object_is_one_dimensional():
    _, col, labels = _rank_one_objects("D4t")
    x1 = col[0][1]
    assert labels[0] == "R/(y)"
    assert hom_at(x1, x1, 0) == 1
    assert hom_at(x1, x1, 1) == 0


def test_chain_model_hom_lines():
    # two-periodic single line: nonzero exactly on t = -k, always dimension 1
    a1 = _model("A1")
    x = Poly.variable(1, 0)
    y = mf_from_pair(a1.ctx, a1.poly, x, x)
    got = sorted(
        (t, k)
        for t in range(-5, 6)
        for k in range(-4, 5)
        if hom_at(y, shift_mf(y, _twist(a1.ctx, t)), k)
    )
    assert got == [(t, k) for (t, k) in got if t == -k]
    assert got == sorted((-k, k) for k in range(-4, 5))

    a2 = _model("A2")
    z = mf_from_pair(a2.ctx, a2.poly, Poly.variable(1, 0), Poly.monomial(1, (2,)))
    got2 = sorted(
        (t, k)
        for t in range(-6, 7)
        for k in range(-4, 5)
        if hom_at(z, shift_mf(z, _twist(a2.ctx, t)), k)
    )
    want2 = sorted(
        set((-3 * a, 2 * a) for a in range(-2, 3))
        | set((-1 - 3 * a, 1 + 2 * a) for a in range(-3, 3))
    )
    want2 = [(t, k) for (t, k) in want2 if -6 <= t <= 6 and -4 <= k <= 4]
    assert got2 == want2


def test_two_variable_model_hom_lines():
    p, col, _ = _rank_one_objects("D4t")
    ctx = p.ctx
    x1, x2, s0 = col[0][1], col[1][1], col[2][1]

    def box(a, b):
        return set(
            (t, k)
            for t in range(-8, 9)
            for k in range(-4, 5)
            if hom_at(a, shift_mf(b, _twist(ctx, t)), k)
        )

    lo, hi = -8, 8
    inside = lambda pts: set((t, k) for t, k in pts if lo <= t <= hi and -4 <= k <= 4)

    assert box(x1, s0) == inside((3 * (1 - k), k) for k in range(-8, 9))
    assert box(s0, x1) == inside((-3 * k - 1, k) for k in range(-8, 9))
    # odd-degree triples between the two rank-one objects
    assert box(x1, x2) == inside(
        (t, 2 * j + 1) for j in range(-3, 4) for t in (-6 * j - 1, -6 * j - 2, -6 * j - 3)
    )
    assert box(s0, s0) == inside(
        set((t, 2 * j) for j in range(-3, 4) for t in (-6 * j, -6 * j + 2))
        | set((t, 2 * j + 1) for j in range(-3, 4) for t in (-6 * j - 1, -6 * j - 3))
    )
    assert box(x1, x1) == inside(
        (t, 2 * j) for j in range(-3, 4) for t in (-6 * j, -6 * j + 1, -6 * j + 2)
    )


def test_hom_dims_are_two_periodic():
    p, col, _ = _rank_one_objects("D4t")
    ctx = p.ctx
    for _, a in col:
        for _, b in col:
            for k in (-2, -1, 0, 1):
                assert hom_at(a, b, k) == hom_at(a, shift_mf(b, -ctx.deg_c), k + 2)


def test_hom_dims_match_independent_oracle():
    p, col, _ = _rank_one_objects("D4t")
    ctx = p.ctx
    pts = [(0, 0, 2, 0), (0, 2, 0, 1), (2, 0, -1, 0), (2, 2, -6, 2), (1, 2, -2, 1)]
    for i, j, t, k in pts:
        a, b = col[i][1], shift_mf(col[j][1], _twist(ctx, t))
        assert hom_at(a, b, k) == oracle_hom_dim(a, b, k)

    s = _model("A2+A2")
    gens = generator_E(s)
    for a, b, k in [(gens[0], gens[0], 0), (gens[0], gens[4], 0), (gens[0], gens[1], 1)]:
        assert hom_at(a, b, k) == oracle_hom_dim(a, b, k)


def test_hom_dims_across_equal_contexts_match_oracle():
    # equal but separately built contexts keep one memo each; t2 sits on
    # x1's first label, so a form id read from the wrong memo would replay
    # the self-hom cells of the other object
    p1, col1, _ = _rank_one_objects("D4t")
    p2, col2, _ = _rank_one_objects("D4t")
    assert p1.ctx == p2.ctx and p1.ctx is not p2.ctx
    x1 = col1[0][1]
    s2 = col2[2][1]
    t2 = shift_mf(s2, x1.p0[0] - s2.p0[0])
    for a, b in [(x1, x1), (t2, t2), (t2, x1), (x1, t2)]:
        for k in (-2, -1, 0, 1, 2):
            assert hom_at(a, b, k) == oracle_hom_dim(a, b, k)


def _counting_rank(monkeypatch):
    calls = []
    rank = matfac.int_rank

    def counted(rows, pivots=None):
        calls.append(len(rows))
        return rank(rows, pivots)

    monkeypatch.setattr(matfac, "int_rank", counted)
    return calls


def test_hom_memo_is_per_context_instance(monkeypatch):
    calls = _counting_rank(monkeypatch)
    first = generator_collection(_model("A2+A2"))
    one = ext_table(first, 2)
    cold = len(calls)
    assert cold > 0
    memo = first[0][1].ctx._hom_memo
    ranks = dict(memo.ranks)
    assert memo.maps and first[0][1].ctx._mono_cache
    assert ext_table(first, 2).dims == one.dims  # a warm memo repeats the table
    again = generator_collection(_model("A2+A2"))
    ctx = again[0][1].ctx
    assert ctx is not first[0][1].ctx
    assert "_hom_memo" not in vars(ctx) and "_mono_cache" not in vars(ctx)
    del calls[:]
    two = ext_table(again, 2)
    assert len(calls) == cold  # a second build starts cold
    assert two.dims == one.dims
    assert memo.ranks == ranks
    assert ctx._hom_memo.maps == memo.maps
    # nothing is kept at module level
    for module in (factorization, matfac):
        assert not [n for n, v in vars(module).items() if isinstance(v, (dict, list, set)) and v and n[:2] != "__"]


def test_unit_rescaled_differentials_keep_hom_dims():
    # d0 * i and d1 * -i still factor W, and (1, i) on (P0, P1) is an
    # isomorphism over Q(i) to the unscaled object
    p, col, _ = _rank_one_objects("D4t")
    stab = col[2][1]
    scaled = MatrixFactorization(
        stab.ctx,
        stab.w,
        stab.p0,
        stab.p1,
        [[e * I for e in row] for row in stab.d0],
        [[e * -I for e in row] for row in stab.d1],
    )
    assert scaled.field == "Q(i)"
    for _, other in col:
        for k in range(-3, 4):
            assert hom_at(scaled, other, k) == hom_at(stab, other, k)
            assert hom_at(other, scaled, k) == hom_at(other, stab, k)
    assert hom_at(scaled, scaled, 0) == hom_at(stab, stab, 0)


def test_rank_calls_stay_within_the_memo_budget(monkeypatch):
    # counts, not timings: each distinct boundary matrix is ranked once and
    # empty cells are never ranked
    calls = _counting_rank(monkeypatch)
    assert one_period_end_total(generator_E(_model("A2+A2")), periods=3) == 36
    assert len(calls) <= 84
    del calls[:]
    ext_table(generator_collection(_model("D4t")), 4)
    assert len(calls) <= 76
    assert all(calls)


def test_pivot_rows_cross_walks(monkeypatch):
    # rank calls and their summed input nnz on the period-total workload
    # and on the tables of the verify-atoms models, each built fresh.  A
    # walk ranks the boundary out of a cell without the pivot rows of the
    # boundary into it also when an earlier walk ranked that one
    # (memo.pivots); pivots kept within one walk raise both sums of nnz.
    # The tables walk once per connected row class, rooted at its least
    # cell base (matfac._rows): A3+A3 walks 15 classes instead of the 24
    # rows that the first-come fold of pairs walked, so the rank work of
    # the table half fell from (548, 6072); the period total's walks were
    # the same classes already.
    work = []
    rank = matfac.int_rank

    def counted(rows, pivots=None):
        work.append(sum(map(len, rows)))
        return rank(rows, pivots)

    monkeypatch.setattr(matfac, "int_rank", counted)
    assert one_period_end_total(generator_E(_model("A2+A2+A2")), periods=3) == 216
    assert (len(work), sum(work)) == (100, 26901)
    del work[:]
    for name in ("D4t", "D5t", "D6t", "A1", "A2", "A3", "A4", "A5", "A2+A2", "A3+A3"):
        ext_table(generator_collection(_model(name)), 4)
    assert (len(work), sum(work)) == (507, 5538)


def test_hom_rejects_mismatched_potentials():
    d, a = (koszul_mf(p, p.ctx) for p in (_model("D4t"), _model("A2")))
    with pytest.raises(MFError, match="different gradings"):
        hom_at(d, a, 0)


def _columns(k, h, q, parity, skip=(), kept=None):
    """matfac._boundary_columns out of the cell (q, parity) of Hom(k, h)."""
    memo, key, _, src, dst = boundary_args(k, h, q, parity)
    return matfac._boundary_columns(k, h, memo, key, src, dst, skip, kept)


def _outside(cols, skip):
    """(positions, columns) of the nonempty columns whose positions are not
    in `skip`: the columns that assembly returns (the others are zero)."""
    at = [s for s, c in enumerate(cols) if c and s not in skip]
    return at, [cols[s] for s in at]


def _first_block(cols, k, h, q, parity):
    """Columns restricted to the rows of the first block of the target of
    the boundary out of the cell (q, parity) of Hom(k, h)."""
    n = first_block_rows(k, h, q, parity)
    return [{r: v for r, v in c.items() if r < n} for c in cols]


def _cell_dim(k, h, q, parity):
    """Dimension of the cell (q, parity) of Hom(k, h), read from its layout."""
    memo, key, _ = cell_keys(k, h, q, parity)
    return matfac._cell_offsets(k.ctx, memo, key)[1][-1]


def _labelled(objs):
    """(label, object) pairs of bare objects, as ext_table takes them."""
    return [(f"O{n + 1}", m) for n, m in enumerate(objs)]


def _compose(first, second):
    """Exact sparse columns of second * first."""
    out = []
    for col in first:
        acc = {}
        for r, v in col.items():
            for r2, w in second[r].items():
                acc[r2] = acc.get(r2, 0) + v * w
        out.append({r: v for r, v in acc.items() if v})
    return out


def test_assembled_boundaries_compose_to_zero():
    # D_odd(q) D_even(q) = 0 and D_even(q+1) D_odd(q) = 0 for the whole
    # (two-block) boundaries, multiplied exactly over Q and over Q(i); a
    # slot laid out one row off breaks this
    pairs = []
    for name in ("D4t", "A2+A2"):
        objs = [m for _, m in generator_collection(_model(name))]
        pairs += [(a, b) for a in objs for b in objs]
    col = quotient_graded_collection([[3, 0], [1, 2]], parse_group_string("1/3,1/3", 2))[0].build()
    x, y = col[0][1], col[1][1]
    assert x.field == y.field == "Q(i)"
    pairs += [(x, y), (y, x)]
    nontrivial = 0
    for k, h in pairs:
        for q in range(-2, 2):
            even, odd, even_next = (reference_boundary_columns(k, h, *b) for b in ((q, 0), (q, 1), (q + 1, 0)))
            ns, os_, od = _cell_dim(k, h, q, 0), _cell_dim(k, h, q, 1), _cell_dim(k, h, q + 1, 0)
            assert (len(even), len(odd)) == (ns, os_)
            assert all(r < os_ for c in even for r in c)
            assert all(r < od for c in odd for r in c)
            assert not any(_compose(even, odd))
            assert not any(_compose(odd, even_next))
            nontrivial += any(even) and any(odd) and any(even_next)
    assert nontrivial >= 20


# three integral collections, one with torsion, and a Q(i) collection with
# objects of both fields
REDUCTION_COLLECTIONS = ("D4t", "A2+A2", "A2+D4t", "[[5,0],[1,2]] 1/5,2/5")


def _objects(name):
    if name.startswith("["):
        matrix, group = name.split()
        matrix = json.loads(matrix)
        col = quotient_graded_collection(matrix, parse_group_string(group, len(matrix)))[0].build()
    else:
        col = generator_collection(_model(name))
    return [m for _, m in col]


def _cell_boundaries(q, parity):
    """The boundary into the cell (q, parity), parity 0 (even) or 1 (odd),
    and the boundary out of it, each named by its source cell."""
    return (q - 1 + parity, 1 - parity), (q, parity)


@pytest.mark.parametrize("name", REDUCTION_COLLECTIONS)
def test_boundary_out_vanishes_on_boundary_in(name):
    # the premise of ranking a boundary only on the coordinates the boundary
    # into its cell leaves free: d_out d_in = 0 exactly, cell by cell
    objs = _objects(name)
    nontrivial = 0
    for k, h in itertools.product(objs, repeat=2):
        for q in range(-2, 3):
            for parity in (0, 1):
                d_in, d_out = (reference_boundary_columns(k, h, *b) for b in _cell_boundaries(q, parity))
                assert not any(_compose(d_in, d_out))
                nontrivial += any(d_in) and any(d_out)
    assert nontrivial >= 40


@pytest.mark.parametrize("name", REDUCTION_COLLECTIONS)
def test_reduced_boundary_ranks_equal_full_ranks(name, monkeypatch):
    calls = _counting_rank(monkeypatch)
    objs = _objects(name)
    # every pair, as ext_table walks them when it has no orbits to fill from
    for k, h in itertools.product(objs, repeat=2):
        hom_dim(k, h, range(-2, 3))
    full_rows = {}
    for k, h in itertools.product(objs, repeat=2):
        gauss = k.field != "Q" or h.field != "Q"
        for shift in range(-2, 3):
            for b in _cell_boundaries(*divmod(shift, 2)):
                memo, key, target, src, dst = boundary_args(k, h, *b)
                assert key in memo.ranks
                cols = reference_boundary_columns(k, h, *b)
                ndst = matfac._cell_offsets(k.ctx, memo, target)[1][-1]
                rows = matfac._int_columns(cols) if gauss else cols
                full = int_rank(rows, []) // (2 if gauss else 1)
                assert matfac._boundary_rank(k, h, memo, key, target, src, dst) == full
                if cols and ndst:
                    full_rows[key] = len(rows)
    # one rank call per distinct nonempty boundary, on fewer rows in all
    assert len(calls) == len(full_rows)
    assert sum(calls) < sum(full_rows.values())


@pytest.mark.parametrize("name", REDUCTION_COLLECTIONS)
def test_assembly_returns_exactly_the_reference_columns_outside_skip(name, monkeypatch):
    assemble = matfac._boundary_columns
    seen = []

    def recording(k, h, memo, key, src, dst, skip, kept=None):
        mine = []
        out = assemble(k, h, memo, key, src, dst, skip, mine)
        if kept is not None:
            kept += mine
        seen.append(((k, h, memo, key, src, dst), set(skip), out, mine))
        return out

    monkeypatch.setattr(matfac, "_boundary_columns", recording)
    ext_table(_labelled(_objects(name)), 2)
    skipped = 0
    for (k, h, memo, key, _, _), skip, cols, kept in seen:
        # the window 2 walks the boundaries out of the cells (-2, 1) to (1, 1)
        q, parity = next((q, p) for q in range(-2, 2) for p in (0, 1) if cell_keys(k, h, q, p)[1] == key)
        full = _first_block(reference_boundary_columns(k, h, q, parity), k, h, q, parity)
        assert len(full) == matfac._cell_offsets(k.ctx, memo, key)[1][-1]
        # the same rows in the same order, in position order; a column left
        # out is skipped or zero in the reference
        at, ref = _outside(full, skip)
        assert kept == at
        assert [list(c.items()) for c in cols] == [list(c.items()) for c in ref]
        skipped += len(skip)
    assert skipped >= 20


def test_gaussian_source_column_is_skipped_only_when_both_halves_drop(monkeypatch):
    # any subset of the pivot rows of the boundary into a cell is a valid
    # drop set; keep both halves 2s, 2s + 1 of some pairs and one of others
    assemble = matfac._boundary_columns
    skips = []

    def recording(k, h, memo, key, src, dst, skip, kept=None):
        skips.append(set(skip))
        return assemble(k, h, memo, key, src, dst, skip, kept)

    monkeypatch.setattr(matfac, "_boundary_columns", recording)
    objs = _objects(REDUCTION_COLLECTIONS[-1])
    checked = 0
    for k, h in itertools.product(objs, repeat=2):
        if k.field == h.field == "Q":
            continue
        for q in range(-2, 2):
            for parity in (0, 1):
                into, out = _cell_boundaries(q, parity)
                memo, key, target, src, dst = boundary_args(k, h, *out)
                if key in memo.ranks:
                    continue
                pivots = []
                _, key_in, _, src_in, dst_in = boundary_args(k, h, *into)
                int_rank(matfac._int_columns(assemble(k, h, memo, key_in, src_in, dst_in, ())), pivots)
                drop = sorted(c for c in pivots if c % 2 == 0 or c % 4 == 1)
                if not drop:
                    continue
                cols = reference_boundary_columns(k, h, *out)
                full = int_rank(matfac._int_columns(cols), []) // 2
                memo.pivots[key] = array("l", drop)
                assert matfac._boundary_rank(k, h, memo, key, target, src, dst) == full
                assert skips.pop() == {s for s in range(len(cols)) if 2 * s in drop and 2 * s + 1 in drop}
                checked += 1
    assert checked >= 10


def test_finished_table_leaves_no_reference_cycle():
    # once a table's objects are dropped, reference counting frees the
    # context's memos and monomial lists; none waits for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        col = generator_collection(_model("A2+D4t"))
        ext_table(col, 2)
        assert col[0][1].ctx._hom_memo.pivots
        del col
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not [o for o in left if isinstance(o, matfac._HomMemo)]
    assert not [o for o in left if getattr(o, "__qualname__", "").startswith("monomials_of_degree.")]


# ---------------------------------------------------------------- monomials


def test_monomials_by_degree():
    p = _model("D4t")
    got = [monomials_of_degree(p.ctx, _hom_memo(p.ctx).code(_twist(p.ctx, d))) for d in range(7)]
    assert got == [
        ((0, 0),),
        ((1, 0),),
        ((2, 0),),
        ((0, 1), (3, 0)),
        ((1, 1), (4, 0)),
        ((2, 1), (5, 0)),
        ((0, 2), (3, 1), (6, 0)),
    ]


def test_monomials_see_torsion_classes():
    s = _model("A1+A1")
    ctx = s.ctx
    code = _hom_memo(ctx).code
    assert monomials_of_degree(ctx, code(ctx.element(1, (0,)))) == ((1, 0),)
    assert monomials_of_degree(ctx, code(ctx.element(1, (1,)))) == ((0, 1),)
    assert monomials_of_degree(ctx, code(ctx.element(2, (0,)))) == ((0, 2), (2, 0))
    assert monomials_of_degree(ctx, code(ctx.element(2, (1,)))) == ((1, 1),)


# each context with its torsion moduli: T = 1, Z/2, Z/4, (Z/3)^2, Z/3 with
# weights (2, 1, 3), Z/2 with weights (3, 2, 6), and no variables at all
_MONOMIAL_CONTEXTS = {
    "D4t": (),
    "A1+A1": (2,),
    "A3+A3": (4,),
    "A2+A2+A2": (3, 3),
    "A2+D4t": (3,),
    "A3+D4t": (2,),
    "unit": (),
}


def _fresh_context(name):
    return _unit_mf().ctx if name == "unit" else _model(name).ctx


@settings(max_examples=10, deadline=None)
@given(st.randoms(use_true_random=False))
def test_monomials_match_a_brute_force_filter(rnd):
    # every class of every free degree -1..9, asked in a random order on a
    # fresh context, against the degree of each monomial summed in LElement
    # arithmetic; a repeated call returns the same tuple
    top = 9
    for name, torsion in _MONOMIAL_CONTEXTS.items():
        ctx = _fresh_context(name)
        assert ctx.torsion == torsion
        by_degree = {}
        for exps in itertools.product(*(range(top // d.free[0] + 1) for d in ctx.deg_x)):
            d = ctx.zero()
            for e, dx in zip(exps, ctx.deg_x):
                d = d + e * dx
            by_degree.setdefault(d, []).append(exps)
        asks = [ctx.element(f, t) for f in range(-1, top + 1) for t in itertools.product(*map(range, torsion))]
        rnd.shuffle(asks)
        for delta in asks:
            code = _hom_memo(ctx).code(delta)
            got = monomials_of_degree(ctx, code)
            assert got == tuple(sorted(by_degree.get(delta, [])))
            assert monomials_of_degree(ctx, code) is got
            assert monomials_of_degree(ctx, ctx._hom_memo.code(delta)) is got


@pytest.mark.parametrize("name", list(_MONOMIAL_CONTEXTS))
def test_one_miss_fills_every_torsion_class_of_its_free_degree(name):
    ctx = _fresh_context(name)
    T = math.prod(ctx.torsion)
    for f in (5, -1):
        monomials_of_degree(ctx, _hom_memo(ctx).code(ctx.element(f, tuple(m - 1 for m in ctx.torsion))))
        assert len(ctx._mono_cache) == T * (1 + (f < 0))
        assert {code for code in ctx._mono_cache if code // T == f} == set(range(f * T, (f + 1) * T))


@pytest.mark.parametrize("weight", [0, -1])
def test_hom_refuses_a_non_positive_variable_degree_before_enumerating(weight, monkeypatch):
    # monomials_of_degree trusts the weights to be positive: _hom_precheck
    # refuses the other gradings before the first enumeration
    calls = []
    monomials = matfac.monomials_of_degree
    monkeypatch.setattr(matfac, "monomials_of_degree", lambda *args: calls.append(args) or monomials(*args))
    ctx = GradingContext([[1, weight]], [], [], [(1, 0), (0, 1)], (2, 0))
    x = Poly.variable(2, 0)
    k = mf_from_pair(ctx, x * x + Poly.monomial(2, (2 - weight, 1)), x, x + Poly.monomial(2, (1 - weight, 1)))
    assert ctx.deg_x[1].free == (weight,)
    with pytest.raises(MFError, match="variable degrees must be positive"):
        hom_dim(k, k, range(-2, 3))
    assert calls == []


def test_each_free_degree_is_enumerated_once(monkeypatch):
    # the period-total workload touches 23 free degrees of (Z/3)^2 codes,
    # -3 to 19; the cells whose slots all lie below degree zero (which
    # reached down to -18) are answered empty without enumerating
    misses = []
    monomials = matfac.monomials_of_degree

    def counted(ctx, delta):
        if delta not in ctx.__dict__.get("_mono_cache", ()):
            misses.append(delta)
        return monomials(ctx, delta)

    monkeypatch.setattr(matfac, "monomials_of_degree", counted)
    gens = generator_E(_model("A2+A2+A2"))
    assert one_period_end_total(gens, periods=3) == 216
    assert all(type(d) is int for d in misses)
    assert len(misses) == len({d // 9 for d in misses}) == 23
    assert min(misses) // 9 == -3
    assert len(gens[0].ctx._mono_cache) == 9 * 23


def _int_leaves(value):
    # ints only, parities too; no LElement, Poly or coefficient
    if isinstance(value, tuple):
        return all(_int_leaves(v) for v in value)
    return type(value) is int


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_monomials_match_a_brute_force_oracle_on_random_gradings(data):
    # 1 to 4 variables with positive weights, often all sharing a factor, and
    # up to two torsion moduli; every class of every free degree -1..12 on a
    # fresh context against itertools.product filtered by degree and class
    n = data.draw(st.integers(1, 4))
    factor = data.draw(st.sampled_from((1, 2, 3)))
    weights = [factor * data.draw(st.integers(1, 4)) for _ in range(n)]
    moduli = data.draw(st.lists(st.integers(2, 4), max_size=2))
    tors = [[data.draw(st.integers(0, m - 1)) for _ in range(n)] for m in moduli]
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    ctx = GradingContext([weights], tors, moduli, unit, unit[0])
    top = 12
    by_degree = {}
    for exps in itertools.product(*(range(top // w + 1) for w in weights)):
        f = sum(map(operator.mul, exps, weights))
        t = tuple(sum(map(operator.mul, exps, row)) % m for row, m in zip(tors, moduli))
        by_degree.setdefault((f, t), []).append(exps)
    for f in range(-1, top + 1):
        for t in itertools.product(*map(range, moduli)):
            assert monomials_of_degree(ctx, _hom_memo(ctx).code(ctx.element(f, t))) == tuple(by_degree.get((f, t), ()))


def test_multiplication_maps_place_each_product(monkeypatch):
    gens = generator_E(_model("A2+A2+A2"))
    lookups = []
    monomials = matfac.monomials_of_degree

    def counted(ctx, delta):
        lookups.append(delta)
        return monomials(ctx, delta)

    monkeypatch.setattr(matfac, "monomials_of_degree", counted)
    assert one_period_end_total(gens[:3], periods=3) > 0
    ctx = gens[0].ctx
    memo = ctx._hom_memo
    assert memo.maps
    targets = set()
    for (delta, e), pos in memo.maps.items():
        src = monomials_of_degree(ctx, delta)
        assert len(pos) == len(src)
        if not src:
            continue
        target = ctx.zero()
        for a, dx in zip(map(sum, zip(src[0], e)), ctx.deg_x):
            target = target + a * dx
        dst = monomials_of_degree(ctx, memo.code(target))
        for a, m in enumerate(src):
            assert dst[pos[a]] == tuple(u + v for u, v in zip(m, e))
        code = memo.code(target)
        targets.add(code)
        assert memo.index[code] == {m: a for a, m in enumerate(dst)}
    # each target degree is indexed once: a cell layout looks up each of its
    # distinct slot degrees, a map its source degree, and an index its degree
    assert set(memo.index) == targets
    layouts = sum(len(set(codes)) for codes, _ in memo.cells.values())
    assert len(lookups) == layouts + len(memo.maps) + len(memo.index)
    caches = (memo.maps, memo.exps, memo.rel_ids, memo.slots, memo.plans, memo.cells, memo.shifts, memo.ranks, ctx._mono_cache)
    for cache in caches:
        assert cache and all(_int_leaves(k) and _int_leaves(v) for k, v in cache.items())


# ---------------------------------------------------------------- ext tables


def test_ext_table_of_a_single_pair():
    a1 = _model("A1")
    x = Poly.variable(1, 0)
    tab = ext_table([("R/(x)", mf_from_pair(a1.ctx, a1.poly, x, x))], 0)
    assert tab.objects == ("R/(x)",)
    assert tab.dims == {(0, 0, 0): 1}
    assert sum(tab.dims.values()) == 1

    empty = ext_table([], 2)
    assert empty.entries() == []


def _table_matches_quiver(name, window=4):
    p = _model(name)
    col = generator_collection(p)
    tab = ext_table(col, window)
    q = dynkin_quiver(p.atoms[0])
    for i in range(len(col)):
        for j in range(len(col)):
            for k in range(-window, window + 1):
                if tab.dims.get((i, j, k), 0) != simple_hom_dims(q, i, j, k):
                    return False
    return True


def test_chain_collections_match_their_quivers():
    for name in ("A1", "A2", "A3", "A4", "A5"):
        assert _table_matches_quiver(name)


def test_two_variable_collections_match_their_quivers():
    for name in ("D4t", "D5t", "D6t"):
        assert _table_matches_quiver(name)


def test_sum_collections_match_the_tensor_table():
    for name in ("A1+A1", "A2+A2"):
        p = _model(name)
        col = generator_collection(p)
        tab = ext_table(col, 4)
        model = tensor_model([dynkin_quiver(a) for a in p.atoms])
        for i in range(len(col)):
            for j in range(len(col)):
                for k in range(-4, 5):
                    assert tab.dims.get((i, j, k), 0) == model.dims.get((i, j, k), 0)


def test_ext_table_repeats_on_a_warm_memo():
    # a second table over the same objects, built with a warm memo, repeats the first
    _, col, _ = _rank_one_objects("D4t")
    one = ext_table(col, 3)
    again = ext_table(col, 3)
    assert one.objects == again.objects
    assert one.dims == again.dims


# every sum with a repeated atom among the acceptance and bench models, and
# two with a D factor; the large ones on a smaller window
ORBIT_MODELS = [("A2+A2", 4), ("A3+A3", 4), ("A2+A2+A2", 4), ("D4t+D4t", 2), ("A2+D4t+A2", 2)]


def _counting_homs(monkeypatch):
    """The shift range of each walk of hom_dim, in call order."""
    calls = []
    hom = matfac.hom_dim

    def counted(k, h, shifts):
        calls.append(shifts)
        return hom(k, h, shifts)

    monkeypatch.setattr(matfac, "hom_dim", counted)
    return calls


def _label_orbit_key(a, b, kinds):
    """Orbit key of the pair of tensor labels 'l1|l2|...' (a, b) under the
    permutations of factors of equal kind, read off the labels: per kind,
    the multiset of the factors' label pairs."""
    blocks = [[q for q, k in enumerate(kinds) if k == kind] for kind in set(kinds)]
    cols = list(zip(a.split("|"), b.split("|")))
    return tuple(tuple(sorted(cols[q] for q in at)) for at in blocks)


def _label_orbits(labels, kinds):
    """Number of orbits of ordered pairs of tensor labels."""
    return len({_label_orbit_key(a, b, kinds) for a in labels for b in labels})


def _row_classes(objects, orbit_key):
    """Number of row classes of the pairs of `objects`: the connected
    components, found by a breadth-first search, of the graph on the pairs
    (i, j) that links two pairs with the same orbit key orbit_key(i, j) or
    the same cell base (matfac._cell_base)."""
    pairs = list(itertools.product(range(len(objects)), repeat=2))
    keys = {(i, j): (("orbit", orbit_key(i, j)), ("cell", matfac._cell_base(objects[i], objects[j]))) for i, j in pairs}
    linked = {}
    for pair, both in keys.items():
        for key in both:
            linked.setdefault(key, []).append(pair)
    seen = set()
    classes = 0
    for pair in pairs:
        if pair in seen:
            continue
        classes += 1
        seen.add(pair)
        queue = [pair]
        while queue:
            for key in keys[queue.pop()]:
                for other in linked.pop(key, ()):
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
    return classes


@pytest.mark.parametrize("name, window", ORBIT_MODELS)
def test_orbit_filled_table_equals_the_direct_table(name, window, monkeypatch):
    p = _model(name)
    col = generator_collection(p)
    order = list(range(len(col)))
    random.Random(name).shuffle(order)
    shuffled = [col[n] for n in order]
    calls = _counting_homs(monkeypatch)
    tab = ext_table(shuffled, window)
    assert tab.objects == tuple(label for label, _ in shuffled)
    # hom_dim walks the window once per row class: pairs of one orbit, or
    # of one cell base, share a row
    labels, kinds = [label for label, _ in shuffled], [a.name for a in p.atoms]
    orbits = _label_orbits(labels, kinds)
    assert orbits < len(col) ** 2
    walks = _row_classes([m for _, m in shuffled], lambda i, j: _label_orbit_key(labels[i], labels[j], kinds))
    assert calls == [range(-window, window + 1)] * walks
    assert walks <= orbits
    monkeypatch.undo()
    # the direct table, on a fresh build, so that no memo entry is shared
    fresh = [m for _, m in generator_collection(_model(name))]
    direct = {}
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            for k in range(-window, window + 1):
                d = hom_at(fresh[a], fresh[b], k)
                if d:
                    direct[(i, j, k)] = d
    assert tab.dims == direct
    # a part of the collection, in the caller's order, fills from itself
    part = len(col) // 2
    assert ext_table(shuffled[:part], window).dims == {
        (i, j, k): d for (i, j, k), d in direct.items() if i < part and j < part
    }


@pytest.mark.parametrize("name", ["A2+A2+A2", "A3+A3", "D4t+D4t"])
def test_the_table_walks_as_often_for_every_object_order(name, monkeypatch):
    # the row classes are connected components, so the number of walks is
    # that of the components for every order of the objects, not that of a
    # fold that depends on which pair of a class comes first
    col = generator_collection(_model(name))
    kinds = [a.name for a in _model(name).atoms]
    calls = _counting_homs(monkeypatch)
    walks = set()
    for seed in range(4):
        shuffled = list(col)
        random.Random(seed).shuffle(shuffled)
        del calls[:]
        ext_table(shuffled, 1)
        walks.add(len(calls))
    labels = [label for label, _ in col]
    assert walks == {_row_classes([m for _, m in col], lambda i, j: _label_orbit_key(labels[i], labels[j], kinds))}


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_orbit_filled_table_of_a_random_sum_equals_the_direct_table(data):
    # a random sum with a repeated atom, and a random part of its collection
    # in a random order
    atom = data.draw(st.sampled_from(("A1", "A2", "A3")))
    other = data.draw(st.sampled_from(("A1", "A2", "D4t")))
    name = "+".join(data.draw(st.permutations((atom, atom, other))))
    col = generator_collection(_model(name))
    order = data.draw(st.lists(st.sampled_from(range(len(col))), min_size=1, max_size=6, unique=True))
    tab = ext_table([col[n] for n in order], 1)
    fresh = [m for _, m in generator_collection(_model(name))]
    direct = {}
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            for k in range(-1, 2):
                d = hom_at(fresh[a], fresh[b], k)
                if d:
                    direct[(i, j, k)] = d
    assert tab.dims == direct


def test_objects_without_coordinates_are_tabled_pair_by_pair(monkeypatch):
    col = generator_collection(_model("A2+A2"))
    assert {mf.coords for _, mf in col} == {("collection", ("A2", "A2"), t) for t in itertools.product(range(2), repeat=2)}
    # a derived object carries no coordinates: each pair is its own orbit,
    # and only pairs of one cell base share a row
    bare = [shift_mf(mf, 0) for _, mf in col]
    assert all(m.coords is None and m.same_data(mf) for m, (_, mf) in zip(bare, col))
    calls = _counting_homs(monkeypatch)
    assert ext_table(_labelled(bare), 1).dims == ext_table(col, 1).dims
    labels, kinds = [label for label, _ in col], ["A2", "A2"]
    walks = _row_classes(bare, lambda i, j: (i, j))
    walks += _row_classes([mf for _, mf in col], lambda i, j: _label_orbit_key(labels[i], labels[j], kinds))
    assert calls == [range(-1, 2)] * walks


def test_ext_table_rejects_mixed_potentials():
    a, b = (koszul_mf(p, p.ctx) for p in (_model("A2"), _model("A3")))
    with pytest.raises(MFError):
        ext_table(_labelled([a, b]), 1)


def test_cell_limit_raises_resource_error(monkeypatch):
    # the largest cell is 40 for the D4t table over the window 3 and 66 for
    # the D4t period total at periods=2; a bound of exactly that admits it.
    # Each model is built fresh, so that no cell layout is in a memo yet.
    assert matfac.MAX_CELL_DIM == 1 << 18
    for limit, run in [
        (40, lambda: ext_table(generator_collection(_model("D4t")), 3)),
        (66, lambda: one_period_end_total(generator_E(_model("D4t")), periods=2)),
    ]:
        monkeypatch.setattr(matfac, "MAX_CELL_DIM", limit - 1)
        with pytest.raises(ResourceLimitError, match=f"hom cell has dimension {limit}, above the limit {limit - 1}"):
            run()
        monkeypatch.setattr(matfac, "MAX_CELL_DIM", limit)
        run()
    # an oversized cell is not kept: it raises again on a warm memo
    monkeypatch.setattr(matfac, "MAX_CELL_DIM", 8)
    col = generator_collection(_model("D4t"))
    for _ in range(2):
        with pytest.raises(ResourceLimitError, match="above the limit 8"):
            ext_table(col, 3)
    monkeypatch.setattr(matfac, "MAX_CELL_DIM", 40)
    assert ext_table(col, 3).dims == ext_table(generator_collection(_model("D4t")), 3).dims
    assert issubclass(ResourceLimitError, RuntimeError)


def test_walk_limit_raises_resource_error(monkeypatch):
    # the largest walk lays out cells of 122 dimensions in all for the D4t
    # table over the window 3, and of 306 for the D4t period total at
    # periods=2; a bound of exactly that admits it.  Each model is built
    # fresh, as in the cell bound's test.
    assert matfac.MAX_ROW_DIM == 1 << 19
    for limit, run in [
        (122, lambda: ext_table(generator_collection(_model("D4t")), 3)),
        (306, lambda: one_period_end_total(generator_E(_model("D4t")), periods=2)),
    ]:
        monkeypatch.setattr(matfac, "MAX_ROW_DIM", limit - 1)
        with pytest.raises(ResourceLimitError, match=f"reaches dimension {limit}, above the limit {limit - 1}"):
            run()
        monkeypatch.setattr(matfac, "MAX_ROW_DIM", limit)
        run()
    # the sum is checked as the cells are laid out, before any boundary of
    # the walk is assembled or ranked; the bound is the walk's 11 cells, so
    # that the count of cells (see the next test) passes
    calls = _counting_rank(monkeypatch)
    monkeypatch.setattr(matfac, "MAX_ROW_DIM", 11)
    m = generator_collection(_model("D4t"))[0][1]
    with pytest.raises(ResourceLimitError, match=r"hom walk over 9 shifts reaches dimension \d+, above the limit 11"):
        hom_dim(m, m, range(-4, 5))
    memo = m.ctx._hom_memo
    assert not calls and not memo.ranks and not memo.plans and not memo.maps


def test_a_walk_of_more_cells_than_the_bound_derives_no_cell_key(monkeypatch):
    # a walk over n shifts lays out n + 2 cells.  Cells below degree zero
    # add nothing to the summed dimension, so the cells are counted first:
    # a walk of more than MAX_ROW_DIM of them is refused before any cell key
    # is derived, also for a range too long for len()
    keys = []
    cell_key = matfac._cell_key
    monkeypatch.setattr(matfac, "_cell_key", lambda *args: keys.append(args) or cell_key(*args))
    m = generator_collection(_model("D4t"))[0][1]
    bound = matfac.MAX_ROW_DIM
    for limit, shifts in [(10, range(-4, 5)), (bound, range(-bound, 0)), (bound, range(-10**30, 10**30 + 1))]:
        monkeypatch.setattr(matfac, "MAX_ROW_DIM", limit)
        with pytest.raises(ResourceLimitError, match=f"^hom walk of more than {limit} cells$"):
            hom_dim(m, m, shifts)
        assert keys == []
    # a walk of exactly MAX_ROW_DIM cells, all of them empty, is admitted
    monkeypatch.setattr(matfac, "MAX_ROW_DIM", 11)
    assert hom_dim(m, m, range(-100, -91)) == [0] * 9
    assert len(keys) == 11


def test_object_limit_raises_resource_error(monkeypatch):
    # the bound is on the product of the atoms' collection sizes, checked
    # before any label is joined; a bound of exactly the count admits it,
    # for collections and for E alike
    assert factorization.MAX_OBJECTS == 1 << 8
    assert len(matfac.collection_plan(_model("D4t+D4t+D4t")).labels) == 64
    assert len(generator_E(_model("D4t+D4t+D4t"))) == 216
    assert len(matfac.collection_plan(_model("A256")).labels) == 256
    with pytest.raises(ResourceLimitError, match="collection has 257 objects, above the limit 256"):
        matfac.collection_plan(_model("A257"))
    p = _model("A2+D4t")
    for run, count in [(generator_collection, 8), (generator_E, len(generator_E(p)))]:
        monkeypatch.setattr(factorization, "MAX_OBJECTS", count - 1)
        with pytest.raises(ResourceLimitError, match=f"collection has {count} objects, above the limit {count - 1}"):
            run(p)
        monkeypatch.setattr(factorization, "MAX_OBJECTS", count)
        assert len(run(p)) == count


# ---------------------------------------------------------------- generators


def test_generator_collection_labels():
    assert [l for l, _ in generator_collection(_model("D4t"))] == [
        "R/(y)",
        "R/(x^3+y)",
        "R/m(0)",
        "R/m(-1)",
    ]
    assert [l for l, _ in generator_collection(_model("A2"))] == ["R/m(0)", "R/m(-1)"]
    assert [l for l, _ in generator_collection(_model("A1+A1"))] == ["R/m(0)|R/m(0)"]
    with pytest.raises(MFError, match="transpose the polynomial first"):
        generator_collection(_model("D5"))


_BENCH_MODELS = ["D4t", "D5t", "D6t", "A1", "A2", "A3", "A4", "A5", "A2+A2", "A3+A3", "A2+D4t", "A2+A2+A2", "A3+D4t"]


@pytest.mark.parametrize("name", _BENCH_MODELS + ["D4t+D4t", "A2+A3+D4t"])
def test_collection_equals_the_per_object_tensor_reference(name):
    p = _model(name)
    col, ref = generator_collection(p), reference_collection(p)
    assert [label for label, _ in col] == [label for label, _ in ref]
    for (_, mf), (_, want) in zip(col, ref):
        assert mf.same_data(want)
        assert mf.coords == want.coords
        assert mf.field == want.field


# the bench models, sums with more tensor pairs, and the further models of
# the acceptance suite
@pytest.mark.parametrize(
    "name", _BENCH_MODELS + ["D4t+D4t", "A2+A3+D4t", "D4t+D4t+A2", "D3t", "A6", "A1+A1", "A2+A3"]
)
def test_plan_names_the_objects_it_builds(name):
    p = _model(name)
    plan = matfac.collection_plan(p)
    col = plan.build()
    assert plan.labels == [label for label, _ in col] == [label for label, _ in generator_collection(p)]
    assert {mf.field for _, mf in col} == {plan.field}


def test_plan_refuses_what_the_collection_refuses():
    for p, message in [(build([]), "the zero polynomial has no generator collection"), (_model("D5"), "transpose")]:
        for make in (matfac.collection_plan, generator_collection):
            with pytest.raises(MFError, match=message):
                make(p)


def _j_model(n):
    """The exponent matrix of x^(n-1) + x*y^2 and the group its J generates."""
    matrix = [[n - 1, 0], [1, 2]]
    lphi, ell = j_element(matrix)
    return matrix, DiagonalGroup(2, [lphi], ell)


def test_j_gives_x_to_the_m_the_degree_of_y():
    # the even-n cuts x^m +- i*y (m = (n-2)/2) are homogeneous only when x^m
    # and y have one degree; under <J> they do, so the quotient route picks
    # its objects and its field by the parity of n alone
    for n in range(4, 41, 2):
        ctx = m_grading(*_j_model(n))
        assert poly_class(ctx, Poly.variable(2, 0, (n - 2) // 2)) == poly_class(ctx, Poly.variable(2, 1)), n


@pytest.mark.parametrize("n", range(4, 13))
def test_quotient_plan_names_the_objects_it_builds(n):
    plan, quiver = quotient_graded_collection(*_j_model(n))
    col = plan.build()
    assert plan.labels == [label for label, _ in col] and len(col) == n == len(quiver.vertices)
    # the field as verify read it off the built objects before the plan named it
    assert plan.field == ("Q(i)" if any(mf.field != "Q" for _, mf in col) else "Q")
    assert plan.field == ("Q(i)" if n % 2 == 0 else "Q")


def test_quotient_plan_meets_the_object_bound_before_grading(monkeypatch):
    # the count is n, known from the matrix, so the refusal needs no grading
    def refuse(*args):
        raise AssertionError("m_grading was called")

    monkeypatch.setattr(factorization, "m_grading", refuse)
    monkeypatch.setattr(factorization, "MAX_OBJECTS", 5)
    assert len(quotient_graded_collection(*_j_model(5))[0].labels) == 5
    with pytest.raises(ResourceLimitError, match="collection has 6 objects, above the limit 5"):
        quotient_graded_collection(*_j_model(6))


@pytest.mark.parametrize(
    "name, tensors",
    [("A2+A2", 1), ("A3+A3", 1), ("A2+D4t", 3), ("A3+D4t", 3), ("A2+A2+A2", 2), ("D4t+D4t", 9), ("D4t+D4t+A2", 18)],
)
def test_each_pair_of_forms_is_tensored_once(name, tensors, monkeypatch):
    calls = []
    tensor = matfac.tensor_mf
    monkeypatch.setattr(matfac, "tensor_mf", lambda *args: calls.append(args) or tensor(*args))
    p = _model(name)
    generator_collection(p)
    assert len(calls) == tensors
    del calls[:]
    generator_E(p)
    assert len(calls) == len(p.atoms) - 1


def test_generator_orbit_for_chain_atom():
    p = _model("A2")
    gens = generator_E(p)
    base = mf_from_pair(p.ctx, p.poly, Poly.variable(1, 0), Poly.monomial(1, (2,)))
    reps = lbar_representatives(p.ctx)
    assert len(gens) == len(reps) == 3
    for g, r in zip(gens, reps):
        assert g.same_data(shift_mf(base, r))


def test_generator_orbit_for_two_variable_atom():
    p = _model("D4t")
    gens = generator_E(p)
    base = residue_mf_D(4, ctx=p.ctx)
    reps = lbar_representatives(p.ctx)
    assert len(gens) == len(reps) == 6
    for g, r in zip(gens, reps):
        assert g.same_data(shift_mf(base, r))


def test_generator_orbit_for_sums():
    gens = generator_E(_model("A2+A2"))
    assert len(gens) == 9
    base = gens[0]
    assert all(g.ctx == base.ctx for g in gens)
    with pytest.raises(MFError, match="transpose the polynomial first"):
        generator_E(_model("D4"))


def test_one_period_totals_multiply_over_sums():
    singles = {"A1": 4, "A2": 6, "A3": 8, "D4t": 24}
    for name, want in singles.items():
        assert one_period_end_total(generator_E(_model(name)), periods=4) == want
    assert one_period_end_total(generator_E(_model("A1+A1")), periods=4) == 16
    assert one_period_end_total(generator_E(_model("A2+A2")), periods=4) == 36


def _direct_period_total(gens, periods):
    """Sum of hom_dim over every ordered pair of generators and every shift
    of the folding window."""
    shifts = range(-2 * periods, 2 * periods + 2)
    return sum(sum(hom_dim(a, b, shifts)) for a in gens for b in gens)


@pytest.mark.parametrize("name, size", [("A2+A2", None), ("A2+A2", 4), ("A2+A2+A2", None), ("A2+A2+A2", 10)])
def test_orbit_folded_period_total_equals_the_direct_total(name, size, monkeypatch):
    # the whole list shuffled, and a prefix of it
    gens = generator_E(_model(name))
    random.Random(name).shuffle(gens)
    gens = gens[:size]
    calls = _counting_homs(monkeypatch)
    total = one_period_end_total(gens, periods=3)
    monkeypatch.undo()
    fresh = {g.coords: g for g in generator_E(_model(name))}
    assert total == _direct_period_total([fresh[g.coords] for g in gens], 3)
    if name == "A2+A2+A2" and size is None:
        # 81 differences in 30 orbits under the permutations of the atoms,
        # one walk of the folding window each
        assert total == 216
        assert calls == [range(-6, 8)] * 30


def test_orbit_folded_period_total_of_swapped_residue_objects(monkeypatch):
    # D4t+D4t takes seconds a difference on the whole list, so only the
    # objects with indices (0, 1) and (1, 0): the differences d and -d of
    # the swapped pair share an orbit, 0 is its own
    gens = [g for g in generator_E(_model("D4t+D4t")) if g.coords[2] in ((0, 1), (1, 0))]
    calls = _counting_homs(monkeypatch)
    total = one_period_end_total(gens, periods=3)
    monkeypatch.undo()
    assert calls == [range(-6, 8)] * 2
    fresh = [g for g in generator_E(_model("D4t+D4t")) if g.coords[2] in ((0, 1), (1, 0))]
    assert total == _direct_period_total(fresh, 3)


def test_one_period_total_needs_a_twist_orbit():
    _, col, _ = _rank_one_objects("D4t")
    with pytest.raises(MFError, match="not twists of a single object"):
        one_period_end_total([m for _, m in col[:2]], periods=4)
    with pytest.raises(MFError, match="edge of the folding window"):
        one_period_end_total(generator_E(_model("A2")), periods=0)


# ---------------------------------------------------------------- serialization


def test_json_shapes_are_stable():
    a1 = _model("A1")
    x = Poly.variable(1, 0)
    k = mf_from_pair(a1.ctx, a1.poly, x, x)
    assert json.dumps(mf_to_json(k), sort_keys=True) == (
        '{"d0": [["x"]], "d1": [["x"]], "p0": [0], "p1": [1], "w": "x^2"}'
    )

    _, col, _ = _rank_one_objects("D4t")
    tab = ext_table(col[:2], 1)
    assert json.dumps(_table_json(tab.objects, 1, tab), sort_keys=True) == (
        '{"entries": [[0, 0, 0, 1], [1, 1, 0, 1]], '
        '"objects": ["R/(y)", "R/(x^3+y)"], "window": [-1, 1]}'
    )


# ---------------------------------------------------------------- properties

_GAMMA_POOL = ("A1", "A3", "A5", "D4t", "D5t", "D4", "D6", "A1+A1", "A2+D4t")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_every_koszul_splitting_factorizes(data):
    name = data.draw(st.sampled_from(_GAMMA_POOL))
    p = _model(name)
    choice = {}
    for exps, coeff in sorted(p.poly.terms.items()):
        divisors = [i for i, e in enumerate(exps) if e > 0]
        choice[exps] = data.draw(st.sampled_from(divisors))
    k = koszul_mf(p, p.ctx, gamma_choice=choice)
    k.validate()
    assert k.rank0 == k.rank1 == 2 ** (p.poly.nvars - 1)


# ---------------------------------------------------------------- the oracle

# one- and two-variable atoms whose objects keep hom cells to a few dozen
# monomials; a tensor draws both factors from these
_ORACLE_ATOMS = ("A1", "A2", "A3", "A4", "D4t", "D5t")
_ORACLE_PAIRS = (("A1", "A2"), ("A2", "A2"), ("A1", "D4t"), ("A2", "A3"))


def _random_atom_object(data, name):
    """x^n = x^i * x^(n-i), a D_n^t rank-one cut or residue object, or a
    Koszul stabilization with a random gamma choice."""
    p = _model(name)
    kind = data.draw(st.sampled_from(("pair", "koszul") if name[0] == "A" else ("cut", "residue", "koszul")))
    if kind == "pair":
        n = p.atoms[0].param + 1
        i = data.draw(st.integers(1, n - 1))
        return mf_from_pair(p.ctx, p.poly, Poly.monomial(1, (i,)), Poly.monomial(1, (n - i,)))
    if kind == "cut":
        y = Poly.variable(2, 1)
        cofactor = Poly.monomial(2, (p.atoms[0].param - 1, 0)) + y
        a, b = data.draw(st.permutations((y, cofactor)))
        return mf_from_pair(p.ctx, p.poly, a, b)
    if kind == "residue":
        return residue_mf_D(p.atoms[0].param, ctx=p.ctx)
    choice = {exps: data.draw(st.sampled_from([i for i, e in enumerate(exps) if e])) for exps, _ in sorted(p.poly.terms.items())}
    return koszul_mf(p, p.ctx, gamma_choice=choice)


def _twisted(data, k):
    """k twisted by a random element and translated a random number of times."""
    ctx = k.ctx
    c = ctx.deg_c.free[0]
    t = ctx.element(data.draw(st.integers(0, 2 * c)), tuple(data.draw(st.integers(0, m - 1)) for m in ctx.torsion))
    k = shift_mf(k, t)
    for _ in range(data.draw(st.integers(0, 1))):
        k = translate_mf(k)
    return k


def _random_objects(data):
    """Two objects of one context: atom objects, tensors of atom objects, or
    rank-one objects over Q(i)."""
    source = data.draw(st.sampled_from(("atom", "tensor", "tensor", "gaussian")))
    if source == "atom":
        name = data.draw(st.sampled_from(_ORACLE_ATOMS))
        objs = [_random_atom_object(data, name) for _ in range(2)]
    elif source == "tensor":
        first, second = data.draw(st.sampled_from(_ORACLE_PAIRS))
        maps = sum_grading_maps(_model(first).ctx, _model(second).ctx)
        objs = [
            tensor_mf(_random_atom_object(data, first), _random_atom_object(data, second), maps) for _ in range(2)
        ]
    else:
        col = quotient_graded_collection([[3, 0], [1, 2]], parse_group_string("1/3,1/3", 2))[0].build()
        objs = [col[0][1], col[data.draw(st.integers(0, 3))][1]]
    return objs


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_hom_dims_match_the_oracle_on_random_objects(data):
    k, h = (_twisted(data, m) for m in _random_objects(data))
    for shift in range(-1, 3):
        assert hom_at(k, h, shift) == oracle_hom_dim(k, h, shift)


# the models of the verify-atoms and verify-sums benchmark workloads
_BENCH_MODELS = ("D4t", "D5t", "D6t", "A1", "A2", "A3", "A4", "A5", "A2+A2", "A3+A3", "A2+D4t", "A2+A2+A2", "A3+D4t")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_a_cell_answered_empty_below_degree_zero_has_no_monomial(data):
    # _cell_offsets answers a cell whose slots all have a negative free
    # degree as empty, without enumerating and without keeping it; then the
    # oracle's slot degrees, summed in LElement arithmetic, have no
    # monomial, and neither do matfac's slot codes.  Every cell, empty or
    # not, has the oracle's dimension.
    name = data.draw(st.sampled_from(("random", *REDUCTION_COLLECTIONS, *_BENCH_MODELS)))
    objs = _random_objects(data) if name == "random" else [data.draw(st.sampled_from(_objects(name))) for _ in "kh"]
    k, h = (_twisted(data, m) for m in objs)
    ctx = k.ctx
    answered = 0
    for q, parity in itertools.product(range(-16, 3), (0, 1)):
        memo, key, _ = cell_keys(k, h, q, parity)
        rid = matfac._slot_degrees(memo, key[0], key[1], parity)
        kept = (rid, key[2]) in memo.cells
        enumerated = len(ctx.__dict__.get("_mono_cache", ()))
        offsets = matfac._cell_offsets(ctx, memo, key)[1]
        slots = [d for *_, d in _slots(k, h, q, ("even", "odd")[parity])]
        assert offsets[-1] == sum(len(_exponents(ctx, d)) for d in slots)
        if kept or (rid, key[2]) in memo.cells:
            continue
        answered += 1
        assert len(ctx.__dict__.get("_mono_cache", ())) == enumerated
        assert offsets == (0,) * (len(slots) + 1)
        assert all(d.free[0] < 0 and not _exponents(ctx, d) for d in slots)
        assert not any(monomials_of_degree(ctx, memo.add(key[2], rel)) for rel in memo.rels[rid])
    assert answered


@given(st.data())
@settings(max_examples=8, deadline=None)
def test_hom_dims_below_degree_zero_match_the_oracle(data):
    # a walk from well below degree zero, whose first cells are answered
    # empty, up to shift 1
    k, h = (_twisted(data, m) for m in _random_objects(data))
    shifts = range(-12, 2)
    assert hom_dim(k, h, shifts) == [oracle_hom_dim(k, h, s) for s in shifts]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_planned_assembly_equals_the_reference_column_by_column(data):
    k, h = (_twisted(data, m) for m in _random_objects(data))
    for _ in range(3):
        q, parity = data.draw(st.integers(-2, 2)), data.draw(st.sampled_from((0, 1)))
        nsrc, ndst = _cell_dim(k, h, q, parity), _cell_dim(k, h, q + parity, 1 - parity)
        skip = data.draw(st.sets(st.integers(0, nsrc - 1))) if nsrc else set()
        kept = []
        cols = _columns(k, h, q, parity, skip, kept)
        ref = _first_block(reference_boundary_columns(k, h, q, parity, skip), k, h, q, parity)
        assert len(ref) == nsrc
        # the same rows in the same order in every column outside skip that
        # the reference fills, at the same positions, over Q(i) before
        # _int_columns; matfac writes the first block only
        at, ref = _outside(ref, skip)
        assert kept == at
        assert all(r < ndst for c in cols for r in c)
        assert [list(c.items()) for c in cols] == [list(c.items()) for c in ref]


def _rank_over_q(cols, gauss, pivots):
    """Rank over Q of exact columns; columns over Q(i) are realified first,
    so the rank is twice theirs and pivots are realified rows."""
    return int_rank(matfac._int_columns(cols) if gauss else cols, pivots)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_one_target_block_has_the_rank_of_the_whole_boundary(data):
    # d(f) vanishes when its component in either block of the target cell
    # does (matfac's module docstring): on any set of source columns, each
    # block's projection has the rank of the whole boundary, and the pivot
    # rows of the first block's projection, dropped from the sources of the
    # next boundary, leave that boundary its whole rank
    name = data.draw(st.sampled_from(("random", *REDUCTION_COLLECTIONS)))
    objs = _random_objects(data) if name == "random" else [data.draw(st.sampled_from(_objects(name))) for _ in "kh"]
    k, h = (_twisted(data, m) for m in objs)
    gauss = k.field != "Q" or h.field != "Q"
    q, parity = data.draw(st.integers(-2, 2)), data.draw(st.sampled_from((0, 1)))
    nsrc = _cell_dim(k, h, q, parity)
    skip = data.draw(st.sets(st.integers(0, nsrc - 1))) if nsrc else set()
    whole = reference_boundary_columns(k, h, q, parity, skip)
    rank = _rank_over_q(whole, gauss, [])
    n = first_block_rows(k, h, q, parity)
    for first in (True, False):
        assert _rank_over_q([{r: v for r, v in c.items() if (r < n) == first} for c in whole], gauss, []) == rank
    # the assembled boundary is the first block's projection
    pivots = []
    assert _rank_over_q(_columns(k, h, q, parity, skip), gauss, pivots) == rank
    nxt = reference_boundary_columns(k, h, q + parity, 1 - parity)
    nxt = matfac._int_columns(nxt) if gauss else nxt
    drop = set(pivots)
    assert int_rank([c for s, c in enumerate(nxt) if s not in drop], []) == int_rank(nxt, [])


@pytest.mark.parametrize("name", ["A2+A2+A2", "A2+D4t"])
def test_plans_are_kept_once_per_pair_of_forms_and_parity(name, monkeypatch):
    assemble = matfac._boundary_columns
    assembled = set()

    def recording(k, h, memo, key, src, dst, skip, kept=None):
        fk, fh, _, parity = key
        assembled.add((fk, fh, parity))
        return assemble(k, h, memo, key, src, dst, skip, kept)

    monkeypatch.setattr(matfac, "_boundary_columns", recording)
    col = [m for _, m in generator_collection(_model(name))]
    ext_table(_labelled(col), 2)
    memo = col[0].ctx._hom_memo
    assert set(memo.plans) == assembled
    # twisting both objects of a pair keeps both forms: the same plan, the
    # same columns and no new entry
    plans = dict(memo.plans)
    t = _twist(col[0].ctx, 3)
    for k, h in ((col[0], col[-1]), (col[-1], col[1])):
        tk, th = shift_mf(k, t), shift_mf(h, t)
        for q, parity in itertools.product(range(-2, 2), (0, 1)):
            assert _columns(tk, th, q, parity) == _columns(k, h, q, parity)
    assert memo.plans.keys() == plans.keys()
    assert all(memo.plans[f] is p for f, p in plans.items())
    # a model built again starts with an empty memo and shares no plan
    again = [m for _, m in generator_collection(_model(name))]
    assert "_hom_memo" not in vars(again[0].ctx)
    ext_table(_labelled(again), 2)
    fresh = again[0].ctx._hom_memo
    assert fresh is not memo and fresh.plans == plans
    assert not any(fresh.plans[f] is p for f, p in plans.items())


# ------------------------------------------------------------------ the audit


def _audit(check):
    """None, or the message of the MFError that check() raises."""
    try:
        check()
    except MFError as exc:
        return str(exc)
    return None


def _perturbed(data, m):
    """m with one coefficient, one exponent or one slot label changed, unchecked."""
    labels = [list(m.p0), list(m.p1)]
    d = [[list(row) for row in m.d0], [list(row) for row in m.d1]]
    what = data.draw(st.sampled_from(("coefficient", "exponent", "label")))
    if what == "label":
        part = labels[data.draw(st.sampled_from([n for n in (0, 1) if labels[n]]))]
        i = data.draw(st.integers(0, len(part) - 1))
        part[i] = part[i] + _twist(m.ctx, data.draw(st.sampled_from((-1, 1))))
    else:
        spots = [(s, i, j) for s in (0, 1) for i, row in enumerate(d[s]) for j, e in enumerate(row) if e]
        s, i, j = data.draw(st.sampled_from(spots))
        terms = dict(d[s][i][j].terms)
        exps = data.draw(st.sampled_from(sorted(terms)))
        if what == "coefficient":
            terms[exps] = terms[exps] + data.draw(st.sampled_from((-2, -1, 1, 2)))
        else:
            v = data.draw(st.integers(0, len(exps) - 1))
            step = data.draw(st.sampled_from((-1, 1) if exps[v] else (1,)))
            moved = exps[:v] + (exps[v] + step,) + exps[v + 1 :]
            terms[moved] = terms.get(moved, 0) + terms.pop(exps)
        d[s][i][j] = Poly(len(m.ctx.deg_x), terms)
    return MatrixFactorization(m.ctx, m.w, *labels, *d, check=False)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_audit_agrees_with_the_poly_reference(data):
    for m in _random_objects(data):
        for obj in (m, _twisted(data, m), _perturbed(data, m)):
            want = _audit(lambda: reference_validate(obj))
            assert _audit(obj.validate) == want
            # the constructor, in a context that has validated m's form
            assert _audit(lambda: MatrixFactorization(obj.ctx, obj.w, obj.p0, obj.p1, obj.d0, obj.d1)) == want


def test_each_form_is_validated_once_per_context(monkeypatch):
    calls = []
    validate = MatrixFactorization.validate
    monkeypatch.setattr(MatrixFactorization, "validate", lambda self: calls.append(self) or validate(self))
    k = residue_mf_D(4)
    ctx = k.ctx
    assert len(calls) == 1
    # a changed W or a changed relative label is audited and refused
    with pytest.raises(MFError, match="W times the identity"):
        MatrixFactorization(ctx, k.w * 2, k.p0, k.p1, k.d0, k.d1)
    moved = [k.p1[0], k.p1[1] + _twist(ctx, 1)]
    with pytest.raises(MFError, match="degree forced by its slots"):
        MatrixFactorization(ctx, k.w, k.p0, moved, k.d0, k.d1)
    assert len(calls) == 3
    assert residue_mf_D(4).ctx is not ctx and len(calls) == 4
    # the four objects of A2+A2 are twists of one tensor: one audit, after
    # one per atom
    del calls[:]
    generator_collection(_model("A2+A2"))
    assert len(calls) == 3
