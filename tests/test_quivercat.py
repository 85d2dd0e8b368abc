"""Tests for quivers, tensor tables, Euler matrices, and mutations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmskit import quivercat
from hmskit.exactmat import det_int
from hmskit.polyforms import atom_from_name, parse_model
from hmskit.quivercat import (
    BigradedTable,
    Quiver,
    QuiverError,
    coxeter_polynomial,
    dynkin_quiver,
    euler_matrix,
    mutate_collection,
    simple_hom_dims,
    tensor_model,
)

from reference_aside import dense_tensor_model
from reference_exact import rat_rank


# ---------------------------------------------------------------- oracle
# Independent route: hom/ext between representations via the standard
# four-term exact sequence.  0 -> Hom -> sum_v Hom(M_v,N_v) -> sum_{a:u->v}
# Hom(M_u,N_v) -> Ext1 -> 0.  For simples every internal map vanishes, but
# the point is that this derivation never mentions arrow conventions for
# the derived category; it gives Ext1(S_i, S_j) = #arrows i -> j.


def _simple_rep(q, i):
    dims = [1 if v == i else 0 for v in range(q.rank)]
    mats = {a: [[0] * dims[src] for _ in range(dims[dst])] for a, (src, dst) in enumerate(q.arrows)}
    return dims, mats


def _oracle_hom_ext1(q, rep_m, rep_n):
    mdims, mmats = rep_m
    ndims, nmats = rep_n
    vert_space = sum(md * nd for md, nd in zip(mdims, ndims))
    arrow_space = sum(mdims[src] * ndims[dst] for src, dst in q.arrows)
    # Phi(f)_a = f_target . M_a - N_a . f_source, written as a matrix on
    # the f-coordinates (f_v is an ndims[v] x mdims[v] block)
    offsets = []
    pos = 0
    for v in range(q.rank):
        offsets.append(pos)
        pos += mdims[v] * ndims[v]
    rows = []
    for a, (src, dst) in enumerate(q.arrows):
        for r in range(ndims[dst]):
            for c in range(mdims[src]):
                row = [0] * vert_space
                # f_dst . M_a contribution
                for t in range(mdims[dst]):
                    row[offsets[dst] + r * mdims[dst] + t] += mmats[a][t][c] if mdims[dst] else 0
                # - N_a . f_src contribution
                for s in range(ndims[src]):
                    row[offsets[src] + s * mdims[src] + c] -= nmats[a][r][s] if ndims[src] else 0
                rows.append(row)
    rank = rat_rank(rows) if rows and vert_space else 0
    hom = vert_space - rank
    ext1 = arrow_space - rank
    return hom, ext1


@pytest.mark.parametrize("qname", ["A1", "A2", "A4", "D4", "D5"])
def test_simple_hom_dims_against_representation_oracle(qname):
    q = dynkin_quiver(qname)
    for i in range(q.rank):
        for j in range(q.rank):
            hom, ext1 = _oracle_hom_ext1(q, _simple_rep(q, i), _simple_rep(q, j))
            assert simple_hom_dims(q, i, j, 0) == hom
            # derived-category convention counts the opposite direction
            assert simple_hom_dims(q, j, i, 1) == ext1


# ---------------------------------------------------------------- quivers


def test_dynkin_shapes():
    a3 = dynkin_quiver("A3")
    assert a3.vertices == ("v1", "v2", "v3")
    assert a3.arrows == ((1, 0), (2, 1))
    a1 = dynkin_quiver("A1")
    assert a1.arrows == ()
    d4 = dynkin_quiver("D4")
    assert d4.arrows == ((2, 0), (2, 1), (3, 2))
    d6 = dynkin_quiver("D6")
    assert d6.arrows == ((2, 0), (2, 1), (3, 2), (4, 3), (5, 4))


def test_dynkin_rejections():
    with pytest.raises(QuiverError, match="A3"):
        dynkin_quiver("D3")
    with pytest.raises(QuiverError):
        dynkin_quiver("A0")
    with pytest.raises(QuiverError):
        dynkin_quiver("D2")
    with pytest.raises(QuiverError):
        dynkin_quiver("E6")


def test_dynkin_from_atom():
    assert dynkin_quiver(atom_from_name("A5")).name == "A5"
    assert dynkin_quiver(atom_from_name("D5t")).name == "D5"
    assert dynkin_quiver(atom_from_name("D5")).name == "D5"


def test_quivers_compare_and_hash_by_their_fields():
    q = Quiver("D4", ("v1", "v2", "v3", "v4"), ((2, 0), (2, 1), (3, 2)))
    assert dynkin_quiver("D4") == q and hash(dynkin_quiver("D4")) == hash(q)
    assert dynkin_quiver(atom_from_name("D4t")) == q
    others = [
        Quiver("A4", q.vertices, q.arrows),
        Quiver("D4", ("v1", "v2", "v3"), q.arrows),
        Quiver("D4", q.vertices, ((2, 0), (2, 1))),
    ]
    assert all(q != other for other in others)
    assert len({q, dynkin_quiver("D4"), *others}) == 4
    assert repr(dynkin_quiver("A2")) == "Quiver(name='A2', vertices=('v1', 'v2'), arrows=((1, 0),))"


@pytest.mark.parametrize("field", ["name", "vertices", "arrows", "other"])
def test_quiver_is_immutable(field):
    q = dynkin_quiver("A3")
    with pytest.raises(AttributeError):
        setattr(q, field, ())
    with pytest.raises(AttributeError):
        delattr(q, field)
    assert q == dynkin_quiver("A3") and q.rank == 3


def test_simple_hom_dims_basics():
    q = dynkin_quiver("D4")
    for i in range(4):
        assert simple_hom_dims(q, i, i, 0) == 1
        assert simple_hom_dims(q, i, i, 1) == 0
        for k in (-2, -1, 2, 3):
            assert simple_hom_dims(q, i, i, k) == 0
    # arrow v3 -> v1 shows up as Hom(S1, S3[1])
    assert simple_hom_dims(q, 0, 2, 1) == 1
    assert simple_hom_dims(q, 2, 0, 1) == 0
    with pytest.raises(QuiverError):
        simple_hom_dims(q, 0, 4, 0)


# ---------------------------------------------------------------- tensor


def _tensor(*names):
    return tensor_model([dynkin_quiver(name) for name in names])


def test_tensor_single_factor_reduces():
    q = dynkin_quiver("D4")
    t = _tensor("D4")
    for i in range(4):
        for j in range(4):
            for k in range(-1, 3):
                assert t.dims.get((i, j, k), 0) == simple_hom_dims(q, i, j, k)


def test_tensor_a1_a1():
    t = _tensor("A1", "A1")
    assert len(t.objects) == 1
    assert t.dims == {(0, 0, 0): 1}


def test_tensor_a2_a2():
    t = _tensor("A2", "A2")
    assert len(t.objects) == 4
    assert t.objects[0] == ("v1", "v1")
    idx = {obj: n for n, obj in enumerate(t.objects)}
    lo = idx[("v1", "v1")]
    hi = idx[("v2", "v2")]
    assert t.dims.get((lo, hi, 2), 0) == 1
    assert t.dims.get((hi, lo, 2), 0) == 0
    assert t.dims.get((lo, hi, 1), 0) == 0
    mixed = idx[("v1", "v2")]
    assert t.dims.get((lo, mixed, 1), 0) == 1
    assert t.dims.get((lo, lo, 0), 0) == 1


def test_tensor_total_is_product_of_factor_totals():
    def factor_total(name):
        return sum(_tensor(name).dims.values())

    assert factor_total("A2") == 3
    assert factor_total("D4") == 7
    for combo in [["A2", "A2"], ["A2", "D4"], ["A1", "D5"], ["A3", "A2"]]:
        expect = 1
        for name in combo:
            expect *= factor_total(name)
        assert sum(_tensor(*combo).dims.values()) == expect


def test_tensor_factor_order_is_relabeling():
    t1 = _tensor("A2", "D4")
    t2 = _tensor("D4", "A2")
    assert sum(t1.dims.values()) == sum(t2.dims.values())
    swap = {}
    for n, obj in enumerate(t1.objects):
        swap[n] = t2.objects.index((obj[1], obj[0]))
    for (i, j, k), d in t1.dims.items():
        assert t2.dims.get((swap[i], swap[j], k), 0) == d


_BENCH_MODELS = ["D4t", "D5t", "D6t", "A1", "A2", "A3", "A4", "A5", "A2+A2", "A3+A3", "A2+D4t", "A2+A2+A2", "A3+D4t"]


@pytest.mark.parametrize(
    "model",
    [f"A{m}" for m in range(1, 41)]
    + [f"D{n}" for n in range(4, 21)]
    + _BENCH_MODELS
    + ["D4t+D4t+A2", "A2+A3+D4t", "A2+A2+A2+A2"],
)
def test_folded_tensor_model_equals_the_dense_loop(model):
    quivers = [dynkin_quiver(a) for a in parse_model(model).atoms]
    folded, dense = tensor_model(quivers), dense_tensor_model(quivers)
    assert folded.objects == dense.objects
    assert folded.dims == dense.dims
    assert folded.entries() == dense.entries()


def test_tensor_model_tests_only_the_entries_that_can_be_nonzero(monkeypatch):
    calls = []
    hom = quivercat.simple_hom_dims
    monkeypatch.setattr(quivercat, "simple_hom_dims", lambda *args: calls.append(args) or hom(*args))
    model = _tensor("A128")
    assert len(model.objects) == 128 and sum(model.dims.values()) == 2 * 128 - 1
    # at most the diagonal and one pair per arrow, each at k = 0 and k = 1
    assert len(calls) <= 2 * (2 * 128 - 1)


def test_table_without_dims_gets_a_fresh_dict():
    a, b = BigradedTable(["x"], {}), BigradedTable(["x"], {})
    assert a.dims == {} and a.dims is not b.dims
    a.dims[(0, 0, 0)] = 1
    assert b.dims == {} and a != b
    assert BigradedTable(["x"], {(0, 0, 0): 1}) == a


def test_table_window_and_entries():
    t = _tensor("A2", "A2")
    w = t.restrict_window(1)
    assert all(abs(k) <= 1 for (_, _, k) in w.dims)
    assert sum(w.dims.values()) < sum(t.dims.values())
    ent = t.entries()
    assert ent == sorted(ent)
    assert all(d > 0 for (_, _, _, d) in ent)


# ---------------------------------------------------------------- Euler


def test_euler_matrices():
    assert euler_matrix(dynkin_quiver("A2")) == [[1, 0], [-1, 1]]
    assert euler_matrix(dynkin_quiver("D4")) == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [-1, -1, 1, 0],
        [0, 0, -1, 1],
    ]


def test_coxeter_polynomials():
    assert coxeter_polynomial(euler_matrix(dynkin_quiver("A1"))) == [1, 1]
    assert coxeter_polynomial(euler_matrix(dynkin_quiver("A2"))) == [1, 1, 1]
    assert coxeter_polynomial(euler_matrix(dynkin_quiver("A5"))) == [1, 1, 1, 1, 1, 1]
    # (t+1)^2 (t^2 - t + 1)
    assert coxeter_polynomial(euler_matrix(dynkin_quiver("D4"))) == [1, 1, 0, 1, 1]
    # (t^4 + 1)(t + 1)
    assert coxeter_polynomial(euler_matrix(dynkin_quiver("D5"))) == [1, 1, 0, 0, 1, 1]


def test_coxeter_polynomial_refuses_non_unimodular():
    # the Coxeter matrix of [[2]] is [[-1]], with an integral charpoly, but
    # E^-T is not integral
    with pytest.raises(QuiverError, match="E is not unimodular"):
        coxeter_polynomial([[2]])


def test_coxeter_against_sympy():
    sympy = pytest.importorskip("sympy")
    for name in ["A4", "D5"]:
        e = euler_matrix(dynkin_quiver(name))
        m = sympy.Matrix(e)
        cox = -(m.T.inv()) * m
        t = sympy.symbols("t")
        theirs = [int(c) for c in cox.charpoly(t).all_coeffs()]
        assert coxeter_polynomial(e) == theirs


# ---------------------------------------------------------------- mutation


def lower_tri(n, seed):
    import random

    rng = random.Random(seed)
    return [
        [1 if i == j else (rng.randint(-3, 3) if i > j else 0) for j in range(n)]
        for i in range(n)
    ]


def test_mutation_examples():
    e = euler_matrix(dynkin_quiver("A2"))
    left = mutate_collection(e, 1, "left")
    assert mutate_collection(left, 1, "right") == e
    right = mutate_collection(e, 1, "right")
    assert mutate_collection(right, 1, "left") == e
    with pytest.raises(QuiverError):
        mutate_collection(e, 0, "left")
    with pytest.raises(QuiverError):
        mutate_collection(e, 2, "left")
    with pytest.raises(QuiverError):
        mutate_collection(e, 1, "up")


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10**6))
def test_mutation_properties_on_collection_matrices(n, seed):
    e = lower_tri(n, seed)
    for i in range(1, n):
        assert mutate_collection(mutate_collection(e, i, "left"), i, "right") == e
        assert mutate_collection(mutate_collection(e, i, "right"), i, "left") == e
    for i in range(1, n - 1):
        lhs = e
        for step in (i, i + 1, i):
            lhs = mutate_collection(lhs, step, "left")
        rhs = e
        for step in (i + 1, i, i + 1):
            rhs = mutate_collection(rhs, step, "left")
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.integers(0, 10**6))
def test_braid_on_upper_triangular(n, seed):
    # opposite orientation: mutations degenerate to slot swaps, braid holds
    import random

    rng = random.Random(seed)
    e = [
        [1 if i == j else (rng.randint(-3, 3) if i < j else 0) for j in range(n)]
        for i in range(n)
    ]
    for i in range(1, n - 1):
        lhs = e
        for step in (i, i + 1, i):
            lhs = mutate_collection(lhs, step, "left")
        rhs = e
        for step in (i + 1, i, i + 1):
            rhs = mutate_collection(rhs, step, "left")
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6), st.sampled_from(["left", "right"]))
def test_mutation_preserves_det_and_coxeter(n, seed, direction):
    e = lower_tri(n, seed)
    cox = coxeter_polynomial(e)
    d = det_int(e)
    for i in range(1, n):
        m = mutate_collection(e, i, direction)
        assert det_int(m) == d
        assert coxeter_polynomial(m) == cox
