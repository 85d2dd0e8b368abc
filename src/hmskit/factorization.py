"""Graded matrix factorizations: the objects, their audit, tensor products,
and the generator collection of matrix mode.

A matrix factorization of W is a pair of graded free modules P0, P1 with
maps d0: P0 -> P1 and d1: P1 -> P0(c) whose composites are W times the
identity.  Module gradings are tracked as one label per basis slot; a map
between slots labeled a and b must be homogeneous of degree b - a.
Polynomial coefficients lie in Z[i] (an int, or a GaussInt when non-real;
see Poly); an object with a non-real coefficient has the field Q(i), and
its hom dimensions are taken over Q(i) (see matfac).

The audit in MatrixFactorization.validate (d1*d0 = d0*d1 = W*Id, every entry
homogeneous of the degree its slots force) sums product entries as term dicts
{exps: coeff} and compares (free, tors) degree keys cached per context
(GradingContext.degree_key).  It reads slot labels only through their
differences, so shift_mf and translate_mf skip it; the objects of a
collection are twists of forms built, and audited, once (see
matfac._sum_objects).
"""

from operator import add

from . import polyforms
from .exactmat import I, Poly
from .grading import LElement, m_grading
from .quivercat import dynkin_quiver
from .symmetry import DiagonalGroup, ResourceLimitError, format_element, j_element


class MFError(ValueError):
    pass


# The largest number of objects of a collection or of matfac.generator_E
# (see matfac._sum_objects); a larger product of the atoms' sizes raises
# ResourceLimitError before any label is joined.  The smallest power of two
# above the largest count of any model measured to completion (255 in a
# verify of A255; the largest sum, D4t+D4t+D4t, has 64 objects and 216 in E).
MAX_OBJECTS = 1 << 8


def _as_element(ctx, a):
    if isinstance(a, LElement):
        if a.moduli != ctx.torsion or len(a.free) != ctx.free_rank:
            raise MFError("shift element lives in a different grading group")
        return a
    if isinstance(a, int):
        if ctx.free_rank != 1:
            raise MFError("integer shifts need a rank-one grading")
        return ctx.element(a)
    raise MFError(f"cannot interpret shift {a!r}")


def _class_key(ctx, p):
    """poly_class as a plain (free, tors) tuple (see GradingContext.degree_key)."""
    if len(ctx.deg_x) != p.nvars:
        raise MFError("polynomial has the wrong number of variables")
    keys = set(map(ctx.degree_key, p.terms))
    if len(keys) > 1:
        raise MFError(f"polynomial is not homogeneous: {p.format()}")
    return keys.pop() if keys else None


def poly_class(ctx, p):
    """L-degree of a homogeneous polynomial; None for the zero polynomial."""
    key = _class_key(ctx, p)
    return None if key is None else LElement(*key, ctx.torsion)


class MatrixFactorization:
    """Validated matrix factorization; immutable once constructed.

    Identity-based equality on purpose: two factorizations may be
    isomorphic without sharing data, so use same_data for raw comparison.

    `coords` is None, or (source, kinds, index) on an object that
    matfac.generator_E or matfac.generator_collection built: the source
    ("E" or "collection"), the atom names of the sum in order and the
    object's per-atom indices (see matfac._orbit_key).  Derived objects do
    not inherit it.
    """

    def __init__(self, ctx, w, p0, p1, d0, d1, check=True):
        self.ctx = ctx
        self.w = w
        self.p0 = tuple(p0)
        self.p1 = tuple(p1)
        self.d0 = tuple(tuple(row) for row in d0)
        self.d1 = tuple(tuple(row) for row in d1)
        self.coords = None
        self._form = None
        self._field = None
        if check:
            self.validate()

    @property
    def rank0(self):
        return len(self.p0)

    @property
    def rank1(self):
        return len(self.p1)

    @property
    def field(self):
        """Coefficient field of the differentials: "Q(i)" when an entry has
        a non-real coefficient, else "Q"."""
        if self._field is None:
            gauss = any(e.is_gaussian() for row in self.d0 + self.d1 for e in row)
            self._field = "Q(i)" if gauss else "Q"
        return self._field

    def validate(self):
        ctx = self.ctx
        nv = len(ctx.deg_x)
        r0, r1 = self.rank0, self.rank1
        if self.w.nvars != nv:
            raise MFError("potential has the wrong number of variables")
        if len(self.d0) != r1 or any(len(row) != r0 for row in self.d0):
            raise MFError("d0 has the wrong shape")
        if len(self.d1) != r0 or any(len(row) != r1 for row in self.d1):
            raise MFError("d1 has the wrong shape")
        wc = _class_key(ctx, self.w)
        if wc is not None and wc != ctx.deg_c.key():
            raise MFError("potential is not homogeneous of degree c")
        for name, d in (("d0", self.d0), ("d1", self.d1)):
            for i, row in enumerate(d):
                for j, e in enumerate(row):
                    if not isinstance(e, Poly) or e.nvars != nv:
                        raise MFError(f"{name}[{i}][{j}] = {e!r} is not a polynomial in the grading's variables")
        # the products, entry by entry on term dicts {exps: coeff}
        for name, a, b in (("d1*d0", self.d1, self.d0), ("d0*d1", self.d0, self.d1)):
            for j in range(len(a)):
                col = [row[j] for row in b]
                for i, row in enumerate(a):
                    acc = {}
                    for p, q in zip(row, col):
                        for e1, c1 in p.terms.items():
                            for e2, c2 in q.terms.items():
                                e = tuple(map(add, e1, e2))
                                acc[e] = acc.get(e, 0) + c1 * c2
                    if {e: c for e, c in acc.items() if c} != (self.w.terms if i == j else {}):
                        raise MFError(f"{name} is not W times the identity")
        # d0[i][j] has degree p1[i] - p0[j], d1[i][j] degree p0[i] + c - p1[j]
        checks = (("d0", self.d0, self.p1, self.p0, ctx.zero()), ("d1", self.d1, self.p0, self.p1, ctx.deg_c))
        for name, d, rows, cols, lift in checks:
            for i, row in enumerate(rows):
                for j, col in enumerate(cols):
                    cls = _class_key(ctx, d[i][j])
                    if cls is not None and cls != (row + lift - col).key():
                        raise MFError(
                            f"{name}[{i}][{j}] = {d[i][j].format()} is not "
                            "homogeneous of the degree forced by its slots"
                        )

    def same_data(self, other):
        return (
            self.ctx == other.ctx
            and self.w == other.w
            and self.p0 == other.p0
            and self.p1 == other.p1
            and self.d0 == other.d0
            and self.d1 == other.d1
        )

    def __repr__(self):
        return (
            f"MatrixFactorization(W={self.w.format()}, "
            f"ranks=({self.rank0},{self.rank1}))"
        )


# ------------------------------------------------------------ constructors


def mf_from_pair(ctx, w, a, b, shift=None):
    """Rank-one factorization W = a * b, with optional base shift."""
    if a * b != w:
        raise MFError("a*b does not equal the potential")
    s = _as_element(ctx, shift) if shift is not None else ctx.zero()
    da = poly_class(ctx, a)
    if da is None:
        raise MFError("the first factor must be nonzero")
    return MatrixFactorization(ctx, w, [s], [s + da], [[a]], [[b]])


def koszul_mf(p, ctx, gamma_choice=None):
    """Koszul-type stabilization of the residue field.

    The differential is contraction with the Euler vector field plus
    wedging with a one-form gamma satisfying sum gamma_i x_i = W.
    gamma_choice maps monomials of W (exponent tuples) to the index of a
    variable actually present in that monomial; unassigned monomials go to
    their lowest-index variable.  The slot labels lie in `ctx`, p.ctx or a
    grading of p's potential by a group (m_grading).
    """
    w = p.poly
    n = p.nvars
    choice = dict(gamma_choice) if gamma_choice else {}
    for exps in choice:
        if tuple(exps) not in w.terms:
            raise MFError(f"gamma choice mentions a monomial not in W: {exps}")
    gamma = [Poly.zero(n) for _ in range(n)]
    for exps, coeff in sorted(w.terms.items()):
        i = choice.get(tuple(exps))
        if i is None:
            i = next(k for k, e in enumerate(exps) if e > 0)
        elif not (0 <= i < n) or exps[i] == 0:
            raise MFError(
                f"gamma choice assigns monomial {exps} to variable {i}, "
                "which does not divide it"
            )
        reduced = list(exps)
        reduced[i] -= 1
        gamma[i] = gamma[i] + Poly.monomial(n, tuple(reduced), coeff)

    subsets = []
    for mask in range(1 << n):
        subsets.append(tuple(i for i in range(n) if mask >> i & 1))
    subsets.sort(key=lambda s: (len(s), s))
    evens = [s for s in subsets if len(s) % 2 == 0]
    odds = [s for s in subsets if len(s) % 2 == 1]
    even_index = {s: i for i, s in enumerate(evens)}
    odd_index = {s: i for i, s in enumerate(odds)}

    def label(subset):
        out = (len(subset) // 2) * ctx.deg_c
        for i in subset:
            out = out - ctx.deg_x[i]
        return out

    p1_labels = [label(s) for s in evens]
    p0_labels = [label(s) for s in odds]

    def apply_differential(rows, row_index, source):
        col = {}
        for pos, i in enumerate(source):
            target = tuple(t for t in source if t != i)
            sign = -1 if pos % 2 else 1
            entry = Poly.variable(n, i) * sign
            r = row_index[target]
            col[r] = col.get(r, Poly.zero(n)) + entry
        for i in range(n):
            if i in source:
                continue
            below = sum(1 for t in source if t < i)
            sign = -1 if below % 2 else 1
            target = tuple(sorted(source + (i,)))
            r = row_index[target]
            col[r] = col.get(r, Poly.zero(n)) + gamma[i] * sign
        return col

    d0 = [[Poly.zero(n) for _ in odds] for _ in evens]
    for j, s in enumerate(odds):
        for r, entry in apply_differential(evens, even_index, s).items():
            d0[r][j] = entry
    d1 = [[Poly.zero(n) for _ in evens] for _ in odds]
    for j, s in enumerate(evens):
        for r, entry in apply_differential(odds, odd_index, s).items():
            d1[r][j] = entry

    return MatrixFactorization(ctx, w, p0_labels, p1_labels, d0, d1)


def shift_mf(k, a):
    """Twist by a group element: all slot labels move by a."""
    a = _as_element(k.ctx, a)
    return MatrixFactorization(
        k.ctx,
        k.w,
        [l + a for l in k.p0],
        [l + a for l in k.p1],
        k.d0,
        k.d1,
        check=False,
    )


def translate_mf(k):
    """Shift [1] of the 2-periodic complex; translate twice = twist by c."""
    c = k.ctx.deg_c
    return MatrixFactorization(
        k.ctx,
        k.w,
        list(k.p1),
        [l + c for l in k.p0],
        [tuple(-e for e in row) for row in k.d1],
        [tuple(-e for e in row) for row in k.d0],
        check=False,
    )


def _lift_poly(p, nvars, offset):
    terms = {}
    for exps, coeff in p.terms.items():
        e = [0] * nvars
        for i, x in enumerate(exps):
            e[offset + i] = x
        terms[tuple(e)] = coeff
    return Poly(nvars, terms)


def _block_slots(blocks, rows, cols):
    """Slots (a, b, i, j) of a layout of Z/2-graded blocks, in order: block
    by block, then i in range(rows[a]), then j in range(cols[b])."""
    return [(a, b, i, j) for a, b in blocks for i in range(rows[a]) for j in range(cols[b])]


def tensor_mf(k1, k2, maps):
    """Tensor product over disjoint variable sets, with Koszul signs.

    The combined potential is W1 + W2; the grading is the pushout of the
    two factor gradings, given as the (context, embed1, embed2) triple of
    grading.sum_grading_maps, so that several tensors share one grading
    context instance.
    """
    ctx, emb1, emb2 = maps
    n1 = len(k1.ctx.deg_x)
    n2 = len(k2.ctx.deg_x)
    nv = n1 + n2

    def l1(p):
        return _lift_poly(p, nv, 0)

    def l2(p):
        return _lift_poly(p, nv, n1)

    w = l1(k1.w) + l2(k2.w)
    c = ctx.deg_c
    labels1, labels2 = (k1.p0, k1.p1), (k2.p0, k2.p1)
    diff1, diff2 = (k1.d0, k1.d1), (k2.d0, k2.d1)
    # slot (a, b, i, j) is slot i of k1's parity-a part times slot j of k2's
    # parity-b part; P0 holds the blocks (0, 0), (1, 1) and P1 holds (0, 1), (1, 0)
    slots = [
        _block_slots(blocks, (k1.rank0, k1.rank1), (k2.rank0, k2.rank1))
        for blocks in (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    ]
    pos = {s: n for part in slots for n, s in enumerate(part)}

    def label(a, b, i, j):
        l = emb1(labels1[a][i]) + emb2(labels2[b][j])
        return l - c if a & b else l  # the (1, 1) block sits in P0, one c lower

    p0, p1 = ([label(*s) for s in part] for part in slots)
    zero = Poly.zero(nv)
    d = ([[zero for _ in p0] for _ in p1], [[zero for _ in p1] for _ in p0])
    # d = d_1 (x) 1 + (-1)^a 1 (x) d_2 on the block (a, b)
    for (a, b, i, j), col in pos.items():
        out = d[(a + b) % 2]
        for i2, row in enumerate(diff1[a]):
            if row[i]:
                out[pos[(1 - a, b, i2, j)]][col] = l1(row[i])
        for j2, row in enumerate(diff2[b]):
            if row[j]:
                out[pos[(a, 1 - b, i, j2)]][col] = -l2(row[j]) if a else l2(row[j])
    return MatrixFactorization(ctx, w, p0, p1, *d)


# ------------------------------------------------------ generator collections


def _check_objects(count):
    """Refuse a collection, or E, of more than MAX_OBJECTS objects."""
    if count > MAX_OBJECTS:
        raise ResourceLimitError(f"collection has {count} objects, above the limit {MAX_OBJECTS}")


class CollectionPlan:
    """A collection named but not built: its labels, build() of its (label,
    object) pairs and the field of its hom dimensions (see
    matfac.collection_plan and quotient_graded_collection)."""

    __slots__ = ("labels", "build", "field")

    def __init__(self, labels, build, field):
        self.labels, self.build, self.field = labels, build, field


def quotient_graded_collection(matrix, group):
    """Generator collection of a two-variable model in a quotient grading,
    named by a CollectionPlan, and the quiver it predicts.

    The intrinsic route refuses the orientation W = x^(n-1) + x*y^2; this
    route grades it by the characters of an explicit symmetry group (a
    symmetry.DiagonalGroup) instead.  The D_n quiver is predicted only for
    the group generated by J (symmetry.j_element); for any other group no
    A side is known, and MFError is raised.  For even n, with m = (n-2)/2,
    the cofactor splits over the Gaussian integers as
    x^(n-2) + y^2 = (x^m + i*y)(x^m - i*y), and the collection is made of
    rank-one objects only, in vertex order: R/(x^m+i*y), R/(x^m-i*y), then
    for s = 0..m-1 the pair R/(x)(-1-s) and R/(x^(n-2)+y^2)(-n/2-s) (J acts
    on x^m and y by one character, so the cuts are homogeneous).  Its hom
    dimensions are over Q(i).  For odd n the cofactor is irreducible even
    over C; no collection is known to be sound there, so the route keeps the
    two rank-one cuts plus translated residue-field objects over Q, an
    honest mismatch.  The n labels and the field follow from n alone, so n
    meets MAX_OBJECTS before any grading; the grading (m_grading) and the
    objects, which carry no coordinates, are made only by the plan's build().
    """
    n = len(matrix)
    # polyforms.build rather than a copy imported here: the benchmark's
    # tracer rebinds the name in polyforms and counts this call there
    p = polyforms.build(matrix)
    if len(p.atoms) != 1 or p.atoms[0].kind != "D" or n != 2:
        raise MFError(
            "matrix-mode verification supports a single two-variable model "
            "of the form x^(n-1) + x*y^2"
        )
    rank = p.atoms[0].param
    _check_objects(rank)
    lphi, ell = j_element(matrix)
    if group != DiagonalGroup(n, [lphi], ell):
        raise MFError(
            f"no A side is known for the group given (order {group.order}): matrix-mode "
            f"verification predicts a D quiver only for the group generated by J = {format_element((lphi, ell))}"
        )
    x = Poly.variable(2, 0)
    cof = Poly.monomial(2, (rank - 2, 0)) + Poly.monomial(2, (0, 2))

    def label(f):
        return f"R/({f.format().replace(' ', '')})"

    # (label, a, b, twist): the rank-one object R/(a) of W = a*b, or with a
    # None the translated residue-field object, twisted by twist
    even = rank % 2 == 0
    if even:
        xm, iy = Poly.variable(2, 0, (rank - 2) // 2), I * Poly.variable(2, 1)
        entries = [(label(f), f, x * g, 0) for f, g in ((xm + iy, xm - iy), (xm - iy, xm + iy))]
        for s in range((rank - 2) // 2):
            a, b = -1 - s, -(rank // 2) - s
            entries += [(f"{label(x)}({a})", x, cof, a), (f"{label(cof)}({b})", cof, x, b)]
    else:
        entries = [(label(x), x, cof, 0), (label(cof), cof, x, 0)]
        entries += [(f"R/m({-t})", None, None, -t) for t in range(rank - 2)]

    def objects():
        ctx = m_grading(matrix, group)
        stab = None if even else translate_mf(koszul_mf(p, ctx))
        out = []
        for name, a, b, t in entries:
            twist = ctx.element(t)
            out.append((name, shift_mf(stab, twist) if a is None else mf_from_pair(ctx, p.poly, a, b, twist)))
        return out

    plan = CollectionPlan([name for name, *_ in entries], objects, "Q(i)" if even else "Q")
    return plan, dynkin_quiver(f"D{rank}")


# ------------------------------------------------------------- serialization


def element_to_json(e):
    if not e.tors and len(e.free) == 1:
        return e.free[0]
    return {"free": list(e.free), "tors": list(e.tors)}


def mf_to_json(k):
    return {
        "w": k.w.format(),
        "p0": [element_to_json(l) for l in k.p0],
        "p1": [element_to_json(l) for l in k.p1],
        "d0": [[e.format() for e in row] for row in k.d0],
        "d1": [[e.format() for e in row] for row in k.d1],
    }
