"""Graded matrix factorizations with exact hom-space dimensions.

A matrix factorization of W is a pair of graded free modules P0, P1 with
maps d0: P0 -> P1 and d1: P1 -> P0(c) whose composites are W times the
identity.  Module gradings are tracked as one label per basis slot; a map
between slots labeled a and b must be homogeneous of degree b - a.  All
dimension counts come from exact integer linear algebra on the finite
degree-zero pieces of the 2-periodic hom complexes.  Dimensions are over Q,
or over Q(i) when either object has a Gaussian-integer entry: the boundary
map is then written over Q in the basis {e, i*e} and its rank halved.

Polynomial coefficients lie in Z[i] (an int, or a GaussInt when non-real;
see Poly), so the boundary matrices of the factorizations over Q are
assembled on plain ints and go to the rank kernel as they are.  Twisting is
an autoequivalence, so a hom cell depends only on the two objects'
differentials, their slot labels relative to their first label and the
relative shift; each grading context instance keeps one memo keyed on that
(see _HomMemo), which twisted copies of an object share.

The hom layer works on int codes of degrees and does its work once per
context, pair of forms or cell, not once per matrix entry (see _HomMemo):
slot degrees and a plan per pair of forms and parity, slot degree codes and
offsets per cell, multiplication maps per degree and exponent.  A plan lists
per source slot the (target slot, exponent, signed coefficient) of each term
of the differential, so that assembly only walks it and each step fills a
block of columns.

A boundary is ranked only on the coordinates that the boundary into its cell
leaves free.  The differential d(f) = d_H f - (-1)^|f| f d_K squares to
W f - f W = 0, so the boundary out of a cell X vanishes on the image of the
boundary into X.  The elimination that ranks the boundary into X finds pivot
rows P, coordinates of X on which that image projects one to one; so X is
the image plus the span of the coordinates outside P, and the boundary out
of X has the same rank on those coordinates alone.  The result is exact
either way; hom_dim ranks the boundary into a cell first.  The columns of
the boundary out on P are not assembled at all (_boundary_columns leaves
them empty, keeping every column's position).  Over Q(i) source column s is
realified as the columns 2s and 2s + 1, and it is left empty only when both
are in P.

A sum that repeats an atom has each hom space once per orbit of its pairs.
Exchanging two identical summands permutes the variables, preserves W and
the grading and fixes c; the tensor product of matrix factorizations is
symmetric up to the Koszul-sign swap (Y. Yoshino, "Tensor products of
matrix factorizations", Nagoya Math. J. 152, 1998).  So for a permutation
sigma of identical atoms, hom_dim(sigma a, sigma b, k) = hom_dim(a, b, k),
where sigma a is the object whose per-atom indices are those of a permuted.
generator_E and generator_collection record those indices on each object
(`coords`), and ext_table and one_period_end_total compute one pair per
orbit (see _orbit_key); objects without coordinates are computed pair by
pair.

The audit in MatrixFactorization.validate (d1*d0 = d0*d1 = W*Id, every entry
homogeneous of the degree its slots force) sums product entries as term dicts
{exps: coeff} and compares (free, tors) degree keys cached per context
(GradingContext.degree_key).  It reads slot labels only through their
differences, so shift_mf and translate_mf skip it; the objects of a
collection are twists of forms built, and audited, once (see _sum_objects).
"""

from array import array
from itertools import accumulate, compress, product
from math import prod
from operator import add, mul

from .exactmat import I, Poly, int_rank
from .exactmat import integer_columns as _int_columns  # traced by perfbench as "intcols"
from .grading import (
    LElement, grading_group, lbar_representatives, m_grading, sum_grading_maps,
)
from .polyforms import build
from .quivercat import dynkin_quiver
from .symmetry import DiagonalGroup, format_element, format_group, j_element


class MFError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    pass


# The largest hom cell, in monomial-basis dimension, that is laid out (see
# _cell_offsets); a larger one raises ResourceLimitError before it is
# assembled or ranked.  The smallest power of two above the largest cell of
# any model measured to completion (162,048 in D4t+D4t+D4t).
MAX_CELL_DIM = 1 << 18

# The largest number of objects of a collection or of generator_E (see
# _sum_objects); a larger product of the atoms' sizes raises
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
        return ctx.element(a, (0,) * len(ctx.torsion))
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
    generator_E or generator_collection built: the source ("E" or
    "collection"), the atom names of the sum in order and the object's
    per-atom indices (see _orbit_key).  Derived objects do not inherit it.
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
        return True

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


def residue_mf_D(n, ctx=None):
    """Stabilization of the residue field for x^(n-1) y + y^2.

    The 2x2 matrix with rows (-y, x^(n-2) y) and (x, y) squares to W; the
    slot labels follow the twists of the 2-periodic resolution:
    (-1, -n+1) against (-n, -2n+2).
    """
    if n < 3:
        raise MFError("the two-variable family needs n >= 3")
    if ctx is None:
        ctx = grading_group([[n - 1, 1], [0, 2]])
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    w = Poly.monomial(2, (n - 1, 1)) + Poly.monomial(2, (0, 2))
    m = [[-y, Poly.monomial(2, (n - 2, 1))], [x, y]]
    p1 = [ctx.element(-1), ctx.element(-n + 1)]
    p0 = [ctx.element(-n), ctx.element(-2 * n + 2)]
    return MatrixFactorization(ctx, w, p0, p1, m, m)


def koszul_mf(p, gamma_choice=None, ctx=None):
    """Koszul-type stabilization of the residue field.

    The differential is contraction with the Euler vector field plus
    wedging with a one-form gamma satisfying sum gamma_i x_i = W.
    gamma_choice maps monomials of W (exponent tuples) to the index of a
    variable actually present in that monomial; unassigned monomials go to
    their lowest-index variable.
    """
    if ctx is None:
        ctx = p.ctx
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


def tensor_mf(k1, k2, maps=None):
    """Tensor product over disjoint variable sets, with Koszul signs.

    The combined potential is W1 + W2; the grading is the pushout of the
    two factor gradings.  `maps` can carry a precomputed
    (context, embed1, embed2) triple so that several tensors share one
    grading context instance.
    """
    if maps is None:
        maps = sum_grading_maps(k1.ctx, k2.ctx)
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
            if not row[i].is_zero():
                out[pos[(1 - a, b, i2, j)]][col] = l1(row[i])
        for j2, row in enumerate(diff2[b]):
            if not row[j].is_zero():
                out[pos[(a, 1 - b, i, j2)]][col] = -l2(row[j]) if a else l2(row[j])
    return MatrixFactorization(ctx, w, p0, p1, *d)


# ----------------------------------------------------------- hom complexes


class _HomMemo:
    """Hom-layer caches of one grading context instance.

    Degrees are int codes.  With free rank one and torsion moduli
    m_1, ..., m_t, the element (f; t_1, ..., t_t) has code f*T + sum t_r*R_r,
    where T = m_1*...*m_t and R_r = m_1*...*m_(r-1).  A code is a valid key
    but not additive once there is torsion, so `add` and `scale` work digit
    by digit.

    `forms` interns an object's (d0, d1, slot labels minus its first label)
    as a small int id; `labels[id]` holds the codes of those labels.  A cell
    of Hom(k, h) has the key (form(k), form(h), shift, parity), parity 0
    (even) or 1 (odd) and shift the code of h's first label - k's first
    label + q*c, cached in `shifts` per (that base, q).  Per (form(k),
    form(h), parity), `slots` holds the id of the cell's relative slot
    degrees (see _slot_degrees), a tuple in `rels` interned by `rel_ids`,
    and `plans` the plan of its boundary (see _plan).
    `cells[(rel id, shift)]` holds the slot degree codes shift + rel and the
    slot offsets in the monomial basis (the last is the dimension).  `ranks`
    maps a cell key to the rank of its boundary: equal keys give literally
    the same matrix.  `pivots` maps a cell key to the pivot rows of the
    boundary into that cell until the boundary out of it is ranked (see the
    module docstring).  `maps[(delta, e)]` holds, for each monomial m of
    degree delta, the position of m*x^e among the monomials of degree
    delta + deg(x^e).  But for the keys of `forms`, the memo holds only
    ints, exponent tuples and Z[i] coefficients, so no reference cycle.
    Ids are only comparable within one memo, so both objects of a pair are
    interned in the memo of k's context.
    """

    __slots__ = (
        "T", "radix", "weights", "tors_x", "c",
        "forms", "labels", "rels", "rel_ids", "slots", "plans", "cells", "shifts", "ranks", "pivots", "maps",
    )

    def __init__(self, ctx):
        self.T = 1
        self.radix = []  # (R_r, m_r)
        for m in ctx.torsion:
            self.radix.append((self.T, m))
            self.T *= m
        self.weights = tuple(d.free[0] for d in ctx.deg_x)
        # per torsion coordinate: the variables' degrees in it, m_r and R_r
        self.tors_x = [(tuple(d.tors[i] for d in ctx.deg_x), m, r) for i, (r, m) in enumerate(self.radix)]
        self.c = self.code(ctx.deg_c)
        self.forms = {}
        self.labels = []
        self.rels = []
        self.rel_ids = {}
        self.slots = {}
        self.plans = {}
        self.cells = {}
        self.shifts = {}
        self.ranks = {}
        self.pivots = {}
        self.maps = {}

    def code(self, e):
        return e.free[0] * self.T + sum(t * r for t, (r, _) in zip(e.tors, self.radix))

    def add(self, a, b, sign=1):
        """Code of a + sign*b."""
        fa, ta = divmod(a, self.T)
        fb, tb = divmod(b, self.T)
        t = 0
        for r, m in self.radix:
            # ta // r is digit r of ta plus a multiple of m
            t += (ta // r + sign * (tb // r)) % m * r
        return (fa + sign * fb) * self.T + t

    def scale(self, q, a):
        """Code of q*a."""
        f, ta = divmod(a, self.T)
        return q * f * self.T + sum(q * (ta // r) % m * r for r, m in self.radix)

    def torsion_index(self, exps):
        """Torsion part of the code of deg(x^exps)."""
        return sum(sum(map(mul, col, exps)) % m * r for col, m, r in self.tors_x)


def _hom_memo(ctx):
    memo = ctx.__dict__.get("_hom_memo")
    if memo is None:
        memo = ctx._hom_memo = _HomMemo(ctx)
    return memo


def monomials_of_degree(ctx, delta):
    """All exponent tuples whose monomial has the given L-degree.

    `delta` is an LElement or its int code (see _HomMemo); the cache on the
    context is keyed by the code.  One enumeration fills it for every
    torsion class of the free degree.
    """
    cache = ctx.__dict__.get("_mono_cache")
    if cache is None:
        cache = ctx._mono_cache = {}
    if not isinstance(delta, int):
        delta = _hom_memo(ctx).code(delta)
    hit = cache.get(delta)
    if hit is not None:
        return hit
    memo = _hom_memo(ctx)
    weights = memo.weights
    if any(w <= 0 for w in weights):
        raise MFError("unsupported grading: variable degrees must be positive")
    target = delta // memo.T
    classes = [[] for _ in range(memo.T)]
    if target >= 0 and weights:
        # lexicographic prefixes with the free degree they leave, which
        # forces the last exponent
        heads = [((), target)]
        for w in weights[:-1]:
            heads = [(p + (e,), r - e * w) for p, r in heads for e in range(r // w + 1)]
        for p, r in heads:
            e, rest = divmod(r, weights[-1])
            if not rest:
                exps = p + (e,)
                classes[memo.torsion_index(exps)].append(exps)
    elif target == 0:
        classes[0].append(())
    cache.update(enumerate(map(tuple, classes), target * memo.T))
    return cache[delta]


def _hom_precheck(k, h):
    if k.ctx is not h.ctx and k.ctx != h.ctx:
        raise MFError("matrix factorizations live over different gradings")
    if k.w is not h.w and k.w != h.w:
        raise MFError("matrix factorizations are over different potentials")
    ctx = k.ctx
    if ctx.free_rank != 1:
        raise MFError("unsupported grading: free rank must be one")
    if any(d.free[0] <= 0 for d in ctx.deg_x) or ctx.deg_c.free[0] <= 0:
        raise MFError("unsupported grading: variable degrees must be positive")


def _content(m):
    """((d0, d1, p0 - base, p1 - base), base), base the first slot label of m."""
    labels = m.p0 + m.p1
    base = labels[0] if labels else m.ctx.zero()
    return (m.d0, m.d1, tuple(l - base for l in m.p0), tuple(l - base for l in m.p1)), base


def _form(m, memo):
    """(form id of m in memo, code of the first slot label of m)."""
    hit = m._form
    if hit is None or hit[0] is not memo:
        content, base = _content(m)
        fid = memo.forms.get(content)
        if fid is None:
            fid = memo.forms[content] = len(memo.labels)
            memo.labels.append((tuple(map(memo.code, content[2])), tuple(map(memo.code, content[3]))))
        hit = m._form = (memo, fid, memo.code(base))
    return hit[1], hit[2]


def _cell_base(k, h):
    """(memo of k's context, form(k), form(h), code of h's first label -
    k's first label); see _HomMemo for the cell keys."""
    memo = _hom_memo(k.ctx)
    fk, bk = _form(k, memo)
    fh, bh = _form(h, memo)
    return memo, fk, fh, memo.add(bh, bk, -1)


def _cell_key(cell, q, parity):
    memo, fk, fh, base = cell
    shift = memo.shifts.get((base, q))
    if shift is None:
        shift = memo.shifts[(base, q)] = memo.add(base, memo.scale(q, memo.c))
    return fk, fh, shift, parity


# The blocks of a cell of Hom(k, h), in slot order: block (a, b) is
# Hom(K_b, H_a), of parity a + b; the odd block (0, 1) is one c higher.
_BLOCKS = (((0, 0), (1, 1)), ((1, 0), (0, 1)))


def _slot_degrees(memo, fk, fh, parity):
    """Id, in memo.rels, of the relative degrees of the slots of a cell of
    Hom(k, h), in slot order (see _block_slots): slot (a, b, i, j) of the
    block (a, b) has degree h.p_a[i] - k.p_b[j], plus c in the block (0, 1)."""
    rid = memo.slots.get((fk, fh, parity))
    if rid is None:
        k, h = memo.labels[fk], memo.labels[fh]
        add = memo.add
        slots = _block_slots(_BLOCKS[parity], tuple(map(len, h)), tuple(map(len, k)))
        rel = tuple(add(add(h[a][i], memo.c) if (a, b) == (0, 1) else h[a][i], k[b][j], -1) for a, b, i, j in slots)
        rid = memo.slots[(fk, fh, parity)] = memo.rel_ids.setdefault(rel, len(memo.rels))
        if rid == len(memo.rels):
            memo.rels.append(rel)
    return rid


def _cell_offsets(ctx, memo, key):
    """(codes, offsets) of the cell `key`: each slot's degree code, added and
    counted once per distinct relative degree, and the slots' offsets in the
    monomial basis (the last is the dimension).  A cell larger than
    MAX_CELL_DIM raises ResourceLimitError and is not kept."""
    fk, fh, shift, parity = key
    rid = _slot_degrees(memo, fk, fh, parity)
    hit = memo.cells.get((rid, shift))
    if hit is None:
        rels = memo.rels[rid]
        code = {rel: memo.add(shift, rel) for rel in set(rels)}
        size = {c: len(monomials_of_degree(ctx, c)) for c in code.values()}
        codes = tuple(map(code.get, rels))
        offsets = (0, *accumulate(map(size.get, codes)))
        if offsets[-1] > MAX_CELL_DIM:
            raise ResourceLimitError(f"hom cell has dimension {offsets[-1]}, above the limit {MAX_CELL_DIM}")
        hit = memo.cells[(rid, shift)] = codes, offsets
    return hit


def _mult_map(ctx, memo, delta, e):
    """Compute and keep memo.maps[(delta, e)] (see _HomMemo)."""
    deg_e = sum(map(mul, memo.weights, e)) * memo.T + memo.torsion_index(e)
    dst = monomials_of_degree(ctx, memo.add(delta, deg_e))
    index = {m: a for a, m in enumerate(dst)}
    pos = memo.maps[(delta, e)] = tuple(index[tuple(map(add, m, e))] for m in monomials_of_degree(ctx, delta))
    return pos


def _plan(memo, k, h, key):
    """Plan of the boundary out of the cell `key` of Hom(k, h): per source
    slot, the (target slot, exps, coefficient) of each term of
    d(f) = d_H f - (-1)^|f| f d_K; kept per (form(k), form(h), parity)."""
    fk, fh, _, parity = key
    plan = memo.plans.get((fk, fh, parity))
    if plan is None:
        kr, hr = (k.rank0, k.rank1), (h.rank0, h.rank1)
        kd, hd = (k.d0, k.d1), (h.d0, h.d1)
        # the target cell's first block and its slot count
        first = _BLOCKS[1 - parity][0]
        first_len = hr[first[0]] * kr[first[1]]
        sign = 1 if parity else -1
        plan = []
        for a, b, i, j in _block_slots(_BLOCKS[parity], hr, kr):
            # d_H f fills the slots (i2, j) of block (1 - a, b), f d_K the
            # slots (i, j2) of block (a, 1 - b); with b = 1 f d_K comes first
            at = (0 if (1 - a, b) == first else first_len) + j
            d_h = [(at + i2 * kr[b], hd[a][i2][i], 1) for i2 in range(hr[1 - a])]
            at = (0 if (a, 1 - b) == first else first_len) + i * kr[1 - b]
            f_d = [(at + j2, kd[1 - b][j][j2], sign) for j2 in range(kr[1 - b])]
            terms = f_d + d_h if b else d_h + f_d
            plan.append(tuple((t, e, sg * c) for t, poly, sg in terms for e, c in poly.terms.items()))
        plan = memo.plans[(fk, fh, parity)] = tuple(plan)
    return plan


def _boundary_columns(k, h, memo, key, target, skip):
    """Columns of the hom-complex differential out of the cell `key` of
    Hom(k, h) into the cell `target`, in the monomial bases.

    The even cell at twist q maps to the odd cell at twist q, the odd cell
    at twist q to the even cell at twist q + 1.  Column order is slot
    order, then monomial order within a slot; one step of the plan (see
    _plan) fills one block of columns.  The columns whose positions are in
    `skip` are left empty.
    """
    ctx = k.ctx
    codes, src_off = _cell_offsets(ctx, memo, key)
    dst_off = _cell_offsets(ctx, memo, target)[1]
    # keep[c] is 0 for a column that is left empty
    keep = bytearray(b"\x01") * src_off[-1]
    for c in skip:
        keep[c] = 0
    cols = []
    maps = memo.maps
    for s, steps in enumerate(_plan(memo, k, h, key)):
        sel = keep[src_off[s] : src_off[s + 1]]
        block = [{} for _ in sel]
        cols.extend(block)
        if not steps or 1 not in sel:
            continue
        live = list(compress(block, sel))
        delta = codes[s]
        # the rows of one column never collide: distinct (slot, e)
        for t, e, v in steps:
            base = dst_off[t]
            pos = maps.get((delta, e))
            if pos is None:
                pos = _mult_map(ctx, memo, delta, e)
            for col, p in zip(live, compress(pos, sel)):
                col[base + p] = v
    return cols


def _boundary_rank(k, h, memo, key, target):
    """Rank of the boundary out of the cell `key` of Hom(k, h) into the
    cell `target`."""
    rank = memo.ranks.get(key)
    if rank is not None:
        return rank
    src = _cell_offsets(k.ctx, memo, key)[1][-1]
    dst = _cell_offsets(k.ctx, memo, target)[1][-1]
    # the boundary out of this cell is ranked on the rows other than the
    # pivot rows of the boundary into it (see the module docstring)
    drop = set(memo.pivots.pop(key, ()))
    rank = 0
    if src and dst:
        gauss = k.field != "Q" or h.field != "Q"
        # source column s is integer column s, or 2s and 2s + 1 over Q(i);
        # it is not assembled when all of those are dropped
        skip = {c >> 1 for c in drop if c ^ 1 in drop} if gauss else drop
        cols = _boundary_columns(k, h, memo, key, target, skip)
        if gauss:
            cols = _int_columns(cols)
        piv = []
        rank = int_rank([c for s, c in enumerate(cols) if s not in drop], piv)
        if target not in memo.ranks:
            # an array, not a set (8 bytes a row instead of about 60): the
            # last boundary of each walk up the shifts leaves its rows unread
            memo.pivots[target] = array("l", piv)
        if gauss:
            rank //= 2
    memo.ranks[key] = rank
    return rank


def hom_dim(k, h, shift):
    """Dimension of the stable hom space from k to h translated `shift` times.

    The degree-zero piece of the hom complex is finite-dimensional and is
    computed exactly.
    """
    _hom_precheck(k, h)
    cell = _cell_base(k, h)
    memo = cell[0]
    q, p = divmod(shift, 2)
    # the cell, less the boundaries into it (from odd at q - 1, or even at
    # q) and out of it (into odd at q, or even at q + 1); the boundary in is
    # ranked first, so that the boundary out can use its pivot rows
    key = _cell_key(cell, q, p)
    into, out = _cell_key(cell, q - 1 + p, 1 - p), _cell_key(cell, q + p, 1 - p)
    dim = (
        _cell_offsets(k.ctx, memo, key)[1][-1]
        - _boundary_rank(k, h, memo, into, key)
        - _boundary_rank(k, h, memo, key, out)
    )
    if dim < 0:
        raise MFError("internal error: negative cohomology dimension")
    return dim


# --------------------------------------------------------------- Ext tables


class ExtTable:
    """Hom dimensions between labelled objects over a shift window."""

    __slots__ = ("objects", "window", "dims")

    def __init__(self, objects, window, dims):
        self.objects = objects
        self.window = window  # (k_min, k_max)
        self.dims = dims  # (i, j, k) -> positive int

    def entries(self):
        return sorted((i, j, k, d) for (i, j, k), d in self.dims.items())


def _normalize_window(window):
    if isinstance(window, int):
        if window < 0:
            raise MFError("window must be non-negative")
        return (-window, window)
    lo, hi = window
    if lo > hi:
        raise MFError("empty shift window")
    return (int(lo), int(hi))


def _orbit_key(objects):
    """Orbit key of the pairs of `objects` under the permutations of
    identical atoms.

    The key of the positions (i, j) lists, position by position, the index
    pairs (c_i[p], c_j[p]) of the objects' coordinates c, sorted among the
    positions of each atom name: the least image of the pair (c_i, c_j)
    under a permutation of identical atoms.  Two pairs have the same key
    exactly when such a permutation maps one onto the other, and then their
    hom spaces have the same dimensions (see the module docstring).  When
    an object carries no coordinates, or two objects' coordinates name
    different constructions or sums, the key is the pair of positions: each
    pair is its own orbit.
    """
    first = objects[0].coords if objects else None
    if first is None or any(m.coords is None or m.coords[:2] != first[:2] for m in objects):
        return lambda i, j: (i, j)
    kinds = first[1]
    blocks = [at for at in ([p for p, k in enumerate(kinds) if k == kind] for kind in set(kinds)) if len(at) > 1]
    coords = [m.coords[2] for m in objects]

    def key(i, j):
        cols = list(zip(coords[i], coords[j]))
        for at in blocks:
            for p, col in zip(at, sorted([cols[p] for p in at])):
                cols[p] = col
        return tuple(cols)

    return key


def ext_table(collection, window):
    """Full hom-dimension table of a collection over a shift window.

    `collection` is a list of (label, MatrixFactorization) pairs.  When
    every object carries coordinates of one sum (generator_collection
    records them), hom_dim runs for one pair (i, j) per orbit under the
    permutations of identical atoms and the rest of the orbit is filled from
    it, at the caller's positions; otherwise, as for matrix-mode and
    hand-built collections, it runs for every pair.
    """
    lo, hi = _normalize_window(window)
    labels = tuple(str(label) for label, _ in collection)
    objects = [mf for _, mf in collection]
    for mf in objects[1:]:
        if mf.ctx != objects[0].ctx or mf.w != objects[0].w:
            raise MFError("collection objects disagree on potential or grading")

    orbit = _orbit_key(objects)
    shifts = range(lo, hi + 1)
    done = {}
    dims = {}
    for i, a in enumerate(objects):
        for j, b in enumerate(objects):
            key = orbit(i, j)
            row = done.get(key)
            if row is None:
                row = done[key] = [hom_dim(a, b, k) for k in shifts]
            for k, d in zip(shifts, row):
                if d:
                    dims[(i, j, k)] = d
    return ExtTable(labels, (lo, hi), dims)


# ------------------------------------------------------ generator collections


def _atom_stab(atom):
    model = build(atom.template())
    if atom.kind == "A":
        x = Poly.variable(1, 0)
        return mf_from_pair(
            model.ctx, model.poly, x, Poly.monomial(1, (atom.param,))
        )
    if atom.kind == "Dt":
        return residue_mf_D(atom.param, ctx=model.ctx)
    raise MFError(
        "stabilizations are implemented for the transposed orientation of "
        "two-variable models; transpose the polynomial first"
    )


def atom_collection(atom):
    """Generator collection of one atom, in vertex order, unbuilt: (label,
    form index, integer twist) triples, and a function that builds the
    forms.  Object n is its form twisted by its twist."""
    if atom.kind == "A":
        return [(f"R/m({-i})", 0, -i) for i in range(atom.param)], lambda: [_atom_stab(atom)]
    if atom.kind == "Dt":
        n = atom.param
        y = Poly.variable(2, 1)
        cofactor = Poly.monomial(2, (n - 1, 0)) + y

        def forms():
            model = build(atom.template())
            # The translate aligns the residue-field objects with the parity
            # of the rank-one objects, so that hom spaces between them sit in
            # the translation degree where the quiver expects its arrows.
            return [
                mf_from_pair(model.ctx, model.poly, y, cofactor),
                mf_from_pair(model.ctx, model.poly, cofactor, y),
                translate_mf(residue_mf_D(n, ctx=model.ctx)),
            ]

        entries = [("R/(y)", 0, 0), (f"R/({cofactor.format().replace(' ', '')})", 1, 0)]
        return entries + [(f"R/m({-t})", 2, -t) for t in range(n - 2)], forms
    raise MFError(
        "generator collections are implemented for the transposed "
        "orientation of two-variable models; transpose the polynomial first"
    )


def _check_objects(count):
    """Refuse a collection, or E, of more than MAX_OBJECTS objects."""
    if count > MAX_OBJECTS:
        raise ResourceLimitError(f"collection has {count} objects, above the limit {MAX_OBJECTS}")


def _sum_objects(p, source, factor):
    """Labels of the sum p in product order, last atom fastest, and a
    function that builds its (label, object) pairs: object t is the tensor
    of the twisted forms of factor(atom r)[t[r]] (shaped as atom_collection),
    with `coords` (source, atom names, t).  A tensor of twists is the twist
    of the tensor (the embeddings are additive), so each pair of forms is
    tensored once."""
    if not p.atoms:
        raise MFError("the zero polynomial has no generator collection")
    factors = [factor(atom) for atom in p.atoms]
    _check_objects(prod(len(entries) for entries, _ in factors))
    index = list(product(*(range(len(entries)) for entries, _ in factors)))
    labels = ["|".join(entries[n][0] for (entries, _), n in zip(factors, t)) for t in index]

    def objects():
        rows = []
        for entries, forms in factors:
            built = forms()
            rows.append([(built[k], _as_element(built[k].ctx, s)) for _, k, s in entries])
        objs = rows[0]
        for nxt in rows[1:]:
            maps = sum_grading_maps(objs[0][0].ctx, nxt[0][0].ctx)
            _, emb1, emb2 = maps
            pairs = dict.fromkeys((k1, k2) for k1, _ in objs for k2, _ in nxt)  # forms hash by identity
            tensors = {pair: tensor_mf(*pair, maps) for pair in pairs}
            objs = [(tensors[k1, k2], emb1(s1) + emb2(s2)) for k1, s1 in objs for k2, s2 in nxt]
        kinds = tuple(atom.name for atom in p.atoms)
        out = []
        for label, t, (form, s) in zip(labels, index, objs):
            mf = shift_mf(form, s)
            mf.coords = (source, kinds, t)
            out.append((label, mf))
        return out

    return labels, objects


class CollectionPlan:
    """A collection named but not built: its labels, the field of its hom
    dimensions and build() of its (label, object) pairs.  CollectionPlan(p)
    names generator_collection(p), over Q as atom forms have integer
    coefficients; quotient_graded_collection passes the three instead."""

    def __init__(self, p=None, labels=None, build=None, field="Q"):
        if p is not None:
            labels, build = _sum_objects(p, "collection", atom_collection)
        self.labels, self.build, self.field = labels, build, field


def generator_collection(p, plan=None):
    """Generator collection of a recognized polynomial; tensor for sums.

    Object t of the product, in order, is the tensor of object t[r] of the
    collection of atom r (see _sum_objects); its `coords` are ("collection",
    atom names, t).  `plan`, if the caller made one, is built; p is not read.
    """
    return (plan or CollectionPlan(p)).build()


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
    p = build(matrix)
    if len(p.atoms) != 1 or p.atoms[0].kind != "D" or n != 2:
        raise MFError(
            "matrix-mode verification supports a single two-variable model "
            "of the form x^(n-1) + x*y^2"
        )
    rank = p.atoms[0].param
    _check_objects(rank)
    j = j_element(matrix)[2]
    if group != DiagonalGroup.generated(n, [j]):
        raise MFError(
            f"no A side is known for the group {format_group(group)}: matrix-mode "
            f"verification predicts a D quiver only for the group generated by J = {format_element(j)}"
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
        stab = None if even else translate_mf(koszul_mf(p, ctx=ctx))
        out = []
        for name, a, b, t in entries:
            twist = ctx.element(t, (0,) * len(ctx.torsion))
            out.append((name, shift_mf(stab, twist) if a is None else mf_from_pair(ctx, p.poly, a, b, twist)))
        return out

    plan = CollectionPlan(labels=[name for name, *_ in entries], build=objects, field="Q(i)" if even else "Q")
    return plan, dynkin_quiver(f"D{rank}")


def generator_E(p):
    """Shifted residue-field stabilizations, one per degree class.

    For sums the factor stabilizations are tensored once (see _sum_objects)
    and the shifts run over the product of the factor transversals (embedded
    in the sum grading), which is a transversal of the sum's degree classes.
    Object t, in order, is shifted by the sum of the embedded representatives
    lbar_representatives(atom r)[t[r]]; its `coords` are ("E", atom names,
    t).
    """

    def factor(atom):
        stab = _atom_stab(atom)
        return [("", 0, s) for s in lbar_representatives(stab.ctx)], lambda: [stab]

    return [mf for _, mf in _sum_objects(p, "E", factor)[1]()]


def one_period_end_total(gens, periods=4):
    """Total dimension of End of a generator over one translation period.

    The translation square equals the twist by deg_c, so hom spaces are
    indexed by (twist class, translation parity): the dimension attached
    to parity p is the sum of hom_dim over all k congruent to p mod 2.
    That folded count is independent of how the twist classes are lifted,
    and it is the quantity that factors over disconnected sums.

    All generators must be twists of a single object.  The k-sum runs
    over `periods` translation periods on each side; the outermost period
    on both sides must come out zero (raising otherwise), and everything
    below the scanned range vanishes because the hom cells are empty
    there.

    The folded count of a difference d is that of any pair (a, b) of
    generators with d = s_b - s_a, s the twist.  Each d is keyed on the
    least orbit key (see _orbit_key) of its pairs and each key is folded
    once: with coordinates of one sum (generator_E records them) that is
    once per orbit of differences under the permutations of identical atoms,
    pairs being matched only with pairs in the list; without, every
    distinct d is folded.
    """
    if not gens:
        return 0
    base = gens[0]
    deltas = []
    for g in gens:
        d = g.p0[0] - base.p0[0]
        if not shift_mf(base, d).same_data(g):
            raise MFError("generators are not twists of a single object")
        deltas.append(d)
    orbit = _orbit_key(gens)
    diffs = {}
    least = {}  # d -> least orbit key of its pairs
    for i, a in enumerate(deltas):
        for j, b in enumerate(deltas):
            d = b - a
            diffs[d] = diffs.get(d, 0) + 1
            key = orbit(i, j)
            if d not in least or key < least[d]:
                least[d] = key
    lo, hi = -2 * periods, 2 * periods + 1

    def folded(delta):
        h = shift_mf(base, delta)
        per_k = [hom_dim(base, h, k) for k in range(lo, hi + 1)]
        if any(per_k[:2]) or any(per_k[-2:]):
            raise MFError(
                "nonzero hom dimensions at the edge of the folding window; "
                "increase periods"
            )
        return sum(per_k)

    done = {}
    total = 0
    for d, mult in sorted(diffs.items(), key=lambda kv: kv[0].key()):
        key = least[d]
        if key not in done:
            done[key] = folded(d)
        total += done[key] * mult
    return total


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


def ext_table_to_json(t):
    return {
        "objects": list(t.objects),
        "window": list(t.window),
        "entries": [list(e) for e in t.entries()],
    }
