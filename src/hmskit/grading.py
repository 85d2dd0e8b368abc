"""Grading groups for weighted polynomial rings.

A grading context describes a finitely generated abelian group
L = Z^r + Z/m_1 + ... + Z/m_t together with distinguished elements: one
degree per ring variable and the common degree c of the defining
polynomial.  Elements are kept in normal-form coordinates, so equality,
hashing and sorting are structural.
"""

from itertools import product

from .exactmat import (
    hermite,
    identity_matrix,
    int_kernel,
    mat_transpose,
    smith_normal_form,
    snf_diagonal,
)
from .symmetry import j_element


class GradingError(ValueError):
    pass


class LElement:
    """Element of a grading group in (free, torsion) coordinates.

    Immutable, with tors reduced modulo moduli; equality, hashing and order
    are those of the tuple (free, tors, moduli).
    """

    __slots__ = ("free", "tors", "moduli")

    def __init__(self, free, tors, moduli):
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "tors", tuple(t % m for t, m in zip(tors, moduli)))
        object.__setattr__(self, "moduli", moduli)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.free, self.tors, self.moduli) == (other.free, other.tors, other.moduli)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.free, self.tors, self.moduli) < (other.free, other.tors, other.moduli)

    def __hash__(self):
        return hash((self.free, self.tors, self.moduli))

    def _check(self, other):
        if self.moduli != other.moduli or len(self.free) != len(other.free):
            raise GradingError("elements live in different grading groups")

    def __add__(self, other):
        self._check(other)
        return LElement(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.tors, other.tors)),
            self.moduli,
        )

    def __sub__(self, other):
        self._check(other)
        return LElement(
            tuple(a - b for a, b in zip(self.free, other.free)),
            tuple(a - b for a, b in zip(self.tors, other.tors)),
            self.moduli,
        )

    def __neg__(self):
        return LElement(
            tuple(-a for a in self.free), tuple(-a for a in self.tors), self.moduli
        )

    def __mul__(self, k):
        return LElement(
            tuple(k * a for a in self.free), tuple(k * a for a in self.tors), self.moduli
        )

    __rmul__ = __mul__

    def key(self):
        return (self.free, self.tors)

    def __repr__(self):
        if not self.tors:
            if len(self.free) == 1:
                return f"L({self.free[0]})"
            return f"L{self.free}"
        return f"L({self.free}, {self.tors} mod {self.moduli})"


def quotient_presentation(ngens, rel_rows):
    """Normal form of Z^ngens modulo the subgroup spanned by rel_rows.

    Returns (free_rows, tors_rows, moduli): integer projection rows such
    that v maps to (free_rows . v, tors_rows . v mod moduli).
    """
    rel_rows = [list(r) for r in rel_rows if any(r)]
    if not rel_rows:
        eye = identity_matrix(ngens)
        return [eye[i] for i in range(ngens)], [], []
    b = mat_transpose(rel_rows)  # columns generate the relation subgroup
    u, d, _ = smith_normal_form(b)
    diag = snf_diagonal(d)
    moduli_all = [diag[i] if i < len(diag) else 0 for i in range(ngens)]
    free_rows = [u[i] for i in range(ngens) if moduli_all[i] == 0]
    tors_rows = [u[i] for i in range(ngens) if moduli_all[i] >= 2]
    moduli = [m for m in moduli_all if m >= 2]
    return free_rows, tors_rows, moduli


def _dot(row, vec):
    return sum(a * b for a, b in zip(row, vec))


class GradingContext:
    """Grading group with per-variable degrees and the potential degree c.

    Two contexts compare equal when they present the same normal-form
    group with the same distinguished degrees; the internal projection
    rows are not part of the comparison.
    """

    def __init__(self, free_rows, tors_rows, moduli, deg_x_vectors, deg_c_vector):
        self._free_rows = [list(r) for r in free_rows]
        self._tors_rows = [list(r) for r in tors_rows]
        self.torsion = tuple(moduli)
        self.free_rank = len(self._free_rows)
        self.ngens = (
            len(self._free_rows[0])
            if self._free_rows
            else (len(self._tors_rows[0]) if self._tors_rows else 0)
        )
        raw_c = self.class_of(deg_c_vector)
        # sign-normalize free coordinates so deg_c has non-negative free part
        for i, coord in enumerate(raw_c.free):
            if coord < 0:
                self._free_rows[i] = [-a for a in self._free_rows[i]]
        self.deg_c = self.class_of(deg_c_vector)
        self.deg_x = tuple(self.class_of(v) for v in deg_x_vectors)
        self._degree_keys = {}

    def class_of(self, vec):
        if len(vec) != self.ngens:
            raise GradingError("coordinate vector has wrong length")
        return LElement(
            tuple(_dot(r, vec) for r in self._free_rows),
            tuple(_dot(r, vec) for r in self._tors_rows),
            self.torsion,
        )

    def zero(self):
        return LElement((0,) * self.free_rank, (0,) * len(self.torsion), self.torsion)

    def degree_key(self, exps):
        """Degree of the monomial with exponents `exps` as a plain
        (free, tors) tuple, computed once per instance."""
        key = self._degree_keys.get(exps)
        if key is None:
            key = self._degree_keys[exps] = sum((e * d for d, e in zip(self.deg_x, exps) if e), self.zero()).key()
        return key

    def element(self, free, tors=()):
        """The element of free part `free`; an omitted torsion part is zero."""
        tors = tuple(tors) or (0,) * len(self.torsion)
        if len(tors) != len(self.torsion):
            raise GradingError("torsion part has wrong length")
        return LElement((free,), tors, self.torsion)

    def __eq__(self, other):
        if not isinstance(other, GradingContext):
            return NotImplemented
        return (
            self.free_rank == other.free_rank
            and self.torsion == other.torsion
            and self.deg_x == other.deg_x
            and self.deg_c == other.deg_c
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion, self.deg_x, self.deg_c))

    def __repr__(self):
        parts = []
        if self.free_rank:
            parts.append("Z" if self.free_rank == 1 else f"Z^{self.free_rank}")
        parts.extend(f"Z/{m}" for m in self.torsion)
        group = " + ".join(parts) if parts else "0"
        return f"GradingContext({group}, deg_x={list(self.deg_x)}, deg_c={self.deg_c})"


def grading_group(a):
    """Universal grading of the polynomial cut out by exponent matrix a.

    One generator per variable plus one for the total degree c; every
    monomial row of the matrix is forced to have degree c.
    """
    n = len(a)
    for row in a:
        if len(row) != n:
            raise GradingError("exponent matrix must be square")
    ngens = n + 1
    rel_rows = [list(row) + [-1] for row in a]
    free_rows, tors_rows, moduli = quotient_presentation(ngens, rel_rows)
    deg_x_vectors = []
    for j in range(n):
        v = [0] * ngens
        v[j] = 1
        deg_x_vectors.append(v)
    c_vector = [0] * ngens
    c_vector[n] = 1
    ctx = GradingContext(free_rows, tors_rows, moduli, deg_x_vectors, c_vector)
    for row in a:
        if ctx.degree_key(tuple(row)) != ctx.deg_c.key():
            raise GradingError("monomial degrees do not agree")
    return ctx


def lbar_representatives(ctx):
    """Sorted transversal of L modulo the subgroup generated by deg_c.

    Only defined when the quotient is finite, i.e. free rank one with a
    nonzero free part of deg_c.
    """
    if ctx.free_rank != 1:
        raise GradingError("generator set would be infinite: free rank != 1")
    c0 = ctx.deg_c.free[0]
    if c0 == 0:
        raise GradingError("generator set would be infinite: degenerate c")
    return [LElement((f,), t, ctx.torsion) for f in range(abs(c0)) for t in product(*map(range, ctx.torsion))]


def sum_grading_maps(ctx1, ctx2):
    """Pushout grading of a two-factor sum, plus the two embeddings.

    Generators are the normal-form coordinates of both factors; the only
    new relation glues the two copies of deg_c together.
    """
    n1 = ctx1.free_rank + len(ctx1.torsion)
    n2 = ctx2.free_rank + len(ctx2.torsion)
    ngens = n1 + n2

    def coords(e, offset):
        v = [0] * ngens
        for i, a in enumerate(e.free):
            v[offset + i] = a
        for i, a in enumerate(e.tors):
            v[offset + len(e.free) + i] = a
        return v

    rel_rows = []
    for i, m in enumerate(ctx1.torsion):
        row = [0] * ngens
        row[ctx1.free_rank + i] = m
        rel_rows.append(row)
    for i, m in enumerate(ctx2.torsion):
        row = [0] * ngens
        row[n1 + ctx2.free_rank + i] = m
        rel_rows.append(row)
    c1 = coords(ctx1.deg_c, 0)
    c2 = coords(ctx2.deg_c, n1)
    rel_rows.append([a - b for a, b in zip(c1, c2)])

    free_rows, tors_rows, moduli = quotient_presentation(ngens, rel_rows)
    deg_x_vectors = [coords(d, 0) for d in ctx1.deg_x] + [
        coords(d, n1) for d in ctx2.deg_x
    ]
    ctx = GradingContext(free_rows, tors_rows, moduli, deg_x_vectors, c1)

    def emb1(e):
        return ctx.class_of(coords(e, 0))

    def emb2(e):
        return ctx.class_of(coords(e, n1))

    if emb1(ctx1.deg_c) != emb2(ctx2.deg_c):
        raise GradingError("sum grading failed to glue the degrees of c")
    return ctx, emb1, emb2


def m_grading(a, group):
    """Grading by characters of the extension of the given symmetry group.

    `a` is the exponent matrix and `group` a symmetry.DiagonalGroup, which
    must contain the exponential grading element.
    """
    n = len(a)
    if group.n != n:
        raise GradingError("group has the wrong number of coordinates")
    lphi, ell = j_element(a)
    if (lphi, ell) not in group:
        raise GradingError("exponential grading element is not in the group")
    den, basis = group.den, group.basis
    if any(_dot(row, r) % den for r in basis for row in a):
        raise GradingError("group element is not a symmetry of the polynomial")

    # annihilator of the character lattice, via one integer witness per
    # basis row, in Hermite form so that it depends on the group alone
    k = len(basis)
    rows = [list(lphi) + [0] * k]
    for t, r in enumerate(basis):
        row = r + [0] * k
        row[n + t] = -den
        rows.append(row)
    ann_rows = hermite([v[:n] for v in int_kernel(rows)], n)

    free_rows, tors_rows, moduli = quotient_presentation(n, ann_rows)
    deg_x_vectors = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ctx = GradingContext(free_rows, tors_rows, moduli, deg_x_vectors, list(a[0]))
    for row in a:
        if ctx.class_of(list(row)) != ctx.deg_c:
            raise GradingError("monomial degrees do not agree in the quotient")
    return ctx
