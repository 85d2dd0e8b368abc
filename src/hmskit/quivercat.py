"""Directed Dynkin quivers and their hom combinatorics.

This is the combinatorial side of the comparison: simples of a hereditary
path algebra, tensor products for several factors, and the mutation action
on Euler matrices.  Everything here is small and exact.
"""

import itertools
import re

from .exactmat import charpoly, identity_matrix, mat_inverse, mat_mul, mat_transpose


class QuiverError(ValueError):
    pass


class Quiver:
    """Named quiver with its vertices and (source, target) arrows, 0-based.
    Immutable; equal and hashed by (name, vertices, arrows)."""

    __slots__ = ("name", "vertices", "arrows")

    def __init__(self, name, vertices, arrows):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.vertices, self.arrows) == (other.name, other.vertices, other.arrows)

    def __hash__(self):
        return hash((self.name, self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver(name={self.name!r}, vertices={self.vertices!r}, arrows={self.arrows!r})"

    @property
    def rank(self):
        return len(self.vertices)

    def arrow_count(self, src, dst):
        return sum(1 for a, b in self.arrows if a == src and b == dst)


_TYPE_RE = re.compile(r"^([AD])(\d+)$")


def dynkin_quiver(qtype):
    """Directed quiver of type A_m (m >= 1) or D_n (n >= 4).

    Arrows point toward lower-index vertices along the tail; in type D the
    branch vertex v3 sources into both v1 and v2.  D3 is rejected: renumber
    it as A3.
    """
    if hasattr(qtype, "kind"):  # polyforms.Atom; both D orientations share a quiver
        kind = "A" if qtype.kind == "A" else "D"
        rank = qtype.param
    else:
        m = _TYPE_RE.match(str(qtype).strip())
        if not m:
            raise QuiverError(f"cannot parse quiver type: {qtype!r}")
        kind, rank = m.group(1), int(m.group(2))
    if kind == "A":
        if rank < 1:
            raise QuiverError("type A needs rank at least 1")
        vertices = tuple(f"v{i+1}" for i in range(rank))
        arrows = tuple((i + 1, i) for i in range(rank - 1))
        return Quiver(f"A{rank}", vertices, arrows)
    if rank == 3:
        raise QuiverError("D3 coincides with A3; request the A3 quiver instead")
    if rank < 3:
        raise QuiverError("type D needs rank at least 4")
    vertices = tuple(f"v{i+1}" for i in range(rank))
    arrows = ((2, 0), (2, 1)) + tuple((i + 1, i) for i in range(2, rank - 1))
    return Quiver(f"D{rank}", vertices, arrows)


def simple_hom_dims(q, i, j, k):
    """dim Hom(S_i, S_j[k]) between simples of the path algebra.

    Hereditary, so only k in {0, 1} contribute: identity at k = 0 and, at
    k = 1, the number of arrows j -> i.  Vertices are 0-based.
    """
    rank = q.rank
    if not (0 <= i < rank and 0 <= j < rank):
        raise QuiverError("vertex out of range")
    if k == 0:
        return 1 if i == j else 0
    if k == 1:
        return q.arrow_count(j, i)
    return 0


class BigradedTable:
    """Hom dimensions between indexed objects, graded by shift."""

    __slots__ = ("objects", "dims")

    def __init__(self, objects, dims):
        self.objects = objects
        self.dims = dims  # (i, j, k) -> positive int

    def __repr__(self):
        return f"BigradedTable(objects={self.objects!r}, dims={self.dims!r})"

    def entries(self):
        """Sorted nonzero entries as (i, j, k, dim) index tuples."""
        return sorted((i, j, k, d) for (i, j, k), d in self.dims.items())

    def restrict_window(self, window):
        kept = {key: d for key, d in self.dims.items() if abs(key[2]) <= window}
        return BigradedTable(list(self.objects), kept)

    def __eq__(self, other):
        if not isinstance(other, BigradedTable):
            return NotImplemented
        return self.objects == other.objects and self.dims == other.dims


def tensor_model(quivers):
    """Tensor product of the simple-object tables of several quivers.

    Objects are tuples of vertices, one per factor, in product order with
    the last factor varying fastest; dimensions convolve over the shift.
    The factors are folded one at a time over their nonzero entries, so the
    cost follows the entries of the product, not the square of its objects.
    """
    if not quivers:
        raise QuiverError("tensor model needs at least one factor")
    # (source index, target index) -> {k: dim}, indices in mixed radix
    folded = {(0, 0): {0: 1}}
    for q in quivers:
        # an entry can be nonzero only at (i, i, 0) and at (b, a, 1) for an arrow a -> b
        factor = {}
        for i, j, k in [(i, i, 0) for i in range(q.rank)] + [(b, a, 1) for a, b in q.arrows]:
            d = simple_hom_dims(q, i, j, k)
            if d:
                factor.setdefault((i, j), {})[k] = d
        n = q.rank
        nxt = {}
        for (si, di), conv in folded.items():
            si, di = si * n, di * n
            for (i, j), ks in factor.items():
                out = {}
                for k1, d1 in conv.items():
                    for k2, d2 in ks.items():
                        out[k1 + k2] = out.get(k1 + k2, 0) + d1 * d2
                nxt[(si + i, di + j)] = out
        folded = nxt
    dims = {(si, di, k): d for (si, di), conv in folded.items() for k, d in conv.items()}
    labels = list(itertools.product(*(q.vertices for q in quivers)))
    return BigradedTable(labels, dims)


def euler_matrix(q):
    """E with E[i][j] = delta_ij - (number of arrows i -> j)."""
    e = identity_matrix(q.rank)
    for a, b in q.arrows:
        e[a][b] -= 1
    return e


def coxeter_polynomial(e):
    """Characteristic polynomial of the Coxeter matrix -E^-T E.

    Returns integer coefficients, leading term first.
    """
    inv_t, den = mat_inverse(mat_transpose(e))
    if den != 1:
        raise QuiverError("Coxeter polynomial is not integral; E is not unimodular")
    return charpoly([[-x for x in row] for row in mat_mul(inv_t, e)])


def mutate_collection(e, position, direction):
    """Braid mutation of an Euler matrix at an adjacent slot pair.

    `position` is 1-based with 1 <= position < rank, acting on slots
    (position, position + 1).  The transvection coefficient is the
    below-diagonal entry of the slot block, which is the only one that can
    be nonzero for collections listed in exceptional order under this
    matrix convention; left and right are mutually inverse there.
    """
    n = len(e)
    if not 1 <= position < n:
        raise QuiverError("mutation position out of range")
    if direction not in ("left", "right"):
        raise QuiverError(f"unknown mutation direction: {direction!r}")
    p = position - 1
    q = position
    a = e[q][p]
    f = identity_matrix(n)
    if direction == "left":
        f[p][p] = -a
        f[p][q] = 1
        f[q][p] = 1
        f[q][q] = 0
    else:
        f[p][p] = 0
        f[p][q] = 1
        f[q][p] = 1
        f[q][q] = -a
    return mat_mul(mat_mul(f, e), mat_transpose(f))
