"""Diagonal symmetry groups of invertible polynomials.

Group elements are residue vectors: tuples of Fraction taken mod 1, acting
by x_i -> exp(2 pi i g_i) x_i.  A vector g is a symmetry of the polynomial
with exponent matrix A exactly when A g is integral.
"""

from fractions import Fraction
from math import lcm

from .exactmat import det_int, mat_inverse_rat, mat_transpose


class SymmetryError(ValueError):
    pass


def _normalize(vec, n):
    t = tuple(Fraction(x) % 1 for x in vec)
    if len(t) != n:
        raise SymmetryError("group element has wrong number of coordinates")
    return t


def _vec_add(a, b):
    return tuple((x + y) % 1 for x, y in zip(a, b))


class DiagonalGroup:
    """Finite subgroup of (Q/Z)^n, stored as the full element set."""

    def __init__(self, n, elements):
        self.n = n
        elems = {_normalize(e, n) for e in elements}
        zero = (Fraction(0),) * n
        elems.add(zero)
        self.elements = tuple(sorted(elems))

    @classmethod
    def generated(cls, n, generators):
        zero = (Fraction(0),) * n
        gens = [_normalize(g, n) for g in generators]
        seen = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for e in frontier:
                for g in gens:
                    s = _vec_add(e, g)
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        return cls(n, seen)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, vec):
        return _normalize(vec, self.n) in set(self.elements)

    def __eq__(self, other):
        if not isinstance(other, DiagonalGroup):
            return NotImplemented
        return self.n == other.n and self.elements == other.elements

    def __hash__(self):
        return hash((self.n, self.elements))

    def __repr__(self):
        return f"DiagonalGroup(order {len(self)} in (Q/Z)^{self.n})"


def gmax(a):
    """Maximal diagonal symmetry group: all g with A g integral.

    Generated by the columns of the inverse exponent matrix; its order is
    |det A|.
    """
    n = len(a)
    if n == 0:
        return DiagonalGroup(0, [()])
    d = det_int(a)
    if d == 0:
        raise SymmetryError("exponent matrix is singular")
    inv = mat_inverse_rat(a)
    cols = [tuple(inv[i][j] for i in range(n)) for j in range(n)]
    group = DiagonalGroup.generated(n, cols)
    if len(group) != abs(d):
        raise SymmetryError("symmetry group order does not match the determinant")
    return group


def j_element(a):
    """Exponential grading element of the polynomial.

    Returns (phi, ell, j): the rational weight vector phi (row sums of the
    inverse exponent matrix), the least positive integer ell with
    ell * phi integral, and the residue vector j = phi mod 1.
    """
    n = len(a)
    if n == 0:
        return (), 1, ()
    inv = mat_inverse_rat(a)
    phi = tuple(sum(row) for row in inv)
    ell = lcm(*[f.denominator for f in phi])
    j = tuple(f % 1 for f in phi)
    return phi, ell, j


def _pairing(s, a, t):
    """Bilinear pairing between the two sides, taken mod 1."""
    n = len(a)
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            total += s[i] * a[i][j] * t[j]
    return total % 1


def krawitz_transpose(a, group):
    """Dual group on the transposed side.

    Given G inside gmax(A), returns the subgroup of gmax(A^T) of elements
    pairing integrally with all of G.
    """
    n = len(a)
    elements = [_normalize(g, n) for g in getattr(group, "elements", group)]
    for g in elements:
        # g lies in gmax(A) exactly when A g is integral
        if any(sum(x * y for x, y in zip(row, g)) % 1 for row in a):
            raise SymmetryError("group element is not a symmetry of the polynomial")
    dual_side = gmax(mat_transpose(a))
    kept = [s for s in dual_side if all(_pairing(s, a, t) == 0 for t in elements)]
    return DiagonalGroup(n, kept)


def is_sl(group):
    """Whether every element has integral coordinate sum."""
    return all(sum(g) % 1 == 0 for g in group)


def parse_group_string(text, n):
    """Parse generators like '1/2,1/2;0,1/3' into a DiagonalGroup."""
    text = text.strip()
    if not text:
        return DiagonalGroup.generated(n, [])
    gens = []
    for chunk in text.split(";"):
        coords = chunk.split(",")
        if len(coords) != n:
            raise SymmetryError(
                f"generator {chunk!r} has {len(coords)} coordinates, expected {n}"
            )
        try:
            gens.append(tuple(Fraction(c.strip()) for c in coords))
        except (ValueError, ZeroDivisionError) as exc:
            raise SymmetryError(f"cannot parse generator {chunk!r}") from exc
    return DiagonalGroup.generated(n, gens)


def format_element(g):
    return ",".join(str(x) for x in g)


def format_group(group):
    return ";".join(format_element(g) for g in group.elements)
