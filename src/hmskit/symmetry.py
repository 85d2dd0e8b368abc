"""Diagonal symmetry groups of invertible polynomials.

A group element is a residue vector g in (Q/Z)^n, acting by
x_i -> exp(2 pi i g_i) x_i, and travels as a pair (nums, den) of integers,
g = nums / den mod 1.  A vector g is a symmetry of the polynomial with
exponent matrix A exactly when A g is integral.  A group G is stored as
its exponent den and the Hermite basis of the lattice den*G + den*Z^n, so
its order, membership and dual come from integer matrices; only
DiagonalGroup.elements lists elements, under MAX_GROUP_ORDER.
"""

import re
from math import gcd, lcm

from .exactmat import det_int, hermite, mat_inverse, mat_mul, mat_transpose


class SymmetryError(ValueError):
    pass


class ResourceLimitError(RuntimeError):
    pass


# The largest group whose elements are listed (by gmax, transpose and
# matrix-mode verify); a larger one raises ResourceLimitError before any
# element is formed.  The smallest power of two above the largest group
# listed to completion: the 90,000 elements of gmax of x^300 + y^300.
MAX_GROUP_ORDER = 1 << 17


class DiagonalGroup:
    """Finite subgroup G of (Q/Z)^n generated by the rows of integer
    vectors over den: its exponent den and the Hermite basis of den*G +
    den*Z^n, an upper triangular n x n matrix whose diagonal divides den."""

    def __init__(self, n, rows, den):
        eye = [[den if i == j else 0 for j in range(n)] for i in range(n)]
        basis = hermite([[x % den for x in r] for r in rows] + eye, n)
        g = gcd(den, *(x for r in basis for x in r))
        self.n, self.den = n, den // g
        self.basis = [[x // g for x in r] for r in basis]

    @property
    def order(self):
        order = 1
        for i, r in enumerate(self.basis):
            order *= self.den // r[i]
        return order

    def __contains__(self, vec):
        nums, den = vec
        if len(nums) != self.n:
            raise SymmetryError("group element has wrong number of coordinates")
        v = []
        for x in nums:
            y, rem = divmod(x * self.den, den)
            if rem:
                return False
            v.append(y)
        for i, r in enumerate(self.basis):
            q, rem = divmod(v[i], r[i])
            if rem:
                return False
            v = [a - q * b for a, b in zip(v, r)]
        return True

    def elements(self):
        """Every element as (nums, den) with 0 <= nums < den, sorted."""
        if self.order > MAX_GROUP_ORDER:
            raise ResourceLimitError(f"group has {self.order} elements, above the limit {MAX_GROUP_ORDER}")
        vecs = [(0,) * self.n]
        for i, r in enumerate(self.basis):
            vecs = [tuple((a + k * b) % self.den for a, b in zip(v, r)) for v in vecs for k in range(self.den // r[i])]
        return [(v, self.den) for v in sorted(vecs)]

    def __eq__(self, other):
        if not isinstance(other, DiagonalGroup):
            return NotImplemented
        return (self.n, self.den, self.basis) == (other.n, other.den, other.basis)

    def __repr__(self):
        return f"DiagonalGroup(order {self.order} in (Q/Z)^{self.n})"


def _inverse(a):
    try:
        return mat_inverse(a)
    except ValueError:
        raise SymmetryError("exponent matrix is singular") from None


def gmax(a):
    """Maximal diagonal symmetry group: all g with A g integral.

    Generated by the columns of the inverse exponent matrix; its order is
    |det A|.
    """
    inv, den = _inverse(a)
    group = DiagonalGroup(len(a), mat_transpose(inv), den)
    if group.order != abs(det_int(a)):
        raise SymmetryError("symmetry group order does not match the determinant")
    return group


def j_element(a):
    """Exponential grading element of the polynomial as (lphi, ell).

    The rational weight vector phi (row sums of the inverse exponent
    matrix) is lphi / ell, with ell the least positive integer making
    ell * phi integral; the group element J is phi mod 1.
    """
    inv, den = _inverse(a)
    sums = [sum(row) for row in inv]
    g = gcd(den, *sums)
    return tuple(x // g for x in sums), den // g


def krawitz_transpose(a, group):
    """Dual group on the transposed side.

    Given G inside gmax(A), returns the subgroup of gmax(A^T) of elements s
    with s^T A t integral for every t in G.  With G lifted to the lattice
    H^T Z^n / den, that is the lattice A^-T den H^-1 Z^n.
    """
    if any(sum(x * y for x, y in zip(row, r)) % group.den for r in group.basis for row in a):
        raise SymmetryError("group element is not a symmetry of the polynomial")
    inv_t, den_a = _inverse(mat_transpose(a))
    inv_h, den_h = mat_inverse(group.basis)
    scaled = [[x * (group.den // den_h) for x in row] for row in inv_h]
    return DiagonalGroup(len(a), mat_transpose(mat_mul(inv_t, scaled)), den_a)


def is_sl(group):
    """Whether every element has integral coordinate sum."""
    return all(sum(r) % group.den == 0 for r in group.basis)


_COORD = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_group_string(text, n):
    """Parse generators like '1/2,1/2;0,1/3' into a DiagonalGroup; each
    coordinate is an integer or a fraction of integers."""
    text = text.strip()
    gens = []
    for chunk in text.split(";") if text else []:
        coords = chunk.split(",")
        if len(coords) != n:
            raise SymmetryError(
                f"generator {chunk!r} has {len(coords)} coordinates, expected {n}"
            )
        parsed = [_COORD.fullmatch(c.strip()) for c in coords]
        try:
            if not all(parsed):
                raise ValueError
            gens.append([(int(m[1]), int(m[2] or 1)) for m in parsed])
        except ValueError:  # no match, or more digits than int() takes
            raise SymmetryError(f"cannot parse generator {chunk!r}") from None
    den = lcm(1, *(d for g in gens for _, d in g))
    return DiagonalGroup(n, [[x * (den // d) for x, d in g] for g in gens], den)


def format_element(vec):
    """Text such as '1/3,0,2/3' of a (nums, den) pair, taken mod 1."""
    nums, den = vec
    out = []
    for x in nums:
        x %= den
        g = gcd(x, den)
        out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return ",".join(out)
