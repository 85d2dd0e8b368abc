"""Exact helpers that only the tests use, kept out of the package.

- rat_kernel and rat_rank: Gaussian elimination over Q on Fractions, the
  oracle for exactmat.int_rank and for the rank checks of the acceptance
  criteria;
- parse_poly_string: the inverse of Poly.format for the shapes the package
  prints;
- grading_invariants: a fingerprint of a grading, to compare two
  constructions of it;
- RefGroup, ref_gmax and ref_transpose: a diagonal symmetry group as the
  sorted set of its elements (tuples of Fraction mod 1), closed by
  breadth-first search, and its transpose by the pairing s^T A t summed
  over every pair of elements; the oracle for symmetry.DiagonalGroup;
- subgroups: every subgroup of a RefGroup with at most two generators;
- lattice: the symmetry.DiagonalGroup with the elements of a RefGroup;
- hom_at: the hom dimension at one shift, a walk of hom_dim over that shift
  alone.
"""

from fractions import Fraction

from math import lcm

from hmskit.exactmat import I, Poly, default_var_names, det_int, mat_inverse, mat_shape, mat_transpose
from hmskit.matfac import hom_dim
from hmskit.symmetry import DiagonalGroup


def rat_kernel(m):
    """Basis of the right kernel of a matrix with int/Fraction entries.

    Returns a list of vectors (lists of Fraction) spanning {v : m v = 0}.
    """
    rows, cols = mat_shape(m)
    red = [[Fraction(x) for x in row] for row in m]
    pivots = []  # (row, col)
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if red[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        red[r], red[piv] = red[piv], red[r]
        pv = red[r][c]
        red[r] = [x / pv for x in red[r]]
        for i in range(rows):
            if i != r and red[i][c] != 0:
                f = red[i][c]
                red[i] = [x - f * y for x, y in zip(red[i], red[r])]
        pivots.append((r, c))
        r += 1
        if r == rows:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(cols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for prow, pcol in pivots:
            vec[pcol] = -red[prow][free]
        basis.append(vec)
    return basis


def rat_rank(m):
    rows, cols = mat_shape(m)
    return cols - len(rat_kernel(m))


def _split_top(text, seps):
    """(separator, piece) pairs of text cut at seps outside parentheses."""
    out = []
    depth = 0
    sep = ""
    start = 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in seps:
            out.append((sep, text[start:k].strip()))
            sep, start = ch, k + 1
    out.append((sep, text[start:].strip()))
    return out


def parse_poly_string(text, nvars, names=None):
    """Inverse of Poly.format for the restricted shapes this package emits."""
    if names is None:
        names = default_var_names(nvars)
    index = {name: i for i, name in enumerate(names)}
    text = text.strip()
    if text == "0":
        return Poly.zero(nvars)
    terms = {}
    for sep, part in _split_top(text, "+-"):
        if not part:
            continue
        coeff = -1 if sep == "-" else 1
        exps = [0] * nvars
        for _, factor in _split_top(part, "*"):
            name, _, power = factor.partition("^")
            if name in index:
                exps[index[name]] += int(power or 1)
            elif factor == "i":
                coeff = coeff * I
            elif factor.startswith("("):
                inner = parse_poly_string(factor[1:-1], nvars, names)
                if any(any(e) for e in inner.terms):
                    raise ValueError(f"not a constant coefficient: {factor}")
                coeff = coeff * inner.terms.get((0,) * nvars, 0)
            elif "/" in factor:
                raise TypeError(f"not a Gaussian integer: {factor}")
            else:
                coeff *= int(factor)
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return Poly(nvars, terms)


def grading_invariants(ctx):
    """Isomorphism-insensitive fingerprint used to compare constructions."""
    sign = 1
    if ctx.free_rank == 1 and ctx.deg_c.free and ctx.deg_c.free[0] < 0:
        sign = -1
    return {
        "free_rank": ctx.free_rank,
        "torsion": tuple(ctx.torsion),
        "deg_x_free": tuple(tuple(sign * a for a in d.free) for d in ctx.deg_x),
        "deg_c_free": tuple(sign * a for a in ctx.deg_c.free),
    }


def _normalize(vec, n):
    t = tuple(Fraction(x) % 1 for x in vec)
    assert len(t) == n, "group element has wrong number of coordinates"
    return t


class RefGroup:
    """Finite subgroup of (Q/Z)^n, stored as the full element set."""

    def __init__(self, n, elements):
        self.n = n
        self.elements = tuple(sorted({_normalize(e, n) for e in elements} | {(Fraction(0),) * n}))

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
                    s = tuple((x + y) % 1 for x, y in zip(e, g))
                    if s not in seen:
                        seen.add(s)
                        nxt.append(s)
            frontier = nxt
        return cls(n, seen)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, vec):
        return _normalize(vec, self.n) in set(self.elements)

    def formatted(self):
        return [",".join(str(x) for x in g) for g in self.elements]

    def is_sl(self):
        return all(sum(g) % 1 == 0 for g in self.elements)


def ref_gmax(a):
    """All g with A g integral, closed from the columns of A^-1."""
    n = len(a)
    inv, den = mat_inverse(a)
    group = RefGroup.generated(n, [[Fraction(inv[i][j], den) for i in range(n)] for j in range(n)])
    assert len(group) == abs(det_int(a))
    return group


def _pairing(s, a, t):
    """Bilinear pairing between the two sides, taken mod 1."""
    n = len(a)
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            total += s[i] * a[i][j] * t[j]
    return total % 1


def ref_transpose(a, group):
    """The elements of gmax(A^T) pairing integrally with all of G."""
    kept = [s for s in ref_gmax(mat_transpose(a)).elements if all(_pairing(s, a, t) == 0 for t in group.elements)]
    return RefGroup(group.n, kept)


def lattice(group):
    """The symmetry.DiagonalGroup generated by the elements of a RefGroup."""
    den = lcm(1, *(x.denominator for g in group.elements for x in g))
    return DiagonalGroup(group.n, [[int(x * den) for x in g] for g in group.elements], den)


def subgroups(group):
    """All subgroups of a RefGroup, as closures of generating sets of size
    <= 2.

    Valid whenever the group needs at most two generators, which covers
    every diagonal symmetry group of a one or two variable polynomial.
    """
    found = {}
    elems = group.elements
    for a in elems:
        g = RefGroup.generated(group.n, [a])
        found[g.elements] = g
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            g = RefGroup.generated(group.n, [a, b])
            found[g.elements] = g
    return sorted(found.values(), key=lambda g: (len(g), g.elements))


def hom_at(k, h, shift):
    """Dimension of the stable hom space from k to h translated `shift` times."""
    return hom_dim(k, h, range(shift, shift + 1))[0]
