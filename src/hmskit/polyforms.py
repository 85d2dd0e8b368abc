"""Invertible polynomials of chain and dihedral type.

A polynomial here is a square integer exponent matrix A with det(A) != 0;
each row is a monomial with coefficient one.  The supported class is
direct sums of the one and two variable atoms

    A_m   [m + 1]              x^(m+1),          m >= 1
    D_n   [[n-1, 0], [1, 2]]   x^(n-1) + x y^2,  n >= 3
    D_nt  [[n-1, 1], [0, 2]]   x^(n-1) y + y^2,  n >= 3

up to renumbering of rows and variables.  Everything else is rejected.
"""

import re

from .exactmat import Poly, det_int, mat_transpose
from .grading import grading_group


class PolyFormError(ValueError):
    pass


class Atom:
    """One indecomposable summand: kind 'A', 'D' or 'Dt' with its rank.

    `variables` lists the global variable indices in template order, so
    for the two variable kinds the first entry plays the x role.  Immutable;
    equal and hashed by (kind, param, variables).
    """

    __slots__ = ("kind", "param", "variables")

    def __init__(self, kind, param, variables):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "variables", variables)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.param, self.variables) == (other.kind, other.param, other.variables)

    def __hash__(self):
        return hash((self.kind, self.param, self.variables))

    def __repr__(self):
        return f"Atom(kind={self.kind!r}, param={self.param!r}, variables={self.variables!r})"

    @property
    def name(self):
        if self.kind == "A":
            return f"A{self.param}"
        return f"D{self.param}t" if self.kind == "Dt" else f"D{self.param}"

    def template(self):
        if self.kind == "A":
            return [[self.param + 1]]
        n = self.param
        if self.kind == "Dt":
            return [[n - 1, 1], [0, 2]]
        return [[n - 1, 0], [1, 2]]


class InvertiblePolynomial:
    def __init__(self, matrix, atoms):
        self.matrix = [list(r) for r in matrix]
        self.nvars = len(matrix)
        self.atoms = list(atoms)
        self._poly = None
        self._ctx = None

    @property
    def poly(self):
        if self._poly is None:
            p = Poly.zero(self.nvars)
            for row in self.matrix:
                p = p + Poly.monomial(self.nvars, tuple(row))
            self._poly = p
        return self._poly

    @property
    def ctx(self):
        if self._ctx is None:
            self._ctx = grading_group(self.matrix)
        return self._ctx

    @property
    def name(self):
        if not self.atoms:
            return "0"
        return "+".join(a.name for a in self.atoms)

    def format(self):
        return self.poly.format()

    def __repr__(self):
        return f"InvertiblePolynomial({self.name}: {self.format()})"

    def __eq__(self, other):
        if not isinstance(other, InvertiblePolynomial):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.matrix))


def _components(a):
    """Connected components of the row/variable incidence graph."""
    n = len(a)
    seen_rows = set()
    comps = []
    for start in range(n):
        if start in seen_rows:
            continue
        rows = {start}
        cols = set()
        frontier_rows = [start]
        while frontier_rows:
            new_cols = set()
            for i in frontier_rows:
                for j in range(n):
                    if a[i][j] != 0 and j not in cols:
                        new_cols.add(j)
            cols |= new_cols
            frontier_rows = []
            for j in new_cols:
                for i in range(n):
                    if a[i][j] != 0 and i not in rows:
                        rows.add(i)
                        frontier_rows.append(i)
        seen_rows |= rows
        comps.append((sorted(rows), sorted(cols)))
    return comps


def _classify_component(a, rows, cols):
    if len(rows) != len(cols):
        raise PolyFormError("component with mismatched rows and variables")
    if len(rows) == 1:
        e = a[rows[0]][cols[0]]
        if e < 2:
            raise PolyFormError("out of supported class: linear monomial")
        return Atom("A", e - 1, (cols[0],))
    if len(rows) == 2:
        i1, i2 = rows
        for ri, rj in ((i1, i2), (i2, i1)):
            for cx, cy in ((cols[0], cols[1]), (cols[1], cols[0])):
                p, q = a[ri][cx], a[ri][cy]
                r, s = a[rj][cx], a[rj][cy]
                # transposed orientation: x^(n-1) y + y^2
                if q == 1 and r == 0 and s == 2 and p >= 2:
                    return Atom("Dt", p + 1, (cx, cy))
                # regular orientation: x^(n-1) + x y^2
                if q == 0 and r == 1 and s == 2 and p >= 2:
                    return Atom("D", p + 1, (cx, cy))
        raise PolyFormError("out of supported class: unrecognized two-variable block")
    raise PolyFormError("out of supported class: component spans too many variables")


def build(a):
    """Validate an exponent matrix and decompose it into atoms."""
    n = len(a)
    for row in a:
        if len(row) != n:
            raise PolyFormError("exponent matrix must be square")
        for e in row:
            if not isinstance(e, int) or e < 0:
                raise PolyFormError("exponents must be non-negative integers")
    if n and det_int(a) == 0:
        raise PolyFormError("exponent matrix is singular")
    atoms = []
    for rows, cols in _components(a):
        atoms.append(_classify_component(a, rows, cols))
    atoms.sort(key=lambda at: min(at.variables))
    return InvertiblePolynomial(a, atoms)


def transpose(p):
    """The dual polynomial: same data with the exponent matrix transposed."""
    return build(mat_transpose(p.matrix))


def _block_diagonal(matrices):
    n = sum(map(len, matrices))
    block, offset = [], 0
    for m in matrices:
        for row in m:
            block.append([0] * offset + list(row) + [0] * (n - offset - len(m)))
        offset += len(m)
    return block


_ATOM_RE = re.compile(r"^([AD])(\d+)(t?)$")


def atom_from_name(text):
    m = _ATOM_RE.match(text.strip())
    if not m:
        raise PolyFormError(f"cannot parse atom name: {text!r}")
    kind, num, flag = m.groups()
    num = int(num)
    if kind == "A":
        if flag:
            raise PolyFormError(f"cannot parse atom name: {text!r}")
        if num < 1:
            raise PolyFormError("chain atoms need index at least 1")
        return Atom("A", num, (0,))
    if num < 3:
        raise PolyFormError("dihedral atoms need index at least 3")
    return Atom("Dt" if flag else "D", num, (0, 1))


def parse_model(text):
    """Parse a sum of atom names, e.g. 'A2+D5t', into a polynomial."""
    parts = [s.strip() for s in text.split("+")]
    if not parts or any(not s for s in parts):
        raise PolyFormError(f"cannot parse model string: {text!r}")
    return build(_block_diagonal([atom_from_name(part).template() for part in parts]))
