"""Exact integer linear algebra plus sparse multivariate polynomials.

Polynomial coefficients lie in Z[i]: python ints, and GaussInt (a Gaussian
integer a + b*i held as a pair of ints, for the factorizations that need a
square root of -1).  The dense routines work on integer matrices and stay
in Z: det_int, smith_normal_form, hermite, int_kernel and charpoly, and
mat_inverse, which returns the inverse as an integer matrix over its least
denominator, read off the Smith normal form.  Every rank of a hom complex
comes from int_rank, a sparse fraction-free elimination over Z; a
Q(i)-linear map reaches it through integer_columns.
Nothing in this module (or in anything built on top of it) touches floating
point or complex; every number is an int or a GaussInt.
"""

from math import gcd


# ------------------------------------------------------------------ matrices
# Matrices are plain lists of lists, row major.  Empty matrices are allowed
# and show up naturally (rank-0 free modules), so the helpers take explicit
# dimensions where the shape cannot be inferred.


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_shape(m):
    rows = len(m)
    cols = len(m[0]) if rows else 0
    return rows, cols


def mat_mul(a, b):
    ra, ca = mat_shape(a)
    rb, cb = mat_shape(b)
    if ca != rb:
        raise ValueError("matrix shape mismatch in product")
    out = [[0] * cb for _ in range(ra)]
    for i in range(ra):
        arow = a[i]
        orow = out[i]
        for k in range(ca):
            v = arow[k]
            if v:
                brow = b[k]
                for j in range(cb):
                    if brow[j]:
                        orow[j] += v * brow[j]
    return out


def mat_transpose(m):
    rows, cols = mat_shape(m)
    return [[m[i][j] for i in range(rows)] for j in range(cols)]


def det_int(a):
    """Determinant of a square integer matrix (Bareiss, fraction free)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


# --------------------------------------------------------- Smith normal form


def _snf_swap_rows(m, u, i, j):
    m[i], m[j] = m[j], m[i]
    u[i], u[j] = u[j], u[i]


def _snf_swap_cols(m, v, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _snf_add_row(m, u, dst, src, q):
    # row dst += q * row src
    m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]
    u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]


def _snf_add_col(m, v, dst, src, q):
    for row in m:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def smith_normal_form(a):
    """Smith normal form of an integer matrix.

    Returns (U, D, V) with U*a*V = D, U and V unimodular, D diagonal with
    non-negative entries satisfying d1 | d2 | ... .
    """
    rows, cols = mat_shape(a)
    m = [list(r) for r in a]
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    k = 0
    limit = min(rows, cols)
    while k < limit:
        # locate smallest nonzero entry in the trailing block (growth control)
        piv = None
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                e = m[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        _snf_swap_rows(m, u, k, piv[0])
        _snf_swap_cols(m, v, k, piv[1])
        dirty = False
        for i in range(k + 1, rows):
            if m[i][k] != 0:
                q = -(m[i][k] // m[k][k])
                _snf_add_row(m, u, i, k, q)
                if m[i][k] != 0:
                    dirty = True
        for j in range(k + 1, cols):
            if m[k][j] != 0:
                q = -(m[k][j] // m[k][k])
                _snf_add_col(m, v, j, k, q)
                if m[k][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders left, pick a new pivot in the same slot
        # pivot must divide every entry of the trailing block
        stained = False
        pk = m[k][k]
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if m[i][j] % pk != 0:
                    _snf_add_row(m, u, k, i, 1)
                    stained = True
                    break
            if stained:
                break
        if stained:
            continue
        k += 1
    for i in range(limit):
        if m[i][i] < 0:
            for j in range(cols):
                m[i][j] = -m[i][j]
            for j in range(rows):
                u[i][j] = -u[i][j]
    return u, m, v


def snf_diagonal(d):
    rows, cols = mat_shape(d)
    return [d[i][i] for i in range(min(rows, cols))]


def mat_inverse(a):
    """Exact inverse of a square integer matrix as (M, den), a^-1 = M / den.

    From the Smith normal form U a V = D: a^-1 = V D^-1 U, written over the
    last invariant factor, which every other one divides; as U and V are
    unimodular, it is the least common denominator of the entries.
    """
    n = len(a)
    u, d, v = smith_normal_form(a)
    diag = snf_diagonal(d)
    if 0 in diag:
        raise ValueError("matrix is singular")
    den = diag[-1] if diag else 1
    scale = [den // x for x in diag]
    return [[sum(v[i][k] * scale[k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)], den


# ------------------------------------------------------- Hermite normal form


def hermite(rows, n):
    """Hermite basis of the lattice spanned by integer rows of length n.

    Returns the basis rows in echelon form: each row's first nonzero entry,
    its pivot, is positive and lies right of the pivot of the row above,
    and every entry above a pivot lies in [0, pivot).  Every generating set
    of a lattice gives the same basis.
    """
    basis = []
    work = [list(r) for r in rows if any(r)]
    for c in range(n):
        live = [r for r in work if r[c]]
        work = [r for r in work if not r[c]]
        # Euclid on column c: reduce every row by the one of least |entry|
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[c]))
            piv = live[0]
            rest = [[x - (r[c] // piv[c]) * y for x, y in zip(r, piv)] for r in live[1:]]
            work += [r for r in rest if not r[c] and any(r)]
            live = [piv] + [r for r in rest if r[c]]
        if live:
            piv = live[0] if live[0][c] > 0 else [-x for x in live[0]]
            basis = [[x - (b[c] // piv[c]) * y for x, y in zip(b, piv)] for b in basis] + [piv]
    return basis


# ------------------------------------------------------------ integer kernel


def int_kernel(m):
    """Basis of the integer lattice {v in Z^cols : m v = 0}."""
    rows, cols = mat_shape(m)
    u, d, v = smith_normal_form(m)
    diag = snf_diagonal(d)
    rank = sum(1 for x in diag if x != 0)
    # kernel is spanned by the columns of V past the rank
    return [[v[i][j] for i in range(cols)] for j in range(rank, cols)]


# ------------------------------------------------- characteristic polynomial


def charpoly(m):
    """Characteristic polynomial det(t*I - m) of an integer matrix.

    Faddeev-LeVerrier over Z: the k-th coefficient is -trace/k, an exact
    division for an integer matrix.  Returns the int coefficient list
    [1, c1, ..., cn] for t^n + c1 t^(n-1) + ... + cn.
    """
    n = len(m)
    coeffs = [1]
    work = [list(row) for row in m]
    for k in range(1, n + 1):
        ck = -sum(work[i][i] for i in range(n)) // k
        coeffs.append(ck)
        if k == n:
            break
        for i in range(n):
            work[i][i] += ck
        work = mat_mul(m, work)
    return coeffs


# ---------------------------------------------------------- Gaussian integers


def _integral(v):
    """v as a python int; anything but an int raises TypeError."""
    if isinstance(v, int):
        return int(v)
    raise TypeError(f"not a Gaussian integer: {v!r}")


class GaussInt:
    """Exact Gaussian integer re + im*i, stored as a pair of python ints.

    Mixes with ints; any other number type raises TypeError rather than
    leaving Z[i].  Compares equal to the int re when im is 0.  Instances
    are treated as immutable.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _integral(re)
        self.im = _integral(im)

    @staticmethod
    def _of(v):
        """v as a GaussInt, or None for a type that is not a number here."""
        if isinstance(v, GaussInt):
            return v
        if isinstance(v, int):
            return GaussInt(v)
        return None

    def __add__(self, other):
        o = self._of(other)
        if o is None:
            return NotImplemented
        return GaussInt(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussInt(-self.re, -self.im)

    def __sub__(self, other):
        o = self._of(other)
        if o is None:
            return NotImplemented
        return GaussInt(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._of(other)
        if o is None:
            return NotImplemented
        return GaussInt(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        if isinstance(other, GaussInt):
            return self.re == other.re and self.im == other.im
        if isinstance(other, int):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def format(self):
        """Text such as 'i', '-3*i' or '2-i'."""
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}*i"
        if self.re == 0:
            return ("-" if self.im < 0 else "") + imag
        if self.im == 0:
            return str(self.re)
        return f"{self.re}{'-' if self.im < 0 else '+'}{imag}"

    def __repr__(self):
        return f"GaussInt({self.re}, {self.im})"


I = GaussInt(0, 1)


def _canonical(c):
    """Canonical coefficient: an int, or a GaussInt whose imaginary part is
    nonzero; anything but an int or a GaussInt raises TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, GaussInt):
        return c.re if c.im == 0 else c
    return _integral(c)


def integer_columns(cols):
    """Integer columns with twice the rank of a sparse Q(i)-linear map.

    `cols` holds sparse columns {row: value} with int or GaussInt values.
    The map is written over Q in the basis {e, i*e}: row r of a column
    a + i*b becomes rows 2r (a) and 2r + 1 (b), and each column v gives the
    two columns v and i*v = -b + i*a, so the integer rank of the result is
    exactly twice the Q(i)-rank of `cols`.  Positions are kept: input column
    s becomes output columns 2s and 2s + 1, and an empty column gives two
    empty ones.
    """
    out = []
    for col in cols:
        re_col = {}
        im_col = {}
        for r, v in col.items():
            a, b = (v.re, v.im) if isinstance(v, GaussInt) else (v, 0)
            if a:
                re_col[2 * r] = a
                im_col[2 * r + 1] = a
            if b:
                re_col[2 * r + 1] = b
                im_col[2 * r] = -b
        out.append(re_col)
        out.append(im_col)
    return out


# ------------------------------------------------------- sparse integer rank
# The matrices coming out of the graded hom computations are sparse, and
# every entry ranked on the models measured is +-1.  The rank comes from a
# fraction-free elimination in two phases:
#
# - peeling: rows are {col: int} dicts, indexed by a col -> set(row ids)
#   map; while some column meets exactly one live row, that row is a pivot
#   on that column and is removed with no arithmetic.  This takes nearly all
#   pivots (8,935 of 8,963 in the 100 rank calls of the benchmark's period
#   total, which leave 32 core rows);
# - a row echelon of the core, the rows left over, in row order.  The core
#   has at most 8 rows on the benchmark's models and at most 32 on the
#   largest table measured (D4t+D4t+A2), so it needs no pivot order; a
#   large core, which no model produces, would be slow.


def int_rank(rows, pivots):
    """Rank of an integer matrix given as a list of {col: value} dicts.

    Zero entries must be absent from the dicts.  The input is not mutated.
    The pivot column of each step is appended to the list `pivots`: the
    rows restricted to those columns have full rank, since each pivot row
    is zero in the columns of the earlier pivots (a peeled row is the only
    live row in its column, and a core row is reduced by every earlier
    pivot row of the core).
    """
    cols = {}
    for i, r in enumerate(rows):
        for c in r:
            if c in cols:
                cols[c].add(i)
            else:
                cols[c] = {i}
    rank = 0
    peeled = set()
    # a queue: the loop also visits the columns appended while it runs
    single = [c for c, rows_c in cols.items() if len(rows_c) == 1]
    for pc in single:
        rows_c = cols[pc]
        if not rows_c:
            continue  # its one row was peeled on another column
        i = rows_c.pop()
        peeled.add(i)
        rank += 1
        pivots.append(pc)
        for c in rows[i]:
            rows_c = cols[c]
            rows_c.discard(i)
            if len(rows_c) == 1:
                single.append(c)
    if len(peeled) == len(rows):
        return rank
    # (pivot column, pivot value, rest of the pivot row) of each core pivot
    echelon = []
    for i, r in enumerate(rows):
        if i in peeled or not r:
            continue
        row = dict(r)
        for pc, pv, prow in echelon:
            a = row.pop(pc, 0)
            if not a:
                continue
            # row <- f*row - m*prow clears column pc
            g = gcd(pv, a)
            f, m = pv // g, a // g
            for c in row:
                row[c] *= f
            for c, v in prow.items():
                w = row.get(c, 0) - m * v
                if w:
                    row[c] = w
                else:
                    del row[c]
            g = 0
            for v in row.values():
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                for c in row:
                    row[c] //= g
        if row:
            pc = min(row, key=lambda c: (abs(row[c]) != 1, c))
            echelon.append((pc, row.pop(pc), row))
            rank += 1
            pivots.append(pc)
    return rank


# ------------------------------------------------------ sparse polynomials


class Poly:
    """Sparse multivariate polynomial with exact coefficients.

    Coefficients lie in Z[i] and are canonical: a plain int, or a GaussInt
    when the imaginary part is nonzero; any other coefficient raises
    TypeError.  So a polynomial has the same terms however it was computed,
    and the polynomials over Q, which are all integral, do their arithmetic
    on machine-size ints.  Terms are stored in a dict keyed by exponent
    tuples; zero coefficients are never kept.  Instances are treated as
    immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                c = _canonical(coeff)
                if not c:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError("exponent vector has wrong length")
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent")
                clean[exps] = clean.get(exps, 0) + c
            clean = {e: _canonical(c) for e, c in clean.items() if c}
        self.terms = clean

    # ---- constructors

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def variable(cls, nvars, i, power=1):
        exps = [0] * nvars
        exps[i] = power
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    # ---- queries

    def is_gaussian(self):
        """True when some coefficient has a nonzero imaginary part."""
        return any(isinstance(c, GaussInt) for c in self.terms.values())

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- arithmetic

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.nvars, terms)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, GaussInt)):
            return Poly(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.nvars, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, GaussInt)):
            return self * other
        return NotImplemented

    # ---- display

    def format(self):
        if not self.terms:
            return "0"
        names = default_var_names(self.nvars)
        pieces = []
        for exps, coeff in sorted(self.terms.items(), reverse=True):
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            negative, mag = _signed_coeff(coeff)
            text = "*".join(t for t in (mag, *factors) if t) or "1"
            pieces.append((negative, text))
        out = []
        for i, (negative, text) in enumerate(pieces):
            if i == 0:
                out.append(("-" if negative else "") + text)
            else:
                out.append(("- " if negative else "+ ") + text)
        return " ".join(out)

    def __repr__(self):
        return f"Poly({self.format()})"


def _signed_coeff(c):
    """(negative, magnitude text) of a coefficient; a unit's text is ''.

    A coefficient with both a real and an imaginary part is printed whole
    in parentheses, e.g. (1-2*i).
    """
    if isinstance(c, GaussInt):
        if c.re:
            return False, f"({c.format()})"
        return c.im < 0, (-c if c.im < 0 else c).format()
    a = abs(c)
    return c < 0, "" if a == 1 else str(a)


def default_var_names(n):
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{i + 1}" for i in range(n)]
