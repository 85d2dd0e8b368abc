"""Slow independent reference for hom-space dimensions.

Builds the degree-zero pieces of the 2-periodic hom complex as dense
sympy matrices and takes ranks over the rationals, or over Q(i) when an
entry is a Gaussian integer (sympy's own domain matrices over QQ_I, with no
realification).  Deliberately naive: exponent boxes come from itertools,
entries are multiplied as sympy expressions, nothing is cached.  Used to
cross-check the fast kernel.
"""

import itertools

import sympy
from sympy.polys.matrices import DomainMatrix

from hmskit.exactmat import GaussInt


def _exponents(ctx, delta):
    weights = [d.free[0] for d in ctx.deg_x]
    target = delta.free[0]
    if target < 0:
        return []
    out = []
    for e in itertools.product(*[range(target // w + 1) for w in weights]):
        if sum(a * w for a, w in zip(e, weights)) != target:
            continue
        cls = ctx.zero()
        for i, a in enumerate(e):
            cls = cls + a * ctx.deg_x[i]
        if cls.tors == delta.tors:
            out.append(e)
    return out


def _sym_poly(p, syms):
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        if isinstance(coeff, GaussInt):
            term = sympy.Integer(coeff.re) + sympy.I * coeff.im
        else:
            term = sympy.Rational(coeff)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return expr


def _slots(k, h, q, parity):
    c = k.ctx.deg_c
    out = []
    if parity == "even":
        for i, a in enumerate(h.p0):
            for j, b in enumerate(k.p0):
                out.append(("f0", i, j, a + q * c - b))
        for i, a in enumerate(h.p1):
            for j, b in enumerate(k.p1):
                out.append(("f1", i, j, a + q * c - b))
    else:
        for i, a in enumerate(h.p1):
            for j, b in enumerate(k.p0):
                out.append(("g0", i, j, a + q * c - b))
        for i, a in enumerate(h.p0):
            for j, b in enumerate(k.p1):
                out.append(("g1", i, j, a + (q + 1) * c - b))
    return out


def _basis(ctx, slots):
    out = []
    for kind, i, j, delta in slots:
        for e in _exponents(ctx, delta):
            out.append((kind, i, j, e))
    return out


def _boundary(k, h, q, parity, syms):
    src = _basis(k.ctx, _slots(k, h, q, parity))
    if parity == "even":
        dst = _basis(k.ctx, _slots(k, h, q, "odd"))
    else:
        dst = _basis(k.ctx, _slots(k, h, q + 1, "even"))
    dst_pos = {}
    for idx, (kind, i, j, e) in enumerate(dst):
        dst_pos.setdefault((kind, i, j), {})[e] = idx
    mat = sympy.zeros(len(dst), len(src))

    def emit(col, kind, i, j, poly_expr, mono):
        prod = sympy.expand(poly_expr * mono)
        if prod == 0:
            return
        target = dst_pos.get((kind, i, j), {})
        poly = sympy.Poly(prod, *syms) if syms else None
        if poly is None:
            mat[target[()], col] += prod
            return
        for exps in poly.monoms():
            row = target[tuple(exps)]
            mat[row, col] += poly.coeff_monomial(
                sympy.prod([s**e for s, e in zip(syms, exps)])
            )

    for col, (kind, i, j, e) in enumerate(src):
        mono = sympy.prod([s**a for s, a in zip(syms, e)], start=sympy.Integer(1))
        if parity == "even":
            if kind == "f0":
                for i2 in range(h.rank1):
                    emit(col, "g0", i2, j, _sym_poly(h.d0[i2][i], syms), mono)
                for j2 in range(k.rank1):
                    emit(col, "g1", i, j2, -_sym_poly(k.d1[j][j2], syms), mono)
            else:
                for j2 in range(k.rank0):
                    emit(col, "g0", i, j2, -_sym_poly(k.d0[j][j2], syms), mono)
                for i2 in range(h.rank0):
                    emit(col, "g1", i2, j, _sym_poly(h.d1[i2][i], syms), mono)
        else:
            if kind == "g0":
                for i2 in range(h.rank0):
                    emit(col, "f0", i2, j, _sym_poly(h.d1[i2][i], syms), mono)
                for j2 in range(k.rank1):
                    emit(col, "f1", i, j2, _sym_poly(k.d1[j][j2], syms), mono)
            else:
                for j2 in range(k.rank0):
                    emit(col, "f0", i, j2, _sym_poly(k.d0[j][j2], syms), mono)
                for i2 in range(h.rank1):
                    emit(col, "f1", i2, j, _sym_poly(h.d0[i2][i], syms), mono)
    return mat, len(src)


def _rank(mat):
    if not mat.rows or not mat.cols:
        return 0
    return DomainMatrix.from_Matrix(mat).to_field().rank()


def oracle_hom_dim(k, h, shift):
    syms = sympy.symbols(f"x0:{k.w.nvars}")
    q, p = divmod(shift, 2)
    if p == 0:
        dim = len(_basis(k.ctx, _slots(k, h, q, "even")))
        out_rank = _rank(_boundary(k, h, q, "even", syms)[0])
        in_rank = _rank(_boundary(k, h, q - 1, "odd", syms)[0])
    else:
        dim = len(_basis(k.ctx, _slots(k, h, q, "odd")))
        out_rank = _rank(_boundary(k, h, q, "odd", syms)[0])
        in_rank = _rank(_boundary(k, h, q, "even", syms)[0])
    return dim - out_rank - in_rank
