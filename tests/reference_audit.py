"""Reference for MatrixFactorization.validate, written on Poly arithmetic.

The audit as it was first written: both products are formed with Poly `*`
and `+`, and each entry's degree is summed term by term as grading elements.
It raises MFError with validate's messages, checks in validate's order, and
caches nothing.  Used to cross-check the audit on term dicts.
"""

from hmskit.exactmat import Poly
from hmskit.factorization import MFError


def _degree(ctx, p):
    if len(ctx.deg_x) != p.nvars:
        raise MFError("polynomial has the wrong number of variables")
    deg = None
    for exps in p.terms:
        d = ctx.zero()
        for i, e in enumerate(exps):
            if e:
                d = d + e * ctx.deg_x[i]
        if deg is None:
            deg = d
        elif deg != d:
            raise MFError(f"polynomial is not homogeneous: {p.format()}")
    return deg


def reference_validate(m):
    ctx = m.ctx
    nv = len(ctx.deg_x)
    r0, r1 = m.rank0, m.rank1
    if m.w.nvars != nv:
        raise MFError("potential has the wrong number of variables")
    if len(m.d0) != r1 or any(len(row) != r0 for row in m.d0):
        raise MFError("d0 has the wrong shape")
    if len(m.d1) != r0 or any(len(row) != r1 for row in m.d1):
        raise MFError("d1 has the wrong shape")
    wc = _degree(ctx, m.w)
    if wc is not None and wc != ctx.deg_c:
        raise MFError("potential is not homogeneous of degree c")
    for name, a, b, ra, rb in (("d1*d0", m.d1, m.d0, r0, r1), ("d0*d1", m.d0, m.d1, r1, r0)):
        for i in range(ra):
            for j in range(ra):
                entry = Poly.zero(nv)
                for k in range(rb):
                    entry = entry + a[i][k] * b[k][j]
                if entry != (m.w if i == j else Poly.zero(nv)):
                    raise MFError(f"{name} is not W times the identity")
    checks = (("d0", m.d0, m.p1, m.p0, ctx.zero()), ("d1", m.d1, m.p0, m.p1, ctx.deg_c))
    for name, d, rows, cols, lift in checks:
        for i, row in enumerate(rows):
            for j, col in enumerate(cols):
                deg = _degree(ctx, d[i][j])
                if deg is not None and deg != row + lift - col:
                    raise MFError(
                        f"{name}[{i}][{j}] = {d[i][j].format()} is not "
                        "homogeneous of the degree forced by its slots"
                    )
    return True
