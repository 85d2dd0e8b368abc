# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled rank kernel for dense mid-size integer matrices.

Mirrors the contract of _speedups_py.int_rank.  Works on C long long with
an overflow guard; anything too large falls back to the sparse pure python
kernel (Markowitz-pivoted elimination), so results are always exact.
"""

from libc.stdlib cimport malloc, free

from . import _speedups_py

DEF MAX_DIM = 2048
# pivot*value products must stay inside 64 bits; entries are renormalized
# by their gcd every elimination step, so 2^31 head-room is enough in
# practice and we bail out whenever it is not.
DEF ENTRY_LIMIT = 2147483647


cdef long long c_gcd(long long a, long long b):
    if a < 0:
        a = -a
    if b < 0:
        b = -b
    while b:
        a, b = b, a % b
    return a


def int_rank(rows):
    cdef Py_ssize_t nrows = len(rows)
    if nrows == 0:
        return 0
    cdef long long maxcol = -1
    cdef long long v
    for row in rows:
        for c, val in row.items():
            if c > maxcol:
                maxcol = c
            # compare as python ints: val may not fit in a C long long
            if val > ENTRY_LIMIT or val < -ENTRY_LIMIT:
                return _speedups_py.int_rank(rows)
    cdef Py_ssize_t ncols = maxcol + 1
    if ncols == 0:
        return 0
    if nrows > MAX_DIM or ncols > MAX_DIM or nrows * ncols > 4194304:
        return _speedups_py.int_rank(rows)

    cdef long long *m = <long long *> malloc(nrows * ncols * sizeof(long long))
    if m == NULL:
        raise MemoryError()
    cdef Py_ssize_t i, j, k
    for i in range(nrows * ncols):
        m[i] = 0
    i = 0
    for row in rows:
        for c, val in row.items():
            m[i * ncols + <Py_ssize_t> c] = val
        i += 1

    cdef Py_ssize_t rank = 0
    cdef Py_ssize_t r = 0
    cdef Py_ssize_t piv_row, piv_col
    cdef long long best, av, pv, a, w, g
    cdef bint overflow = False
    try:
        while r < nrows:
            piv_row = -1
            piv_col = -1
            best = 0
            for i in range(r, nrows):
                for j in range(ncols):
                    v = m[i * ncols + j]
                    if v != 0:
                        av = v if v > 0 else -v
                        if piv_row < 0 or av < best:
                            piv_row = i
                            piv_col = j
                            best = av
                            if best == 1:
                                break
                if best == 1:
                    break
            if piv_row < 0:
                break
            if piv_row != r:
                for j in range(ncols):
                    w = m[r * ncols + j]
                    m[r * ncols + j] = m[piv_row * ncols + j]
                    m[piv_row * ncols + j] = w
            pv = m[r * ncols + piv_col]
            if pv > ENTRY_LIMIT or pv < -ENTRY_LIMIT:
                overflow = True
                break
            for i in range(r + 1, nrows):
                a = m[i * ncols + piv_col]
                if a == 0:
                    continue
                if a > ENTRY_LIMIT or a < -ENTRY_LIMIT:
                    overflow = True
                    break
                g = 0
                for j in range(ncols):
                    w = pv * m[i * ncols + j] - a * m[r * ncols + j]
                    m[i * ncols + j] = w
                    if w != 0:
                        g = c_gcd(g, w)
                if g > 1:
                    for j in range(ncols):
                        m[i * ncols + j] = m[i * ncols + j] // g
                for j in range(ncols):
                    w = m[i * ncols + j]
                    if w > ENTRY_LIMIT or w < -ENTRY_LIMIT:
                        overflow = True
                        break
                if overflow:
                    break
            if overflow:
                break
            rank += 1
            r += 1
    finally:
        free(m)
    if overflow:
        return _speedups_py.int_rank(rows)
    return rank
