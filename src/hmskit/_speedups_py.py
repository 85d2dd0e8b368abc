"""Pure python rank kernel over the integers.

The matrices coming out of the graded hom computations are sparse with
modest integer entries (mostly +-1), so the rank comes from one sparse,
fraction-free Gaussian elimination in the spirit of Markowitz pivoting and
structured Gaussian elimination:

- rows are {col: int} dicts, indexed by a col -> set(row ids) map, so a
  pivot step touches only the rows that meet the pivot column;
- the pivot row is the shortest live row, and within it the pivot is a
  unit entry if there is one, then the entry whose column meets the fewest
  live rows, which keeps fill-in low;
- a +-1 pivot updates rows in place; any other pivot uses the gcd-reduced
  multipliers and divides the updated row by its content.
"""

from heapq import heapify, heappop, heappush
from math import gcd


def int_rank(rows, pivots=None):
    """Rank of an integer matrix given as a list of {col: value} dicts.

    Zero entries must be absent from the dicts.  The input is not mutated.
    When `pivots` is a list, the pivot column of each elimination step is
    appended to it: the rows restricted to those columns have full rank,
    since each pivot row is zero in the columns of the earlier pivots.
    """
    work = {}
    cols = {}
    for i, r in enumerate(rows):
        if r:
            work[i] = dict(r)
            for c in r:
                if c in cols:
                    cols[c].add(i)
                else:
                    cols[c] = {i}
    # lazy min-heap of (length, row id); an entry is stale once the row's
    # length changed or the row is gone
    heap = [(len(r), i) for i, r in work.items()]
    heapify(heap)
    rank = 0
    while heap:
        n, pid = heappop(heap)
        prow = work.get(pid)
        if prow is None or len(prow) != n:
            continue
        del work[pid]
        rank += 1
        pc = None
        best = None
        for c, v in prow.items():
            rows_c = cols[c]
            rows_c.discard(pid)
            cost = (v != 1 and v != -1, len(rows_c))
            if best is None or cost < best:
                pc, best = c, cost
        if pivots is not None:
            pivots.append(pc)
        pv = prow.pop(pc)
        unit = pv == 1 or pv == -1
        for i in cols.pop(pc):
            row = work[i]
            a = row.pop(pc)
            # row <- f*row - m*prow clears column pc
            if unit:
                f, m = 1, a * pv
            else:
                g = gcd(pv, a)
                f, m = pv // g, a // g
                for c in row:
                    row[c] *= f
            for c, v in prow.items():
                w = row.get(c, 0) - m * v
                if w:
                    if c not in row:
                        cols[c].add(i)
                    row[c] = w
                elif c in row:
                    del row[c]
                    cols[c].discard(i)
            if not unit:
                g = 0
                for v in row.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for c in row:
                        row[c] //= g
            if row:
                heappush(heap, (len(row), i))
            else:
                del work[i]
    return rank
