"""Pure python rank kernel over the integers.

The matrices coming out of the graded hom computations are sparse with
modest integer entries (mostly +-1), so the rank comes from one sparse,
fraction-free Gaussian elimination in two phases, in the spirit of
structured Gaussian elimination and Markowitz pivoting:

- rows are {col: int} dicts, indexed by a col -> set(row ids) map, so a
  pivot step touches only the rows that meet the pivot column;
- peeling: while some column meets exactly one live row, that row is a
  pivot on that column and is simply removed, with no arithmetic, since no
  other row has to be cleared; this takes nearly all pivots of the
  hom-complex boundaries (23,997 of 24,053 in the 270 rank calls of the
  benchmark's period total), and only the rows left over are copied;
- elimination of what is left: the pivot row is the shortest live row,
  and within it the pivot is a unit entry if there is one, then the entry
  whose column meets the fewest live rows, which keeps fill-in low;
- a +-1 pivot updates rows in place; any other pivot uses the gcd-reduced
  multipliers and divides the updated row by its content.
"""

from heapq import heapify, heappop, heappush
from math import gcd


def int_rank(rows, pivots=None):
    """Rank of an integer matrix given as a list of {col: value} dicts.

    Zero entries must be absent from the dicts.  The input is not mutated.
    When `pivots` is a list, the pivot column of each step is appended to
    it: the rows restricted to those columns have full rank, since each
    pivot row is zero in the columns of the earlier pivots (a peeled row is
    the only live row in its column, and an eliminated column is cleared
    from every live row).
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
        if pivots is not None:
            pivots.append(pc)
        for c in rows[i]:
            rows_c = cols[c]
            rows_c.discard(i)
            if len(rows_c) == 1:
                single.append(c)
    work = {i: dict(r) for i, r in enumerate(rows) if r and i not in peeled}
    # lazy min-heap of (length, row id); an entry is stale once the row's
    # length changed or the row is gone
    heap = [(len(r), i) for i, r in work.items()]
    heapify(heap)
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
