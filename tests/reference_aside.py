"""The A-side tensor table by a dense double loop, kept out of the package.

dense_tensor_model fills every factor's table over all vertex pairs and
convolves every pair of objects, factor by factor.  It is the reference
for quivercat.tensor_model, which folds the factors over their nonzero
entries only.
"""

from hmskit.quivercat import BigradedTable, QuiverError, simple_hom_dims


def dense_tensor_model(quivers):
    if not quivers:
        raise QuiverError("tensor model needs at least one factor")

    def tuples(qs):
        if not qs:
            yield ()
            return
        for head in range(qs[0].rank):
            for tail in tuples(qs[1:]):
                yield (head,) + tail

    objects = list(tuples(quivers))
    index = {obj: n for n, obj in enumerate(objects)}
    # per-factor sparse tables: (i, j) -> {k: dim}
    factor = []
    for q in quivers:
        tbl = {}
        for i in range(q.rank):
            for j in range(q.rank):
                ks = {}
                for k in (0, 1):
                    d = simple_hom_dims(q, i, j, k)
                    if d:
                        ks[k] = d
                if ks:
                    tbl[(i, j)] = ks
        factor.append(tbl)

    dims = {}
    for src in objects:
        for dst in objects:
            conv = {0: 1}
            dead = False
            for t, tbl in enumerate(factor):
                ks = tbl.get((src[t], dst[t]))
                if not ks:
                    dead = True
                    break
                nxt = {}
                for k1, d1 in conv.items():
                    for k2, d2 in ks.items():
                        nxt[k1 + k2] = nxt.get(k1 + k2, 0) + d1 * d2
                conv = nxt
            if dead:
                continue
            si, di = index[src], index[dst]
            for k, d in conv.items():
                dims[(si, di, k)] = d
    labels = [tuple(quivers[t].vertices[v] for t, v in enumerate(obj)) for obj in objects]
    return BigradedTable(labels, dims)
