"""Reference for matfac.generator_collection: the per-object tensor loop.

The collection as it was first written: every object of an atom is twisted
on its own, and each object of the product is the tensor of its factors'
objects, one tensor_mf per object.  Used to check that tensoring each pair
of forms once and then twisting gives the same objects.
"""

from hmskit.factorization import shift_mf, tensor_mf
from hmskit.grading import sum_grading_maps
from hmskit.matfac import atom_collection


def _objects(atom):
    entries, forms = atom_collection(atom)
    built = forms()
    return [(label, shift_mf(built[k], s)) for label, k, s in entries]


def reference_collection(p):
    cols = [((n,), label, mf) for n, (label, mf) in enumerate(_objects(p.atoms[0]))]
    for atom in p.atoms[1:]:
        nxt = _objects(atom)
        maps = sum_grading_maps(cols[0][2].ctx, nxt[0][1].ctx)
        cols = [
            (t + (n,), f"{l1}|{l2}", tensor_mf(k1, k2, maps))
            for t, l1, k1 in cols
            for n, (l2, k2) in enumerate(nxt)
        ]
    kinds = tuple(atom.name for atom in p.atoms)
    for t, _, mf in cols:
        mf.coords = ("collection", kinds, t)
    return [(label, mf) for _, label, mf in cols]
