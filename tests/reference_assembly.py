"""Reference for matfac._boundary_columns: the per-slot assembly that the
per-form-pair plans replaced.

For every source slot of every boundary it lays out the d_H f and f d_K
terms again, walks each polynomial's terms and multiplies in the Koszul
sign; the slot degree is shift + rel, added per slot, and the target cell
is found from (q, parity) on its own (cell_keys).  It reads the same cell layout (slot
degrees, offsets, multiplication maps) from the memo but keeps no plan.
Used to cross-check the plan-based assembly column by column.
"""

from itertools import compress

from hmskit.factorization import _block_slots
from hmskit.matfac import _BLOCKS, _cell_base, _cell_key, _cell_offsets, _mult_map, _slot_degrees


def cell_keys(k, h, q, parity):
    """(memo, key, target) of the boundary out of the cell (q, parity) of
    Hom(k, h), parity 0 (even) or 1 (odd): the even cell at q maps to the
    odd cell at q, the odd cell at q to the even cell at q + 1."""
    cell = _cell_base(k, h)
    return cell[0], _cell_key(cell, q, parity), _cell_key(cell, q + parity, 1 - parity)


def reference_boundary_columns(k, h, q, parity, skip=()):
    ctx = k.ctx
    memo, key, target = cell_keys(k, h, q, parity)
    shift, odd = key[2], parity
    rels = memo.rels[_slot_degrees(memo, key[0], key[1], parity)]
    src_off = _cell_offsets(ctx, memo, key)[1]
    dst_off = _cell_offsets(ctx, memo, target)[1]
    kr, hr = (k.rank0, k.rank1), (h.rank0, h.rank1)
    kd, hd = (k.d0, k.d1), (h.d0, h.d1)
    # the target cell's first block and its slot count
    first = _BLOCKS[not odd][0]
    first_len = hr[first[0]] * kr[first[1]]
    # d(f) = d_H f - (-1)^|f| f d_K
    sign = 1 if odd else -1
    keep = bytearray(b"\x01") * src_off[-1]
    for c in skip:
        keep[c] = 0
    cols = []
    for s, (a, b, i, j) in enumerate(_block_slots(_BLOCKS[odd], hr, kr)):
        sel = keep[src_off[s] : src_off[s + 1]]
        block = [{} for _ in sel]
        cols.extend(block)
        if 1 not in sel:
            continue
        live = list(compress(block, sel))
        delta = memo.add(shift, rels[s])
        # d_H f fills the slots (i2, j) of block (1 - a, b), f d_K the slots
        # (i, j2) of block (a, 1 - b); with b = 1 the f d_K term comes first
        at = (0 if (1 - a, b) == first else first_len) + j
        d_h = [(at + i2 * kr[b], hd[a][i2][i], 1) for i2 in range(hr[1 - a])]
        at = (0 if (a, 1 - b) == first else first_len) + i * kr[1 - b]
        f_d = [(at + j2, kd[1 - b][j][j2], sign) for j2 in range(kr[1 - b])]
        for t, poly, sg in f_d + d_h if b else d_h + f_d:
            base = dst_off[t]
            for e, coeff in poly.terms.items():
                v = sg * coeff
                pos = memo.maps.get((delta, e)) or _mult_map(ctx, memo, delta, e)
                for col, p in zip(live, compress(pos, sel)):
                    col[base + p] = v
    return cols
