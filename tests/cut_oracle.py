"""The level cut over Fraction geometry, kept as an oracle for ``cut_at_levels``.

Every piece of a simplex cut by a slab or a level is described by its
Fraction lift, cut points are named by their edge parameter, and each
piece's dimension is the rank over Q of its barycentric vertex coordinates.
The package cuts on integer level ranks instead; this slow version must give
the same refined complex, field by field.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Dict, List, Optional, Sequence, Tuple

from tamebars.complexes import CircleMap, Simplex, SimplexTable
from tamebars.cutting import CutComplex, CutInconsistency, LevelIndex
from tamebars.field import QQ
from tamebars.matrix import Mat

CutId = Tuple[str, int, int, Fraction]
_Desc = Tuple[Simplex, Tuple[Fraction, ...], Optional[Fraction], Optional[Fraction]]


def _order_key(vid):
    # originals (ints) first by position, then cut points by edge and parameter
    if isinstance(vid, int):
        return (0, vid, 0, 0)
    _, u, v, s = vid
    return (1, u, v, s)


def _edge_cut_id(u: int, v: int, gu: Fraction, gv: Fraction, level: Fraction) -> CutId:
    s = (level - gu) / (gv - gu)
    if u < v:
        return ("cut", u, v, s)
    return ("cut", v, u, 1 - s)


def _piece_vertices(desc: _Desc) -> List:
    tau, lifted, lo, hi = desc
    out = []
    for i, v in enumerate(tau):
        g = lifted[i]
        if (lo is None or g >= lo) and (hi is None or g <= hi):
            out.append(v)
    for i in range(len(tau)):
        for j in range(i + 1, len(tau)):
            gi, gj = lifted[i], lifted[j]
            if gi == gj:
                continue
            for level in {lo, hi}:
                if level is not None and min(gi, gj) < level < max(gi, gj):
                    out.append(_edge_cut_id(tau[i], tau[j], gi, gj, level))
    return out


def _affine_dim(tau: Simplex, vset: Sequence) -> int:
    slot = {v: i for i, v in enumerate(tau)}
    pts = []
    for vid in vset:
        coord = [Fraction(0)] * len(tau)
        if isinstance(vid, int):
            coord[slot[vid]] = Fraction(1)
        else:
            _, u, v, s = vid
            coord[slot[u]] = 1 - s
            coord[slot[v]] = s
        pts.append(coord)
    base = pts[0]
    rows = [[p[i] - base[i] for i in range(len(tau))] for p in pts[1:]]
    if not rows:
        return 0
    return Mat(QQ, rows, len(tau)).rank()


def _facet_candidates(desc: _Desc) -> List[_Desc]:
    tau, lifted, lo, hi = desc
    cands: List[_Desc] = []
    if len(tau) > 1:
        for i in range(len(tau)):
            cands.append((tau[:i] + tau[i + 1:], lifted[:i] + lifted[i + 1:], lo, hi))
    if lo != hi:
        if lo is not None:
            cands.append((tau, lifted, lo, lo))
        if hi is not None:
            cands.append((tau, lifted, hi, hi))
    return cands


def _triangulate(desc: _Desc, memo: Dict[frozenset, List[tuple]]) -> List[tuple]:
    """Pulling triangulation of one piece; simplices are tuples of vertex ids."""
    vset = _piece_vertices(desc)
    if not vset:
        return []
    vset = sorted(set(vset), key=_order_key)
    key = frozenset(vset)
    if key in memo:
        return memo[key]
    tau = desc[0]
    d = _affine_dim(tau, vset)
    if len(vset) == d + 1:
        memo[key] = [tuple(vset)]
        return memo[key]
    v0 = vset[0]
    facets: Dict[frozenset, _Desc] = {}
    for cand in _facet_candidates(desc):
        cvs = _piece_vertices(cand)
        if not cvs:
            continue
        fkey = frozenset(cvs)
        if fkey == key or fkey in facets:
            continue
        if _affine_dim(tau, sorted(set(cvs), key=_order_key)) == d - 1:
            facets[fkey] = cand
    result = []
    for fkey in sorted(facets, key=lambda k: sorted(_order_key(v) for v in k)):
        if v0 in fkey:
            continue
        for s in _triangulate(facets[fkey], memo):
            result.append(tuple(sorted((v0,) + s, key=_order_key)))
    memo[key] = result
    return result


def _intervals_for(cuts: List[Fraction], lo_g: Fraction, hi_g: Fraction,
                   bounded: bool) -> List[Tuple[Optional[Fraction], Optional[Fraction]]]:
    """Slab and level constraints meeting [lo_g, hi_g]."""
    out: List[Tuple[Optional[Fraction], Optional[Fraction]]] = []
    inner = [c for c in cuts if lo_g <= c <= hi_g]
    out.extend((c, c) for c in inner)
    if not bounded:
        ext: List[Optional[Fraction]] = [None] + list(cuts) + [None]
    else:
        ext = list(cuts)
    for a, b in zip(ext, ext[1:]):
        if a is not None and a > hi_g:
            continue
        if b is not None and b < lo_g:
            continue
        if a is not None and b is not None and a == b:
            continue
        out.append((a, b))
    return out


def oracle_cut_at_levels(table: SimplexTable, f, levels: Sequence[Fraction]) -> CutComplex:
    circular = isinstance(f, CircleMap)
    if circular:
        classes = sorted({Fraction(c) % 1 for c in levels})
        if not classes:
            raise ValueError("circle cutting needs at least one level")
    else:
        classes = sorted({Fraction(c) for c in levels})

    memo: Dict[frozenset, List[tuple]] = {}
    simplex_set = set()
    cut_values: Dict[CutId, Fraction] = {}
    winding_acc: Dict[Tuple, int] = {}

    for sigma in table.simplices:
        if circular:
            lifted = tuple(f.lift(sigma))
            lo_g, hi_g = min(lifted), max(lifted)
            k0, k1 = floor(lo_g) - 1, floor(hi_g) + 2
            cuts = sorted(c + k for c in classes for k in range(k0, k1 + 1))
        else:
            lifted = tuple(f.values[v] for v in sigma)
            lo_g, hi_g = min(lifted), max(lifted)
            cuts = classes
        for lo, hi in _intervals_for(cuts, lo_g, hi_g, bounded=circular):
            desc = (sigma, lifted, lo, hi)
            pieces = _triangulate(desc, memo)
            simplex_set.update(pieces)
            slot = {v: i for i, v in enumerate(sigma)}
            for piece in pieces:
                plift = []
                for vid in piece:
                    if isinstance(vid, int):
                        plift.append(lifted[slot[vid]])
                    else:
                        _, u, v, s = vid
                        gu, gv = lifted[slot[u]], lifted[slot[v]]
                        g = gu + s * (gv - gu)
                        plift.append(g)
                        cut_values[vid] = g if not circular else g % 1
                if circular:
                    # winding = lift difference minus angle difference, and the
                    # stored angle of x is plift(x) mod 1
                    for i in range(len(piece)):
                        for j in range(i + 1, len(piece)):
                            w = (plift[j] - plift[j] % 1) - (plift[i] - plift[i] % 1)
                            ww = int(w)
                            prev = winding_acc.setdefault((piece[i], piece[j]), ww)
                            if prev != ww:
                                raise CutInconsistency("inconsistent refined winding")

    ids = sorted({v for s in simplex_set for v in s}, key=_order_key)
    pos = {vid: i for i, vid in enumerate(ids)}
    values: List[Fraction] = []
    for vid in ids:
        if isinstance(vid, int):
            values.append(f.angles[vid] if circular else f.values[vid])
        else:
            values.append(cut_values[vid])

    refined = [tuple(pos[v] for v in s) for s in simplex_set]
    new_table = SimplexTable(ids, refined)

    windings: Dict[Tuple[int, int], int] = {}
    if circular:
        # the accumulator covers every closure edge: each is a vertex pair
        # inside some emitted piece simplex
        for (a, b), w in winding_acc.items():
            pa, pb = pos[a], pos[b]
            if pa > pb:
                pa, pb, w = pb, pa, -w
            if w != 0:
                windings[(pa, pb)] = w
    index = LevelIndex(classes, circular)
    ranks = [index.rank(x) for x in values]
    return CutComplex(table, new_table, values, classes, circular, ranks, windings)
