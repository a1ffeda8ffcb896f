"""Level-cut subdivision: refine a complex so fibers become subcomplexes.

Cutting a simplex at a value c slices it along the hyperplane f = c.  Doing
this for every critical and regular value at once yields polytope pieces whose
vertices all lie on original edges; each piece is triangulated by the pulling
triangulation induced by a global vertex order (cone from the smallest vertex
over the facets avoiding it).  Pulling triangulations restrict to pulling
triangulations on faces, so pieces of shared faces subdivide consistently and
the union over all simplices is again a simplicial complex.

Circle-valued maps are cut per simplex through the lift given by the winding
cocycle; every integer translate of every level that crosses the lift window
is cut, and the refined complex carries a refined winding cocycle.

Once cut, the complex is indexed by level: values become integer ranks and
simplices are bucketed by the range of ranks they span, so a fiber or slab
is read off the buckets instead of comparing every simplex against its ends.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import ceil, floor
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import CircleMap, RealMap, Simplex, SimplexTable
from .field import QQ
from .matrix import Mat


class LevelNotCut(ValueError):
    """Raised when a fiber or slab is requested at a level that was not cut."""


class CutInconsistency(RuntimeError):
    """Internal failure while cutting or unrolling (indicates a bug)."""


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


class LevelIndex:
    """Simplices of a cut complex bucketed by the integer ranks they span.

    The rank of a value is 2k+1 at the k-th cut level and 2k strictly between
    levels k-1 and k (0 below all of them), so comparing a value with a cut
    level is comparing ranks.  For circle maps ranks live on the lift: one
    turn adds ``period`` = 2 * len(levels).  A simplex spans the lowest and
    highest rank of its lifted vertices; circle spans are shifted by whole
    turns so that the low end lies in [0, period).
    """

    def __init__(self, levels: List[Fraction], circular: bool):
        self.levels = levels
        self.circular = circular
        self.period = 2 * len(levels)
        self.buckets: Dict[Tuple[int, int], List[int]] = {}
        self.highs: Dict[int, List[int]] = {}  # low end -> sorted high ends

    def rank(self, x: Fraction) -> int:
        turns = floor(x) if self.circular else 0
        x = x - turns
        k = bisect_left(self.levels, x)
        on_level = k < len(self.levels) and self.levels[k] == x
        return 2 * k + on_level + self.period * turns

    def level_rank(self, x: Fraction) -> Optional[int]:
        """The rank of a cut level, or None when x is not cut."""
        r = self.rank(x)
        return r if r % 2 else None

    def add(self, idx: int, ranks: Sequence[int]) -> None:
        lo, hi = min(ranks), max(ranks)
        if self.circular:
            shift = lo - lo % self.period
            lo, hi = lo - shift, hi - shift
        bucket = self.buckets.get((lo, hi))
        if bucket is None:
            bucket = self.buckets[(lo, hi)] = []
            insort(self.highs.setdefault(lo, []), hi)
        bucket.append(idx)

    def at(self, r: int) -> List[int]:
        """Simplices lying on the level of rank r, in ascending index order."""
        if self.circular:
            r %= self.period
        return list(self.buckets.get((r, r), ()))

    def within(self, lo: int, hi: int) -> List[int]:
        """Simplices whose span fits in [lo, hi] (up to whole turns on a
        circle), in ascending index order."""
        out: List[int] = []
        # on a circle one turn of low ends visits every bucket; the first
        # turn that fits a bucket's low end leaves the most room above it
        top = min(hi, lo + self.period - 1) if self.circular else hi
        for p in range(lo, top + 1):
            shift = p - p % self.period if self.circular else 0
            for h in self.highs.get(p - shift, ()):
                if h + shift > hi:
                    break
                out.extend(self.buckets[(p - shift, h)])
        out.sort()
        return out


@dataclass
class CutComplex:
    """A refined complex in which every cut level's fiber is a subcomplex."""

    source: SimplexTable
    table: SimplexTable
    values: List[Fraction]
    levels: List[Fraction]
    circular: bool
    windings: Dict[Tuple[int, int], int] = dc_field(default_factory=dict)
    provenance: List[tuple] = dc_field(default_factory=list)
    index: LevelIndex = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.index = LevelIndex(self.levels, self.circular)
        vrank = [self.index.rank(x) for x in self.values]
        period = self.index.period
        for i, s in enumerate(self.table.simplices):
            if self.circular:
                # ranks of the lift based at s[0]: a winding of w turns adds w periods
                base = s[0]
                self.index.add(i, [vrank[v] + period * self.windings.get((base, v), 0)
                                   for v in s])
            else:
                self.index.add(i, [vrank[v] for v in s])

    def refined_map(self):
        if self.circular:
            return CircleMap(self.values, dict(self.windings))
        return RealMap(list(self.values))


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


def cut_at_levels(table: SimplexTable, f, levels: Sequence[Fraction]) -> CutComplex:
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
    provenance: List[tuple] = []
    for vid in ids:
        if isinstance(vid, int):
            values.append(f.angles[vid] if circular else f.values[vid])
            provenance.append(("original", vid))
        else:
            values.append(cut_values[vid])
            provenance.append(vid)

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
    return CutComplex(table, new_table, values, classes, circular, windings, provenance)


@dataclass
class SubcomplexHandle:
    """A face-closed set of simplices of a cut complex."""

    cc: CutComplex
    members: List[int]

    def member_simplices(self) -> List[Simplex]:
        return [self.cc.table.simplices[i] for i in self.members]


def fiber(cc: CutComplex, c: Fraction) -> SubcomplexHandle:
    r = cc.index.level_rank(Fraction(c))
    if r is None:
        raise LevelNotCut(f"level {c} was not cut")
    return SubcomplexHandle(cc, cc.index.at(r))


def slab(cc: CutComplex, a: Fraction, b: Fraction) -> SubcomplexHandle:
    """Simplices whose values lie in [a, b]; circle case up to a deck shift."""
    a, b = Fraction(a), Fraction(b)
    ra, rb = cc.index.level_rank(a), cc.index.level_rank(b)
    if ra is None or rb is None:
        raise LevelNotCut(f"slab ends {a}, {b} were not cut")
    return SubcomplexHandle(cc, cc.index.within(ra, rb))


@dataclass
class CoverSlice:
    """A window of the infinite cyclic cover, cut at its two ends.

    Vertices of the unrolled complex are pairs (v, k); the deck transformation
    shifts k by one.  The slab handle is exactly the preimage of [a, b].
    """

    cover: SimplexTable
    cover_map: RealMap
    cut: CutComplex
    window: SubcomplexHandle
    deck_vertex: Dict[int, int]


def unroll_cover(table: SimplexTable, f: CircleMap, a: Fraction, b: Fraction) -> CoverSlice:
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("cover window needs a < b")
    vert_ids = set()
    simplices = []
    for sigma in table.simplices:
        g = f.lift(sigma)
        off = [gv - f.angles[v] for v, gv in zip(sigma, g)]
        if any(o.denominator != 1 for o in off):
            raise CutInconsistency(f"lift of {sigma} is not an integer shift of its angles")
        lo_g, hi_g = min(g), max(g)
        for t in range(ceil(a - hi_g), floor(b - lo_g) + 1):
            copy = tuple((v, int(o) + t) for v, o in zip(sigma, off))
            simplices.append(copy)
            vert_ids.update(copy)

    ids = sorted(vert_ids, key=lambda p: (p[1], p[0]))
    pos = {vid: i for i, vid in enumerate(ids)}
    cover = SimplexTable(ids, [tuple(sorted(pos[v] for v in s)) for s in simplices])
    cover_map = RealMap([f.angles[v] + k for v, k in ids])

    cut = cut_at_levels(cover, cover_map, [a, b])
    window = slab(cut, a, b)

    def shift(vid):
        if isinstance(vid, int):
            v, k = cover.vertices[vid]
            return pos.get((v, k + 1))
        _, u, v, s = vid
        su, sv = shift(u), shift(v)
        if su is None or sv is None:
            return None
        return ("cut", su, sv, s)

    cut_pos = {vid: i for i, vid in enumerate(cut.table.vertices)}
    deck_vertex = {}
    for i, vid in enumerate(cut.table.vertices):
        img = shift(vid)
        if img is not None and img in cut_pos:
            deck_vertex[i] = cut_pos[img]
    return CoverSlice(cover, cover_map, cut, window, deck_vertex)
