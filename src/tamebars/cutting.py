"""Level-cut subdivision: refine a complex so fibers become subcomplexes.

Cutting a simplex at a value c slices it along the hyperplane f = c.  Doing
this for every critical and regular value at once yields polytope pieces whose
vertices all lie on original edges; each piece is triangulated by the pulling
triangulation induced by a global vertex order (cone from the smallest vertex
over the facets avoiding it).  Pulling triangulations restrict to pulling
triangulations on faces, so pieces of shared faces subdivide consistently and
the union over all simplices is again a simplicial complex.

Circle-valued maps are cut per simplex through its lift, which the windings
fix: based at the first vertex u, each vertex v sits at its angle plus the
winding from u to v.  Every integer translate of every level that crosses the
lift window is cut, and the refined complex carries a refined winding
cocycle.  The cut and the cover validate the circle map they are given.

The triangulation runs on integer ranks and positions.  A value's rank is
2k+1 on the k-th cut level and 2k strictly between levels k-1 and k, and a
turn of a circle lift adds 2 * len(levels), so a piece compares ranks with
its slab ends only and its vertices, facets and dimension follow from ranks.
The cut points are enumerated from the edges before any piece is built, so
every vertex is named by its final position in the refined complex.

Once cut, the complex is indexed by level: simplices are bucketed by the
range of ranks they span, so a fiber or slab is read off the buckets instead
of comparing every simplex against its ends.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import ceil, floor
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .complexes import (CircleMap, MalformedInput, RealMap, Simplex, SimplexTable,
                        validate_circle_map)

# the most cut points a cut, or lifted simplices a cover window, may have: a
# winding of w turns asks for about w of them, and a 12x12 torus with 60
# angles, the largest circle input the package is timed on, has 18,561
CUT_LIMIT = 200_000


class LevelNotCut(ValueError):
    """Raised when a fiber or slab is requested at a level that was not cut."""


def _turns(f: CircleMap, sigma: Simplex) -> List[int]:
    """Whole turns that the lift of sigma, based at its first vertex, adds to
    the angle of each vertex: the winding from that vertex."""
    return [f.winding(sigma[0], v) for v in sigma]


def _piece(tau: Tuple[int, ...], lo: Optional[int], hi: Optional[int], ctx) -> Tuple[int, ...]:
    """Ascending positions of the vertices of tau ∩ {lo <= rank <= hi}.

    tau indexes the vertices of the simplex being cut; ``ctx`` holds their
    positions, their lift ranks and the position of the cut point on the
    edge (i, j) at a level rank.
    """
    pos, r, cut = ctx
    out = [pos[i] for i in tau if (lo is None or r[i] >= lo) and (hi is None or r[i] <= hi)]
    ends = [x for x in {lo, hi} if x is not None]
    for a, i in enumerate(tau):
        for j in tau[a + 1:]:
            low, high = (r[i], r[j]) if r[i] < r[j] else (r[j], r[i])
            for x in ends:
                if low < x < high:
                    out.append(cut(i, j, x))
    out.sort()
    return tuple(out)


def _dim(tau: Tuple[int, ...], lo: Optional[int], hi: Optional[int], r: List[int]) -> int:
    """Dimension of the nonempty piece tau ∩ {lo <= rank <= hi}."""
    rs = [r[i] for i in tau]
    mn, mx = min(rs), max(rs)
    a = mn if lo is None else max(mn, lo)
    b = mx if hi is None else min(mx, hi)
    if a < b:
        return len(tau) - 1  # the slab meets tau in a full-dimensional piece
    if a == mn or a == mx:
        return rs.count(a) - 1  # the face of tau on one level
    return len(tau) - 2  # a level through the interior of tau


def _triangulate(tau: Tuple[int, ...], lo: Optional[int], hi: Optional[int], ctx,
                 memo: Dict[Tuple[int, ...], List[tuple]]) -> List[tuple]:
    """Pulling triangulation of one piece; simplices are tuples of positions."""
    key = _piece(tau, lo, hi, ctx)
    if not key:
        return []
    if key in memo:
        return memo[key]
    r = ctx[1]
    d = _dim(tau, lo, hi, r)
    if len(key) == d + 1:
        memo[key] = [key]
        return memo[key]
    cands = [(tau[:i] + tau[i + 1:], lo, hi) for i in range(len(tau))] if len(tau) > 1 else []
    if lo != hi:
        cands += [(tau, x, x) for x in (lo, hi) if x is not None]
    facets: Dict[Tuple[int, ...], tuple] = {}
    for cand in cands:
        fkey = _piece(*cand, ctx)
        if fkey and fkey != key and fkey not in facets and _dim(*cand, r) == d - 1:
            facets[fkey] = cand
    v0 = key[0]
    result = [(v0,) + s for fkey in sorted(facets) if v0 not in fkey
              for s in _triangulate(*facets[fkey], ctx, memo)]
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


class CutComplex:
    """A refined complex in which every cut level's fiber is a subcomplex.

    ``ranks`` holds the level rank of each refined value (of its angle, on a
    circle), as ``LevelIndex.rank`` defines it.  ``windings`` is the refined
    winding cocycle, empty on the line.
    """

    def __init__(self, source: SimplexTable, table: SimplexTable, values: List[Fraction],
                 levels: List[Fraction], circular: bool, ranks: List[int],
                 windings: Dict[Tuple[int, int], int]):
        self.source, self.table, self.values, self.levels = source, table, values, levels
        self.circular, self.ranks, self.windings = circular, ranks, windings
        self.index = LevelIndex(levels, circular)
        period = self.index.period
        for i, s in enumerate(table.simplices):
            if circular:
                # ranks of the lift based at s[0]: a winding of w turns adds w periods
                base = s[0]
                self.index.add(i, [ranks[v] + period * windings.get((base, v), 0) for v in s])
            else:
                self.index.add(i, [ranks[v] for v in s])


def cut_at_levels(table: SimplexTable, f, levels: Sequence[Fraction]) -> CutComplex:
    circular = isinstance(f, CircleMap)
    if circular:
        validate_circle_map(table, f)
        classes = sorted({Fraction(c) % 1 for c in levels})
        if not classes:
            raise ValueError("circle cutting needs at least one level")
    else:
        classes = sorted({Fraction(c) for c in levels})
    index = LevelIndex(classes, circular)
    period = index.period
    base = f.angles if circular else f.values
    rank = [index.rank(x) for x in base]

    # the lift of each simplex as whole turns and ranks per vertex, and the
    # number of cut points: the odd ranks strictly inside each edge's lift
    lifts, ncut = [], 0
    for sigma in table.simplices:
        turns = _turns(f, sigma) if circular else [0] * len(sigma)
        r = [rank[v] + period * t for v, t in zip(sigma, turns)]
        if len(sigma) == 2:
            ncut += max(0, max(r) // 2 - (min(r) + 1) // 2)
        lifts.append((turns, r))
    if ncut > CUT_LIMIT:
        raise MalformedInput(f"the cut needs {ncut} cut points, more than {CUT_LIMIT}")

    # one cut point per edge and level rank strictly crossed; edges come in
    # ascending order and s ascends along each, so ids arrive sorted
    used = [s[0] for s in table.simplices if len(s) == 1]
    ids: List = list(used)
    values = [base[v] for v in used]
    ranks = [rank[v] for v in used]
    # a refined vertex's floor in a lift is the turns of the lift at the
    # start of its edge plus its own turns beyond them
    owner, own_turns = list(used), [0] * len(used)
    cutpos: Dict[Tuple[int, int, int], int] = {}
    for sigma, (turns, r) in zip(table.simplices, lifts):
        if len(sigma) != 2:
            continue
        (u, v), (ru, rv) = sigma, r
        gu, gv = base[u], base[v] + turns[1]
        crossed = range((min(ru, rv) + 1) | 1, max(ru, rv), 2)
        for x in (crossed if ru < rv else reversed(crossed)):
            k, c = divmod(x, period)
            cutpos[u, v, x] = len(ids)
            ids.append(("cut", u, v, (classes[c // 2] + k - gu) / (gv - gu)))
            values.append(classes[c // 2])
            ranks.append(c)
            owner.append(u)
            own_turns.append(k)
    opos = {v: i for i, v in enumerate(used)}

    memo: Dict[Tuple[int, ...], List[tuple]] = {}
    pieces = set()
    windings: Dict[Tuple[int, int], int] = {}
    for sigma, (turns, r) in zip(table.simplices, lifts):
        off = [period * t for t in turns]
        ctx = ([opos[v] for v in sigma], r,
               lambda i, j, x: cutpos[sigma[i], sigma[j], x - off[i]])
        tau = tuple(range(len(sigma)))
        # each level the lift meets, then each slab between consecutive
        # levels that meets it (unbounded below and above on the line)
        mn, mx = min(r), max(r)
        spans = [(x, x) for x in range(mn | 1, mx + 1, 2)]
        for a in range((mn - 2) | 1, mx + 1, 2):
            spans.append((a if circular or a > 0 else None,
                          a + 2 if circular or a + 2 < period else None))
        shift = dict(zip(sigma, turns))
        for lo, hi in spans:
            out = _triangulate(tau, lo, hi, ctx, memo)
            pieces.update(out)
            if circular:
                for piece in out:
                    fl = [own_turns[x] + shift[owner[x]] for x in piece]
                    for i, p in enumerate(piece):
                        for j in range(i + 1, len(piece)):
                            if fl[j] != fl[i]:
                                windings[p, piece[j]] = fl[j] - fl[i]
    return CutComplex(table, SimplexTable(ids, pieces), values, classes, circular, ranks, windings)


class SubcomplexHandle(NamedTuple):
    """A face-closed set of simplices of a cut complex."""

    cc: CutComplex
    members: List[int]


def fiber(cc: CutComplex, c: Fraction) -> SubcomplexHandle:
    r = cc.index.level_rank(Fraction(c))
    if r is None:
        raise LevelNotCut(f"level {c} was not cut")
    return SubcomplexHandle(cc, cc.index.within(r, r))


def slab(cc: CutComplex, a: Fraction, b: Fraction) -> SubcomplexHandle:
    """Simplices whose values lie in [a, b]; circle case up to a deck shift."""
    a, b = Fraction(a), Fraction(b)
    ra, rb = cc.index.level_rank(a), cc.index.level_rank(b)
    if ra is None or rb is None:
        raise LevelNotCut(f"slab ends {a}, {b} were not cut")
    return SubcomplexHandle(cc, cc.index.within(ra, rb))


def unroll_cover(table: SimplexTable, f: CircleMap, a: Fraction, b: Fraction) -> SubcomplexHandle:
    """The preimage of [a, b] in the infinite cyclic cover, cut at a and b.

    Vertices of the unrolled complex are pairs (v, k), the vertex v lifted
    k turns up; the handle's ``cc.source`` is that complex.
    """
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("cover window needs a < b")
    validate_circle_map(table, f)
    # each simplex's lift and the whole turns that move it to meet [a, b]
    lifts = []
    for sigma in table.simplices:
        off = _turns(f, sigma)
        g = [f.angles[v] + o for v, o in zip(sigma, off)]
        lifts.append((sigma, off, range(ceil(a - max(g)), floor(b - min(g)) + 1)))
    count = sum(max(0, t.stop - t.start) for _, _, t in lifts)
    if count > CUT_LIMIT:
        raise MalformedInput(
            f"the cover window needs {count} lifted simplices, more than {CUT_LIMIT}")
    vert_ids = set()
    simplices = []
    for sigma, off, shifts in lifts:
        for t in shifts:
            lifted = tuple((v, o + t) for v, o in zip(sigma, off))
            simplices.append(lifted)
            vert_ids.update(lifted)

    ids = sorted(vert_ids, key=lambda p: (p[1], p[0]))
    pos = {vid: i for i, vid in enumerate(ids)}
    cover = SimplexTable(ids, [tuple(sorted(pos[v] for v in s)) for s in simplices])
    cover_map = RealMap([f.angles[v] + k for v, k in ids])
    return slab(cut_at_levels(cover, cover_map, [a, b]), a, b)
