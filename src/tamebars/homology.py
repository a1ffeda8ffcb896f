"""Homology bases of subcomplexes and the representations they assemble into.

Chains are sparse dicts keyed by global simplex index, so a cycle in a
subcomplex is literally a cycle in any larger subcomplex and inclusion-induced
maps need no re-indexing.  Reduction is the left-to-right sparse column
algorithm with combination tags: tags over the input columns give kernel
vectors, tags over homology generators give coordinates of a cycle in a chosen
basis.

The (r+1)-boundaries are reduced first, and the cycle reduction of degree r
uses clearing (Chen-Kerber, "Persistent homology computation with a twist";
Bauer-Kerber-Reininghaus, "Clear and compress"): an r-cell that is the pivot
of a reduced (r+1)-boundary has a column that reduces to zero, and its cycle
lies in the boundaries plus the earlier cycles, so it is never reduced.  This
holds because the pivot is the largest index and the columns of each
dimension are reduced in ascending index order, which `_members_by_dim`
enforces by sorting the members.  The bases come out as without clearing.

Over Q the reducer works on integer chains.  Boundary entries, kernel tags
and structure tags are Python ints, and a quotient by a pivot of +-1 is a
product, so it stays an int.  Only a non-unit pivot makes a `Fraction`
quotient, and the chains it touches carry Fractions from then on; ints and
Fractions mix exactly.  Values turn into Fractions where they leave the
reducer: `HomologyBasis.coords` returns Fractions, and an induced map's
`Mat` clears them once into its integer rows.  Over GF(p) every value is a
residue in [0, p).

Real-valued maps take a shorter road, `level_set_bars`: their level-set
zigzag bars are matched one to one with the extended persistence pairs of
the map (Carlsson-de Silva-Morozov, "Zigzag persistent homology and
real-valued functions"; Cohen-Steiner-Edelsbrunner-Harer, "Extending
persistence using Poincare and Lefschetz duality").  Those pairs come from
one reduction of the cone on the input complex, with no cut, no assembly
and no quiver decomposition.  The reduction is certified: R = D.V with V
unit upper triangular and R reduced, checked exactly, proves the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import CriticalData, SimplexTable, faces_with_signs
from .cutting import CutComplex, SubcomplexHandle, fiber, slab
from .field import Field, PrimeField
from .matrix import Mat
from .quiver import rep_from_lists

Chain = Dict[int, object]


class InternalInconsistency(RuntimeError):
    """A chain that must have been a cycle or a boundary was not."""


class NotTame(RuntimeError):
    """A critical-fiber-to-slab map failed to be an isomorphism."""


class ReductionCertificateError(InternalInconsistency):
    """A column reduction whose R = D.V certificate does not hold."""


class _Reducer:
    """Sparse column reduction; stores (column, tag) pairs keyed by pivot row.

    Over Q the entries may be ints or Fractions: the quotient by a pivot of
    +-1 is a product, and any other pivot makes a Fraction."""

    def __init__(self, field: Field):
        self.field = field
        self.by_low: Dict[int, Tuple[Chain, Chain]] = {}

    def reduce(self, col: Chain, tag: Chain) -> Tuple[Chain, Chain]:
        F = self.field
        p = F.p if isinstance(F, PrimeField) else None
        by_low = self.by_low
        col = dict(col)
        tag = dict(tag)
        while col:
            low = max(col)
            hit = by_low.get(low)
            if hit is None:
                break
            rcol, rtag = hit
            a, b = col[low], rcol[low]
            if p:
                c = F.div(a, b)
            elif b == 1 or b == -1:
                c = a * b
            else:
                c = Fraction(a, b)
            for chain, rchain in ((col, rcol), (tag, rtag)):
                for r, x in rchain.items():
                    nv = chain[r] - c * x if r in chain else -c * x
                    if p:
                        nv %= p
                    if nv:
                        chain[r] = nv
                    else:
                        chain.pop(r, None)
        return col, tag

    def insert(self, col: Chain, tag: Chain) -> Optional[int]:
        col, tag = self.reduce(col, tag)
        if not col:
            return None
        low = max(col)
        self.by_low[low] = (col, tag)
        return low


def _boundary_chain(table: SimplexTable, idx: int, field: Field) -> Chain:
    """The boundary of a simplex; over Q the signs stay ints."""
    s = table.simplices[idx]
    if len(s) == 1:
        return {}
    if isinstance(field, PrimeField):
        return {table.index[f]: field.from_int(sign) for f, sign in faces_with_signs(s)}
    return {table.index[f]: sign for f, sign in faces_with_signs(s)}


def _members_by_dim(table: SimplexTable, members: Optional[Sequence[int]]) -> Dict[int, List[int]]:
    idxs = range(len(table)) if members is None else sorted(members)
    out: Dict[int, List[int]] = {}
    for i in idxs:
        out.setdefault(len(table.simplices[i]) - 1, []).append(i)
    return out


@dataclass
class HomologyBasis:
    """A basis of H_r of a subcomplex, with the structure used to read
    coordinates of arbitrary cycles in that basis."""

    table: SimplexTable
    degree: int
    field: Field
    r_cells: List[int]
    reps: List[Chain]
    _structure: _Reducer

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, cycle: Chain) -> List:
        """Coordinates of a cycle of this subcomplex in the chosen basis, as
        field elements (Fractions over Q)."""
        F = self.field
        res, tag = self._structure.reduce(cycle, {})
        if res:
            raise InternalInconsistency("chain is not a cycle of the subcomplex")
        neg = F.neg if isinstance(F, PrimeField) else lambda x: Fraction(-x)
        return [neg(tag.get(i, 0)) for i in range(len(self.reps))]


def homology_of(table: SimplexTable, members: Optional[Sequence[int]],
                r: int, field: Field) -> HomologyBasis:
    by_dim = _members_by_dim(table, members)
    r_cells = by_dim.get(r, [])
    up_cells = by_dim.get(r + 1, [])

    # the boundaries are cycles of the subcomplex only if its members are
    # closed under faces; clearing relies on that too
    structure = _Reducer(field)
    r_set = set(r_cells)
    for j in up_cells:
        col = _boundary_chain(table, j, field)
        if not r_set.issuperset(col):
            raise InternalInconsistency(
                f"homology rank bookkeeping failed: cell {j} has a face outside the members")
        structure.insert(col, {})

    # clearing: a pivot of the reduced (r+1)-boundaries is skipped
    ker = _Reducer(field)
    cycles: List[Chain] = []
    for j in r_cells:
        if j in structure.by_low:
            continue
        col, tag = ker.reduce(_boundary_chain(table, j, field), {j: 1})
        if col:
            ker.by_low[max(col)] = (col, tag)
        else:
            cycles.append(tag)

    reps: List[Chain] = []
    for z in cycles:
        res, tag = structure.reduce(z, {})
        if res:
            tag[len(reps)] = 1
            structure.by_low[max(res)] = (res, tag)
            reps.append(z)
    # every cycle left after clearing is new modulo the boundaries
    if len(reps) != len(cycles):
        raise InternalInconsistency("homology rank bookkeeping failed")
    return HomologyBasis(table, r, field, r_cells, reps, structure)


def homology(handle: SubcomplexHandle, r: int, field: Field) -> HomologyBasis:
    return homology_of(handle.cc.table, handle.members, r, field)


def betti_numbers(table: SimplexTable, field: Field) -> List[int]:
    """Betti numbers of a whole complex, degrees 0..dim."""
    return [homology_of(table, None, r, field).dim for r in range(max(table.dim, 0) + 1)]


def induced_map(src: HomologyBasis, dst: HomologyBasis) -> Mat:
    """Matrix of the inclusion-induced map H_r(src) -> H_r(dst)."""
    if src.table is not dst.table or src.degree != dst.degree:
        raise InternalInconsistency("induced map needs handles of one cut complex")
    return Mat(dst.field, [dst.coords(rep) for rep in src.reps], dst.dim).transpose()


def _arrow(reg: HomologyBasis, crit: HomologyBasis, slab_h: HomologyBasis, where: str) -> Mat:
    """The composite H(regular fiber) -> H(slab) <- H(critical fiber) with the
    second leg inverted; raises NotTame, naming `where`, when it is not
    invertible."""
    try:
        back = induced_map(crit, slab_h).inverse()
    except ValueError:  # a non-square or singular second leg
        raise NotTame(f"critical fiber does not carry the slab homology: {where}") from None
    return back.mul(induced_map(reg, slab_h))


def assemble_rep(cc: CutComplex, crit: CriticalData, r: int, field: Field):
    """The degree-r representation of a cut map: fibers at vertices, arrows
    through the adjacent slabs."""
    th = crit.criticals
    ts = crit.regulars
    m = crit.m
    crit_h = [homology(fiber(cc, c), r, field) for c in th]
    reg_h = [homology(fiber(cc, t), r, field) for t in ts]

    def arrow(reg: HomologyBasis, i: int, a, b) -> Mat:
        """The arrow between `reg` and the i-th critical fiber, through the
        slab [a, b]."""
        slab_h = homology(slab(cc, a, b), r, field)
        return _arrow(reg, crit_h[i - 1], slab_h,
                      f"degree {r}, critical value {th[i - 1]}, slab [{a}, {b}]")

    # ts[k] and ts[k + 1] are the regular values around theta_i; on the
    # circle k = -1 names the last one, a turn down
    shift = 2 if crit.circular else 1
    alphas = []
    betas = []
    for i in range(1, m + 1):
        k = i - shift
        lo = ts[k] - 1 if k < 0 else ts[k]
        alphas.append(arrow(reg_h[k], i, lo, th[i - 1]))
        betas.append(arrow(reg_h[k + 1], i, th[i - 1], ts[k + 1]))
    return rep_from_lists(field, alphas, betas)


# -- level-set bars of a real map --------------------------------------------------


LevelSetBar = Tuple[Fraction, Fraction, bool, bool]


def cone_filtration(table: SimplexTable, values: Sequence, field: Field):
    """The boundary columns of the cone on a complex in extended-persistence
    order, with the height and dimension read at each position.

    Position 0 is the cone vertex w.  Then every simplex s comes in
    lower-star order, by (max f on s, dim, index), at the height max f on s;
    then every cone w.s in upper-star order, by (-min f on s, dim, index), at
    the height min f on s.  The dimension recorded for w.s is that of s.
    Boundaries are d(w.v) = v - w and d(w.s) = s - w.ds.
    """
    simplices = table.simplices
    n = len(simplices)
    top = [max(values[v] for v in s) for s in simplices]
    bottom = [min(values[v] for v in s) for s in simplices]
    lower = sorted(range(n), key=lambda i: (top[i], len(simplices[i]), i))
    upper = sorted(range(n), key=lambda i: (-bottom[i], len(simplices[i]), i))
    pos = [0] * n
    cone_pos = [0] * n
    for k, i in enumerate(lower):
        pos[i] = 1 + k
    for k, i in enumerate(upper):
        cone_pos[i] = 1 + n + k
    neg = field.neg
    boundaries = [_boundary_chain(table, i, field) for i in range(n)]
    columns: List[Chain] = [{}]
    heights = [None]
    dims = [0]
    for i in lower:
        columns.append({pos[k]: x for k, x in boundaries[i].items()})
        heights.append(top[i])
        dims.append(len(simplices[i]) - 1)
    for i in upper:
        col: Chain = {pos[i]: 1}
        if boundaries[i]:
            col.update((cone_pos[k], neg(x)) for k, x in boundaries[i].items())
        else:
            col[0] = neg(1)
        columns.append(col)
        heights.append(bottom[i])
        dims.append(len(simplices[i]) - 1)
    return columns, heights, dims


def reduce_columns(columns: Sequence[Chain], field: Field) -> Tuple[List[Chain], List[Chain]]:
    """Reduce every column in order, each tagged {j: 1}, so R = D.V with V
    unit upper triangular."""
    red = _Reducer(field)
    R: List[Chain] = []
    V: List[Chain] = []
    for j, col in enumerate(columns):
        r, v = red.reduce(col, {j: 1})
        if r:
            red.by_low[max(r)] = (r, v)
        R.append(r)
        V.append(v)
    return R, V


def check_reduction(columns: Sequence[Chain], R: Sequence[Chain], V: Sequence[Chain],
                    field: Field) -> None:
    """Check exactly that V is unit upper triangular, that D.V = R, that R
    is reduced (no two columns share a low) and that only the cone vertex
    stays unpaired; raise ReductionCertificateError otherwise."""
    p = field.p if isinstance(field, PrimeField) else None
    if not len(columns) == len(R) == len(V):
        raise ReductionCertificateError("D, R and V differ in their number of columns")
    lows = set()
    for j, v in enumerate(V):
        if v.get(j) != 1 or max(v) != j:
            raise ReductionCertificateError(f"column {j} of V is not unit upper triangular")
        prod: Chain = {}
        for k, c in v.items():
            for r, x in columns[k].items():
                prod[r] = prod.get(r, 0) + c * x
        if {r: y for r, x in prod.items() if (y := x % p if p else x)} != R[j]:
            raise ReductionCertificateError(f"column {j} of D.V differs from R")
        if R[j]:
            low = max(R[j])
            if low in lows:
                raise ReductionCertificateError(f"R is not reduced: two columns end at row {low}")
            lows.add(low)
    if 2 * len(lows) + 1 != len(columns):
        raise ReductionCertificateError("a class other than the cone vertex is left unpaired")


def level_set_bars(table: SimplexTable, values: Sequence[Fraction],
                   field: Field) -> Dict[int, List[LevelSetBar]]:
    """The level-set zigzag bars of a real map, per degree, as (lo, hi,
    left_closed, right_closed), from the extended persistence pairs (i, j)
    of the cone filtration, i the low of column j:

    - both in the first half (ordinary): [f_i, f_j) in H_dim(i);
    - i in the first half, j in the second (extended): [f_i, f_j] in
      H_dim(i) when f_i <= f_j, else (f_j, f_i) in H_dim(i)-1;
    - both in the second half (relative): (f_j, f_i] in H_dim(i).

    Pairs of length zero are dropped, and the cone vertex stays unpaired.
    The reduction is certified by `check_reduction` before it is read.
    The filtration is built on the ranks of the values, so sorting compares
    ints, not Fractions."""
    levels = sorted(set(values))
    rank = {x: k for k, x in enumerate(levels)}
    columns, heights, dims = cone_filtration(table, [rank[x] for x in values], field)
    R, V = reduce_columns(columns, field)
    check_reduction(columns, R, V, field)
    half = len(table)
    bars: Dict[int, List[LevelSetBar]] = {}
    for j, col in enumerate(R):
        if not col:
            continue
        i = max(col)
        hi, hj, d = heights[i], heights[j], dims[i]
        fi, fj = levels[hi], levels[hj]
        if j <= half:
            if hi < hj:
                bars.setdefault(d, []).append((fi, fj, True, False))
        elif i <= half:
            if hi <= hj:
                bars.setdefault(d, []).append((fi, fj, True, True))
            else:
                bars.setdefault(d - 1, []).append((fj, fi, False, False))
        elif hj < hi:
            bars.setdefault(d, []).append((fj, fi, False, True))
    return bars
