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
