"""Named invariants of a tame map.

A real map's bars are read off the extended persistence of the cone on its
complex (`homology.level_set_bars`), with no cut.  A circle map's bars and
Jordan cells come out of the quiver decomposition of its cut, and
`quiver_invariants` keeps that pipeline for real maps too, where
`compute --check` compares the two.  Bars are intervals between critical
values, and everything downstream is derived from them in exact
arithmetic: fiber and global Betti numbers, Novikov-Betti numbers,
monodromy, configurations with their polynomials, the interval counts for
windows of the infinite cyclic cover, and the canonical block matrix whose
kernel and cokernel recover the homology of the total space (from the
representations, which only the quiver pipeline builds).

Circle-valued data uses turn units throughout: one turn is a full circle,
so a bar wrapping k times has its right end shifted by k.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil, floor
from typing import Dict, List, Optional, Sequence, Tuple

from .canonical import CanonicalFormError, Cell, cell_sort_key
from .complexes import CircleMap, CriticalData, SimplexTable, critical_candidates
from .cutting import CutComplex, cut_at_levels
from .field import Field
from .homology import assemble_rep, level_set_bars
from .matrix import Mat, block_diag, stack
from .quiver import (Bar, DecompositionError, RepresentationError, decompose_circle,
                     decompose_zigzag)


class IndexOutOfRange(ValueError):
    """A bar refers to a critical index outside 1..m."""


class ShapeMismatch(RepresentationError):
    """Representation shape unsuitable for the requested assembly."""


class BeyondFloatRange(ValueError):
    """An exact value has no finite image in the floating-point chart of the
    display polynomial and the drawings."""


# -- valued bars ----------------------------------------------------------------


@dataclass(frozen=True, order=True)
class ValuedBar:
    """A bar with its ends resolved to critical values.

    For circle-valued maps `hi` is an absolute position on the line: the
    angle of the right critical value plus the number of full turns the bar
    wraps.  `lo = hi` happens only for closed point bars.
    """

    lo: Fraction
    hi: Fraction
    left_closed: bool
    right_closed: bool

    @property
    def is_closed(self) -> bool:
        return self.left_closed and self.right_closed

    @property
    def is_open(self) -> bool:
        return not self.left_closed and not self.right_closed

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.left_closed:
            return False
        if x == self.hi and not self.right_closed:
            return False
        return True


def convert_bars(bars: Sequence[Bar], crit: CriticalData) -> List[ValuedBar]:
    """Replace index ends by the critical values they name.

    The wrap count of a cyclic bar is added to the right end, so both ends
    live on the (unrolled) line and `lo <= hi` always holds.
    """
    vals = crit.criticals
    m = crit.m
    out = []
    for b in bars:
        if not (1 <= b.i <= m and 1 <= b.j <= m):
            raise IndexOutOfRange(f"bar {b.label()} has ends outside 1..{m}")
        out.append(ValuedBar(vals[b.i - 1], vals[b.j - 1] + b.wraps,
                             b.left_closed, b.right_closed))
    return sorted(out)


# -- the bundle -----------------------------------------------------------------


@dataclass
class InvariantBundle:
    """Per-degree bars, Jordan cells, and the representations they came
    from, for one tame map.  Degrees absent from the dictionaries count as
    empty, so the formulas below accept any degree.  A real map's bundle
    from `compute_invariants` has no cells, no representations and no cut:
    its bars come from the cone reduction."""

    field: Field
    circular: bool
    crit: CriticalData
    bars: Dict[int, List[ValuedBar]]
    cells: Dict[int, List[Cell]]
    reps: Dict[int, object]
    rmax: int
    cut: Optional[CutComplex] = None

    def degree_bars(self, r: int) -> List[ValuedBar]:
        return self.bars.get(r, [])

    def degree_cells(self, r: int) -> List[Cell]:
        return self.cells.get(r, [])

    def closed_bars(self, r: int) -> List[ValuedBar]:
        return [b for b in self.degree_bars(r) if b.is_closed]

    def open_bars(self, r: int) -> List[ValuedBar]:
        return [b for b in self.degree_bars(r) if b.is_open]

    def eigenvalue_one_count(self, r: int) -> int:
        one = self.field.one
        return sum(1 for c in self.degree_cells(r)
                   if c.is_linear() and c.eigenvalue_in(self.field) == one)

    def jordan_dim(self, r: int) -> int:
        return sum(c.dim() for c in self.degree_cells(r))


def compute_invariants(table: SimplexTable, mapping, field: Field) -> InvariantBundle:
    """The invariants of a tame map.  A circle map goes through
    `quiver_invariants`.  A real map's bars are its level-set bars, read off
    one certified reduction of the cone on its complex."""
    if isinstance(mapping, CircleMap):
        return quiver_invariants(table, mapping, field)
    crit = critical_candidates(table, mapping)
    rmax = max(table.dim, 0)
    found = level_set_bars(table, mapping.values, field)
    bars = {r: sorted(ValuedBar(*b) for b in found.get(r, [])) for r in range(rmax + 1)}
    return InvariantBundle(field, False, crit, bars, {}, {}, rmax)


def quiver_invariants(table: SimplexTable, mapping, field: Field) -> InvariantBundle:
    """The quiver pipeline: choose levels, cut, assemble one representation
    per degree, decompose it with a verified certificate, and convert the
    summands into valued invariants."""
    crit = critical_candidates(table, mapping)
    cc = cut_at_levels(table, mapping, crit.criticals + crit.regulars)
    rmax = max(table.dim, 0)
    bars: Dict[int, List[ValuedBar]] = {}
    cells: Dict[int, List[Cell]] = {}
    reps: Dict[int, object] = {}
    for r in range(rmax + 1):
        rep = assemble_rep(cc, crit, r, field)
        try:
            if crit.circular:
                raw, found, _ = decompose_circle(rep)
            else:
                raw, _ = decompose_zigzag(rep)
                found = []
        except (DecompositionError, CanonicalFormError) as e:
            raise type(e)(f"degree {r}: {e}") from e
        bars[r] = convert_bars(raw, crit)
        cells[r] = found
        reps[r] = rep
    return InvariantBundle(field, crit.circular, crit, bars, cells, reps, rmax, cc)


# -- counting formulas ----------------------------------------------------------


def fiber_betti_at(bundle: InvariantBundle, r: int, value) -> int:
    """Betti number of the fiber over a level, read off bars and cells."""
    value = Fraction(value)
    bars = bundle.degree_bars(r)
    if not bundle.circular:
        return sum(1 for b in bars if b.contains(value))
    # the translates bar + k that contain the angle
    return sum(len(_meets(b, value, value)) for b in bars) + bundle.jordan_dim(r)


def image_dim_at(bundle: InvariantBundle, r: int, value) -> int:
    """Rank of the map from the fiber's homology into the whole space's."""
    value = Fraction(value)
    closed = bundle.closed_bars(r)
    if not bundle.circular:
        return sum(1 for b in closed if b.contains(value))
    hits = sum(1 for b in closed if _meets(b, value, value))
    return hits + bundle.eigenvalue_one_count(r)


def global_betti(bundle: InvariantBundle, r: int) -> int:
    """Betti number of the whole space: closed bars in degree r, open bars
    one degree down, and (cyclic case) eigenvalue-one cells of both."""
    n = len(bundle.closed_bars(r)) + len(bundle.open_bars(r - 1))
    if bundle.circular:
        n += bundle.eigenvalue_one_count(r) + bundle.eigenvalue_one_count(r - 1)
    return n


def novikov_betti(bundle: InvariantBundle, r: int) -> int:
    return len(bundle.closed_bars(r)) + len(bundle.open_bars(r - 1))


# -- windows of the infinite cyclic cover ----------------------------------------


def _meets(bar: ValuedBar, a: Fraction, b: Fraction, closed: bool = False) -> range:
    """The integers k for which bar + k meets [a, b] or, with `closed`,
    meets it in a closed interval: an open end of the bar is then kept only
    where it sticks out of the window."""
    # an open right end must pass past_hi, an open left end stay below past_lo
    past_hi, past_lo = (b, a) if closed else (a, b)
    first = ceil(a - bar.hi) if bar.right_closed else floor(past_hi - bar.hi) + 1
    last = floor(b - bar.lo) if bar.left_closed else ceil(past_lo - bar.lo) - 1
    return range(first, last + 1)


def _inside(bar: ValuedBar, a: Fraction, b: Fraction) -> range:
    """The integers k for which bar + k lies in [a, b]."""
    return range(ceil(a - bar.lo), floor(b - bar.hi) + 1)


def _count(run: range) -> int:
    """The length of a run of integers, also past sys.maxsize, where len()
    overflows: a window as wide as 1e400 holds that many translates."""
    return max(run.stop - run.start, 0)


def cover_formulas(bundle: InvariantBundle, r: int, a, b) -> Tuple[int, int, int]:
    """Interval counts for the part of the infinite cyclic cover over a
    window [a, b]: its Betti number, the rank of its homology in the whole
    cover, and the rank in the base space.  The translates of one bar that
    count form a run of integers, so each count costs O(1) per bar."""
    if not bundle.circular:
        raise ShapeMismatch("cover formulas need a circle-valued map")
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError("cover window needs a < b")
    closed_r = bundle.closed_bars(r)
    open_prev = bundle.open_bars(r - 1)
    inside_prev = sum(_count(_inside(bar, a, b)) for bar in open_prev)
    slice_betti = bundle.jordan_dim(r) + inside_prev + sum(
        _count(_meets(bar, a, b, closed=True)) for bar in bundle.degree_bars(r))
    into_cover = bundle.jordan_dim(r) + inside_prev + sum(
        _count(_meets(bar, a, b)) for bar in closed_r)
    # Classes landing in the base: bar families with a translate in range
    # plus fiber classes fixed by the monodromy.  Degree r-1 cells feed the
    # base space's homology through the angle direction, which dies in the
    # cover, so they do not appear here.
    into_base = (bundle.eigenvalue_one_count(r)
                 + sum(1 for bar in closed_r if _meets(bar, a, b))
                 + sum(1 for bar in open_prev if _inside(bar, a, b)))
    return slice_betti, into_cover, into_base


# -- monodromy ------------------------------------------------------------------


def monodromy_assemble(field: Field, cells: Sequence[Cell]) -> Tuple[int, Mat]:
    """Block-diagonal model of the monodromy: one Jordan or companion block
    per cell, in canonical order."""
    ordered = sorted(cells, key=cell_sort_key)
    return (sum(c.dim() for c in ordered),
            block_diag(field, [c.block(field) for c in ordered]))


# -- configurations -------------------------------------------------------------


@dataclass
class Configuration:
    """Planar record of the closed degree-r bars, as points (lo, hi) on or
    above the diagonal, and the open degree-(r-1) bars mirrored below it."""

    degree: int
    circular: bool
    points: List[Tuple[Fraction, Fraction]]


def configuration(bundle: InvariantBundle, r: int) -> Configuration:
    pts = [(b.lo, b.hi) for b in bundle.closed_bars(r)]
    pts += [(b.hi, b.lo) for b in bundle.open_bars(r - 1)]
    return Configuration(r, bundle.circular, sorted(pts))


_TURN = 2.0 * math.pi


def cylinder_embed(point: Tuple[Fraction, Fraction]) -> complex:
    """Send a cylinder point to a nonzero complex number.

    Both coordinates are reduced by the same whole number of turns before
    exponentiating, so diagonal shifts by a turn give the identical float.
    """
    x, y = Fraction(point[0]), Fraction(point[1])
    k = floor(x)
    u, v = x - k, y - k
    try:
        return cmath.exp(complex(_TURN * float(u - v), _TURN * float(u)))
    except OverflowError:
        raise BeyondFloatRange(f"point ({x}, {y}) is too far from the diagonal "
                               "for the cylinder chart") from None


def to_float(x: Fraction) -> float:
    """`float(x)`, or BeyondFloatRange when x has no finite float image."""
    try:
        return float(x)
    except OverflowError:
        raise BeyondFloatRange("an exact value is beyond float range") from None


def polynomial(config: Configuration) -> List[complex]:
    """Monic polynomial with one root per configuration point, leading
    coefficient first.  Circle-valued points are embedded into C* first, so
    the free coefficient stays nonzero.  Raises BeyondFloatRange when a root
    or a coefficient is not a finite float."""
    if config.circular:
        roots = [cylinder_embed(p) for p in config.points]
    else:
        roots = [complex(to_float(x), to_float(y)) for x, y in config.points]
    roots.sort(key=lambda z: (z.real, z.imag))
    coeffs = [complex(1.0)]
    for root in roots:
        coeffs.append(complex(0.0))
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] -= root * coeffs[i - 1]
    if not all(map(cmath.isfinite, coeffs)):
        raise BeyondFloatRange("the display polynomial's coefficients are beyond float range")
    return coeffs


# -- canonical block matrix -------------------------------------------------------


@dataclass
class CanonicalData:
    """The pairing matrix of one degree with its kernel and cokernel sizes."""

    matrix: Mat
    dim_ker: int
    dim_coker: int


def canonical_matrix(rep) -> CanonicalData:
    """The block matrix from the sum of regular fibers to the sum of
    critical fibers: alpha blocks on the diagonal, negated beta blocks on
    the superdiagonal, the wrap-around beta in the bottom-left corner."""
    f, m = rep.field, rep.m
    col_off = [0, *accumulate(rep.dims[2 * i - 1] for i in range(1, m + 1))]
    if m == 1:  # alpha_1 and beta_1 share the one block: alpha_1 - beta_1
        n = col_off[-1]
        eye = Mat.identity(f, n)
        mat = rep.alpha(1).hstack(rep.beta(1)).mul(stack(f, n, [[(0, eye)], [(0, eye.neg())]]))
    else:
        mat = stack(f, col_off[-1], [
            [(col_off[i - 1], rep.alpha(i)), (col_off[i % m], rep.beta(i).neg())]
            for i in range(1, m + 1)])
    rank = mat.rank()
    return CanonicalData(mat, mat.ncols - rank, mat.nrows - rank)


def canonical_check(bundle: InvariantBundle, r: int, beta_direct: int) -> bool:
    """Cokernel in degree r plus kernel one degree down must equal an
    independently computed Betti number of the total space."""
    rep_r = bundle.reps.get(r)
    rep_prev = bundle.reps.get(r - 1)
    coker = canonical_matrix(rep_r).dim_coker if rep_r is not None else 0
    ker = canonical_matrix(rep_prev).dim_ker if rep_prev is not None else 0
    return coker + ker == beta_direct


# -- lookups and serialization-----------------------------------------------------


def bundle_to_json(bundle: InvariantBundle) -> dict:
    """JSON-ready dict: exact ends as fraction strings, cells as polynomial
    coefficients, floats only in the configuration polynomials."""
    fld = bundle.field
    degrees = {}
    for r in range(bundle.rmax + 1):
        cfg = configuration(bundle, r)
        try:
            poly = [[z.real, z.imag] for z in polynomial(cfg)]
        except BeyondFloatRange:
            poly = None  # display only; the exact entries stand
        entry = {
            "bars": [{"lo": str(b.lo), "hi": str(b.hi),
                      "left_closed": b.left_closed,
                      "right_closed": b.right_closed}
                     for b in bundle.degree_bars(r)],
            "betti": global_betti(bundle, r),
            "configuration": [[str(x), str(y)] for x, y in cfg.points],
            "polynomial": poly,
        }
        if bundle.circular:
            cells_r = bundle.degree_cells(r)
            dim, T = monodromy_assemble(fld, cells_r)
            entry["jordan_cells"] = [
                {"poly": [fld.to_str(c) for c in cell.poly],
                 "size": cell.size,
                 "eigenvalue": (fld.to_str(cell.eigenvalue_in(fld))
                                if cell.is_linear() else None)}
                for cell in cells_r]
            entry["monodromy"] = {
                "dim": dim,
                "matrix": [[fld.to_str(e) for e in row] for row in T.rows]}
            entry["novikov_betti"] = novikov_betti(bundle, r)
        degrees[str(r)] = entry
    return {
        "field": fld.to_spec(),
        "target": "circle" if bundle.circular else "real",
        "critical_values": [str(v) for v in bundle.crit.criticals],
        "regular_values": [str(v) for v in bundle.crit.regulars],
        "degrees": degrees,
    }
