"""Helpers that only the tests use: Gauss-Jordan over Q on Fractions,
boundary matrices of a whole complex, the Euler characteristic, transposes,
the canonical column reduction and subspace predicates, the lift of a
refined simplex, integer-built and scaled matrices, direct lookups on cut
complexes, homology bases and invariant bundles, fiber and cover counts by
enumeration, homology without clearing on field-element chains, the lifted
map and the deck transformation of a cover window, the Euclidean gcd over Q
and polynomial factoring by sympy.

The package eliminates on integer rows, computes homology through its sparse
reducer on integer chains, reads fibers and slabs off the level index, counts
translates in closed form and factors polynomials itself; these direct
versions check it from outside.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Dict, List, Optional, Sequence, Tuple

from kernel_oracles import DenseReducer
from tamebars.canonical import Poly, poly_divmod, poly_monic, poly_trim
from tamebars.complexes import CircleMap, RealMap, Simplex, SimplexTable, faces_with_signs
from tamebars.field import Field, PrimeField, Scalar
from tamebars.homology import Chain, HomologyBasis
from tamebars.invariants import InvariantBundle, ValuedBar
from tamebars.matrix import Mat


# -- matrices


def from_int_rows(field: Field, rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> Mat:
    f = field.from_int
    return Mat(field, [[f(x) for x in r] for r in rows], ncols)


def is_zero(M: Mat) -> bool:
    z = M.field.zero
    return all(x == z for row in M.rows for x in row)


def scale(M: Mat, c: Scalar) -> Mat:
    p = M.field.p if isinstance(M.field, PrimeField) else None
    return Mat(M.field, [[(c * x) % p if p else c * x for x in row] for row in M.rows], M.ncols)


def fraction_rref(M: Mat) -> Tuple[Mat, List[int]]:
    """Gauss-Jordan over Q on `Fraction` entries, the loop `Mat.rref` ran
    before it eliminated on integer rows: the pivot row is scaled to a
    leading 1 and subtracted from the other rows at its nonzero columns."""
    rows = [row[:] for row in M.rows]
    nr, nc = M.nrows, M.ncols
    pivots: List[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        nonzeros = [(j, b) for j, b in enumerate(rows[r][c:], c) if b]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                for j, b in nonzeros:
                    rows[i][j] = rows[i][j] - f * b
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Mat(M.field, rows, nc), pivots


# -- complexes and homology


def boundary_matrix(table: SimplexTable, field: Field) -> Mat:
    """The full N x N incidence matrix, strictly upper triangular."""
    n = len(table)
    rows = [[field.zero] * n for _ in range(n)]
    for j, s in enumerate(table.simplices):
        if len(s) == 1:
            continue
        for face, sign in faces_with_signs(s):
            rows[table.index[face]][j] = field.from_int(sign)
    return Mat(field, rows, n)


def boundary_block(table: SimplexTable, field: Field, r: int) -> Mat:
    """Boundary of degree r: rows are (r-1)-simplices, columns r-simplices.

    For r = 0 the block has zero rows; for r > dim it has zero columns.
    """
    rows_of = {s: i for i, s in enumerate(table.simplices_of_dim(r - 1))}
    cols = table.simplices_of_dim(r)
    rows = [[field.zero] * len(cols) for _ in rows_of]
    if r > 0:
        for j, s in enumerate(cols):
            for face, sign in faces_with_signs(s):
                rows[rows_of[face]][j] = field.from_int(sign)
    return Mat(field, rows, len(cols))


def euler_characteristic(table: SimplexTable) -> int:
    return sum(-1 if len(s) % 2 == 0 else 1 for s in table.simplices)


def refined_map(cc):
    """The map on the cut complex `cc`, as a document-level map."""
    if cc.circular:
        return CircleMap(cc.values, dict(cc.windings))
    return RealMap(list(cc.values))


def member_simplices(h) -> List[Simplex]:
    """The simplices of a subcomplex handle, in member order."""
    return [h.cc.table.simplices[i] for i in h.members]


def rep_matrix(basis) -> Mat:
    """Dense representatives of a homology basis; rows follow its r-simplices."""
    F = basis.field
    rows = [[rep.get(i, F.zero) for rep in basis.reps] for i in basis.r_cells]
    return Mat(F, rows, len(basis.reps))


def field_boundary_chain(table: SimplexTable, idx: int, field: Field) -> Chain:
    """The boundary of a simplex with field elements as signs (Fractions
    over Q)."""
    s = table.simplices[idx]
    if len(s) == 1:
        return {}
    return {table.index[f]: field.from_int(sign) for f, sign in faces_with_signs(s)}


def uncleared_homology_of(table: SimplexTable, members: Optional[Sequence[int]],
                          r: int, field: Field) -> HomologyBasis:
    """`tamebars.homology.homology_of` without clearing and without integer
    chains: reduce every r-cell's boundary, keeping its cycle, before the
    (r+1)-boundaries are reduced, with `DenseReducer` on field elements.
    Each dimension's members are taken in ascending index order."""
    idxs = range(len(table)) if members is None else members
    r_cells = sorted(i for i in idxs if len(table.simplices[i]) == r + 1)
    up_cells = sorted(i for i in idxs if len(table.simplices[i]) == r + 2)

    ker = DenseReducer(field)
    cycles = []
    for j in r_cells:
        col, tag = ker.reduce(field_boundary_chain(table, j, field), {j: field.one})
        if col:
            ker.by_low[max(col)] = (col, tag)
        else:
            cycles.append(tag)

    structure = DenseReducer(field)
    for j in up_cells:
        structure.insert(field_boundary_chain(table, j, field), {})
    rank_b = len(structure.by_low)

    reps = []
    for z in cycles:
        res, tag = structure.reduce(z, {})
        if res:
            tag[len(reps)] = field.one
            structure.by_low[max(res)] = (res, tag)
            reps.append(z)
    if len(reps) != len(cycles) - rank_b:
        raise AssertionError("homology rank bookkeeping failed")
    return HomologyBasis(table, r, field, r_cells, reps, structure)


def simplex_lift(cc, s: Simplex) -> List[Fraction]:
    """Lift values of a simplex of the cut complex `cc`, based at its first vertex."""
    if not cc.circular:
        return [cc.values[v] for v in s]
    base = s[0]
    out = []
    for v in s:
        w = cc.windings.get((base, v), 0) if base != v else 0
        out.append(cc.values[v] + w)
    return out


# -- windows of the infinite cyclic cover


def cover_map(f: CircleMap, cover: SimplexTable) -> RealMap:
    """The lift of f to the unrolled complex of `unroll_cover`, whose
    vertices are pairs (v, k): the vertex v lifted k turns up."""
    return RealMap([f.angles[v] + k for v, k in cover.vertices])


def deck_vertex(cut) -> Dict[int, int]:
    """The deck transformation, one turn up, on the vertices of the cut
    cover `cut` (the ``cc`` of an `unroll_cover` window) whose image is a
    vertex of it too."""
    cover = cut.source
    pos = {vid: i for i, vid in enumerate(cover.vertices)}

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
    out = {}
    for i, vid in enumerate(cut.table.vertices):
        img = shift(vid)
        if img is not None and img in cut_pos:
            out[i] = cut_pos[img]
    return out


# -- invariant bundles


def mixed_bars(bundle: InvariantBundle, r: int) -> List[ValuedBar]:
    return [b for b in bundle.degree_bars(r) if b.left_closed != b.right_closed]


def bar_multiplicity(bundle: InvariantBundle, r: int, lo, hi,
                     left_closed: bool = True, right_closed: bool = True) -> int:
    """Multiplicity of one exact bar (with end types) in degree r; zero
    when the bar is absent."""
    probe = ValuedBar(Fraction(lo), Fraction(hi), left_closed, right_closed)
    return sum(1 for b in bundle.degree_bars(r) if b == probe)


def enumerated_cover_formulas(bundle: InvariantBundle, r: int, a, b) -> Tuple[int, int, int]:
    """`cover_formulas` by testing every integer translate of every bar that
    can reach the window [a, b]: time in proportion to its length."""
    a, b = Fraction(a), Fraction(b)

    def translates(bar):
        return [ValuedBar(bar.lo + k, bar.hi + k, bar.left_closed, bar.right_closed)
                for k in range(ceil(a - bar.hi) - 1, floor(b - bar.lo) + 2)]

    def meets(t):
        return ((t.lo < b or (t.lo == b and t.left_closed))
                and (t.hi > a or (t.hi == a and t.right_closed)))

    def closed_meet(t):
        # an open end survives the cut to [a, b] only outside the window
        return meets(t) and (t.lo < a or t.left_closed) and (t.hi > b or t.right_closed)

    def inside(t):
        return a <= t.lo and t.hi <= b

    closed_r, open_prev = bundle.closed_bars(r), bundle.open_bars(r - 1)
    inside_prev = sum(inside(t) for bar in open_prev for t in translates(bar))
    slice_betti = bundle.jordan_dim(r) + inside_prev + sum(
        closed_meet(t) for bar in bundle.degree_bars(r) for t in translates(bar))
    into_cover = bundle.jordan_dim(r) + inside_prev + sum(
        meets(t) for bar in closed_r for t in translates(bar))
    into_base = (bundle.eigenvalue_one_count(r)
                 + sum(any(map(meets, translates(bar))) for bar in closed_r)
                 + sum(any(map(inside, translates(bar))) for bar in open_prev))
    return slice_betti, into_cover, into_base


def n_containing(bar: ValuedBar, theta) -> int:
    """How many integer translates of the angle land inside the bar, by
    testing every translate that can."""
    theta = Fraction(theta)
    return sum(1 for k in range(floor(bar.lo - theta), ceil(bar.hi - theta) + 1)
               if bar.contains(theta + k))


# -- subspaces: any Mat with n rows spans a subspace of kappa^n by its columns


def transpose(A: Mat) -> Mat:
    """The transpose; a 0 x n matrix becomes n x 0, with n empty rows."""
    return Mat(A.field, [list(c) for c in zip(*A.rows)] or [[] for _ in range(A.ncols)], A.nrows)


def column_reduced(A: Mat) -> Mat:
    """The reduced column echelon form with zero columns dropped: unique for
    a subspace, so subspace equality is matrix equality."""
    R, pivots = transpose(A).rref()
    return transpose(Mat(A.field, R.rows[:len(pivots)], A.nrows))


def span(field: Field, n: int, vectors: Sequence[Sequence[Scalar]]) -> Mat:
    return column_reduced(Mat(field, list(vectors), n).transpose())


def subspace_sum(A: Mat, B: Mat) -> Mat:
    return column_reduced(A.hstack(B))


def subspace_intersect(A: Mat, B: Mat) -> Mat:
    K = A.hstack(B).kernel_basis()
    return column_reduced(A.mul(Mat(A.field, K.rows[:A.ncols], K.ncols)))


def subspace_dim(A: Mat) -> int:
    return column_reduced(A).ncols


def subspace_eq(A: Mat, B: Mat) -> bool:
    return column_reduced(A) == column_reduced(B)


def subspace_contains(A: Mat, v: Sequence[Scalar]) -> bool:
    return A.try_solve(Mat(A.field, [list(v)], A.nrows).transpose()) is not None


def subspace_leq(A: Mat, B: Mat) -> bool:
    """Is span(A) contained in span(B)?"""
    return B.try_solve(A) is not None


# -- polynomials


def euclid_poly_gcd(field: Field, a: Poly, b: Poly) -> Poly:
    """The monic gcd by Euclid's algorithm on field coefficients (over Q,
    `Fraction` arithmetic throughout)."""
    a, b = poly_trim(field, a), poly_trim(field, b)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return poly_monic(field, a)


def sympy_charpoly(A: Mat) -> Poly:
    """The monic characteristic polynomial of a matrix over Q, by sympy."""
    import sympy  # only the polynomial tests need it

    M = sympy.Matrix(A.nrows, A.ncols, [sympy.Rational(x.numerator, x.denominator)
                                        for row in A.rows for x in row])
    coeffs = M.charpoly(sympy.symbols("t")).all_coeffs()
    return [Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)]


def sympy_factor_poly(field: Field, p: Poly) -> List[Tuple[Poly, int]]:
    """`tamebars.canonical.factor_poly` computed by sympy: the irreducible
    factors of a polynomial, made monic, with multiplicities, sorted by
    (degree, coefficient tuple)."""
    import sympy  # only the factoring tests need it

    p = poly_monic(field, p)
    if len(p) <= 1:
        return []
    t = sympy.symbols("t")
    high_to_low = list(reversed(p))
    if isinstance(field, PrimeField):
        poly = sympy.Poly([int(c) for c in high_to_low], t, domain=sympy.GF(field.p))
        read = lambda c: field.from_int(int(c))  # noqa: E731
    else:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in high_to_low],
                          t, domain=sympy.QQ)
        read = lambda c: Fraction(int(c.p), int(c.q))  # noqa: E731
    out = [(poly_monic(field, [read(c) for c in reversed(f.all_coeffs())]), int(k))
           for f, k in poly.factor_list()[1]]
    return sorted(out, key=lambda fk: (len(fk[0]), tuple(fk[0])))
