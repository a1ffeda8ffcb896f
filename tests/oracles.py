"""Helpers that only the tests use: boundary matrices of a whole complex, the
Euler characteristic, subspace predicates and the lift of a refined simplex.

The package computes homology through its sparse reducer and reads fibers
and slabs off the level index; these direct versions check it from outside.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from tamebars.complexes import Simplex, SimplexTable, faces_with_signs
from tamebars.field import Field, Scalar
from tamebars.matrix import Mat


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


# -- subspaces: any Mat with n rows spans a subspace of kappa^n by its columns


def span(field: Field, n: int, vectors: Sequence[Sequence[Scalar]]) -> Mat:
    return Mat.from_cols(field, vectors, n).column_reduced()


def subspace_sum(A: Mat, B: Mat) -> Mat:
    return A.hstack(B).column_reduced()


def subspace_dim(A: Mat) -> int:
    return A.column_reduced().ncols


def subspace_eq(A: Mat, B: Mat) -> bool:
    return A.column_reduced() == B.column_reduced()


def subspace_contains(A: Mat, v: Sequence[Scalar]) -> bool:
    return A.try_solve(Mat.from_cols(A.field, [list(v)], A.nrows)) is not None


def subspace_leq(A: Mat, B: Mat) -> bool:
    """Is span(A) contained in span(B)?"""
    return B.try_solve(A) is not None
