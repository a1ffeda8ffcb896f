"""Dense reference versions of the exact kernels, kept as test oracles.

These are the straightforward kernels the package used before its
elimination, products and sparse reduction learned to skip zeros: every
entry of every row is touched and every operation goes through the field
object.  They are slow and obviously right; `test_kernels.py` checks that
the fast kernels in `tamebars` return the same values, of the same types,
in the same order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from tamebars.canonical import (Cell, Poly, _krylov, cell_sort_key, factor_poly, poly_deg,
                                poly_divmod, poly_eval_mat, poly_gcd, poly_monic, poly_mul,
                                poly_pow)
from tamebars.field import PrimeField
from tamebars.matrix import Mat, side_by_side


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def dense_rref(M: Mat) -> Tuple[Mat, List[int]]:
    """Gauss-Jordan over whole rows with first-nonzero pivoting."""
    field = M.field
    p = field.p if isinstance(field, PrimeField) else None
    zero = field.zero
    rows = [row[:] for row in M.rows]
    nr, nc = M.nrows, M.ncols
    pivots: List[int] = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != field.one:
            ipv = field.inv(pv)
            rows[r] = [(ipv * x) % p if p else ipv * x for x in rows[r]]
        prow = rows[r]
        for i in range(nr):
            if i == r:
                continue
            f = rows[i][c]
            if f != zero:
                ri = rows[i]
                if p:
                    rows[i] = [(a - f * b) % p for a, b in zip(ri, prow)]
                else:
                    rows[i] = [a - f * b for a, b in zip(ri, prow)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Mat(field, rows, nc), pivots


def dense_mul(A: Mat, B: Mat) -> Mat:
    """Row-by-column products summed term by term in the field."""
    if A.ncols != B.nrows:
        raise ValueError("shape mismatch")
    p = A.field.p if isinstance(A.field, PrimeField) else None
    bcols = list(zip(*B.rows)) if B.rows else [()] * B.ncols
    out = []
    for row in A.rows:
        new = []
        for c in bcols:
            acc = sum((a * b for a, b in zip(row, c)), A.field.zero)
            new.append(acc % p if p else acc)
        out.append(new)
    return Mat(A.field, out, B.ncols)


def dense_matvec(A: Mat, v) -> list:
    p = A.field.p if isinstance(A.field, PrimeField) else None
    out = []
    for row in A.rows:
        acc = sum(a * b for a, b in zip(row, v))
        out.append(acc % p if p else acc)
    return out


class DenseReducer:
    """Sparse column reduction doing every step through the field object."""

    def __init__(self, field):
        self.field = field
        self.by_low: Dict[int, Tuple[dict, dict]] = {}

    def reduce(self, col: dict, tag: dict) -> Tuple[dict, dict]:
        F = self.field
        col = dict(col)
        tag = dict(tag)
        while col:
            low = max(col)
            hit = self.by_low.get(low)
            if hit is None:
                break
            rcol, rtag = hit
            c = F.mul(col[low], F.inv(rcol[low]))
            for r, x in rcol.items():
                nv = F.sub(col.get(r, F.zero), F.mul(c, x))
                if nv == F.zero:
                    col.pop(r, None)
                else:
                    col[r] = nv
            for r, x in rtag.items():
                nv = F.sub(tag.get(r, F.zero), F.mul(c, x))
                if nv == F.zero:
                    tag.pop(r, None)
                else:
                    tag[r] = nv
        return col, tag

    def insert(self, col: dict, tag: dict):
        col, tag = self.reduce(col, tag)
        if not col:
            return None
        low = max(col)
        self.by_low[low] = (col, tag)
        return low


def annihilates(mp: Poly, A: Mat, i: int) -> bool:
    """Is the i-th standard basis vector killed by mp(A)?  Builds mp(A)."""
    field = A.field
    v = [field.zero] * A.nrows
    v[i] = field.one
    return all(x == field.zero for x in dense_matvec(poly_eval_mat(field, mp, A), v))


def poly_lcm(field, a: Poly, b: Poly) -> Poly:
    """The monic lcm: the product divided by the gcd."""
    if not a or not b:
        return []
    return poly_monic(field, poly_divmod(field, poly_mul(field, a, b), poly_gcd(field, a, b))[0])


def minimal_polynomial(A: Mat) -> Poly:
    """Minimal polynomial with the annihilation test done on mp(A)."""
    field = A.field
    n = A.nrows
    mp: Poly = [field.one]
    for i in range(n):
        if poly_deg(mp) == n:
            break
        if annihilates(mp, A, i):
            continue
        v = [field.zero] * n
        v[i] = field.one
        krylov = [v]
        while True:
            w = dense_matvec(A, krylov[-1])
            cur = Mat(field, krylov, n).transpose()
            sol = cur.try_solve(Mat(field, [w], n).transpose())
            if sol is not None:
                rel = [field.neg(sol.rows[j][0]) for j in range(len(krylov))] + [field.one]
                mp = poly_lcm(field, mp, rel)
                break
            krylov.append(w)
    return mp


def minimal_polynomial_of_cells(field, cells: List[Cell]) -> Poly:
    """The minimal polynomial read off a primary decomposition: each q to the
    largest size among its cells."""
    top: Dict[Tuple, int] = {}
    for c in cells:
        top[c.poly] = max(top.get(c.poly, 0), c.size)
    mp: Poly = [field.one]
    for q, k in sorted(top.items()):
        mp = poly_mul(field, mp, poly_pow(field, list(q), k))
    return mp


def not_in_span(space: Mat, candidates: Mat) -> Optional[Mat]:
    """The first candidate column outside span(space): one solve per column."""
    for j in range(candidates.ncols):
        if space.try_solve(candidates.columns([j])) is None:
            return candidates.columns([j])
    return None


def primary_components(A: Mat) -> Tuple[List[Cell], Mat]:
    """Cells and P as `canonical.primary_components` returns them, with the
    chain tops at each height picked one kernel column at a time, each by a
    solve against the span of what is covered so far."""
    field, n = A.field, A.nrows
    if n == 0:
        return [], Mat.identity(field, 0)
    cells = []
    for q, e in factor_poly(field, minimal_polynomial(A)):
        d = poly_deg(q)
        N = poly_eval_mat(field, q, A)
        powers = [Mat.identity(field, n)]
        for _ in range(e):
            powers.append(powers[-1].mul(N))
        picks: List[Tuple[Mat, int]] = []  # (column, height)
        for j in range(e, 0, -1):
            cov = powers[j - 1].kernel_basis()
            for v, h in picks:
                cov = cov.hstack(_krylov(A, powers[h - j].mul(v), d))
            K = powers[j].kernel_basis()
            for k in range(K.ncols):
                u = K.columns([k])
                if cov.try_solve(u) is None:
                    picks.append((u, j))
                    cov = cov.hstack(_krylov(A, u, d))
        for v, h in picks:
            if d == 1:
                chain = side_by_side(field, n, [powers[h - 1 - i].mul(v) for i in range(h)])
            else:
                chain = _krylov(A, v, d * h)
            cells.append((Cell(poly=tuple(q), size=h), chain))
    cells.sort(key=lambda ck: cell_sort_key(ck[0]))
    return [c for c, _ in cells], side_by_side(field, n, [chain for _, chain in cells])
