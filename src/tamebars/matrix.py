"""Dense exact matrices with deterministic Gaussian elimination.

Matrices carry their field (see :mod:`tamebars.field`) and store rows as plain
lists.  Reduction always picks the first nonzero entry scanning columns left to
right and rows top to bottom, so every derived object (ranks, kernels, solved
systems, certificates) is reproducible bit for bit.

One Gauss-Jordan loop, `Mat.rref`, serves both fields.  It runs on integer
rows: residues over GF(p), and over Q each row cleared to integers over its
common denominator, combined fraction-free (after Bareiss) and kept
primitive.  Products over Q are likewise integer dot products over a common
denominator, with the same `_as_integers` clearing the rows.

Subspaces of kappa^n are represented by matrices whose columns span them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence

from .field import Field, PrimeField, Scalar


class LinearSolveError(ValueError):
    """Raised when an exact linear system admits no solution."""


def _as_integers(xs: Sequence[Scalar]) -> tuple[List[int], int]:
    """Rationals written as integers over their least common denominator."""
    den = lcm(*[x.denominator for x in xs])
    if den == 1:
        return [x.numerator for x in xs], 1
    return [x.numerator * (den // x.denominator) for x in xs], den


class Mat:
    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: List[List[Scalar]], ncols: Optional[int] = None):
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        if rows:
            self.ncols = len(rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[Scalar]], ncols: Optional[int] = None) -> "Mat":
        return cls(field, [list(r) for r in rows], ncols)

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Mat":
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_cols(cls, field: Field, cols: Sequence[Sequence[Scalar]], nrows: Optional[int] = None) -> "Mat":
        if not cols:
            return cls.zeros(field, nrows or 0, 0)
        n = len(cols[0])
        return cls(field, [[c[i] for c in cols] for i in range(n)], len(cols))

    # -- basics ------------------------------------------------------------

    def col(self, j: int) -> List[Scalar]:
        return [row[j] for row in self.rows]

    def cols(self) -> List[List[Scalar]]:
        return [self.col(j) for j in range(self.ncols)]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.to_str(x) for x in row) for row in self.rows)
        return f"Mat({self.field.name}, {self.nrows}x{self.ncols}: [{body}])"

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        # an inner dimension of 0 still gives other.ncols columns of zeros
        ocols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        p = self.field.p if isinstance(self.field, PrimeField) else None
        if p:
            out = [[sum(a * b for a, b in zip(row, c)) % p for c in ocols] for row in self.rows]
            return Mat(self.field, out, other.ncols)
        icols = [_as_integers(c) for c in ocols]
        out = []
        for row in self.rows:
            irow, rden = _as_integers(row)
            out.append([Fraction(sum([a * b for a, b in zip(irow, ic)]), rden * cden)
                        for ic, cden in icols])
        return Mat(self.field, out, other.ncols)

    def matvec(self, v: Sequence[Scalar]) -> List[Scalar]:
        p = self.field.p if isinstance(self.field, PrimeField) else None
        if p:
            return [sum(a * b for a, b in zip(row, v)) % p for row in self.rows]
        if not self.ncols:
            return [0] * self.nrows  # sums of no terms: the int 0, as over GF(p)
        iv, vden = _as_integers(v)
        out = []
        for row in self.rows:
            irow, rden = _as_integers(row)
            out.append(Fraction(sum([a * b for a, b in zip(irow, iv)]), rden * vden))
        return out

    def neg(self) -> "Mat":
        n = self.field.neg
        return Mat(self.field, [[n(x) for x in row] for row in self.rows], self.ncols)

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("hstack row mismatch")
        return Mat(self.field, [r1 + r2 for r1, r2 in zip(self.rows, other.rows)], self.ncols + other.ncols)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Mat", List[int]]:
        """``(R, pivots)``: the reduced row echelon form and its pivot columns
        in order, with deterministic first-nonzero pivoting.

        The pivot row is scaled to a leading 1 over GF(p) and made positive
        over Q.  Every other row ``r`` with ``f`` in the pivot column becomes
        ``(pv/g)*r - (f/g)*pivot_row``, ``g = gcd(pv, f)``: over GF(p) ``pv``
        is 1, so this is ``r - f*pivot_row`` mod p, and over Q a row that
        was scaled is divided by its content.  Over Q the pivot rows are
        divided by their pivots into Fractions after the last pivot.  The
        reduced form is unique, so this returns what plain Gauss-Jordan on
        field elements returns, and every entry over Q is a Fraction.

        Each pivot row is read once for its nonzero entries, and the other
        rows are updated at those columns only: an update at a zero of the
        pivot row could not change a value.  ``self.rows`` is left as it is.
        """
        field = self.field
        p = field.p if isinstance(field, PrimeField) else 0
        rows = [row[:] if p else _as_integers(row)[0] for row in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots: List[int] = []
        r = 0
        for c in range(nc):
            for pr in range(r, nr):
                if rows[pr][c]:
                    break
            else:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            pv = rows[r][c]
            if p and pv != 1:
                ipv = field.inv(pv)
                rows[r] = [(ipv * x) % p for x in rows[r]]
            elif pv < 0:  # so that a pivot of -1, like 1, needs no scaling
                pv = -pv
                rows[r] = [-x for x in rows[r]]
            # entries left of c are zero in every row from r down
            nonzeros = [(j, b) for j, b in enumerate(rows[r][c:], c) if b]
            for i in range(nr):
                ri = rows[i]
                f = ri[c]
                if not f or i == r:
                    continue
                if p:  # the pivot is 1 now, and so are g and s below
                    for j, b in nonzeros:
                        ri[j] = (ri[j] - f * b) % p
                    continue
                # s*ri - f*prow with s = pv/g: integral, and zero in column c
                g = gcd(pv, f)
                s, f = pv // g, f // g
                if s != 1:
                    ri = [s * x for x in ri]
                for j, b in nonzeros:
                    ri[j] -= f * b
                if s != 1:
                    g = gcd(*ri)
                    rows[i] = [x // g for x in ri] if g > 1 else ri
            pivots.append(c)
            r += 1
            if r == nr:
                break
        if not p:
            zero = Fraction(0)
            rows = [[Fraction(x, row[c]) if x else zero for x in row]
                    for row, c in zip(rows, pivots)]
            rows.extend([zero] * nc for _ in range(nr - len(pivots)))
        return Mat(field, rows, nc), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Matrix whose columns form the canonical basis of the null space.

        Free columns are scanned in increasing order; each generator carries 1
        at its free coordinate and minus the reduced coefficients at the pivot
        coordinates, which makes the result unique for a given input.
        """
        field = self.field
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        neg = field.neg
        cols = []
        for fj in free:
            v = [field.zero] * self.ncols
            v[fj] = field.one
            for i, pj in enumerate(pivots):
                v[pj] = neg(R.rows[i][fj])
            cols.append(v)
        return Mat.from_cols(field, cols, self.ncols)

    def try_solve(self, B: "Mat") -> Optional["Mat"]:
        """One exact solution X of ``self @ X = B``, or None if inconsistent."""
        if B.nrows != self.nrows:
            raise ValueError("solve: row mismatch")
        aug = self.hstack(B)
        R, pivots = aug.rref()
        na = self.ncols
        for pj in pivots:
            if pj >= na:
                return None
        zero = self.field.zero
        X = [[zero] * B.ncols for _ in range(na)]
        for i, pj in enumerate(pivots):
            X[pj] = R.rows[i][na:]
        return Mat(self.field, X, B.ncols)

    def solve(self, B: "Mat") -> "Mat":
        X = self.try_solve(B)
        if X is None:
            raise LinearSolveError("inconsistent linear system")
        return X

    def inverse(self) -> "Mat":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        R, pivots = self.hstack(Mat.identity(self.field, n)).rref()
        if pivots != list(range(n)):
            raise LinearSolveError("matrix is singular")
        return Mat(self.field, [row[n:] for row in R.rows], n)

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.nrows

    def basis(self) -> "Mat":
        """The columns at the pivots of the row echelon form: a basis of the
        column space, taken from the columns themselves."""
        pivots = self.rref()[1]
        return Mat(self.field, [[row[j] for j in pivots] for row in self.rows], len(pivots))


# -- subspace helpers -------------------------------------------------------
# A subspace of kappa^n is any Mat with n rows; its columns span the space.


def image(M: Mat, S: Mat) -> Mat:
    """A basis of M(span S)."""
    return M.mul(S).basis()


def preimage(M: Mat, S: Mat) -> Mat:
    """A basis of {x : M x in span(S)}, when the columns of S are independent:
    the kernel of [M | -S] then projects injectively onto its top rows."""
    if S.ncols == 0:
        return M.kernel_basis()
    K = M.hstack(S.neg()).kernel_basis()
    return Mat(M.field, K.rows[:M.ncols], K.ncols)


def block_diag(field: Field, blocks: Sequence[Mat]) -> Mat:
    nr = sum(b.nrows for b in blocks)
    nc = sum(b.ncols for b in blocks)
    out = Mat.zeros(field, nr, nc)
    r0 = c0 = 0
    for b in blocks:
        for i in range(b.nrows):
            out.rows[r0 + i][c0 : c0 + b.ncols] = [x for x in b.rows[i]]
        r0 += b.nrows
        c0 += b.ncols
    return out
