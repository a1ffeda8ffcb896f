"""Dense exact matrices with deterministic Gaussian elimination.

Matrices carry their field (see :mod:`tamebars.field`) and are never written
after they are built.  Reduction always picks the first nonzero entry
scanning columns left to right and rows top to bottom, so every derived
object (ranks, kernels, solved systems, certificates) is reproducible bit for
bit.

Rows are stored as integers.  Over GF(p) a row is a list of residues in
[0, p).  Over Q a row is a list of integers over one positive denominator,
in lowest terms (the gcd of the entries and the denominator is 1), so equal
rows are stored alike.  A row over Q is cleared of denominators once, when
the matrix is built from field scalars; products, eliminations and stacks
build their rows in that form directly (after Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 1968).
`Mat.rows` is the view as field scalars: the stored rows over GF(p), and
`Fraction`s built anew on each read over Q.

One Gauss-Jordan loop, `Mat.rref`, serves both fields.  Over Q it combines
rows fraction-free and keeps a scaled row primitive, and it ends by giving
each pivot row its pivot as denominator.

Subspaces of kappa^n are represented by matrices whose columns span them,
and a vector is a one-column matrix.  `stack` lays blocks out in block rows;
`side_by_side` is its one block row, and `block_diag` its diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul as _mul
from typing import List, Optional, Sequence, Tuple

from .field import Field, PrimeField, Scalar


class LinearSolveError(ValueError):
    """Raised when an exact linear system admits no solution."""


def _lowest(row: List[int], den: int) -> tuple[List[int], int]:
    """The integer row over `den` divided by the gcd of its entries and den."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [x // g for x in row], den // g


def _reduced(field: Field, ints: List[List[int]], dens: Optional[List[int]], ncols: int) -> "Mat":
    """A matrix on integer rows over dens, each row over Q put in lowest
    terms; over GF(p), where dens is None, the rows as they are."""
    if dens is not None:
        for i, d in enumerate(dens):
            ints[i], dens[i] = _lowest(ints[i], d)
    return Mat._of(field, ints, dens, ncols)


def _common_denominator(ints: List[List[int]], dens: List[int]) -> tuple[List[List[int]], int]:
    """Integer rows over their own denominators, rewritten over the lcm."""
    den = lcm(*dens)
    return [row if d == den else [x * (den // d) for x in row] for row, d in zip(ints, dens)], den


class Mat:
    """An exact matrix: `field`, `nrows`, `ncols` and the rows.

    `_ints` holds the integer rows; `_dens` the denominators of the rows
    over Q, and None over GF(p).  `rows` reads the entries as field scalars.
    """

    __slots__ = ("field", "nrows", "ncols", "_ints", "_dens")

    def __init__(self, field: Field, rows: List[List[Scalar]], ncols: Optional[int] = None):
        dens = None
        if not isinstance(field, PrimeField):
            ints, dens = [], []
            for row in rows:
                den = lcm(*[x.denominator for x in row])
                if den == 1:
                    ints.append([x.numerator for x in row])
                else:
                    # lowest terms already: a prime that divides den to its
                    # full power divides the denominator of some entry to
                    # that power, and that entry's numerator is then prime to it
                    ints.append([x.numerator * (den // x.denominator) for x in row])
                dens.append(den)
            rows = ints
        self.field, self._ints, self._dens = field, rows, dens
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else (0 if ncols is None else ncols)

    @classmethod
    def _of(cls, field: Field, ints: List[List[int]], dens: Optional[List[int]],
            ncols: int) -> "Mat":
        """A matrix on integer rows already in the stored form."""
        M = cls.__new__(cls)
        M.field, M._ints, M._dens = field, ints, dens
        M.nrows = len(ints)
        M.ncols = len(ints[0]) if ints else ncols
        return M

    @property
    def rows(self) -> List[List[Scalar]]:
        """The entries as field scalars, built on each read over Q; never write them."""
        if self._dens is None:
            return self._ints
        zero = Fraction(0)
        return [[Fraction(x) if x else zero for x in row] if d == 1
                else [Fraction(x, d) if x else zero for x in row]
                for row, d in zip(self._ints, self._dens)]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Mat":
        dens = None if isinstance(field, PrimeField) else [1] * nrows
        return cls._of(field, [[0] * ncols for _ in range(nrows)], dens, ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls.scalar(field, n, field.one)

    @classmethod
    def scalar(cls, field: Field, n: int, c: Scalar) -> "Mat":
        """c times the n-by-n identity."""
        if isinstance(field, PrimeField):
            return cls._of(field, [[c if i == j else 0 for j in range(n)] for i in range(n)], None, n)
        num = c.numerator
        return cls._of(field, [[num if i == j else 0 for j in range(n)] for i in range(n)],
                       [c.denominator] * n, n)

    # -- basics ------------------------------------------------------------

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._ints == other._ints
            and self._dens == other._dens
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.to_str(x) for x in row) for row in self.rows)
        return f"Mat({self.field.name}, {self.nrows}x{self.ncols}: [{body}])"

    def columns(self, js: Sequence[int]) -> "Mat":
        """The submatrix of the columns js, in that order."""
        dens = None if self._dens is None else list(self._dens)
        return _reduced(self.field, [[row[j] for j in js] for row in self._ints], dens, len(js))

    def transpose(self) -> "Mat":
        rows, dens = self._ints, self._dens
        if dens is not None:
            rows, den = _common_denominator(rows, dens)
            dens = [den] * self.ncols
        ints = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(self.ncols)]
        return _reduced(self.field, ints, dens, self.nrows)

    def head(self, k: int) -> "Mat":
        """The first k rows."""
        dens = None if self._dens is None else self._dens[:k]
        return Mat._of(self.field, self._ints[:k], dens, self.ncols)

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        field, m = self.field, other.ncols
        if self._dens is None:
            p = field.p
            # an inner dimension of 0 still gives other.ncols columns of zeros
            ocols = list(zip(*other._ints)) if other._ints else [()] * m
            out = [[sum(a * b for a, b in zip(row, c)) % p for c in ocols] for row in self._ints]
            return Mat._of(field, out, None, m)
        # the columns of other over one common denominator
        orows, cden = _common_denominator(other._ints, other._dens)
        ocols = list(zip(*orows)) if orows else [()] * m
        ints = [[sum(map(_mul, row, c)) for c in ocols] for row in self._ints]
        return _reduced(field, ints, [d * cden for d in self._dens], m)

    def neg(self) -> "Mat":
        if self._dens is None:
            n = self.field.neg
            return Mat._of(self.field, [[n(x) for x in row] for row in self._ints], None, self.ncols)
        return Mat._of(self.field, [[-x for x in row] for row in self._ints], self._dens, self.ncols)

    def add_scalar(self, c: Scalar) -> "Mat":
        """``self + c*I`` for a square matrix."""
        field = self.field
        if self._dens is None:
            ints = [row[:] for row in self._ints]
            for i, row in enumerate(ints):
                row[i] = field.add(row[i], c)
            return Mat._of(field, ints, None, self.ncols)
        dens = [lcm(d, c.denominator) for d in self._dens]
        ints = [[x * (den // d) for x in row] for row, d, den in zip(self._ints, self._dens, dens)]
        for i, (row, den) in enumerate(zip(ints, dens)):
            row[i] += c.numerator * (den // c.denominator)
        return _reduced(field, ints, dens, self.ncols)

    def hstack(self, other: "Mat") -> "Mat":
        if self.nrows != other.nrows:
            raise ValueError("hstack row mismatch")
        nc = self.ncols + other.ncols
        if self._dens is None:
            return Mat._of(self.field, [r1 + r2 for r1, r2 in zip(self._ints, other._ints)], None, nc)
        ints, dens = [], []
        # lowest terms again: a prime of the common denominator divides one
        # side's denominator to its full power, and that side's entries are
        # not all divisible by it
        for r1, d1, r2, d2 in zip(self._ints, self._dens, other._ints, other._dens):
            if d1 == d2:
                ints.append(r1 + r2)
                dens.append(d1)
                continue
            den = lcm(d1, d2)
            s1, s2 = den // d1, den // d2
            ints.append(([x * s1 for x in r1] if s1 != 1 else r1)
                        + ([x * s2 for x in r2] if s2 != 1 else r2))
            dens.append(den)
        return Mat._of(self.field, ints, dens, nc)

    # -- elimination -------------------------------------------------------

    def rref(self) -> tuple["Mat", List[int]]:
        """``(R, pivots)``: the reduced row echelon form and its pivot columns
        in order, with deterministic first-nonzero pivoting.

        The loop runs on copies of the integer rows; over Q a row and its
        denominator span the same line, so the denominators are set aside.
        The pivot row is scaled to a leading 1 over GF(p) and made positive
        over Q.  Every other row ``r`` with ``f`` in the pivot column becomes
        ``(pv/g)*r - (f/g)*pivot_row``, ``g = gcd(pv, f)``: over GF(p) ``pv``
        is 1, so this is ``r - f*pivot_row`` mod p, and over Q a row that
        was scaled is divided by its content.  Over Q each pivot row then
        takes its pivot as denominator, in lowest terms.  The reduced form is
        unique, so this returns what plain Gauss-Jordan on field elements
        returns.

        Each pivot row is read once for its nonzero entries, and the other
        rows are updated at those columns only: an update at a zero of the
        pivot row could not change a value.
        """
        field = self.field
        p = field.p if self._dens is None else 0
        rows = [row[:] for row in self._ints]
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
        # over Q a pivot row takes its pivot as denominator; the rows past
        # the pivots are zero
        dens = None if p else [row[c] for row, c in zip(rows, pivots)] + [1] * (nr - r)
        return _reduced(field, rows, dens, nc), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Matrix whose columns form the canonical basis of the null space.

        Free columns are scanned in increasing order; each generator carries 1
        at its free coordinate and minus the reduced coefficients at the pivot
        coordinates, which makes the result unique for a given input.  Row pj
        of the result is minus row i of R at the free columns, and over Q
        keeps its denominator: the row's other nonzero entry is its pivot.
        """
        field = self.field
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivset]
        nf = len(free)
        ints = [[0] * nf for _ in range(self.ncols)]
        for k, fj in enumerate(free):
            ints[fj][k] = 1
        dens = None if R._dens is None else [1] * self.ncols
        for i, pj in enumerate(pivots):
            Ri = R._ints[i]
            if dens is None:
                ints[pj] = [-Ri[fj] % field.p for fj in free]
            else:
                ints[pj] = [-Ri[fj] for fj in free]
                dens[pj] = R._dens[i]
        return Mat._of(field, ints, dens, nf)

    def try_solve(self, B: "Mat") -> Optional["Mat"]:
        """One exact solution X of ``self @ X = B``, or None if inconsistent."""
        if B.nrows != self.nrows:
            raise ValueError("solve: row mismatch")
        R, pivots = self.hstack(B).rref()
        na = self.ncols
        if pivots and pivots[-1] >= na:
            return None
        return _solution(R, pivots, na)

    def inverse(self) -> "Mat":
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        R, pivots = self.hstack(Mat.identity(self.field, n)).rref()
        if pivots != list(range(n)):
            raise LinearSolveError("matrix is singular")
        return _solution(R, pivots, n)

    def is_invertible(self) -> bool:
        return self.is_square() and self.rank() == self.nrows


def _solution(R: Mat, pivots: List[int], na: int) -> Mat:
    """X with A X = B, free unknowns zero, read off R, the reduced [A | B]
    with A of width na: row pj of X is pivot row i of R past column na."""
    w = R.ncols - na
    ints = [[0] * w for _ in range(na)]
    dens = None if R._dens is None else [1] * na
    for i, pj in enumerate(pivots):
        ints[pj] = R._ints[i][na:]
        if dens is not None:
            dens[pj] = R._dens[i]
    return _reduced(R.field, ints, dens, w)


# -- subspace helpers -------------------------------------------------------
# A subspace of kappa^n is any Mat with n rows; its columns span the space.


def image(M: Mat, S: Mat) -> Mat:
    """A basis of M(span S): the columns of MS at the pivots of its row
    echelon form."""
    MS = M.mul(S)
    return MS.columns(MS.rref()[1])


def preimage(M: Mat, S: Mat) -> Mat:
    """A basis of {x : M x in span(S)}, when the columns of S are independent:
    the kernel of [M | -S] then projects injectively onto its top rows."""
    if S.ncols == 0:
        return M.kernel_basis()
    return M.hstack(S.neg()).kernel_basis().head(M.ncols)


def stack(field: Field, ncols: int, block_rows: Sequence[Sequence[Tuple[int, Mat]]]) -> Mat:
    """Block rows one under another.  A block row is a list of pairs
    ``(offset, B)``: B fills its rows from column offset on.  The blocks of
    one block row have as many rows and do not overlap, and the rest of each
    row is zero.  Over Q a row takes the lcm of its blocks' denominators,
    which keeps it in lowest terms, as in `Mat.hstack`."""
    ints: List[List[int]] = []
    dens: Optional[List[int]] = None if isinstance(field, PrimeField) else []
    for blocks in block_rows:
        for i in range(blocks[0][1].nrows):
            row = [0] * ncols
            if dens is None:
                for off, B in blocks:
                    row[off:off + B.ncols] = B._ints[i]
            else:
                den = lcm(*[B._dens[i] for _, B in blocks])
                for off, B in blocks:
                    s = den // B._dens[i]
                    row[off:off + B.ncols] = B._ints[i] if s == 1 else [x * s for x in B._ints[i]]
                dens.append(den)
            ints.append(row)
    return Mat._of(field, ints, dens, ncols)


def side_by_side(field: Field, nrows: int, blocks: Sequence[Mat]) -> Mat:
    """The blocks, each with nrows rows, left to right: one block row."""
    if not blocks:
        return Mat.zeros(field, nrows, 0)
    offsets = [0, *accumulate(B.ncols for B in blocks)]
    return stack(field, offsets[-1], [list(zip(offsets, blocks))])


def block_diag(field: Field, blocks: Sequence[Mat]) -> Mat:
    offsets = [0, *accumulate(b.ncols for b in blocks)]
    return stack(field, offsets[-1], [[(c0, b)] for c0, b in zip(offsets, blocks)])
