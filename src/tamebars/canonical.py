"""Primary canonical structure of a square matrix over an exact field.

The decomposition of the monodromy operator needs, for each irreducible factor
q of the minimal polynomial, the multiset of companion-power blocks q^k
together with an explicit similarity transform.  Polynomials are plain
coefficient lists (index = power); irreducible factorization over Q and GF(p)
is delegated to sympy, everything else is done here so pivoting stays
deterministic.  sympy is imported on the first factorization only: real
targets never factor a polynomial, and the import would dominate their
start-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .field import Field, PrimeField, Scalar
from .matrix import Mat, block_diag

Poly = List[Scalar]  # coefficient list, index = power, no trailing zeros


class CanonicalFormError(RuntimeError):
    """Internal failure while building a canonical basis (indicates a bug)."""


# -- polynomial arithmetic ---------------------------------------------------


def poly_trim(field: Field, p: Poly) -> Poly:
    while p and p[-1] == field.zero:
        p = p[:-1]
    return p


def poly_deg(p: Poly) -> int:
    return len(p) - 1


def poly_mul(field: Field, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return poly_trim(field, out)


def poly_divmod(field: Field, a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    b = poly_trim(field, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [field.zero] * max(len(a) - len(b) + 1, 0)
    inv_lead = field.inv(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        if len(r) < len(b) + i:
            continue
        c = field.mul(r[len(b) + i - 1], inv_lead)
        if c == field.zero:
            continue
        q[i] = c
        for j, y in enumerate(b):
            r[i + j] = field.sub(r[i + j], field.mul(c, y))
    return poly_trim(field, q), poly_trim(field, r)


def poly_monic(field: Field, p: Poly) -> Poly:
    p = poly_trim(field, p)
    if not p or p[-1] == field.one:
        return list(p)
    inv = field.inv(p[-1])
    return [field.mul(inv, c) for c in p]


def poly_gcd(field: Field, a: Poly, b: Poly) -> Poly:
    a, b = poly_trim(field, a), poly_trim(field, b)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return poly_monic(field, a)


def poly_lcm(field: Field, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    g = poly_gcd(field, a, b)
    q, r = poly_divmod(field, poly_mul(field, a, b), g)
    if r:
        raise CanonicalFormError("gcd does not divide the product")
    return poly_monic(field, q)


def poly_pow(field: Field, p: Poly, k: int) -> Poly:
    out: Poly = [field.one]
    for _ in range(k):
        out = poly_mul(field, out, p)
    return out


def poly_eval_mat(field: Field, p: Poly, A: Mat) -> Mat:
    n = A.nrows
    out = Mat.zeros(field, n, n)
    for c in reversed(p):
        out = out.mul(A)
        if c != field.zero:
            for i in range(n):
                out.rows[i][i] = field.add(out.rows[i][i], c)
    return out


# -- minimal polynomial and factorization ------------------------------------


def annihilates_basis_vector(A: Mat, p: Poly, i: int) -> bool:
    """Is p(A) e_i zero?  Horner's rule on the vector: deg(p) products."""
    field = A.field
    w = [field.zero] * A.nrows
    w[i] = p[-1]
    for c in reversed(p[:-1]):
        w = A.matvec(w)
        w[i] = field.add(w[i], c)
    return not any(w)


def minimal_polynomial(A: Mat) -> Poly:
    """Monic minimal polynomial via per-basis-vector Krylov relations."""
    field = A.field
    n = A.nrows
    mp: Poly = [field.one]
    for i in range(n):
        if poly_deg(mp) == n:
            break
        # skip basis vectors already annihilated by the current candidate
        if annihilates_basis_vector(A, mp, i):
            continue
        v = [field.zero] * n
        v[i] = field.one
        krylov = [v]
        while True:
            w = A.matvec(krylov[-1])
            cur = Mat.from_cols(field, krylov, n)
            sol = cur.try_solve(Mat.from_cols(field, [w], n))
            if sol is not None:
                rel = [field.neg(sol.rows[j][0]) for j in range(len(krylov))] + [field.one]
                mp = poly_lcm(field, mp, rel)
                break
            krylov.append(w)
    return mp


def factor_poly(field: Field, p: Poly) -> List[Tuple[Poly, int]]:
    """Irreducible factorization of a monic polynomial, sorted deterministically.

    Returns [(q, multiplicity)] with each q monic, coefficients in `field`,
    sorted by (degree, coefficient tuple).
    """
    p = poly_monic(field, p)
    if poly_deg(p) <= 0:
        return []
    import sympy

    t = sympy.symbols("t")
    high_to_low = list(reversed(p))
    if isinstance(field, PrimeField):
        sp = sympy.Poly([int(c) for c in high_to_low], t, domain=sympy.GF(field.p))
        _, raw = sp.factor_list()
        out = []
        for f, k in raw:
            coeffs = [field.from_int(int(c)) for c in reversed(f.all_coeffs())]
            out.append((poly_monic(field, coeffs), int(k)))
    else:
        sp = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in high_to_low], t, domain=sympy.QQ
        )
        _, raw = sp.factor_list()
        out = []
        for f, k in raw:
            coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
            out.append((poly_monic(field, coeffs), int(k)))
    out.sort(key=lambda fk: (len(fk[0]), tuple(fk[0])))
    total = [field.one]
    for q, k in out:
        total = poly_mul(field, total, poly_pow(field, q, k))
    if total != p:
        raise CanonicalFormError("factorization does not multiply back")
    return out


# -- canonical blocks ---------------------------------------------------------


def jordan_block(field: Field, lam: Scalar, k: int) -> Mat:
    """The k-by-k upper bidiagonal block: lam on the diagonal, 1 above it."""
    B = Mat.zeros(field, k, k)
    for i in range(k):
        B.rows[i][i] = lam
        if i + 1 < k:
            B.rows[i][i + 1] = field.one
    return B


def companion(field: Field, p: Poly) -> Mat:
    """Companion matrix of a monic polynomial in the basis v, Av, A^2 v, ..."""
    p = poly_monic(field, p)
    d = poly_deg(p)
    C = Mat.zeros(field, d, d)
    for j in range(d - 1):
        C.rows[j + 1][j] = field.one
    for i in range(d):
        C.rows[i][d - 1] = field.neg(p[i])
    return C


@dataclass(frozen=True, order=True)
class Cell:
    """A primary component: irreducible monic q and exponent k (block q^k)."""

    poly: Tuple[Scalar, ...]
    size: int

    def degree(self) -> int:
        return len(self.poly) - 1

    def is_linear(self) -> bool:
        return len(self.poly) == 2

    def eigenvalue_in(self, field: Field) -> Optional[Scalar]:
        if not self.is_linear():
            return None
        return field.neg(self.poly[0])

    def block(self, field: Field) -> Mat:
        if self.is_linear():
            return jordan_block(field, field.neg(self.poly[0]), self.size)
        return companion(field, poly_pow(field, list(self.poly), self.size))

    def dim(self) -> int:
        return self.degree() * self.size


def cell_sort_key(c: Cell):
    return (c.degree(), tuple(c.poly), c.size)


def primary_components(A: Mat) -> Tuple[List[Cell], Mat]:
    """Primary canonical decomposition of a square matrix with its transform.

    Returns
    -------
    (cells, P) : `cells` is the multiset of primary components sorted by
    (degree, coefficients, size); `P` is invertible with ``P^-1 A P`` equal to
    the block diagonal of ``cell.block(field)`` in that order.  Jordan blocks
    in the sense of the upper bidiagonal convention are used for linear
    factors, companion blocks of q^k otherwise.
    """
    field = A.field
    n = A.nrows
    if n == 0:
        return [], Mat.identity(field, 0)
    if not A.is_square():
        raise ValueError("primary_components needs a square matrix")
    mp = minimal_polynomial(A)
    cells: List[Tuple[Cell, List[List[Scalar]]]] = []
    for q, e in factor_poly(field, mp):
        d = poly_deg(q)
        N = poly_eval_mat(field, q, A)
        powers = [Mat.identity(field, n)]  # N^0
        for _ in range(e):
            powers.append(powers[-1].mul(N))
        kernels = [Mat.zeros(field, n, 0)] + [powers[j].kernel_basis() for j in range(1, e + 1)]
        picks: List[Tuple[List[Scalar], int]] = []  # (vector, height)
        for j in range(e, 0, -1):
            covered = kernels[j - 1].cols()
            for v, h in picks:
                if h > j:
                    w = powers[h - j].matvec(v)
                    for _ in range(d):
                        covered.append(w)
                        w = A.matvec(w)
            cov = Mat.from_cols(field, covered, n)
            for u in kernels[j].cols():
                if cov.try_solve(Mat.from_cols(field, [u], n)) is not None:
                    continue
                picks.append((u, j))
                w = list(u)
                new_cols = []
                for _ in range(d):
                    new_cols.append(w)
                    w = A.matvec(w)
                cov = cov.hstack(Mat.from_cols(field, new_cols, n))
        for v, h in picks:
            if d == 1:
                chain = [powers[h - 1 - i].matvec(v) for i in range(h)]  # N^{h-1} v, ..., v
            else:
                chain = []
                w = list(v)
                for _ in range(d * h):
                    chain.append(w)
                    w = A.matvec(w)
            cells.append((Cell(poly=tuple(q), size=h), chain))
    cells.sort(key=lambda ck: cell_sort_key(ck[0]))
    cols: List[List[Scalar]] = []
    for _, chain in cells:
        cols.extend(chain)
    if len(cols) != n:
        raise CanonicalFormError("canonical basis has wrong cardinality")
    P = Mat.from_cols(field, cols, n)
    if not P.is_invertible():
        raise CanonicalFormError("canonical basis is singular")
    expected = block_diag(field, [c.block(field) for c, _ in cells])
    if A.mul(P) != P.mul(expected):
        raise CanonicalFormError("canonical form verification failed")
    return [c for c, _ in cells], P
