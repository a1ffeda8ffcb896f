"""Primary canonical structure of a square matrix over an exact field.

The decomposition of the monodromy operator needs, for each irreducible factor
q of the characteristic polynomial, the multiset of companion-power blocks q^k
together with an explicit similarity transform.  That polynomial comes from
one Krylov spin (Keller-Gehrig, TCS 1985), and the growth of the kernels of
q(A)^j gives the block sizes.  Polynomials are plain
coefficient lists (index = power), and everything, factoring included, is done
here so pivoting stays deterministic and no computer algebra system is loaded.

Factoring starts with a square-free decomposition (repeated gcds with the
derivative; in characteristic p a leftover p-th power is rooted by reading its
coefficients at t^(ip)).  Over Q every gcd is taken over Z by primitive
pseudo-remainders, since Euclid's algorithm on fractions grows its
coefficients fast with the degree.  Over GF(p) each square-free part is split
by Berlekamp's method: the kernel of Q - I, Q the Frobenius matrix, has one
dimension per irreducible factor, and gcds with kernel elements (for p = 2)
or with g^((p-1)/2) - 1 for seeded random kernel elements g (odd p) separate
them.  Over Q each part is cleared of denominators and factored by
Zassenhaus's method (von zur Gathen-Gerhard, Modern Computer Algebra, ch.
14-16): Berlekamp modulo the smallest prime that keeps it square-free of the
same degree, Hensel lifting past twice the leading coefficient times the
Mignotte bound, and recombination of the lifted factors by trial division,
smallest subsets first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .field import QQ, Field, PrimeField, Scalar, _is_prime
from .matrix import Mat, block_diag, side_by_side

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


def poly_add_scaled(field: Field, a: Poly, c: Scalar, b: Poly) -> Poly:
    """a + c*b."""
    out = list(a) + [field.zero] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] = field.add(out[j], field.mul(c, y))
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
    """The monic gcd; over Q by primitive pseudo-remainders over Z, which
    keeps the coefficients from growing as Euclid's algorithm on fractions
    lets them grow."""
    a, b = poly_trim(field, a), poly_trim(field, b)
    if a and b and not isinstance(field, PrimeField):
        return _primitive_gcd(a, b)
    while b:
        a, b = b, poly_divmod(field, a, b)[1]
    return poly_monic(field, a)


def _primitive_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd over Q of nonzero a and b.  Both are cleared of
    denominators and content; each pseudo-remainder lc(b)^(deg a - deg b + 1)
    a mod b is computed over Z and divided by its content.  Scaling by
    nonzero constants leaves the gcd unchanged up to a unit, so the last
    nonzero remainder made monic is the gcd."""
    from math import gcd, lcm

    def primitive(z: List[int]) -> List[int]:
        g = gcd(*z)
        return [c // g for c in z]

    def cleared(p: Poly) -> List[int]:
        den = lcm(*(c.denominator for c in p))
        return primitive([int(c * den) for c in p])

    x, y = cleared(a), cleared(b)
    while y:
        lead, n = y[-1], len(y)
        r = x
        while len(r) >= n:
            c, shift = r[-1], len(r) - n
            r = [v * lead for v in r]
            for j, v in enumerate(y):
                r[shift + j] -= c * v
            while r and not r[-1]:
                r.pop()
        x, y = y, primitive(r) if r else []
    return poly_monic(QQ, [Fraction(v) for v in x])


def poly_pow(field: Field, p: Poly, k: int) -> Poly:
    out: Poly = [field.one]
    for _ in range(k):
        out = poly_mul(field, out, p)
    return out


def poly_eval_mat(field: Field, p: Poly, A: Mat) -> Mat:
    """p(A) by Horner's rule, from the leading coefficient times I."""
    n = A.nrows
    if not p:
        return Mat.zeros(field, n, n)
    out = Mat.scalar(field, n, p[-1])
    for c in reversed(p[:-1]):
        out = out.mul(A)
        if c != field.zero:
            out = out.add_scalar(c)
    return out


# -- characteristic polynomial and factorization -----------------------------


def _krylov(A: Mat, v: Mat, k: int) -> Mat:
    """The k columns v, Av, ..., A^(k-1) v for a column v."""
    ws = [v]
    for _ in range(k - 1):
        ws.append(A.mul(ws[-1]))
    return side_by_side(A.field, A.nrows, ws)


def characteristic_polynomial(A: Mat) -> Poly:
    """Monic characteristic polynomial from one Krylov spin (Keller-Gehrig):
    e_0, A e_0, ..., then e_1, A e_1, ..., join one span, each run until its
    newest column depends on the span.  In the span's basis A is block upper
    triangular with one companion block per run, whose polynomial is the
    monic relation on the run's own columns; chi is their product."""
    field, n = A.field, A.nrows
    span, chi = Mat.zeros(field, n, 0), [field.one]
    eye = Mat.identity(field, n)
    for i in range(n):
        if span.ncols == n:
            break
        w, k = eye.columns([i]), 0
        while (sol := span.try_solve(w)) is None:
            if span.ncols == n:
                raise CanonicalFormError("Krylov spin passes n columns")
            span, w, k = span.hstack(w), A.mul(w), k + 1
        rel = [field.neg(c) for c in sol.transpose().rows[0][span.ncols - k:]] + [field.one]
        chi = poly_mul(field, chi, rel)
    return chi


def _derivative(field: Field, p: Poly) -> Poly:
    return poly_trim(field, [field.mul(field.from_int(i), c) for i, c in enumerate(p)][1:])


def _square_free(field: Field, f: Poly) -> List[Tuple[Poly, int]]:
    """[(g, i)] with pairwise coprime square-free monic g and f = prod g^i,
    for a monic f."""
    out = []
    c = poly_gcd(field, f, _derivative(field, f))
    w = poly_divmod(field, f, c)[0]  # one copy of each factor whose multiplicity p does not divide
    i = 1
    while poly_deg(w) > 0:
        y = poly_gcd(field, w, c)
        g = poly_divmod(field, w, y)[0]
        if poly_deg(g) > 0:
            out.append((g, i))
        w, c = y, poly_divmod(field, c, y)[0]
        i += 1
    if poly_deg(c) > 0:  # only in characteristic p: c(t) = r(t^p) = r(t)^p
        out += [(g, k * field.p) for g, k in _square_free(field, c[::field.p])]
    return out


def _powmod(field: Field, a: Poly, e: int, m: Poly) -> Poly:
    """a^e mod m by square-and-multiply."""
    out: Poly = [field.one]
    a = poly_divmod(field, a, m)[1]
    while e:
        if e & 1:
            out = poly_divmod(field, poly_mul(field, out, a), m)[1]
        e >>= 1
        if e:
            a = poly_divmod(field, poly_mul(field, a, a), m)[1]
    return out


def _inverse_mod(field: Field, a: Poly, m: Poly) -> Poly:
    """s with s*a = 1 mod m, by the extended Euclidean algorithm."""
    r0, r1 = m, poly_divmod(field, a, m)[1]
    s0, s1 = [], [field.one]  # r_i = s_i * a mod m
    while r1:
        q, r = poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add_scaled(field, s0, field.neg(field.one), poly_mul(field, q, s1))
    if poly_deg(r0) != 0:
        raise CanonicalFormError("inverse modulo a non-coprime polynomial")
    inv = field.inv(r0[0])
    return poly_divmod(field, [field.mul(inv, c) for c in s0], m)[1]


def _berlekamp(field: PrimeField, f: Poly) -> List[Poly]:
    """The monic irreducible factors of a square-free monic f over GF(p)."""
    n = poly_deg(f)
    if n <= 1:
        return [f]
    p = field.p
    xp = _powmod(field, [0, 1], p, f)
    frob, row = [], [field.one]  # row i of Q: t^(ip) mod f
    for _ in range(n):
        frob.append(row + [field.zero] * (n - len(row)))
        row = poly_divmod(field, poly_mul(field, row, xp), f)[1]
    # g = sum v_i t^i has g^p = g mod f exactly when (Q^T - I) v = 0; the
    # kernel has one dimension per irreducible factor (Berlekamp)
    K = Mat(field, [[field.sub(frob[i][j], int(i == j)) for i in range(n)]
                    for j in range(n)], n).kernel_basis()
    basis = [poly_trim(field, c) for c in K.transpose().rows]
    factors = [f]
    for w in _splitters(field, f, basis):
        if len(factors) == len(basis):
            break
        split = []
        for h in factors:
            d = poly_gcd(field, h, w)
            if 0 < poly_deg(d) < poly_deg(h):
                split += [d, poly_divmod(field, h, d)[0]]
            else:
                split.append(h)
        factors = split
    if len(factors) != len(basis):
        raise CanonicalFormError(f"Berlekamp found {len(factors)} of {len(basis)} factors")
    return factors


def _splitters(field: PrimeField, f: Poly, basis: List[Poly]):
    """Polynomials w whose gcds with the factors found so far split them.

    For p = 2 every factor h of f is gcd(h, v) gcd(h, v - 1) for a kernel
    element v, and the kernel basis separates any two irreducible factors.
    For odd p, g^((p-1)/2) - 1 for a random kernel element g keeps each
    irreducible factor with probability (p-1)/2p independently, so two given
    factors stay together in 64 rounds with probability below 1e-16.
    """
    if field.p == 2:
        yield from basis
        return
    import random

    rng = random.Random(0)
    for _ in range(64):
        g: Poly = []
        for v in basis:
            g = poly_add_scaled(field, g, rng.randrange(field.p), v)
        w = _powmod(field, g, (field.p - 1) // 2, f)
        yield poly_add_scaled(field, w, field.neg(field.one), [field.one])


class _Residues(PrimeField):
    """Z/mZ for a modulus m that need not be prime (only units are inverted)."""

    def __post_init__(self):
        pass


def _hensel_lift(field: PrimeField, z: List[int], factors: List[Poly], bound: int):
    """Lift z = lc(z) * prod(factors) mod p to a factorization mod p^k > bound.

    Linear lifting: with a_i the inverse of lc * prod_{l != i} g_l modulo g_i,
    the error e = (z - lc * prod g_i) / p^j mod p is corrected by
    g_i += p^j (e a_i mod g_i), since sum_i a_i lc prod_{l != i} g_l = 1 mod p.
    Returns the monic lifts, coefficients in [0, p^k), and p^k.
    """
    p, lc = field.p, z[-1]
    inverses = []
    for i, g in enumerate(factors):
        cofactor = [field.from_int(lc)]
        for h in factors[:i] + factors[i + 1:]:
            cofactor = poly_mul(field, cofactor, h)
        inverses.append(_inverse_mod(field, cofactor, g))
    lifted, pj = [list(g) for g in factors], p
    while pj <= bound:
        ring = _Residues(pj * p)
        prod = [ring.from_int(lc)]
        for g in lifted:
            prod = poly_mul(ring, prod, g)
        e = poly_trim(field, [(x - y) % ring.p // pj for x, y in zip(z, prod)])
        for g, a in zip(lifted, inverses):
            for j, d in enumerate(poly_divmod(field, poly_mul(field, e, a), g)[1]):
                g[j] += pj * d
        pj *= p
    return lifted, pj


def _zassenhaus(f: Poly) -> List[Poly]:
    """The monic irreducible factors over Q of a square-free monic f."""
    from itertools import combinations, count, islice
    from math import lcm

    n = poly_deg(f)
    if n <= 1:
        return [f]
    den = lcm(*(c.denominator for c in f))
    z = [int(c * den) for c in f]  # primitive: den is the least common denominator
    lc = z[-1]
    # the smallest prime dividing neither lc nor the discriminant, that is,
    # one that keeps z square-free of degree n.  The others divide Res(z, z'),
    # at most (n |z|_1)^(2n) by Hadamard's bound, so fewer primes fail than
    # are tried
    primes = (p for p in count(2) if _is_prime(p))
    for p in islice(primes, 2 * n * (n * sum(abs(c) for c in z)).bit_length()):
        if lc % p == 0:
            continue
        field = PrimeField(p)
        zp = poly_monic(field, [field.from_int(c) for c in z])
        if poly_deg(poly_gcd(field, zp, _derivative(field, zp))) == 0:
            break
    else:
        raise CanonicalFormError("no prime keeps the polynomial square-free")
    modular = _berlekamp(field, zp)
    if len(modular) == 1:
        return [f]
    # a factor of z has coefficients of size at most 2^n |z|_2 <= 2^n |z|_1
    # (Mignotte); lc/lc(h) * h for a factor h is then read exactly off its
    # symmetric residue lc * prod g_i mod p^k
    lifted, pk = _hensel_lift(field, z, modular, 2 * abs(lc) * 2**n * sum(abs(c) for c in z))
    ring = _Residues(pk)
    out, rest, s = [], f, 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            g = [ring.from_int(lc)]
            for i in subset:
                g = poly_mul(ring, g, lifted[i])
            cand = poly_monic(QQ, [Fraction(c - pk if 2 * c > pk else c) for c in g])
            q, r = poly_divmod(QQ, rest, cand)
            if not r:
                out.append(cand)
                rest = q
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return out + [rest]


def factor_poly(field: Field, p: Poly) -> List[Tuple[Poly, int]]:
    """Irreducible factorization of a monic polynomial, sorted deterministically.

    Returns [(q, multiplicity)] with each q monic, coefficients in `field`,
    sorted by (degree, coefficient tuple).
    """
    p = poly_monic(field, p)
    if poly_deg(p) <= 0:
        return []
    if isinstance(field, PrimeField):
        out = [(q, k) for part, k in _square_free(field, p) for q in _berlekamp(field, part)]
    else:
        out = [(q, k) for part, k in _square_free(field, p) for q in _zassenhaus(part)]
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
    rows = [[field.zero] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = lam
        if i + 1 < k:
            rows[i][i + 1] = field.one
    return Mat(field, rows, k)


def companion(field: Field, p: Poly) -> Mat:
    """Companion matrix of a monic polynomial in the basis v, Av, A^2 v, ..."""
    p = poly_monic(field, p)
    d = poly_deg(p)
    rows = [[field.zero] * d for _ in range(d)]
    for j in range(d - 1):
        rows[j + 1][j] = field.one
    for i in range(d):
        rows[i][d - 1] = field.neg(p[i])
    return Mat(field, rows, d)


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
    factors, companion blocks of q^k otherwise.  The factors q come from the
    characteristic polynomial, the sizes from the growth of ker q(A)^j.
    """
    field = A.field
    n = A.nrows
    if n == 0:
        return [], Mat.identity(field, 0)
    if not A.is_square():
        raise ValueError("primary_components needs a square matrix")
    cells: List[Tuple[Cell, Mat]] = []  # each cell with its basis as columns
    for q, m in factor_poly(field, characteristic_polynomial(A)):
        d = poly_deg(q)
        N = poly_eval_mat(field, q, A)
        # ker N^j grows strictly until it fills the q-primary part, of
        # dimension d*m, at the exponent of q in the minimal polynomial
        powers, kernels = [Mat.identity(field, n)], [Mat.zeros(field, n, 0)]
        while kernels[-1].ncols < d * m:
            if len(powers) > m:
                raise CanonicalFormError("kernels of q(A)^j stop short of the primary part")
            powers.append(powers[-1].mul(N))
            kernels.append(powers[-1].kernel_basis())
        picks: List[Tuple[Mat, int]] = []  # (column, height)
        for j in range(len(powers) - 1, 0, -1):
            # u in ker N^j is picked when it lies outside the span of
            # ker N^(j-1) and the Krylov blocks K(w, d) picked before it:
            # w = N^(h-j) v for each earlier pick (v, h), h > j, and w = u'
            # for the picks u' at height j.  One elimination decides every
            # u: the first column of u's block is a pivot when u lies outside
            # the span of all columns before it, the blocks of the columns
            # not picked included.  Those blocks add nothing: N w is in
            # ker N^(j-1) and A^d w = N w - (q - t^d)(A) w, so ker N^(j-1)
            # plus any of these K(w, d) is A-invariant, and a u inside such
            # a span brings its whole block K(u, d) with it.
            K = kernels[j]
            blocks = [kernels[j - 1]] + [_krylov(A, powers[h - j].mul(v), d) for v, h in picks]
            start = sum(B.ncols for B in blocks)
            blocks += [_krylov(A, K.columns([k]), d) for k in range(K.ncols)]
            pivots = set(side_by_side(field, n, blocks).rref()[1])
            picks += [(K.columns([k]), j) for k in range(K.ncols) if start + d * k in pivots]
        for v, h in picks:
            if d == 1:  # N^{h-1} v, ..., v
                chain = side_by_side(field, n, [powers[h - 1 - i].mul(v) for i in range(h)])
            else:
                chain = _krylov(A, v, d * h)
            cells.append((Cell(poly=tuple(q), size=h), chain))
    cells.sort(key=lambda ck: cell_sort_key(ck[0]))
    P = side_by_side(field, n, [chain for _, chain in cells])
    if P.ncols != n:
        raise CanonicalFormError("canonical basis has wrong cardinality")
    if not P.is_invertible():
        raise CanonicalFormError("canonical basis is singular")
    expected = block_diag(field, [c.block(field) for c, _ in cells])
    if A.mul(P) != P.mul(expected):
        raise CanonicalFormError("canonical form verification failed")
    return [c for c, _ in cells], P
