from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamebars import canonical
from tamebars.canonical import (
    CanonicalFormError,
    Cell,
    characteristic_polynomial,
    companion,
    factor_poly,
    jordan_block,
    poly_eval_mat,
    poly_gcd,
    poly_mul,
    poly_pow,
    primary_components,
)
from tamebars.field import GF2, QQ, PrimeField
from tamebars.matrix import Mat, block_diag
from kernel_oracles import minimal_polynomial_of_cells, poly_lcm
from oracles import euclid_poly_gcd, from_int_rows, is_zero, sympy_factor_poly

F3 = PrimeField(3)
F5 = PrimeField(5)
F31 = PrimeField(2**31 - 1)


def _q(*vals):
    return [Fraction(v) for v in vals]


def test_poly_arithmetic():
    # (t-1)(t-2) = t^2 - 3t + 2
    assert poly_mul(QQ, _q(-1, 1), _q(-2, 1)) == _q(2, -3, 1)
    assert poly_gcd(QQ, _q(2, -3, 1), _q(-1, 1)) == _q(-1, 1)
    assert poly_lcm(QQ, _q(-1, 1), _q(-2, 1)) == _q(2, -3, 1)
    assert poly_pow(QQ, _q(-1, 1), 2) == _q(1, -2, 1)


def test_poly_eval_mat_cayley_hamilton_witness():
    A = from_int_rows(QQ, [[0, 1], [-1, 0]])
    # t^2 + 1 kills the rotation matrix
    assert is_zero(poly_eval_mat(QQ, _q(1, 0, 1), A))


def test_characteristic_polynomial_examples():
    A = from_int_rows(QQ, [[0, 1], [-1, 0]])
    assert characteristic_polynomial(A) == _q(1, 0, 1)
    # a repeated eigenvalue keeps its full multiplicity, diagonalizable or not
    D = from_int_rows(QQ, [[2, 0], [0, 2]])
    assert characteristic_polynomial(D) == _q(4, -4, 1)
    N = from_int_rows(QQ, [[0, 1], [0, 0]])
    assert characteristic_polynomial(N) == _q(0, 0, 1)
    assert characteristic_polynomial(Mat.identity(QQ, 0)) == [Fraction(1)]
    # diag(1, 1, 2): e_1 lies in the span of e_0's run and adds no factor
    E = from_int_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert characteristic_polynomial(E) == _q(-2, 5, -4, 1)


def test_minimal_polynomial_examples():
    # the minimal polynomial is read off the cells: each q to its largest size
    def minimal_polynomial(A):
        return minimal_polynomial_of_cells(A.field, primary_components(A)[0])

    A = from_int_rows(QQ, [[0, 1], [-1, 0]])
    assert minimal_polynomial(A) == _q(1, 0, 1)
    # diagonalizable with repeated eigenvalue: min poly is squarefree
    D = from_int_rows(QQ, [[2, 0], [0, 2]])
    assert minimal_polynomial(D) == _q(-2, 1)
    N = from_int_rows(QQ, [[0, 1], [0, 0]])
    assert minimal_polynomial(N) == _q(0, 0, 1)
    assert minimal_polynomial(Mat.identity(QQ, 0)) == [Fraction(1)]


def test_factor_poly_over_q_and_gf():
    # t^3 - 5t^2 + 8t - 4 = (t-1)(t-2)^2
    fac = factor_poly(QQ, _q(-4, 8, -5, 1))
    assert fac == [(_q(-2, 1), 2), (_q(-1, 1), 1)]
    # t^2 + 1 irreducible over Q, (t+1)^2 over GF(2), splits over GF(5)
    assert factor_poly(QQ, _q(1, 0, 1)) == [(_q(1, 0, 1), 1)]
    assert factor_poly(GF2, [1, 0, 1]) == [([1, 1], 2)]
    assert factor_poly(F5, [1, 0, 1]) == [([2, 1], 1), ([3, 1], 1)]


# Irreducible polynomials over each field, coefficients ascending.
KNOWN_IRREDUCIBLE = {
    QQ: [(1, 0, 1), (-2, 0, 1), (1, 1, 1), (-2, 0, 0, 1), (1, 0, 0, 0, 1), (1, 0, -10, 0, 1)],
    GF2: [(0, 1), (1, 1), (1, 1, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 0, 0, 1)],
    F3: [(1, 0, 1), (2, 1, 1), (1, 2, 0, 1), (2, 0, 1, 0, 1)],
    F31: [(1, 0, 1), (2, 0, 1), (5, 0, 0, 1), (7, 0, 0, 1)],
}


@st.composite
def factored_products(draw, field):
    """A nonzero multiple of a product of powers of known irreducibles,
    linear factors and random monic polynomials, of degree at most 10."""
    def coeff(big):
        if field == QQ:
            return Fraction(draw(st.integers(-big, big)), draw(st.integers(1, big)))
        return draw(st.integers(0, field.p - 1))

    lead = coeff(10**6)
    p = [lead if lead != field.zero else field.one]
    degree = 0
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["known", "linear", "random"]))
        if kind == "known":
            q = [field.from_int(c) for c in draw(st.sampled_from(KNOWN_IRREDUCIBLE[field]))]
        elif kind == "linear":
            q = [coeff(10**12), field.one]
        else:
            q = [coeff(10**3) for _ in range(draw(st.integers(1, 3)))] + [field.one]
        k = draw(st.integers(1, 3))
        if degree + k * (len(q) - 1) <= 10:
            p = poly_mul(field, p, poly_pow(field, q, k))
            degree += k * (len(q) - 1)
    return p


@pytest.mark.parametrize("field", [QQ, GF2, F3, F31], ids=["Q", "GF2", "GF3", "GF(2^31-1)"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_factor_poly_matches_sympy(field, data):
    p = data.draw(factored_products(field))
    assert factor_poly(field, p) == sympy_factor_poly(field, p)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_poly_gcd_over_q_matches_euclid(data):
    # a common factor times two cofactors, or a polynomial and its derivative
    g, a, b = (data.draw(factored_products(QQ)) for _ in range(3))
    x, y = poly_mul(QQ, g, a), poly_mul(QQ, g, b)
    if data.draw(st.booleans()):
        y = canonical._derivative(QQ, x)
    y = data.draw(st.sampled_from([y, []]))
    assert poly_gcd(QQ, x, y) == euclid_poly_gcd(QQ, x, y)
    assert poly_gcd(QQ, y, x) == euclid_poly_gcd(QQ, y, x)


def degree_26_product():
    """Powers of random monic factors with rationals up to 10^12, degree 26:
    Euclid's algorithm on fractions takes seconds on the square-free step."""
    rng = random.Random(3)
    parts, degree = [], 0
    while degree < 26:
        d, k = rng.choice([1, 1, 2, 3]), rng.choice([1, 1, 2, 3])
        if degree + d * k > 26:
            continue
        parts.append(([Fraction(rng.randrange(-10**12, 10**12), rng.randrange(1, 10**12))
                       for _ in range(d)] + [Fraction(1)], k))
        degree += d * k
    return parts


def test_square_free_of_a_degree_26_product():
    parts = degree_26_product()
    f, repeated = [Fraction(1)], [Fraction(1)]
    for q, k in parts:
        f = poly_mul(QQ, f, poly_pow(QQ, q, k))
        repeated = poly_mul(QQ, repeated, poly_pow(QQ, q, k - 1))
    assert len(f) == 27 and len(repeated) == 14
    assert poly_gcd(QQ, f, canonical._derivative(QQ, f)) == repeated
    assert factor_poly(QQ, f) == sorted(parts, key=lambda qk: (len(qk[0]), tuple(qk[0])))


def test_known_irreducibles_are_irreducible():
    for field, polys in KNOWN_IRREDUCIBLE.items():
        for q in polys:
            q = [field.from_int(c) for c in q]
            assert sympy_factor_poly(field, q) == [(q, 1)]


def test_factor_poly_pinned_cases(monkeypatch):
    modular = []
    berlekamp = canonical._berlekamp
    monkeypatch.setattr(canonical, "_berlekamp",
                        lambda field, f: modular.append(berlekamp(field, f)) or modular[-1])
    # irreducible over Q but split modulo every prime: only recombination
    # can tell, and it must reject every proper subset of the lifted factors
    for q in (_q(1, 0, 0, 0, 1), _q(1, 0, -10, 0, 1)):
        modular.clear()
        assert factor_poly(QQ, q) == [(q, 1)]
        assert len(modular) == 1 and len(modular[0]) >= 2
    # (t+1)^4 = t^4 + 1 over GF(2): the derivative is zero
    assert factor_poly(GF2, [1, 0, 0, 0, 1]) == [([1, 1], 4)]
    # t^3 - t = t (t+1) (t+2) over GF(3)
    assert factor_poly(F3, [0, 2, 0, 1]) == [([0, 1], 1), ([1, 1], 1), ([2, 1], 1)]
    # degree 0
    assert factor_poly(QQ, _q(5)) == [] and factor_poly(GF2, [1]) == []
    for field, p in [(QQ, _q(1, 0, 0, 0, 1)), (QQ, _q(1, 0, -10, 0, 1)), (GF2, [1, 0, 0, 0, 1]),
                     (F3, [0, 2, 0, 1]), (QQ, _q(5))]:
        assert factor_poly(field, p) == sympy_factor_poly(field, p)


def test_berlekamp_short_of_factors_raises_typed_error(monkeypatch):
    # t^2 + 1 has two factors over GF(5); with nothing to split by, Berlekamp
    # stops at one and must say so
    monkeypatch.setattr(canonical, "_splitters", lambda field, f, basis: iter(()))
    with pytest.raises(CanonicalFormError):
        factor_poly(F5, [1, 0, 1])


def test_jordan_block_shape():
    B = jordan_block(QQ, Fraction(3), 3)
    assert B.rows == [
        _q(3, 1, 0),
        _q(0, 3, 1),
        _q(0, 0, 3),
    ]


def test_companion_shape():
    # companion of t^2 + 1: maps v -> Av -> -v
    C = companion(QQ, _q(1, 0, 1))
    assert C.rows == [_q(0, -1), _q(1, 0)]


def test_primary_components_gluing_fixture():
    # oracle: char poly (t-3)(t-2)^2 by cofactor expansion; rank(A - 2I) = 2
    # forces a single size-2 block at eigenvalue 2
    A = from_int_rows(QQ, [[3, 0, 0], [1, 2, -1], [0, 0, 2]])
    cells, P = primary_components(A)
    assert cells == [Cell(poly=(Fraction(-3), Fraction(1)), size=1),
                     Cell(poly=(Fraction(-2), Fraction(1)), size=2)]
    got = P.inverse().mul(A).mul(P)
    assert got == block_diag(QQ, [c.block(QQ) for c in cells])


def test_primary_components_rotation_irreducible():
    # oracle: char poly t^2 + 1 has no rational roots, so one companion block
    A = from_int_rows(QQ, [[0, 1], [-1, 0]])
    cells, P = primary_components(A)
    assert cells == [Cell(poly=(Fraction(1), Fraction(0), Fraction(1)), size=1)]
    assert P.inverse().mul(A).mul(P) == companion(QQ, _q(1, 0, 1))


def test_primary_components_zero_and_empty():
    cells, P = primary_components(Mat.zeros(QQ, 2, 2))
    assert cells == [Cell(poly=(Fraction(0), Fraction(1)), size=1)] * 2
    cells0, P0 = primary_components(Mat.identity(QQ, 0))
    assert cells0 == [] and P0.nrows == 0


def test_primary_components_nilpotent_mixed_heights():
    # oracle: kernel dims of A^j are 2, 3 so block sizes are (2, 1)
    A = from_int_rows(QQ, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    cells, P = primary_components(A)
    assert sorted(c.size for c in cells) == [1, 2]
    assert all(c.poly == (Fraction(0), Fraction(1)) for c in cells)


def test_primary_components_over_gf2():
    # A = [[1,1],[0,1]] is a single Jordan block at eigenvalue 1 over GF(2)
    A = from_int_rows(GF2, [[1, 1], [0, 1]])
    cells, P = primary_components(A)
    assert cells == [Cell(poly=(1, 1), size=2)]


def test_primary_components_random_reconstruction():
    # conjugate a known block sum by a random invertible matrix and recover it
    rng = random.Random(40)
    for trial in range(25):
        field = [QQ, GF2, F5][trial % 3]
        blocks = []
        total = 0
        while total < 4:
            lam = field.from_int(rng.randint(-2, 2))
            k = rng.randint(1, 2)
            blocks.append(jordan_block(field, lam, k))
            total += k
        A0 = block_diag(field, blocks)
        n = A0.nrows
        while True:
            S = from_int_rows(field, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
            if S.is_invertible():
                break
        A = S.mul(A0).mul(S.inverse())
        cells, P = primary_components(A)
        assert sum(c.dim() for c in cells) == n
        assert P.inverse().mul(A).mul(P) == block_diag(field, [c.block(field) for c in cells])
        # Jordan structure is a similarity invariant: check nullity profile
        for c in cells:
            q = list(c.poly)
            Nq = poly_eval_mat(field, q, A)
            Nq0 = poly_eval_mat(field, q, A0)
            assert Nq.kernel_basis().ncols == Nq0.kernel_basis().ncols


def test_kernel_growth_past_the_multiplicity_raises_typed_error(monkeypatch):
    # a multiplicity too high asks ker q(A)^j for more than the primary part
    factor = canonical.factor_poly
    monkeypatch.setattr(canonical, "factor_poly",
                        lambda field, p: [(q, k + 1) for q, k in factor(field, p)])
    with pytest.raises(CanonicalFormError, match="stop short of the primary part"):
        primary_components(from_int_rows(QQ, [[2, 1], [0, 2]]))


def test_prime_search_past_its_bound_raises_typed_error(monkeypatch):
    # with z' replaced by z no prime keeps z square-free
    monkeypatch.setattr(canonical, "_derivative", lambda field, p: p)
    with pytest.raises(CanonicalFormError, match="no prime keeps"):
        canonical._zassenhaus(_q(-2, 0, 1))
