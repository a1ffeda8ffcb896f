from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamebars.field import GF2, QQ, PrimeField
from tamebars.matrix import (LinearSolveError, Mat, block_diag, image, preimage, side_by_side,
                            stack)
from oracles import (
    column_reduced,
    fraction_rref,
    from_int_rows,
    is_zero,
    span,
    subspace_contains,
    subspace_dim,
    subspace_eq,
    subspace_intersect,
    subspace_leq,
    subspace_sum,
    transpose,
)

F5 = PrimeField(5)


def _mat(field, rows):
    return from_int_rows(field, rows)


def test_rref_identity_stays():
    A = Mat.identity(QQ, 3)
    R, piv = A.rref()
    assert R == A and piv == [0, 1, 2]


def test_rref_known_reduction():
    # [[1,2],[2,4]] has rank 1; the reduced form keeps the first row scaled
    A = _mat(QQ, [[1, 2], [2, 4]])
    R, piv = A.rref()
    assert piv == [0]
    assert R.rows == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(0)]]


def test_rank_over_different_fields():
    # [[1,1],[1,1]] rank 1 everywhere; [[1,1],[1,-1]] rank 1 over GF(2) only
    assert _mat(QQ, [[1, 1], [1, 1]]).rank() == 1
    assert _mat(QQ, [[1, 1], [1, -1]]).rank() == 2
    assert _mat(GF2, [[1, 1], [1, -1]]).rank() == 1


def test_kernel_basis_frozen():
    # x + y + z = 0 over Q: kernel spanned by (-1,1,0), (-1,0,1)
    A = _mat(QQ, [[1, 1, 1]])
    K = A.kernel_basis()
    assert [list(c) for c in zip(*K.rows)] == [
        [Fraction(-1), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(1)],
    ]
    assert is_zero(A.mul(K))


def test_kernel_of_injective_map_is_empty():
    A = _mat(QQ, [[1, 0], [0, 1], [3, 7]])
    K = A.kernel_basis()
    assert K.ncols == 0 and K.nrows == 2


def test_solve_consistent_and_inconsistent():
    A = _mat(QQ, [[1, 2], [3, 4]])
    B = _mat(QQ, [[5], [6]])
    X = A.try_solve(B)
    assert A.mul(X) == B
    # inconsistent: second equation contradicts the first
    A2 = _mat(QQ, [[1, 1], [2, 2]])
    B2 = _mat(QQ, [[1], [3]])
    assert A2.try_solve(B2) is None


def test_solve_underdetermined_deterministic():
    A = _mat(QQ, [[1, 1]])
    B = _mat(QQ, [[7]])
    X1 = A.try_solve(B)
    X2 = A.try_solve(B)
    assert X1 == X2  # same pivot choices both times
    assert A.mul(X1) == B


def test_inverse_round_trip():
    A = _mat(QQ, [[2, 1], [1, 1]])
    assert A.mul(A.inverse()) == Mat.identity(QQ, 2)
    with pytest.raises(LinearSolveError):
        _mat(QQ, [[1, 2], [2, 4]]).inverse()


def test_gf5_elimination_matches_manual():
    # over GF(5): [[2,1],[1,3]] det = 6-1 = 0 mod 5, so rank 1
    A = _mat(F5, [[2, 1], [1, 3]])
    assert A.rank() == 1


def test_column_reduced_keeps_row_count_when_zero():
    Z = Mat.zeros(QQ, 3, 2)
    C = column_reduced(Z)
    assert C.nrows == 3 and C.ncols == 0
    # transporting the zero subspace through maps must stay well-shaped
    M = from_int_rows(QQ, [[1, 0, 0], [0, 1, 0]])
    S = image(M, C)
    assert S.nrows == 2 and S.ncols == 0
    S2 = image(from_int_rows(QQ, [[1, 1]]), S)
    assert S2.nrows == 1 and S2.ncols == 0


def test_transpose_keeps_empty_shapes():
    for n in (0, 1, 3):
        for shape in ((0, n), (n, 0)):
            T = transpose(Mat.zeros(QQ, *shape))
            assert (T.nrows, T.ncols) == shape[::-1]


def test_column_reduced_unique_for_same_span():
    A = Mat(QQ, [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]], 2).transpose()
    B = Mat(QQ, [[Fraction(3), Fraction(3)]], 2).transpose()
    assert column_reduced(A) == column_reduced(B)


def test_basis_keeps_empty_shapes():
    # no columns, or columns in the zero space: an empty basis with the
    # matrix's row count
    for n in (0, 1, 3):
        for field in (QQ, F5):
            B = image(Mat.identity(field, n), Mat.zeros(field, n, 0))
            assert (B.nrows, B.ncols) == (n, 0)
            B = image(Mat.identity(field, 0), Mat.zeros(field, 0, n))
            assert (B.nrows, B.ncols) == (0, 0)


def test_basis_takes_the_pivot_columns():
    A = _mat(QQ, [[0, 1, 2, 0], [0, 1, 2, 1]])
    B = image(Mat.identity(QQ, 2), A)
    assert B == _mat(QQ, [[1, 0], [1, 1]])
    assert subspace_eq(B, A)


def test_subspace_operations():
    e1 = [Fraction(1), Fraction(0), Fraction(0)]
    e2 = [Fraction(0), Fraction(1), Fraction(0)]
    e3 = [Fraction(0), Fraction(0), Fraction(1)]
    S = span(QQ, 3, [e1, e2])
    T = span(QQ, 3, [e2, e3])
    assert subspace_dim(S) == 2
    assert subspace_eq(subspace_intersect(S, T), span(QQ, 3, [e2]))
    assert subspace_eq(subspace_sum(S, T), span(QQ, 3, [e1, e2, e3]))
    assert subspace_contains(S, [Fraction(2), Fraction(-3), Fraction(0)])
    assert not subspace_contains(S, e3)
    assert subspace_leq(span(QQ, 3, [e1]), S)
    assert not subspace_leq(S, span(QQ, 3, [e1]))


def test_image_and_preimage():
    # projection onto first coordinate of Q^2
    P = _mat(QQ, [[1, 0], [0, 0]])
    img = image(P, Mat.identity(QQ, 2))
    assert subspace_eq(img, span(QQ, 2, [[Fraction(1), Fraction(0)]]))
    pre = preimage(P, span(QQ, 2, [[Fraction(1), Fraction(0)]]))
    assert subspace_dim(pre) == 2  # everything maps into the x-axis
    pre0 = preimage(P, Mat.zeros(QQ, 2, 0))
    assert subspace_eq(pre0, span(QQ, 2, [[Fraction(0), Fraction(1)]]))


def test_image_and_preimage_return_independent_columns():
    # a walk counts dimensions by columns: from independent columns, both
    # return a basis of the right subspace
    rng = random.Random(11)
    for trial in range(60):
        field = [QQ, GF2, F5][trial % 3]
        n, m, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)
        M = from_int_rows(field, [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)])
        cols_s = [[field.from_int(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        cols_t = [[field.from_int(rng.randint(-2, 2)) for _ in range(m)] for _ in range(k)]
        S = image(Mat.identity(field, n), Mat(field, cols_s, n).transpose())
        T = image(Mat.identity(field, m), Mat(field, cols_t, m).transpose())
        img, pre = image(M, T), preimage(M, S)
        assert img.rank() == img.ncols and subspace_eq(img, M.mul(T))
        assert pre.rank() == pre.ncols and subspace_leq(M.mul(pre), S)
        meet = subspace_dim(subspace_intersect(M, S))
        assert pre.ncols == m - M.rank() + meet


def test_block_diag_layout():
    A = _mat(QQ, [[1]])
    B = _mat(QQ, [[2, 3], [4, 5]])
    D = block_diag(QQ, [A, B])
    assert D.rows == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(2), Fraction(3)],
        [Fraction(0), Fraction(4), Fraction(5)],
    ]


def test_randomized_rank_agrees_with_kernel_dimension():
    rng = random.Random(7)
    for trial in range(30):
        field = [QQ, GF2, F5][trial % 3]
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        A = from_int_rows(field, [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)])
        # rank-nullity, and kernel columns actually die
        K = A.kernel_basis()
        assert A.rank() + K.ncols == m
        if K.ncols:
            assert is_zero(A.mul(K))
        At = Mat(field, [list(c) for c in zip(*A.rows)], n)
        assert A.rank() == At.rank()


# -- integer elimination over Q against the Fraction loop


RATIONALS = st.one_of(
    st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]),
    st.integers(-40, 40).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([2, 3, 4, 6, 7, 12, 35])))


@st.composite
def rational_matrices(draw, nrows=None, square=False):
    nr = draw(st.integers(0, 7)) if nrows is None else nrows
    nc = nr if square else draw(st.integers(0, 7))
    entries = draw(st.sampled_from([RATIONALS, st.one_of(st.just(Fraction(0)), RATIONALS)]))
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    for _ in range(draw(st.integers(0, 2)) if nr > 1 else 0):
        # a scaled or duplicated row makes the matrix rank deficient
        i, j = draw(st.integers(0, nr - 1)), draw(st.integers(0, nr - 1))
        c = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(3), Fraction(-2, 5)]))
        rows[j] = [c * x for x in rows[i]]
    return Mat(QQ, rows, nc)


def _same_rref(M):
    before = [row[:] for row in M.rows]
    R, pivots = M.rref()
    R0, pivots0 = fraction_rref(M)
    assert M.rows == before
    assert pivots == pivots0
    assert (R.nrows, R.ncols) == (R0.nrows, R0.ncols) and R.rows == R0.rows
    assert all(type(x) is Fraction for row in R.rows for x in row)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rational_matrices())
def test_integer_rref_matches_the_fraction_loop(M):
    _same_rref(M)


@pytest.mark.parametrize("rows", [
    [[-6, 4, 2], [3, 1, 5], [0, 0, 7]],          # the first pivot is -6
    [[0, -4, 6, 2], [0, 2, -3, 1]],               # a zero column, then -4
    [[2**70 + 1, 3, 2**65], [5, 2**64 + 7, -1], [2**66, -(2**80), 9]],
    [[Fraction(2**70, 3), Fraction(-1, 2**66)], [7, Fraction(5, 2**65)]],
], ids=["negative-non-unit-pivot", "zero-column-then-negative-pivot", "beyond-2-64",
        "fractions-beyond-2-64"])
def test_integer_rref_pinned(rows):
    _same_rref(Mat(QQ, [[Fraction(x) for x in row] for row in rows]))


@st.composite
def systems(draw):
    A = draw(rational_matrices())
    return A, draw(rational_matrices(nrows=A.nrows)), draw(rational_matrices(square=True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(systems())
def test_solvers_over_q_match_the_fraction_loop(ABS):
    # kernel_basis, try_solve and inverse read R off rref: on the Fraction
    # loop's R they must return the same matrices
    A, B, S = ABS
    with mock.patch.object(Mat, "rref", fraction_rref):
        want = (A.kernel_basis(), A.try_solve(B), _inverse_or_none(S))
    assert (A.kernel_basis(), A.try_solve(B), _inverse_or_none(S)) == want


def _inverse_or_none(S):
    try:
        return S.inverse()
    except LinearSolveError:
        return None


# -- the integer rows over Q against Fraction oracles
# A Mat over Q stores each row as integers over one denominator; these
# oracles work on the Fractions that `.rows` shows, as plain lists.


TWO_64 = 2**64
Q_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([2, 3, 6, 35])),
    st.builds(Fraction, st.integers(-(2**70), 2**70),
              st.sampled_from([TWO_64 + 1, 3 * TWO_64, 2**65 - 1, 7**23])))


@st.composite
def q_rows(draw, nrows, ncols):
    rows = [[draw(Q_ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if i < nrows:
            rows[i] = [Fraction(0)] * ncols
    return rows


DIM = st.integers(0, 7)


def _q(rows, ncols):
    return Mat(QQ, [list(r) for r in rows], ncols)


def _fraction_rows(M):
    return (M.nrows, M.ncols, M.rows, [[type(x) for x in row] for row in M.rows])


def _lists(M, rows, ncols):
    # the entries as Fractions, and the stored form that building M from
    # them gives: rows in lowest terms, so equal matrices compare equal
    return (_fraction_rows(M) == (len(rows), ncols, rows, [[Fraction] * ncols for _ in rows])
            and M == _q(rows, ncols))


def _oracle_mul(A, B, m):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)]
            if B else [Fraction(0)] * m for row in A]


def _oracle_kernel(rows, ncols):
    R, pivots = fraction_rref(_q(rows, ncols))
    free = [j for j in range(ncols) if j not in pivots]
    cols = []
    for fj in free:
        v = [Fraction(0)] * ncols
        v[fj] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -R.rows[i][fj]
        cols.append(v)
    return [list(r) for r in zip(*cols)] if cols else [[] for _ in range(ncols)], len(free)


def _oracle_solve(A, B, na, nb):
    R, pivots = fraction_rref(_q([a + b for a, b in zip(A, B)], na + nb))
    if any(pj >= na for pj in pivots):
        return None
    X = [[Fraction(0)] * nb for _ in range(na)]
    for i, pj in enumerate(pivots):
        X[pj] = R.rows[i][na:]
    return X


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_q_rows_match_the_fraction_oracles(data):
    n, k, m = data.draw(DIM), data.draw(DIM), data.draw(DIM)
    A, B, C = data.draw(q_rows(n, k)), data.draw(q_rows(k, m)), data.draw(q_rows(n, m))
    MA, MB, MC = _q(A, k), _q(B, m), _q(C, m)
    # built from Fractions and read back, by rows and by columns
    assert _lists(MA, A, k)
    columns = [list(c) for c in zip(*A)] if n else [[] for _ in range(k)]
    assert Mat(QQ, columns, n).transpose() == MA
    assert [MA.transpose().rows[j] for j in range(k)] == columns
    assert _lists(MA.transpose(), columns, n)
    # ints over Q read back as the equal Fractions
    ints = [[x.numerator for x in row] for row in A]
    assert _lists(Mat(QQ, ints, k), [[Fraction(x) for x in row] for row in ints], k)
    # equality is equality of the entries
    assert MA == _q(A, k) and (MA == MC) == ((k, A) == (m, C))
    if n and k:
        changed = [row[:] for row in A]
        changed[0][0] += Fraction(1, TWO_64 + 1)
        assert MA != _q(changed, k)
    assert _lists(MA.mul(MB), _oracle_mul(A, B, m), m)
    assert _lists(MA.hstack(MC), [a + c for a, c in zip(A, C)], k + m)
    assert _lists(side_by_side(QQ, n, [MA, MC, MA]), [a + c + a for a, c in zip(A, C)], 2 * k + m)
    assert side_by_side(QQ, n, []) == Mat.zeros(QQ, n, 0)
    for j in range(m):  # one column at a time
        v = [row[j] for row in B]
        assert _lists(MA.mul(MB.columns([j])),
                      [[sum((a * b for a, b in zip(row, v)), Fraction(0))] for row in A], 1)
    R, pivots = MA.rref()
    R0, pivots0 = fraction_rref(MA)
    assert pivots == pivots0 and _lists(R, R0.rows, k)
    assert _lists(MA.kernel_basis(), *_oracle_kernel(A, k))
    X, X0 = MA.try_solve(MC), _oracle_solve(A, C, k, m)
    assert (X is None) == (X0 is None) and (X is None or _lists(X, X0, m))
    S = data.draw(q_rows(n, n))
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    c = data.draw(Q_ENTRIES)
    assert _lists(Mat.scalar(QQ, n, c), [[c * x for x in row] for row in eye], n)
    assert _lists(_q(S, n).add_scalar(c), [[x + c * y for x, y in zip(r, e)] for r, e in zip(S, eye)], n)
    S0 = _oracle_solve(S, eye, n, n)
    try:
        assert _lists(_q(S, n).inverse(), S0, n)
    except LinearSolveError:
        assert S0 is None
    js = data.draw(st.lists(st.integers(0, max(k - 1, 0)), max_size=3)) if k else []
    assert _lists(MA.columns(js), [[row[j] for j in js] for row in A], len(js))
    assert _lists(stack(QQ, k + m + 1, [[(0, MA), (k + 1, MC)]]),
                  [a + [Fraction(0)] + c for a, c in zip(A, C)], k + m + 1)


@st.composite
def gf5_matrices(draw, nrows, ncols):
    return from_int_rows(F5, [[draw(st.integers(-12, 12)) for _ in range(ncols)]
                              for _ in range(nrows)], ncols)


def _residues(M):
    return all(type(x) is int and 0 <= x < 5 for row in M.rows for x in row)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_gf5_entries_stay_residues(data):
    n, k, m = data.draw(DIM), data.draw(DIM), data.draw(DIM)
    A, B = data.draw(gf5_matrices(n, k)), data.draw(gf5_matrices(k, m))
    C, S = data.draw(gf5_matrices(n, m)), data.draw(gf5_matrices(n, n))
    out = [A, A.mul(B), A.hstack(C), A.rref()[0], A.kernel_basis(), A.neg(), A.transpose(),
           image(Mat.identity(F5, n), A), S.add_scalar(3), Mat.scalar(F5, n, 4), block_diag(F5, [A, C]),
           stack(F5, k + m, [[(0, A), (k, C)]]), side_by_side(F5, n, [A, C])]
    X = A.try_solve(C)
    out += [X] if X is not None else []
    if S.is_invertible():
        out.append(S.inverse())
    assert all(_residues(M) for M in out)
    assert all(_residues(A.mul(B.columns([j]))) for j in range(m))
