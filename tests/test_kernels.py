"""The exact kernels against their dense oracles in `kernel_oracles.py`.

Matrices are drawn over Q, GF(2) and GF(2^31 - 1), sparse and dense, with
zero rows and columns, rank deficiency and empty shapes.  Every comparison is
on entries, entry types and order, never on values alone, because the
kernels promise byte-identical results downstream.  The one exception is the
reducer on integer chains over Q, whose ints stand for the oracle's
Fractions until they leave it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracles as oracle
from oracles import fraction_rref, from_int_rows, sympy_charpoly
from rep_fixtures import GF5, planted_circle, planted_zigzag
from tamebars import quiver
from tamebars.canonical import (characteristic_polynomial, jordan_block, poly_mul, poly_pow,
                                primary_components)
from tamebars.complexes import RealMap, SimplexTable
from tamebars.field import GF2, QQ, PrimeField
from tamebars.homology import _Reducer
from tamebars.invariants import quiver_invariants
from tamebars.matrix import Mat, block_diag
from tamebars.quiver import decompose_circle, decompose_zigzag

BIG = PrimeField(2**31 - 1)
GF3 = PrimeField(3)
FIELDS = [QQ, GF2, BIG]

settings.register_profile("kernels", max_examples=100, deadline=None, derandomize=True)
settings.load_profile("kernels")


def scalars(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    return st.one_of(st.integers(0, 2), st.integers(0, field.p - 1),
                     st.just(field.p - 1)).map(field.from_int)


@st.composite
def matrices(draw, field=None, nrows=None, ncols=None):
    field = draw(st.sampled_from(FIELDS)) if field is None else field
    nr = draw(st.integers(0, 6)) if nrows is None else nrows
    nc = draw(st.integers(0, 6)) if ncols is None else ncols
    entries = scalars(field)
    if draw(st.booleans()):  # sparse: most entries are zero
        entries = st.one_of(st.just(field.zero), st.just(field.zero), entries)
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    for i in draw(st.sets(st.integers(0, max(nr - 1, 0)), max_size=2)):
        if i < nr:
            rows[i] = [field.zero] * nc
    for j in draw(st.sets(st.integers(0, max(nc - 1, 0)), max_size=2)):
        for row in rows:
            if j < nc:
                row[j] = field.zero
    M = Mat(field, rows, nc)
    if nr and nc and draw(st.booleans()):  # rank deficient: a thin product
        k = draw(st.integers(1, max(min(nr, nc) - 1, 1)))
        L = draw(matrices(field, nr, k))
        Rt = draw(matrices(field, k, nc))
        M = oracle.dense_mul(L, Rt)
    return M


def same(A: Mat, B: Mat) -> bool:
    return (
        (A.nrows, A.ncols) == (B.nrows, B.ncols)
        and A.rows == B.rows
        and [[type(x) for x in row] for row in A.rows]
        == [[type(x) for x in row] for row in B.rows]
    )


@given(matrices())
def test_rref_matches_dense_oracle(M):
    R, pivots = M.rref()
    R0, pivots0 = oracle.dense_rref(M)
    assert pivots == pivots0
    assert same(R, R0)


@given(matrices())
def test_rref_leaves_its_input_alone(M):
    before = [row[:] for row in M.rows]
    M.rref()
    assert M.rows == before


@st.composite
def products(draw):
    field = draw(st.sampled_from(FIELDS))
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrices(field, n, k)), draw(matrices(field, k, m))


@given(products())
def test_mul_matches_dense_oracle(AB):
    A, B = AB
    assert same(A.mul(B), oracle.dense_mul(A, B))


def test_empty_products_keep_their_shapes_and_types():
    for field in FIELDS:
        A = Mat.zeros(field, 3, 0)
        assert same(A.mul(Mat.zeros(field, 0, 2)), oracle.dense_mul(A, Mat.zeros(field, 0, 2)))
        # a 3 x 0 matrix times the empty vector: three zeros of the field
        v = A.mul(Mat.zeros(field, 0, 1))
        assert same(v, oracle.dense_mul(A, Mat.zeros(field, 0, 1)))
        assert same(v, Mat.zeros(field, 3, 1))
        Z = Mat.zeros(field, 0, 4)
        assert same(Z.mul(Mat.zeros(field, 4, 3)), oracle.dense_mul(Z, Mat.zeros(field, 4, 3)))


def test_product_through_an_empty_inner_dimension_is_zero():
    # n x 0 times 0 x m is the n x m zero matrix, of the field's zero
    for field in FIELDS:
        for n, m in ((3, 2), (1, 4), (2, 0), (0, 3)):
            P = Mat.zeros(field, n, 0).mul(Mat.zeros(field, 0, m))
            assert same(P, Mat.zeros(field, n, m))
            assert same(oracle.dense_mul(Mat.zeros(field, n, 0), Mat.zeros(field, 0, m)), P)


@st.composite
def chain_streams(draw):
    """A field and a list of (column, tag) chains on a few keys."""
    field = draw(st.sampled_from(FIELDS))
    keys = st.integers(0, 9)
    chain = st.dictionaries(keys, scalars(field).filter(bool), max_size=5)
    return field, draw(st.lists(st.tuples(chain, chain), max_size=12))


def items_and_types(d):
    return [(k, v, type(v)) for k, v in d.items()]


@given(chain_streams())
def test_reducer_matches_dense_oracle(stream):
    field, chains = stream
    fast, slow = _Reducer(field), oracle.DenseReducer(field)
    for col, tag in chains:
        (got_col, got_tag), (col0, tag0) = fast.reduce(col, tag), slow.reduce(col, tag)
        assert items_and_types(got_col) == items_and_types(col0)
        assert items_and_types(got_tag) == items_and_types(tag0)
        assert fast.insert(col, tag) == slow.insert(col, tag)
    assert list(fast.by_low) == list(slow.by_low)
    for low, (col, tag) in fast.by_low.items():
        col0, tag0 = slow.by_low[low]
        assert items_and_types(col) == items_and_types(col0)
        assert items_and_types(tag) == items_and_types(tag0)


@st.composite
def integer_chain_streams(draw):
    """(column, tag) chains over Q with int entries, mostly +-1, and some
    Fractions: the integer path of the reducer and its Fraction fallback."""
    entry = st.one_of(st.sampled_from([1, -1]), st.integers(-3, 3).filter(bool),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)).filter(bool))
    chain = st.dictionaries(st.integers(0, 9), entry, max_size=5)
    return draw(st.lists(st.tuples(chain, chain), max_size=12))


def as_fractions(d):
    return {k: Fraction(v) for k, v in d.items()}


@given(integer_chain_streams())
def test_integer_chains_match_the_dense_oracle_on_fractions(chains):
    # values equal the oracle's (an int equals its Fraction), in the same
    # key order; an entry is an int or a Fraction, never a float
    fast, slow = _Reducer(QQ), oracle.DenseReducer(QQ)
    for col, tag in chains:
        got = fast.reduce(col, tag)
        want = slow.reduce(as_fractions(col), as_fractions(tag))
        assert [list(c.items()) for c in got] == [list(c.items()) for c in want]
        assert fast.insert(col, tag) == slow.insert(as_fractions(col), as_fractions(tag))
    assert list(fast.by_low) == list(slow.by_low)
    for low, chains_at in fast.by_low.items():
        assert [list(c.items()) for c in chains_at] == [list(c.items()) for c in slow.by_low[low]]
        assert {type(v) for c in chains_at for v in c.values()} <= {int, Fraction}


@st.composite
def square_matrices(draw, fields=FIELDS):
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):  # diagonal with repeats: eigenvalues of high multiplicity
        diag = draw(st.lists(st.sampled_from([field.zero, field.one, field.from_int(2)]),
                             min_size=n, max_size=n))
        return Mat(field, [[diag[i] if i == j else field.zero for j in range(n)]
                           for i in range(n)], n)
    return draw(matrices(field, n, n))


@given(square_matrices([QQ, GF2, GF5, BIG]))
def test_characteristic_polynomial_matches_its_oracles(A):
    # over Q sympy's charpoly; over GF(p) the product of q^size over the cells
    # that the oracle finds from the minimal polynomial
    field, chi = A.field, characteristic_polynomial(A)
    if field is QQ:
        want = sympy_charpoly(A)
    else:
        want = [field.one]
        for c in oracle.primary_components(A)[0]:
            want = poly_mul(field, want, poly_pow(field, list(c.poly), c.size))
    assert chi == want
    assert {type(c) for c in chi} == {type(field.one)}


def test_minimal_polynomial_skips_annihilated_vectors():
    # diag(1, 1, 2): e_1 is killed by t - 1 once e_0 has been seen
    A = from_int_rows(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert oracle.annihilates([Fraction(-1), Fraction(1)], A, 1)
    mp = oracle.minimal_polynomial_of_cells(QQ, primary_components(A)[0])
    assert mp == oracle.minimal_polynomial(A) == [Fraction(2), Fraction(-3), Fraction(1)]


# Jordan block sizes at eigenvalue 1: identities and single blocks of sizes p
# and p + 1, and J_2 + J_1 over GF(2).  At size p the characteristic
# polynomial is (t - 1)^p, whose derivative is zero, so its square-free
# decomposition roots a p-th power; the oracle factors the minimal polynomial
REPEATED = [(F, sizes) for F in (GF2, GF3) for s in (F.p, F.p + 1) for sizes in ([1] * s, [s])]
REPEATED.append((GF2, [2, 1]))


@pytest.mark.parametrize("field, sizes", REPEATED,
                         ids=[f"{F.name}-{sizes}" for F, sizes in REPEATED])
def test_eigenvalues_repeated_p_times_match_the_oracle(field, sizes):
    A = block_diag(field, [jordan_block(field, field.one, k) for k in sizes])
    cells, P = primary_components(A)
    cells0, P0 = oracle.primary_components(A)
    assert cells == cells0 and same(P, P0)


# -- rref on the systems the pipeline builds ----------------------------------------
# The drawn matrices above stop at 6x6, but the retraction systems of the
# decomposition are hundreds of columns wide.  These runs record every matrix
# that `Mat.rref` receives and check each result against an oracle.


def _square_map(k: int):
    """A k-by-k grid, two triangles per cell, vertex v valued
    ((7 v^2 + 3 v) mod 101) / 7."""
    n = k + 1
    tops = []
    for i in range(k):
        for j in range(k):
            a, b, c, d = i * n + j, i * n + j + 1, (i + 1) * n + j, (i + 1) * n + j + 1
            tops += [(a, b, d), (a, c, d)]
    table = SimplexTable(list(range(n * n)), sorted(tops))
    return table, RealMap([Fraction((7 * v * v + 3 * v) % 101, 7) for v in range(n * n)])


def _decompose_planted():
    rng = random.Random(16)
    for field in (QQ, GF5):
        for _ in range(6):
            lo = rng.choice([-2, 1, 2])
            hi = lo + rng.randrange(2, 9)
            decompose_zigzag(planted_zigzag(field, lo, hi, rng.randrange(1, 9), rng)[1])
        for _ in range(6):
            decompose_circle(planted_circle(field, rng.choice([1, 2, 3, 4]), rng.randrange(0, 6),
                                            rng.randrange(1, 4), rng)[1])


def _rref_inputs(monkeypatch, run) -> list:
    """Copies of the matrices that `Mat.rref` receives while `run()` runs."""
    seen = []
    rref = Mat.rref

    def recording(M):
        seen.append(Mat(M.field, [row[:] for row in M.rows], M.ncols))
        return rref(M)

    monkeypatch.setattr(Mat, "rref", recording)
    run()
    monkeypatch.undo()
    return seen


def _compute_square():
    table, mapping = _square_map(5)
    for field in (QQ, BIG):
        quiver_invariants(table, mapping, field)


@pytest.mark.parametrize("run", [_decompose_planted, _compute_square],
                         ids=["planted-reps", "square-5x5"])
def test_rref_matches_its_oracle_on_pipeline_systems(monkeypatch, run):
    inputs = _rref_inputs(monkeypatch, run)
    assert max(M.ncols for M in inputs) > 100
    for M in inputs:
        R, pivots = M.rref()
        R0, pivots0 = fraction_rref(M) if M.field is QQ else oracle.dense_rref(M)
        assert pivots == pivots0
        assert same(R, R0)


def _calls(monkeypatch, module, name, run) -> list:
    """The arguments of every call of module.name while `run()` runs."""
    seen = []
    f = getattr(module, name)

    def recording(*args):
        seen.append(args)
        return f(*args)

    monkeypatch.setattr(module, name, recording)
    run()
    monkeypatch.undo()
    return seen


def test_span_tests_match_their_solve_loops(monkeypatch):
    # one elimination of [space | candidates] finds the column that the loop
    # of one solve per column finds, and the chain tops that one elimination
    # picks per height give the cells and P of the loop of one solve per pick
    spans = _calls(monkeypatch, quiver, "_not_in_span", _decompose_planted)
    for space, candidates in spans:
        got, want = quiver._not_in_span(space, candidates), oracle.not_in_span(space, candidates)
        assert (got is None) == (want is None) and (want is None or same(got, want))
    comps = _calls(monkeypatch, quiver, "primary_components", _decompose_planted)
    for (A,) in comps:
        cells, P = primary_components(A)
        cells0, P0 = oracle.primary_components(A)
        assert cells == cells0 and same(P, P0)
