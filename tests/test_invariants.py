import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from map_fixtures import random_circle_input, random_real_input
from oracles import (bar_multiplicity, enumerated_cover_formulas, from_int_rows, mixed_bars,
                     n_containing)
from rep_fixtures import jordan_module, zero_circle
from tamebars.canonical import Cell
from tamebars.complexes import CircleMap, CriticalData, RealMap, SimplexTable, validate_circle_map
from tamebars.cutting import fiber, unroll_cover
from tamebars.field import GF2, QQ
from tamebars.homology import betti_numbers, homology, homology_of, induced_map
from tamebars.invariants import (BeyondFloatRange, Configuration, IndexOutOfRange,
                                 InvariantBundle, ValuedBar,
                                 _meets, bundle_to_json,
                                 canonical_check, canonical_matrix,
                                 compute_invariants, configuration,
                                 quiver_invariants,
                                 convert_bars, cover_formulas, cylinder_embed,
                                 fiber_betti_at, global_betti,
                                 image_dim_at, monodromy_assemble,
                                 novikov_betti, polynomial)
from tamebars.matrix import Mat
from tamebars.quiver import Bar, rep_from_lists


def real_crit(values):
    return CriticalData(values, [], False)


def circle_crit(values):
    return CriticalData(values, [], True)


def manual_bundle(field, circular, crit, bars, cells=None, rmax=None):
    if rmax is None:
        rmax = max(list(bars) + list(cells or {0: None}))
    return InvariantBundle(field, circular, crit, bars, cells or {}, {}, rmax)


# -- bar conversion -------------------------------------------------------------


def test_convert_point_bar():
    crit = real_crit([F(0), F(2)])
    out = convert_bars([Bar(1, 1, True, True)], crit)
    assert out == [ValuedBar(F(0), F(0), True, True)]


def test_convert_wrapping_bar():
    crit = circle_crit([F(1, 4)])
    out = convert_bars([Bar(1, 1, True, True, wraps=1)], crit)
    assert out == [ValuedBar(F(1, 4), F(5, 4), True, True)]


def test_convert_mixed_wrapping_bar():
    theta = [F(i, 8) for i in range(1, 7)]
    out = convert_bars([Bar(6, 1, False, True, wraps=1)], circle_crit(theta))
    assert out == [ValuedBar(F(6, 8), F(1, 8) + 1, False, True)]


def test_convert_rejects_bad_index():
    crit = real_crit([F(0), F(1)])
    with pytest.raises(IndexOutOfRange):
        convert_bars([Bar(0, 1, True, True)], crit)
    with pytest.raises(IndexOutOfRange):
        convert_bars([Bar(1, 3, True, True)], crit)


# -- height on the hollow triangle ------------------------------------------------


def _height():
    t = SimplexTable(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
    return t, RealMap([F(0), F(1), F(1)])


@pytest.fixture
def height_bundle():
    return compute_invariants(*_height(), QQ)


@pytest.fixture
def height_cut():
    """The cut that the quiver pipeline builds for the same map."""
    return quiver_invariants(*_height(), QQ).cut


def test_height_bars(height_bundle):
    b = height_bundle
    assert b.degree_bars(0) == [ValuedBar(F(0), F(1), False, False),
                                ValuedBar(F(0), F(1), True, True)]
    assert b.degree_bars(1) == []


def test_height_fiber_betti_matches_direct(height_bundle, height_cut):
    b = height_bundle
    assert fiber_betti_at(b, 0, F(1, 2)) == 2
    for level in b.crit.criticals + b.crit.regulars:
        direct = homology(fiber(height_cut, level), 0, QQ).dim
        assert fiber_betti_at(b, 0, level) == direct


def test_height_global_betti(height_bundle):
    assert global_betti(height_bundle, 0) == 1
    assert global_betti(height_bundle, 1) == 1
    assert global_betti(height_bundle, 2) == 0


def test_height_image_dims(height_bundle, height_cut):
    b = height_bundle
    assert image_dim_at(b, 0, F(1, 2)) == 1
    assert image_dim_at(b, 0, F(5)) == 0
    whole = homology_of(height_cut.table, None, 0, QQ)
    at_half = homology(fiber(height_cut, F(1, 2)), 0, QQ)
    assert induced_map(at_half, whole).rank() == 1


def test_height_multiplicities(height_bundle):
    b = height_bundle
    assert bar_multiplicity(b, 0, 0, 1) == 1
    assert bar_multiplicity(b, 0, 0, 1, False, False) == 1
    assert bar_multiplicity(b, 0, 0, 2) == 0
    assert bar_multiplicity(b, 1, 0, 1) == 0


# -- the degree-one circle map ----------------------------------------------------


@pytest.fixture
def degree_one_bundle():
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    cmap = CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1})
    return compute_invariants(t, cmap, QQ)


def test_degree_one_cells(degree_one_bundle):
    b = degree_one_bundle
    assert all(not bars for bars in b.bars.values())
    assert b.degree_cells(0) == [Cell((F(-1), F(1)), 1)]
    assert b.degree_cells(1) == []


def test_degree_one_formulas(degree_one_bundle):
    b = degree_one_bundle
    assert fiber_betti_at(b, 0, F(1, 5)) == 1
    assert image_dim_at(b, 0, F(1, 5)) == 1
    assert global_betti(b, 0) == 1
    assert global_betti(b, 1) == 1
    assert novikov_betti(b, 0) == 0
    assert novikov_betti(b, 1) == 0


def test_degree_one_canonical(degree_one_bundle):
    b = degree_one_bundle
    data = canonical_matrix(b.reps[0])
    assert data.matrix.nrows == 3 and data.matrix.ncols == 3
    assert data.dim_coker == 1 and data.dim_ker == 1
    direct = betti_numbers(SimplexTable(["v1", "v2", "v3"],
                                        [(0, 1), (0, 2), (1, 2)]), QQ)
    assert canonical_check(b, 0, direct[0])
    assert canonical_check(b, 1, direct[1])
    assert canonical_check(b, 2, 0)


def test_degree_one_cover_counts(degree_one_bundle):
    # The slice over one turn is an arc: its degree-1 homology vanishes, so
    # all three counts must be zero there.
    b = degree_one_bundle
    assert cover_formulas(b, 0, F(0), F(1)) == (1, 1, 1)
    assert cover_formulas(b, 1, F(0), F(1)) == (0, 0, 0)


# -- manual fixture bundles --------------------------------------------------------


@pytest.fixture
def glued_cylinders_bundle():
    # Multisets of one angle-valued map on a 2-complex: one wrapping mixed
    # bar and one closed bar in degree 1, a monodromy fixed class in degree
    # 0 and a rank-2 Jordan cell with eigenvalue 2 in degree 1.
    theta = [F(i, 8) for i in range(1, 7)]
    bars = {
        0: [],
        1: sorted([ValuedBar(theta[5], theta[0] + 1, False, True),
                   ValuedBar(theta[1], theta[2], True, True),
                   ValuedBar(theta[3], theta[4], False, False)]),
    }
    cells = {0: [Cell((F(-1), F(1)), 1)], 1: [Cell((F(-2), F(1)), 2)]}
    return manual_bundle(QQ, True, circle_crit(theta), bars, cells)


def test_fixture_betti_numbers(glued_cylinders_bundle):
    b = glued_cylinders_bundle
    assert global_betti(b, 0) == 1
    assert global_betti(b, 1) == 2
    assert novikov_betti(b, 0) == 0
    assert novikov_betti(b, 1) == 1


def test_fixture_cover_counts(glued_cylinders_bundle):
    # Slice Betti: the wrapped bar straddling 0, the closed bar, and two
    # Jordan dimensions.  Into the cover: closed bar plus Jordan.  Into the
    # base: only the closed bar's class survives projection.
    assert cover_formulas(glued_cylinders_bundle, 1, F(0), F(1)) == (4, 3, 1)


def test_fixture_slope(glued_cylinders_bundle):
    b = glued_cylinders_bundle
    counts = [cover_formulas(b, 1, F(0), F(p))[0] for p in range(3, 7)]
    assert [y - x for x, y in zip(counts, counts[1:])] == [1, 1, 1]
    assert novikov_betti(b, 1) == 1


# quarter steps: integer and non-integer ends, and windows with ends on bar ends
_QUARTERS = st.integers(-12, 12).map(lambda n: F(n, 4))


@st.composite
def _valued_bars(draw):
    lo = draw(_QUARTERS)
    length = F(draw(st.integers(0, 16)), 4)
    if length == 0:  # a point bar is closed
        return ValuedBar(lo, lo, True, True)
    return ValuedBar(lo, lo + length, draw(st.booleans()), draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bars=st.lists(st.lists(_valued_bars(), max_size=5), min_size=2, max_size=2),
       fixed=st.booleans(), a=_QUARTERS, width=st.integers(1, 24))
def test_cover_counts_match_enumeration(bars, fixed, a, width):
    # the closed-form counts against testing every translate in range
    cells = {0: [Cell((F(-1), F(1)), 1)] if fixed else [], 1: [Cell((F(-2), F(1)), 2)]}
    bundle = manual_bundle(QQ, True, circle_crit([]), dict(enumerate(map(sorted, bars))), cells)
    b = a + F(width, 4)
    for r in (0, 1, 2):
        assert cover_formulas(bundle, r, a, b) == enumerated_cover_formulas(bundle, r, a, b)


@st.composite
def _any_bars(draw):
    # point bars too, open ends included: an open point bar holds nothing
    lo = draw(_QUARTERS)
    return ValuedBar(lo, lo + F(draw(st.integers(0, 16)), 4), draw(st.booleans()),
                     draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(bars=st.lists(_any_bars(), max_size=5), fixed=st.booleans(), theta=_QUARTERS)
def test_fiber_counts_match_enumeration(bars, fixed, theta):
    # translates of a bar that contain an angle, counted in closed form,
    # against testing each translate
    for bar in bars:
        assert len(_meets(bar, theta, theta)) == n_containing(bar, theta)
    cells = {1: [Cell((F(-1), F(1)), 1)] if fixed else []}
    bundle = manual_bundle(QQ, True, circle_crit([]), {1: sorted(bars)}, cells)
    assert fiber_betti_at(bundle, 1, theta) == fixed + sum(
        n_containing(bar, theta) for bar in bars)
    assert image_dim_at(bundle, 1, theta) == fixed + sum(
        n_containing(bar, theta) > 0 for bar in bars if bar.is_closed)


def test_fixture_fiber_betti(glued_cylinders_bundle):
    b = glued_cylinders_bundle
    # At 5/16 only the closed bar [1/4, 3/8] contains the angle; plus the
    # two Jordan dimensions.
    assert fiber_betti_at(b, 1, F(5, 16)) == 3
    assert image_dim_at(b, 1, F(5, 16)) == 1
    assert image_dim_at(b, 0, F(5, 16)) == 1


def test_mixed_bars_do_not_matter(glued_cylinders_bundle):
    b = glued_cylinders_bundle
    assert mixed_bars(b, 1)
    kept = {r: [x for x in bars if x not in mixed_bars(b, r)] for r, bars in b.bars.items()}
    thin = replace(b, bars=kept)
    for r in range(3):
        assert global_betti(thin, r) == global_betti(b, r)
        assert novikov_betti(thin, r) == novikov_betti(b, r)
        assert configuration(thin, r) == configuration(b, r)


# -- configurations and polynomials ------------------------------------------------


@pytest.fixture
def projection_bundle():
    # Real-valued multisets with four closed 1-bars and one open 1-bar.
    th = [F(i, 7) for i in range(8)]
    bars = {
        0: [ValuedBar(F(0), F(1), True, True)],
        1: sorted([ValuedBar(F(0), th[1], True, True),
                   ValuedBar(th[3], th[5], False, False),
                   ValuedBar(th[6], F(1), False, True),
                   ValuedBar(th[2], th[3], True, True),
                   ValuedBar(F(0), F(1), True, True),
                   ValuedBar(F(0), F(1), True, True)]),
    }
    return manual_bundle(QQ, False, real_crit([F(0)] + th[1:7] + [F(1)]), bars, rmax=2)


def test_projection_configuration(projection_bundle):
    b = projection_bundle
    c1 = configuration(b, 1)
    assert sorted(c1.points) == sorted([(F(0), F(1, 7)), (F(2, 7), F(3, 7)),
                                        (F(0), F(1)), (F(0), F(1))])
    assert len(c1.points) == global_betti(b, 1) == 4
    c2 = configuration(b, 2)
    assert c2.points == [(F(5, 7), F(3, 7))]
    assert len(c2.points) == global_betti(b, 2) == 1


def test_projection_polynomial_matches_products(projection_bundle):
    coeffs = polynomial(configuration(projection_bundle, 1))
    assert len(coeffs) == 5 and coeffs[0] == 1
    roots = [complex(0, 1 / 7), complex(2 / 7, 3 / 7), complex(0, 1), complex(0, 1)]
    for z in (0j, 1 + 0j, 1 + 1j, -2j, 0.3 - 0.7j):
        direct = 1
        for root in roots:
            direct *= z - root
        via = sum(c * z ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))
        assert abs(via - direct) < 1e-12


def test_empty_polynomial():
    assert polynomial(Configuration(0, False, [])) == [1]
    assert polynomial(Configuration(0, True, [])) == [1]


@pytest.mark.parametrize("circular, points", [
    (False, [(F(10**400), F(0))]),
    (False, [(F(0), F(10**200)), (F(1), F(10**200))]),
    (True, [(F(1000), F(4, 3))]),
], ids=["root", "coefficient", "cylinder-chart"])
def test_polynomial_beyond_float_range(circular, points):
    with pytest.raises(BeyondFloatRange):
        polynomial(Configuration(0, circular, points))


def test_cylinder_embed_shift_invariance():
    rng = random.Random(5)
    for _ in range(20):
        x = F(rng.randrange(-20, 20), rng.randrange(1, 9))
        y = x + F(rng.randrange(0, 12), rng.randrange(1, 9))
        assert cylinder_embed((x, y)) == cylinder_embed((x + 1, y + 1))
        assert cylinder_embed((x, y)) == cylinder_embed((x - 3, y - 3))
        assert abs(cylinder_embed((x, y))) <= 1.0 + 1e-15
        assert abs(cylinder_embed((y, x))) >= 1.0 - 1e-15


def test_cylinder_embed_diagonal_lands_on_unit_circle():
    assert cylinder_embed((F(0), F(0))) == 1 + 0j
    assert abs(abs(cylinder_embed((F(1, 3), F(1, 3)))) - 1.0) < 1e-15


def test_circle_polynomial_free_coefficient_nonzero():
    cfg = Configuration(1, True, [(F(0), F(2)), (F(3, 4), F(1, 4))])
    coeffs = polynomial(cfg)
    assert coeffs[0] == 1
    assert abs(coeffs[-1]) > 0


# -- monodromy assembly -------------------------------------------------------------


def test_monodromy_single_eigenvalue():
    dim, T = monodromy_assemble(QQ, [Cell((F(-2), F(1)), 1)])
    assert dim == 1
    assert T == Mat(QQ, [[F(2)]])


def test_monodromy_empty():
    dim, T = monodromy_assemble(QQ, [])
    assert dim == 0 and T.nrows == 0 and T.ncols == 0


def test_monodromy_jordan_block():
    dim, T = monodromy_assemble(QQ, [Cell((F(-1), F(1)), 2)])
    assert dim == 2
    assert T == from_int_rows(QQ, [[1, 1], [0, 1]])


# -- canonical matrices --------------------------------------------------------------


def test_canonical_single_slot():
    one = Mat.identity(QQ, 1)
    rep = rep_from_lists(QQ, [one], [one])
    data = canonical_matrix(rep)
    assert data.matrix == from_int_rows(QQ, [[0]])
    assert data.dim_coker == 1 and data.dim_ker == 1


def test_canonical_no_eigenvalue_one():
    data = canonical_matrix(jordan_module(QQ, F(2), 2))
    assert data.dim_coker == 0 and data.dim_ker == 0


def test_canonical_zero_rep():
    data = canonical_matrix(zero_circle(QQ, 2))
    assert data.matrix.nrows == 0 and data.matrix.ncols == 0
    assert data.dim_coker == 0 and data.dim_ker == 0


def test_real_map_rep_is_cut_open_at_a_zero_x1():
    # canonical_matrix takes a real map's representation as it is: the empty
    # fibers below and above the line are the one zero vertex x_1
    t = SimplexTable(["a", "b"], [(0, 1)])
    bundle = quiver_invariants(t, RealMap([F(0), F(1)]), QQ)
    rep = bundle.reps[0]
    assert rep.m == 2 and rep.dims[1] == 0
    assert rep.alpha(1).ncols == 0 and rep.beta(2).ncols == 0
    data = canonical_matrix(rep)
    assert (data.matrix.nrows, data.matrix.ncols) == (2, 1)
    assert (data.dim_ker, data.dim_coker) == (0, 1)


# -- random identity suites ----------------------------------------------------------


def _check_theorem_identities(table, bundle, field):
    direct = betti_numbers(table, field)
    for r in range(bundle.rmax + 2):
        want = direct[r] if r < len(direct) else 0
        assert global_betti(bundle, r) == want
        assert canonical_check(bundle, r, want)
    whole = {}
    for r in range(bundle.rmax + 1):
        whole[r] = homology_of(bundle.cut.table, None, r, field)
        cfg = configuration(bundle, r)
        expected = global_betti(bundle, r) if not bundle.circular \
            else novikov_betti(bundle, r)
        assert len(cfg.points) == expected
    for level in bundle.crit.criticals + bundle.crit.regulars:
        for r in range(bundle.rmax + 1):
            basis = homology(fiber(bundle.cut, level), r, field)
            assert fiber_betti_at(bundle, r, level) == basis.dim
            assert image_dim_at(bundle, r, level) == \
                induced_map(basis, whole[r]).rank()


@pytest.mark.parametrize("field", [QQ, GF2])
def test_random_real_identities(field):
    rng = random.Random(311 + 17 * len(str(field.to_spec())))
    for _ in range(5):
        table, rmap = random_real_input(rng)
        bundle = quiver_invariants(table, rmap, field)
        _check_theorem_identities(table, bundle, field)


@pytest.mark.parametrize("field", [QQ, GF2])
def test_random_circle_identities(field):
    rng = random.Random(523 + 17 * len(str(field.to_spec())))
    for _ in range(5):
        table, cmap = random_circle_input(rng)
        validate_circle_map(table, cmap)
        bundle = compute_invariants(table, cmap, field)
        _check_theorem_identities(table, bundle, field)


def test_random_cover_window_counts_match_homology():
    rng = random.Random(99)
    for _ in range(4):
        table, cmap = random_circle_input(rng, table_kw={"nv": (3, 5), "ntops": (2, 5)})
        bundle = compute_invariants(table, cmap, QQ)
        for a, b in ((F(0), F(1)), (F(1, 3), F(9, 4))):
            slice_ = unroll_cover(table, cmap, a, b)
            for r in range(bundle.rmax + 1):
                direct = homology(slice_, r, QQ).dim
                assert cover_formulas(bundle, r, a, b)[0] == direct


def test_random_slope_is_novikov_betti():
    rng = random.Random(7)
    for _ in range(6):
        table, cmap = random_circle_input(rng)
        bundle = compute_invariants(table, cmap, QQ)
        spans = [bar.hi - bar.lo for bars in bundle.bars.values() for bar in bars]
        start = int(max(spans, default=0)) + 2
        for r in range(bundle.rmax + 1):
            counts = [cover_formulas(bundle, r, F(0), F(start + p))[0]
                      for p in range(4)]
            slope = novikov_betti(bundle, r)
            assert [y - x for x, y in zip(counts, counts[1:])] == [slope] * 3


def test_json_round_trip_shape():
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    cmap = CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1})
    doc = bundle_to_json(compute_invariants(t, cmap, QQ))
    assert doc["target"] == "circle"
    assert doc["field"] == "Q"
    assert doc["degrees"]["0"]["betti"] == 1
    assert doc["degrees"]["0"]["jordan_cells"] == [
        {"poly": ["-1", "1"], "size": 1, "eigenvalue": "1"}]
    assert doc["degrees"]["0"]["monodromy"] == {"dim": 1, "matrix": [["1"]]}
    assert doc["degrees"]["1"]["novikov_betti"] == 0
