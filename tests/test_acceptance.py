"""Acceptance gate.

One test per release criterion, every comparison exact.  The random suites
pin their seeds, so a failure is reproducible, and the heavyweight ones
assert their own wall-clock budget.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from map_fixtures import identity_corpus_inputs, random_circle_input
from oracles import from_int_rows
from rep_fixtures import (GF5, direct_sum, hom_dim, jordan_module, planted_circle,
                          planted_zigzag, zero_circle)
from tamebars.canonical import Cell, cell_sort_key, primary_components
from tamebars.cli import main
from tamebars.complexes import (CircleMap, CriticalData, RealMap, SimplexTable,
                                validate_circle_map)
from tamebars.cutting import fiber, unroll_cover
from tamebars.field import GF2, QQ
from tamebars.homology import betti_numbers, homology, homology_of, induced_map
from tamebars.invariants import (InvariantBundle, ValuedBar, canonical_check,
                                 compute_invariants, cover_formulas,
                                 fiber_betti_at, global_betti, image_dim_at,
                                 novikov_betti, quiver_invariants)
from tamebars.matrix import Mat
from tamebars.quiver import (CircleRep, decompose_circle, decompose_zigzag, line_rep,
                             summand_module, summand_sort_key, verify_certificate)
from tamebars.stability import stability_experiment

pytestmark = pytest.mark.acceptance


# -- shared random corpus (bar counts and pairing matrix both run on it) -----------


@pytest.fixture(scope="module")
def identity_corpus():
    t0 = time.monotonic()
    corpus = []
    for table, mapping, field in identity_corpus_inputs():
        assert len(table) <= 200 and table.dim <= 3
        corpus.append((table, field, quiver_invariants(table, mapping, field)))
    return corpus, time.monotonic() - t0


def test_bar_and_cell_counts_match_direct_homology_everywhere(identity_corpus):
    """104 random complexes, both targets, Q and GF(2): the bar/cell counting
    formulas reproduce the Betti number of every fiber, the rank of every
    fiber-to-space map, and the Betti numbers of the space."""
    corpus, build_time = identity_corpus
    t0 = time.monotonic()
    assert len(corpus) >= 100
    for table, field, bundle in corpus:
        direct = betti_numbers(table, field)
        for r in range(bundle.rmax + 2):
            want = direct[r] if r < len(direct) else 0
            assert global_betti(bundle, r) == want
        whole = {r: homology_of(bundle.cut.table, None, r, field)
                 for r in range(bundle.rmax + 1)}
        for level in bundle.crit.criticals + bundle.crit.regulars:
            for r in range(bundle.rmax + 1):
                basis = homology(fiber(bundle.cut, level), r, field)
                assert fiber_betti_at(bundle, r, level) == basis.dim
                assert image_dim_at(bundle, r, level) == \
                    induced_map(basis, whole[r]).rank()
    assert build_time + time.monotonic() - t0 < 300


def test_pairing_matrix_kernel_cokernel_give_global_betti(identity_corpus):
    """Same corpus: dim coker of the degree-r pairing matrix plus dim ker of
    the degree-(r-1) one equals the space's r-th Betti number."""
    corpus, _ = identity_corpus
    for table, field, bundle in corpus:
        direct = betti_numbers(table, field)
        for r in range(bundle.rmax + 2):
            want = direct[r] if r < len(direct) else 0
            assert canonical_check(bundle, r, want)


def test_cover_window_counts_and_growth_match_unrolled_homology():
    """20 random circle maps: the window counting formula equals the homology
    of the unrolled cover slice on three windows, and those homology dims
    grow affinely with slope equal to the Novikov Betti number across three
    consecutive periods."""
    t0 = time.monotonic()
    rng = random.Random(77)
    windows = [(F(0), F(1)), (F(1, 3), F(9, 4)), (F(1, 2), F(3))]
    for _ in range(20):
        table, cmap = random_circle_input(
            rng, table_kw={"nv": (3, 5), "ntops": (2, 5)})
        validate_circle_map(table, cmap)
        bundle = compute_invariants(table, cmap, QQ)
        for a, b in windows:
            window = unroll_cover(table, cmap, a, b)
            for r in range(bundle.rmax + 1):
                assert cover_formulas(bundle, r, a, b)[0] == \
                    homology(window, r, QQ).dim
        spans = [bar.hi - bar.lo
                 for bars in bundle.bars.values() for bar in bars]
        start = int(max(spans, default=0)) + 2
        dims = []
        for p in range(4):
            window = unroll_cover(table, cmap, F(0), F(start + p))
            dims.append([homology(window, r, QQ).dim
                         for r in range(bundle.rmax + 1)])
        for r in range(bundle.rmax + 1):
            slope = novikov_betti(bundle, r)
            assert all(dims[p + 1][r] - dims[p][r] == slope for p in range(3))
    assert time.monotonic() - t0 < 300


# -- fuzzed certified decomposition ------------------------------------------------


def _rand_matrix(field, nrows, ncols, rng):
    return Mat(field, [[field.from_int(rng.randrange(-2, 3))
                        for _ in range(ncols)] for _ in range(nrows)], ncols)


def _raw_zigzag(field, rng):
    """A random window, nonzero ends allowed, placed on the cycle."""
    lo = rng.randrange(1, 4)
    hi = lo + rng.randrange(1, 7)
    dims = {x: rng.choice([0, 1, 1, 2, 2, 3, 3, 4, 5, 6])
            for x in range(lo, hi + 1)}
    maps = {}
    for o in range(lo if lo % 2 else lo + 1, hi + 1, 2):
        for d in (1, -1):
            if lo <= o + d <= hi:
                maps[(o, d)] = _rand_matrix(field, dims[o + d], dims[o], rng)
    return line_rep(field, lo, hi, dims, maps)[0]


def _raw_circle(field, rng):
    m = rng.randrange(1, 6)
    dims = {x: rng.choice([0, 1, 1, 2, 2, 3, 3, 4, 5, 6])
            for x in range(1, 2 * m + 1)}
    maps = {}
    for o in range(1, 2 * m + 1, 2):
        for d in (1, -1):
            t = (o + d - 1) % (2 * m) + 1
            maps[(o, d)] = _rand_matrix(field, dims[t], dims[o], rng)
    return CircleRep(field, m, dims, maps)


def _check_certified(rep, line):
    if line:
        bars, cert = decompose_zigzag(rep)
        summands = list(bars)
    else:
        bars, cells, cert = decompose_circle(rep)
        summands = list(bars) + list(cells)
    assert verify_certificate(rep, summands, cert)
    # a certified bar never ends at an index where both arrows into x_2i are
    # isomorphisms: its block there has a zero row or a zero column
    for bar in bars:
        for i in (bar.i, bar.j):
            assert not (rep.alpha(i).is_invertible() and rep.beta(i).is_invertible())
    if summands:
        recon = direct_sum([summand_module(rep.field, s, rep) for s in summands])
    else:
        recon = zero_circle(rep.field, rep.m)
    mirror = hom_dim(recon, recon)
    assert hom_dim(rep, recon) == mirror
    assert hom_dim(recon, rep) == mirror
    return summands


def test_fuzzed_decompositions_certified_with_matching_hom_counts():
    """1050 random and planted representations of both shapes (entries over
    Q, GF(2), GF(5); every vertex dimension at most 6, cyclic length at most
    5): the certificate verifies, no bar ends where both of its level's
    arrows are isomorphisms, and the morphism-space dimensions against the
    reconstructed sum agree with the sum's own."""
    t0 = time.monotonic()
    rng = random.Random(404)
    fields = [QQ, GF2, GF5]
    checked = 0
    for i in range(525):
        field = fields[i % 3]
        if i % 3 == 2:
            while True:
                lo = rng.randrange(1, 4)
                hi = lo + rng.randrange(2, 6)
                planted, rep = planted_zigzag(field, lo, hi,
                                              rng.randrange(1, 4), rng)
                if max(rep.dims.values()) <= 6:
                    break
            found = _check_certified(rep, line=True)
            assert found == sorted(planted, key=summand_sort_key)
        else:
            _check_certified(_raw_zigzag(field, rng), line=True)
        checked += 1
    for i in range(525):
        field = fields[i % 3]
        if i % 3 == 2:
            while True:
                m = rng.randrange(1, 6)
                planted, rep = planted_circle(field, m, rng.randrange(0, 3),
                                              rng.randrange(1, 3), rng)
                if max(rep.dims.values()) <= 6:
                    break
            found = _check_certified(rep, line=False)
            assert found == sorted(planted, key=summand_sort_key)
        else:
            _check_certified(_raw_circle(field, rng), line=False)
        checked += 1
    assert checked >= 1000
    assert time.monotonic() - t0 < 300


def test_jordan_module_eigenvalue_convention_locked():
    """The one-cell module built from (lambda, k) decomposes to exactly the
    cell (t - lambda, k), for lambda in {1, 2, -1} and k in {1, 2, 3}."""
    for lam in (1, 2, -1):
        for k in (1, 2, 3):
            bars, cells, _ = decompose_circle(jordan_module(QQ, F(lam), k))
            assert bars == []
            assert cells == [Cell((QQ.neg(F(lam)), QQ.one), k)]


# -- worked example fixtures --------------------------------------------------------


def test_worked_example_fixture_numbers():
    """Entering the worked example's bar and cell multisets by hand, the
    derived numbers come out right, and the block matrix of its gluing map
    has primary components {(t-3, 1), (t-2, 2)}."""
    th = [F(i, 7) for i in range(1, 7)]
    crit = CriticalData(th, [], True)
    bars1 = [ValuedBar(th[5], th[0] + 1, False, True),
             ValuedBar(th[1], th[2], True, True),
             ValuedBar(th[3], th[4], False, False)]
    cells = {0: [Cell((F(-1), F(1)), 1)], 1: [Cell((F(-2), F(1)), 2)], 2: []}
    bundle = InvariantBundle(QQ, True, crit, {0: [], 1: bars1, 2: []},
                             cells, {}, 2)
    assert global_betti(bundle, 0) == 1
    assert global_betti(bundle, 1) == 2
    assert novikov_betti(bundle, 0) == 0
    assert novikov_betti(bundle, 1) == 1

    rcrit = CriticalData([F(0), F(7)], [], False)
    rbundle = InvariantBundle(QQ, False, rcrit,
                              {0: [ValuedBar(F(0), F(7), True, True)], 1: []},
                              {}, {}, 1)
    assert global_betti(rbundle, 0) == 1

    gluing = from_int_rows(QQ, [[3, 0, 0], [1, 2, -1], [0, 0, 2]])
    found, _ = primary_components(gluing)
    assert sorted(found, key=cell_sort_key) == \
        sorted([Cell((F(-3), F(1)), 1), Cell((F(-2), F(1)), 2)],
               key=cell_sort_key)


# -- stability ----------------------------------------------------------------------


def _min_gap(values, circular):
    vals = sorted(set(values))
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    if circular:
        gaps.append(vals[0] + 1 - vals[-1])
    return min(gaps)


def test_configurations_move_continuously_and_cells_stay_constant():
    """Four fixtures, perturbation sizes gap/10, gap/100, gap/1000: the max
    matching distance never exceeds twice the size, shrinks monotonically
    with the schedule, and no trial changes the Jordan cells."""
    t0 = time.monotonic()
    triangle = SimplexTable(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
    square = SimplexTable(["a", "b", "c", "d"],
                          [(0, 1), (0, 2), (1, 3), (2, 3)])
    fixtures = [
        (triangle, RealMap([F(0), F(1), F(1)]), 1),
        (square, RealMap([F(0), F(1), F(1), F(2)]), 1),
        (triangle, CircleMap([F(0), F(1, 4), F(1, 2)], {}), 1),
        (triangle, CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1}), 0),
    ]
    for table, mapping, degree in fixtures:
        values = mapping.angles if isinstance(mapping, CircleMap) \
            else mapping.values
        gap = _min_gap(values, isinstance(mapping, CircleMap))
        schedule = [gap / 10, gap / 100, gap / 1000]
        report = stability_experiment(table, mapping, degree, schedule,
                                      trials=5, seed=20)
        maxima = [F(row["max_distance_exact"]) for row in report["results"]]
        assert maxima == sorted(maxima, reverse=True)
        for eps, row, top in zip(schedule, report["results"], maxima):
            assert top <= 2 * eps
            assert row["jordan_violations"] == 0
    assert time.monotonic() - t0 < 120


# -- determinism --------------------------------------------------------------------


_REAL_DOC = {
    "field": "Q",
    "target": "R",
    "vertices": [{"id": "a", "value": "0"}, {"id": "b", "value": "1"},
                 {"id": "c", "value": "1"}],
    "simplices": [["a", "b"], ["a", "c"], ["b", "c"]],
}

_CIRCLE_DOC = {
    "field": "Q",
    "target": "S1",
    "vertices": [{"id": "a", "value": {"angle": "0"}},
                 {"id": "b", "value": {"angle": "1/3"}},
                 {"id": "c", "value": {"angle": "2/3"}}],
    "simplices": [["a", "b"], ["b", "c"], ["a", "c"]],
    "windings": [{"edge": ["a", "c"], "w": -1}],
}


def test_compute_command_is_byte_deterministic(tmp_path):
    """Running compute twice on the same input yields byte-identical JSON."""
    for name, doc in (("real", _REAL_DOC), ("circle", _CIRCLE_DOC)):
        src = tmp_path / f"{name}.json"
        src.write_text(json.dumps(doc))
        first = tmp_path / f"{name}.1.json"
        second = tmp_path / f"{name}.2.json"
        assert main(["compute", str(src), "--out", str(first)]) == 0
        assert main(["compute", str(src), "--out", str(second)]) == 0
        blob = first.read_bytes()
        assert blob and blob == second.read_bytes()
