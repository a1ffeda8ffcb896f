"""Homology bases, induced maps, and representation assembly."""

import random
from fractions import Fraction

import pytest

from oracles import boundary_block, is_zero, rep_matrix
from tamebars.complexes import (
    CircleMap,
    RealMap,
    SimplexTable,
    critical_candidates,
)
from tamebars.cutting import cut_at_levels, fiber, slab, unroll_cover
from tamebars.field import GF2, QQ, PrimeField
from tamebars.homology import (
    InternalInconsistency,
    assemble_rep,
    betti_numbers,
    homology,
    homology_of,
    induced_map,
)

F = Fraction
GF5 = PrimeField(5)


def test_hollow_triangle_betti():
    t = SimplexTable(list("abc"), [(0, 1), (0, 2), (1, 2)])
    assert betti_numbers(t, QQ) == [1, 1]
    assert betti_numbers(t, GF2) == [1, 1]


def test_two_points_betti():
    t = SimplexTable(list("ab"), [(0,), (1,)])
    assert betti_numbers(t, QQ) == [2]


def test_filled_triangle_contractible():
    t = SimplexTable(list("abc"), [(0, 1, 2)])
    assert betti_numbers(t, QQ, 2) == [1, 0, 0]


def test_sphere_boundary_of_tetrahedron():
    t = SimplexTable(list("abcd"), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert betti_numbers(t, QQ, 2) == [1, 0, 1]
    assert betti_numbers(t, GF5, 2) == [1, 0, 1]


def test_projective_plane_depends_on_field():
    # minimal 6-vertex triangulation
    tris = [(0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5), (1, 2, 3),
            (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)]
    t = SimplexTable(list(range(6)), tris)
    assert betti_numbers(t, QQ, 2) == [1, 0, 0]
    assert betti_numbers(t, GF2, 2) == [1, 1, 1]


def test_homology_reps_are_cycles():
    t = SimplexTable(list("abc"), [(0, 1), (0, 2), (1, 2)])
    basis = homology_of(t, None, 1, QQ)
    assert basis.dim == 1
    assert is_zero(boundary_block(t, QQ, 1).mul(rep_matrix(basis)))


def test_induced_map_edge_fiber_into_slab():
    t = SimplexTable(["a", "b"], [(0, 1)])
    cc = cut_at_levels(t, RealMap([F(0), F(1)]), [F(0), F(1, 2), F(1)])
    fb = homology(fiber(cc, F(1, 2)), 0, QQ)
    sl = homology(slab(cc, F(0), F(1, 2)), 0, QQ)
    M = induced_map(fb, sl)
    assert M.rows == [[1]]


def test_induced_map_component_inclusion():
    t = SimplexTable(list("abcd"), [(0, 1), (2, 3)])
    cc = cut_at_levels(t, RealMap([F(0), F(0), F(0), F(0)]), [F(0)])
    whole = homology(slab(cc, F(0), F(0)), 0, QQ)
    assert whole.dim == 2
    part = homology_of(cc.table, [cc.table.index[(0,)], cc.table.index[(1,)],
                                  cc.table.index[(0, 1)]], 0, QQ)
    M = induced_map(part, whole)
    assert sorted(col for col in M.cols()) in ([[0, 1]], [[1, 0]])
    assert M.rank() == 1


def test_induced_map_two_fiber_points_merge_in_arc():
    t = SimplexTable(list("abc"), [(0, 1), (0, 2), (1, 2)])
    cc = cut_at_levels(t, RealMap([F(0), F(2), F(2)]), [F(0), F(1), F(2)])
    fb = homology(fiber(cc, F(1)), 0, QQ)
    half = homology(slab(cc, F(0), F(1)), 0, QQ)
    assert fb.dim == 2 and half.dim == 1
    M = induced_map(fb, half)
    assert M.rows == [[1, 1]]


def test_induced_map_rejects_foreign_chain():
    t = SimplexTable(list("ab"), [(0,), (1,)])
    basis = homology_of(t, [0], 0, QQ)
    with pytest.raises(InternalInconsistency):
        basis.coords({1: QQ.one})


def test_assemble_edge_rep():
    t = SimplexTable(["a", "b"], [(0, 1)])
    f = RealMap([F(0), F(1)])
    crit = critical_candidates(t, f)
    cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
    rep = assemble_rep(cc, crit, 0, QQ)
    assert (rep.lo, rep.hi) == (1, 5)
    assert [rep.dims[x] for x in range(1, 6)] == [0, 1, 1, 1, 0]
    assert rep.maps[(3, -1)].rows == [[1]]
    assert rep.maps[(3, 1)].rows == [[1]]


def test_assemble_merging_arcs_rep():
    t = SimplexTable(list("abc"), [(0, 1), (0, 2), (1, 2)])
    f = RealMap([F(0), F(2), F(2)])
    crit = critical_candidates(t, f)
    cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
    rep = assemble_rep(cc, crit, 0, QQ)
    assert [rep.dims[x] for x in range(1, 6)] == [0, 1, 2, 1, 0]
    assert rep.maps[(3, -1)].rows == [[1, 1]]
    assert rep.maps[(3, 1)].rows == [[1, 1]]
    rep1 = assemble_rep(cc, crit, 1, QQ)
    assert rep1.total_dim() == 0


def test_assemble_degree_one_circle_rep():
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    cmap = CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1})
    crit = critical_candidates(t, cmap)
    cc = cut_at_levels(t, cmap, crit.criticals + crit.regulars)
    rep = assemble_rep(cc, crit, 0, QQ)
    assert rep.m == 3
    assert all(d == 1 for d in rep.dims.values())
    for i in range(1, 4):
        assert rep.alpha(i).rows == [[1]]
        assert rep.beta(i).rows == [[1]]


def disc_with_heights():
    t = SimplexTable(list("abcd"), [(0, 1, 2), (0, 2, 3)])
    return t, RealMap([F(0), F(1), F(2), F(3)])


def test_assemble_matches_direct_fiber_homology():
    t, f = disc_with_heights()
    crit = critical_candidates(t, f)
    cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
    rep = assemble_rep(cc, crit, 0, QQ)
    for i, theta in enumerate(crit.criticals, start=1):
        assert rep.dims[2 * i] == homology(fiber(cc, theta), 0, QQ).dim
    for i, treg in enumerate(crit.regulars):
        assert rep.dims[2 * i + 1] == homology(fiber(cc, treg), 0, QQ).dim


def test_cover_slice_homology_degree_one():
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    cmap = CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1})
    cs = unroll_cover(t, cmap, F(0), F(1))
    h = homology(cs.window, 0, QQ)
    assert h.dim == 1
    assert homology(cs.window, 1, QQ).dim == 0
    wide = unroll_cover(t, cmap, F(0), F(3))
    assert homology(wide.window, 0, QQ).dim == 1


def test_cover_slice_homology_degree_two_hexagon():
    # Degree-2 map: the infinite cyclic cover splits into two lines, so any
    # window meets exactly two arcs.
    t = SimplexTable(list(range(6)),
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    thirds = [F(0), F(1, 3), F(2, 3), F(0), F(1, 3), F(2, 3)]
    cmap = CircleMap(thirds, {(2, 3): 1, (0, 5): -1})
    cs = unroll_cover(t, cmap, F(0), F(1))
    assert homology(cs.window, 0, QQ).dim == 2
    assert homology(cs.window, 1, QQ).dim == 0
    wide = unroll_cover(t, cmap, F(0), F(4))
    assert homology(wide.window, 0, QQ).dim == 2


def test_random_real_assembly_fibers_match(subtests=None):
    rng = random.Random(11)
    for _ in range(6):
        nv = rng.randrange(4, 7)
        tops = [tuple(sorted(rng.sample(range(nv), rng.choice([2, 3]))))
                for _ in range(rng.randrange(2, 5))]
        tops = [s for s in tops if len(set(s)) == len(s)]
        if not tops:
            continue
        t = SimplexTable(list(range(nv)), tops)
        f = RealMap([F(rng.randrange(0, 3)) for _ in range(nv)])
        crit = critical_candidates(t, f)
        cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
        for r in (0, 1):
            rep = assemble_rep(cc, crit, r, GF2)
            for i, theta in enumerate(crit.criticals, start=1):
                assert rep.dims[2 * i] == homology(fiber(cc, theta), r, GF2).dim
