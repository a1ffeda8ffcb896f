"""Homology bases, induced maps, and representation assembly."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import DenseReducer
from map_fixtures import random_circle_input, random_real_input
from oracles import boundary_block, is_zero, rep_matrix, uncleared_homology_of
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
    _Reducer,
    _boundary_chain,
    assemble_rep,
    betti_numbers,
    homology,
    homology_of,
    induced_map,
)

F = Fraction
GF5 = PrimeField(5)
GF_BIG = PrimeField(2**31 - 1)


def test_hollow_triangle_betti():
    t = SimplexTable(list("abc"), [(0, 1), (0, 2), (1, 2)])
    assert betti_numbers(t, QQ) == [1, 1]
    assert betti_numbers(t, GF2) == [1, 1]


def test_two_points_betti():
    t = SimplexTable(list("ab"), [(0,), (1,)])
    assert betti_numbers(t, QQ) == [2]


def test_filled_triangle_contractible():
    t = SimplexTable(list("abc"), [(0, 1, 2)])
    assert betti_numbers(t, QQ) == [1, 0, 0]


def test_sphere_boundary_of_tetrahedron():
    t = SimplexTable(list("abcd"), [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert betti_numbers(t, QQ) == [1, 0, 1]
    assert betti_numbers(t, GF5) == [1, 0, 1]


def test_projective_plane_depends_on_field():
    # minimal 6-vertex triangulation
    tris = [(0, 1, 2), (0, 1, 5), (0, 2, 4), (0, 3, 4), (0, 3, 5), (1, 2, 3),
            (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)]
    t = SimplexTable(list(range(6)), tris)
    assert betti_numbers(t, QQ) == [1, 0, 0]
    assert betti_numbers(t, GF2) == [1, 1, 1]


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
    assert sorted(list(c) for c in zip(*M.rows)) in ([[0, 1]], [[1, 0]])
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
    # the empty fibers below and above the line are both x_1, a turn apart
    assert rep.m == 2
    assert [rep.dims[rep.vertex_of(x)] for x in range(1, 6)] == [0, 1, 1, 1, 0]
    assert rep.maps[(3, -1)].rows == [[1]]
    assert rep.maps[(3, 1)].rows == [[1]]


def test_assemble_merging_arcs_rep():
    t = SimplexTable(list("abc"), [(0, 1), (0, 2), (1, 2)])
    f = RealMap([F(0), F(2), F(2)])
    crit = critical_candidates(t, f)
    cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
    rep = assemble_rep(cc, crit, 0, QQ)
    assert [rep.dims[rep.vertex_of(x)] for x in range(1, 6)] == [0, 1, 2, 1, 0]
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
        assert rep.dims[rep.vertex_of(2 * i + 1)] == homology(fiber(cc, treg), 0, QQ).dim


def test_cover_slice_homology_degree_one():
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    cmap = CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1})
    cs = unroll_cover(t, cmap, F(0), F(1))
    h = homology(cs, 0, QQ)
    assert h.dim == 1
    assert homology(cs, 1, QQ).dim == 0
    wide = unroll_cover(t, cmap, F(0), F(3))
    assert homology(wide, 0, QQ).dim == 1


def test_cover_slice_homology_degree_two_hexagon():
    # Degree-2 map: the infinite cyclic cover splits into two lines, so any
    # window meets exactly two arcs.
    t = SimplexTable(list(range(6)),
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
    thirds = [F(0), F(1, 3), F(2, 3), F(0), F(1, 3), F(2, 3)]
    cmap = CircleMap(thirds, {(2, 3): 1, (0, 5): -1})
    cs = unroll_cover(t, cmap, F(0), F(1))
    assert homology(cs, 0, QQ).dim == 2
    assert homology(cs, 1, QQ).dim == 0
    wide = unroll_cover(t, cmap, F(0), F(4))
    assert homology(wide, 0, QQ).dim == 2


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


# -- clearing: the bases are those of the reduction without it


def torus_to_circle(k=3):
    """A k-by-k triangulated torus mapped to the circle with degree one along
    the first coordinate."""
    def lift(i, j):  # i may be k: the far side of the seam, one turn higher
        v = (i % k) * k + j % k
        return v, F(i % k, k) + F((5 * (i % k) + 3 * (j % k)) % 4, 8 * k) + i // k

    tris, lifts = set(), []
    for i in range(k):
        for j in range(k):
            corners = [lift(i, j), lift(i + 1, j), lift(i + 1, j + 1), lift(i, j + 1)]
            for tri in ((0, 1, 2), (0, 2, 3)):
                pts = [corners[t] for t in tri]
                tris.add(tuple(sorted(v for v, _ in pts)))
                lifts.append(pts)
    table = SimplexTable(list(range(k * k)), sorted(tris))
    angles = [F(0)] * (k * k)
    windings = {}
    for pts in lifts:
        for v, x in pts:
            angles[v] = x % 1
        for (u, xu), (v, xv) in ((pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])):
            # each edge gets the same winding from every triangle it lies in
            w = int(xv // 1 - xu // 1)
            windings[(u, v) if u < v else (v, u)] = w if u < v else -w
    return table, CircleMap(angles, windings)


def cut_handles(cc, crit):
    """Member lists of every fiber and slab that assemble_rep reads, and None
    for the whole cut table."""
    th, ts = crit.criticals, crit.regulars
    out = [None] + [fiber(cc, c).members for c in th + ts]
    for i in range(1, crit.m + 1):
        if crit.circular:
            lo = ts[i - 2] if i > 1 else ts[-1] - 1
            ends = [(lo, th[i - 1]), (th[i - 1], ts[i - 1])]
        else:
            ends = [(ts[i - 1], th[i - 1]), (th[i - 1], ts[i])]
        out += [slab(cc, a, b).members for a, b in ends]
    return out


def chain_items(basis):
    """Everything a basis stores, as item lists, so key order counts."""
    return (basis.r_cells,
            [list(z.items()) for z in basis.reps],
            [(low, list(col.items()), list(tag.items()))
             for low, (col, tag) in basis._structure.by_low.items()])


def assert_same_basis(got, want):
    # values compare exactly: an int equals its Fraction
    assert chain_items(got) == chain_items(want)


@pytest.mark.parametrize("field", [QQ, GF2, GF_BIG], ids=["Q", "GF2", "GF(2^31-1)"])
@pytest.mark.parametrize("kind", ["real", "circle"])
def test_clearing_matches_the_uncleared_reduction(kind, field):
    rng = random.Random(8)
    for _ in range(6):
        make = random_real_input if kind == "real" else random_circle_input
        t, f = make(rng)
        crit = critical_candidates(t, f)
        cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
        for members in cut_handles(cc, crit):
            shuffled = None if members is None else rng.sample(members, len(members))
            for r in range(cc.table.dim + 2):
                want = uncleared_homology_of(cc.table, members, r, field)
                assert_same_basis(homology_of(cc.table, members, r, field), want)
                assert_same_basis(homology_of(cc.table, shuffled, r, field), want)


# -- integer chains over Q: Fractions only after a non-unit pivot


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["real", "circle"]), st.randoms(use_true_random=False))
def test_integer_chains_match_the_fraction_oracle(kind, rng):
    # the oracle reduces Fractions, without clearing
    t, f = (random_real_input if kind == "real" else random_circle_input)(rng)
    crit = critical_candidates(t, f)
    cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
    for members in cut_handles(cc, crit):
        for r in range(cc.table.dim + 2):
            want = uncleared_homology_of(cc.table, members, r, QQ)
            assert_same_basis(homology_of(cc.table, members, r, QQ), want)


def test_a_non_unit_pivot_turns_the_chains_it_touches_into_fractions():
    fast, slow = _Reducer(QQ), DenseReducer(QQ)
    fast.insert({0: 1, 3: 2}, {7: 1})  # pivot 2 at row 3
    slow.insert({0: F(1), 3: F(2)}, {7: F(1)})
    col, tag = fast.reduce({0: -1, 1: F(1, 3), 3: 3}, {5: 1})
    want = slow.reduce({0: F(-1), 1: F(1, 3), 3: F(3)}, {5: F(1)})
    assert [list(col.items()), list(tag.items())] == [list(c.items()) for c in want]
    assert (col, tag) == ({0: F(-5, 2), 1: F(1, 3)}, {5: 1, 7: F(-3, 2)})
    assert [type(v) for v in col.values()] == [Fraction, Fraction]
    assert [type(v) for v in tag.values()] == [int, Fraction]  # 5 is untouched


def test_the_cut_torus_reduces_on_ints_and_reads_out_fractions():
    t, f = torus_to_circle()
    crit = critical_candidates(t, f)
    cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
    seen = 0
    for members in cut_handles(cc, crit):
        for r in range(3):
            basis = homology_of(cc.table, members, r, QQ)
            stored = [v for col, tag in basis._structure.by_low.values()
                      for v in (*col.values(), *tag.values())]
            stored += [v for z in basis.reps for v in z.values()]
            assert {type(v) for v in stored} <= {int}
            seen += len(stored)
            for j, z in enumerate(basis.reps):
                coords = basis.coords(z)
                assert coords == [int(i == j) for i in range(basis.dim)]
                assert {type(x) for x in coords} == {Fraction}
    assert seen > 0
    entries = [x for r in range(3) for M in assemble_rep(cc, crit, r, QQ).maps.values()
               for row in M.rows for x in row]
    assert entries and {type(x) for x in entries} == {Fraction}


def test_clearing_skips_every_pivot_of_the_cut_torus_boundaries(monkeypatch):
    t, f = torus_to_circle()
    crit = critical_candidates(t, f)
    cc = cut_at_levels(t, f, crit.criticals + crit.regulars)
    edges = [i for i, s in enumerate(cc.table.simplices) if len(s) == 2]
    boundaries = _Reducer(QQ)
    for i, s in enumerate(cc.table.simplices):
        if len(s) == 3:
            boundaries.insert(_boundary_chain(cc.table, i, QQ), {})
    cleared = set(boundaries.by_low)
    assert cleared and cleared < set(edges)

    reduced = []
    original = _Reducer.reduce

    def counting_reduce(self, col, tag):
        reduced.extend(tag)  # only the cycle reduction tags a cell
        return original(self, col, tag)

    monkeypatch.setattr(_Reducer, "reduce", counting_reduce)
    basis = homology_of(cc.table, None, 1, QQ)
    assert basis.dim == 2
    assert sorted(reduced) == sorted(set(edges) - cleared)


def filled_triangle_missing(face):
    t = SimplexTable(list("abc"), [(0, 1, 2)])
    return t, [i for i, s in enumerate(t.simplices) if s != face]


def test_missing_pivot_face_fails_the_rank_check():
    t, members = filled_triangle_missing((1, 2))  # the largest edge: the pivot
    assert t.index[(1, 2)] == max(t.index[e] for e in [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(InternalInconsistency, match="rank bookkeeping failed"):
        homology_of(t, members, 1, QQ)


def test_missing_face_below_the_pivot_fails_the_rank_check():
    t, members = filled_triangle_missing((0, 1))
    with pytest.raises(InternalInconsistency, match="rank bookkeeping failed"):
        homology_of(t, members, 1, GF2)
    # the edges alone, without the triangle, are a closed subcomplex
    assert homology_of(t, [m for m in members if len(t.simplices[m]) < 3], 1, QQ).dim == 0
