"""Level-cut subdivision, fibers, slabs, and the unrolled cyclic cover."""

import random
from fractions import Fraction

import pytest

from oracles import deck_vertex, euler_characteristic, member_simplices, refined_map
from tamebars.complexes import CircleMap, CocycleViolation, MalformedInput, RealMap, SimplexTable
from tamebars.cutting import (
    CUT_LIMIT,
    LevelNotCut,
    cut_at_levels,
    fiber,
    slab,
    unroll_cover,
)

F = Fraction


def test_edge_cut_at_half():
    t = SimplexTable(["a", "b"], [(0, 1)])
    cc = cut_at_levels(t, RealMap([F(0), F(1)]), [F(1, 2)])
    assert len(cc.table.vertices) == 3
    assert len(cc.table.simplices_of_dim(1)) == 2
    assert cc.values == [0, 1, F(1, 2)]
    assert cc.table.vertices[2][0] == "cut"


def test_cut_preserves_euler_characteristic():
    t = SimplexTable(list("abc"), [(0, 1, 2)])
    cc = cut_at_levels(t, RealMap([F(0), F(1), F(2)]), [F(1)])
    assert euler_characteristic(cc.table) == euler_characteristic(t)


def test_filled_triangle_level_fiber_is_an_edge():
    t = SimplexTable(list("abc"), [(0, 1, 2)])
    cc = cut_at_levels(t, RealMap([F(0), F(1), F(2)]), [F(1)])
    fb = fiber(cc, F(1))
    sizes = sorted(len(cc.table.simplices[i]) for i in fb.members)
    assert sizes == [1, 1, 2]


def test_fiber_at_uncut_level_raises():
    t = SimplexTable(["a", "b"], [(0, 1)])
    cc = cut_at_levels(t, RealMap([F(0), F(1)]), [F(1, 2)])
    with pytest.raises(LevelNotCut):
        fiber(cc, F(1, 4))


def test_fiber_above_max_is_empty():
    t = SimplexTable(["a", "b"], [(0, 1)])
    cc = cut_at_levels(t, RealMap([F(0), F(1)]), [F(7)])
    assert fiber(cc, F(7)).members == []


def test_slab_of_cut_edge():
    t = SimplexTable(["a", "b"], [(0, 1)])
    cc = cut_at_levels(t, RealMap([F(0), F(1)]), [F(0), F(1, 2), F(1)])
    h = slab(cc, F(0), F(1, 2))
    assert len([i for i in h.members if len(cc.table.simplices[i]) == 2]) == 1
    assert fiber(cc, F(1, 2)).members != []
    full = slab(cc, F(0), F(1))
    assert len(full.members) == len(cc.table)


def test_handles_are_face_closed():
    t = SimplexTable(list("abcd"), [(0, 1, 2, 3)])
    cc = cut_at_levels(t, RealMap([F(0), F(1), F(2), F(3)]),
                       [F(1, 2), F(3, 2), F(5, 2)])
    for h in [slab(cc, F(1, 2), F(3, 2)), fiber(cc, F(3, 2))]:
        member_set = set(member_simplices(h))
        for s in member_set:
            for k in range(len(s)):
                face = s[:k] + s[k + 1:]
                if face:
                    assert face in member_set


def degree_one_triangle():
    """Three short ascending arcs; the map is a homeomorphism onto the circle."""
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    return t, CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1})


def long_edge_triangle():
    """Degree one as well, but the third edge wraps the long way around."""
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    return t, CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): 1})


def test_circle_cut_fiber_sizes_by_enumeration():
    t, cmap = degree_one_triangle()
    cc = cut_at_levels(t, cmap, [F(0), F(1, 2)])
    for level in [F(0), F(1, 2)]:
        fb = fiber(cc, level)
        assert all(len(cc.table.simplices[i]) == 1 for i in fb.members)
        assert len(fb.members) == 1
    assert euler_characteristic(cc.table) == euler_characteristic(t)

    # the long edge lifts to [0, 5/3]: it crosses angle 0 once in its
    # interior and angle 1/2 twice
    t, cmap = long_edge_triangle()
    cc = cut_at_levels(t, cmap, [F(0), F(1, 2)])
    assert len(fiber(cc, F(0)).members) == 2
    assert len(fiber(cc, F(1, 2)).members) == 3
    assert euler_characteristic(cc.table) == euler_characteristic(t)


def test_circle_winding_edge_not_in_fiber():
    t = SimplexTable(["a", "b"], [(0, 1)])
    cmap = CircleMap([F(1, 4), F(1, 4)], {(0, 1): 1})
    cc = cut_at_levels(t, cmap, [F(1, 4)])
    fb = fiber(cc, F(1, 4))
    assert sorted(len(cc.table.simplices[i]) for i in fb.members) == [1, 1]


def test_circle_slab_wraps_to_deck_translates():
    t, cmap = degree_one_triangle()
    cc = cut_at_levels(t, cmap, [F(0), F(1, 2)])
    wrapped = slab(cc, F(1, 2), F(1))
    direct = slab(cc, F(-1, 2), F(0))
    assert wrapped.members == direct.members


def test_refined_windings_sum_to_degree():
    t, cmap = degree_one_triangle()
    cc = cut_at_levels(t, cmap, [F(0), F(1, 4), F(1, 2)])
    rmap = refined_map(cc)
    # walk the refined 1-skeleton around the original cycle: total lift
    # displacement of any cycle must be an integer (here degree -1 or +1)
    edges = cc.table.edges()
    adj = {}
    for (u, v) in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    assert all(len(ns) == 2 for ns in adj.values())
    start = edges[0][0]
    prev, cur = None, start
    total = F(0)
    while True:
        nxt = [x for x in adj[cur] if x != prev][0]
        total += rmap.angles[nxt] - rmap.angles[cur] + rmap.winding(cur, nxt)
        prev, cur = cur, nxt
        if cur == start:
            break
    assert total.denominator == 1 and abs(total) == 1


def chi(table):
    return euler_characteristic(table)


def test_random_real_cuts_preserve_euler():
    rng = random.Random(7)
    for _ in range(12):
        nv = rng.randrange(4, 8)
        tops = [tuple(sorted(rng.sample(range(nv), rng.choice([2, 3, 3, 4]))))
                for _ in range(rng.randrange(2, 6))]
        tops = [s for s in tops if len(set(s)) == len(s)]
        if not tops:
            continue
        t = SimplexTable(list(range(nv)), tops)
        f = RealMap([F(rng.randrange(0, 4), rng.choice([1, 2])) for _ in range(nv)])
        levels = sorted(set(f.values))
        mids = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        cc = cut_at_levels(t, f, levels + mids)
        assert chi(cc.table) == chi(t)
        for c in levels + mids:
            fb = fiber(cc, c)
            member_set = set(member_simplices(fb))
            for v, val in enumerate(cc.values):
                if val == c:
                    assert (v,) in member_set


def test_cover_of_degree_one_window_is_contractible():
    t, cmap = degree_one_triangle()
    cs = unroll_cover(t, cmap, F(0), F(1))
    member_set = set(member_simplices(cs))
    verts = {s[0] for s in member_set if len(s) == 1}
    edges = [s for s in member_set if len(s) == 2]
    assert len(verts) == len(edges) + 1  # a tree; here in fact a path


def test_cover_window_below_all_values_is_empty():
    t = SimplexTable(["a"], [(0,)])
    cmap = CircleMap([F(0)], {})
    cs = unroll_cover(t, cmap, F(1, 3), F(1, 2))
    assert cs.members == []


def test_cover_deck_map_shifts_boundary_fibers():
    t, cmap = degree_one_triangle()
    cc = unroll_cover(t, cmap, F(0), F(1)).cc
    lo = {cc.table.simplices[i][0] for i in fiber(cc, F(0)).members
          if len(cc.table.simplices[i]) == 1}
    hi = {cc.table.simplices[i][0] for i in fiber(cc, F(1)).members
          if len(cc.table.simplices[i]) == 1}
    # values in the cover are genuine reals, so the two ends are distinct
    # fibers and the deck map carries the low end onto the high end
    assert lo and hi and lo.isdisjoint(hi)
    deck = deck_vertex(cc)
    assert {deck[v] for v in lo if v in deck} <= hi
    moved = [v for v in lo if v in deck]
    assert len(moved) == len(lo)


def test_cut_names_the_simplex_and_edge_of_an_inconsistent_lift():
    # an unvalidated map that winds once along (0, 2) but not along (0, 1)
    # and (1, 2): the filled triangle has no lift
    t = SimplexTable(list("abc"), [(0, 1, 2)])
    f = CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): 1})
    with pytest.raises(CocycleViolation, match=r"triangle \(0, 1, 2\)") as cut:
        cut_at_levels(t, f, [F(1, 2)])
    with pytest.raises(CocycleViolation) as cover:
        unroll_cover(t, f, F(0), F(1))
    assert cut.value.triangle == cover.value.triangle == (0, 1, 2)


def test_cover_refuses_a_window_past_the_limit_before_unrolling_it():
    # one vertex at angle 0 lifts to every whole number in the window
    t = SimplexTable(["a"], [(0,)])
    with pytest.raises(MalformedInput, match=f"needs {CUT_LIMIT + 1} lifted simplices"):
        unroll_cover(t, CircleMap([F(0)], {}), F(0), F(CUT_LIMIT))
