"""The level index of a cut complex against the full scans it replaced.

``scan_fiber`` and ``scan_slab`` compare every refined simplex with the
requested level or slab ends.  The indexed ``fiber`` and ``slab`` must return
exactly the same member lists, order included, because homology bases and
every reported byte depend on that order.
"""

import random
from fractions import Fraction
from math import ceil, floor

import pytest

from map_fixtures import random_circle_input, random_real_input
from oracles import simplex_lift
from tamebars.complexes import critical_candidates
from tamebars.cutting import LevelNotCut, cut_at_levels, fiber, slab, unroll_cover

F = Fraction


def scan_fiber(cc, c):
    cls = Fraction(c) % 1 if cc.circular else Fraction(c)
    if cls not in cc.levels:
        raise LevelNotCut(f"level {c} was not cut")
    members = []
    for i, s in enumerate(cc.table.simplices):
        if any(cc.values[v] != cls for v in s):
            continue
        if cc.circular and any(cc.windings.get((s[0], v), 0) != 0 for v in s[1:]):
            continue
        members.append(i)
    return members


def scan_slab(cc, a, b):
    a, b = Fraction(a), Fraction(b)
    if cc.circular:
        if a % 1 not in cc.levels or b % 1 not in cc.levels:
            raise LevelNotCut(f"slab ends {a}, {b} were not cut")
    else:
        if a not in cc.levels or b not in cc.levels:
            raise LevelNotCut(f"slab ends {a}, {b} were not cut")
    members = []
    for i, s in enumerate(cc.table.simplices):
        if cc.circular:
            lift = simplex_lift(cc, s)
            if ceil(a - min(lift)) <= floor(b - max(lift)):
                members.append(i)
        else:
            if all(a <= cc.values[v] <= b for v in s):
                members.append(i)
    return members


def assert_matches_scan(cc, levels, shifts=(0,)):
    for c in levels:
        assert fiber(cc, c).members == scan_fiber(cc, c)
    for a in levels:
        for b in levels:
            for k in shifts:
                assert slab(cc, a, b + k).members == scan_slab(cc, a, b + k)


def real_cases(n=10, seed=11):
    rng = random.Random(seed)
    return [random_real_input(rng) for _ in range(n)]


def circle_cases(n=10, seed=12):
    rng = random.Random(seed)
    return [random_circle_input(rng) for _ in range(n)]


@pytest.mark.parametrize("case", range(10))
def test_real_fibers_and_slabs_match_scan(case):
    table, f = real_cases()[case]
    crit = critical_candidates(table, f)
    levels = crit.criticals + crit.regulars
    cc = cut_at_levels(table, f, levels)
    assert_matches_scan(cc, sorted(levels))


@pytest.mark.parametrize("case", range(6))
def test_circle_fibers_and_slabs_match_scan(case):
    table, f = circle_cases()[case]
    crit = critical_candidates(table, f)
    cc = cut_at_levels(table, f, crit.criticals + crit.regulars)
    assert_matches_scan(cc, sorted(crit.criticals + crit.regulars), shifts=(0, 1, 2))
    wrap = (crit.regulars[-1] - 1, crit.criticals[0])
    assert slab(cc, *wrap).members == scan_slab(cc, *wrap)


@pytest.mark.parametrize("case", range(10))
def test_levels_missing_vertex_values_match_scan(case):
    rng = random.Random(100 + case)
    table, f = real_cases()[case]
    values = sorted(set(f.values))
    pool = values + [(a + b) / 2 for a, b in zip(values, values[1:])] + [F(5, 4)]
    levels = sorted(set(rng.sample(pool, max(1, len(pool) // 3))))
    cc = cut_at_levels(table, f, levels)
    assert_matches_scan(cc, levels)

    table, g = circle_cases()[case]
    angles = sorted(set(g.angles))
    levels = sorted(set(rng.sample(angles + [F(1, 24), F(13, 24)], 2)))
    cc = cut_at_levels(table, g, levels)
    assert_matches_scan(cc, levels, shifts=(-1, 0, 1))


def test_uncut_levels_raise_like_the_scan():
    table, f = real_cases()[0]
    cc = cut_at_levels(table, f, [F(1, 2), F(2)])
    for call in (lambda: fiber(cc, F(1)), lambda: slab(cc, F(1, 2), F(1))):
        with pytest.raises(LevelNotCut):
            call()
    table, g = circle_cases()[0]
    cc = cut_at_levels(table, g, [F(1, 3)])
    assert fiber(cc, F(4, 3)).members == scan_fiber(cc, F(4, 3))
    with pytest.raises(LevelNotCut):
        slab(cc, F(1, 3), F(1, 2))


@pytest.mark.parametrize("case", range(6))
def test_cover_window_matches_scan(case):
    table, g = circle_cases(n=6, seed=13)[case]
    for a, b in ((F(0), F(1)), (F(1, 2), F(2)), (F(-1, 3), F(1, 4))):
        cs = unroll_cover(table, g, a, b)
        assert cs.members == scan_slab(cs.cc, a, b)
        assert_matches_scan(cs.cc, [a, b])

