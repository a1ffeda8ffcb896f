"""The integer level cut against the Fraction-geometry cut it replaced.

``cut_at_levels`` triangulates on level ranks and final vertex positions;
``oracle_cut_at_levels`` (tests/cut_oracle.py) is the old cut, which works on
Fraction lifts and computes each piece's dimension as a rank over Q.  Both
must build the same refined complex, field by field and in the same order.
"""

import random
from fractions import Fraction

import pytest

from cut_oracle import oracle_cut_at_levels
from map_fixtures import random_circle_input, random_real_input
from oracles import cover_map
from tamebars.complexes import CircleMap, RealMap, SimplexTable, critical_candidates
from tamebars.cutting import cut_at_levels, unroll_cover

F = Fraction


def assert_same_cut(fast, slow):
    assert fast.table.vertices == slow.table.vertices
    assert fast.table.simplices == slow.table.simplices
    assert fast.values == slow.values
    assert fast.levels == slow.levels
    assert fast.windings == slow.windings
    assert fast.ranks == slow.ranks


def level_sets(rng, table, f):
    """All critical and regular values, a random half of them, and levels
    that miss every vertex value (values are halves from 0 to 3, angles
    twelfths), one of them above all values."""
    crit = critical_candidates(table, f)
    full = crit.criticals + crit.regulars
    return [full, rng.sample(full, (len(full) + 1) // 2), [F(1, 7), F(5, 7), F(-2, 5), F(22, 7)]]


def spread(table, f):
    """The same map on a vertex list with an unused vertex after each used one."""
    tops = [tuple(2 * v for v in s) for s in table.simplices]
    n = 2 * len(table.vertices)
    wide = SimplexTable(list(range(n)), tops)
    if isinstance(f, CircleMap):
        windings = {(2 * u, 2 * v): w for (u, v), w in f.windings.items()}
        return wide, CircleMap([f.angles[v // 2] for v in range(n)], windings)
    return wide, RealMap([f.values[v // 2] for v in range(n)])


def cases(make, seed, n):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        table, f = make(rng)
        if i % 3 == 2:
            table, f = spread(table, f)
        out.extend((table, f, levels) for levels in level_sets(rng, table, f))
    return out


REAL = cases(random_real_input, 41, 12)
CIRCLE = cases(random_circle_input, 42, 12)


@pytest.mark.parametrize("case", range(len(REAL)))
def test_real_cut_matches_oracle(case):
    table, f, levels = REAL[case]
    assert_same_cut(cut_at_levels(table, f, levels), oracle_cut_at_levels(table, f, levels))


@pytest.mark.parametrize("case", range(len(CIRCLE)))
def test_circle_cut_matches_oracle(case):
    table, f, levels = CIRCLE[case]
    assert_same_cut(cut_at_levels(table, f, levels), oracle_cut_at_levels(table, f, levels))


def test_cases_cover_the_edge_cases():
    tables = [t for t, _, _ in REAL + CIRCLE]
    assert any(len(s) == 4 for t in tables for s in t.simplices)
    assert any(len(t.simplices_of_dim(0)) < len(t.vertices) for t in tables)
    assert any(len(set(f.values)) < len(f.values) for _, f, _ in REAL)
    assert any(any(f.windings.values()) for _, f, _ in CIRCLE)


@pytest.mark.parametrize("seed", range(6))
def test_cover_cut_matches_oracle(seed):
    rng = random.Random(100 + seed)
    table, f = random_circle_input(rng, degree=rng.choice([-1, 1, 2]))
    crit = critical_candidates(table, f)
    a = rng.choice(crit.criticals + crit.regulars)
    for b in (a + F(1, 2), a + 1):
        cs = unroll_cover(table, f, a, b)
        cover = cs.cc.source
        assert_same_cut(cs.cc, oracle_cut_at_levels(cover, cover_map(f, cover), [a, b]))
