"""Metamorphic gates: transformations of a map whose effect on the output is
known without an oracle.

Bars and Jordan cells are invariants of the map, not of how its vertices
are named or listed, nor of how it is triangulated, and a real
re-valuation by an increasing affine map moves every bar end by that map.
Turning a circle map moves every bar end by the turn and keeps its Jordan
cells; a small move of the angles that keeps the windings keeps the cells
and moves the configurations by at most twice as much.
Complexes this small have no torsion of order 2^31 - 1, so bars and Betti
numbers over Q and over GF(2^31 - 1) are equal.  The inputs come from
`map_fixtures.py`; Hypothesis draws only their seeds, derandomized, so each
run checks the same documents.
"""

import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from map_fixtures import random_circle_input, random_real_input
from rep_fixtures import GF5
from test_acceptance import _min_gap
from tamebars.complexes import CircleMap, RealMap, SimplexTable
from tamebars.field import QQ, PrimeField
from tamebars.invariants import ValuedBar, bundle_to_json, compute_invariants, configuration
from tamebars.stability import matching_distance, perturb

gate = settings(max_examples=60, deadline=None, derandomize=True)
short_gate = settings(gate, max_examples=20)
seeds = st.integers(0, 2**32)


def _output(table, mapping, field) -> str:
    return json.dumps(bundle_to_json(compute_invariants(table, mapping, field)),
                      sort_keys=True)


def _relabelled(table, mapping, rng):
    """The same map with its vertices renamed and listed in another order;
    each winding follows its edge, negated when the edge turns around."""
    n = len(table.vertices)
    to = list(range(n))
    rng.shuffle(to)  # vertex v moves to position to[v]
    names = [None] * n
    for v, name in enumerate(table.vertices):
        names[to[v]] = f"renamed-{name}"
    tops = [tuple(sorted(to[v] for v in s)) for s in table.simplices]
    new = SimplexTable(names, sorted(tops, key=lambda s: (len(s), s)))
    if isinstance(mapping, RealMap):
        values = [None] * n
        for v, x in enumerate(mapping.values):
            values[to[v]] = x
        return new, RealMap(values)
    angles = [None] * n
    for v, x in enumerate(mapping.angles):
        angles[to[v]] = x
    windings = {}
    for (u, v), w in mapping.windings.items():
        a, b = to[u], to[v]
        windings[(a, b) if a < b else (b, a)] = w if a < b else -w
    return new, CircleMap(angles, windings)


@pytest.mark.parametrize("make", [random_real_input, random_circle_input],
                         ids=["real", "circle"])
@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "F5"])
@gate
@given(seed=seeds)
def test_renaming_and_reordering_vertices_keeps_the_output(make, field, seed):
    rng = random.Random(seed)
    table, mapping = make(rng)
    assert _output(*_relabelled(table, mapping, rng), field) == _output(table, mapping, field)


def _affine(x: F) -> F:
    return 3 * x - 5


@gate
@given(seed=seeds, field=st.sampled_from([QQ, GF5]))
def test_affine_revaluation_moves_every_bar_end(seed, field):
    table, mapping = random_real_input(random.Random(seed))
    before = bundle_to_json(compute_invariants(table, mapping, field))["degrees"]
    moved = RealMap([_affine(x) for x in mapping.values])
    after = bundle_to_json(compute_invariants(table, moved, field))["degrees"]
    assert after.keys() == before.keys()
    for r, entry in before.items():
        assert after[r]["betti"] == entry["betti"]
        assert after[r]["bars"] == [
            {**bar, "lo": str(_affine(F(bar["lo"]))), "hi": str(_affine(F(bar["hi"])))}
            for bar in entry["bars"]]


BIG = PrimeField(2**31 - 1)


@pytest.mark.parametrize("make, counts", [(random_real_input, ("bars", "betti")),
                                          (random_circle_input, ("bars", "novikov_betti"))],
                         ids=["real", "circle"])
@gate
@given(seed=seeds)
def test_bars_over_q_and_a_large_prime_agree(make, counts, seed):
    # one document through both row forms of a Mat: Fractions over Q and
    # residues mod p; cells are left out, their polynomials live in
    # different fields
    table, mapping = make(random.Random(seed))
    q, big = (bundle_to_json(compute_invariants(table, mapping, field))["degrees"]
              for field in (QQ, BIG))
    assert q.keys() == big.keys()
    for r, entry in q.items():
        assert {k: entry[k] for k in counts} == {k: big[r][k] for k in counts}


def _subdivided(table, mapping, rng):
    """The map with one edge u-v split at a new vertex w, valued at the
    midpoint: each simplex on u and v becomes the two with w for u and for v."""
    u, v = rng.choice(table.edges())
    w = len(table.vertices)
    tops = []
    for s in table.simplices:
        if u in s and v in s:
            tops += [tuple(sorted({*s, w} - {x})) for x in (u, v)]
        else:
            tops.append(s)
    values = mapping.values + [(mapping.values[u] + mapping.values[v]) / 2]
    return SimplexTable(table.vertices + [w], tops), RealMap(values)


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "F5"])
@gate
@given(seed=seeds)
def test_subdividing_an_edge_keeps_every_degree(field, seed):
    rng = random.Random(seed)
    table, mapping = random_real_input(rng)
    before = bundle_to_json(compute_invariants(table, mapping, field))
    after = bundle_to_json(compute_invariants(*_subdivided(table, mapping, rng), field))
    # the candidate levels may gain the new value, and with it one more
    # regular value between levels; everything else is unchanged
    grown = len(after["critical_values"]) - len(before["critical_values"])
    assert set(before["critical_values"]) <= set(after["critical_values"])
    assert len(after["regular_values"]) - len(before["regular_values"]) == grown
    for key in ("critical_values", "regular_values"):
        del before[key], after[key]
    assert json.dumps(after, sort_keys=True) == json.dumps(before, sort_keys=True)


def _rotated(table, mapping, delta):
    """The circle map turned by delta: each angle a goes to a + delta mod 1,
    and each edge's winding takes up the turns its two ends crossed, so every
    lift moves by delta."""
    turns = [math.floor(a + delta) for a in mapping.angles]
    angles = [a + delta - k for a, k in zip(mapping.angles, turns)]
    windings = {(u, v): mapping.winding(u, v) + turns[v] - turns[u] for u, v in table.edges()}
    return CircleMap(angles, windings)


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "F5"])
@short_gate
@given(seed=seeds, k=st.integers(1, 23))
def test_rotating_a_circle_map_moves_every_bar_end(field, seed, k):
    # the bars move by delta, each brought back so that lo lies in [0, 1);
    # Jordan cells, monodromy and the Betti numbers do not move
    delta = F(k, 24)
    table, mapping = random_circle_input(random.Random(seed))
    before = compute_invariants(table, mapping, field)
    after = compute_invariants(table, _rotated(table, mapping, delta), field)
    for r in range(before.rmax + 1):
        moved = []
        for b in before.degree_bars(r):
            turns = math.floor(b.lo + delta)
            moved.append(ValuedBar(b.lo + delta - turns, b.hi + delta - turns,
                                   b.left_closed, b.right_closed))
        assert after.degree_bars(r) == sorted(moved)
    old, new = bundle_to_json(before)["degrees"], bundle_to_json(after)["degrees"]
    assert new.keys() == old.keys()
    for r, entry in old.items():
        keys = ("betti", "novikov_betti", "jordan_cells", "monodromy")
        assert json.dumps({key: new[r][key] for key in keys}) == \
            json.dumps({key: entry[key] for key in keys})


@pytest.mark.parametrize("field", [QQ, GF5], ids=["Q", "F5"])
@short_gate
@given(seed=seeds)
def test_perturbing_a_circle_map_keeps_its_cells_and_moves_bars_within_the_bound(field, seed):
    # windings are kept, so the homotopy class and the Jordan cells are;
    # the configurations move by at most twice the perturbation
    table, mapping = random_circle_input(random.Random(seed))
    eps = _min_gap(mapping.angles, circular=True) / 10
    before = compute_invariants(table, mapping, field)
    after = compute_invariants(table, perturb(mapping, eps, seed, table), field)
    assert after.cells == before.cells
    for r in range(before.rmax + 2):
        assert matching_distance(configuration(before, r), configuration(after, r)) <= 2 * eps
