"""Perturbation, bottleneck matching distance, and the drift experiment."""

import random
import sys
from fractions import Fraction as F

import pytest

from tamebars.complexes import CircleMap, RealMap, SimplexTable, validate_circle_map
from tamebars.field import QQ
from tamebars.invariants import Configuration, compute_invariants
from tamebars.stability import (
    CardinalityMismatch,
    _has_perfect_matching,
    matching_distance,
    perturb,
    stability_experiment,
)


def hollow_triangle():
    return SimplexTable(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])


def height_fixture():
    return hollow_triangle(), RealMap([F(0), F(1), F(1)])


def arc_fixture():
    # Degree-zero circle map: the triangle boundary folds onto the arc
    # [0, 1/2] and back, so degree 1 keeps one flipped open-bar point.
    return hollow_triangle(), CircleMap([F(0), F(1, 4), F(1, 2)], {})


def wrap_fixture():
    return hollow_triangle(), CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1})


def plane_config(points):
    return Configuration(1, False, list(points))


def cylinder_config(points):
    return Configuration(1, True, list(points))


# -- perturb -----------------------------------------------------------------------


def test_perturb_zero_is_identity():
    _, f = height_fixture()
    assert perturb(f, 0, 5).values == f.values
    _, g = wrap_fixture()
    shaken = perturb(g, 0, 5)
    assert shaken.angles == g.angles
    assert shaken.windings == g.windings


def test_perturb_reproducible():
    _, f = height_fixture()
    a = perturb(f, F(1, 10), 42)
    b = perturb(f, F(1, 10), 42)
    c = perturb(f, F(1, 10), 43)
    assert a.values == b.values
    assert a.values != c.values


def test_perturb_real_stays_within_eps():
    _, f = height_fixture()
    eps = F(1, 7)
    for seed in range(25):
        shaken = perturb(f, eps, seed)
        assert all(abs(new - old) <= eps
                   for new, old in zip(shaken.values, f.values))


def test_perturb_circle_range_and_windings():
    table, g = wrap_fixture()
    eps = F(1, 10)
    for seed in range(25):
        shaken = perturb(g, eps, seed)
        assert all(0 <= a < 1 for a in shaken.angles)
        assert all(abs(new - old) <= eps
                   for new, old in zip(shaken.angles, g.angles))
        assert shaken.windings == g.windings
        validate_circle_map(table, shaken)


def test_perturb_never_merges_distinct_values():
    f = RealMap([F(0), F(1, 1000)])
    eps = F(1, 200)
    for seed in range(50):
        shaken = perturb(f, eps, seed)
        assert shaken.values[0] != shaken.values[1]


def test_perturb_negative_eps_rejected():
    _, f = height_fixture()
    with pytest.raises(ValueError):
        perturb(f, F(-1, 2), 0)


# -- matching distance -------------------------------------------------------------


def test_distance_identical_zero():
    c = plane_config([(F(0), F(1)), (F(2), F(3))])
    assert matching_distance(c, c) == 0
    k = cylinder_config([(F(1, 2), F(3, 2))])
    assert matching_distance(k, k) == 0


def test_distance_empty_zero():
    assert matching_distance(plane_config([]), plane_config([])) == 0


def test_distance_single_point_shift():
    delta = F(3, 7)
    a = plane_config([(F(0), F(0))])
    b = plane_config([(delta, F(0))])
    assert matching_distance(a, b) == delta


def test_distance_permutation_invariant():
    pts = [(F(0), F(1)), (F(2), F(5)), (F(-1), F(0))]
    a = plane_config(pts)
    b = plane_config(list(reversed(pts)))
    assert matching_distance(a, b) == 0


def test_distance_symmetric():
    a = plane_config([(F(0), F(0)), (F(3), F(1))])
    b = plane_config([(F(1), F(2)), (F(2), F(2))])
    assert matching_distance(a, b) == matching_distance(b, a)


def test_distance_picks_best_pairing():
    a = plane_config([(F(0), F(0)), (F(4), F(0))])
    b = plane_config([(F(1), F(0)), (F(3), F(0))])
    assert matching_distance(a, b) == 1


def test_distance_cylinder_orbit_zero():
    a = cylinder_config([(F(1, 4), F(3, 4))])
    b = cylinder_config([(F(1, 4) + 1, F(3, 4) + 1)])
    c = cylinder_config([(F(1, 4) - 2, F(3, 4) - 2)])
    assert matching_distance(a, b) == 0
    assert matching_distance(a, c) == 0


def test_distance_cylinder_best_translate():
    a = cylinder_config([(F(0), F(1, 4))])
    b = cylinder_config([(F(9, 10), F(9, 8))])
    assert matching_distance(a, b) == F(1, 8)


def test_distance_cardinality_mismatch():
    a = plane_config([(F(0), F(0))])
    b = plane_config([(F(0), F(0)), (F(1), F(1))])
    with pytest.raises(CardinalityMismatch):
        matching_distance(a, b)


def test_distance_target_mismatch():
    with pytest.raises(ValueError):
        matching_distance(plane_config([]), cylinder_config([]))


@pytest.mark.parametrize("circular", [False, True])
def test_distance_triangle_inequality(circular):
    rng = random.Random(8)

    def sample():
        pts = [(F(rng.randint(-6, 6), 4), F(rng.randint(-6, 6), 4))
               for _ in range(3)]
        return Configuration(1, circular, sorted(pts))

    for _ in range(20):
        c1, c2, c3 = sample(), sample(), sample()
        d12 = matching_distance(c1, c2)
        d23 = matching_distance(c2, c3)
        d13 = matching_distance(c1, c3)
        assert d13 <= d12 + d23


# -- experiment --------------------------------------------------------------------


def test_experiment_zero_schedule():
    table, f = height_fixture()
    report = stability_experiment(table, f, 1, [F(0)], trials=3, seed=11)
    row = report["results"][0]
    assert row["max_distance_exact"] == "0"
    assert row["jordan_violations"] == 0


def test_experiment_real_height():
    table, f = height_fixture()
    schedule = [F(1, 10), F(1, 100)]
    report = stability_experiment(table, f, 1, schedule, trials=6, seed=3)
    assert report["cardinality"] == 1
    assert report["schedule"] == ["1/10", "1/100"]
    for eps, row in zip(schedule, report["results"]):
        assert F(row["max_distance_exact"]) <= 2 * eps
        assert row["jordan_violations"] == 0


def test_experiment_circle_arc():
    table, g = arc_fixture()
    schedule = [F(1, 40), F(1, 400)]
    report = stability_experiment(table, g, 1, schedule, trials=6, seed=9)
    assert report["cardinality"] == 1
    for eps, row in zip(schedule, report["results"]):
        moved = F(row["max_distance_exact"])
        assert 0 < moved <= 2 * eps
        assert row["jordan_violations"] == 0


def test_experiment_jordan_cells_constant_under_wrap():
    # The wrapped map has no bars at all; the report still checks that its
    # eigenvalue-one cell survives every perturbation.
    table, g = wrap_fixture()
    base = compute_invariants(table, g, QQ)
    assert base.cells[0] and not base.bars[0]
    report = stability_experiment(table, g, 1, [F(1, 30)], trials=8, seed=4)
    assert report["cardinality"] == 0
    row = report["results"][0]
    assert row["max_distance_exact"] == "0"
    assert row["jordan_violations"] == 0


def test_experiment_needs_trials():
    table, f = height_fixture()
    with pytest.raises(ValueError):
        stability_experiment(table, f, 1, [F(1, 10)], trials=0, seed=1)


def test_experiment_report_shape():
    table, f = height_fixture()
    report = stability_experiment(table, f, 0, [F(1, 50)], trials=2, seed=7)
    assert set(report) == {"degree", "cardinality", "trials", "seed",
                           "schedule", "results"}
    row = report["results"][0]
    assert set(row) == {"epsilon", "max_distance", "max_distance_exact",
                        "mean_distance", "jordan_violations"}
    float(row["max_distance"])
    float(row["mean_distance"])


def test_matching_follows_augmenting_paths_longer_than_the_stack():
    # point i may match only i-1 or i: trying i-1 first walks back to point 0
    n = 300
    chain = [[j in (i - 1, i) for j in range(n)] for i in range(n)]
    stuck = [row[:] for row in chain]
    stuck[n - 1] = [j == n - 2 for j in range(n)]  # two points want only n-2
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        found, missing = _has_perfect_matching(chain), _has_perfect_matching(stuck)
    finally:
        sys.setrecursionlimit(limit)
    assert found is True
    assert missing is False


def test_matching_agrees_with_brute_force():
    from itertools import permutations

    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 5)
        allowed = [[rng.random() < 0.4 for _ in range(n)] for _ in range(n)]
        brute = any(all(allowed[i][s[i]] for i in range(n)) for s in permutations(range(n)))
        assert _has_perfect_matching(allowed) is brute
