"""Perturbation experiments probing continuity of configurations.

The configuration of a tame map moves continuously with the vertex values,
and the Jordan cells stay constant under small moves.  This module shakes
the vertex data, recomputes the invariants, and measures how far the
configuration travelled using an exact bottleneck matching distance.  The
ground metric is L-infinity on the plane; on the cylinder it is the
quotient over simultaneous integer translates of both coordinates.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .complexes import (CardinalityMismatch, CircleMap, ExperimentError, RealMap,
                        SimplexTable)
from .field import QQ, Field
from .invariants import (BeyondFloatRange, Configuration, compute_invariants, configuration,
                         to_float)

Point = Tuple[Fraction, Fraction]


_GRID = 1 << 20
_MAX_DRAWS = 1000


def _draw(rng: random.Random, eps: Fraction) -> Fraction:
    return Fraction(rng.randrange(-_GRID, _GRID + 1), _GRID) * eps


def perturb(mapping: Union[RealMap, CircleMap], eps, seed):
    """Shift every vertex value by a pseudo-random rational in [-eps, eps].

    A circle map keeps a copy of its windings, and every angle stays inside
    [0, 1) turns, so the perturbed map is valid wherever the map was and
    the homotopy class survives.  Vertices with distinct values never
    collide: an offending draw is simply redone.  The result is
    reproducible from the seed.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ExperimentError(f"epsilon {eps} is negative")
    circular = isinstance(mapping, CircleMap)
    old = list(mapping.angles) if circular else list(mapping.values)
    if eps == 0:
        new = old
    else:
        rng = random.Random(seed)
        new = []
        for i, v in enumerate(old):
            for _ in range(_MAX_DRAWS):
                cand = v + _draw(rng, eps)
                if circular and not 0 <= cand < 1:
                    continue
                if any(cand == w for j, w in enumerate(new) if old[j] != v):
                    continue
                new.append(cand)
                break
            else:
                raise ExperimentError(
                    f"no collision-free draw for vertex {i} at epsilon {eps}")
    if circular:
        return CircleMap(new, dict(mapping.windings))
    return RealMap(new)


def _plane_metric(p: Point, q: Point) -> Fraction:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1]))


def _cylinder_metric(p: Point, q: Point) -> Fraction:
    # max(|a-k|, |b-k|) is convex piecewise linear in k with its minimum at
    # (a+b)/2, so the best integer translate sits next to that midpoint.
    a = p[0] - q[0]
    b = p[1] - q[1]
    mid = (a + b) / 2
    return min(max(abs(a - k), abs(b - k))
               for k in (math.floor(mid), math.ceil(mid)))


def _has_perfect_matching(allowed: List[List[bool]]) -> bool:
    """Kuhn's augmenting-path test, with an explicit stack instead of
    recursion, so a path may be as long as the input."""
    n = len(allowed)
    adj = [[j for j in range(n) if row[j]] for row in allowed]
    match_of: List[Optional[int]] = [None] * n
    for root in range(n):
        seen = [False] * n
        # path[k] is (row, index of its next column to try); cols[k] is the
        # column row path[k] took to reach path[k + 1]
        path = [[root, 0]]
        cols: List[int] = []
        while path:
            top = path[-1]
            i, t = top
            while t < len(adj[i]) and seen[adj[i][t]]:
                t += 1
            if t == len(adj[i]):
                path.pop()
                if cols:
                    cols.pop()
                continue
            j = adj[i][t]
            top[1] = t + 1
            seen[j] = True
            cols.append(j)
            if match_of[j] is None:
                for (row, _), col in zip(path, cols):
                    match_of[col] = row
                break
            path.append([match_of[j], 0])
        else:
            return False
    return True


def matching_distance(c1: Configuration, c2: Configuration) -> Fraction:
    """Exact bottleneck distance: the minimum over bijections of the largest
    single point move.

    The optimum is always one of the pairwise ground distances, so a
    threshold search over those values with a bipartite matching test per
    threshold computes it exactly.
    """
    if c1.circular != c2.circular:
        raise ValueError("cannot compare plane and cylinder configurations")
    if len(c1.points) != len(c2.points):
        raise CardinalityMismatch(
            f"{len(c1.points)} points versus {len(c2.points)}")
    n = len(c1.points)
    if n == 0:
        return Fraction(0)
    metric = _cylinder_metric if c1.circular else _plane_metric
    dist = [[metric(p, q) for q in c2.points] for p in c1.points]
    levels = sorted({d for row in dist for d in row})
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        feasible = [[d <= levels[mid] for d in row] for row in dist]
        if _has_perfect_matching(feasible):
            hi = mid
        else:
            lo = mid + 1
    return levels[lo]


def _decimal(x: Fraction) -> Optional[str]:
    """x to 12 significant digits, or None when it has no finite float image."""
    try:
        return format(to_float(x), ".12g")
    except BeyondFloatRange:
        return None


def stability_experiment(table: SimplexTable, mapping, r: int, schedule,
                         trials: int, seed: int, field: Field = QQ) -> dict:
    """Measure configuration drift under vertex perturbations.

    For every size in the schedule, `trials` perturbed copies of the map
    are drawn (trial seeds derived from `seed` by a counter), the degree r
    configuration is recomputed, and its bottleneck distance to the base
    configuration is recorded.  A trial whose Jordan cells differ from the
    base map's counts as a violation.  Returns a JSON-ready report with
    exact epsilons and distances, and decimal distances that are null when
    a distance is beyond float range.
    """
    schedule = [Fraction(eps) for eps in schedule]
    if trials < 1:
        raise ExperimentError("need at least one trial")
    if r < 0:
        raise ExperimentError(f"degree {r} is negative")
    for eps in schedule:
        if eps < 0:
            raise ExperimentError(f"epsilon {eps} is negative")
    base = compute_invariants(table, mapping, field)
    base_config = configuration(base, r)
    results = []
    counter = 0
    for eps in schedule:
        dists: List[Fraction] = []
        violations = 0
        for _ in range(trials):
            counter += 1
            shaken = perturb(mapping, eps, (seed << 32) + counter)
            bundle = compute_invariants(table, shaken, field)
            dists.append(matching_distance(base_config, configuration(bundle, r)))
            if bundle.cells != base.cells:
                violations += 1
        results.append({
            "epsilon": str(eps),
            "max_distance": _decimal(max(dists)),
            "max_distance_exact": str(max(dists)),
            "mean_distance": _decimal(sum(dists) / trials),
            "jordan_violations": violations,
        })
    return {
        "degree": r,
        "cardinality": len(base_config.points),
        "trials": trials,
        "seed": seed,
        "schedule": [str(eps) for eps in schedule],
        "results": results,
    }
