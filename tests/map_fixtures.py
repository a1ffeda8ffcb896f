"""Random tame maps for property tests.

Real maps draw vertex values from a small pool so several vertices share
levels.  Circle maps get their windings from an integer vertex potential,
which is always a consistent cocycle and winds zero times; a nonzero degree
is added by wedging on a polygon whose closing edge carries the full wind.
Polygon edges never bound a 2-simplex, so their windings are unconstrained.
"""

import random
from fractions import Fraction as F

from tamebars.complexes import CircleMap, RealMap, SimplexTable, validate_circle_map
from tamebars.field import GF2, QQ


def random_table(rng: random.Random, nv=(4, 8), ntops=(3, 8), max_card=4) -> SimplexTable:
    n = rng.randrange(*nv)
    tops = {(v,) for v in range(n)}
    for _ in range(rng.randrange(*ntops)):
        card = min(rng.randrange(2, max_card + 1), n)
        tops.add(tuple(sorted(rng.sample(range(n), card))))
    return SimplexTable(list(range(n)), sorted(tops, key=lambda s: (len(s), s)))


def random_real_map(rng: random.Random, table: SimplexTable, pool=None) -> RealMap:
    if pool is None:
        pool = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(3)]
    return RealMap([rng.choice(pool) for _ in table.vertices])


def random_real_input(rng: random.Random, **kw):
    table = random_table(rng, **kw)
    return table, random_real_map(rng, table)


def _add_winding(windings, u, v, w):
    # Directed winding u -> v folded into the ordered-key convention.
    if w == 0:
        return
    if u < v:
        windings[(u, v)] = windings.get((u, v), 0) + w
    else:
        windings[(v, u)] = windings.get((v, u), 0) - w


def random_circle_input(rng: random.Random, degree=None, table_kw=None):
    base = random_table(rng, **(table_kw or {}))
    n0 = len(base.vertices)
    if degree is None:
        degree = rng.choice([0, 0, 0, 1, 1, -1, 2])
    tops = set(base.simplices)
    pool = [F(i, 12) for i in range(12)]
    angles = [rng.choice(pool) for _ in range(n0)]
    potential = [rng.randrange(-1, 2) for _ in range(n0)]

    ring = []
    if degree != 0:
        length = rng.randrange(3, 6)
        ring = [rng.randrange(n0)] + list(range(n0, n0 + length - 1))
        angles += [rng.choice(pool) for _ in range(length - 1)]
        potential += [potential[ring[0]]] * (length - 1)
        for i in range(length):
            u, v = ring[i], ring[(i + 1) % length]
            tops.add((min(u, v), max(u, v)))

    table = SimplexTable(list(range(len(angles))),
                         sorted(tops, key=lambda s: (len(s), s)))
    windings = {}
    for u, v in table.edges():
        _add_winding(windings, u, v, potential[v] - potential[u])
    if ring:
        _add_winding(windings, ring[-1], ring[0], degree)
    return table, CircleMap(angles, windings)


def identity_corpus_inputs():
    """The 104 inputs of the acceptance identity corpus, as (table, map,
    field): 26 real and 26 circle maps over each of Q and GF(2)."""
    rng = random.Random(20260814)
    corpus = []
    for field in (QQ, GF2):
        for kind in ("real", "circle"):
            for _ in range(26):
                if kind == "real":
                    table, mapping = random_real_input(rng)
                else:
                    table, mapping = random_circle_input(rng)
                    validate_circle_map(table, mapping)
                corpus.append((table, mapping, field))
    return corpus
