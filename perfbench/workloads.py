"""Seeded input generators for the benchmark workloads.

Every generator is pure Python and imports nothing from the package under
test, so the program only ever sees the JSON documents written here.  The
same (workload, seed) pair always yields byte-identical documents.

Each workload has a few inputs.  Input i starts from a base instance fixed
by i alone, so the inputs of one run differ in shape.  The seed then moves
that instance in ways that keep its combinatorial size: it applies a
symmetry, renames and reorders the vertices, and replaces the values by
others in the same order (maps), or picks other eigenvalues with the same
coincidences and other base changes (representations).  The outputs change
with the seed, but the work of a pass stays close to constant, so the
spread between seeds is mostly the host's.  Seed 0 keeps every base
instance unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

P31 = 2147483647  # 2**31 - 1, the largest prime the program accepts


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the subcommand and its flags.  BENCHMARK.json
    says why each workload was chosen."""

    name: str
    command: str          # "compute" or "decompose"
    flags: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    Workload("grid-fp", "compute"),
    Workload("grid-q", "compute"),
    Workload("torus-check-q", "compute", ("--check",)),
    Workload("planted-cells-q", "decompose"),
]}

N_INPUTS = 2        # documents per workload and seed
GRID_K = 4          # k-by-k squares, two triangles each
TORUS_K = 4         # k-by-k torus
TORUS_TURN = 24     # torus angles are multiples of 1/TORUS_TURN
TORUS_LEVELS = 9    # distinct angles per torus input
PLANTED_M = 2       # cyclic shape with 2m vertices

# Cells of a planted input as (degree of the irreducible, block size, slot).
# Cells sharing a slot share their polynomial; the seed fills the slots.
PLANTED_SHAPE = [(1, 1, 0), (1, 2, 0), (1, 1, 1), (1, 3, 2), (2, 1, 0), (2, 2, 1)]
EIGENVALUES = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3),
               Fraction(-2, 3)]
QUADRATICS = [  # monic irreducible over Q, ascending coefficients
    (Fraction(1), Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(1), Fraction(1)),
    (Fraction(-2), Fraction(0), Fraction(1)),
    (Fraction(2), Fraction(0), Fraction(1)),
]


def _rng(*key) -> random.Random:
    return random.Random("/".join(map(str, key)))


def _map_document(field, target, ids, values, tris, windings=None) -> dict:
    """A map document listing vertices in the given order; simplices list
    their vertices in that order too, as the loader expects."""
    pos = {v: p for p, v in enumerate(ids)}
    doc = {
        "field": field,
        "target": target,
        "vertices": [{"id": f"v{v}", "value": values[v]} for v in ids],
        "simplices": sorted([[f"v{v}" for v in sorted(t, key=pos.get)] for t in tris],
                            key=lambda s: [pos[int(x[1:])] for x in s]),
    }
    if windings is not None:
        doc["windings"] = windings
    return doc


def _revalue(values: List[Fraction], rng: random.Random, span: int, den: int):
    """Replace the distinct values by random multiples of 1/den, keeping
    their order, so ties and the level structure survive."""
    distinct = sorted(set(values))
    new = sorted(Fraction(x, den) for x in rng.sample(range(span), len(distinct)))
    to_new = dict(zip(distinct, new))
    return [to_new[x] for x in values]


# -- maps on complexes ---------------------------------------------------------


def grid_document(k: int, seed: int, index: int, field) -> dict:
    """A k-by-k square split into two triangles per cell, with a real map.

    Base instance 0 gives vertex v (row-major) the value
    ((7 v^2 + 3 v) mod 101) / 7; base instance i > 0 shuffles those values.
    The seed applies one of the four symmetries of the square that keep its
    diagonals, re-values in order and reorders the vertices.
    """
    n = k + 1
    base = [Fraction((7 * v * v + 3 * v) % 101, 7) for v in range(n * n)]
    if index:
        _rng("grid-base", index).shuffle(base)
    tris = []
    for i in range(k):
        for j in range(k):
            a, b, c, d = i * n + j, i * n + j + 1, (i + 1) * n + j, (i + 1) * n + j + 1
            tris += [(a, b, d), (a, c, d)]
    ids = list(range(n * n))
    values = base
    if seed:
        rng = _rng("grid", seed, index)
        sym = rng.choice([lambda i, j: (i, j), lambda i, j: (j, i),
                          lambda i, j: (k - i, k - j), lambda i, j: (k - j, k - i)])
        values = [None] * (n * n)
        for i in range(n):
            for j in range(n):
                a, b = sym(i, j)
                values[a * n + b] = base[i * n + j]
        values = _revalue(values, rng, 15 * n * n, 7)
        rng.shuffle(ids)
    return _map_document(field, "R", ids, [str(x) for x in values], tris)


def torus_document(k: int, seed: int, index: int) -> dict:
    """A k-by-k torus mapped to the circle with degree one along the first
    coordinate.

    Base instance i draws TORUS_LEVELS distinct multiples of 1/TORUS_TURN
    and spreads them over the vertices.  Vertex (i, j) lifts to its angle
    plus the seed's rotation, and one more turn once i wraps around, so the
    windings are the jumps of that lift; without rotation every edge across
    the seam winds once.  The seed also shifts the second coordinate and
    reorders the vertices.
    """
    base_rng = _rng("torus-base", index)
    levels = base_rng.sample(range(TORUS_TURN), TORUS_LEVELS)
    cells = list(range(k * k))
    base_rng.shuffle(cells)
    slot = {v: levels[p] if p < TORUS_LEVELS else base_rng.choice(levels)
            for p, v in enumerate(cells)}
    ids = list(range(k * k))
    rotate, shift = 0, 0
    if seed:
        rng = _rng("torus", seed, index)
        rotate, shift = rng.randrange(TORUS_TURN), rng.randrange(k)
        rng.shuffle(ids)

    def lift(i, j):  # i may be k: the seam's far side, one turn higher
        v = (i % k) * k + (j + shift) % k
        return v, Fraction(slot[(i % k) * k + j % k] + rotate, TORUS_TURN) + i // k

    angle = {}
    tris = []
    windings = []
    edges = set()
    for i in range(k):
        for j in range(k):
            corners = [lift(i, j), lift(i + 1, j), lift(i + 1, j + 1), lift(i, j + 1)]
            for tri in ((0, 1, 2), (0, 2, 3)):
                pts = [corners[t] for t in tri]
                tris.append(tuple(v for v, _ in pts))
                for (u, lu), (v, lv) in ((pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])):
                    angle[u], angle[v] = lu % 1, lv % 1
                    if (u, v) in edges or (v, u) in edges:
                        continue
                    edges.add((u, v))
                    w = (lv - lv % 1) - (lu - lu % 1)
                    if w:
                        windings.append((u, v, int(w)))
    pos = {v: p for p, v in enumerate(ids)}
    return _map_document(
        "Q", "S1", ids, {v: {"angle": str(a)} for v, a in angle.items()}, tris,
        [{"edge": [f"v{u}", f"v{v}"], "w": w}
         for u, v, w in sorted(windings, key=lambda e: (pos[e[0]], pos[e[1]]))])


# -- planted representations ----------------------------------------------------


Poly = Tuple[Fraction, ...]


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _companion(p: Poly) -> List[List[Fraction]]:
    """Companion matrix of a monic polynomial: its only elementary divisor
    is p itself, so a power of an irreducible gives exactly one cell."""
    d = len(p) - 1
    C = [[Fraction(0)] * d for _ in range(d)]
    for j in range(d - 1):
        C[j + 1][j] = Fraction(1)
    for i in range(d):
        C[i][d - 1] = -p[i]
    return C


def _block_diag(blocks: List[List[List[Fraction]]]) -> List[List[Fraction]]:
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = row
        off += len(b)
    return out


def _matmul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def _unimodular(n: int, rng: random.Random):
    """A random integer matrix of determinant one and its integer inverse,
    built from elementary row additions."""
    R = [[int(i == j) for j in range(n)] for i in range(n)]
    Rinv = [row[:] for row in R]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        R[i] = [x + c * y for x, y in zip(R[i], R[j])]      # R <- E R
        for row in Rinv:                                      # Rinv <- Rinv E^-1
            row[j] -= c * row[i]
    return R, Rinv


def planted_cells(seed: int, index: int):
    """Planted cells and a cyclic representation that is their direct sum,
    conjugated by a random unimodular base change at every vertex.

    Base instance i orders the cells of PLANTED_SHAPE; the seed picks the
    polynomial of every slot and the base changes.  Returns (cells,
    document), cells being a sorted list of (ascending coefficient strings,
    block size) pairs.
    """
    shape = list(PLANTED_SHAPE)
    _rng("planted-base", index).shuffle(shape)
    rng = _rng("planted", seed, index)
    linear = rng.sample(EIGENVALUES, 3) if seed else EIGENVALUES[:3]
    quadratic = rng.sample(QUADRATICS, 2) if seed else QUADRATICS[:2]
    cells = []
    blocks = []
    for degree, size, slot in shape:
        q = (-linear[slot], Fraction(1)) if degree == 1 else quadratic[slot]
        p: Poly = (Fraction(1),)
        for _ in range(size):
            p = _poly_mul(p, q)
        cells.append(([str(c) for c in q], size))
        blocks.append(_companion(p))
    B = _block_diag(blocks)
    n = len(B)
    m = PLANTED_M
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    R = {x: _unimodular(n, rng) for x in range(1, 2 * m + 1)}
    arrows = []
    for o in range(1, 2 * m, 2):
        for d in (1, -1):
            t = (o + d - 1) % (2 * m) + 1
            core = B if (o, d) == (1, 1) else eye
            M = _matmul(_matmul(R[t][0], core), R[o][1])
            arrows.append({"at": o, "dir": d,
                           "matrix": [[str(x) for x in row] for row in M]})
    doc = {
        "field": "Q",
        "shape": "cyclic",
        "m": m,
        "dims": {str(x): n for x in range(1, 2 * m + 1)},
        "arrows": arrows,
    }
    return sorted(cells), doc


# -- per-workload inputs --------------------------------------------------------


def make_inputs(workload: Workload, seed: int):
    """The workload's documents for one seed, each with the cells it must
    decompose into when they are known by construction, else None."""
    out = []
    for index in range(N_INPUTS):
        if workload.name == "grid-fp":
            out.append((grid_document(GRID_K, seed, index, {"Fp": P31}), None))
        elif workload.name == "grid-q":
            out.append((grid_document(GRID_K, seed, index, "Q"), None))
        elif workload.name == "torus-check-q":
            out.append((torus_document(TORUS_K, seed, index), None))
        elif workload.name == "planted-cells-q":
            cells, doc = planted_cells(seed, index)
            out.append((doc, cells))
        else:
            raise KeyError(workload.name)
    return out
