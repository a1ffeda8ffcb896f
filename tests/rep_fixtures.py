"""Shared builders for representation tests: canonical summand modules,
direct sums, morphism-space dimensions, planted sums and conjugations.

Line windows lo..hi are placed on the cyclic shape by `line_rep`, which
moves window position p to p - s; `placed` moves a window bar the same way.
"""

from dataclasses import replace

from tamebars.canonical import Cell, jordan_block
from tamebars.field import QQ, PrimeField
from tamebars.matrix import Mat, block_diag
from tamebars.quiver import (
    CircleRep,
    RepresentationError,
    bar_from_support,
    line_rep,
    line_slots,
    rep_from_lists,
    summand_module,
)

from oracles import from_int_rows

GF5 = PrimeField(5)


def zero_circle(field, m):
    """The zero representation on the cyclic shape G_2m."""
    return CircleRep(field, m, {}, None)


def line_shell(field, lo, hi):
    """The zero representation of the window lo..hi, placed on the cyclic
    shape, and the shift s of the placement."""
    zeros = {slot: Mat.zeros(field, 0, 0) for slot in line_slots(lo, hi)}
    return line_rep(field, lo, hi, {}, zeros)


def placed(bar, s):
    """A bar of a window placed with shift s, as a bar of the cyclic shape."""
    return replace(bar, i=bar.i - s // 2, j=bar.j - s // 2)


def interval_module(field, bar, lo, hi):
    """The interval summand of a bar of the window lo..hi, placed on the
    cyclic shape, and the shift s of the placement."""
    shell, s = line_shell(field, lo, hi)
    return summand_module(field, placed(bar, s), shell), s


def interval_module_circle(field, bar, m):
    """The winding interval summand on the cyclic shape G_2m."""
    return summand_module(field, bar, zero_circle(field, m))


def jordan_module(field, lam, k, m=1):
    """The Jordan cell summand: kappa^k everywhere, alpha_1 = T(lam, k)."""
    if k < 1:
        raise ValueError("Jordan cell size must be positive")
    eye = Mat.identity(field, k)
    return rep_from_lists(field, [jordan_block(field, lam, k)] + [eye] * (m - 1), [eye] * m)


def same_shape(rep1, rep2):
    return rep1.dims.keys() == rep2.dims.keys()


def direct_sum(reps):
    """Vertex-wise direct sum; summand blocks appear in the given order."""
    if not reps:
        raise ValueError("empty direct sum")
    first = reps[0]
    if not all(same_shape(first, r) for r in reps):
        raise RepresentationError("direct sum shape mismatch")
    dims = {x: sum(r.dims[x] for r in reps) for x in first.dims}
    maps = {key: block_diag(first.field, [r.maps[key] for r in reps]) for key in first.slots}
    return first.like(dims, maps)


def hom_dim(rep1, rep2):
    """Dimension of the space of morphisms rep1 -> rep2 (same shape).

    The unknown X_x is a matrix of shape dims2[x] x dims1[x], its entries
    row-major and the vertices ascending; every arrow s -> t, with matrix A
    in rep1 and B in rep2, gives the rows of X_t A - B X_s = 0.
    """
    if not same_shape(rep1, rep2):
        raise RepresentationError("hom between different shapes")
    field = rep1.field
    offs, total = {}, 0
    for x in sorted(rep1.dims):
        offs[x] = total
        total += rep2.dims[x] * rep1.dims[x]
    rows = []
    for (o, d), t in rep1.slots.items():
        A, B = rep1.maps[(o, d)], rep2.maps[(o, d)]
        nt, ns = rep1.dims[t], rep1.dims[o]
        for i in range(rep2.dims[t]):
            for j in range(ns):
                # entry (i, j): sum_k X_t[i][k] A[k][j] - sum_k B[i][k] X_s[k][j]
                row = [field.zero] * total
                for k in range(nt):
                    row[offs[t] + i * nt + k] = A.rows[k][j]
                for k, v in enumerate(B.rows[i]):
                    row[offs[o] + k * ns + j] = field.neg(v)
                rows.append(row)
    return total - Mat(field, rows, total).rank()


def rand_invertible(field, n, rng):
    if n == 0:
        return Mat.identity(field, 0)
    while True:
        M = from_int_rows(
            field, [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        )
        if M.is_invertible():
            return M


def conjugated(rep, rng):
    """Same isomorphism class, scrambled by random base changes."""
    R = {x: rand_invertible(rep.field, d, rng) for x, d in rep.dims.items()}
    maps = {(o, d): R[t].mul(rep.maps[(o, d)]).mul(R[o].inverse())
            for (o, d), t in rep.slots.items()}
    return rep.like(rep.dims, maps)


def random_support_z(lo, hi, rng, closed=False):
    """The support a..b of a random bar in the window lo..hi."""
    if closed:  # both ends on even vertices
        a = 2 * rng.randrange((lo + 1) // 2, hi // 2 + 1)
        return a, 2 * rng.randrange(a // 2, hi // 2 + 1)
    a = rng.randrange(lo, hi + 1)
    return a, rng.randrange(a, hi + 1)


def random_bar_g(m, rng, closed=False):
    if closed:  # both ends on even vertices, winding up to twice
        a = 2 * rng.randrange(1, m + 1)
        return bar_from_support(a, a + 2 * rng.randrange(0, 2 * m + 1), m)
    a = rng.randrange(1, 2 * m + 1)
    b = a + rng.randrange(0, 4 * m + 1)
    return bar_from_support(a, b, m)


def irreducible_quadratic(field):
    if field is QQ:
        from fractions import Fraction

        return (Fraction(1), Fraction(0), Fraction(1))  # t^2 + 1
    if field.p == 2:
        return (1, 1, 1)  # t^2 + t + 1
    if field.p == 5:
        return (2, 0, 1)  # t^2 + 2
    raise ValueError("no table entry")


def random_cell(field, rng):
    if rng.random() < 0.25:
        return Cell(poly=irreducible_quadratic(field), size=rng.choice([1, 2]))
    units = [1, 2, -1] if field is QQ else list(range(1, field.p))
    lam = field.from_int(rng.choice(units))
    k = rng.choice([1, 1, 2, 3])
    one = field.one
    return Cell(poly=(field.neg(lam), one), size=k)


def planted_zigzag(field, lo, hi, n_bars, rng, closed=False):
    """Random bars of the window lo..hi and their scrambled sum, both placed
    on the cyclic shape."""
    supports = [random_support_z(lo, hi, rng, closed) for _ in range(n_bars)]
    shell, s = line_shell(field, lo, hi)
    bars = [bar_from_support(a - s, b - s, shell.m) for a, b in supports]
    mods = [summand_module(field, b, shell) for b in bars]
    return bars, conjugated(direct_sum(mods), rng)


def planted_circle(field, m, n_bars, n_cells, rng, closed=False):
    summands = [random_bar_g(m, rng, closed) for _ in range(n_bars)]
    summands += [random_cell(field, rng) for _ in range(n_cells)]
    shell = zero_circle(field, m)
    mods = [summand_module(field, s, shell) for s in summands]
    return summands, conjugated(direct_sum(mods), rng)
