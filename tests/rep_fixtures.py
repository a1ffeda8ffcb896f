"""Shared builders for representation tests: planted sums and conjugations."""

import random

from tamebars.canonical import Cell
from tamebars.field import GF2, QQ, PrimeField
from tamebars.matrix import Mat
from tamebars.quiver import (
    Bar,
    bar_from_support,
    direct_sum,
    summand_module,
    zero_circle,
    zero_zigzag,
)

GF5 = PrimeField(5)


def rand_invertible(field, n, rng):
    if n == 0:
        return Mat.identity(field, 0)
    while True:
        M = Mat.from_int_rows(
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


def random_bar_z(lo, hi, rng):
    a = rng.randrange(lo, hi + 1)
    b = rng.randrange(a, hi + 1)
    return bar_from_support(a, b)


def random_bar_g(m, rng):
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


def planted_zigzag(field, lo, hi, n_bars, rng):
    bars = [random_bar_z(lo, hi, rng) for _ in range(n_bars)]
    shell = zero_zigzag(field, lo, hi)
    mods = [summand_module(field, b, shell) for b in bars]
    return bars, conjugated(direct_sum(mods), rng)


def planted_circle(field, m, n_bars, n_cells, rng):
    summands = [random_bar_g(m, rng) for _ in range(n_bars)]
    summands += [random_cell(field, rng) for _ in range(n_cells)]
    shell = zero_circle(field, m)
    mods = [summand_module(field, s, shell) for s in summands]
    return summands, conjugated(direct_sum(mods), rng)
