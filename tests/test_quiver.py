"""Decomposition of representations of the cyclic shape, line windows
placed on it included.

Fixed examples are worked out by hand (kernel chases on two- and
three-dimensional spaces); randomized cases plant a known direct sum behind
random base changes and rely on uniqueness of the summand multiset.
"""

import random

import pytest

from tamebars.canonical import Cell, jordan_block
from tamebars.field import GF2, QQ
from tamebars import quiver
from tamebars.matrix import Mat
from tamebars.quiver import (
    Bar,
    Certificate,
    CircleRep,
    DecompositionError,
    RepresentationError,
    bar_from_support,
    cell_module,
    decompose_circle,
    decompose_zigzag,
    line_rep,
    rep_from_lists,
    summand_module,
    verify_certificate,
)

from oracles import from_int_rows, scale
from rep_fixtures import (
    GF5,
    conjugated,
    hom_dim,
    interval_module,
    interval_module_circle,
    jordan_module,
    line_shell,
    placed,
    planted_circle,
    planted_zigzag,
    zero_circle,
)


def _q(*ints):
    from fractions import Fraction

    return [Fraction(v) for v in ints]


# -- bars and canonical modules -------------------------------------------------


def test_bar_support_round_trip():
    # supports of a line window, placed between a zero x_1 and a zero x_2m
    s, m = -6, 11
    for a in range(-3, 8):
        for b in range(a, a + 9):
            bar = bar_from_support(a - s, b - s, m)
            assert bar.wraps == 0
            assert bar.support(m) == (a - s, b - s)


def test_bar_support_round_trip_cyclic():
    m = 2
    for a in range(1, 2 * m + 1):
        for b in range(a, a + 4 * m + 1):
            bar = bar_from_support(a, b, m)
            assert 1 <= bar.i <= m and 1 <= bar.j <= m and bar.wraps >= 0
            aa, bb = bar.support(m)
            # support is recovered up to a whole number of turns
            assert (bb - aa) == (b - a) and (aa - a) % (2 * m) == 0


def test_bar_validity_labels():
    assert Bar(1, 2, True, True).label() == "[1, 2]"
    assert Bar(1, 2, False, True).label() == "(1, 2]"
    assert Bar(1, 1, True, True, wraps=1).label() == "[1, 1+1m]"


def test_interval_module_z_shapes():
    # open-open bar on positions 3..3 inside window 2..4, which stays where
    # it is, after a zero x_1
    rep, s = interval_module(QQ, Bar(1, 2, False, False), 2, 4)
    assert s == 0
    assert rep.dims == {1: 0, 2: 0, 3: 1, 4: 0}
    assert rep.maps[(3, +1)].nrows == 0 and rep.maps[(3, +1)].ncols == 1


def test_interval_module_circle_spiral_example():
    # one full wrap starting and ending at the first even vertex, m = 1:
    # the even space is two-dimensional, alpha hits the newer crossing and
    # beta the older one
    bar = Bar(1, 1, True, True, wraps=1)
    rep = interval_module_circle(QQ, bar, 1)
    assert rep.dims == {1: 1, 2: 2}
    assert rep.alpha(1) == from_int_rows(QQ, [[1], [0]])
    assert rep.beta(1) == from_int_rows(QQ, [[0], [1]])


def test_jordan_module_matches_equation():
    for lam in (1, 2, -1):
        for k in (1, 2, 3):
            for m in (1, 2):
                rep = jordan_module(QQ, QQ.from_int(lam), k, m)
                assert rep.alpha(1) == jordan_block(QQ, QQ.from_int(lam), k)
                for i in range(2, m + 1):
                    assert rep.alpha(i) == Mat.identity(QQ, k)
                for i in range(1, m + 1):
                    assert rep.beta(i) == Mat.identity(QQ, k)


# -- fixed decompositions --------------------------------------------------------


def test_decompose_two_surjections():
    # kappa <- kappa^2 -> kappa with both maps (1 1): one long closed bar
    # plus one open singleton in the middle
    rep, s = line_rep(
        QQ,
        2,
        4,
        {2: 1, 3: 2, 4: 1},
        {
            (3, +1): from_int_rows(QQ, [[1, 1]]),
            (3, -1): from_int_rows(QQ, [[1, 1]]),
        },
    )
    bars, cert = decompose_zigzag(rep)
    assert s == 0
    assert sorted(b.label() for b in bars) == ["(1, 2)", "[1, 2]"]
    assert verify_certificate(rep, bars, cert)


def test_decompose_single_closed_bar():
    rep, s = interval_module(QQ, Bar(1, 2, True, True), 1, 5)
    bars, cert = decompose_zigzag(rep)
    assert bars == [placed(Bar(1, 2, True, True), s)]
    assert verify_certificate(rep, bars, cert)


def _spy_walks(monkeypatch):
    """Record the arguments (state, position, side, S0, R0) of every walk."""
    walks = []
    walk = quiver._walk_chain

    def spied(st, src, d, S0, R0):
        walks.append((st, src, d, S0, R0))
        return walk(st, src, d, S0, R0)

    monkeypatch.setattr(quiver, "_walk_chain", spied)
    return walks


def test_a_closed_bar_starts_at_a_cokernel(monkeypatch):
    # a bar closed at both ends leaves no kernel: its walk starts at the even
    # sink x_{2-s} it begins at, with the image of the arrow into it from the
    # left, the zero space at x_{1-s}, as riders
    rep, s = interval_module(QQ, Bar(1, 2, True, True), 1, 5)
    walks = _spy_walks(monkeypatch)
    decompose_zigzag(rep)
    assert len(walks) == 1
    st, pos, d, S0, R0 = walks[0]
    assert (pos, d) == (2 - s, -1)
    assert S0 == Mat.identity(QQ, 1)
    assert R0 == rep.arrow_at(pos + d, -d)


def test_decompose_zigzag_needs_a_zero_x1():
    # a Jordan cell has no zero vertex, so it is no line cut open at x_1;
    # its cell must not come back among the bars
    with pytest.raises(DecompositionError, match="zero x_1"):
        decompose_zigzag(jordan_module(QQ, QQ.from_int(2), 2))


def test_decompose_circle_one_wrap():
    rep = interval_module_circle(QQ, Bar(1, 1, True, True, wraps=1), 1)
    bars, cells, cert = decompose_circle(rep)
    assert bars == [Bar(1, 1, True, True, wraps=1)]
    assert cells == []


def test_decompose_jordan_modules():
    for lam in (1, 2, -1):
        for k in (1, 2, 3):
            rep = jordan_module(QQ, QQ.from_int(lam), k, m=2)
            bars, cells, cert = decompose_circle(rep)
            assert bars == []
            assert cells == [Cell(poly=(QQ.from_int(-lam), QQ.from_int(1)), size=k)]


def test_nilpotent_alpha_is_a_winding_bar():
    # lambda = 0 is not a monodromy eigenvalue: the module with
    # alpha = T(0, 2), beta = id is the bar winding twice, open on the right
    rep = jordan_module(QQ, QQ.from_int(0), 2, m=1)
    bars, cells, cert = decompose_circle(rep)
    assert cells == []
    assert bars == [Bar(1, 1, True, False, wraps=2)]


@pytest.mark.parametrize("alphas, betas", [
    ([Mat.zeros(QQ, 1, 1)], [Mat.identity(QQ, 1)]),
    ([Mat.identity(QQ, 1)], [Mat.zeros(QQ, 1, 1)]),
    ([Mat.identity(QQ, 1), Mat.identity(QQ, 2)], [Mat.zeros(QQ, 1, 2), Mat.zeros(QQ, 2, 1)]),
    ([Mat.zeros(QQ, 1, 0)], [Mat.zeros(QQ, 1, 0)]),
], ids=["singular-alpha", "singular-beta", "non-square-beta", "zero-vertex"])
def test_residue_with_a_non_isomorphism_is_an_error(alphas, betas):
    # the residue left by the peel has isomorphisms only; a singular alpha
    # must not become an eigenvalue-0 cell, and a nonzero residue with a
    # zero vertex, a line cut open there, is no residue of a peel
    st = quiver._State(rep_from_lists(QQ, alphas, betas))
    with pytest.raises(DecompositionError, match="residual arrows must be isomorphisms"):
        quiver._residual_cells(st)


def test_decompose_zero_rep():
    bars, cert = decompose_zigzag(line_shell(QQ, 1, 5)[0])
    assert bars == []
    bars, cells, cert = decompose_circle(zero_circle(QQ, 2))
    assert bars == [] and cells == []


def test_monodromy_conjugation_invariance():
    rng = random.Random(5)
    rep = jordan_module(GF5, GF5.from_int(3), 2, m=2)
    twisted = conjugated(rep, rng)
    bars, cells, cert = decompose_circle(twisted)
    assert bars == []
    assert cells == [Cell(poly=(GF5.from_int(-3), 1), size=2)]


def test_companion_cell_round_trip():
    # irreducible quadratic monodromy factor over Q
    cell = Cell(poly=(QQ.from_int(1), QQ.from_int(0), QQ.from_int(1)), size=1)
    rep = cell_module(QQ, cell, 2)
    bars, cells, cert = decompose_circle(rep)
    assert bars == [] and cells == [cell]


# -- certificates ----------------------------------------------------------------


def test_certificate_accepts_rescaled_bases():
    rep, _ = interval_module(QQ, Bar(1, 2, True, True), 1, 5)
    bars, cert = decompose_zigzag(rep)
    scaled = Certificate(
        base_changes={x: scale(P, QQ.from_int(2)) for x, P in cert.base_changes.items()}
    )
    assert verify_certificate(rep, bars, scaled)


def test_certificate_rejects_wrong_summands():
    rep, s = interval_module(QQ, Bar(1, 2, True, True), 1, 5)
    bars, cert = decompose_zigzag(rep)
    wrong = [placed(Bar(1, 2, False, True), s)]
    assert not verify_certificate(rep, wrong, cert)


def test_certificate_rejects_singular_base_change():
    # window vertex 2 is x_{2-s}
    rep, s = interval_module(QQ, Bar(1, 2, True, True), 1, 5)
    bars, cert = decompose_zigzag(rep)
    bad = dict(cert.base_changes)
    bad[2 - s] = Mat.zeros(QQ, 1, 1)
    assert not verify_certificate(rep, bars, Certificate(base_changes=bad))


@pytest.mark.parametrize("spoil", [
    lambda bad, x: bad.update({x: scale(bad[x], QQ.from_int(2))}),  # invertible, conjugates nothing
    lambda bad, x: bad.pop(x),
    lambda bad, x: bad.update({x: Mat.identity(QQ, 2)}),
], ids=["not-conjugating", "missing", "misshaped"])
def test_certificate_rejects_a_bad_base_change(spoil):
    rep, s = interval_module(QQ, Bar(1, 2, True, True), 1, 5)
    bars, cert = decompose_zigzag(rep)
    bad = dict(cert.base_changes)
    spoil(bad, 2 - s)  # at window vertex 2
    assert not verify_certificate(rep, bars, Certificate(base_changes=bad))


# -- hom spaces -------------------------------------------------------------------


def test_hom_dims_between_intervals():
    shell, s = line_shell(QQ, 1, 5)
    long = summand_module(QQ, placed(Bar(1, 2, True, True), s), shell)
    short = summand_module(QQ, placed(Bar(1, 2, False, False), s), shell)
    assert hom_dim(long, long) == 1
    assert hom_dim(short, short) == 1
    # the long bar surjects onto the middle open one, not conversely
    assert hom_dim(long, short) == 1
    assert hom_dim(short, long) == 0


def test_hom_dims_between_jordan_cells():
    a = jordan_module(QQ, QQ.from_int(2), 2)
    b = jordan_module(QQ, QQ.from_int(2), 3)
    c = jordan_module(QQ, QQ.from_int(1), 2)
    assert hom_dim(a, a) == 2
    assert hom_dim(a, b) == 2
    assert hom_dim(b, a) == 2
    assert hom_dim(a, c) == 0


def test_rep_validation_errors():
    with pytest.raises(RepresentationError):
        line_rep(QQ, 2, 4, {2: 1, 3: 1, 4: 1}, {})
    with pytest.raises(RepresentationError):
        CircleRep(QQ, 1, {1: 1, 2: 1}, {(1, +1): Mat.zeros(QQ, 2, 1), (1, -1): Mat.zeros(QQ, 1, 1)})


# -- randomized planted sums ------------------------------------------------------


def _planted_zigzag_cases(field):
    rng = random.Random(101)
    cases = []
    for _ in range(12):
        lo = rng.choice([1, 2])
        hi = lo + rng.randrange(2, 6)
        cases.append(planted_zigzag(field, lo, hi, rng.randrange(1, 5), rng))
    # closed bars only, whose walks start at a cokernel, on windows with odd,
    # even and negative lo
    for lo in (-3, -2, 1, 2):
        hi = lo + rng.randrange(2, 6)
        cases.append(planted_zigzag(field, lo, hi, rng.randrange(1, 5), rng, closed=True))
    return cases


def _planted_circle_cases(field):
    """(cases, closed): planted sums, and sums whose bars are all closed."""
    rng = random.Random(202)
    cases = []
    for _ in range(10):
        m = rng.choice([1, 1, 2, 3])
        n_bars = rng.randrange(0, 4)
        n_cells = rng.randrange(0 if n_bars else 1, 3)
        cases.append(planted_circle(field, m, n_bars, n_cells, rng))
    # closed bars only, alone and together with cells
    closed = [planted_circle(field, m, rng.randrange(1, 4), n_cells, rng, closed=True)
              for m, n_cells in ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))]
    return cases, closed


def _check_planted_zigzag(planted, rep):
    bars, cert = decompose_zigzag(rep)
    assert sorted(b.sort_key() for b in bars) == sorted(b.sort_key() for b in planted)
    assert verify_certificate(rep, bars, cert)


def _check_planted_circle(planted, rep):
    bars, cells, cert = decompose_circle(rep)
    got = sorted(
        [("b",) + b.sort_key() for b in bars] + [("c", c.poly, c.size) for c in cells]
    )
    want = sorted(
        ("b",) + s.sort_key() if isinstance(s, Bar) else ("c", s.poly, s.size)
        for s in planted
    )
    assert got == want
    assert verify_certificate(rep, bars + cells, cert)


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_planted_zigzag_sums(field):
    for planted, rep in _planted_zigzag_cases(field):
        _check_planted_zigzag(planted, rep)


@pytest.mark.parametrize("field", [QQ, GF2, GF5])
def test_planted_circle_sums(field):
    cases, closed = _planted_circle_cases(field)
    assert any(s.wraps for planted, _ in closed for s in planted if isinstance(s, Bar))
    for planted, rep in cases + closed:
        _check_planted_circle(planted, rep)


def _spy_arrow_kernels(monkeypatch):
    """Count, per arrow slot, the kernels taken of the current arrow matrices
    outside of walks, which is where a peel looks for bar ends; also record
    the walks."""
    states, kernels, in_walk = [], {}, []
    walks = _spy_walks(monkeypatch)
    walk, kernel = quiver._walk_chain, Mat.kernel_basis

    class Spied(quiver._State):
        def __init__(self, rep):
            super().__init__(rep)
            states.append(self)

    def walked(*args):
        in_walk.append(True)
        try:
            return walk(*args)
        finally:
            in_walk.pop()

    def counted(M):
        if states and not in_walk:
            for slot, A in states[-1].rep.maps.items():
                if A is M:
                    kernels[slot] = kernels.get(slot, 0) + 1
        return kernel(M)

    monkeypatch.setattr(quiver, "_State", Spied)
    monkeypatch.setattr(quiver, "_walk_chain", walked)
    monkeypatch.setattr(Mat, "kernel_basis", counted)
    return kernels, walks


def test_peel_start_found_nowhere_on_jordan_cells(monkeypatch):
    # every arrow of a sum of Jordan cells is square and invertible: no walk
    # starts, and the kernel of each of the 2m arrows out of odd sources is
    # taken once
    kernels, walks = _spy_arrow_kernels(monkeypatch)
    rng = random.Random(404)
    for field in (QQ, GF2, GF5):
        for m in (1, 2, 3):
            planted, rep = planted_circle(field, m, 0, 2, rng)
            kernels.clear()
            _check_planted_circle(planted, rep)
            assert walks == []
            assert kernels == {slot: 1 for slot in rep.slots}


def test_a_peel_takes_each_kernel_once_per_bar_start(monkeypatch):
    # a split keeps an injective arrow injective, so the peel looks at an
    # arrow out of an odd source once more than the bars that start there
    kernels, walks = _spy_arrow_kernels(monkeypatch)
    cases = [(_check_planted_zigzag, case) for case in _planted_zigzag_cases(GF5)]
    circle, closed = _planted_circle_cases(GF5)
    cases += [(_check_planted_circle, case) for case in circle + closed]
    n_walks = 0
    for check, (planted, rep) in cases:
        kernels.clear()
        walks.clear()
        check(planted, rep)
        starts = {}
        for st, src, d, _, _ in walks:
            if src % 2:
                slot = (st.rep.vertex_of(src), d)
                starts[slot] = starts.get(slot, 0) + 1
        assert all(n <= starts.get(slot, 0) + 1 for slot, n in kernels.items())
        n_walks += len(walks)
    assert n_walks > len(cases)


def test_a_split_keeps_the_arrows_off_its_bar(monkeypatch):
    # restricting to the complement of a bar changes the space only where
    # the bar crosses, and leaves every arrow with no end there as it was
    restrict = quiver._State.restrict
    kept = []

    def spied(st, comp):
        dims, maps = dict(st.rep.dims), dict(st.rep.maps)
        restrict(st, comp)
        on_bar = {x for x in dims if st.rep.dims[x] < dims[x]}
        for (o, d), t in st.rep.slots.items():
            if o not in on_bar and t not in on_bar:
                assert st.rep.maps[(o, d)] is maps[(o, d)]
                kept.append((o, d))

    monkeypatch.setattr(quiver._State, "restrict", spied)
    for planted, rep in _planted_zigzag_cases(QQ):
        _check_planted_zigzag(planted, rep)
    assert kept


def test_decompose_is_deterministic():
    rng = random.Random(77)
    planted, rep = planted_circle(QQ, 2, 2, 1, rng)
    out1 = decompose_circle(rep)
    out2 = decompose_circle(rep)
    assert out1[0] == out2[0] and out1[1] == out2[1]
    assert all(out1[2].base_changes[x] == out2[2].base_changes[x] for x in rep.dims)


def test_hom_additivity_against_decomposition():
    rng = random.Random(303)
    planted, rep = planted_circle(QQ, 2, 2, 1, rng)
    shell = zero_circle(QQ, 2)
    mods = [summand_module(QQ, s, shell) for s in planted]
    total = sum(hom_dim(a, b) for a in mods for b in mods)
    assert hom_dim(rep, rep) == total
