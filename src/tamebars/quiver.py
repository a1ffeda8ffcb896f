"""Graph representations of the cyclic quiver G_2m and their certified
decomposition.

There is one quiver shape.  G_2m has vertices x_1..x_2m on a circle with
arrows pointing from every odd vertex to both even neighbours
(a_i: x_{2i-1} -> x_{2i}, b_i: x_{2i+1} -> x_{2i}) and the closing arrow
b_m: x_1 -> x_2m.  A real-valued map is an angle-valued map that misses a
point of the circle, so its representation is one whose vertex x_1, the
empty regular fiber past both ends of the line, is zero.  A representation
of the linear shape on a window lo..hi is placed the same way by
`line_rep`: it is cut open at a zero x_1.

Indecomposables are bars that may wind around the circle, plus Jordan cells
attached to the monodromy of the fully invertible part; with a zero vertex
only bars that do not wind remain.  `decompose_zigzag` and
`decompose_circle` produce the multiset of summands together with a
certificate: one invertible base change per vertex conjugating the input
matrices to the exact block diagonal of the canonical summand matrices.

The algorithm peels one bar at a time in a single pass over the arrow
slots, starting where a bar ends.  An open end is a kernel vector of an
arrow out of the odd source where the bar dies; a closed end is the part of
an even sink that the arrow into it from beyond the bar does not reach.
Open ends are taken first; splitting a bar off keeps an injective arrow
injective, so a slot without ends is never visited again.  Walking the
start space as far as it survives (images out of odd sources, preimages
back into even sinks, rider subspaces quotiented out) yields a maximal
chain.  It splits off via a retraction written as one functional per bar
position, and the split changes only the arrows with an end on the bar.
What remains has all arrows invertible; its monodromy composite is cut into
primary components, giving the Jordan cells.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .canonical import Cell, cell_sort_key, primary_components
from .complexes import RepresentationError
from .field import Field
from .matrix import Mat, block_diag, image, preimage, side_by_side, stack


class DecompositionError(RuntimeError):
    """Internal invariant broke during decomposition; indicates a bug."""


# -- bars ---------------------------------------------------------------------


class Bar(NamedTuple):
    """An interval summand.

    Ends are indices of critical values: the bar spans from the i-th to the
    j-th critical value, j shifted by `wraps` full turns.
    Closed ends sit on even vertices x_2i, open ends on the flanking odd
    vertices, so the support is recovered from the indices and the two flags.
    """

    i: int
    j: int
    left_closed: bool
    right_closed: bool
    wraps: int = 0

    def support(self, m: int) -> Tuple[int, int]:
        """Inclusive range of unrolled vertex positions carrying the bar on
        G_2m: the right end index is unshifted to j + m * wraps."""
        a = 2 * self.i if self.left_closed else 2 * self.i + 1
        jj = self.j + m * self.wraps
        b = 2 * jj if self.right_closed else 2 * jj - 1
        return a, b

    def crossings(self, vertex_of, a: int, b: int) -> Dict[int, List[int]]:
        """Positions a..b grouped by vertex, decreasing order."""
        out: Dict[int, List[int]] = {}
        for p in range(b, a - 1, -1):
            out.setdefault(vertex_of(p), []).append(p)
        return out

    def label(self) -> str:
        lb = "[" if self.left_closed else "("
        rb = "]" if self.right_closed else ")"
        wind = f"+{self.wraps}m" if self.wraps else ""
        return f"{lb}{self.i}, {self.j}{wind}{rb}"

    def sort_key(self):
        return (self.i, self.j + 10**9 * self.wraps, not self.left_closed, not self.right_closed)


def bar_from_support(a: int, b: int, m: int) -> Bar:
    """Recover the Bar whose support is the unrolled positions a..b on G_2m."""
    if b < a:
        raise ValueError("empty support")
    left_closed = a % 2 == 0
    right_closed = b % 2 == 0
    i0 = a // 2 if left_closed else (a - 1) // 2
    j0 = b // 2 if right_closed else (b + 1) // 2
    shift = (i0 - 1) // m  # bring i into 1..m
    i = i0 - m * shift
    jj = j0 - m * shift
    wraps, j = divmod(jj - 1, m)
    return Bar(i=i, j=j + 1, left_closed=left_closed, right_closed=right_closed, wraps=wraps)


Summand = Union[Bar, Cell]


def summand_sort_key(s: Summand):
    if isinstance(s, Bar):
        return (0,) + s.sort_key()
    return (1,) + cell_sort_key(s)


# -- representations ----------------------------------------------------------


class CircleRep:
    """A representation of the cyclic shape G_2m.

    Vertices are 1..2m and `dims[x]` is the dimension at x.  An arrow slot
    (o, d) is the arrow from the odd vertex x_o to x_{o+d}, d = +-1, with
    position arithmetic mod 2m, so (1, -1) is the closing arrow
    b_m: x_1 -> x_2m.  `slots` maps each slot to its target vertex, in sorted
    slot order, and `maps[(o, d)]` is its matrix; `maps` None builds the zero
    arrows.  `vertex_of` sends a position on the unrolled path to its vertex.
    `alpha(i)` and `beta(i)` are the arrows into x_2i, so no other module
    spells a slot.
    """

    def __init__(self, field: Field, m: int, dims: Dict[int, int],
                 maps: Optional[Dict[Tuple[int, int], Mat]]):
        if m < 1:
            raise RepresentationError("m must be at least 1")
        self.field = field
        self.m = m
        self.dims = {x: int(dims.get(x, 0)) for x in range(1, 2 * m + 1)}
        self.slots = dict(window_slots(1, 2 * m, cyclic=True))
        if maps is None:
            maps = {(o, d): Mat.zeros(field, self.dims[t], self.dims[o])
                    for (o, d), t in self.slots.items()}
        self.maps = dict(maps)
        for (o, d), t in self.slots.items():
            M = self.maps.get((o, d))
            if M is None:
                raise RepresentationError(f"missing arrow matrix at ({o}, {d:+d})")
            nr, nc = self.dims[t], self.dims[o]
            if M.nrows != nr or M.ncols != nc:
                raise RepresentationError(
                    f"arrow ({o}, {d:+d}) has shape {M.nrows}x{M.ncols}, expected {nr}x{nc}"
                )
            if M.field != field:
                raise RepresentationError("arrow matrix over the wrong field")
        extra = set(self.maps) - set(self.slots)
        if extra:
            raise RepresentationError(f"unexpected arrow keys: {sorted(extra)}")

    def vertex_of(self, pos: int) -> int:
        return (pos - 1) % (2 * self.m) + 1

    def like(self, dims, maps) -> "CircleRep":
        return CircleRep(self.field, self.m, dims, maps)

    def alpha(self, i: int) -> Mat:
        """a_i: x_{2i-1} -> x_{2i}."""
        return self.maps[(2 * i - 1, +1)]

    def beta(self, i: int) -> Mat:
        """b_i: x_{2i+1} -> x_{2i}; b_m: x_1 -> x_2m."""
        return self.maps[(self.vertex_of(2 * i + 1), -1)]

    def arrow_at(self, pos: int, d: int) -> Mat:
        """Matrix of the arrow from odd position pos to pos+d."""
        return self.maps[(self.vertex_of(pos), d)]

    def total_dim(self) -> int:
        return sum(self.dims.values())


def rep_from_lists(field: Field, alphas: Sequence[Mat], betas: Sequence[Mat]) -> CircleRep:
    """The representation of G_2m with arrows alpha_1..alpha_m and beta_1..beta_m."""
    m = len(alphas)
    if len(betas) != m or m < 1:
        raise RepresentationError("need equal nonzero numbers of alphas and betas")
    dims: Dict[int, int] = {}
    maps: Dict[Tuple[int, int], Mat] = {}
    for i, (a, b) in enumerate(zip(alphas, betas), 1):
        dims[2 * i - 1], dims[2 * i] = a.ncols, a.nrows
        maps[(2 * i - 1, +1)] = a
        maps[(2 * i % (2 * m) + 1, -1)] = b
    return CircleRep(field, m, dims, maps)


def slot_target(o: int, d: int, lo: int, hi: int, cyclic: bool = False) -> Optional[int]:
    """The target of the arrow slot (o, d) on the vertex window lo..hi, or
    None if there is no such slot: x_o is odd and in the window, and so is
    x_{o+d}, up to a turn on the cyclic shape, whose window is 1..2m."""
    if o % 2 and lo <= o <= hi and (cyclic or lo <= o + d <= hi):
        return (o + d - lo) % (hi - lo + 1) + lo
    return None


def window_slots(lo: int, hi: int, cyclic: bool = False) -> Iterator[Tuple[Tuple[int, int], int]]:
    """The arrow slots of the window in sorted order, each with its target."""
    return (((o, d), t) for o in range(lo, hi + 1) for d in (-1, +1)
            if (t := slot_target(o, d, lo, hi, cyclic)) is not None)


def line_slots(lo: int, hi: int) -> Dict[Tuple[int, int], int]:
    """The arrow slots of the linear shape on the vertex window lo..hi."""
    if lo > hi:
        raise RepresentationError("window is empty")
    return dict(window_slots(lo, hi))


def line_rep(field: Field, lo: int, hi: int, dims: Dict[int, int],
             maps: Dict[Tuple[int, int], Mat]) -> Tuple[CircleRep, int]:
    """A representation of the linear shape on the window lo..hi, with
    `maps` keyed by `line_slots(lo, hi)`, placed on the cyclic shape.

    Window vertex p goes to x_{p-s}.  The shift s is even, so arrows keep
    their direction, and leaves x_1 and the vertex after hi outside the
    window, where the space is zero.  The placed representation is the
    window cut open at x_1: its bars never wrap, and its bar on i..j is the
    window's bar on i+s/2..j+s/2.  Returns the representation and s.
    """
    slots = line_slots(lo, hi)
    for o, d in slots:
        if (o, d) not in maps:
            raise RepresentationError(f"missing arrow matrix at ({o}, {d:+d})")
    extra = set(maps) - set(slots)
    if extra:
        raise RepresentationError(f"unexpected arrow keys: {sorted(extra)}")
    s = lo - 2 - lo % 2
    zero = CircleRep(field, (hi - s + 1) // 2,
                     {p - s: dims.get(p, 0) for p in range(lo, hi + 1)}, None)
    placed = {(o - s, d): M for (o, d), M in maps.items()}
    return zero.like(zero.dims, {**zero.maps, **placed}), s


# -- canonical summand modules -------------------------------------------------


def _bar_arrow_matrix(field: Field, cross: Dict[int, List[int]], a: int, b: int,
                      o: int, d: int, t: int) -> Mat:
    """The partial-permutation block at the arrow x_o -> x_t (step d) of the
    interval with support positions a..b, whose `Bar.crossings` are `cross`."""
    src, dst = cross.get(o, []), cross.get(t, [])
    rows = [[field.zero] * len(src) for _ in dst]
    for cidx, p in enumerate(src):
        if a <= p + d <= b:
            rows[dst.index(p + d)][cidx] = field.one
    return Mat(field, rows, len(src))


def _interval_rep(bar: Bar, shape: CircleRep) -> CircleRep:
    """The interval summand of `bar` on the shape of `shape`."""
    a, b = bar.support(shape.m)
    cross = bar.crossings(shape.vertex_of, a, b)
    dims = {x: len(cross.get(x, [])) for x in shape.dims}
    maps = {(o, d): _bar_arrow_matrix(shape.field, cross, a, b, o, d, t)
            for (o, d), t in shape.slots.items()}
    return shape.like(dims, maps)


def cell_module(field: Field, cell: Cell, m: int) -> CircleRep:
    """The canonical cyclic summand of a primary component (block at alpha_1)."""
    B = cell.block(field)
    eye = Mat.identity(field, B.nrows)
    return rep_from_lists(field, [B] + [eye] * (m - 1), [eye] * m)


def summand_module(field: Field, s: Summand, rep: CircleRep) -> CircleRep:
    """The canonical module of one summand on the shape of `rep`."""
    if isinstance(s, Bar):
        return _interval_rep(s, rep)
    return cell_module(field, s, rep.m)


# -- certificates ---------------------------------------------------------------


class Certificate(NamedTuple):
    """Invertible base changes conjugating the input to the canonical sum.

    `base_changes[x]` has the new basis as columns (input coordinates); the
    column blocks follow the summand order of the decomposition.
    """

    base_changes: Dict[int, Mat]


def verify_certificate(rep: CircleRep, summands: Sequence[Summand], cert: Certificate) -> bool:
    """Exact check: base changes invertible and every conjugated arrow equals
    the block diagonal of the claimed canonical summand matrices."""
    field = rep.field
    pieces = [summand_module(field, s, rep) for s in summands]
    for x, dx in rep.dims.items():
        P = cert.base_changes.get(x)
        if P is None or P.nrows != dx or P.ncols != dx:
            return False
        if not P.is_invertible():
            return False
        if sum(pc.dims[x] for pc in pieces) != dx:
            return False
    for (o, d), t in rep.slots.items():
        canon = block_diag(field, [pc.maps[(o, d)] for pc in pieces])
        if rep.maps[(o, d)].mul(cert.base_changes[o]) != cert.base_changes[t].mul(canon):
            return False
    return True


# -- the peeling decomposition ---------------------------------------------------


class _State:
    """The part of the input not split off yet, as a representation, with its
    embedding into the input."""

    def __init__(self, rep: CircleRep):
        self.rep = rep
        self.field = rep.field
        self.embed = {x: Mat.identity(rep.field, d) for x, d in rep.dims.items()}

    def restrict(self, comp: Dict[int, Mat]) -> None:
        """Replace the state by the subrepresentation spanned by `comp` at the
        vertices it names, and by the whole space at the others; only the
        arrows with an end at a named vertex change."""
        rep = self.rep
        maps = {}
        for (o, d), t in rep.slots.items():
            A = rep.maps[(o, d)]
            if o in comp:
                A = A.mul(comp[o])
            if t in comp and (A := comp[t].try_solve(A)) is None:
                raise DecompositionError("complement is not arrow-invariant")
            maps[(o, d)] = A
        self.rep = rep.like({**rep.dims, **{x: C.ncols for x, C in comp.items()}}, maps)
        for x, C in comp.items():
            self.embed[x] = self.embed[x].mul(C)


def _not_in_span(space: Mat, candidates: Mat) -> Optional[Mat]:
    """The first candidate column outside the span of `space`, or None: the
    first pivot of [space | candidates] past `space`, since every candidate
    before it lies in span(space)."""
    for c in space.hstack(candidates).rref()[1]:
        if c >= space.ncols:
            return candidates.columns([c - space.ncols])
    return None


def _walk_chain(st: _State, src: int, dead_dir: int, S0: Mat, R0: Mat):
    """Follow a bar end as far as it survives; return (positions, chain),
    the chain one vector, a one-column matrix, per position.

    The subspace S carries everything reachable from the start space S0,
    R the riders reachable from R0; the walk stops when S/R vanishes, and
    the chain is reconstructed backwards with honest death at the far end.
    Every subspace is a matrix with independent columns, so its number of
    columns is its dimension.
    """
    dims = st.rep.dims
    walk = -dead_dir
    S, R = [S0], [R0]
    steps: List[Mat] = []
    bound = len(dims) * (max(dims.values(), default=0) + 3) + 2
    # an odd source steps along its arrow to an image; an even sink takes
    # the preimage back across the arrow from the next odd source
    n = 0
    while True:
        pos = src + walk * n
        if pos % 2:
            M = st.rep.arrow_at(pos, walk)
            S1, R1 = image(M, S[n]), image(M, R[n])
        else:
            M = st.rep.arrow_at(pos + walk, -walk)
            S1, R1 = preimage(M, S[n]), preimage(M, R[n])
        if S1.ncols == R1.ncols:
            break
        steps.append(M)
        S.append(S1)
        R.append(R1)
        n += 1
        if n > bound:
            raise DecompositionError("walk exceeded the support bound")
    # at an odd far end the chain must die: the part of S that M kills
    cand = S[n].mul(M.mul(S[n]).kernel_basis()) if pos % 2 else S[n]
    w = _not_in_span(R[n], cand)
    if w is None:
        raise DecompositionError("no honest chain end available")
    chain: List[Mat] = [w] * (n + 1)
    for k in range(n - 1, -1, -1):
        M = steps[k]
        if (src + walk * k) % 2 == 0:
            chain[k] = M.mul(chain[k + 1])
        elif (x := M.mul(S[k]).try_solve(chain[k + 1])) is None:
            raise DecompositionError("chain does not lift back along the walk")
        else:
            chain[k] = S[k].mul(x)
    positions = [src + walk * k for k in range(n + 1)]
    if walk < 0:
        positions.reverse()
        chain.reverse()
    return positions, chain


def _retraction(st: _State, a: int, b: int, chain_a: Mat) -> Dict[int, Mat]:
    """A retraction r onto the interval on positions a..b, as one functional
    phi_p per position p, a one-row matrix; r at a vertex stacks the phi_p
    of its crossings.

    r is a morphism when phi_p A = phi_q for every arrow A from q into an
    even p, with phi_q = 0 for q off a..b.  Then phi_p(chain_p) is one scalar
    for all p, the diagonal of the endomorphism r.i of the interval, i the
    chain's embedding.  An endomorphism of an interval is a scalar plus
    shifts of positions by whole turns, all to one side, so
    phi_a(chain_a) = 1 makes r.i unipotent and ker r a complement of the
    chain.
    """
    field, rep = st.field, st.rep
    minus_one = field.neg(field.one)
    dims = [rep.dims[rep.vertex_of(p)] for p in range(a, b + 1)]
    offs = [0, *accumulate(dims)]  # phi_p sits at offs[p - a]:offs[p - a + 1]
    # row j of the block of an arrow A: column j of phi_p A - phi_{p-d}; a
    # zero column of an arrow from off a..b makes a zero row, which changes
    # neither the reduced form nor the solution
    equations = []
    for p in range(a + a % 2, b + 1, 2):
        for d in (+1, -1):
            A = rep.arrow_at(p - d, d)
            block = [(offs[p - a], A.transpose())]
            if a <= p - d <= b:
                block.append((offs[p - d - a], Mat.scalar(field, A.ncols, minus_one)))
            equations.append(block)
    equations.append([(0, chain_a.transpose())])
    system = stack(field, offs[-1], equations)
    rhs = Mat(field, [[field.zero]] * (system.nrows - 1) + [[field.one]], 1)
    z = system.try_solve(rhs)
    if z is None:
        raise DecompositionError("maximal chain does not split")
    z = z.transpose()
    return {p: z.columns(range(offs[p - a], offs[p - a + 1])) for p in range(a, b + 1)}


def _split(st: _State, src: int, d: int, S0: Mat, R0: Mat):
    """Split off the bar that starts at position src with start space S0 and
    riders R0, dead on side d; return the bar with its chain in input
    coordinates."""
    positions, chain = _walk_chain(st, src, d, S0, R0)
    a, b = positions[0], positions[-1]
    rep = st.rep
    bar = bar_from_support(a, b, rep.m)
    cross = bar.crossings(rep.vertex_of, a, b)
    by_pos = dict(zip(positions, chain))
    phi = _retraction(st, a, b, by_pos[a])
    comp = {}
    for x, plist in cross.items():
        comp[x] = stack(st.field, rep.dims[x], [[(0, phi[p])] for p in plist]).kernel_basis()
        if comp[x].ncols != rep.dims[x] - len(plist):
            raise DecompositionError("complement dimension mismatch")
    chain_at = {x: st.embed[x].mul(side_by_side(st.field, rep.dims[x], [by_pos[p] for p in plist]))
                for x, plist in cross.items()}
    st.restrict(comp)
    return bar, chain_at


def _peel_phase(st: _State) -> List[Tuple[Bar, Dict[int, Mat]]]:
    """Split off a bar at every bar end, visiting each arrow slot once;
    return each bar with its chain in input coordinates.

    Open ends come first: while the arrow A out of an odd source to side d
    has a kernel, a bar starts there at (ker A, 0).  Then every arrow is
    injective, and while the arrow A into an even sink t from side d is
    taller than wide, a bar starts at (V_t, im A).  A split restricts every
    arrow to a subrepresentation, which keeps an injective arrow injective
    and an isomorphism an isomorphism, so a finished slot needs no second
    look.
    """
    field, m, found = st.field, st.rep.m, []
    for o in range(1, 2 * m, 2):
        for d in (+1, -1):
            while (K := st.rep.arrow_at(o, d).kernel_basis()).ncols:
                found.append(_split(st, o, d, K, Mat.zeros(field, st.rep.dims[o], 0)))
    for t in range(2, 2 * m + 1, 2):
        for d in (+1, -1):
            while (A := st.rep.arrow_at(t + d, -d)).nrows > A.ncols:
                found.append(_split(st, t, d, Mat.identity(field, st.rep.dims[t]), A))
    return found


def _monodromy(rep: CircleRep, beta_inv: Sequence[Mat]) -> Mat:
    """The composite alpha_1 beta_m^-1 alpha_m ... alpha_2 beta_1^-1: V_2 -> V_2,
    with `beta_inv[i - 1]` the inverse of beta_i."""
    M = Mat.identity(rep.field, rep.dims[2])
    for i in range(1, rep.m):
        M = rep.alpha(i + 1).mul(beta_inv[i - 1].mul(M))
    return rep.alpha(1).mul(beta_inv[-1].mul(M))


def _residual_cells(st: _State) -> List[Tuple[Cell, Dict[int, Mat]]]:
    """Split the all-isomorphism residual part into Jordan cells with bases.

    On a representation with a zero vertex, a line cut open there, a
    nonzero residue has an arrow that is not an isomorphism: an error.
    """
    rep = st.rep
    if rep.total_dim() == 0:
        return []
    m = rep.m
    # a singular alpha would otherwise show up as an eigenvalue-0 cell
    if not all(rep.alpha(i).is_invertible() for i in range(1, m + 1)):
        raise DecompositionError("residual arrows must be isomorphisms")
    try:
        beta_inv = [rep.beta(i).inverse() for i in range(1, m + 1)]
    except ValueError:  # a singular or non-square beta
        raise DecompositionError("residual arrows must be isomorphisms") from None
    cells, P = primary_components(_monodromy(rep, beta_inv))
    # propagate: P_2 = P, P_{2i} = alpha_i P_{2i-1}, P_{2i+1} = beta_i^{-1} P_{2i}
    bases: Dict[int, Mat] = {2: P}
    for i in range(1, m):
        bases[2 * i + 1] = beta_inv[i - 1].mul(bases[2 * i])
        bases[2 * i + 2] = rep.alpha(i + 1).mul(bases[2 * i + 1])
    bases[1] = beta_inv[-1].mul(bases[2 * m])
    bases = {x: st.embed[x].mul(bases[x]) for x in rep.dims}
    offs = [0, *accumulate(c.dim() for c in cells)]  # cell k has columns offs[k]:offs[k + 1]
    return [(c, {x: B.columns(range(offs[k], offs[k + 1])) for x, B in bases.items()})
            for k, c in enumerate(cells)]


def _assemble(rep: CircleRep, bar_recs, cell_recs) -> Tuple[List[Summand], Certificate]:
    entries: List[Tuple[Summand, Dict[int, Mat]]] = list(bar_recs) + list(cell_recs)
    entries.sort(key=lambda e: summand_sort_key(e[0]))
    changes = {}
    for x, dx in rep.dims.items():
        changes[x] = side_by_side(rep.field, dx, [rec[x] for _, rec in entries if x in rec])
        if changes[x].ncols != dx:
            raise DecompositionError("certificate columns do not fill the space")
    return [s for s, _ in entries], Certificate(base_changes=changes)


def _decompose(rep: CircleRep) -> Tuple[List[Summand], Certificate]:
    st = _State(rep)
    found = _peel_phase(st)
    summands, cert = _assemble(rep, found, _residual_cells(st))
    # The gate also proves that no bar ends at an index i where a_i and b_i
    # are both isomorphisms.  Up to invertible base changes an arrow is the
    # block diagonal of the summands' blocks, invertible only if each block
    # is, and a bar's block has a zero row or column at each end: in a_i at a
    # closed left end x_2i, in b_i at an open x_2i+1, and mirrored on the right.
    if not verify_certificate(rep, summands, cert):
        raise DecompositionError("certificate verification failed")
    return summands, cert


def decompose_zigzag(rep: CircleRep) -> Tuple[List[Bar], Certificate]:
    """Decompose a representation with a zero vertex x_1, a line cut open
    there, into bars with a certificate."""
    if rep.dims[1]:
        raise DecompositionError("a line must be cut open at a zero x_1")
    return _decompose(rep)


def decompose_circle(rep: CircleRep) -> Tuple[List[Bar], List[Cell], Certificate]:
    """Decompose a cyclic-shape representation into bars and Jordan cells."""
    summands, cert = _decompose(rep)
    bars = [s for s in summands if isinstance(s, Bar)]
    return bars, [s for s in summands if isinstance(s, Cell)], cert
