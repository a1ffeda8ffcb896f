"""Simplicial complexes and simplicial maps to the line or the circle.

A complex is stored as an ordered vertex list plus a face-closed list of
simplices, each a strictly increasing tuple of vertex positions.  The simplex
order is dimension-major and then lexicographic, so faces always precede
cofaces and lower dimensions precede higher ones.  That order orients every
simplex and fixes the signs of the boundary matrix.

Maps are linear on each simplex.  A real map is one exact value per vertex.  A
circle map is one exact angle per vertex, measured in turns (1 turn = a full
circle), together with an integer winding per edge; the winding data is the
discrete 1-cocycle that makes each simplex liftable to the line.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .field import Field, field_from_spec

VertexId = Hashable
Simplex = Tuple[int, ...]


class MalformedInput(ValueError):
    """Raised when an input document or simplex list is structurally invalid."""


class EmptyComplex(MalformedInput):
    """Raised when an operation needs at least one vertex."""


class RepresentationError(ValueError):
    """Malformed representation data (dimensions and matrix shapes)."""


class CardinalityMismatch(ValueError):
    """Raised when two configurations cannot be matched point for point."""


class ExperimentError(ValueError):
    """A perturbation experiment that cannot run as asked: a negative degree
    or epsilon, no trials, or an epsilon with no collision-free draw."""


class CocycleViolation(ValueError):
    """Raised when edge windings admit no linear lift on some triangle."""

    def __init__(self, triangle: Simplex):
        self.triangle = triangle
        super().__init__(f"winding cocycle fails on triangle {triangle}")


def _closure(simplices: Iterable[Simplex]) -> List[Simplex]:
    seen = set()
    for s in simplices:
        faces = [()]
        for v in s:
            faces += [face + (v,) for face in faces]
        seen.update(faces[1:])
    return sorted(seen, key=lambda s: (len(s), s))


class SimplexTable:
    """A face-closed simplicial complex with a fixed total simplex order."""

    def __init__(self, vertices: Sequence[VertexId], simplices: Iterable[Simplex]):
        self.vertices: List[VertexId] = list(vertices)
        n = len(self.vertices)
        raw = list(simplices)
        for s in raw:
            if not s or any(not (0 <= v < n) for v in s):
                raise MalformedInput(f"simplex {s} uses unknown vertex")
            if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
                raise MalformedInput(f"simplex {s} is not strictly increasing")
        self.simplices: List[Simplex] = _closure(raw)
        self.index: Dict[Simplex, int] = {s: i for i, s in enumerate(self.simplices)}
        self.dim = max((len(s) - 1 for s in self.simplices), default=-1)

    def __len__(self) -> int:
        return len(self.simplices)

    def simplices_of_dim(self, r: int) -> List[Simplex]:
        return [s for s in self.simplices if len(s) == r + 1]

    def edges(self) -> List[Simplex]:
        return self.simplices_of_dim(1)


def faces_with_signs(s: Simplex) -> List[Tuple[Simplex, int]]:
    """Codimension-1 faces with the sign (-1)^j of the omitted position."""
    out = []
    for j in range(len(s)):
        face = s[:j] + s[j + 1:]
        out.append((face, -1 if j % 2 else 1))
    return out


class RealMap(NamedTuple):
    """Exact vertex values, extended linearly over every simplex."""

    values: List[Fraction]


class CircleMap(NamedTuple):
    """Vertex angles in turns plus integer edge windings.

    Angles live in [0, 1).  The winding of the ordered edge (u, v) with u < v
    is stored once; the reverse orientation negates it.  A missing edge has
    winding zero.
    """

    angles: List[Fraction]
    windings: Dict[Tuple[int, int], int]

    def winding(self, u: int, v: int) -> int:
        if u < v:
            return self.windings.get((u, v), 0)
        return -self.windings.get((v, u), 0)


def validate_circle_map(table: SimplexTable, cmap: CircleMap) -> None:
    """Check angles, winding keys, and the cocycle condition on triangles."""
    if len(cmap.angles) != len(table.vertices):
        raise MalformedInput("angle count does not match vertex count")
    for a in cmap.angles:
        if not (0 <= a < 1):
            raise MalformedInput(f"angle {a} outside [0, 1) turns")
    edge_set = set(table.edges())
    for (u, v) in cmap.windings:
        if u >= v:
            raise MalformedInput(f"winding key {(u, v)} is not ordered")
        if (u, v) not in edge_set:
            raise MalformedInput(f"winding on unknown edge {(u, v)}")
    for t in table.simplices_of_dim(2):
        u, v, w = t
        if cmap.winding(u, v) + cmap.winding(v, w) != cmap.winding(u, w):
            raise CocycleViolation(t)


class CriticalData(NamedTuple):
    """Sorted candidate critical values and interleaved regular values.

    Real case: m criticals come with m+1 regulars t_0 < theta_1 < t_1 < ... <
    theta_m < t_m, the outer two lying past the extreme vertex values, so both
    ends of the window have (empty) regular fibers.  Circle case: m criticals
    in [0, 1) turns come with m regulars, the last of which is the wraparound
    midpoint in (theta_m, theta_1 + 1).
    """

    criticals: List[Fraction]
    regulars: List[Fraction]
    circular: bool

    @property
    def m(self) -> int:
        return len(self.criticals)


def critical_candidates(table: SimplexTable, f) -> CriticalData:
    """All distinct vertex values as candidates, with midpoint regular values.

    Candidate pruning is not done here; inserting a regular value among the
    criticals does not change the decomposition, only the index bookkeeping.
    """
    if not table.vertices:
        raise EmptyComplex("complex has no vertices")
    if isinstance(f, CircleMap):
        crit = sorted(set(f.angles))
        m = len(crit)
        regs = [(crit[i] + crit[i + 1]) / 2 for i in range(m - 1)]
        regs.append((crit[-1] + crit[0] + 1) / 2)
        return CriticalData(crit, regs, True)
    crit = sorted(set(f.values))
    regs = [crit[0] - 1]
    regs += [(crit[i] + crit[i + 1]) / 2 for i in range(len(crit) - 1)]
    regs.append(crit[-1] + 1)
    return CriticalData(crit, regs, False)


class LoadedInput(NamedTuple):
    """A parsed input document: field, target, complex, and map."""

    field: Field
    target: str
    table: SimplexTable
    real_map: Optional[RealMap]
    circle_map: Optional[CircleMap]

    @property
    def map(self):
        return self.real_map if self.target == "R" else self.circle_map


# the most digits that int() reads by default; the CLI lifts int()'s own
# limit so that it can write any exact value, so each reader keeps this one
MAX_DIGITS = sys.int_info.default_max_str_digits

# the exponent of a decimal literal, as Fraction reads it, and a run of
# digits, as int() counts them
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
_DIGIT_RUN = re.compile(r"\d[\d_]*")


def _parse_fraction(text) -> Fraction:
    if isinstance(text, str):
        # Fraction builds 10**exponent: an exponent past the digit limit
        # would run for minutes
        exp = _EXPONENT.search(text)
        try:
            if len(text) > MAX_DIGITS and any(len(run) - run.count("_") > MAX_DIGITS
                                              for run in _DIGIT_RUN.findall(text)):
                raise ValueError(f"more than {MAX_DIGITS} digits in a row")
            if exp and abs(int(exp[1])) > MAX_DIGITS:
                raise ValueError(f"exponent beyond {MAX_DIGITS}")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            raise MalformedInput(f"bad fraction {text!r}: {e}") from None
    raise MalformedInput(f"expected a fraction string, got {text!r}")


def load_document(doc: dict) -> LoadedInput:
    """Parse and validate one input document (already JSON-decoded).  A
    complex with no vertices is refused after every other check, with the
    error that the computing subcommands' choice of levels raises."""
    loaded = _parse_document(doc)
    if not loaded.table.vertices:
        raise EmptyComplex("complex has no vertices")
    return loaded


def _parse_document(doc: dict) -> LoadedInput:
    if not isinstance(doc, dict):
        raise MalformedInput("document must be a JSON object")
    for key in ("field", "target", "vertices", "simplices"):
        if key not in doc:
            raise MalformedInput(f"missing key {key!r}")
    for key in ("vertices", "simplices", "windings"):
        if not isinstance(doc.get(key, []), list):
            raise MalformedInput(f"{key} must be a list")
    field = field_from_spec(doc["field"])
    target = doc["target"]
    if target not in ("R", "S1"):
        raise MalformedInput(f"target must be 'R' or 'S1', got {target!r}")

    ids: List[str] = []
    pos: Dict[str, int] = {}
    raw_values = []
    for entry in doc["vertices"]:
        if not isinstance(entry, dict) or "id" not in entry or "value" not in entry:
            raise MalformedInput(f"bad vertex entry {entry!r}")
        vid = entry["id"]
        try:
            hash(vid)
        except TypeError:
            raise MalformedInput(f"vertex id {vid!r} is not a string or number") from None
        if vid in pos:
            raise MalformedInput(f"duplicate vertex id {vid!r}")
        pos[vid] = len(ids)
        ids.append(vid)
        raw_values.append(entry["value"])

    simplices: List[Simplex] = []
    seen = set()
    for listed in doc["simplices"]:
        if not isinstance(listed, list):
            raise MalformedInput(f"simplex {listed!r} is not a list of vertex ids")
        try:
            s = tuple(sorted(pos[v] for v in listed))
        except (KeyError, TypeError):
            raise MalformedInput(f"simplex {listed!r} uses unknown vertex") from None
        if s in seen:
            raise MalformedInput(f"duplicate simplex {listed!r}")
        seen.add(s)
        simplices.append(s)
    table = SimplexTable(ids, simplices)

    if target == "R":
        values = [_parse_fraction(v) for v in raw_values]
        return LoadedInput(field, target, table, RealMap(values), None)

    angles = []
    for v in raw_values:
        if not isinstance(v, dict) or "angle" not in v:
            raise MalformedInput(f"circle vertex value must be {{'angle': 'p/q'}}, got {v!r}")
        angles.append(_parse_fraction(v["angle"]))
    windings: Dict[Tuple[int, int], int] = {}
    for entry in doc.get("windings", []):
        if not isinstance(entry, dict) or "edge" not in entry or "w" not in entry:
            raise MalformedInput(f"bad winding entry {entry!r}")
        edge = entry["edge"]
        w = entry["w"]
        if not isinstance(w, int) or isinstance(w, bool):
            raise MalformedInput(f"winding must be an integer, got {w!r}")
        if not isinstance(edge, list) or len(edge) != 2:
            raise MalformedInput(f"winding on unknown edge {edge!r}")
        try:
            u, v = pos[edge[0]], pos[edge[1]]
        except (KeyError, TypeError):
            raise MalformedInput(f"winding on unknown edge {edge!r}") from None
        if u > v:
            u, v, w = v, u, -w
        if u == v or (u, v) in windings:
            raise MalformedInput(f"bad or repeated winding edge {edge!r}")
        windings[(u, v)] = w
    cmap = CircleMap(angles, windings)
    validate_circle_map(table, cmap)
    return LoadedInput(field, target, table, None, cmap)
