"""Command line front end.

Subcommands: ``validate`` (input diagnostics), ``compute`` (bars, cells, and
derived numbers), ``decompose`` (raw representation to summands), ``render``
(configuration figure), ``cover`` (window counts on the infinite cyclic
cover), and ``stability`` (perturbation experiment).

Every JSON document is emitted with sorted keys, two-space indent, and exact
fraction strings, so identical inputs give byte-identical output.  Decimal
numbers appear only inside SVG labels (six significant digits) and in fields
that are floating point by nature, such as configuration polynomials.

Exit codes: 0 success, 1 internal error, 2 input error, 3 identity-check
failure.

A real `compute` runs no quiver, so this module imports the quiver layer
and the stability experiment only in the subcommands that use them.  The
quiver entry points that `decompose` calls are still names of this module,
bound on first use by the PEP 562 `__getattr__`: the benchmark's tracer
rebinds them here, and `cmd_decompose` fetches them through `__getattr__`
so that it calls whatever the module holds.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import (MAX_DIGITS, CardinalityMismatch, CocycleViolation, ExperimentError,
                        MalformedInput, RepresentationError, _parse_fraction, load_document)
from .cutting import fiber, unroll_cover
from .field import FieldError, PrimeField, field_from_spec
from .homology import NotTame, betti_numbers, homology, homology_of, induced_map
from .invariants import (
    BeyondFloatRange,
    bundle_to_json,
    canonical_check,
    cell_to_json,
    compute_invariants,
    cover_formulas,
    cylinder_embed,
    fiber_betti_at,
    global_betti,
    image_dim_at,
    quiver_invariants,
    to_float,
)
from .matrix import Mat

_QUIVER = ("decompose_circle", "decompose_zigzag", "verify_certificate")


def __getattr__(name: str):
    """The quiver entry points in `_QUIVER`, imported on first use.  A name
    already bound here, such as one the tracer rebound, is kept."""
    if name not in _QUIVER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import quiver
    for key in _QUIVER:
        globals().setdefault(key, getattr(quiver, key))
    return globals()[name]


class MissingDegree(ValueError):
    """The requested degree is absent from the invariants document."""


class UsageError(ValueError):
    """The command line does not parse: an unknown option or subcommand, a
    missing or extra argument, or a value of the wrong type."""


class IdentityCheckFailure(RuntimeError):
    """One of the re-derived counting identities does not match."""

    def __init__(self, failures: List[str]):
        self.failures = failures
        super().__init__(f"{len(failures)} identity check(s) failed")


_INPUT_ERRORS = (
    MalformedInput,
    CocycleViolation,
    FieldError,
    RepresentationError,
    MissingDegree,
    UsageError,
    CardinalityMismatch,
    ExperimentError,
    NotTame,
    BeyondFloatRange,
    OSError,
    UnicodeDecodeError,
    json.JSONDecodeError,
)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs):
    """A JSON object's members as a dict; a repeated key is malformed input,
    not a silent override by its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise MalformedInput(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _digits(text: str) -> Optional[int]:
    """The number that a string of ASCII digits spells, or None for any
    other text and for one of more than MAX_DIGITS digits."""
    if text.isascii() and text.isdigit() and len(text) <= MAX_DIGITS:
        return int(text)
    return None


def _signed_digits(text: str) -> Optional[int]:
    """The integer that ASCII digits after an optional minus spell, or None."""
    n = _digits(text.removeprefix("-"))
    return -n if n is not None and text[:1] == "-" else n


def _int_option(text: str) -> int:
    """An integer option value: ASCII digits after an optional minus.
    argparse's ``type=int`` would also read other scripts' digits, a plus,
    underscores and spaces."""
    n = _signed_digits(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return n


def _json_int(text: str) -> int:
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise MalformedInput(f"integer literal of {len(text)} characters is too long")
    return int(text)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys, parse_int=_json_int)
        except RecursionError:
            raise MalformedInput("JSON nested too deeply to read") from None


def _field_spec(text: str):
    if text == "Q":
        return "Q"
    p = _digits(text[1:]) if text[:1] in ("F", "f") else None
    if p is None:
        raise FieldError(f"field must be 'Q' or 'F<p>', got {text!r}")
    return {"Fp": p}


def _read_doc(path: str, field_flag: Optional[str]):
    """A map document as read, with its field replaced by `--field`."""
    doc = _read_json(path)
    if field_flag:
        if not isinstance(doc, dict):
            raise MalformedInput("document must be a JSON object")
        doc = dict(doc)
        doc["field"] = _field_spec(field_flag)
    return doc


def _load(path: str, field_flag: Optional[str]):
    return load_document(_read_doc(path, field_flag))


def _parse_degrees(text: str, rmax: int) -> List[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        r = _digits(tok)
        if r is None:
            raise MalformedInput(f"bad degree {tok!r}")
        out.append(_check_degree(r, rmax))
    return sorted(set(out))


def _check_degree(r: int, rmax: int) -> int:
    if r > rmax:
        raise MalformedInput(f"degree {r} exceeds the complex dimension {rmax}")
    return r


# -- validate ----------------------------------------------------------------------


def cmd_validate(args) -> Tuple[int, str]:
    try:
        doc = _read_doc(args.input, args.field)
        loaded = load_document(doc)
    except CocycleViolation as e:
        report = {"ok": False, "error": type(e).__name__, "detail": str(e),
                  "triangle": [doc["vertices"][p]["id"] for p in e.triangle]}
        return 2, _dumps(report)
    except (MalformedInput, FieldError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as e:
        return 2, _dumps({"ok": False, "error": type(e).__name__, "detail": str(e)})

    table = loaded.table
    pos = {vid: i for i, vid in enumerate(table.vertices)}
    listed = {tuple(sorted(pos[v] for v in s)) for s in doc["simplices"]}
    synthesized = [s for s in table.simplices if s not in listed]
    isolated = [vid for i, vid in enumerate(table.vertices)
                if not any(i in s for s in table.simplices)]
    notes = []
    if synthesized:
        notes.append(f"closure synthesized {len(synthesized)} missing face(s)")
    if isolated:
        notes.append(f"{len(isolated)} vertex(es) appear in no listed simplex")
    return 0, _dumps({
        "ok": True,
        "field": loaded.field.to_spec(),
        "target": loaded.target,
        "vertices": len(table.vertices),
        "simplices": len(table),
        "dim": table.dim,
        "synthesized_faces": [[table.vertices[v] for v in s] for s in synthesized],
        "isolated_vertices": isolated,
        "notes": notes,
    })


# -- compute -----------------------------------------------------------------------


def _identity_failures(loaded, bundle) -> List[str]:
    """Re-derive every counting identity from direct homology."""
    table, field = loaded.table, bundle.field
    fails: List[str] = []
    direct = betti_numbers(table, field)
    for r in range(bundle.rmax + 2):
        want = direct[r] if r < len(direct) else 0
        got = global_betti(bundle, r)
        if got != want:
            fails.append(f"degree {r}: global betti {got}, direct {want}")
        if not canonical_check(bundle, r, want):
            fails.append(f"degree {r}: pairing-matrix count does not match")
    whole = {r: homology_of(bundle.cut.table, None, r, field)
             for r in range(bundle.rmax + 1)}
    for level in bundle.crit.criticals + bundle.crit.regulars:
        for r in range(bundle.rmax + 1):
            basis = homology(fiber(bundle.cut, level), r, field)
            if fiber_betti_at(bundle, r, level) != basis.dim:
                fails.append(f"degree {r} level {level}: fiber betti mismatch")
            if image_dim_at(bundle, r, level) != induced_map(basis, whole[r]).rank():
                fails.append(f"degree {r} level {level}: image rank mismatch")
    if bundle.circular:
        for a, b in ((Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(2))):
            window = unroll_cover(table, loaded.map, a, b)
            for r in range(bundle.rmax + 1):
                direct_dim = homology(window, r, field).dim
                if cover_formulas(bundle, r, a, b)[0] != direct_dim:
                    fails.append(
                        f"degree {r} window [{a}, {b}]: cover count mismatch")
    return fails


def cmd_compute(args) -> Tuple[int, str]:
    loaded = _load(args.input, args.field)
    bundle = compute_invariants(loaded.table, loaded.map, loaded.field)
    doc = bundle_to_json(bundle)
    doc["certified"] = True
    if args.degrees:
        wanted = _parse_degrees(args.degrees, bundle.rmax)
        doc["degrees"] = {str(r): doc["degrees"][str(r)] for r in wanted}
    if args.check:
        failures = []
        if not bundle.circular:
            # the level-set bars against the quiver pipeline's, whose cut
            # and representations the identities then check
            slow = quiver_invariants(loaded.table, loaded.map, loaded.field)
            failures = [f"degree {r}: level-set bars differ from the quiver bars"
                        for r in range(bundle.rmax + 1)
                        if bundle.degree_bars(r) != slow.degree_bars(r)]
            bundle = slow
        failures += _identity_failures(loaded, bundle)
        if failures:
            raise IdentityCheckFailure(failures)
        doc["checked"] = True
    return 0, _dumps(doc)


# -- decompose ---------------------------------------------------------------------


def _mat_from_json(field, rows, nrows: int, ncols: int, where: str) -> Mat:
    # an entry of ASCII digits after an optional minus is read with int(),
    # and over Q kept an int (Mat reads ints as field scalars); any other
    # string, one of more than MAX_DIGITS digits too, takes the Fraction parser
    from_int = field.from_int if isinstance(field, PrimeField) else int
    if not isinstance(rows, list) or len(rows) != nrows:
        raise MalformedInput(f"arrow {where}: expected {nrows} rows")
    parsed = []
    for row in rows:
        if not isinstance(row, list) or len(row) != ncols:
            raise MalformedInput(f"arrow {where}: expected {ncols} columns per row")
        out = []
        for e in row:
            if isinstance(e, int) and not isinstance(e, bool):
                out.append(from_int(e))
                continue
            if isinstance(e, str):
                n = _signed_digits(e)
                if n is not None:
                    out.append(from_int(n))
                    continue
            try:
                out.append(field.from_fraction(_parse_fraction(e)))
            except MalformedInput as err:
                raise MalformedInput(f"arrow {where}: {err}") from None
        parsed.append(out)
    return Mat(field, parsed, ncols)


def _is_int(x) -> bool:
    """True for a JSON integer: Python counts bools as ints, JSON does not."""
    return isinstance(x, int) and not isinstance(x, bool)


def rep_from_json(doc):
    """Parse the representation interchange format into a quiver module.

    Returns the representation and the shift s of a `line` window placed by
    `line_rep`, or None for the `cyclic` shape."""
    from .quiver import CircleRep, line_rep, slot_target, window_slots

    if not isinstance(doc, dict):
        raise MalformedInput("representation document must be a JSON object")
    for key in ("field", "shape", "dims", "arrows"):
        if key not in doc:
            raise MalformedInput(f"missing key {key!r}")
    field = field_from_spec(doc["field"])
    if not isinstance(doc["dims"], dict):
        raise MalformedInput("dims must map vertices to dimensions")
    dims: Dict[int, int] = {}
    for k, v in doc["dims"].items():
        x = _signed_digits(k)
        # one spelling per vertex, so no two keys name the same one:
        # "02", "+2", " 2", "0_2" and "-0" are refused
        if x is None or str(x) != k:
            raise MalformedInput(f"dims key {k!r} is not a vertex number")
        if not _is_int(v):
            raise MalformedInput("dims must map integer vertices to integers")
        dims[x] = v
    if any(v < 0 for v in dims.values()):
        raise MalformedInput("dimensions must be nonnegative")
    if not isinstance(doc["arrows"], list):
        raise MalformedInput("arrows must be a list")
    arrows: Dict[Tuple[int, int], list] = {}
    for entry in doc["arrows"]:
        if not isinstance(entry, dict) or not {"at", "dir", "matrix"} <= set(entry):
            raise MalformedInput(f"bad arrow entry {entry!r}")
        o, d = entry["at"], entry["dir"]
        if not (_is_int(o) and _is_int(d)) or o % 2 == 0 or d not in (1, -1):
            raise MalformedInput(f"arrow must leave an odd vertex with dir +1 or -1, got {entry!r}")
        if (o, d) in arrows:
            raise MalformedInput(f"repeated arrow ({o}, {d})")
        arrows[(o, d)] = entry["matrix"]

    shape = doc["shape"]
    if shape == "cyclic":
        m = doc.get("m")
        if not _is_int(m) or m < 1:
            raise MalformedInput("cyclic shape needs an integer m >= 1")
        lo, hi = 1, 2 * m
    elif shape == "line":
        lo, hi = doc.get("lo"), doc.get("hi")
        if not _is_int(lo) or not _is_int(hi):
            raise MalformedInput("line shape needs integer lo and hi")
        if lo > hi:
            raise RepresentationError("window is empty")
    else:
        raise MalformedInput(f"shape must be 'line' or 'cyclic', got {shape!r}")
    cyclic = shape == "cyclic"
    outside = sorted(x for x in dims if not lo <= x <= hi)
    if outside:
        raise MalformedInput(f"dims name vertices outside the shape: {outside}")
    maps = {}
    for (o, d), rows in arrows.items():
        t = slot_target(o, d, lo, hi, cyclic)
        if t is None:
            raise RepresentationError(f"unexpected arrow key ({o}, {d:+d})")
        maps[(o, d)] = _mat_from_json(field, rows, dims.get(t, 0), dims.get(o, 0),
                                      f"({o}, {d:+d})")
    # the first missing slot comes at most len(maps) slots in, so a long
    # shape with few arrows is refused before anything of its length is built
    for (o, d), _ in window_slots(lo, hi, cyclic):
        if (o, d) not in maps:
            raise RepresentationError(f"missing arrow matrix at ({o}, {d:+d})")
    if cyclic:
        return CircleRep(field, m, dims, maps), None
    return line_rep(field, lo, hi, dims, maps)


def cmd_decompose(args) -> Tuple[int, str]:
    decompose_circle, decompose_zigzag, verify_certificate = map(__getattr__, _QUIVER)
    rep, s = rep_from_json(_read_json(args.input))
    if s is None:
        bars, cells, cert = decompose_circle(rep)
        summands = list(bars) + list(cells)
    else:
        bars, cert = decompose_zigzag(rep)
        cells, summands = [], list(bars)
        bars = [b._replace(i=b.i + s // 2, j=b.j + s // 2) for b in bars]  # window frame
    out = {
        "field": rep.field.to_spec(),
        "shape": "cyclic" if s is None else "line",
        "total_dim": rep.total_dim(),
        "bars": [{"i": b.i, "j": b.j, "wraps": b.wraps,
                  "left_closed": b.left_closed, "right_closed": b.right_closed,
                  "label": b.label()} for b in bars],
        "certified": verify_certificate(rep, summands, cert),
    }
    if s is None:
        out["cells"] = [dict(cell_to_json(rep.field, cell), dim=cell.dim()) for cell in cells]
    return 0, _dumps(out)


# -- render ------------------------------------------------------------------------


_BLUE = "#1f62ab"
_RED = "#c23b22"


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _render_svg(points, degree: int, circular: bool) -> str:
    """One degree's configuration as SVG: the plane with the diagonal for a
    real target, the punctured-plane chart of the cylinder for a circle."""
    size, margin = 420, 50
    inner = size - 2 * margin
    if circular:
        embedded = [cylinder_embed(p) for p in points]
        radius = max([1.0] + [abs(z) for z in embedded]) * 1.25
        if not math.isfinite(radius):
            raise BeyondFloatRange("a configuration point is too far out for the cylinder chart")

        def sx(v: float) -> float:
            return size / 2 + v / radius * inner / 2

        def sy(v: float) -> float:
            return size / 2 - v / radius * inner / 2

        title = f"degree {degree} configuration (punctured-plane chart)"
        chart = [f'<line x1="{margin}" y1="{size // 2}" x2="{size - margin}" '
                 f'y2="{size // 2}" stroke="black"/>',
                 f'<line x1="{size // 2}" y1="{margin}" x2="{size // 2}" '
                 f'y2="{size - margin}" stroke="black"/>',
                 f'<circle cx="{size // 2}" cy="{size // 2}" '
                 f'r="{_fmt(inner / 2 / radius)}" fill="none" stroke="gray" '
                 f'stroke-dasharray="5,4"/>']
        at = [(z.real, z.imag) for z in embedded]
    else:
        coords = [to_float(c) for p in points for c in p]
        lo, hi = (min(coords), max(coords)) if coords else (0.0, 1.0)
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        pad = (hi - lo) * 0.08
        lo, hi = lo - pad, hi + pad
        span = hi - lo
        if not math.isfinite(span):
            raise BeyondFloatRange("the configuration spans more than float range")

        def sx(v: float) -> float:
            return margin + (v - lo) / span * inner

        def sy(v: float) -> float:
            return size - margin - (v - lo) / span * inner

        title = f"degree {degree} configuration"
        chart = [f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
                 f'y2="{size - margin}" stroke="black"/>'
                 f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
                 f'y2="{size - margin}" stroke="black"/>']
        for v in (lo, hi):
            chart.append(f'<text x="{_fmt(sx(v))}" y="{size - margin + 18}" '
                         f'text-anchor="middle" font-size="11">{_fmt(v)}</text>')
            chart.append(f'<text x="{margin - 6}" y="{_fmt(sy(v) + 4)}" '
                         f'text-anchor="end" font-size="11">{_fmt(v)}</text>')
        chart.append(f'<line x1="{_fmt(sx(lo))}" y1="{_fmt(sy(lo))}" '
                     f'x2="{_fmt(sx(hi))}" y2="{_fmt(sy(hi))}" '
                     f'stroke="gray" stroke-dasharray="5,4"/>')
        at = [(float(x), float(y)) for x, y in points]

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>',
             f'<text x="{size // 2}" y="24" text-anchor="middle" '
             f'font-size="14">{title}</text>'] + chart
    for (x, y), (u, v) in zip(points, at):
        color = _BLUE if y >= x else _RED
        parts.append(f'<circle cx="{_fmt(sx(u))}" cy="{_fmt(sy(v))}" '
                     f'r="5" fill="{color}">'
                     f'<title>({_fmt(float(x))}, {_fmt(float(y))})</title></circle>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_render(args) -> Tuple[int, str]:
    doc = _read_json(args.input)
    if not isinstance(doc, dict) or not isinstance(doc.get("degrees"), dict):
        raise MalformedInput("expected an invariants document with a 'degrees' object")
    key = str(args.degree)
    if key not in doc["degrees"]:
        raise MissingDegree(f"degree {args.degree} is not present in the document")
    entry = doc["degrees"][key]
    config = entry.get("configuration", []) if isinstance(entry, dict) else None
    if not isinstance(config, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in config):
        raise MalformedInput(f"degree {key}: configuration must be a list of [x, y] pairs")
    points = [(_parse_fraction(x), _parse_fraction(y)) for x, y in config]
    circular = doc.get("target") == "circle"
    if args.json:
        payload = {
            "degree": args.degree,
            "target": doc.get("target"),
            "points": [{"x": str(x), "y": str(y),
                        "kind": "closed" if y >= x else "open"}
                       for x, y in points],
        }
        if circular:
            for rec, p in zip(payload["points"], points):
                z = cylinder_embed(p)
                rec["embedded"] = [z.real, z.imag]
        return 0, _dumps(payload)
    return 0, _render_svg(points, args.degree, circular)


# -- cover and stability -----------------------------------------------------------


def cmd_cover(args) -> Tuple[int, str]:
    loaded = _load(args.input, args.field)
    if loaded.target != "S1":
        raise MalformedInput("cover queries need a circle-valued map")
    a, b = (_parse_fraction(t) for t in args.window)
    if not a < b:
        raise MalformedInput("window needs a < b")
    bundle = compute_invariants(loaded.table, loaded.map, loaded.field)
    degrees = (_parse_degrees(args.degrees, bundle.rmax) if args.degrees
               else range(bundle.rmax + 1))
    counts = {}
    for r in degrees:
        c1, c2, c3 = cover_formulas(bundle, r, a, b)
        counts[str(r)] = {"slice_betti": c1, "into_cover": c2, "into_base": c3}
    return 0, _dumps({"window": [str(a), str(b)], "target": "circle",
                      "degrees": counts})


def cmd_stability(args) -> Tuple[int, str]:
    from .stability import stability_experiment

    loaded = _load(args.input, args.field)
    schedule = [_parse_fraction(tok) for tok in args.schedule.split(",") if tok.strip()]
    if not schedule:
        raise MalformedInput("schedule must list at least one epsilon")
    if args.trials < 1:
        raise MalformedInput("need at least one trial")
    _check_degree(args.degree, max(loaded.table.dim, 0))
    report = stability_experiment(loaded.table, loaded.map, args.degree,
                                  schedule, args.trials, args.seed, loaded.field)
    return 0, _dumps(report)


# -- parser ------------------------------------------------------------------------


def _usage_error(message: str):
    raise UsageError(message)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `UsageError`, so that they leave
    through the JSON error contract, and which reads a token that starts with
    a minus and a digit, such as ``-1/2`` or ``-.5``, as a value: no option
    of this program starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")
        self.error = _usage_error


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="tamebars",
        description="Bar codes, Jordan cells, and derived invariants of tame "
                    "simplicial maps to the line or the circle.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, field=True):
        if field:
            sp.add_argument("--field", help="override the document field: Q or F<p>")
        sp.add_argument("--out", help="write the output to a file instead of stdout")

    v = sub.add_parser("validate", help="parse and check an input document")
    v.add_argument("input")
    common(v)
    v.set_defaults(func=cmd_validate)

    c = sub.add_parser("compute", help="bars, Jordan cells, and derived numbers")
    c.add_argument("input")
    c.add_argument("--degrees", help="comma separated homology degrees to keep")
    c.add_argument("--check", action="store_true",
                   help="re-derive all counting identities and fail on mismatch")
    common(c)
    c.set_defaults(func=cmd_compute)

    d = sub.add_parser("decompose", help="decompose a raw quiver representation")
    d.add_argument("input")
    common(d, field=False)
    d.set_defaults(func=cmd_decompose)

    r = sub.add_parser("render", help="draw one degree's configuration")
    r.add_argument("input", help="an invariants document produced by compute")
    r.add_argument("--degree", type=_int_option, required=True)
    fmt = r.add_mutually_exclusive_group()
    fmt.add_argument("--svg", action="store_true", help="emit SVG (default)")
    fmt.add_argument("--json", action="store_true", help="emit the points as JSON")
    common(r, field=False)
    r.set_defaults(func=cmd_render)

    co = sub.add_parser("cover", help="window counts on the infinite cyclic cover")
    co.add_argument("input")
    co.add_argument("--window", nargs=2, metavar=("A", "B"), required=True)
    co.add_argument("--degrees", help="comma separated homology degrees to keep")
    common(co)
    co.set_defaults(func=cmd_cover)

    s = sub.add_parser("stability", help="perturbation experiment report")
    s.add_argument("input")
    s.add_argument("--schedule", required=True,
                   help="comma separated perturbation sizes, e.g. 1/10,1/100")
    s.add_argument("--trials", type=_int_option, default=10)
    s.add_argument("--seed", type=_int_option, default=0)
    s.add_argument("--degree", type=_int_option, default=1)
    common(s)
    s.set_defaults(func=cmd_stability)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    # every reader bounds the digits it reads by MAX_DIGITS, so int()'s own
    # limit is lifted while a command runs: it may write any exact value
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        code, text = args.func(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except IdentityCheckFailure as e:
        sys.stderr.write(_dumps({"ok": False, "error": type(e).__name__,
                                 "failures": e.failures}))
        return 3
    except _INPUT_ERRORS as e:
        sys.stderr.write(_dumps({"ok": False, "error": type(e).__name__,
                                 "detail": str(e)}))
        return 2
    except Exception as e:
        sys.stderr.write(_dumps({"ok": False, "error": type(e).__name__,
                                 "detail": str(e)}))
        return 1
    finally:
        sys.set_int_max_str_digits(limit)
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
