"""The error contract under mutated documents.

Valid `validate`, `compute`, `cover`, `stability`, `decompose` and `render`
documents are mutated at random places (a value replaced, a key or item
deleted, an item added) and run through `cli.main`, with flags drawn from
small pools of valid and invalid values, negative fractions given as separate
tokens among them.  Whatever the document, the exit code is 0, 2 or 3, and a
failure is reported as a JSON object: on stderr, or on stdout for `validate`,
which reports there.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tamebars.cli import main
from tamebars.complexes import load_document

MAP_DOCS = [
    {"field": "Q", "target": "R",
     "vertices": [{"id": "a", "value": "0"}, {"id": "b", "value": "1"},
                  {"id": "c", "value": "1/2"}],
     "simplices": [["a", "b"], ["a", "c"], ["b", "c"]]},
    {"field": {"Fp": 5}, "target": "S1",
     "vertices": [{"id": "a", "value": {"angle": "0"}},
                  {"id": "b", "value": {"angle": "1/3"}},
                  {"id": "c", "value": {"angle": "2/3"}}],
     "simplices": [["a", "b"], ["b", "c"], ["a", "c"]],
     "windings": [{"edge": ["a", "c"], "w": -1}]},
]

REP_DOCS = [
    {"field": "Q", "shape": "cyclic", "m": 1, "dims": {"1": 1, "2": 2},
     "arrows": [{"at": 1, "dir": 1, "matrix": [["1"], ["0"]]},
                {"at": 1, "dir": -1, "matrix": [["0"], ["1"]]}]},
    {"field": {"Fp": 3}, "shape": "line", "lo": 1, "hi": 3,
     "dims": {"1": 1, "2": 1, "3": 1},
     "arrows": [{"at": 1, "dir": 1, "matrix": [[1]]},
                {"at": 3, "dir": -1, "matrix": [["2"]]}]},
    # an even, negative lo with nonzero ends, placed on the cycle with a shift
    {"field": "Q", "shape": "line", "lo": -2, "hi": 1,
     "dims": {"-2": 1, "-1": 2, "0": 1, "1": 1},
     "arrows": [{"at": -1, "dir": -1, "matrix": [[1, 0]]},
                {"at": -1, "dir": 1, "matrix": [["1", "1"]]},
                {"at": 1, "dir": -1, "matrix": [[1]]}]},
]

INVARIANT_DOCS = [
    {"target": "line", "degrees": {"0": {"configuration": [["0", "1"], ["1/2", "0"]]}}},
    {"target": "circle", "degrees": {"0": {"configuration": [["1/3", "4/3"]]}}},
]

KEYS = ["field", "target", "vertices", "simplices", "windings", "id", "value",
        "angle", "edge", "w", "shape", "m", "lo", "hi", "dims", "arrows", "at",
        "dir", "matrix", "degrees", "configuration", "Fp", "0", "1", "2"]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.sampled_from(["", "0", "1", "-1", "1/2", "2/3", "1/0", "x", "a", "b", "c",
                     "Q", "R", "S1", "line", "cyclic", "circle", "1e3", "1e400"]))
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.sampled_from(KEYS), kids,
                                                                max_size=3),
    max_leaves=6)


def _places(node, path=()):
    """Every (container path, key) of the document, the root included."""
    out = [path]
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        out += _places(child, path + (key,))
    return out


@st.composite
def mutated(draw, docs):
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_places(doc)))
        value = draw(VALUES)
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            parent[path[-1]] = value
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], list):
            parent[path[-1]].append(value)
        elif isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(st.sampled_from(KEYS))] = value
        else:
            parent[path[-1]] = value
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check(command, doc, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run([command, str(path), *flags])
    assert code in (0, 2, 3), (code, err)
    if code == 0:
        assert err == ""
    elif err:
        assert json.loads(err)["ok"] is False
    else:
        assert command == "validate"
        assert json.loads(out)["ok"] is False
    return code


fuzz = settings(max_examples=300, deadline=None, derandomize=True)


@fuzz
@given(mutated(MAP_DOCS))
def test_validate_keeps_the_error_contract(doc):
    _check("validate", doc)


@fuzz
@given(mutated(MAP_DOCS))
def test_compute_keeps_the_error_contract(doc):
    _check("compute", doc)


@fuzz
@given(mutated(MAP_DOCS), st.sampled_from([["1", "0"], ["x", "1"], ["0", "1e400"], ["0", "1"],
                                           ["1/3", "7/3"], ["-1/2", "3/2"], ["-1", "-1/3"]]),
       st.sampled_from([[], ["--degrees", "0"], ["--degrees", "0,1"], ["--degrees", "-1"]]))
def test_cover_keeps_the_error_contract(doc, window, degrees):
    _check("cover", doc, "--window", *window, *degrees)


@fuzz
@given(mutated(MAP_DOCS), st.sampled_from(["-1/10", "0", "1/10", "1e400", "1/10,-1/10"]),
       st.booleans(), st.integers(0, 2), st.sampled_from([-1, 0, 1, 2, 5]))
def test_stability_keeps_the_error_contract(doc, schedule, joined, trials, degree):
    spelled = [f"--schedule={schedule}"] if joined else ["--schedule", schedule]
    code = _check("stability", doc, *spelled, "--trials", str(trials), "--degree", str(degree))
    if code == 0:  # a degree above the complex dimension is an input error
        assert degree <= max(load_document(doc).table.dim, 0)


@fuzz
@given(mutated(REP_DOCS))
def test_decompose_keeps_the_error_contract(doc):
    _check("decompose", doc)


@fuzz
@given(mutated(INVARIANT_DOCS), st.sampled_from([[], ["--json"]]))
def test_render_keeps_the_error_contract(doc, flags):
    _check("render", doc, "--degree", "0", *flags)
