"""End-to-end command line tests: exit codes, JSON output, SVG, errors."""

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

from rep_fixtures import conjugated, direct_sum, line_shell
from test_reachability import CIRCLE
from tamebars import cli
from tamebars.cli import main
from tamebars.cutting import CUT_LIMIT, LevelNotCut
from tamebars.field import field_from_spec
from tamebars.matrix import Mat
from tamebars.quiver import bar_from_support, line_slots, summand_module

HEIGHT_DOC = {
    "field": "Q",
    "target": "R",
    "vertices": [
        {"id": "a", "value": "0"},
        {"id": "b", "value": "1"},
        {"id": "c", "value": "1"},
    ],
    "simplices": [["a", "b"], ["a", "c"], ["b", "c"]],
}

WRAP_DOC = {
    "field": "Q",
    "target": "S1",
    "vertices": [
        {"id": "a", "value": {"angle": "0"}},
        {"id": "b", "value": {"angle": "1/3"}},
        {"id": "c", "value": {"angle": "2/3"}},
    ],
    "simplices": [["a", "b"], ["b", "c"], ["a", "c"]],
    "windings": [{"edge": ["a", "c"], "w": -1}],
}

BAD_COCYCLE_DOC = {
    "field": "Q",
    "target": "S1",
    "vertices": [
        {"id": "a", "value": {"angle": "0"}},
        {"id": "b", "value": {"angle": "1/3"}},
        {"id": "c", "value": {"angle": "2/3"}},
    ],
    "simplices": [["a", "b", "c"]],
    "windings": [{"edge": ["a", "b"], "w": 1}],
}

EQ2_REP = {
    "field": "Q",
    "shape": "cyclic",
    "m": 1,
    "dims": {"1": 1, "2": 1},
    "arrows": [
        {"at": 1, "dir": 1, "matrix": [["2"]]},
        {"at": 1, "dir": -1, "matrix": [["1"]]},
    ],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ----------------------------------------------------------------------


def test_validate_clean_input(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", write(tmp_path, "h.json", HEIGHT_DOC))
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["dim"] == 1
    assert doc["vertices"] == 3
    assert len(doc["synthesized_faces"]) == 3
    assert doc["isolated_vertices"] == []


def test_validate_lists_an_isolated_vertex(tmp_path, capsys):
    alone = _with(HEIGHT_DOC, vertices=HEIGHT_DOC["vertices"] + [{"id": "d", "value": "2"}])
    code, out, _ = run(capsys, "validate", write(tmp_path, "d.json", alone))
    assert code == 0
    doc = json.loads(out)
    assert doc["isolated_vertices"] == ["d"]
    assert "1 vertex(es) appear in no listed simplex" in doc["notes"]


def test_validate_broken_cocycle(tmp_path, capsys):
    code, out, _ = run(capsys, "validate",
                       write(tmp_path, "bad.json", BAD_COCYCLE_DOC))
    assert code == 2
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["error"] == "CocycleViolation"
    assert doc["triangle"] == ["a", "b", "c"]


@pytest.mark.parametrize("target, value", [("R", "0"), ("S1", {"angle": "0"})])
def test_validate_refuses_a_complex_with_no_vertices(tmp_path, capsys, target, value):
    # validate agrees with every computing subcommand, which needs a level
    empty = {"field": "Q", "target": target, "vertices": [], "simplices": []}
    refused = {"ok": False, "error": "EmptyComplex", "detail": "complex has no vertices"}
    path = write(tmp_path, "empty.json", empty)
    code, out, _ = run(capsys, "validate", path)
    assert (code, json.loads(out)) == (2, refused)
    code, out, err = run(capsys, "compute", path)
    assert (code, out, json.loads(err)) == (2, "", refused)
    # one vertex and no simplex is a point: it validates and computes
    point = write(tmp_path, "point.json", dict(empty, vertices=[{"id": "a", "value": value}]))
    for command in ("validate", "compute"):
        code, out, err = run(capsys, command, point)
        assert code == 0, err


def test_validate_missing_key(tmp_path, capsys):
    code, out, _ = run(capsys, "validate",
                       write(tmp_path, "bad.json", {"field": "Q"}))
    assert code == 2
    assert json.loads(out)["error"] == "MalformedInput"


def test_validate_missing_file(tmp_path, capsys):
    code, out, _ = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert json.loads(out)["error"] == "FileNotFoundError"


# -- compute -----------------------------------------------------------------------


def test_compute_real_fixture(tmp_path, capsys):
    code, out, _ = run(capsys, "compute", write(tmp_path, "h.json", HEIGHT_DOC))
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["target"] == "real"
    bars0 = doc["degrees"]["0"]["bars"]
    assert {(b["lo"], b["hi"], b["left_closed"], b["right_closed"])
            for b in bars0} == {("0", "1", True, True), ("0", "1", False, False)}
    assert doc["degrees"]["0"]["betti"] == 1
    assert doc["degrees"]["1"]["betti"] == 1


def test_compute_field_override(tmp_path, capsys):
    path = write(tmp_path, "h.json", HEIGHT_DOC)
    code, out, _ = run(capsys, "compute", path, "--field", "F2")
    assert code == 0
    assert json.loads(out)["field"] == {"Fp": 2}
    code, _, err = run(capsys, "compute", path, "--field", "F4")
    assert code == 2
    assert json.loads(err)["error"] == "FieldError"
    fp = write(tmp_path, "fp.json", _with(HEIGHT_DOC, field={"Fp": 5}))
    code, out, _ = run(capsys, "compute", fp, "--field", "Q")
    assert code == 0
    assert json.loads(out)["field"] == "Q"


def test_compute_degree_filter(tmp_path, capsys):
    path = write(tmp_path, "h.json", HEIGHT_DOC)
    code, out, _ = run(capsys, "compute", path, "--degrees", "1")
    assert code == 0
    assert set(json.loads(out)["degrees"]) == {"1"}
    code, _, err = run(capsys, "compute", path, "--degrees", "7")
    assert code == 2
    assert json.loads(err)["error"] == "MalformedInput"


@pytest.mark.parametrize("doc", [HEIGHT_DOC, WRAP_DOC])
def test_compute_check_passes(tmp_path, capsys, doc):
    code, out, _ = run(capsys, "compute",
                       write(tmp_path, "in.json", doc), "--check")
    assert code == 0
    assert json.loads(out)["checked"] is True


def _with(doc, **changes):
    out = json.loads(json.dumps(doc))
    out.update(changes)
    return out


def test_compute_accepts_simplices_in_any_vertex_order(tmp_path, capsys):
    flipped = _with(HEIGHT_DOC, simplices=[["b", "a"], ["c", "a"], ["c", "b"]])
    code, out, _ = run(capsys, "compute", write(tmp_path, "f.json", flipped))
    assert code == 0
    assert out == run(capsys, "compute", write(tmp_path, "h.json", HEIGHT_DOC))[1]
    code, out, _ = run(capsys, "validate", write(tmp_path, "f.json", flipped))
    assert code == 0
    assert json.loads(out)["synthesized_faces"] == [["a"], ["b"], ["c"]]


@pytest.mark.parametrize("doc", [
    _with(HEIGHT_DOC, simplices=[["a", "b"], ["b", "a"]]),
    _with(HEIGHT_DOC, vertices=HEIGHT_DOC["vertices"] + [{"id": ["a"], "value": "2"}]),
    _with(WRAP_DOC, windings=[{"edge": [["a"], "b"], "w": 1}]),
    _with(WRAP_DOC, windings=[{"edge": 5, "w": 1}]),
    _with(HEIGHT_DOC, simplices=6),
    _with(HEIGHT_DOC, simplices=["ab"]),
    _with(WRAP_DOC, windings=False),
    _with(WRAP_DOC, windings=[{"edge": ["a", "a"], "w": 1}]),
], ids=["reordered-duplicate", "list-vertex-id", "list-in-winding-edge", "number-as-winding-edge",
        "number-as-simplices", "string-as-simplex", "bool-as-windings", "loop-as-winding-edge"])
def test_compute_malformed_documents_exit_2(tmp_path, capsys, doc):
    code, out, err = run(capsys, "compute", write(tmp_path, "bad.json", doc))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MalformedInput"


def test_compute_keeps_exact_bars_beyond_float_range(tmp_path, capsys):
    # exact throughout; only the display polynomial is in floating point
    huge = _with(HEIGHT_DOC, vertices=HEIGHT_DOC["vertices"][:2] + [{"id": "c", "value": "1e400"}])
    code, out, _ = run(capsys, "compute", write(tmp_path, "huge.json", huge))
    assert code == 0
    degrees = json.loads(out)["degrees"]
    assert [(b["lo"], b["hi"]) for b in degrees["0"]["bars"]] == [("0", str(10**400))] * 2
    assert degrees["1"]["configuration"] == [[str(10**400), "0"]]
    assert [d["polynomial"] for d in degrees.values()] == [None, None]


def test_compute_check_failure_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_identity_failures", lambda loaded, bundle: ["forced"])
    code, out, err = run(capsys, "compute",
                         write(tmp_path, "h.json", HEIGHT_DOC), "--check")
    assert code == 3
    assert out == ""
    assert json.loads(err)["failures"] == ["forced"]


# Each counting identity that --check re-derives, forced off by one, and the
# start its failure lines must have: the degree, then the level or window.
LEVEL = r"degree \d+ level -?\d+(/\d+)?: "
OFF_BY_ONE = {
    "global_betti": (lambda f: lambda b, r: f(b, r) + 1,
                     r"degree \d+: global betti \d+, direct \d+$"),
    "canonical_check": (lambda f: lambda b, r, want: f(b, r, want + 1),
                        r"degree \d+: pairing-matrix count does not match$"),
    "fiber_betti_at": (lambda f: lambda b, r, v: f(b, r, v) + 1,
                       LEVEL + "fiber betti mismatch$"),
    "image_dim_at": (lambda f: lambda b, r, v: f(b, r, v) + 1,
                     LEVEL + "image rank mismatch$"),
    "cover_formulas": (lambda f: lambda b, r, a, c: (f(b, r, a, c)[0] + 1,) + f(b, r, a, c)[1:],
                       r"degree \d+ window \[\d+(/\d+)?, \d+\]: cover count mismatch$"),
}


@pytest.mark.parametrize("name", sorted(OFF_BY_ONE))
def test_compute_check_names_each_failed_identity(tmp_path, capsys, monkeypatch, name):
    wrap, line = OFF_BY_ONE[name]
    monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
    code, out, err = run(capsys, "compute", write(tmp_path, "w.json", WRAP_DOC), "--check")
    assert code == 3
    assert out == ""
    report = json.loads(err)
    assert report["error"] == "IdentityCheckFailure"
    assert report["failures"]
    assert all(re.match(line, f) for f in report["failures"]), report["failures"]


def test_compute_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "w.json", WRAP_DOC)
    out1 = str(tmp_path / "run1.json")
    out2 = str(tmp_path / "run2.json")
    assert main(["compute", path, "--out", out1]) == 0
    assert main(["compute", path, "--out", out2]) == 0
    capsys.readouterr()
    b1 = (tmp_path / "run1.json").read_bytes()
    b2 = (tmp_path / "run2.json").read_bytes()
    assert b1 and b1 == b2


def test_optimized_interpreter_leaves_compute_check_output_unchanged(tmp_path):
    # invariants are typed errors, not asserts, so -O changes nothing
    path = write(tmp_path, "w.json", WRAP_DOC)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    outs = []
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-m", "tamebars.cli", "compute",
                               "--check", path], env=env, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_out_flag_writes_file_only(tmp_path, capsys):
    path = write(tmp_path, "h.json", HEIGHT_DOC)
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "validate", path, "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["ok"] is True


def test_unwritable_out_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "h.json", HEIGHT_DOC)
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run(capsys, "compute", path, "--out", str(target))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "FileNotFoundError"


def test_sympy_is_imported_only_to_factor(tmp_path):
    # the package factors polynomials itself: no subcommand loads sympy, not
    # even those that split off Jordan cells (a fresh interpreter, since this
    # test process may already hold sympy)
    real = write(tmp_path, "h.json", HEIGHT_DOC)
    circle = write(tmp_path, "c.json", WRAP_DOC)
    rep = write(tmp_path, "r.json", EQ2_REP)
    script = "import sys, tamebars.cli as cli\n"
    for cmd, path in [("compute", real), ("compute", circle), ("decompose", rep)]:
        script += (f"print(cli.main([{cmd!r}, {path!r}, '--out', {path!r} + '.out']))\n"
                   "print('sympy' in sys.modules)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"] * 3
    # the circle target did factor a monodromy polynomial
    assert json.loads(Path(circle + ".out").read_text())["degrees"]["0"]["jordan_cells"]


# -- decompose ---------------------------------------------------------------------


def test_decompose_eigenvalue_convention(tmp_path, capsys):
    code, out, _ = run(capsys, "decompose", write(tmp_path, "r.json", EQ2_REP))
    assert code == 0
    doc = json.loads(out)
    assert doc["bars"] == []
    assert doc["cells"] == [
        {"poly": ["-2", "1"], "size": 1, "dim": 1, "eigenvalue": "2"}]
    assert doc["certified"] is True


def test_decompose_zero_rep(tmp_path, capsys):
    rep = {"field": "Q", "shape": "cyclic", "m": 1, "dims": {"1": 0, "2": 0},
           "arrows": [{"at": 1, "dir": 1, "matrix": []},
                      {"at": 1, "dir": -1, "matrix": []}]}
    code, out, _ = run(capsys, "decompose", write(tmp_path, "r.json", rep))
    assert code == 0
    doc = json.loads(out)
    assert doc["bars"] == [] and doc["cells"] == []
    assert doc["total_dim"] == 0


def test_decompose_line_shape(tmp_path, capsys):
    rep = {"field": "Q", "shape": "line", "lo": 2, "hi": 2,
           "dims": {"2": 1}, "arrows": []}
    code, out, _ = run(capsys, "decompose", write(tmp_path, "r.json", rep))
    assert code == 0
    doc = json.loads(out)
    assert doc["shape"] == "line"
    assert doc["bars"] == [{"i": 1, "j": 1, "wraps": 0, "left_closed": True,
                            "right_closed": True, "label": "[1, 1]"}]
    assert "cells" not in doc


def test_decompose_integer_entries_accepted(tmp_path, capsys):
    rep = {"field": {"Fp": 5}, "shape": "cyclic", "m": 1,
           "dims": {"1": 1, "2": 1},
           "arrows": [{"at": 1, "dir": 1, "matrix": [[3]]},
                      {"at": 1, "dir": -1, "matrix": [[1]]}]}
    code, out, _ = run(capsys, "decompose", write(tmp_path, "r.json", rep))
    assert code == 0
    assert json.loads(out)["cells"][0]["eigenvalue"] == "3"


# Entry strings at the edge of the integer fast path, with the eigenvalue
# that a 1x1 cycle with that alpha and beta = 1 has, or None where the
# entry is refused: what Fraction(str) accepts stays accepted, and nothing
# else is, nor an exponent past 4300.
ODD_ENTRIES = [
    ("Q", " 1", "1"), ("Q", "1_0", "10"), ("Q", "+3", "3"), ("Q", "\u0663", "3"),
    ("Q", "1e3", "1000"), ("Q", "-12", "-12"), ("Q", "007", "7"), ("Q", "-07", "-7"),
    ({"Fp": 7}, "-12", "2"), ({"Fp": 7}, "+3", "3"),
    ("Q", "0x1", None), ("Q", "", None), ("Q", "-", None), ("Q", "--1", None),
    ("Q", "1/0", None), ("Q", "9" * 5000, None), ("Q", "-" + "9" * 5000, None),
    ("Q", "1e4301", None), ("Q", "-1E-4301", None),
]


@pytest.mark.parametrize("field, entry, eigenvalue", ODD_ENTRIES,
                         ids=[f"{f}-{e[:8]!r}" for f, e, _ in ODD_ENTRIES])
def test_decompose_reads_odd_entry_strings_as_fraction_does(tmp_path, capsys, field,
                                                           entry, eigenvalue):
    rep = {"field": field, "shape": "cyclic", "m": 1, "dims": {"1": 1, "2": 1},
           "arrows": [{"at": 1, "dir": 1, "matrix": [[entry]]},
                      {"at": 1, "dir": -1, "matrix": [["1"]]}]}
    code, out, err = run(capsys, "decompose", write(tmp_path, "r.json", rep))
    if eigenvalue is None:
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "MalformedInput"
    else:
        assert code == 0, err
        assert [c["eigenvalue"] for c in json.loads(out)["cells"]] == [eigenvalue]


@pytest.mark.parametrize("doc", [
    {"field": "Q", "shape": "cyclic", "m": 1, "dims": {"1": 1, "2": 1}},
    {"field": "Q", "shape": "spiral", "dims": {}, "arrows": []},
    {"field": "Q", "shape": "cyclic", "m": 1, "dims": {"1": 1, "2": 1},
     "arrows": [{"at": 1, "dir": 1, "matrix": [["1", "1"]]},
                {"at": 1, "dir": -1, "matrix": [["1"]]}]},
    {"field": "Q", "shape": "cyclic", "m": 1, "dims": {"1": 1, "2": 1},
     "arrows": [{"at": 2, "dir": 1, "matrix": [["1"]]},
                {"at": 1, "dir": -1, "matrix": [["1"]]}]},
])
def test_decompose_rejects_malformed(tmp_path, capsys, doc):
    code, _, err = run(capsys, "decompose", write(tmp_path, "r.json", doc))
    assert code == 2
    assert json.loads(err)["ok"] is False


@pytest.mark.parametrize("command,doc,detail", [
    ("render", {"degrees": {"0": {"configuration": [[None, "1"]]}}}, "got None"),
    ("render", {"degrees": {"0": {"configuration": [["1"]]}}}, "list of [x, y] pairs"),
    ("render", {"degrees": {"0": 5}}, "list of [x, y] pairs"),
    ("decompose", _with(EQ2_REP, arrows=5), "arrows must be a list"),
    ("decompose", _with(EQ2_REP, arrows=[{"at": 1, "dir": 1, "matrix": [["1/0"]]},
                                         {"at": 1, "dir": -1, "matrix": [["1"]]}]),
     "bad fraction '1/0'"),
    ("decompose", _with(EQ2_REP, dims={"1": -1, "2": 1}), "dimensions must be nonnegative"),
    ("decompose", _with(EQ2_REP, arrows=EQ2_REP["arrows"] + EQ2_REP["arrows"][:1]),
     "repeated arrow (1, 1)"),
], ids=["render-null-coordinate", "render-unpaired-point", "render-number-as-degree",
        "decompose-number-as-arrows", "decompose-zero-denominator", "decompose-negative-dim",
        "decompose-repeated-arrow"])
def test_malformed_documents_exit_2_with_json_error(tmp_path, capsys, command, doc, detail):
    argv = [command, write(tmp_path, "bad.json", doc)]
    if command == "render":
        argv += ["--degree", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MalformedInput"
    assert detail in json.loads(err)["detail"]


@pytest.mark.parametrize("doc", [
    _with(EQ2_REP, dims={"1": True, "2": 1}),
    _with(EQ2_REP, dims={"1": "1", "2": 1}),
    _with(EQ2_REP, dims={"1": 1.7, "2": 1}),
    _with(EQ2_REP, m=True),
    _with(EQ2_REP, arrows=[{"at": True, "dir": 1, "matrix": [["2"]]},
                           {"at": 1, "dir": -1, "matrix": [["1"]]}]),
    _with(EQ2_REP, arrows=[{"at": 1, "dir": 1.0, "matrix": [["2"]]},
                           {"at": 1, "dir": -1, "matrix": [["1"]]}]),
    {"field": "Q", "shape": "line", "lo": True, "hi": 1, "dims": {"1": 1}, "arrows": []},
], ids=["dims-bool", "dims-string", "dims-float", "m-bool", "at-bool", "dir-float",
        "lo-bool"])
def test_decompose_accepts_only_json_integers(tmp_path, capsys, doc):
    # each of these values used to load as the integer 1 and decompose
    code, out, err = run(capsys, "decompose", write(tmp_path, "r.json", doc))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MalformedInput"


@pytest.mark.parametrize("dims", [
    {"1": 1, "0_2": 1}, {"1": 1, " 2": 1}, {"1": 1, "+2": 1}, {"1": 1, "-0": 0, "2": 1},
    {"1": 1, "x": 1, "2": 1},
], ids=["underscore", "space", "plus", "minus-zero", "letter"])
def test_decompose_rejects_dims_keys_that_are_not_vertex_numbers(tmp_path, capsys, dims):
    # int() reads each of these keys but the letter as a vertex; they used
    # to decompose
    code, out, err = run(capsys, "decompose", write(tmp_path, "r.json", _with(EQ2_REP, dims=dims)))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MalformedInput"
    assert "is not a vertex number" in json.loads(err)["detail"]


def test_decompose_rejects_two_dims_keys_for_one_vertex(tmp_path, capsys):
    # used to keep the last key's 3 and fail on the arrow shape instead
    doc = _with(EQ2_REP, dims={"1": 1, "2": 1, "02": 3})
    code, out, err = run(capsys, "decompose", write(tmp_path, "r.json", doc))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MalformedInput"
    assert "'02'" in json.loads(err)["detail"]


def test_decompose_rejects_a_repeated_dims_key(tmp_path, capsys):
    # json.load used to keep the last "2" and fail on the arrow shape instead
    text = json.dumps(EQ2_REP).replace('"dims": {"1": 1, "2": 1}',
                                       '"dims": {"1": 1, "2": 1, "2": 2}')
    path = tmp_path / "r.json"
    path.write_text(text)
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"ok": False, "error": "MalformedInput",
                               "detail": "repeated key '2'"}


def test_compute_rejects_a_repeated_top_level_key(tmp_path, capsys):
    # the last "field" used to win silently, and the run exited 0
    path = tmp_path / "h.json"
    path.write_text(json.dumps(HEIGHT_DOC)[:-1] + ', "field": {"Fp": 5}}')
    code, out, err = run(capsys, "compute", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"ok": False, "error": "MalformedInput",
                               "detail": "repeated key 'field'"}


@pytest.mark.parametrize("doc", [
    _with(EQ2_REP, dims={"1": 1, "2": 1, "7": 1}),
    {"field": "Q", "shape": "line", "lo": -1, "hi": 0, "dims": {"-1": 1, "0": 1, "1": 1},
     "arrows": [{"at": -1, "dir": 1, "matrix": [["1"]]}]},
], ids=["cyclic", "line"])
def test_decompose_rejects_dims_outside_the_shape(tmp_path, capsys, doc):
    # these vertices used to be dropped without a word
    code, out, err = run(capsys, "decompose", write(tmp_path, "r.json", doc))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "MalformedInput"
    assert "outside the shape" in json.loads(err)["detail"]


def test_decompose_accepts_negative_vertex_keys(tmp_path, capsys):
    doc = {"field": "Q", "shape": "line", "lo": -1, "hi": 0, "dims": {"-1": 1, "0": 1},
           "arrows": [{"at": -1, "dir": 1, "matrix": [["1"]]}]}
    code, out, _ = run(capsys, "decompose", write(tmp_path, "r.json", doc))
    assert code == 0
    assert [b["label"] for b in json.loads(out)["bars"]] == ["(-1, 0]"]


def _line_bar(a, b):
    """The `decompose` record of the bar on window positions a..b: closed ends
    on even positions, open ends on odd ones."""
    i, j = a // 2, (b + 1) // 2
    label = f"{'[' if a % 2 == 0 else '('}{i}, {j}{']' if b % 2 == 0 else ')'}"
    return {"i": i, "j": j, "wraps": 0, "left_closed": a % 2 == 0,
            "right_closed": b % 2 == 0, "label": label}


def _planted_line_doc(spec, lo, hi):
    """A `line` document of a scrambled sum of bars on the window lo..hi,
    some touching both ends, and the `decompose` records of those bars."""
    field = field_from_spec(spec)
    mid = (lo + hi) // 2
    supports = [(lo, hi), (lo, lo), (hi, hi), (lo, mid), (mid, hi), (mid, mid)]
    shell, s = line_shell(field, lo, hi)
    mods = [summand_module(field, bar_from_support(a - s, b - s, shell.m), shell)
            for a, b in supports]
    rep = conjugated(direct_sum(mods), random.Random(hi - lo))
    doc = {"field": spec, "shape": "line", "lo": lo, "hi": hi,
           "dims": {str(p): rep.dims[p - s] for p in range(lo, hi + 1)},
           "arrows": [{"at": o, "dir": d,
                       "matrix": [[field.to_str(x) for x in row]
                                  for row in rep.maps[(o - s, d)].rows]}
                      for o, d in line_slots(lo, hi)]}
    want = sorted((_line_bar(a, b) for a, b in supports),
                  key=lambda r: (r["i"], r["j"], not r["left_closed"], not r["right_closed"]))
    return doc, want


@pytest.mark.parametrize("spec", ["Q", {"Fp": 5}], ids=["Q", "F5"])
@pytest.mark.parametrize("lo, hi", [(1, 5), (2, 6), (-3, 1), (-2, 3), (4, 4), (5, 5)])
def test_decompose_line_format_is_pinned(tmp_path, capsys, spec, lo, hi):
    # bars print in the window's frame whatever the placement on the cycle
    doc, want = _planted_line_doc(spec, lo, hi)
    assert doc["dims"][str(lo)] > 0 and doc["dims"][str(hi)] > 0
    code, out, err = run(capsys, "decompose", write(tmp_path, "r.json", doc))
    assert (code, err) == (0, "")
    got = json.loads(out)
    assert got == {"field": spec, "shape": "line", "total_dim": sum(doc["dims"].values()),
                   "bars": want, "certified": True}

    o = hi if hi % 2 else hi + 1  # an arrow between hi and hi + 1
    d = 1 if hi % 2 else -1
    bad = [(_with(doc, lo=hi + 1), "RepresentationError", "window is empty"),
           (_with(doc, arrows=doc["arrows"] + [{"at": o, "dir": d, "matrix": []}]),
            "RepresentationError", f"unexpected arrow key ({o}, {d:+d})"),
           (_with(doc, dims={**doc["dims"], str(lo - 1): 0, str(hi + 1): 1}),
            "MalformedInput", f"dims name vertices outside the shape: {[lo - 1, hi + 1]}")]
    if doc["arrows"]:
        last = doc["arrows"][-1]
        bad.append((_with(doc, arrows=doc["arrows"][:-1]), "RepresentationError",
                    f"missing arrow matrix at ({last['at']}, {last['dir']:+d})"))
    for broken, error, detail in bad:
        code, out, err = run(capsys, "decompose", write(tmp_path, "bad.json", broken))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"ok": False, "error": error, "detail": detail}


@pytest.mark.parametrize("doc, detail", [
    ({"field": "Q", "shape": "cyclic", "m": 10**9, "dims": {}, "arrows": []},
     "missing arrow matrix at (1, -1)"),
    ({"field": "Q", "shape": "cyclic", "m": 10**9, "dims": {"1": 1, "2": 1, str(2 * 10**9): 1},
      "arrows": [{"at": 1, "dir": 1, "matrix": [[1]]}, {"at": 1, "dir": -1, "matrix": [[1]]}]},
     "missing arrow matrix at (3, -1)"),
    ({"field": "Q", "shape": "line", "lo": 1, "hi": 2 * 10**9, "dims": {}, "arrows": []},
     "missing arrow matrix at (1, +1)"),
], ids=["cyclic", "cyclic-two-arrows", "line"])
def test_decompose_refuses_a_long_shape_with_few_arrows_at_once(tmp_path, capsys, doc, detail):
    # the first missing slot is found before anything of the shape's length
    # is built, so memory and time do not grow with m or the window
    start = time.perf_counter()
    code, out, err = run(capsys, "decompose", write(tmp_path, "r.json", doc))
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert json.loads(err) == {"ok": False, "error": "RepresentationError", "detail": detail}


# -- render ------------------------------------------------------------------------


def compute_to_file(tmp_path, doc, name):
    src = write(tmp_path, name + ".in.json", doc)
    dst = str(tmp_path / (name + ".inv.json"))
    assert main(["compute", src, "--out", dst]) == 0
    return dst


def test_render_plane_points(tmp_path, capsys):
    inv = compute_to_file(tmp_path, HEIGHT_DOC, "h")
    capsys.readouterr()
    code, out, _ = run(capsys, "render", inv, "--degree", "0")
    assert code == 0
    assert out.startswith("<svg")
    assert out.count(f'fill="{cli._BLUE}"') == 1
    assert out.count(f'fill="{cli._RED}"') == 0
    code, out, _ = run(capsys, "render", inv, "--degree", "1")
    assert out.count(f'fill="{cli._BLUE}"') == 0
    assert out.count(f'fill="{cli._RED}"') == 1


def test_render_empty_cylinder_chart(tmp_path, capsys):
    inv = compute_to_file(tmp_path, WRAP_DOC, "w")
    capsys.readouterr()
    code, out, _ = run(capsys, "render", inv, "--degree", "1")
    assert code == 0
    assert "punctured-plane chart" in out
    assert cli._BLUE not in out and cli._RED not in out
    assert 'stroke-dasharray' in out


def test_render_cylinder_chart_points(tmp_path, capsys):
    # the triangle folds onto the arc [0, 1/2]: one open degree-0 bar (0, 1/2)
    fold = json.loads(json.dumps(WRAP_DOC))
    fold["vertices"][1]["value"]["angle"] = "1/4"
    fold["vertices"][2]["value"]["angle"] = "1/2"
    fold["windings"] = []
    inv = compute_to_file(tmp_path, fold, "f")
    capsys.readouterr()
    code, out, _ = run(capsys, "render", inv, "--degree", "1")
    assert code == 0
    assert "punctured-plane chart" in out
    assert out.count(f'fill="{cli._RED}"') == 1
    assert out.count(f'fill="{cli._BLUE}"') == 0
    assert "<title>(0.5, 0)</title>" in out


def test_render_pads_a_lone_point_on_the_diagonal(tmp_path, capsys):
    # the point spans no range, so the chart spans one unit around it
    doc = {"target": "R", "degrees": {"0": {"configuration": [["1", "1"]]}}}
    code, out, _ = run(capsys, "render", write(tmp_path, "d.json", doc), "--degree", "0")
    assert code == 0
    assert ">0.42</text>" in out and ">1.58</text>" in out
    assert out.count(f'fill="{cli._BLUE}"') == 1


def test_render_json_mode(tmp_path, capsys):
    inv = compute_to_file(tmp_path, HEIGHT_DOC, "h")
    capsys.readouterr()
    code, out, _ = run(capsys, "render", inv, "--degree", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == [{"x": "1", "y": "0", "kind": "open"}]


@pytest.mark.parametrize("target, config, flags", [
    ("R", [["1e400", "1"]], []),
    ("R", [["-1e308", "1e308"]], []),
    ("circle", [["1e3", "4/3"]], []),
    ("circle", [["1e3", "4/3"]], ["--json"]),
], ids=["plane-overflow", "plane-span-overflow", "cylinder-overflow", "cylinder-json-overflow"])
def test_render_beyond_float_range_exit_2(tmp_path, capsys, target, config, flags):
    doc = {"target": target, "degrees": {"0": {"configuration": config}}}
    code, out, err = run(capsys, "render", write(tmp_path, "far.json", doc), "--degree", "0", *flags)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "BeyondFloatRange"


def test_render_missing_degree(tmp_path, capsys):
    inv = compute_to_file(tmp_path, HEIGHT_DOC, "h")
    capsys.readouterr()
    code, _, err = run(capsys, "render", inv, "--degree", "5")
    assert code == 2
    assert json.loads(err)["error"] == "MissingDegree"


def test_render_rejects_non_invariants_document(tmp_path, capsys):
    path = write(tmp_path, "h.json", HEIGHT_DOC)
    code, _, err = run(capsys, "render", path, "--degree", "0")
    assert code == 2
    assert json.loads(err)["error"] == "MalformedInput"


# -- cover -------------------------------------------------------------------------


def test_cover_window_counts(tmp_path, capsys):
    path = write(tmp_path, "w.json", WRAP_DOC)
    code, out, _ = run(capsys, "cover", path, "--window", "0", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"]["0"] == {"slice_betti": 1, "into_cover": 1,
                                   "into_base": 1}
    assert doc["degrees"]["1"] == {"slice_betti": 0, "into_cover": 0,
                                   "into_base": 0}


def test_cover_degree_filter_and_errors(tmp_path, capsys):
    path = write(tmp_path, "w.json", WRAP_DOC)
    code, out, _ = run(capsys, "cover", path, "--window", "0", "2",
                       "--degrees", "0")
    assert code == 0
    assert set(json.loads(out)["degrees"]) == {"0"}
    code, _, err = run(capsys, "cover", path, "--window", "1", "1")
    assert code == 2
    real = write(tmp_path, "h.json", HEIGHT_DOC)
    code, _, err = run(capsys, "cover", real, "--window", "0", "1")
    assert code == 2
    assert "circle" in json.loads(err)["detail"]


def test_cover_counts_a_long_window_at_once(tmp_path, capsys):
    # two degree-1 classes per turn over 10^9 turns, counted without
    # visiting the translates one by one
    path = write(tmp_path, "c.json", CIRCLE)
    start = time.perf_counter()
    code, out, _ = run(capsys, "cover", path, "--window", "0", "1000000000")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["degrees"]["1"] == {"slice_betti": 2 * 10**9,
                                               "into_cover": 2 * 10**9, "into_base": 2}


def test_cover_counts_a_window_wider_than_sys_maxsize(tmp_path, capsys):
    # the path c-a, b-c winds once: one closed bar [1/3, 1] in degree 0, so
    # [0, N] meets N + 1 of its translates, a count len() cannot return
    path = write(tmp_path, "p.json", _with(WRAP_DOC, simplices=[["b", "c"], ["a", "c"]]))
    code, out, _ = run(capsys, "cover", path, "--window", "0", "1e400")
    assert code == 0
    assert json.loads(out)["degrees"]["0"] == {"slice_betti": 10**400 + 1,
                                               "into_cover": 10**400 + 1, "into_base": 1}


@pytest.mark.parametrize("window", [["-1/2", "3/2"], ["-1", "-1/3"], ["-.5", "1.5"]])
def test_cover_takes_negative_window_ends_as_separate_tokens(tmp_path, capsys, window):
    path = write(tmp_path, "w.json", WRAP_DOC)
    code, out, err = run(capsys, "cover", path, "--window", *window)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["window"] == [str(Fraction(end)) for end in window]
    assert doc["degrees"]["0"] == {"slice_betti": 1, "into_cover": 1, "into_base": 1}


@pytest.mark.parametrize("argv", [
    ["compute", "{path}", "--bogus"],
    ["frobnicate", "{path}"],
    ["cover", "{path}", "--window", "0"],
    ["stability", "{path}"],
    ["stability", "{path}", "--schedule", "1/10", "--trials", "x"],
    [],
], ids=["unknown-option", "unknown-command", "one-window-end", "no-schedule",
        "trials-not-int", "nothing"])
def test_usage_errors_exit_2_with_json_error(tmp_path, capsys, argv):
    path = write(tmp_path, "w.json", WRAP_DOC)
    code, out, err = run(capsys, *[a.format(path=path) for a in argv])
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert (doc["ok"], doc["error"]) == (False, "UsageError") and doc["detail"]


@pytest.mark.parametrize("flag, value, error", [
    ("--degrees", "\u00b2", "MalformedInput"),
    ("--degrees", "\u0661", "MalformedInput"),
    ("--degrees", "1" * 5000, "MalformedInput"),
    ("--field", "F\u00b2", "FieldError"),
    ("--field", "F" + "7" * 5000, "FieldError"),
], ids=["degree-superscript", "degree-arabic-indic", "degree-overlong",
        "field-superscript", "field-overlong"])
def test_option_values_take_ascii_digits_only(tmp_path, capsys, flag, value, error):
    # str.isdigit passes all of these; int() refuses the superscript and the
    # overlong ones and reads the Arabic-Indic one as 1
    code, out, err = run(capsys, "compute", write(tmp_path, "h.json", HEIGHT_DOC), flag, value)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv", [
    ["render", "{inv}", "--degree", "\u0661"],
    ["stability", "{doc}", "--schedule", "1/10", "--degree", "\u0661"],
    ["stability", "{doc}", "--schedule", "1/10", "--trials", "\u0661"],
    ["stability", "{doc}", "--schedule", "1/10", "--trials", "1", "--seed", "\u0661"],
], ids=["render-degree", "stability-degree", "stability-trials", "stability-seed"])
def test_integer_options_take_ascii_digits_only(tmp_path, capsys, argv):
    # int() reads the Arabic-Indic digit one as 1
    inv = compute_to_file(tmp_path, HEIGHT_DOC, "h")
    doc = write(tmp_path, "h.json", HEIGHT_DOC)
    capsys.readouterr()
    code, out, err = run(capsys, *[a.format(inv=inv, doc=doc) for a in argv])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "UsageError"


def _error_of(code, out, err):
    """The exit code and error name of a run; validate reports on stdout."""
    return code, json.loads(out or err)["error"]


@pytest.mark.parametrize("command", ["validate", "compute", "decompose"])
def test_json_nested_past_the_decoder_limit_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert _error_of(*run(capsys, command, str(path))) == (2, "MalformedInput")


@pytest.mark.parametrize("argv", [
    ["compute", "{w}"], ["validate", "{w}"], ["render", "{w}", "--degree", "0"],
    ["cover", "{w}", "--window", "0", "1"], ["compute", "{fp}"],
], ids=["compute", "validate", "render", "cover", "compute-fp"])
def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys, argv):
    # int() refuses more than 4300 digits by default: a winding and a prime
    long = "7" * 5000
    w, fp = tmp_path / "w.json", tmp_path / "fp.json"
    w.write_text(json.dumps(WRAP_DOC).replace('"w": -1', '"w": ' + long))
    fp.write_text(json.dumps(_with(HEIGHT_DOC, field={"Fp": 0})).replace('"Fp": 0', '"Fp": ' + long))
    got = run(capsys, *[a.format(w=w, fp=fp) for a in argv])
    assert _error_of(*got) == (2, "MalformedInput")


def _run_fresh(argv):
    """A command run in a fresh process, which a timeout can stop."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "tamebars.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize("argv", [
    ["compute", "{value}"], ["decompose", "{entry}"], ["render", "{point}", "--degree", "0"],
    ["cover", "{circle}", "--window", "0", "1e99999999"],
    ["stability", "{real}", "--schedule", "1e-99999999"],
], ids=["compute", "decompose", "render", "cover", "stability"])
def test_exponent_past_the_digit_limit_exits_2(tmp_path, argv):
    # Fraction builds 10**exponent, which for these exponents would not
    # finish in minutes; a fresh process with a timeout bounds the run
    docs = {
        "value": _with(HEIGHT_DOC, vertices=[{"id": "a", "value": "1e-99999999"}]
                       + HEIGHT_DOC["vertices"][1:]),
        "entry": _with(EQ2_REP, arrows=[{"at": 1, "dir": 1, "matrix": [["1e99999999"]]},
                                        {"at": 1, "dir": -1, "matrix": [["1"]]}]),
        "point": {"degrees": {"0": {"configuration": [["1e99999999", "1"]]}}},
        "circle": WRAP_DOC, "real": HEIGHT_DOC,
    }
    paths = {key: write(tmp_path, key + ".json", doc) for key, doc in docs.items()}
    done = _run_fresh([a.format(**paths) for a in argv])
    assert (done.returncode, done.stdout) == (2, "")
    err = json.loads(done.stderr)
    assert err["error"] == "MalformedInput" and "exponent" in err["detail"]


BIG = "1e4300"  # 10**4300 has 4301 digits, one more than int() writes by default


@pytest.mark.parametrize("argv", [
    ["compute", "{value}"], ["decompose", "{entry}"], ["cover", "{circle}", "--window", "0", BIG],
], ids=["compute", "decompose", "cover"])
def test_values_past_the_digit_limit_are_written(tmp_path, capsys, argv):
    docs = {
        "value": _with(HEIGHT_DOC, vertices=HEIGHT_DOC["vertices"][:2] + [{"id": "c", "value": BIG}]),
        "entry": _with(EQ2_REP, arrows=[{"at": 1, "dir": 1, "matrix": [[BIG]]},
                                        {"at": 1, "dir": -1, "matrix": [["1"]]}]),
        "circle": WRAP_DOC,
    }
    paths = {key: write(tmp_path, key + ".json", doc) for key, doc in docs.items()}
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert (code, err) == (0, "")
    assert '"1' + "0" * 4300 + '"' in out
    assert sys.get_int_max_str_digits() == limit


def test_render_reads_no_value_past_the_digit_limit(tmp_path, capsys):
    # compute writes the bar end 10**4300, which render refuses to read
    big = _with(HEIGHT_DOC, vertices=HEIGHT_DOC["vertices"][:2] + [{"id": "c", "value": BIG}])
    inv = compute_to_file(tmp_path, big, "big")
    for degree in ("0", "1"):
        code, out, err = run(capsys, "render", inv, "--degree", degree)
        assert code in (0, 2), err


@pytest.mark.parametrize("argv", [
    ["compute"], ["compute", "--check"], ["cover", "--window", "0", "1"],
    ["stability", "--schedule", "1/10", "--trials", "1"],
], ids=["compute", "compute-check", "cover", "stability"])
def test_a_huge_winding_is_refused_before_it_is_cut(tmp_path, argv):
    # the edge a-c winds 10**30 times: one cut point per level crossing
    # would never finish, so a fresh process with a timeout bounds the run
    path = write(tmp_path, "w.json", _with(WRAP_DOC, windings=[{"edge": ["a", "c"], "w": 10 ** 30}]))
    done = _run_fresh([argv[0], path, *argv[1:]])
    assert (done.returncode, done.stdout) == (2, "")
    err = json.loads(done.stderr)
    assert err["error"] == "MalformedInput"
    assert err["detail"] == (f"the cut needs {6 * 10 ** 30 + 5} cut points, "
                             f"more than {CUT_LIMIT}")


# -- stability ---------------------------------------------------------------------


def test_stability_report(tmp_path, capsys):
    path = write(tmp_path, "h.json", HEIGHT_DOC)
    code, out, _ = run(capsys, "stability", path, "--schedule", "1/10,1/100",
                       "--trials", "3", "--seed", "5", "--degree", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schedule"] == ["1/10", "1/100"]
    assert len(doc["results"]) == 2
    assert all(row["jordan_violations"] == 0 for row in doc["results"])


def test_stability_distance_beyond_float_range(tmp_path, capsys):
    path = write(tmp_path, "p.json", _with(HEIGHT_DOC, simplices=[["a", "b"], ["b", "c"]]))
    code, out, _ = run(capsys, "stability", path, "--schedule", "1e400",
                       "--trials", "1", "--degree", "0")
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["max_distance"] is None and row["mean_distance"] is None
    assert Fraction(row["max_distance_exact"]) > Fraction(10) ** 308


def test_stability_rejects_bad_flags(tmp_path, capsys):
    path = write(tmp_path, "h.json", HEIGHT_DOC)
    code, _, err = run(capsys, "stability", path, "--schedule", "oops")
    assert code == 2
    code, _, err = run(capsys, "stability", path, "--schedule", "1/10",
                       "--trials", "0")
    assert code == 2
    code, _, err = run(capsys, "stability", path, "--schedule", ",")
    assert code == 2
    assert json.loads(err)["detail"] == "schedule must list at least one epsilon"


@pytest.mark.parametrize("doc, flags, detail", [
    (HEIGHT_DOC, ["--schedule=-1/10"], "epsilon -1/10 is negative"),
    (HEIGHT_DOC, ["--schedule", "-1/10"], "epsilon -1/10 is negative"),
    (WRAP_DOC, ["--schedule", "0,-1/10"], "epsilon -1/10 is negative"),
    (HEIGHT_DOC, ["--schedule", "1/10", "--degree", "-1"], "degree -1 is negative"),
    (WRAP_DOC, ["--schedule", "1/10", "--degree", "-1"], "degree -1 is negative"),
], ids=["epsilon-real", "epsilon-token", "epsilon-circle", "degree-real", "degree-circle"])
def test_stability_refuses_a_negative_epsilon_or_degree_at_once(
        tmp_path, capsys, monkeypatch, doc, flags, detail):
    def no_compute(*args):
        raise AssertionError("computed before the flags were checked")

    monkeypatch.setattr(import_module("tamebars.stability"), "compute_invariants", no_compute)
    code, out, err = run(capsys, "stability", write(tmp_path, "doc.json", doc), *flags)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"ok": False, "error": "ExperimentError", "detail": detail}


@pytest.mark.parametrize("doc", [HEIGHT_DOC, WRAP_DOC], ids=["real", "circle"])
def test_stability_refuses_a_degree_above_the_complex_dimension_at_once(
        tmp_path, capsys, monkeypatch, doc):
    def no_compute(*args):
        raise AssertionError("computed before the degree was checked")

    path = write(tmp_path, "doc.json", doc)
    monkeypatch.setattr(import_module("tamebars.stability"), "compute_invariants", no_compute)
    code, out, err = run(capsys, "stability", path, "--schedule", "1/10", "--degree", "5")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"ok": False, "error": "MalformedInput",
                               "detail": "degree 5 exceeds the complex dimension 1"}
    monkeypatch.undo()
    assert run(capsys, "compute", path, "--degrees", "5")[2] == err


def test_stability_names_an_epsilon_without_a_draw(tmp_path, capsys):
    # every draw of size 1e400 turns lands outside [0, 1) but the zero one
    code, out, err = run(capsys, "stability", write(tmp_path, "doc.json", WRAP_DOC),
                         "--schedule", "1e400", "--trials", "1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "ok": False, "error": "ExperimentError",
        "detail": f"no collision-free draw for vertex 0 at epsilon {10 ** 400}"}


@pytest.mark.parametrize("doc, where", [
    (HEIGHT_DOC, "degree 0, critical value 0, slab [-1, 0]"),
    (WRAP_DOC, "degree 0, critical value 0, slab [-1/6, 0]"),
])
def test_not_tame_names_degree_critical_value_and_slab(tmp_path, capsys, monkeypatch, doc, where):
    # an inclusion-induced map that is zero makes the first arrow non-invertible
    # (the package re-exports a function named homology, so import the module);
    # a real map assembles its representation only under --check
    monkeypatch.setattr(import_module("tamebars.homology"), "induced_map",
                        lambda src, dst: Mat.zeros(dst.field, dst.dim, src.dim))
    code, out, err = run(capsys, "compute", write(tmp_path, "doc.json", doc), "--check")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "ok": False, "error": "NotTame",
        "detail": f"critical fiber does not carry the slab homology: {where}"}


def test_decomposition_error_names_its_degree(tmp_path, capsys, monkeypatch):
    # the certificate gate fails on the second decomposition: degree 1 (a
    # real map is decomposed only under --check)
    quiver = import_module("tamebars.quiver")
    calls = []

    def fail_second(*args):
        calls.append(1)
        return len(calls) < 2

    monkeypatch.setattr(quiver, "verify_certificate", fail_second)
    code, out, err = run(capsys, "compute", write(tmp_path, "doc.json", HEIGHT_DOC), "--check")
    assert (code, out, len(calls)) == (1, "", 2)
    assert json.loads(err) == {"ok": False, "error": "DecompositionError",
                               "detail": "degree 1: certificate verification failed"}


def test_an_uncut_level_is_a_bug_not_bad_input(tmp_path, capsys, monkeypatch):
    # --check asks only for fibers at levels the same call cut, so no input
    # reaches LevelNotCut: it exits 1 like any broken invariant
    def uncut(cc, level):
        raise LevelNotCut(f"level {level} was not cut")

    monkeypatch.setattr(cli, "fiber", uncut)
    code, out, err = run(capsys, "compute", write(tmp_path, "doc.json", WRAP_DOC), "--check")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "LevelNotCut"


def test_chain_that_does_not_lift_is_a_decomposition_error(tmp_path, capsys, monkeypatch):
    # the walk lifts its chain back with try_solve; a step with no solution
    # is a typed error that names its degree (a real map walks only under
    # --check)
    try_solve = Mat.try_solve

    def no_lift_in_walk(self, B):
        if sys._getframe(1).f_code.co_name == "_walk_chain":
            return None
        return try_solve(self, B)

    monkeypatch.setattr(Mat, "try_solve", no_lift_in_walk)
    code, out, err = run(capsys, "compute", write(tmp_path, "doc.json", HEIGHT_DOC), "--check")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"ok": False, "error": "DecompositionError",
                               "detail": "degree 0: chain does not lift back along the walk"}


def test_krylov_spin_that_never_closes_is_a_canonical_form_error(tmp_path, capsys, monkeypatch):
    # the spin of the characteristic polynomial adds at most n columns; a
    # try_solve that never finds a relation is a typed error, not a hang
    try_solve = Mat.try_solve

    def no_relation_in_spin(self, B):
        if sys._getframe(1).f_code.co_name == "characteristic_polynomial":
            return None
        return try_solve(self, B)

    monkeypatch.setattr(Mat, "try_solve", no_relation_in_spin)
    code, out, err = run(capsys, "compute", write(tmp_path, "doc.json", WRAP_DOC))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"ok": False, "error": "CanonicalFormError",
                               "detail": "degree 0: Krylov spin passes n columns"}


def test_canonical_form_error_names_its_degree(tmp_path, capsys, monkeypatch):
    # a factorization that loses every factor leaves the canonical basis short
    monkeypatch.setattr(import_module("tamebars.canonical"), "factor_poly",
                        lambda field, p: [])
    code, out, err = run(capsys, "compute", write(tmp_path, "doc.json", WRAP_DOC))
    assert (code, out) == (1, "")
    assert json.loads(err) == {"ok": False, "error": "CanonicalFormError",
                               "detail": "degree 0: canonical basis has wrong cardinality"}
