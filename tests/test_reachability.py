"""Every function under src/ runs in some command line call.

src/ holds only what the pipeline and the command line run.  A fixed
corpus of small documents goes through `tamebars.cli.main` in this process
under a profile hook, which records every Python function entered; a
function or method defined under src/, nested ones included, that no call
enters fails the test.  Definitions are matched by file and first line, so
a name shared with another definition cannot hide one that never runs.
"""

import ast
import json
import sys
from pathlib import Path

import tamebars
from tamebars.cli import main

SRC = Path(tamebars.__file__).resolve().parent

# Debug output and the failure path of --check: no call in a passing corpus
# enters them.
ALLOWED = {"matrix.py Mat.__repr__", "field.py PrimeField.name",
           "cli.py IdentityCheckFailure.__init__"}


def _map_doc(target, values, simplices, windings=()):
    if target == "S1":
        vertices = [{"id": v, "value": {"angle": a}} for v, a in values]
    else:
        vertices = [{"id": v, "value": a} for v, a in values]
    doc = {"field": "Q", "target": target, "vertices": vertices, "simplices": simplices}
    if windings:
        doc["windings"] = [{"edge": e, "w": w} for e, w in windings]
    return doc


# three loops at a; their degree-1 configurations have two points each
LOOPS = [["a", "b"], ["b", "c"], ["a", "c"], ["a", "d"], ["d", "e"], ["a", "e"],
         ["a", "f"], ["f", "g"], ["a", "g"]]
REAL = _map_doc("R", [("a", "0"), ("b", "1"), ("c", "2"), ("d", "3"), ("e", "4"),
                      ("f", "5"), ("g", "6")], LOOPS + [["a", "b", "c"]])
# the loop through b and c winds once: a Jordan cell in degree 0
CIRCLE = _map_doc("S1", [("a", "0"), ("b", "1/3"), ("c", "2/3"), ("d", "1/4"),
                         ("e", "1/2"), ("f", "1/8"), ("g", "3/8")],
                  LOOPS, [(["a", "c"], -1)])
BROKEN = _map_doc("S1", [("a", "0"), ("b", "1/3"), ("c", "2/3")],
                  [["a", "b", "c"]], [(["a", "b"], 1)])

LINE_REP = {"field": "Q", "shape": "line", "lo": 1, "hi": 3,
            "dims": {"1": 1, "2": 2, "3": 1},
            "arrows": [{"at": 1, "dir": 1, "matrix": [[1], [0]]},
                       {"at": 3, "dir": -1, "matrix": [[1], [1]]}]}
# an even, negative lo and nonzero ends: the window is placed on the cycle
# with a shift, and its bars are moved back
NEGATIVE_LINE_REP = {"field": "Q", "shape": "line", "lo": -2, "hi": 1,
                     "dims": {"-2": 1, "-1": 2, "0": 1, "1": 1},
                     "arrows": [{"at": -1, "dir": -1, "matrix": [[1, 0]]},
                                {"at": -1, "dir": 1, "matrix": [[1, 1]]},
                                {"at": 1, "dir": -1, "matrix": [[1]]}]}
# monodromy t^2 - 7: irreducible over Q, so Hensel lifting and recombination run
Q_REP = {"field": "Q", "shape": "cyclic", "m": 1, "dims": {"1": 2, "2": 2},
         "arrows": [{"at": 1, "dir": 1, "matrix": [[0, "14/2"], [1, 0]]},
                    {"at": 1, "dir": -1, "matrix": [[1, 0], [0, 1]]}]}
# monodromy t^2 + 1 over F5, which splits there; "-3/3" is read as a
# fraction, not as an integer
F5_REP = {"field": {"Fp": 5}, "shape": "cyclic", "m": 1, "dims": {"1": 2, "2": 2},
          "arrows": [{"at": 1, "dir": 1, "matrix": [[0, "-3/3"], [1, 0]]},
                     {"at": 1, "dir": -1, "matrix": [[1, 0], [0, 1]]}]}


def _definitions(tree):
    """(first line, qualified name) of each function and method, nested ones
    included.  The first line of a decorated definition is that of its first
    decorator, as in ``co_firstlineno``."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    yield min([child.lineno] + [d.lineno for d in child.decorator_list]), name
                yield from walk(child, name + ".")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def _corpus(tmp_path):
    """The argument lists of the calls, in order; later calls read what
    earlier ones wrote."""
    def path(name, doc=None):
        p = tmp_path / name
        if doc is not None:
            p.write_text(json.dumps(doc))
        return str(p)

    real, circle = path("real.json", REAL), path("circle.json", CIRCLE)
    real_out, circle_out = path("real.out.json"), path("circle.out.json")
    return [
        ["validate", real],
        ["validate", path("broken.json", BROKEN)],
        ["cover", circle, "--window", "-1/2"],
        ["compute", real, "--check", "--out", real_out],
        ["compute", circle, "--check", "--out", circle_out],
        ["compute", real, "--field", "F11", "--degrees", "0"],
        ["render", real_out, "--degree", "1"],
        ["render", circle_out, "--degree", "1"],
        ["render", circle_out, "--degree", "1", "--json"],
        ["cover", circle, "--window", "0", "3/2"],
        ["stability", real, "--schedule", "1/10", "--trials", "2"],
        ["stability", circle, "--schedule", "1/100", "--trials", "2"],
        ["decompose", path("line.json", LINE_REP)],
        ["decompose", path("negative-line.json", NEGATIVE_LINE_REP)],
        ["decompose", path("q.json", Q_REP)],
        ["decompose", path("f5.json", F5_REP)],
    ]


def test_every_function_is_entered_by_the_cli(tmp_path, capsys):
    calls = _corpus(tmp_path)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    sys.setprofile(hook)
    try:
        for argv in calls:
            codes.append(main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    # the broken cocycle and the window with one end are refused; every
    # other call succeeds
    assert codes == [0, 2, 2] + [0] * (len(calls) - 3)

    by_file = {}
    for filename, line in entered:
        by_file.setdefault(Path(filename).resolve(), set()).add(line)
    defined, missed = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = by_file.get(path, set())
        for line, name in _definitions(tree):
            defined.add(f"{path.name} {name}")
            if line not in lines:
                missed.add(f"{path.name} {name}")
    assert ALLOWED <= defined
    assert sorted(missed - ALLOWED) == []
