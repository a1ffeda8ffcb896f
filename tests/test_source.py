"""Checks on the package source itself."""

import ast
import builtins
import json
import os
import re
import subprocess
import symtable
import sys
import types
from pathlib import Path

import tamebars

SRC = Path(tamebars.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"
PERFBENCH = README.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import WORKLOADS, make_inputs  # noqa: E402


def test_no_assert_statements():
    # invariants must raise typed errors: ``python -O`` strips asserts
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_definition_is_used_by_the_package():
    # src/ holds what the pipeline and the CLI run; helpers that only tests
    # call live in tests/.  A name counts as used when some module names it.
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in used) == []


def _imports(tree):
    """(line, bound name, module) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name, node.module or ""


def test_every_global_a_function_names_is_bound():
    # a name imported inside one function is unbound in the others, and the
    # NameError shows only on a branch that runs: every global that a
    # function or class body references is bound at module level or is a
    # builtin.  Annotations are strings, so a name used only there is free
    known = set(dir(builtins)) | set(dir(types.ModuleType("m")))
    found = []
    for path in sorted(SRC.glob("*.py")):
        top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
        bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
        tables = top.get_children()
        while tables:
            table = tables.pop()
            tables += table.get_children()
            found += [f"{path.name} {table.get_name()} {s.get_name()}"
                      for s in table.get_symbols()
                      if s.is_global() and s.is_referenced()
                      and s.get_name() not in bound | known]
    assert sorted(found) == []


def test_every_import_is_used():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for line, name, _ in _imports(tree)
                  if name not in used]
    assert found == []


def test_no_sympy_import():
    # the package factors polynomials itself; sympy is a test-only oracle
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line, _, module in _imports(tree)
                  if module.split(".")[0] == "sympy"]
    assert found == []


def _writes_matrix_rows(node) -> bool:
    # ``X.rows[i] = v`` and ``X.rows[i][j] = v``: a subscript stored into
    # whose value, through further subscripts, is an attribute named rows
    if not (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))):
        return False
    value = node.value
    while isinstance(value, ast.Subscript):
        value = value.value
    return isinstance(value, ast.Attribute) and value.attr == "rows"


def test_no_module_writes_into_matrix_rows():
    # a Mat keeps its rows as integers and shows them as field scalars in
    # `rows`; a write into that view would leave the integers stale
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "matrix.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _writes_matrix_rows(node)]
    assert found == []


ENTRY_READS = ("rows", "col", "cols", "matvec")
ENTRY_READERS = {"bundle_to_json", "characteristic_polynomial", "_berlekamp"}


def _entry_reads(node, where="<module>"):
    """(line, function, attribute) for each attribute named in ENTRY_READS,
    with the outermost function or method it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr in ENTRY_READS:
            yield child.lineno, where, child.attr
        inner = where
        if where == "<module>" and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        yield from _entry_reads(child, inner)


def test_matrix_entries_are_read_in_three_places():
    # outside matrix.py a Mat is worked on through its operations, vectors
    # included, which are one-column matrices.  Its entries are read only
    # for the JSON output, the Krylov relations of the characteristic
    # polynomial and Berlekamp's kernel basis, whose results are
    # polynomials; nothing multiplies a matrix by a list of scalars
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "matrix.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {where} .{attr}" for line, where, attr in _entry_reads(tree)
                  if attr == "matvec" or where not in ENTRY_READERS]
    assert found == []


def test_the_package_root_loads_no_module():
    # the root re-exports nothing: importing one module loads that module
    # and what it imports, and no other module of the package
    script = ("import sys, tamebars.complexes\n"
              "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'tamebars'))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["tamebars", "tamebars.complexes", "tamebars.field"]


REAL_DOC = {"field": "Q", "target": "R",
            "vertices": [{"id": "a", "value": "0"}, {"id": "b", "value": "1"},
                         {"id": "c", "value": "2"}],
            "simplices": [["a", "b"], ["b", "c"], ["a", "c"]]}
CIRCLE_DOC = {"field": "Q", "target": "S1",
              "vertices": [{"id": "a", "value": {"angle": "0"}},
                           {"id": "b", "value": {"angle": "1/3"}},
                           {"id": "c", "value": {"angle": "2/3"}}],
              "simplices": [["a", "b"], ["b", "c"], ["a", "c"]],
              "windings": [{"edge": ["a", "c"], "w": -1}]}
CYCLIC_REP = {"field": "Q", "shape": "cyclic", "m": 1, "dims": {"1": 1, "2": 1},
              "arrows": [{"at": 1, "dir": 1, "matrix": [[2]]},
                         {"at": 1, "dir": -1, "matrix": [[1]]}]}


def _loaded_by(tmp_path, doc, *argv):
    """The exit code of `cli.main` on the document, run in a fresh
    interpreter, and the tamebars modules loaded when it returns, with
    `dataclasses` and `inspect` if either is loaded."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    script = ("import sys\nfrom tamebars.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'tamebars'\n"
              "                    or m in ('dataclasses', 'inspect')))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script, argv[0], str(path), *argv[1:],
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, *loaded = done.stdout.split()
    return int(code), {m.removeprefix("tamebars.") for m in loaded}


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    # the quiver and canonical layers and the stability experiment load on
    # first use; a fresh process with no bytecode cache compiles each
    # module it loads
    assert _loaded_by(tmp_path, REAL_DOC, "compute") == (0, {
        "tamebars", "cli", "complexes", "cutting", "field", "homology",
        "invariants", "matrix"})
    for doc, argv in ((CIRCLE_DOC, ["compute", "--check"]), (CYCLIC_REP, ["decompose"])):
        code, loaded = _loaded_by(tmp_path, doc, *argv)
        assert code == 0 and "quiver" in loaded and "stability" not in loaded, argv
    code, loaded = _loaded_by(tmp_path, REAL_DOC, "stability", "--schedule", "1/10",
                              "--trials", "1", "--degree", "0")
    assert code == 0 and "stability" in loaded


def test_no_subcommand_loads_dataclasses(tmp_path):
    # records are named tuples: `dataclasses` imports `inspect`, `ast`, `dis`
    # and `tokenize`, and compiles the methods of each class at start-up
    for doc, argv in ((REAL_DOC, ["compute"]), (CIRCLE_DOC, ["compute", "--check"]),
                      (CYCLIC_REP, ["decompose"]),
                      (REAL_DOC, ["stability", "--schedule", "1/10", "--trials", "1",
                                  "--degree", "0"])):
        code, loaded = _loaded_by(tmp_path, doc, *argv)
        assert code == 0 and not loaded & {"dataclasses", "inspect"}, argv
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}" for line, _, module in _imports(tree)
                  if module.split(".")[0] == "dataclasses"]
    assert found == []


def _spans(tmp_path, workload, *argv):
    """The spans of the benchmark's traced run of the command line on the
    first seed-0 document of a benchmark workload."""
    doc, _ = make_inputs(WORKLOADS[workload], 0)[0]
    path, spans = tmp_path / f"{workload}.json", tmp_path / f"{workload}.spans.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "traced_cli.py", str(spans), "0", "--",
                           *argv, str(path)],
                          cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text(encoding="utf-8"))["spans"]


def test_the_benchmark_tracer_times_the_sites_it_rebinds(tmp_path):
    # a function fetched past the name the tracer rebinds, by an import
    # inside the caller, would run untimed and its span would be missing
    spans = _spans(tmp_path, "torus-check-q", "compute", "--check")
    assert {name for name, *_ in spans} >= {
        "quiver.decompose", "quiver.verify_certificate", "cutting.cut_at_levels",
        "cutting.unroll_cover", "homology.assemble_rep", "homology.betti_numbers",
        "invariants.bundle_to_json", "invariants.canonical_check"}
    spans = _spans(tmp_path, "planted-cells-q", "decompose")
    parents = {(name, spans[parent][0] if parent is not None else None)
               for name, _, _, parent in spans}
    assert {("quiver.decompose", "cli.main"), ("quiver.verify_certificate", "cli.main")} <= parents


def test_the_benchmark_tracer_finds_every_call_site():
    # perfbench/traced_cli.py rebinds layer functions by name in each module
    # that calls them, and refuses to run when a name is gone or its sites
    # hold different functions
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c",
                           "import traced_cli; traced_cli.install(traced_cli.Recorder())"],
                          cwd=README.parent / "perfbench", env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs():
    # the python block under "Quick start": it runs as written, and each
    # line commented ``# value : why`` evaluates to that value
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Quick start.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert block is not None
    code = block.group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    from tamebars.canonical import Cell
    claims = re.findall(r"^(\S.*?)\s+# (.+?) : ", code, re.M)
    assert len(claims) == 5
    for expr, want in claims:
        assert eval(expr, namespace) == eval(want, {"Cell": Cell}), expr
