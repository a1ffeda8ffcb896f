"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import tamebars

SRC = Path(tamebars.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


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
