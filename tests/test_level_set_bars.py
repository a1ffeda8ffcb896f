"""Level-set bars of real maps from the cone reduction, against the quiver
pipeline.

`compute_invariants` reads a real map's bars off one certified reduction of
the cone on its complex (`homology.level_set_bars`); `quiver_invariants`
cuts, assembles and decomposes.  The two must agree bar for bar, and the
R = D.V certificate must refuse a reduction with one entry changed.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from map_fixtures import identity_corpus_inputs, random_real_input
from tamebars import cli, invariants
from tamebars.cli import main
from tamebars.complexes import CircleMap, RealMap, SimplexTable, load_document
from tamebars.field import GF2, QQ, PrimeField
from tamebars.homology import (ReductionCertificateError, check_reduction, cone_filtration,
                               reduce_columns)
from tamebars.invariants import compute_invariants, quiver_invariants
from test_cli import HEIGHT_DOC, run, write

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import grid_document  # noqa: E402

BIG = PrimeField(2**31 - 1)


def assert_same_bars(table, mapping, field):
    fast = compute_invariants(table, mapping, field)
    slow = quiver_invariants(table, mapping, field)
    assert fast.cut is None and fast.reps == {} and fast.cells == {}
    assert fast.rmax == slow.rmax
    for r in range(slow.rmax + 1):
        assert fast.degree_bars(r) == slow.degree_bars(r), (r, table.simplices, mapping)


def test_bars_match_the_quiver_path_on_the_identity_corpus():
    corpus = [(t, m, f) for t, m, f in identity_corpus_inputs() if isinstance(m, RealMap)]
    assert len(corpus) == 52
    for table, mapping, field in corpus:
        assert_same_bars(table, mapping, field)


@pytest.mark.parametrize("field", [QQ, GF2, PrimeField(5), BIG], ids=str)
def test_bars_match_the_quiver_path_on_random_real_maps(field):
    rng = random.Random(2501 + (field.p if field is not QQ else 0))
    for _ in range(40):
        assert_same_bars(*random_real_input(rng, nv=(4, 9), ntops=(3, 12)), field)


@pytest.mark.parametrize("k", range(2, 9))
def test_bars_match_the_quiver_path_on_grids(k):
    field = "Q" if k % 2 == 0 else {"Fp": 2**31 - 1}
    loaded = load_document(grid_document(k, 3, 0, field))
    assert_same_bars(loaded.table, loaded.map, loaded.field)


def test_a_point_bar_and_a_circle_at_one_level():
    # a triangle boundary at height 2: its loop is the point bar [2, 2] in H_1
    t = SimplexTable(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
    bundle = compute_invariants(t, RealMap([F(2)] * 3), GF2)
    assert [(b.lo, b.hi, b.is_closed) for b in bundle.degree_bars(1)] == [(F(2), F(2), True)]
    assert_same_bars(t, RealMap([F(2)] * 3), GF2)


# -- the certificate ----------------------------------------------------------------


def _reduction(field):
    rng = random.Random(7)
    table, mapping = random_real_input(rng, nv=(6, 7), ntops=(6, 7))
    columns, _, _ = cone_filtration(table, mapping.values, field)
    R, V = reduce_columns(columns, field)
    check_reduction(columns, R, V, field)
    return columns, R, V


def _changed(chains, field, pick):
    """A copy of the chains with one entry, chosen by pick, moved by one."""
    j, row = pick(chains)
    out = [dict(c) for c in chains]
    x = out[j].get(row, 0) + 1
    out[j][row] = x % field.p if field is not QQ else x
    if not out[j][row]:
        del out[j][row]
    return out


def _off_diagonal_of_v(chains):
    return next((j, min(v)) for j, v in enumerate(chains) if len(v) > 1)


def _low_of_r(chains):
    return next((j, max(c)) for j, c in enumerate(chains) if c)


def _diagonal_of_v(chains):
    return len(chains) - 1, len(chains) - 1


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
@pytest.mark.parametrize("where", ["V-off-diagonal", "V-diagonal", "R-low"])
def test_one_changed_entry_breaks_the_certificate(field, where):
    columns, R, V = _reduction(field)
    if where == "R-low":
        R = _changed(R, field, _low_of_r)
    else:
        V = _changed(V, field, _off_diagonal_of_v if where == "V-off-diagonal"
                     else _diagonal_of_v)
    with pytest.raises(ReductionCertificateError):
        check_reduction(columns, R, V, field)


def test_two_columns_with_one_low_break_the_certificate():
    table = SimplexTable(["a", "b"], [(0, 1)])
    columns, _, _ = cone_filtration(table, [F(0), F(1)], QQ)
    # the unreduced boundary matrix is its own R with V = I, and two of its
    # columns end at the same row
    V = [{j: 1} for j in range(len(columns))]
    with pytest.raises(ReductionCertificateError, match="not reduced"):
        check_reduction(columns, [dict(c) for c in columns], V, QQ)


def test_the_certificate_holds_under_the_optimized_interpreter():
    script = (
        "import random\n"
        "from map_fixtures import random_real_input\n"
        "from tamebars.field import QQ\n"
        "from tamebars.homology import (ReductionCertificateError, check_reduction,\n"
        "                               cone_filtration, reduce_columns)\n"
        "table, f = random_real_input(random.Random(7))\n"
        "D, _, _ = cone_filtration(table, f.values, QQ)\n"
        "R, V = reduce_columns(D, QQ)\n"
        "j = next(j for j, v in enumerate(V) if len(v) > 1)\n"
        "V[j][min(V[j])] += 1\n"
        "try:\n"
        "    check_reduction(D, R, V, QQ)\n"
        "except ReductionCertificateError:\n"
        "    print('refused')\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "refused\n"


# -- the command line ---------------------------------------------------------------


def test_real_compute_without_check_never_cuts(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the quiver pipeline ran")

    for name in ("cut_at_levels", "assemble_rep", "decompose_zigzag"):
        monkeypatch.setattr(invariants, name, refuse)
    code, out, err = run(capsys, "compute", write(tmp_path, "h.json", HEIGHT_DOC))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["certified"] is True
    assert [b["lo"] for b in doc["degrees"]["0"]["bars"]] == ["0", "0"]


def test_check_refuses_a_patched_bar_and_names_its_degree(tmp_path, capsys, monkeypatch):
    real = invariants.level_set_bars

    def patched(table, values, field):
        bars = real(table, values, field)
        lo, hi, left, right = bars[0][0]
        bars[0][0] = (lo, hi, left, not right)
        return bars

    monkeypatch.setattr(invariants, "level_set_bars", patched)
    path = write(tmp_path, "h.json", HEIGHT_DOC)
    code, out, _ = run(capsys, "compute", path)
    assert code == 0
    code, out, err = run(capsys, "compute", path, "--check")
    assert code == 3 and out == ""
    report = json.loads(err)
    assert report["error"] == "IdentityCheckFailure"
    assert report["failures"] == ["degree 0: level-set bars differ from the quiver bars"]


def test_check_runs_the_identities_on_the_quiver_bundle(tmp_path, capsys, monkeypatch):
    seen = []
    identities = cli._identity_failures

    def recording(loaded, bundle):
        seen.append(bundle)
        return identities(loaded, bundle)

    monkeypatch.setattr(cli, "_identity_failures", recording)
    code, out, _ = run(capsys, "compute", write(tmp_path, "h.json", HEIGHT_DOC), "--check")
    assert code == 0 and json.loads(out)["checked"] is True
    assert [b.cut is not None and bool(b.reps) for b in seen] == [True]


def test_circle_maps_keep_the_quiver_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the cone reduction ran")

    monkeypatch.setattr(invariants, "level_set_bars", refuse)
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    bundle = compute_invariants(t, CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): -1}), QQ)
    assert bundle.cut is not None and len(bundle.degree_cells(0)) == 1
