"""Complex ingestion, boundary matrices, circle map validation, candidates."""

from fractions import Fraction

import pytest

from tamebars.complexes import (
    CircleMap,
    CocycleViolation,
    EmptyComplex,
    MalformedInput,
    RealMap,
    SimplexTable,
    critical_candidates,
    load_document,
    validate_circle_map,
)
from tamebars.field import GF2, QQ
from oracles import boundary_block, boundary_matrix, is_zero

F = Fraction


def test_single_edge_closure_and_order():
    t = SimplexTable(["v1", "v2"], [(0, 1)])
    assert t.simplices == [(0,), (1,), (0, 1)]
    assert t.dim == 1


def test_hollow_triangle_six_simplices():
    t = SimplexTable(["a", "b", "c"], [(0, 1), (0, 2), (1, 2)])
    assert len(t) == 6
    assert t.dim == 1


def test_filled_triangle_synthesized_closure():
    t = SimplexTable(["a", "b", "c"], [(0, 1, 2)])
    assert len(t) == 7
    assert t.simplices[-1] == (0, 1, 2)


def test_order_is_dimension_major_then_lex():
    t = SimplexTable(list("abcd"), [(0, 1, 2), (2, 3)])
    dims = [len(s) for s in t.simplices]
    assert dims == sorted(dims)
    onedim = [s for s in t.simplices if len(s) == 2]
    assert onedim == sorted(onedim)


def test_rejects_bad_simplices():
    with pytest.raises(MalformedInput):
        SimplexTable(["a", "b"], [(1, 0)])
    with pytest.raises(MalformedInput):
        SimplexTable(["a", "b"], [(0, 2)])
    with pytest.raises(MalformedInput):
        SimplexTable(["a", "b"], [(0, 0)])


def test_edge_boundary_signs():
    t = SimplexTable(["v1", "v2"], [(0, 1)])
    M = boundary_matrix(t, QQ)
    col = M.transpose().rows[t.index[(0, 1)]]
    assert col[t.index[(0,)]] == -1
    assert col[t.index[(1,)]] == 1


def test_boundary_squares_to_zero():
    t = SimplexTable(list("abcd"), [(0, 1, 2, 3)])
    M = boundary_matrix(t, QQ)
    assert is_zero(M.mul(M))
    assert all(M.rows[i][j] == 0 for i in range(len(t)) for j in range(i + 1))


def test_hollow_triangle_boundary_rank_two():
    t = SimplexTable(list("abc"), [(0, 1), (0, 2), (1, 2)])
    assert boundary_matrix(t, QQ).rank() == 2
    assert boundary_matrix(t, GF2).rank() == 2


def test_boundary_block_shapes():
    t = SimplexTable(list("abc"), [(0, 1, 2)])
    d1 = boundary_block(t, QQ, 1)
    d2 = boundary_block(t, QQ, 2)
    assert (d1.nrows, d1.ncols) == (3, 3)
    assert (d2.nrows, d2.ncols) == (3, 1)
    assert is_zero(d1.mul(d2))


def hollow_triangle_circle(w13):
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1), (0, 2), (1, 2)])
    cmap = CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 2): w13})
    return t, cmap


def test_circle_map_cocycle_ok_without_triangles():
    t, cmap = hollow_triangle_circle(1)
    validate_circle_map(t, cmap)
    every = CircleMap([F(0), F(1, 3), F(2, 3)],
                      {(0, 1): 1, (1, 2): 1, (0, 2): 1})
    validate_circle_map(t, every)


def test_circle_map_cocycle_violation_on_filled_triangle():
    t = SimplexTable(["v1", "v2", "v3"], [(0, 1, 2)])
    bad = CircleMap([F(0), F(1, 3), F(2, 3)], {(0, 1): 1})
    with pytest.raises(CocycleViolation) as e:
        validate_circle_map(t, bad)
    assert e.value.triangle == (0, 1, 2)


def test_circle_map_rejects_angle_out_of_range():
    t = SimplexTable(["a", "b"], [(0, 1)])
    with pytest.raises(MalformedInput):
        validate_circle_map(t, CircleMap([F(0), F(3, 2)], {}))


def test_circle_map_rejects_unknown_edge_winding():
    t = SimplexTable(["a", "b", "c"], [(0, 1)])
    with pytest.raises(MalformedInput):
        validate_circle_map(t, CircleMap([F(0), F(0), F(0)], {(1, 2): 1}))


def test_winding_is_antisymmetric():
    _, cmap = hollow_triangle_circle(1)
    assert cmap.winding(0, 2) == 1
    assert cmap.winding(2, 0) == -1
    assert cmap.winding(1, 2) == 0


def test_critical_candidates_real_edge():
    t = SimplexTable(["a", "b"], [(0, 1)])
    crit = critical_candidates(t, RealMap([F(0), F(1)]))
    assert crit.criticals == [0, 1]
    assert crit.regulars == [-1, F(1, 2), 2]
    assert not crit.circular


def test_critical_candidates_constant_map():
    t = SimplexTable(["a", "b"], [(0, 1)])
    crit = critical_candidates(t, RealMap([F(5), F(5)]))
    assert crit.criticals == [5]
    assert crit.regulars == [4, 6]


def test_critical_candidates_circle():
    t, cmap = hollow_triangle_circle(1)
    crit = critical_candidates(t, cmap)
    assert crit.criticals == [0, F(1, 3), F(2, 3)]
    assert crit.regulars == [F(1, 6), F(1, 2), F(5, 6)]
    assert crit.circular


def test_circle_wraparound_regular_value():
    t = SimplexTable(["a", "b"], [(0, 1)])
    crit = critical_candidates(t, CircleMap([F(1, 2), F(3, 4)], {}))
    assert crit.regulars == [F(5, 8), F(9, 8)]
    assert F(3, 4) < crit.regulars[-1] < F(3, 2)


def test_empty_complex_raises():
    t = SimplexTable([], [])
    with pytest.raises(EmptyComplex):
        critical_candidates(t, RealMap([]))


def real_doc():
    return {
        "field": "Q",
        "target": "R",
        "vertices": [
            {"id": "a", "value": "0"},
            {"id": "b", "value": "1/2"},
            {"id": "c", "value": "1"},
        ],
        "simplices": [["a", "b"], ["b", "c"]],
    }


def test_load_real_document():
    inp = load_document(real_doc())
    assert inp.target == "R"
    assert inp.table.vertices == ["a", "b", "c"]
    assert inp.real_map.values == [0, F(1, 2), 1]
    assert len(inp.table) == 5


def test_load_circle_document():
    doc = {
        "field": {"Fp": 5},
        "target": "S1",
        "vertices": [
            {"id": "x", "value": {"angle": "0"}},
            {"id": "y", "value": {"angle": "1/3"}},
            {"id": "z", "value": {"angle": "2/3"}},
        ],
        "simplices": [["x", "y"], ["y", "z"], ["x", "z"]],
        "windings": [{"edge": ["z", "x"], "w": 1}],
    }
    inp = load_document(doc)
    assert inp.circle_map.winding(0, 2) == -1
    assert inp.field.p == 5


@pytest.mark.parametrize("mutate", [
    lambda d: d["vertices"].append({"id": "a", "value": "3"}),
    lambda d: d["simplices"].append(["a", "zz"]),
    lambda d: d["simplices"].append(["a", "b"]),
    lambda d: d["vertices"][0].update(value="1.5x"),
    lambda d: d.pop("target"),
    lambda d: d.update(target="circle"),
])
def test_load_document_rejects_malformed(mutate):
    doc = real_doc()
    mutate(doc)
    with pytest.raises(MalformedInput):
        load_document(doc)


def test_load_document_rejects_bool_winding():
    doc = {
        "field": "Q",
        "target": "S1",
        "vertices": [{"id": "a", "value": {"angle": "0"}},
                     {"id": "b", "value": {"angle": "1/2"}}],
        "simplices": [["a", "b"]],
        "windings": [{"edge": ["a", "b"], "w": True}],
    }
    with pytest.raises(MalformedInput):
        load_document(doc)


def test_load_document_sorts_listed_simplices():
    doc = real_doc()
    doc["simplices"] = [["b", "a"], ["c", "b"]]
    assert load_document(doc).table.simplices == load_document(real_doc()).table.simplices


@pytest.mark.parametrize("mutate", [
    lambda d: d["simplices"].append(["b", "a"]),
    lambda d: d["simplices"].append(["a", "a"]),
    lambda d: d["vertices"].append({"id": ["a"], "value": "3"}),
])
def test_load_document_rejects_reordered_duplicates_and_bad_ids(mutate):
    doc = real_doc()
    mutate(doc)
    with pytest.raises(MalformedInput):
        load_document(doc)


@pytest.mark.parametrize("edge", [[["a"], "b"], 5, ["a"], ["a", "b", "b"], {"a": 0, "b": 1}])
def test_load_document_rejects_bad_winding_edges(edge):
    doc = {
        "field": "Q",
        "target": "S1",
        "vertices": [{"id": "a", "value": {"angle": "0"}},
                     {"id": "b", "value": {"angle": "1/2"}}],
        "simplices": [["a", "b"]],
        "windings": [{"edge": edge, "w": 1}],
    }
    with pytest.raises(MalformedInput):
        load_document(doc)
