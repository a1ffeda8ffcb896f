"""The benchmark's own test.

    python3 perfbench/selftest.py        (or: python -m pytest perfbench/selftest.py)

Run from the repository root.  It checks that the metrics printed are the
ones BENCHMARK.json names, that every count-type per-layer metric repeats
exactly between two traced passes over the same inputs, and that the
benchmark refuses to run, without printing a result, where the package
sources are missing.
"""

import json
import shutil
import subprocess

from run import HERE, ROOT, WORK, Run, layer_figures, measure, measure_traced
from workloads import WORKLOADS

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Counts that must repeat exactly between two traced runs of the same code.
EXACT_COUNTS = ["cutting.ncut", "complexes.m_levels", "homology.rep_total_dim",
                "quiver.n_bars", "quiver.n_cells", "quiver.cert_max_bits",
                "canonical.monodromy_dim", "matrix.rref_calls",
                "cutting.scan_useful_ratio"]


def test_metric_names_match_benchmark_json():
    run = Run(WORKLOADS["planted-cells-q"], 0)
    assert set(measure(run, 0)[0]) == {m["name"] for m in BENCH["end_to_end"]}
    assert not run.failures, run.failures


def test_counts_repeat_exactly():
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    for name, workload in sorted(WORKLOADS.items()):
        run = Run(workload, 0)
        metrics, _ = measure_traced(run, 0)
        again = layer_figures(run.traced_pass())
        assert not run.failures, (name, run.failures)
        assert set(metrics) == per_layer, name
        for metric in EXACT_COUNTS:
            assert metrics[metric]["value"] == again[metric], (name, metric)


def test_refuses_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([*BENCH["command"], "--workload", "grid-fp", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout, proc


if __name__ == "__main__":
    test_metric_names_match_benchmark_json()
    test_counts_repeat_exactly()
    test_refuses_without_sources()
    print("ok")
