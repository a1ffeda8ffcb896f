"""The benchmark's recorded outputs, checked in process.

`perfbench/golden.json` holds the sha256 of every output the benchmark
compares byte for byte.  This test writes the inputs of seeds 0-2 of every
workload as `perfbench/run.py` writes them, runs the command line on each,
and compares the hash of stdout, so a changed output byte fails here and
not only in a benchmark run.  The benchmark's generators are imported, not
copied.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from tamebars.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import WORKLOADS, make_inputs  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
SEEDS = range(3)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_the_recorded_hashes(name, seed, tmp_path, capsys):
    workload = WORKLOADS[name]
    got = []
    for i, (doc, _) in enumerate(make_inputs(workload, seed)):
        path = tmp_path / f"in{i}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True))
        capsys.readouterr()
        assert main([workload.command, *workload.flags, str(path)]) == 0
        got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert got == GOLDEN[name][str(seed)]
