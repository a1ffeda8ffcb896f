"""Benchmark: seeded tamebars workloads timed through the command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ./src.  Each
workload is a few JSON documents generated from the seed (workloads.py).
Every document is first checked with ``tamebars validate``.  The benchmark
then runs the real CLI on the documents one fresh process at a time, from
this single process, taking the documents in turn until the next run would
end after --seconds.  Every output is checked (see Checker), and the last
line of stdout is one JSON object with the metrics.

--trace 0 reports the end-to-end metrics:
  compute_s    wall seconds from spawning ``python -m tamebars.cli`` until it
               exits, summed over the workload's inputs (median of each
               input's runs);
               interpreter start and imports are included.
  setup_s      wall seconds for a fresh interpreter to import tamebars.cli and
               parse the same inputs, median of SETUP_SAMPLES processes.
  peak_rss_mb  largest ru_maxrss among the compute processes.
  ok_frac      share of compute processes that exited 0 with an output that
               passed every check (1.0 when nothing failed).
A line before the result lists every compute sample (seconds, per input).

--trace 1 alternates an untraced pass with a pass through traced_cli.py,
which records spans around each layer from outside the package, and reports
per-layer self times and counts (LAYER_TIMES and LAYER_COUNTS below), summed
over the inputs, with the median over passes.  A line before the result
compares the untraced compute time with the traced self times plus imports.

In both modes a line before the result records the host: Python, sympy,
CPU model, nproc and ref_s, the median time of a fixed Fraction loop run
before every round over the inputs, so that drift of the host shows next to
the figures.

Children run with PYTHONHASHSEED=0, so set iteration order, and with it
every count, repeats exactly from run to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from workloads import WORKLOADS, Workload, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"

PROCESS_TIMEOUT_S = 90
SETUP_SAMPLES = 5

# Per-layer time metrics: metric name -> span name.  All are self times
# (a span's duration minus its child spans), so they add up.
LAYER_TIMES = {
    "cutting.cut_at_levels_s": "cutting.cut_at_levels",
    "cutting.fiber_s": "cutting.fiber",
    "cutting.slab_s": "cutting.slab",
    "cutting.unroll_cover_s": "cutting.unroll_cover",
    "homology.assemble_rep_self_s": "homology.assemble_rep",
    "homology.homology_of_s": "homology.homology_of",
    "homology.induced_map_s": "homology.induced_map",
    "homology.betti_numbers_s": "homology.betti_numbers",
    "quiver.decompose_self_s": "quiver.decompose",
    "quiver.verify_certificate_s": "quiver.verify_certificate",
    "canonical.primary_components_s": "canonical.primary_components",
    "matrix.rref_s": "matrix.rref",
    "complexes.critical_candidates_s": "complexes.critical_candidates",
    "invariants.bundle_to_json_s": "invariants.bundle_to_json",
    "invariants.canonical_check_s": "invariants.canonical_check",
}

# Per-layer counts: metric name -> traced_cli counter.  Peaks take the
# maximum over inputs, the others the sum.
LAYER_COUNTS = {
    "cutting.ncut": "ncut",
    "cutting.handle_calls": "handle_calls",
    "homology.homology_of_calls": "homology_of_calls",
    "homology.rep_total_dim": "rep_total_dim",
    "quiver.n_bars": "n_bars",
    "quiver.n_cells": "n_cells",
    "quiver.cert_max_bits": "cert_max_bits",
    "canonical.monodromy_dim": "monodromy_dim",
    "matrix.rref_calls": "rref_calls",
    "matrix.rref_max_entries": "rref_max_entries",
    "complexes.n_simplices": "n_simplices",
    "complexes.m_levels": "m_levels",
}
PEAK_COUNTS = {"cert_max_bits", "rref_max_entries"}
UNITS = {"quiver.cert_max_bits": "bits", "cutting.scan_useful_ratio": "ratio"}


# -- processes ----------------------------------------------------------------


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: List[str], stdout: Path, stderr: Path) -> Proc:
    """Run one child to completion, timed from spawn to exit.  wait4 reaps
    it and returns its resource usage; a timer kills it after
    PROCESS_TIMEOUT_S."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                proc.returncode)


def cli_argv(workload: Workload, path: Path) -> List[str]:
    return [workload.command, *workload.flags, str(path)]


# -- correctness --------------------------------------------------------------


class Checker:
    """Checks every output of one (workload, seed).

    - exit code 0 and ``certified: true``;
    - byte identity with the sha256 recorded in golden.json for this seed,
      when the seed is recorded there, and with the first output of the
      same input in this run;
    - compute: each degree's ``betti`` equals ``betti_numbers`` of the
      uncut input table, and ``checked: true`` when --check was given;
    - decompose: no bars, and the cell multiset equals the planted one
      (Krull-Schmidt makes it unique).
    """

    def __init__(self, workload: Workload, seed: int, inputs):
        self.workload = workload
        golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
        self.golden = golden.get(workload.name, {}).get(str(seed))
        self.first: Dict[int, bytes] = {}
        self.planted = [planted for _, planted in inputs]
        self.betti = [None] * len(inputs)
        if workload.command == "compute":
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            from tamebars.complexes import load_document
            from tamebars.homology import betti_numbers
            for i, (doc, _) in enumerate(inputs):
                loaded = load_document(doc)
                self.betti[i] = betti_numbers(loaded.table, loaded.field)

    def failure(self, i: int, proc: Proc, data: bytes) -> Optional[str]:
        if proc.code != 0:
            return f"exit code {proc.code}"
        if self.first.setdefault(i, data) != data:
            return "output differs from an earlier pass"
        if self.golden is not None and hashlib.sha256(data).hexdigest() != self.golden[i]:
            return "output differs from the recorded sha256"
        try:
            return self._content_failure(i, json.loads(data))
        except (ValueError, KeyError, TypeError) as e:
            return f"unreadable output: {e!r}"

    def _content_failure(self, i: int, doc: dict) -> Optional[str]:
        if doc["certified"] is not True:
            return "not certified"
        if self.workload.command == "compute":
            for r, want in enumerate(self.betti[i]):
                if doc["degrees"][str(r)]["betti"] != want:
                    return f"degree {r} betti differs from direct homology"
            if "--check" in self.workload.flags and doc.get("checked") is not True:
                return "not checked"
        else:
            cells = sorted([c["poly"], c["size"]] for c in doc["cells"])
            if doc["bars"] or cells != [[poly, size] for poly, size in self.planted[i]]:
                return "summands differ from the planted ones"
        return None


# -- host ---------------------------------------------------------------------


def fraction_reference_s() -> float:
    """A fixed pure-Python Fraction loop, timed before every round so that
    drift of the host shows beside the figures."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 30000):
        s += Fraction(i % 97 + 1, i % 89 + 1)
    return time.perf_counter() - t0


def host_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "sympy": metadata.version("sympy"),
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


# -- runs ---------------------------------------------------------------------


class Run:
    """Inputs, checks and process bookkeeping for one (workload, seed)."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.dir = WORK / f"{workload.name}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        inputs = make_inputs(workload, seed)
        self.paths = []
        for i, (doc, _) in enumerate(inputs):
            path = self.dir / f"in{i}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True))
            self.paths.append(path)
        self.checker = Checker(workload, seed, inputs)
        self.attempted = 0
        self.failures: List[str] = []
        self.ref_s: List[float] = []

    def validate(self) -> None:
        if self.workload.command != "compute":
            return
        for i, path in enumerate(self.paths):
            out = self.dir / f"validate{i}.json"
            proc = spawn([sys.executable, "-m", "tamebars.cli", "validate", str(path)],
                         out, self.dir / f"validate{i}.err")
            if proc.code != 0 or json.loads(out.read_bytes()).get("ok") is not True:
                raise SystemExit(f"generated input {path} does not validate")

    def setup_s(self) -> float:
        kind = "map" if self.workload.command == "compute" else "rep"
        argv = [sys.executable, str(HERE / "setup_probe.py"), kind, *map(str, self.paths)]
        samples = []
        for _ in range(SETUP_SAMPLES):
            proc = spawn(argv, self.dir / "setup.out", self.dir / "setup.err")
            if proc.code != 0:
                raise SystemExit("set-up probe failed")
            samples.append(proc.wall_s)
        return statistics.median(samples)

    def _record(self, i: int, proc: Proc, out: Path) -> None:
        self.attempted += 1
        reason = self.checker.failure(i, proc, out.read_bytes())
        if reason is not None:
            self.failures.append(f"input {i}: {reason}")

    def plain(self, i: int) -> Proc:
        out = self.dir / f"out{i}.json"
        proc = spawn([sys.executable, "-m", "tamebars.cli",
                      *cli_argv(self.workload, self.paths[i])],
                     out, self.dir / f"err{i}.txt")
        self._record(i, proc, out)
        return proc

    def plain_pass(self) -> List[Proc]:
        self.ref_s.append(fraction_reference_s())
        return [self.plain(i) for i in range(len(self.paths))]

    def traced_pass(self) -> List[dict]:
        self.ref_s.append(fraction_reference_s())
        traces = []
        for i, path in enumerate(self.paths):
            out, spans = self.dir / f"traced{i}.json", self.dir / f"spans{i}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(i), "--",
                    *cli_argv(self.workload, path)]
            proc = spawn(argv, out, self.dir / f"traced{i}.err")
            self._record(i, proc, out)
            trace = json.loads(spans.read_text()) if proc.code == 0 else None
            traces.append({"wall_s": proc.wall_s, "trace": trace})
        return traces


def round_robin(run: Run, seconds: float) -> List[List[Proc]]:
    """Run the inputs in turn until the next one, predicted to last as long
    as its longest run so far, would end after `seconds`.  Every input runs
    at least once; returns each input's processes."""
    deadline = time.perf_counter() + seconds
    n = len(run.paths)
    procs: List[List[Proc]] = [[] for _ in range(n)]
    longest = [0.0] * n
    k = 0
    while k < n or time.perf_counter() + longest[k % n] <= deadline:
        i = k % n
        if i == 0:
            run.ref_s.append(fraction_reference_s())
        t0 = time.perf_counter()
        procs[i].append(run.plain(i))
        longest[i] = max(longest[i], time.perf_counter() - t0)
        k += 1
    return procs


def repeat(seconds: float, one_pass) -> list:
    """Run passes until the next one, predicted to last as long as the
    longest so far, would end after `seconds`.  At least one pass runs."""
    deadline = time.perf_counter() + seconds
    results = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() + longest > deadline:
            return results


def self_times(spans: list) -> Dict[str, float]:
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: Dict[str, float] = {}
    for (name, start, end, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def layer_figures(traces: List[dict]) -> Dict[str, float]:
    """Per-layer figures of one traced pass, summed over its inputs."""
    fig: Dict[str, float] = dict.fromkeys(
        [*LAYER_TIMES, "cli.import_s", "cli.import_sympy_s", "trace.spans_s", "trace.wall_s"],
        0.0)
    counts: Dict[str, int] = {}
    for t in traces:
        trace = t["trace"]
        fig["trace.wall_s"] += t["wall_s"]
        if trace is None:
            continue
        fig["cli.import_s"] += trace["import_s"]
        fig["cli.import_sympy_s"] += trace["import_sympy_s"]
        selfs = self_times(trace["spans"])
        fig["trace.spans_s"] += sum(selfs.values())
        for metric, span in LAYER_TIMES.items():
            fig[metric] += selfs.get(span, 0.0)
        for key, n in trace["counts"].items():
            counts[key] = max(counts.get(key, 0), n) if key in PEAK_COUNTS \
                else counts.get(key, 0) + n
    for metric, key in LAYER_COUNTS.items():
        fig[metric] = counts.get(key, 0)
    scanned = counts.get("handle_scanned", 0)
    fig["cutting.scan_useful_ratio"] = counts.get("handle_members", 0) / scanned if scanned else 0.0
    return fig


def median_of(rows: List[Dict[str, float]], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def measure(run: Run, seconds: float) -> Dict[str, dict]:
    run.validate()
    setup = run.setup_s()
    procs = round_robin(run, seconds)
    samples = [[proc.wall_s for proc in runs] for runs in procs]
    compute = sum(statistics.median(walls) for walls in samples)
    rss = max(proc.rss_kb for runs in procs for proc in runs)
    ok = 1 - len(run.failures) / run.attempted
    return {
        "compute_s": {"value": compute, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss / 1024, "unit": "MB"},
        "ok_frac": {"value": ok, "unit": "ratio"},
    }, samples


def measure_traced(run: Run, seconds: float):
    run.validate()
    pairs = repeat(seconds, lambda: (run.plain_pass(), run.traced_pass()))
    plain = [{"wall": sum(p.wall_s for p in procs), "cpu": sum(p.cpu_s for p in procs)}
             for procs, _ in pairs]
    layers = [layer_figures(traces) for _, traces in pairs]
    metrics = {}
    for metric in list(LAYER_TIMES) + ["cli.import_s", "cli.import_sympy_s"]:
        metrics[metric] = {"value": median_of(layers, metric), "unit": "s"}
    for metric in list(LAYER_COUNTS) + ["cutting.scan_useful_ratio"]:
        metrics[metric] = {"value": median_of(layers, metric),
                           "unit": UNITS.get(metric, "count")}
    compute = median_of(plain, "wall")
    traced = median_of(layers, "trace.wall_s")
    metrics["cli.cpu_s"] = {"value": median_of(plain, "cpu"), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - compute, "unit": "s"}
    metrics["host.ref_s"] = {"value": statistics.median(run.ref_s), "unit": "s"}
    attributed = sum(metrics[m]["value"] for m in LAYER_TIMES) + metrics["cli.import_s"]["value"]
    accounting = {"compute_s": compute, "traced_s": traced,
                  "layers_plus_import_s": attributed,
                  "spans_plus_import_s": median_of(layers, "trace.spans_s")
                  + metrics["cli.import_s"]["value"]}
    return metrics, accounting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tamebars" / "cli.py").is_file():
        print(f"no tamebars sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, accounting = measure_traced(run, args.seconds)
        print(json.dumps({"accounting": accounting}))
    else:
        metrics, samples = measure(run, args.seconds)
        print(json.dumps({"compute_samples_s": samples}))
    host = host_info()
    host["ref_s"] = statistics.median(run.ref_s)
    print(json.dumps({"host": host}))
    for failure in run.failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
