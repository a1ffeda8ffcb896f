"""Run one tamebars command with spans recorded around each layer's calls.

    python traced_cli.py SPANS_JSON INPUT_ID -- <tamebars arguments>

The spans are taken from outside the package: each layer's public function
is rebound, before the command runs, in every module that calls it, because
the modules import each other's functions by name.  Modules are fetched
with importlib; the attribute ``tamebars.homology`` is the re-exported
function, not the module.  Every site of one layer must still hold the same
function, so a moved or renamed function stops the run instead of silently
leaving a layer untimed.

SPANS_JSON receives the import times, the spans as [name, start, end,
parent index] and the counts taken at the same boundaries.  Stdout is the
command's own output, unchanged.
"""

import importlib
import json
import sys
import time
from fractions import Fraction

clock = time.perf_counter
T0 = clock()
import sympy  # noqa: E402,F401  timed apart: it is most of the import
T1 = clock()
import tamebars.cli  # noqa: E402,F401
T2 = clock()


class Recorder:
    """Spans kept in memory as [name, start, end, parent] plus counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, n):
        self.counts[key] = max(self.counts.get(key, 0), n)

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(args, result)
            return result

        return traced


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(int(x)).bit_length()


def install(rec: Recorder):
    """Rebind every layer function at each of its call sites."""
    mod = {n: importlib.import_module("tamebars." + n)
           for n in ("cli", "invariants", "homology", "quiver", "matrix")}
    cli, inv, hom, quiver = mod["cli"], mod["invariants"], mod["homology"], mod["quiver"]

    def rebind(name, sites, count=None):
        fn = getattr(*sites[0])
        for owner, attr in sites:
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"{name}: {attr} differs between call sites")
        traced = rec.wrap(name, fn, count)
        for owner, attr in sites:
            setattr(owner, attr, traced)

    def levels(args, crit):
        rec.add("n_simplices", len(args[0]))
        rec.add("m_levels", crit.m)

    def handle(args, h):
        rec.add("handle_calls", 1)
        rec.add("handle_members", len(h.members))
        rec.add("handle_scanned", len(args[0].table))

    def decomposed(args, result):
        rec.add("n_bars", len(result[0]))
        rec.add("n_cells", len(result[1]) if len(result) == 3 else 0)
        for P in result[-1].base_changes.values():
            for row in P.rows:
                for x in row:
                    rec.peak("cert_max_bits", _bits(x))

    def rref(args, result):
        rec.add("rref_calls", 1)
        rec.peak("rref_max_entries", args[0].nrows * args[0].ncols)

    def homology_call(args, result):
        rec.add("homology_of_calls", 1)

    rebind("complexes.critical_candidates", [(inv, "critical_candidates")], levels)
    rebind("cutting.cut_at_levels", [(inv, "cut_at_levels")],
           lambda a, cc: rec.add("ncut", len(cc.table)))
    rebind("cutting.fiber", [(hom, "fiber"), (cli, "fiber")], handle)
    rebind("cutting.slab", [(hom, "slab")], handle)
    rebind("cutting.unroll_cover", [(cli, "unroll_cover")])
    rebind("invariants.compute_invariants", [(cli, "compute_invariants")])
    rebind("homology.assemble_rep", [(inv, "assemble_rep")],
           lambda a, rep: rec.add("rep_total_dim", rep.total_dim()))
    # homology() wraps homology_of() for a handle; betti_numbers() calls
    # homology_of() directly and keeps that time as its own.
    rebind("homology.homology_of", [(hom, "homology"), (cli, "homology")], homology_call)
    rebind("homology.homology_of", [(cli, "homology_of")], homology_call)
    rebind("homology.induced_map", [(hom, "induced_map"), (cli, "induced_map")])
    rebind("homology.betti_numbers", [(cli, "betti_numbers")])
    rebind("quiver.decompose", [(inv, "decompose_zigzag"), (cli, "decompose_zigzag")],
           decomposed)
    rebind("quiver.decompose", [(inv, "decompose_circle"), (cli, "decompose_circle")],
           decomposed)
    rebind("quiver.verify_certificate",
           [(quiver, "verify_certificate"), (cli, "verify_certificate")])
    rebind("canonical.primary_components", [(quiver, "primary_components")],
           lambda a, r: rec.add("monodromy_dim", a[0].nrows))
    rebind("matrix.rref", [(mod["matrix"].Mat, "rref")], rref)
    rebind("invariants.bundle_to_json", [(cli, "bundle_to_json")])
    rebind("invariants.canonical_check", [(cli, "canonical_check")])
    return rec.wrap("cli.main", cli.main)


def main(argv):
    spans_path, input_id, sep, *command = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON INPUT_ID -- ARGS...")
    rec = Recorder()
    traced_main = install(rec)
    code = traced_main(command)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"input": input_id, "import_s": T2 - T0, "import_sympy_s": T1 - T0,
                   "spans": rec.spans, "counts": rec.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
