"""Per-layer metrics from the spans of traced commands (see tracecli.py).

Times and counts are per pass over the workload's command list, so they do
not depend on how many passes fit in a run; `cli.*` times are per command.
A layer's self time is its span's duration minus the time its traced
children cover; `.s` metrics are inclusive.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("complexes.assembly_s", "s"),
    ("complexes.assembly_s.d1", "s"),
    ("complexes.assembly_s.d2", "s"),
    ("complexes.assembly_s.d3", "s"),
    ("complexes.coboundary_matrix.calls", "count"),
    ("complexes.coboundary.calls", "count"),
    ("complexes.assemblies_per_matrix", "ratio"),
    ("complexes.matrix.cells", "count"),
    ("complexes.matrix.nnz", "count"),
    ("linalg.rank_kernel.s", "s"),
    ("linalg.rank_kernel.calls", "count"),
    ("linalg.solve_linear.s", "s"),
    ("linalg.solve_linear.calls", "count"),
    ("linalg.elim.cells", "count"),
    ("linalg.elim.nnz", "count"),
    ("linalg.elim.max_bits", "bits"),
    ("linalg.elim.out_max_bits", "bits"),
    ("structures.check_lya.s", "s"),
    ("structures.check_lya.calls", "count"),
    ("structures.check_representation.s", "s"),
    ("structures.check_representation.calls", "count"),
    ("structures.adjoint_rep.self_s", "s"),
    ("structures.checks_per_object", "ratio"),
    ("rbo.check_rbo.s", "s"),
    ("rbo.check_rbo.calls", "count"),
    ("rbo.induced.self_s", "s"),
    ("rbo_cohomology.build_s", "s"),
    ("rbo_cohomology.build_calls", "count"),
    ("rbo_cohomology.builds_per_operator", "ratio"),
    ("deformation.order_n_check.s", "s"),
    ("deformation.order_n_check.calls", "count"),
    ("deformation.obstruction.self_s", "s"),
    ("deformation.nijenhuis_element_check.s", "s"),
    ("deformation.terms.max_bits", "bits"),
    ("cli.start_s", "s"),
    ("cli.parse_s", "s"),
    ("cli.self_s", "s"),
    ("trace.coverage", "share"),
    ("trace.overhead", "share"),
)


@dataclass
class Summary:
    metrics: Dict[str, Dict[str, Any]]
    report: List[str]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarise(traced: Sequence[Tuple[float, Sequence[Any]]],
              plain_walls: Sequence[float]) -> Summary:
    """`traced` holds (pass wall, results) of the traced passes; each result
    carries `trace` (the record written by tracecli.py), `spawn` and `wall`."""
    npass = len(traced)
    incl: Dict[str, float] = {}
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    distinct: Dict[str, int] = {}
    degree_s: Dict[int, float] = {}
    cells = nnz = e_cells = e_nnz = e_bits = e_out = term_bits = 0
    start = parse = main_self = main_incl = 0.0
    ncmd = 0
    for _, results in traced:
        for r in results:
            t = r.trace
            if t is None:
                continue
            ncmd += 1
            spans = t["spans"]
            for name, s0, s1, _, own in spans:
                incl[name] = incl.get(name, 0.0) + (s1 - s0)
                self_s[name] = self_s.get(name, 0.0) + own
            for name, n in t["calls"].items():
                calls[name] = calls.get(name, 0) + n
            for name, n in t["distinct"].items():
                distinct[name] = distinct.get(name, 0) + n
            for ev in t["events"]:
                if ev["kind"] == "matrix":
                    degree_s[ev["degree"]] = degree_s.get(ev["degree"], 0.0) + ev["seconds"]
                    cells += ev["rows"] * ev["cols"]
                    nnz += ev["nnz"]
                elif ev["kind"] == "elim":
                    e_cells += ev["rows"] * ev["cols"]
                    e_nnz += ev["nnz"]
                    e_bits = max(e_bits, ev["max_bits"])
                    e_out = max(e_out, ev["out_max_bits"])
                elif ev["kind"] == "terms":
                    term_bits = max(term_bits, ev["max_bits"])
            mains = [sp for sp in spans if sp[0] == "cli.main"]
            if mains:
                _, m0, m1, _, own = mains[0]
                start += m0 - r.spawn - t["wrap_s"]
                main_incl += m1 - m0
                main_self += own
    parse = incl.get("cli.parse_model", 0.0)
    per = 1.0 / npass if npass else 0.0
    lya, rep = calls.get("structures.check_lya", 0), calls.get("structures.check_representation", 0)
    traced_walls = [w for w, _ in traced]
    m = {
        "complexes.assembly_s": incl.get("complexes.coboundary_matrix", 0.0) * per,
        "complexes.assembly_s.d1": degree_s.get(1, 0.0) * per,
        "complexes.assembly_s.d2": degree_s.get(2, 0.0) * per,
        "complexes.assembly_s.d3": degree_s.get(3, 0.0) * per,
        "complexes.coboundary_matrix.calls": calls.get("complexes.coboundary_matrix", 0) * per,
        "complexes.coboundary.calls": calls.get("complexes.coboundary", 0) * per,
        "complexes.assemblies_per_matrix": _ratio(calls.get("complexes.coboundary_matrix", 0),
                                                  distinct.get("matrix", 0)),
        "complexes.matrix.cells": cells * per,
        "complexes.matrix.nnz": nnz * per,
        "linalg.rank_kernel.s": incl.get("linalg.rank_kernel", 0.0) * per,
        "linalg.rank_kernel.calls": calls.get("linalg.rank_kernel", 0) * per,
        "linalg.solve_linear.s": incl.get("linalg.solve_linear", 0.0) * per,
        "linalg.solve_linear.calls": calls.get("linalg.solve_linear", 0) * per,
        "linalg.elim.cells": e_cells * per,
        "linalg.elim.nnz": e_nnz * per,
        "linalg.elim.max_bits": e_bits,
        "linalg.elim.out_max_bits": e_out,
        "structures.check_lya.s": incl.get("structures.check_lya", 0.0) * per,
        "structures.check_lya.calls": lya * per,
        "structures.check_representation.s":
            incl.get("structures.check_representation", 0.0) * per,
        "structures.check_representation.calls": rep * per,
        "structures.adjoint_rep.self_s": self_s.get("structures.adjoint_rep", 0.0) * per,
        "structures.checks_per_object": _ratio(lya + rep, distinct.get("object", 0)),
        "rbo.check_rbo.s": incl.get("rbo.check_rbo", 0.0) * per,
        "rbo.check_rbo.calls": calls.get("rbo.check_rbo", 0) * per,
        "rbo.induced.self_s": (self_s.get("rbo.induced_lya_on_v", 0.0)
                               + self_s.get("rbo.induced_rep_on_g", 0.0)) * per,
        "rbo_cohomology.build_s": incl.get("rbo_cohomology.RboComplex.build", 0.0) * per,
        "rbo_cohomology.build_calls": calls.get("rbo_cohomology.RboComplex.build", 0) * per,
        "rbo_cohomology.builds_per_operator": _ratio(
            calls.get("rbo_cohomology.RboComplex.build", 0), distinct.get("operator", 0)),
        "deformation.order_n_check.s": incl.get("deformation.order_n_check", 0.0) * per,
        "deformation.order_n_check.calls": calls.get("deformation.order_n_check", 0) * per,
        "deformation.obstruction.self_s": self_s.get("deformation.obstruction", 0.0) * per,
        "deformation.nijenhuis_element_check.s":
            incl.get("deformation.nijenhuis_element_check", 0.0) * per,
        "deformation.terms.max_bits": term_bits,
        "cli.start_s": _ratio(start, ncmd),
        "cli.parse_s": _ratio(parse, ncmd),
        "cli.self_s": _ratio(main_self, ncmd),
        "trace.coverage": _ratio(main_incl - main_self, main_incl),
        "trace.overhead": (_ratio(statistics.median(traced_walls), statistics.median(plain_walls))
                           - 1.0) if traced_walls and plain_walls else 0.0,
    }
    metrics = {name: {"value": m[name], "unit": unit} for name, unit in METRICS}

    report = [f"traced: {npass} pass(es), {ncmd} commands; self time per pass by span:"]
    for name, secs in sorted(self_s.items(), key=lambda kv: -kv[1]):
        report.append(f"  {name:42s} self {secs * per:9.4f} s  incl {incl[name] * per:9.4f} s"
                      f"  calls {calls.get(name, 0) * per:8.1f}")
    for name, unit in METRICS:
        report.append(f"  {name:42s} {m[name]:14.6f} {unit}")
    return Summary(metrics, report)
