"""Run one `lyat` command with its layers traced from the outside.

    python3 perfbench/tracecli.py TRACE_OUT.json -- <lyat arguments...>

The package is imported unchanged; every function listed in `SPANS` is
replaced, in every `lieyamaguti` module namespace that binds it, by a
wrapper that records a span (name, start, end, parent) and call counts.
Where a call enters `linalg` the wrapper also records the matrix shape,
nonzeros and the largest entry in bits, computed outside the span's clock.
Spans stay in memory and are written to TRACE_OUT.json when the command
ends; the process exits with the command's own exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

clock = time.perf_counter

# (module, attribute) of every traced function. `RboComplex.build` is a
# classmethod and is wrapped on the class.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("cli", "parse_model"),
    ("structures", "check_lya"),
    ("structures", "check_representation"),
    ("structures", "adjoint_rep"),
    ("complexes", "cohomology_dims"),
    ("complexes", "coboundary_matrix"),
    ("complexes", "coboundary"),
    ("linalg", "rank_kernel"),
    ("linalg", "solve_linear"),
    ("rbo", "check_rbo"),
    ("rbo", "induced_lya_on_v"),
    ("rbo", "induced_rep_on_g"),
    ("rbo_cohomology", "RboComplex.build"),
    ("rbo_cohomology", "rbo_cohomology_dims"),
    ("rbo_cohomology", "rbo_coboundary_matrix"),
    ("deformation", "order_n_check"),
    ("deformation", "obstruction"),
    ("deformation", "extend_deformation"),
    ("deformation", "nijenhuis_element_check"),
)

MODULES = ("linalg", "structures", "complexes", "rbo", "rbo_cohomology",
           "deformation", "cli")


def max_bits(values) -> int:
    """Largest numerator or denominator of the entries, in bits."""
    best = 0
    for x in values:
        if x:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def matrix_stats(rows: Sequence[Sequence[Any]]) -> Dict[str, int]:
    flat = [x for r in rows for x in r]
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0,
            "nnz": sum(1 for x in flat if x), "max_bits": max_bits(flat)}


class Tracer:
    """Span stack and records for one process."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []   # [name, start, end, parent, self_s]
        self.stack: List[List[Any]] = []   # [span index, child time]
        self.events: List[Dict[str, Any]] = []
        self.keys: Dict[str, set] = {}
        self.calls: Dict[str, int] = {}

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        spans, stack, calls = self.spans, self.stack, self.calls

        def traced(*args, **kwargs):
            info = before(args) if before is not None else None
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append([name, 0.0, 0.0, parent, 0.0])
            stack.append([idx, 0.0])
            calls[name] = calls.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, child = stack.pop()
                rec = spans[idx]
                rec[1], rec[2], rec[4] = start, end, (end - start) - child
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                after(args, result, info, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def key(self, kind: str, value: Any) -> None:
        self.keys.setdefault(kind, set()).add(value)

    def event(self, **fields: Any) -> None:
        self.events.append(fields)


def import_package() -> Dict[str, Any]:
    return {m: importlib.import_module(f"lieyamaguti.{m}") for m in MODULES}


def install(tracer: Tracer, mods: Dict[str, Any]) -> None:
    """Wrap every function in `SPANS` wherever the package binds it."""
    namespaces = list(mods.values()) + [importlib.import_module("lieyamaguti")]
    hooks = _hooks(tracer)
    for mod_name, attr in SPANS:
        mod = mods[mod_name]
        name = f"{mod_name}.{attr}"
        before, after = hooks.get(name, (None, None))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = getattr(cls, meth).__func__
            wrapped = tracer.wrap(name, orig, before, after)
            setattr(cls, meth, classmethod(wrapped))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(name, orig, before, after)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, wrapped)


def _hooks(tracer: Tracer) -> Dict[str, Tuple[Callable, Callable]]:
    def linalg_before(args):
        m = args[0]
        stats = matrix_stats(m.entries)
        if len(args) > 1:     # solve_linear(a, b): the augmented system
            stats["cols"] += 1
            stats["nnz"] += sum(1 for x in args[1] if x)
            stats["max_bits"] = max(stats["max_bits"], max_bits(args[1]))
        return stats

    def rank_after(args, result, stats, _):
        _, kernel = result
        stats["out_max_bits"] = max((max_bits(v) for v in kernel), default=0)
        tracer.event(kind="elim", fn="rank_kernel", **stats)

    def solve_after(args, result, stats, _):
        stats["out_max_bits"] = max_bits(result) if result is not None else 0
        tracer.event(kind="elim", fn="solve_linear", **stats)

    def assembly_after(args, result, _, seconds):
        ctx, p = args
        tracer.key("matrix", (ctx.rep, p))
        tracer.event(kind="matrix", degree=p, seconds=seconds, **matrix_stats(result.entries))

    def note(kind, key_of):
        def after(args, result, *_):
            tracer.key(kind, key_of(args))
        return after

    def extend_after(args, result, *_):
        if result is not None:
            tracer.event(kind="terms", max_bits=max_bits(
                x for t in result.terms for row in t.entries for x in row))

    def build_after(args, result, *_):
        o = args[-1]
        tracer.key("operator", (o.algebra, o.rep, o.t_matrix))

    return {
        "linalg.rank_kernel": (linalg_before, rank_after),
        "linalg.solve_linear": (linalg_before, solve_after),
        "complexes.coboundary_matrix": (None, assembly_after),
        "structures.check_lya": (None, note("object", lambda a: ("algebra", a[0]))),
        "structures.check_representation": (None, note("object", lambda a: ("rep", a[0]))),
        "rbo_cohomology.RboComplex.build": (None, build_after),
        "deformation.extend_deformation": (None, extend_after),
    }


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracecli.py TRACE_OUT.json -- <lyat arguments...>", file=sys.stderr)
        return 2
    out_path, lyat_args = argv[0], list(argv[2:])
    tracer = Tracer()
    mods = import_package()
    t_wrap = clock()
    install(tracer, mods)
    wrap_s = clock() - t_wrap
    code = mods["cli"].main(lyat_args)
    sys.stdout.flush()
    record = {
        "wrap_s": wrap_s,
        "spans": tracer.spans,
        "calls": tracer.calls,
        "distinct": {k: len(v) for k, v in tracer.keys.items()},
        "events": tracer.events,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
