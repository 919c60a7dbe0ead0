"""Output checks for the benchmark's `lyat` commands.

`check_output` judges one command from its exit code and JSON output alone.
`check_pass` adds the relations between commands of one pass, and
`verify_outside` recomputes what needs the library (deformation terms, the
operator-complex dimensions of native models); it runs after the timed
region. Every function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

import models as M
from workloads import Command

STATUS = {0: "ok", 1: "violated", 2: "error"}

# (C, Z, B, H) of the bare complex, the same for every seed and basis: the
# dim-4 algebra is fixed and the dim-3 ones are rescalings of one algebra.
BARE_DIMS: Dict[Tuple[str, int], Tuple[int, int, int, int]] = {
    ("dim4", 1): (16, 8, 0, 8),
    ("dim4", 2): (120, 51, 8, 43),
    ("heisenberg", 2): (36, 27, 3, 24),
    ("heisenberg", 3): (108, 81, 9, 72),
    ("sl2", 2): (36, 7, 6, 1),
}


def cochain_dim(dim: int, p: int) -> int:
    """Degree-p cochains of an adjoint-type complex on a dim-dimensional
    algebra: m*v in degree 1, w^(p-1) * v * (1 + m) above."""
    if p == 1:
        return dim * dim
    w = dim * (dim - 1) // 2
    return w ** (p - 1) * dim * (1 + dim)


def _dims(details: Dict[str, Any]) -> Tuple[int, int, int, int]:
    return (details["dim_cochains"], details["dim_cocycles"],
            details["dim_coboundaries"], details["dim_h"])


def _model_dim(family: str) -> int:
    return {"dim2": 2, "dim4": 4, "heisenberg": 3, "sl2": 3}[family]


def parse(stdout: bytes) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict) or set(doc) != {"command", "status", "details"}:
        return None, ["output lacks command/status/details"]
    return doc, []


def check_output(cmd: Command, rc: int, stdout: bytes) -> List[str]:
    doc, problems = parse(stdout)
    if doc is None:
        return problems
    if cmd.expect is None:
        if rc not in (0, 1):
            problems.append(f"exit {rc}, expected 0 or 1")
    elif rc != cmd.expect:
        problems.append(f"exit {rc}, expected {cmd.expect}")
    if doc["status"] != STATUS.get(rc):
        problems.append(f"status {doc['status']!r} does not match exit {rc}")
    if problems:
        return problems
    d = doc["details"]
    if rc == 2:
        if not isinstance(d.get("message"), str) or not d["message"]:
            problems.append("error without a message")
        return problems
    try:
        problems += _check_details(cmd, rc, d)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed details: {exc!r}")
    return problems


def _check_details(cmd: Command, rc: int, d: Dict[str, Any]) -> List[str]:
    problems: List[str] = []
    head = cmd.argv[0]
    if head == "cohomology":
        p = cmd.info["degree"]
        c, z, b, h = _dims(d)
        if d["degree"] != p or d["complex"] != cmd.info["complex"]:
            problems.append("degree or complex echoed wrongly")
        if c != cochain_dim(_model_dim(cmd.family), p):
            problems.append(f"dim_cochains {c} != {cochain_dim(_model_dim(cmd.family), p)}")
        if h != z - b:
            problems.append(f"dim_h {h} != Z - B = {z - b}")
        if not 0 <= b <= z <= c:
            problems.append(f"dimensions out of order: B={b} Z={z} C={c}")
        if cmd.info["complex"] == "bare":
            want = BARE_DIMS.get((cmd.family, p))
            if want is not None and (c, z, b, h) != want:
                problems.append(f"bare dims {(c, z, b, h)} != {want}")
    elif head in ("check-algebra", "check-rep", "check-rbo"):
        if bool(d["violations"]) != (rc == 1):
            problems.append("violations do not match the exit code")
    elif head == "nijenhuis":
        m = _model_dim(cmd.family)
        elems = d["elements"]
        if len(elems) != m * (m - 1) // 2:
            problems.append(f"{len(elems)} basis wedges checked, expected {m * (m - 1) // 2}")
        for e in elems:
            if e["is_nijenhuis"] != all(cond["valid"] for cond in e["conditions"]):
                problems.append(f"{e['name']}: is_nijenhuis disagrees with its conditions")
        if (rc == 0) != all(e["is_nijenhuis"] for e in elems):
            problems.append("exit code disagrees with the per-element verdicts")
    elif head == "deform":
        problems += _check_deform(cmd, d)
    return problems


def _check_deform(cmd: Command, d: Dict[str, Any]) -> List[str]:
    action = cmd.argv[1]
    problems: List[str] = []
    if action == "check":
        if d["order"] != 1 or d["violations"]:
            problems.append("a family member's linear deformation must hold at order 1")
    elif action == "obstruction":
        # T + tD stays in the operator family for every t, so the t^2
        # residual is exactly zero.
        if not (d["obstruction_is_zero"] and d["is_cocycle"] and d["trivial"]):
            problems.append("obstruction of an exact family must vanish")
    else:
        target = cmd.info["target"]
        if (d["start_order"], d["target_order"], d["achieved_order"], d["stuck_at"]) \
                != (1, target, target, None):
            problems.append(f"extension did not reach order {target}")
        elif len(d["terms"]) != target + 1:
            problems.append("extension has the wrong number of terms")
    return problems


def check_pass(cmds: Sequence[Command], docs: Dict[str, Dict[str, Any]]) -> Dict[str, List[str]]:
    """B^p = C^(p-1) - Z^(p-1) between degrees run on the same model."""
    by_key = {}
    for c in cmds:
        if c.argv[0] == "cohomology" and c.cid in docs:
            by_key[(c.model, c.info["complex"], c.info["degree"])] = c
    problems: Dict[str, List[str]] = {}
    for (model, cx, p), c in by_key.items():
        prev = by_key.get((model, cx, p - 1))
        if p < 2 or prev is None:
            continue
        cp, zp, _, _ = _dims(docs[prev.cid]["details"])
        _, _, b, _ = _dims(docs[c.cid]["details"])
        if b != cp - zp:
            problems.setdefault(c.cid, []).append(
                f"B^{p} = {b} but C^{p - 1} - Z^{p - 1} = {cp - zp}")
    return problems


def verify_outside(cmds: Sequence[Command], docs: Dict[str, Dict[str, Any]],
                   natives: Dict[str, M.Model], files: Dict[str, str]) -> Dict[str, List[str]]:
    """Checks that call the library, after the timed region. An exception
    counts against the command rather than ending the run."""
    problems: Dict[str, List[str]] = {}
    for c in cmds:
        doc = docs.get(c.cid)
        if doc is None or doc["status"] == "error":
            continue
        try:
            found = _verify_one(c, doc["details"], natives, files)
        except Exception as exc:        # the library under test may be broken
            found = [f"re-verification raised {exc!r}"]
        if found:
            problems[c.cid] = found
    return problems


def _verify_one(c: Command, d: Dict[str, Any], natives: Dict[str, M.Model],
                files: Dict[str, str]) -> List[str]:
    from lieyamaguti import cli, deformation, rbo, rbo_cohomology
    from lieyamaguti.linalg import Matrix

    if c.argv[:2] == ["deform", "extend"]:
        model = cli.parse_model(files[c.model], c.model)
        terms = [_matrix(t) for t in d["terms"]]
        if terms[0] != [list(r) for r in model.operator.entries] \
                or terms[1] != [list(r) for r in model.deformation[1].entries]:
            return ["extension changed the given terms"]
        o = rbo.RelRBO.build(model.algebra, model.rep(), model.operator)
        ext = deformation.TruncatedDeformation(tuple(Matrix(t) for t in terms))
        if not deformation.order_n_check(o, ext).valid:
            return ["extended terms fail order_n_check"]
    elif c.native is not None and c.info.get("complex") == "operator":
        native = cli.parse_model(M.to_lyat(natives[c.native]), c.native)
        o = rbo.RelRBO.build(native.algebra, native.rep(), native.operator)
        want = rbo_cohomology.rbo_cohomology_dims(rbo_cohomology.RboComplex.build(o),
                                                  c.info["degree"])
        want = (want.dim_cochains, want.dim_cocycles, want.dim_coboundaries, want.dim_h)
        if _dims(d) != want:
            return [f"transported dims {_dims(d)} != native {want}"]
    return []


def _matrix(rows: List[List[str]]) -> List[List[Fraction]]:
    return [[Fraction(x) for x in r] for r in rows]
