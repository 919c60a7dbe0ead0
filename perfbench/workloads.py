"""The benchmark's workloads: seeded model files and the `lyat` commands run
on them, each with the outcome a correct program must produce.

The seed changes coefficients (operator entries, diagonal rescalings, the
basis change P), never the shape or size of the work: every seed yields the
same command list on models of the same dimensions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import models as M

DEFAULT_SEED = 1


@dataclass
class Command:
    """One `lyat` invocation and what its output must satisfy.

    `kind` groups commands for the per-kind latency report. `expect` is the
    exit code a correct program returns. `family` names the structure of the
    model ("dim2", "dim4", "heisenberg", "sl2"); `native` is the key, in
    `Workload.natives`, of the model this one's file transports, for
    invariance checks. `expect` None
    means 0 or 1, whichever the output's own verdicts call for.
    """

    cid: str
    kind: str
    argv: List[str]
    expect: Optional[int]
    family: str
    model: str
    native: Optional[str] = None
    info: Dict[str, object] = field(default_factory=dict)


@dataclass
class Workload:
    files: Dict[str, str]
    commands: List[Command]
    natives: Dict[str, M.Model]


def _cohomology(cid: str, model: str, family: str, degree: int, rbo: bool,
                native: Optional[str] = None) -> Command:
    argv = ["cohomology", model, "--degree", str(degree)] + (["--rbo"] if rbo else [])
    return Command(cid, f"cohomology.d{degree}", argv, 0, family, model, native,
                   {"degree": degree, "complex": "operator" if rbo else "bare"})


# Cohomology commands: (id, model, degree, --rbo). The dense workload
# leaves out heis.h3: the Heisenberg algebra stays sparse under the basis
# change, so that command would only add assembly time there. Degree 2 of
# the operator complex and degree 3 of sl2 are left out so that a pass fits
# in a 30 s run; each is another ~5 s of assembly like d4.h2 and heis.h3.
COHOMOLOGY = (
    ("d4.h1", "d4", 1, False),
    ("d4.h2", "d4", 2, False),
    ("d4.h1.rbo", "d4", 1, True),
    ("heis.h2", "heis", 2, False),
    ("heis.h3", "heis", 3, False),
    ("sl2.h2", "sl2", 2, False),
)
DENSE_SKIP = {"heis.h3"}
FAMILY = {"d4": "dim4", "heis": "heisenberg", "sl2": "sl2"}


def _cohomology_natives(rng: random.Random) -> Dict[str, M.Model]:
    return {"d4": M.operator_model(rng, "dim4"),
            "heis": M.lie_model(rng, "heisenberg"),
            "sl2": M.lie_model(rng, "sl2")}


def cohomology_sparse(seed: int) -> Workload:
    natives = _cohomology_natives(random.Random(seed))
    files = {f"{k}.lyat": M.to_lyat(m) for k, m in natives.items()}
    cmds = [_cohomology(cid, f"{model}.lyat", FAMILY[model], deg, rbo)
            for cid, model, deg, rbo in COHOMOLOGY]
    return Workload(files, cmds, natives)


def cohomology_dense(seed: int) -> Workload:
    rng = random.Random(seed)
    natives = _cohomology_natives(rng)
    files = {f"{k}-P.lyat": M.to_lyat(M.transport(m, M.basis_change(rng, m.dim)))
             for k, m in natives.items()}
    cmds = [_cohomology(cid, f"{model}-P.lyat", FAMILY[model], deg, rbo, native=model)
            for cid, model, deg, rbo in COHOMOLOGY if cid not in DENSE_SKIP]
    return Workload(files, cmds, natives)


def operator(seed: int) -> Workload:
    rng = random.Random(seed)

    def member(dim: int) -> M.Model:
        return M.operator_model(rng, f"dim{dim}")

    a, c = member(2), member(4)
    b = M.transport(member(2), M.basis_change(rng, 2))
    d = M.transport(member(4), M.basis_change(rng, 4))
    cx = c.copy()
    cx.write_out_rep()
    e = M.corrupt(member(4), "ternary", rng)
    f = M.transport(M.corrupt(member(2), "mu", rng), M.basis_change(rng, 2))
    g = M.corrupt(member(4), "operator", rng)
    models = {"a": a, "b": b, "c": c, "cx": cx, "d": d, "e": e, "f": f, "g": g}
    files = {f"{k}.lyat": M.to_lyat(m) for k, m in models.items()}
    fam = {k: f"dim{m.dim}" for k, m in models.items()}

    def cmd(cid: str, kind: str, argv: List[str], model: str, expect: Optional[int],
            **info) -> Command:
        at = 2 if argv[0] == "deform" else 1      # `deform ACTION FILE`
        return Command(cid, kind, argv[:at] + [f"{model}.lyat"] + argv[at:], expect,
                       fam[model], f"{model}.lyat", info=info)

    cmds = [
        cmd("alg.c", "check", ["check-algebra"], "c", 0),
        cmd("alg.e.bad", "check", ["check-algebra"], "e", 1),
        cmd("rep.c", "check", ["check-rep"], "c", 0),
        cmd("rep.cx", "check", ["check-rep"], "cx", 0),
        cmd("rep.d", "check", ["check-rep"], "d", 0),
        cmd("rep.f.bad", "check", ["check-rep"], "f", 1),
        cmd("rbo.c", "check", ["check-rbo"], "c", 0),
        cmd("rbo.b", "check", ["check-rbo"], "b", 0),
        cmd("rbo.g.bad", "check", ["check-rbo"], "g", 1),
        cmd("nij.c", "nijenhuis", ["nijenhuis", "--all-basis"], "c", None),
        cmd("nij.b", "nijenhuis", ["nijenhuis", "--all-basis"], "b", None),
        cmd("nij.e.bad", "nijenhuis", ["nijenhuis", "--all-basis"], "e", 2),
        cmd("def.check.c", "deform.check", ["deform", "check"], "c", 0),
        cmd("def.obs.a", "deform.check", ["deform", "obstruction"], "a", 0),
        cmd("def.check.g.bad", "deform.check", ["deform", "check"], "g", 2),
        cmd("def.ext.c", "deform.extend", ["deform", "extend", "--max-order", "2"], "c", 0,
            target=2),
        cmd("def.ext.b", "deform.extend", ["deform", "extend", "--max-order", "4"], "b", 0,
            target=4),
    ]
    return Workload(files, cmds, models)


WORKLOADS = {
    "cohomology-sparse": cohomology_sparse,
    "cohomology-dense": cohomology_dense,
    "operator": operator,
}
