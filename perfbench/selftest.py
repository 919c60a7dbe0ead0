"""Self-tests of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

They check that the generator's valid models are valid and its corrupted
ones are not, that the output checks reject tampered outputs, and that a
traced run records every span tracecli.py lists.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import models as M  # noqa: E402
import run  # noqa: E402
import tracecli  # noqa: E402
import workloads  # noqa: E402
from lieyamaguti import check_lya, check_rbo, check_representation, cli  # noqa: E402

SEEDS = (1, 2, 3)


def deadline() -> float:
    return run.clock() + run.RUN_BUDGET_S


def verdicts(text: str):
    """(algebra, representation, operator) validity; None where the earlier
    failure makes the later question moot."""
    mf = cli.parse_model(text)
    alg = check_lya(mf.algebra).valid
    if not alg:
        return (False, None, None)
    rep = check_representation(mf.rep()).valid
    if not rep or mf.operator is None:
        return (True, rep, None)
    return (True, True, check_rbo(mf.algebra, mf.rep(), mf.operator).valid)


class GeneratorTest(unittest.TestCase):
    def test_family_members_are_valid_native_and_transported(self):
        for seed in SEEDS:
            rng = random.Random(seed)
            for family in ("dim2", "dim4"):
                m = M.operator_model(rng, family)
                p = M.basis_change(rng, m.dim)
                ex = m.copy()
                ex.write_out_rep()
                for model in (m, ex, M.transport(m, p), M.transport(ex, p)):
                    self.assertEqual(verdicts(M.to_lyat(model)), (True, True, True))
            for name in M.LIE_TYPES:
                m = M.lie_model(rng, name)
                for model in (m, M.transport(m, M.basis_change(rng, 3))):
                    self.assertEqual(verdicts(M.to_lyat(model))[:2], (True, True))

    def test_every_listed_corruption_breaks_its_family(self):
        want = {"ternary": (False, None, None), "mu": (True, False, None),
                "operator": (True, True, False)}
        rng = random.Random(7)
        for family, dim in (("dim2", 2), ("dim4", 4)):
            base = M.operator_model(rng, family)
            for i, j, k, l in M.TERNARY_BUMPS[dim]:
                for delta in (-1, 1):
                    m = base.copy()
                    vec = list(m.ternary[i][j][k])
                    vec[l] += delta
                    M._set_ternary(m.ternary, i, j, k, tuple(vec))
                    self.assertEqual(verdicts(M.to_lyat(m))[0], False, (i, j, k, l, delta))
            for i, j, r, c in M.MU_BUMPS[dim]:
                m = base.copy()
                m.write_out_rep()
                m.mu[i][j][r][c] += 1
                self.assertEqual(verdicts(M.to_lyat(m))[:2], (True, False), (i, j, r, c))
            for kind in M.CORRUPTIONS:
                for _ in range(3):
                    bad = M.corrupt(M.operator_model(rng, family), kind, rng)
                    p = M.basis_change(rng, dim)
                    for model in (bad, M.transport(bad, p)):
                        self.assertEqual(verdicts(M.to_lyat(model)), want[kind], kind)

    def test_workloads_depend_only_on_the_seed(self):
        for name, build in workloads.WORKLOADS.items():
            a, b, c = build(3), build(3), build(4)
            self.assertEqual(a.files, b.files, name)
            self.assertNotEqual(a.files, c.files, name)
            self.assertEqual([x.argv for x in a.commands], [x.argv for x in c.commands], name)


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = os.path.join(run.OUT, f"selftest-{os.getpid()}")
        cls.wl, _ = run.setup("operator", workloads.DEFAULT_SEED, cls.work, run.child_env(),
                              deadline())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def run_cmd(self, cid):
        cmd = next(c for c in self.wl.commands if c.cid == cid)
        res = run.spawn(cmd.argv, self.work, run.child_env(), deadline(), cmd=cmd)
        self.assertEqual(checks.check_output(cmd, res.rc, res.stdout), [], cid)
        return cmd, res

    def test_tampered_outputs_fail(self):
        cmd, res = self.run_cmd("rbo.g.bad")
        doc = json.loads(res.stdout)
        cases = [
            (0, res.stdout),                                   # wrong exit code
            (res.rc, b"not json"),                             # unparsable
            (res.rc, json.dumps({**doc, "status": "ok"}).encode()),
            (res.rc, json.dumps({**doc, "details": {**doc["details"], "violations": []}}).encode()),
        ]
        for rc, out in cases:
            self.assertNotEqual(checks.check_output(cmd, rc, out), [], out[:60])

    def test_tampered_cohomology_fails(self):
        wl = workloads.cohomology_sparse(2)
        cmd = next(c for c in wl.commands if c.cid == "d4.h1")
        good = {"command": "cohomology", "status": "ok", "details": {
            "degree": 1, "complex": "bare", "dim_cochains": 16, "dim_cocycles": 8,
            "dim_coboundaries": 0, "dim_h": 8}}
        self.assertEqual(checks.check_output(cmd, 0, json.dumps(good).encode()), [])
        for key, val in (("dim_h", 7), ("dim_cochains", 15), ("dim_cocycles", 9)):
            bad = {**good, "details": {**good["details"], key: val}}
            self.assertNotEqual(checks.check_output(cmd, 0, json.dumps(bad).encode()), [], key)

    def test_tampered_extension_fails_outside_checks(self):
        cmd, res = self.run_cmd("def.ext.b")
        doc = json.loads(res.stdout)
        self.assertEqual(checks.verify_outside([cmd], {cmd.cid: doc}, self.wl.natives,
                                               self.wl.files), {})
        doc["details"]["terms"][2][0][1] = "1/7"
        self.assertIn(cmd.cid, checks.verify_outside([cmd], {cmd.cid: doc},
                                                     self.wl.natives, self.wl.files))

    def test_golden_outputs_cover_every_command(self):
        for name, build in workloads.WORKLOADS.items():
            golden = run.load_golden(name)
            self.assertEqual(set(golden), {c.cid for c in build(workloads.DEFAULT_SEED).commands})


class TracerTest(unittest.TestCase):
    def test_dry_traced_run_records_every_span(self):
        work = os.path.join(run.OUT, f"selftest-trace-{os.getpid()}")
        try:
            wl, _ = run.setup("operator", 5, work, run.child_env(), deadline())
            argvs = [["cohomology", "a.lyat", "--degree", "1"],
                     ["cohomology", "a.lyat", "--degree", "2", "--rbo"],
                     ["deform", "extend", "a.lyat", "--max-order", "2"],
                     ["nijenhuis", "a.lyat", "--all-basis"]]
            calls = {}
            for argv in argvs:
                res = run.spawn(argv, work, run.child_env(), deadline(), traced=True)
                self.assertEqual(res.rc, 0, argv)
                for name, n in res.trace["calls"].items():
                    calls[name] = calls.get(name, 0) + n
            for mod, attr in tracecli.SPANS:
                self.assertGreater(calls.get(f"{mod}.{attr}", 0), 0, f"{mod}.{attr}")
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
