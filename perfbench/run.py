"""End-to-end benchmark of the `lyat` command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The seed generates the workload's
`.lyat` models; each command then runs as a fresh
`python -m lieyamaguti.cli ... --format json` process, one at a time (a
closed loop with one client), so start-up is included and no state carries
from one command to the next. No `-O`: library asserts are part of the cost.

A run sets up seven times (generate the inputs, run one warm-up command)
and reports the median as `setup_s`. It then runs whole passes over the
command list: always one, and another while the last pass still fits in
the remaining seconds. Every output is checked (checks.py); a wrong exit
code, unparsable output, failed check or timeout counts as failed.

With --trace 1 every command runs plain and then traced (tracecli.py wraps
the package's layers from outside) and the run reports per-layer metrics
instead; the plain runs measure the tracing overhead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Every command's record (and, traced, its spans) is written to
perfbench/out/run-<workload>-<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Command, Workload  # noqa: E402

clock = time.perf_counter
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden")
SETUPS = 7
# A command still running this long after the run started is killed and
# counts as failed, so a run ends within the 180 s it may take even when a
# change makes the program stall.
RUN_BUDGET_S = 165.0
WARM_UP = ["examples", "list"]


class Result:
    __slots__ = ("cmd", "wall", "rc", "stdout", "stderr", "maxrss_kb", "spawn", "trace",
                 "problems")

    def __init__(self, cmd: Command, wall: float, rc: int, stdout: bytes, stderr: str,
                 maxrss_kb: int, spawn: float, trace: Optional[dict]):
        self.cmd, self.wall, self.rc, self.stdout, self.stderr = cmd, wall, rc, stdout, stderr
        self.maxrss_kb, self.spawn, self.trace = maxrss_kb, spawn, trace
        self.problems: List[str] = []


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: List[str], work: str, env: Dict[str, str], deadline: float,
          traced: bool = False, cmd: Optional[Command] = None) -> Result:
    """Run one command to completion, or kill it at `deadline`; wall time,
    exit code, output and the child's own peak RSS (from wait4, so earlier
    children do not count)."""
    out_path = os.path.join(work, "stdout")
    err_path = os.path.join(work, "stderr")
    trace_path = os.path.join(work, "trace.json")
    if traced:
        full = [sys.executable, os.path.join(HERE, "tracecli.py"), trace_path, "--"]
    else:
        full = [sys.executable, "-m", "lieyamaguti.cli"]
    full += argv + ["--format", "json"]
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(full, cwd=work, env=env, stdout=out, stderr=err)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(max(deadline - t0, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = clock() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()[-2000:]
    trace = None
    if traced and os.path.exists(trace_path):
        with open(trace_path, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        os.remove(trace_path)
    res = Result(cmd, wall, rc, stdout, stderr, usage.ru_maxrss, t0, trace)
    if killed.is_set() and rc == -signal.SIGKILL:
        res.problems.append(f"killed: the run's {RUN_BUDGET_S} s were used up")
    return res


def setup(name: str, seed: int, work: str, env: Dict[str, str],
          deadline: float) -> Tuple[Workload, float]:
    """Generate the inputs into a fresh directory and run the warm-up."""
    t0 = clock()
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = WORKLOADS[name](seed)
    for fname, text in wl.files.items():
        with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    warm = spawn(WARM_UP, work, env, deadline)
    if warm.rc != 0:
        raise RuntimeError(f"warm-up command failed with exit {warm.rc}")
    return wl, clock() - t0


def run_pass(wl: Workload, work: str, env: Dict[str, str], deadline: float,
             modes: Tuple[bool, ...]) -> Dict[bool, List[Result]]:
    """One pass over the command list per mode (plain, traced); with both
    modes each command runs plain and then traced, so slow spells of the
    machine hit both alike."""
    passes: Dict[bool, List[Result]] = {m: [] for m in modes}
    for c in wl.commands:
        for m in modes:
            passes[m].append(spawn(c.argv, work, env, deadline, m, c))
    for results in passes.values():
        docs = {}
        for r in results:
            r.problems += checks.check_output(r.cmd, r.rc, r.stdout)
            if not r.problems:
                docs[r.cmd.cid] = json.loads(r.stdout)
        by_cid = {r.cmd.cid: r for r in results}
        for cid, problems in checks.check_pass(wl.commands, docs).items():
            by_cid[cid].problems += problems
    return passes


def measure(wl: Workload, work: str, env: Dict[str, str], seconds: float,
            trace: bool, deadline: float) -> List[Tuple[bool, float, List[Result]]]:
    """Whole passes: the first always, each further one only while it fits
    in the remaining time. A pass's wall time is the sum of its commands'."""
    passes: List[Tuple[bool, float, List[Result]]] = []
    modes = (False, True) if trace else (False,)
    start = clock()
    while True:
        t0 = clock()
        for traced, results in run_pass(wl, work, env, deadline, modes).items():
            passes.append((traced, sum(r.wall for r in results), results))
        if clock() - start + (clock() - t0) > seconds:
            return passes


def load_golden(name: str) -> Dict[str, str]:
    path = os.path.join(GOLDEN, f"{name}.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def final_checks(name: str, seed: int, wl: Workload,
                 passes: List[Tuple[bool, float, List[Result]]]) -> None:
    """Checks outside the timed region: outputs identical across passes,
    library re-verification, and golden outputs for the default seed."""
    first: Dict[str, bytes] = {}
    for _, _, results in passes:
        for r in results:
            ref = first.setdefault(r.cmd.cid, r.stdout)
            if r.stdout != ref:
                r.problems.append("output differs from the first pass")
    last = passes[-1][2]
    docs = {r.cmd.cid: json.loads(r.stdout) for r in last if not r.problems}
    sys.path.insert(0, SRC)
    extra = checks.verify_outside(wl.commands, docs, wl.natives, wl.files)
    golden = load_golden(name) if seed == DEFAULT_SEED else None
    for _, _, results in passes:
        for r in results:
            r.problems += extra.get(r.cmd.cid, [])
            if golden is not None and golden.get(r.cmd.cid) != r.stdout.decode("utf-8", "replace"):
                r.problems.append("output differs from the golden output of the default seed")


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(setups: List[float], plain: List[Tuple[float, List[Result]]]) -> Dict[str, Any]:
    """Each command's median over the plain passes, which damps a slow spell
    of the machine within one pass; `wall_s` sums them (the command list
    run once) and `cmd_max_s` is the slowest. `peak_rss_mb` is the largest
    peak RSS of any command."""
    per_cmd: Dict[str, List[float]] = {}
    for _, rs in plain:
        for r in rs:
            per_cmd.setdefault(r.cmd.cid, []).append(r.wall)
    medians = [statistics.median(v) for v in per_cmd.values()]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(medians), "s"),
        "cmd_max_s": metric(max(medians), "s"),
        "peak_rss_mb": metric(max(r.maxrss_kb for _, rs in plain for r in rs) / 1024.0, "MB"),
    }


def per_kind(plain: List[Tuple[float, List[Result]]]) -> Dict[str, Tuple[float, int]]:
    """Median wall time and sample count per command kind."""
    walls: Dict[str, List[float]] = {}
    for _, rs in plain:
        for r in rs:
            walls.setdefault(r.cmd.kind, []).append(r.wall)
    return {k: (statistics.median(v), len(v)) for k, v in sorted(walls.items())}


def write_records(args, setups: List[float],
                  passes: List[Tuple[bool, float, List[Result]]]) -> None:
    """Every command of the run, with the spans of traced ones."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"run-{args.workload}-{args.seed}-trace{args.trace}.json")
    records = [{"pass": i, "traced": tr, "pass_wall": w, "cid": r.cmd.cid, "argv": r.cmd.argv,
                "spawn": r.spawn, "wall": r.wall, "rc": r.rc, "maxrss_kb": r.maxrss_kb,
                "problems": r.problems, "stderr": r.stderr if r.problems else "",
                "trace": r.trace}
               for i, (tr, w, rs) in enumerate(passes) for r in rs]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"setups": setups, "commands": records}, fh)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time; the first pass always runs whole")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="write the outputs of this run as the golden outputs "
                         "(default seed only)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lieyamaguti", "cli.py")):
        print(f"error: no lieyamaguti sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        print(f"error: golden outputs belong to seed {DEFAULT_SEED}", file=sys.stderr)
        return 2

    # A terminated run still kills and reaps the command it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = clock() + RUN_BUDGET_S
    env = child_env()
    work = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        setups = []
        for _ in range(SETUPS):
            wl, secs = setup(args.workload, args.seed, work, env, deadline)
            setups.append(secs)
        passes = measure(wl, work, env, args.seconds, bool(args.trace), deadline)
        if args.record_golden:
            os.makedirs(GOLDEN, exist_ok=True)
            with open(os.path.join(GOLDEN, f"{args.workload}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump({r.cmd.cid: r.stdout.decode("utf-8") for r in passes[0][2]},
                          fh, indent=1, sort_keys=True)
                fh.write("\n")
        final_checks(args.workload, args.seed, wl, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [(w, rs) for traced, w, rs in passes if not traced]
    traced = [(w, rs) for tr, w, rs in passes if tr]
    measured = plain + traced
    attempted = sum(len(rs) for _, rs in measured)
    failed = sum(1 for _, rs in measured for r in rs if r.problems)

    for _, rs in measured:
        for r in rs:
            for p in r.problems:
                print(f"FAILED {r.cmd.cid}: {' '.join(r.cmd.argv)}: {p}")
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} plain pass(es)"
          f"{f', {len(traced)} traced' if traced else ''}; "
          f"{attempted} commands, {failed} failed, fail_ratio {failed / attempted:.4f}")
    for kind, (med, n) in per_kind(plain).items():
        print(f"  {kind + '_s':22s} median {med:9.4f} s  (n={n})")

    if args.trace:
        summary = layers.summarise(traced, [w for w, _ in plain])
        metrics = summary.metrics
        for line in summary.report:
            print(line)
    else:
        metrics = end_to_end(setups, plain)
        for name, m in metrics.items():
            print(f"  {name:22s} {m['value']:12.6f} {m['unit']}")
    write_records(args, setups, passes)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
