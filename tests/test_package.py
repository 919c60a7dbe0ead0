"""The package's public surface resolves lazily, its core objects pickle,
and a `lyat` command loads only the library modules it runs."""

import copy
import importlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lieyamaguti as ly
from conftest import Model

HOMES = ("linalg", "structures", "complexes", "rbo", "rbo_cohomology", "deformation")


def test_every_public_name_is_its_home_modules_attribute():
    for name in ly.__all__:
        home = importlib.import_module(f"lieyamaguti.{ly._EXPORTS[name]}")
        assert name in home.__all__, name
        assert getattr(ly, name) is getattr(home, name), name


def test_public_names_cover_every_module_surface():
    listed = set()
    for home in HOMES:
        listed.update(importlib.import_module(f"lieyamaguti.{home}").__all__)
    assert listed == set(ly.__all__)
    assert len(ly.__all__) == len(set(ly.__all__))


def test_dir_and_star_import_follow_all():
    assert set(ly.__all__) <= set(dir(ly))
    namespace = {}
    exec("from lieyamaguti import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ly.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ly.no_such_name
    assert not hasattr(ly, "no_such_name")


@pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_core_objects_round_trip(round_trip, dim4: Model):
    # each is rebuilt by its constructor or its builder, so it stays immutable
    o = ly.RelRBO.build(dim4.algebra, dim4.rep, dim4.op.t_matrix)
    rc = ly.RboComplex.build(o)
    dims = [ly.rbo_cohomology_dims(rc, p) for p in (1, 2)]   # o keeps its complex and delta^0
    d = ly.extend_deformation(o, ly.trivial_deformation_from(o, ly.Wedge2.zero(4)))
    objects = (o.t_matrix, o.algebra, o.rep, o, d)
    for x in objects:
        y = round_trip(x)
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
    ctx = round_trip(rc.ctx)
    assert (ctx.algebra, ctx.rep, ctx.wedge) == (rc.ctx.algebra, rc.ctx.rep, rc.ctx.wedge)
    for x in (*objects, rc.ctx):
        with pytest.raises(AttributeError, match="immutable"):
            round_trip(x).dim = 0
    o2, d2 = round_trip((o, d))
    assert [ly.rbo_cohomology_dims(ly.RboComplex.build(o2), p) for p in (1, 2)] == dims
    assert ly.obstruction(o2, d2) == ly.obstruction(o, d)
    assert ly.obstruction(o2, round_trip(d)) == ly.obstruction(o, d)


def test_a_pickled_operator_carries_only_its_fields(dim4: Model):
    # what a verified operator derives from T (its integer columns, inner
    # tables, delta^0 and complex) is made again on use, and not pickled
    o = ly.RelRBO.build(dim4.algebra, dim4.rep, dim4.op.t_matrix)
    size = len(pickle.dumps(o))
    rc = ly.RboComplex.build(o)
    dims = [ly.rbo_cohomology_dims(rc, p) for p in (1, 2)]
    ly.obstruction(o, ly.trivial_deformation_from(o, ly.Wedge2.zero(4)))
    assert {"columns", "inner", "delta0"} <= set(o.__dict__)
    assert len(pickle.dumps(o)) == size
    y = pickle.loads(pickle.dumps(o))
    assert type(y) is ly.RelRBO and y == o and y.verified and not y.__dict__
    with pytest.raises(AttributeError, match="immutable"):
        y.verified = False
    assert [ly.rbo_cohomology_dims(ly.RboComplex.build(y), p) for p in (1, 2)] == dims


TRACECLI = Path(__file__).resolve().parents[1] / "perfbench" / "tracecli.py"


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_every_traced_name_resolves():
    # perfbench's tracer wraps these by name; a rename in the package would
    # leave `--trace` failing with nothing else to catch it
    spec = importlib.util.spec_from_file_location("tracecli", TRACECLI)
    tracecli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracecli)
    assert tracecli.SPANS
    for module, attribute in tracecli.SPANS:
        obj = importlib.import_module(f"lieyamaguti.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attribute)


@pytest.mark.parametrize("argv,checks", [
    (("check-algebra", "dim2.lyat"), {"structures.check_lya": 1}),
    (("check-rep", "dim2.lyat"), {"structures.adjoint_rep": 1, "structures.check_lya": 1,
                                  "structures.check_representation": 1}),
])
def test_the_tracer_sees_every_traced_call(tmp_path, argv, checks):
    # the tracer rebinds a function only in the namespaces of its own module
    # list, `cli` among them: the parse must go through `cli.parse_model`, and
    # the commands must look the library functions up when they run
    out = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(TRACECLI), str(out), "--", *argv,
                           "--format", "json"], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["calls"] == {"cli.main": 1, "cli.parse_model": 1, **checks}


def test_model_layer_names_resolve_from_cli():
    from lieyamaguti import cli, commands

    for name in cli._MODEL_NAMES:
        assert getattr(cli, name) is getattr(commands, name), name
    for name in cli.__all__:
        assert hasattr(cli, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        cli.no_such_name


_PROBE = """\
import json, runpy, sys
mode, argv = sys.argv[1], sys.argv[2:]
try:
    if mode == "main":
        from lieyamaguti import cli
        code = cli.main(argv)
    else:  # as `python -m lieyamaguti.cli` runs it
        sys.argv[1:] = argv
        runpy.run_module("lieyamaguti.cli", run_name="__main__")
except SystemExit as exc:  # argparse's exits, and `sys.exit` under `__main__`
    code = exc.code
print(json.dumps({"code": code, "loaded": sorted(sys.modules)}), file=sys.stderr)
"""


def _loaded(argv, codes=(0, 1), mode="main"):
    # `python -S`: without `site`, no third-party start-up hook has loaded
    # a module before lyat runs, so the probe sees lyat's own imports
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, mode, *argv],
                          capture_output=True, text=True, env=_src_env())
    probe = json.loads(proc.stderr.splitlines()[-1])
    assert probe["code"] in codes
    return probe["loaded"]


def _probe(argv, codes=(0, 1)):
    return [m for m in _loaded(argv, codes) if m.startswith("lieyamaguti") or m == "dataclasses"]


@pytest.mark.parametrize("argv,code", [
    (("examples", "list"), 0),
    (("examples", "show", "dim2.lyat"), 0),
    (("--help",), 0),
    (("cohomology", "dim2.lyat"), 2),   # no --degree: argparse's usage error
])
def test_commands_without_a_model_load_only_the_entry(argv, code):
    loaded = _loaded(argv, codes=(code,))
    assert [m for m in loaded if m.startswith("lieyamaguti")] == ["lieyamaguti", "lieyamaguti.cli"]
    assert "fractions" not in loaded and "decimal" not in loaded


def test_run_as_main_loads_no_second_cli():
    # under `python -m` the entry is `__main__`; a module importing
    # `lieyamaguti.cli` would execute it again, with its own `Report`
    loaded = _loaded(("check-rbo", "dim2.lyat"), codes=(0,), mode="run")
    assert [m for m in loaded if m.startswith("lieyamaguti")] == [
        "lieyamaguti", "lieyamaguti.commands", "lieyamaguti.linalg", "lieyamaguti.rbo",
        "lieyamaguti.structures"]


@pytest.mark.parametrize("argv", [
    ("check-algebra", "dim2.lyat"),
    ("check-algebra", "dim2_bad_algebra.lyat"),
    ("check-rep", "dim4.lyat"),
])
def test_light_commands_load_only_linalg_and_structures(argv):
    assert _probe(argv) == ["lieyamaguti", "lieyamaguti.cli", "lieyamaguti.commands",
                            "lieyamaguti.linalg", "lieyamaguti.structures"]


@pytest.mark.parametrize("argv", [
    ("check-algebra", "dim0.lyat"),
    ("nijenhuis", "dim2_bad_algebra.lyat", "--all-basis"),
    ("deform", "obstruction", "dim2_bad_algebra.lyat"),
])
def test_unusable_input_loads_only_what_ran(tmp_path, argv):
    # exit 2 takes the exceptions of loaded modules only: a file with "dim": 0
    # fails parsing, and an algebra failing its identities fails before the
    # operator is read
    path = tmp_path / "dim0.lyat"
    path.write_text(json.dumps({"scalar": "rational", "dim": 0, "binary": [], "ternary": []}))
    argv = tuple(str(path) if a == "dim0.lyat" else a for a in argv)
    assert _probe(argv, codes=(2,)) == ["lieyamaguti", "lieyamaguti.cli", "lieyamaguti.commands",
                                        "lieyamaguti.linalg", "lieyamaguti.structures"]


@pytest.mark.parametrize("argv", [
    ("check-rbo", "dim2.lyat"),
    ("check-rbo", "dim2_bad_rbo.lyat"),
])
def test_check_rbo_loads_no_complex_or_deformation(argv):
    # the residual engine lives in `rbo`
    assert _probe(argv) == ["lieyamaguti", "lieyamaguti.cli", "lieyamaguti.commands",
                            "lieyamaguti.linalg", "lieyamaguti.rbo", "lieyamaguti.structures"]


# With bytecode caching off every command compiles the source of each module
# it loads, so a module loaded needlessly costs start-up time.
@pytest.mark.parametrize("argv", [
    ("cohomology", "dim2.lyat", "--degree", "1"),
    ("cohomology", "dim4.lyat", "--degree", "2", "--kernel-dump"),
])
def test_bare_cohomology_loads_only_complexes(argv):
    assert _probe(argv) == ["lieyamaguti", "lieyamaguti.cli", "lieyamaguti.commands",
                            "lieyamaguti.complexes", "lieyamaguti.linalg",
                            "lieyamaguti.structures"]


@pytest.mark.parametrize("argv", [
    ("cohomology", "dim2.lyat", "--degree", "1", "--rbo"),
    ("cohomology", "dim4.lyat", "--degree", "2", "--rbo", "--kernel-dump"),
])
def test_operator_cohomology_adds_only_the_operator_modules(argv):
    assert _probe(argv) == ["lieyamaguti", "lieyamaguti.cli", "lieyamaguti.commands",
                            "lieyamaguti.complexes", "lieyamaguti.linalg", "lieyamaguti.rbo",
                            "lieyamaguti.rbo_cohomology", "lieyamaguti.structures"]


_RESOURCES_PROBE = """\
import sys
from lieyamaguti import cli
code = cli.main(sys.argv[1:])
print(code, "importlib.resources" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv,loads", [
    (("check-algebra", str(Path(ly.__file__).parent / "data" / "dim2.lyat")), False),
    (("check-algebra", "dim2.lyat"), True),
    (("examples", "list"), True),
])
def test_importlib_resources_only_for_bundled_examples(argv, loads):
    # `python -S`: without `site`, no third-party start-up hook has loaded
    # importlib.resources before lyat runs, so the probe sees lyat's own imports
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-S", "-c", _RESOURCES_PROBE, *argv],
                          capture_output=True, text=True, env=env)
    assert proc.stderr.split() == ["0", str(loads)]
