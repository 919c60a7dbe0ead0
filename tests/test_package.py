"""The package's public surface resolves lazily, and a `lyat` command loads
only the library modules it runs."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lieyamaguti as ly

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


def test_every_traced_name_resolves():
    # perfbench's tracer wraps these by name; a rename in the package would
    # leave `--trace` failing with nothing else to catch it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracecli.py"
    spec = importlib.util.spec_from_file_location("tracecli", path)
    tracecli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracecli)
    assert tracecli.SPANS
    for module, attribute in tracecli.SPANS:
        obj = importlib.import_module(f"lieyamaguti.{module}")
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attribute)


_PROBE = """\
import json, sys
from lieyamaguti import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("lieyamaguti") or m == "dataclasses")
print(json.dumps({"code": code, "loaded": loaded}), file=sys.stderr)
"""


def _probe(argv, codes=(0, 1)):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                          capture_output=True, text=True, env=env)
    probe = json.loads(proc.stderr)
    assert probe["code"] in codes
    return probe["loaded"]


@pytest.mark.parametrize("argv", [
    ("check-algebra", "dim2.lyat"),
    ("check-algebra", "dim2_bad_algebra.lyat"),
    ("check-rep", "dim4.lyat"),
    ("examples", "list"),
])
def test_light_commands_load_only_linalg_and_structures(argv):
    assert _probe(argv) == ["lieyamaguti", "lieyamaguti.cli",
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
    assert _probe(argv, codes=(2,)) == ["lieyamaguti", "lieyamaguti.cli",
                                        "lieyamaguti.linalg", "lieyamaguti.structures"]


@pytest.mark.parametrize("argv", [
    ("check-rbo", "dim2.lyat"),
    ("check-rbo", "dim2_bad_rbo.lyat"),
])
def test_check_rbo_loads_no_complex_or_deformation(argv):
    # the residual engine lives in `rbo`
    assert _probe(argv) == ["lieyamaguti", "lieyamaguti.cli", "lieyamaguti.linalg",
                            "lieyamaguti.rbo", "lieyamaguti.structures"]


# With bytecode caching off every command compiles the source of each module
# it loads, so a module loaded needlessly costs start-up time.
@pytest.mark.parametrize("argv", [
    ("cohomology", "dim2.lyat", "--degree", "1"),
    ("cohomology", "dim4.lyat", "--degree", "2", "--kernel-dump"),
])
def test_bare_cohomology_loads_only_complexes(argv):
    assert _probe(argv) == ["lieyamaguti", "lieyamaguti.cli", "lieyamaguti.complexes",
                            "lieyamaguti.linalg", "lieyamaguti.structures"]


@pytest.mark.parametrize("argv", [
    ("cohomology", "dim2.lyat", "--degree", "1", "--rbo"),
    ("cohomology", "dim4.lyat", "--degree", "2", "--rbo", "--kernel-dump"),
])
def test_operator_cohomology_adds_only_the_operator_modules(argv):
    assert _probe(argv) == ["lieyamaguti", "lieyamaguti.cli", "lieyamaguti.complexes",
                            "lieyamaguti.linalg", "lieyamaguti.rbo",
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
