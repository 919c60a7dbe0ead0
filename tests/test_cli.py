"""The lyat command line: parsing, dispatch, output formats, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lieyamaguti import cli, commands, structures


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def write_model(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


MINIMAL = {"scalar": "rational", "dim": 2,
           "binary": [{"args": [1, 2], "value": {"e1": "1"}}],
           "ternary": [{"args": [1, 2, 2], "value": {"e1": "1"}}],
           "representation": "adjoint",
           "operator": [["0", "0"], ["0", "1"]]}


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", [
        (("check-algebra", "dim2.lyat"), 0),
        (("check-algebra", "dim4.lyat"), 0),
        (("check-algebra", "dim2_bad_algebra.lyat"), 1),
        (("check-rep", "dim2.lyat"), 0),
        (("check-rep", "dim2_bad_rep.lyat"), 1),
        (("check-rbo", "dim2.lyat"), 0),
        (("check-rbo", "dim4.lyat"), 0),
        (("check-rbo", "dim2_bad_rbo.lyat"), 1),
        (("cohomology", "dim2.lyat", "--degree", "1"), 0),
        (("cohomology", "dim2.lyat", "--degree", "2", "--rbo"), 0),
        (("nijenhuis", "dim2.lyat", "--element", "X"), 0),
        (("nijenhuis", "dim4.lyat", "--all-basis"), 0),
        (("deform", "check", "dim2.lyat"), 0),
        (("deform", "obstruction", "dim2.lyat"), 0),
        (("deform", "extend", "dim2.lyat"), 0),
        (("examples", "list"), 0),
        (("examples", "show", "dim2.lyat"), 0),
    ])
    def test_commands(self, capsys, argv, expected):
        code, out = run(capsys, *argv)
        assert code == expected
        assert out.startswith("command:")

    def test_errors_exit_two(self, capsys):
        code, out = run(capsys, "check-rbo", "dim2_bad_algebra.lyat")
        assert code == 2
        assert "binary-derivation" in out
        code, _ = run(capsys, "check-algebra", "nosuch.lyat")
        assert code == 2

    def test_internal_errors_exit_three(self, capsys, monkeypatch):
        def crash(model, args):
            raise RuntimeError("boom")
        monkeypatch.setattr(commands, "_cmd_check_algebra", crash)
        code, payload = run_json(capsys, "check-algebra", "dim2.lyat")
        assert code == 3
        assert payload == {"command": "check-algebra", "status": "error",
                           "details": {"message": "RuntimeError: boom", "internal": True}}
        code, out = run(capsys, "check-algebra", "dim2.lyat")
        assert code == 3
        assert "internal: true" in out

    def test_unknown_command_is_internal(self):
        with pytest.raises(RuntimeError, match="unknown command 'bogus'"):
            cli._dispatch(argparse.Namespace(command="bogus", file="dim2.lyat"))

    @pytest.mark.parametrize("model,expected", [
        ("dim2.lyat", 0), ("dim2_bad_algebra.lyat", 1)])
    def test_closed_stdout_keeps_exit_code(self, model, expected):
        # `lyat ... | head` closes the pipe early: the report's own exit code
        # stands and nothing is printed to stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lieyamaguti.cli", "check-algebra", model],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == expected
        assert proc.stderr == ""

class TestParseErrors:
    @pytest.mark.parametrize("payload,message", [
        ({"scalar": "rational", "dim": 1, "extra": 1}, "unknown keys: extra"),
        ({"scalar": "real", "dim": 1}, "scalar"),
        ({"scalar": "rational", "dim": 0}, "dim"),
        ({"scalar": "rational", "dim": 2,
          "binary": [{"args": [1, 2], "value": {"e1": 0.5}}]},
         "decimal notation is not exact"),
        ({"scalar": "rational", "dim": 2,
          "binary": [{"args": [1, 2], "value": {"e1": "1/0"}}]},
         "zero denominator"),
        ({"scalar": "rational", "dim": 2,
          "binary": [{"args": [1, 2], "value": {"e1": True}}]},
         "got a boolean"),
        ({"scalar": "rational", "dim": 2,
          "binary": [{"args": [2, 1], "value": {"e1": "1"}}]},
         "ascending indices"),
        ({"scalar": "rational", "dim": 2,
          "binary": [{"args": [1, 2], "value": {"e1": "1"}},
                     {"args": [1, 2], "value": {"e2": "1"}}]},
         "duplicate args"),
        ({"scalar": "rational", "dim": 2,
          "binary": [{"args": [1, 2], "value": {"e9": "1"}}]},
         "unknown basis name 'e9'"),
        ({"scalar": "rational", "dim": 2,
          "binary": [{"args": [1, 5], "value": {"e1": "1"}}]},
         "out of range"),
        ({"scalar": "rational", "dim": 2,
          "operator": [["0", "0"], ["0", "1"]]},
         "operator requires a representation"),
        (dict(MINIMAL, deformation={"terms": [[["1", "0"], ["0", "1"]]]}),
         "deformation term 0 must equal the operator"),
        # the first rejected size: harmless to allocate even without the guard
        ({"scalar": "rational", "dim": cli.MAX_DIM + 1}, f"at most {cli.MAX_DIM} is supported"),
    ])
    def test_bad_files(self, capsys, tmp_path, payload, message):
        path = write_model(tmp_path, "model.lyat", payload)
        code, out = run(capsys, "check-algebra", path)
        assert code == 2
        assert message in out

    @pytest.mark.parametrize("payload,error,message", [
        ({"binary": [{"args": [2, 1], "value": {}}]}, cli.InvariantError,
         "binary entry 1: constants are stored for ascending indices only (got [2, 1]); "
         "state the i < j case and the skew completion is implied"),
        ({"ternary": [{"args": [2, 1, 3], "value": {}}]}, cli.InvariantError,
         "ternary entry 1: constants are stored for ascending first indices only (got [2, 1, 3])"),
        ({"ternary": [{"args": [1, 2, 3], "value": {}}, {"args": [1, 2, 3], "value": {}}]},
         cli.ParseError, "ternary entry 2: duplicate args [1, 2, 3]"),
        ({"ternary": [{"args": [1, 2], "value": {}}]}, cli.ParseError,
         "ternary entry 1: args must be a list of 3 basis indices"),
        ({"elements": {"X": [{"args": [2, 1], "coeff": "1"}]}}, cli.InvariantError,
         "element 'X', term 1: wedge terms are stored for ascending indices only (got [2, 1])"),
        ({"elements": {"X": [{"args": [1, 2], "coeff": "1"}, {"args": [1, 2], "coeff": "2"}]}},
         cli.ParseError, "element 'X', term 2: duplicate args [1, 2]"),
        ({"elements": {"X": [{"args": [1, 2], "value": "1"}]}}, cli.ParseError,
         "element 'X', term 1: expected keys args and coeff"),
        ({"elements": {"X": [{"args": [1, True], "coeff": "1"}]}}, cli.ParseError,
         "element 'X', term 1: basis indices must be integers"),
    ])
    def test_entry_messages(self, payload, error, message):
        # binary and ternary constants and wedge terms share one reader
        with pytest.raises(error) as info:
            cli.parse_model(json.dumps(dict(scalar="rational", dim=3, **payload)), "m.lyat")
        assert type(info.value) is error and str(info.value) == f"m.lyat: {message}"

    @pytest.mark.parametrize("key", ["binary", "ternary"])
    @pytest.mark.parametrize("value", [5, None, True, {"args": [1, 2], "value": {}}])
    def test_constants_must_be_a_list(self, capsys, tmp_path, key, value):
        path = write_model(tmp_path, "model.lyat", {"scalar": "rational", "dim": 2, key: value})
        code, payload = run_json(capsys, "check-algebra", path)
        assert code == 2
        assert payload["details"] == {"message": f'{path}: "{key}" must be a list of entries'}

    def test_not_json(self, capsys, tmp_path):
        p = tmp_path / "garbage.lyat"
        p.write_text("not json {")
        code, out = run(capsys, "check-algebra", str(p))
        assert code == 2

    def test_unknown_element(self, capsys):
        code, out = run(capsys, "nijenhuis", "dim2.lyat", "--element", "Y")
        assert code == 2
        assert "no element named 'Y'" in out

    def test_cohomology_degree_limits(self, capsys):
        code, out = run(capsys, "cohomology", "dim2.lyat", "--degree", "0")
        assert code == 2
        assert "degree must be >= 1" in out
        code, out = run(capsys, "cohomology", "dim2.lyat", "--degree", "4")
        assert code == 2
        assert "--force" in out
        code, _ = run(capsys, "cohomology", "dim2.lyat", "--degree", "4",
                      "--force")
        assert code == 0

    def test_cohomology_sizes_the_coboundary_before_any_check(self, capsys, tmp_path, monkeypatch):
        """The first rejected size: the abelian dim-8 adjoint model at degree 3
        asks for (28^3 + 28^3 * 8) * 8 = 1 580 544 rows of delta^3, above
        `MAX_ROWS` (dim 7 asks for 518 616). It exits 2 before the algebra is
        checked or a row is assembled; `--force` lifts the limit."""
        from lieyamaguti import complexes
        ran = []

        def spy(name):
            def stop(*args):
                ran.append(name)
                raise RuntimeError(f"{name} ran")
            return stop

        patched = [(mod, "check_lya") for mod in list(sys.modules.values())
                   if mod.__name__.startswith("lieyamaguti")
                   and getattr(mod, "check_lya", None) is structures.check_lya]
        for module, name in patched + [(complexes, "_coboundary_rows")]:
            monkeypatch.setattr(module, name, spy(name))
        path = write_model(tmp_path, "abelian8.lyat",
                           {"scalar": "rational", "dim": 8, "representation": "adjoint"})
        code, out = run(capsys, "cohomology", path, "--degree", "3")
        assert code == 2 and ran == []
        assert "1580544 rows" in out and "--force" in out
        code, _ = run(capsys, "cohomology", path, "--degree", "3", "--force")
        assert code == 3 and ran == ["check_lya"]

    def test_max_order_is_bounded_before_any_check(self, capsys, monkeypatch):
        """The first rejected target, `MAX_ORDER` + 1, exits 2 before the
        algebra is checked or an operator is verified."""
        ran = []

        def stop(*args):
            ran.append(args)
            raise RuntimeError("check_lya ran")

        for mod in list(sys.modules.values()):
            if (mod.__name__.startswith("lieyamaguti")
                    and getattr(mod, "check_lya", None) is structures.check_lya):
                monkeypatch.setattr(mod, "check_lya", stop)
        assert cli.MAX_ORDER == commands.MAX_ORDER == 32
        code, out = run(capsys, "deform", "extend", "dim2.lyat", "--max-order", "33")
        assert code == 2 and ran == []
        assert "--max-order is 33; at most 32 is supported" in out

    def test_help_states_the_limits(self):
        """`cli` writes the limits of `commands` into its help without
        importing it, so the help is checked against the constants here."""
        subparsers = next(action for action in cli._build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        helps = {action.dest: action.help for name in ("cohomology", "deform")
                 for action in subparsers.choices[name]._actions}
        assert f"at most {commands.MAX_ORDER} " in helps["max_order"]
        base, exponent = re.search(r"(\d+)\^(\d+) rows", helps["force"]).groups()
        assert int(base) ** int(exponent) == commands.MAX_ROWS

    def test_max_order_must_exceed_the_order(self, capsys):
        code, out = run(capsys, "deform", "extend", "dim2.lyat", "--max-order", "1")
        assert code == 2
        assert "--max-order must exceed the current order 1" in out

    def test_operator_failing_the_identities(self, capsys):
        for argv in (("cohomology", "dim2_bad_rbo.lyat", "--degree", "1", "--rbo"),
                     ("deform", "check", "dim2_bad_rbo.lyat")):
            code, payload = run_json(capsys, *argv)
            assert code == 2
            assert payload["details"] == {"message": "not a relative Rota-Baxter operator: "
                                                     "fails rota-baxter-binary at (0, 1)"}

    @pytest.mark.parametrize("content,message", [
        (b'{"scalar": "rational", "dim": 2\xff}', "codec can't decode"),
        (b'{"scalar": "rational", "dim": 1' + b"0" * 5000 + b"}", "invalid JSON"),
        (b'{"scalar": "rational", "dim": 2, "binary": [{"args": [1, 2], "value": {"e1": "'
         + b"1" * 5000 + b'"}}]}', "binary entry 1, entry 'e1'"),
    ])
    def test_input_the_parser_cannot_convert(self, capsys, tmp_path, content, message):
        # undecodable bytes and numbers with more digits than int() converts
        # raise ValueError subclasses inside the parser; they are bad input
        p = tmp_path / "model.lyat"
        p.write_bytes(content)
        code, payload = run_json(capsys, "check-algebra", str(p))
        assert code == 2
        assert "internal" not in payload["details"]
        assert message in payload["details"]["message"]

    def test_library_value_errors_are_internal(self, capsys, monkeypatch):
        # a ValueError from the library is a fault in lyat, not bad input
        from lieyamaguti import complexes

        def broken(rows):
            raise ValueError("rows out of range")

        monkeypatch.setattr(complexes, "_rref", broken)
        for extra in ((), ("--rbo",)):
            code, payload = run_json(capsys, "cohomology", "dim2.lyat", "--degree", "1", *extra)
            assert code == 3
            assert payload["details"] == {"message": "ValueError: rows out of range",
                                          "internal": True}

    def test_exit_two_is_decided_by_exception_type(self):
        import lieyamaguti as ly

        exit_two = (cli.ParseError, cli.InvariantError, cli.UsageError,
                    ly.InvalidAlgebra, ly.InvalidRepresentation,
                    ly.NotRotaBaxter, ly.UnverifiedOperator,
                    ly.NotOrderN, ly.NotNijenhuisElement, ly.NotLinearDeformation)
        assert all(issubclass(cls, ly.InputError) for cls in exit_two)
        assert issubclass(ly.NotRotaBaxter, ValueError)
        for cls in (ly.JacobiViolation, ly.NotNijenhuis, ly.NotIntertwining,
                    ly.NotAutomorphism):
            assert not issubclass(cls, ly.InputError), cls

    def test_input_errors_of_lazily_loaded_modules_exit_two(self, capsys, monkeypatch):
        from lieyamaguti import deformation

        def fails(o, d):
            raise deformation.NotOrderN(structures.Violation("binary@t^1", (0, 1), (1, 0)))

        monkeypatch.setattr(deformation, "obstruction", fails)
        code, payload = run_json(capsys, "deform", "obstruction", "dim2.lyat")
        assert code == 2
        assert payload["details"] == {"message": "fails binary@t^1 at (0, 1)"}

    def test_deform_needs_block(self, capsys):
        code, out = run(capsys, "deform", "check", "dim4.lyat")
        assert code == 2
        assert "deformation" in out

    def test_argparse_rejections(self):
        with pytest.raises(SystemExit):
            cli.main(["nijenhuis", "dim2.lyat"])  # needs --element/--all-basis
        with pytest.raises(SystemExit):
            cli.main(["bogus"])


class TestFileResolution:
    def test_disk_path_wins(self, capsys, tmp_path):
        # a local file may shadow a bundled name when given by path
        local = {"scalar": "rational", "dim": 3,
                 "binary": [{"args": [1, 2], "value": {"e1": "1"}}]}
        path = write_model(tmp_path, "dim2.lyat", local)
        code, details = run_json(capsys, "check-algebra", path)
        assert code == 0
        assert details["details"]["dim"] == 3  # not the bundled 2-dim file

    def test_bundled_by_bare_name(self, capsys):
        code, details = run_json(capsys, "check-algebra", "dim2.lyat")
        assert code == 0
        assert details["details"]["dim"] == 2

    def test_missing(self, capsys):
        code, out = run(capsys, "check-algebra", "missing.lyat")
        assert code == 2
        assert "bundled examples" in out


class TestExamples:
    def test_list(self, capsys):
        code, payload = run_json(capsys, "examples", "list")
        assert code == 0
        assert payload["details"]["examples"] == [
            "dim2.lyat", "dim2_bad_algebra.lyat", "dim2_bad_rbo.lyat",
            "dim2_bad_rep.lyat", "dim4.lyat"]

    def test_show_roundtrips(self, capsys):
        code, payload = run_json(capsys, "examples", "show", "dim2.lyat")
        assert code == 0
        model = json.loads(payload["details"]["content"])
        assert model["dim"] == 2
        assert model["representation"] == "adjoint"

    def test_show_needs_name(self, capsys):
        code, out = run(capsys, "examples", "show")
        assert code == 2
        assert "requires a name" in out

    def test_list_takes_no_name(self, capsys):
        code, payload = run_json(capsys, "examples", "list", "extra")
        assert code == 2
        assert payload == {"command": "examples", "status": "error",
                           "details": {"message": "examples list takes no name, got 'extra'"}}
        with pytest.raises(cli.UsageError, match="takes no name"):
            cli._cmd_examples(argparse.Namespace(action="list", name="extra"))


class TestOutputShapes:
    def test_cohomology_json(self, capsys):
        code, payload = run_json(capsys, "cohomology", "dim2.lyat",
                                 "--degree", "1", "--rbo")
        assert code == 0
        assert payload == {
            "command": "cohomology",
            "status": "ok",
            "details": {"degree": 1, "complex": "operator",
                        "dim_cochains": 4, "dim_cocycles": 3,
                        "dim_coboundaries": 1, "dim_h": 2}}

    def test_kernel_dump(self, capsys):
        code, payload = run_json(capsys, "cohomology", "dim2.lyat",
                                 "--degree", "1", "--rbo", "--kernel-dump")
        assert payload["details"]["kernel_basis"] == [
            ["1", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]

    def test_violations_name_basis_vectors(self, capsys):
        code, payload = run_json(capsys, "check-rbo", "dim2_bad_rbo.lyat")
        assert code == 1
        violations = payload["details"]["violations"]
        assert violations[0] == {"identity": "rota-baxter-binary",
                                 "args": ["u1", "u2"], "residual": "-e1"}
        assert violations[1]["residual"] == "-2*e1"

    def test_all_basis_names(self, capsys):
        code, payload = run_json(capsys, "nijenhuis", "dim4.lyat",
                                 "--all-basis")
        names = [e["name"] for e in payload["details"]["elements"]]
        assert names == ["e1^e2", "e1^e3", "e1^e4",
                         "e2^e3", "e2^e4", "e3^e4"]
        assert all(e["is_nijenhuis"] for e in payload["details"]["elements"])

    def test_text_rendering_of_violations(self, capsys):
        code, out = run(capsys, "check-algebra", "dim2_bad_algebra.lyat")
        assert code == 1
        assert "status: violated" in out
        assert "- binary-derivation at (e1, e2, e1, e2): residual -e1" in out

    def test_deform_extend_json(self, capsys):
        code, payload = run_json(capsys, "deform", "extend", "dim2.lyat",
                                 "--max-order", "3")
        assert code == 0
        d = payload["details"]
        assert (d["start_order"], d["target_order"], d["achieved_order"]) == (1, 3, 3)
        assert d["stuck_at"] is None
        assert d["terms"][1] == [["0", "-1"], ["0", "0"]]
        assert d["terms"][2] == [["0", "0"], ["0", "0"]]

    def test_deform_obstruction_json(self, capsys):
        code, payload = run_json(capsys, "deform", "obstruction", "dim2.lyat")
        assert code == 0
        d = payload["details"]
        assert d["obstruction_is_zero"] and d["is_cocycle"] and d["trivial"]
        assert d["witness"] == [["0", "0"], ["0", "0"]]

    def test_zero_dimensional_module(self, capsys, tmp_path):
        payload = dict(MINIMAL, representation={"dim": 0, "rho": [[], []],
                                                "mu": [[[], []], [[], []]]},
                       operator=[[], []], deformation={"terms": [[[], []]]})
        path = write_model(tmp_path, "zero.lyat", payload)
        for degree in ("1", "2"):
            code, out = run_json(capsys, "cohomology", path, "--degree", degree, "--rbo")
            assert code == 0
            d = out["details"]
            assert [d["dim_cochains"], d["dim_cocycles"],
                    d["dim_coboundaries"], d["dim_h"]] == [0] * 4
        code, out = run_json(capsys, "deform", "obstruction", path)
        assert code == 0
        assert out["details"]["trivial"] and out["details"]["witness"] == [[], []]
        code, out = run_json(capsys, "deform", "extend", path, "--max-order", "3")
        assert code == 0
        assert out["details"]["achieved_order"] == 3
        assert out["details"]["terms"] == [[[], []]] * 4


# dim2.lyat with its adjoint representation written out
EXPLICIT = dict(MINIMAL, representation={
    "dim": 2,
    "rho": [[["0", "1"], ["0", "0"]], [["-1", "0"], ["0", "0"]]],
    "mu": [[[["0", "0"], ["0", "0"]], [["0", "-1"], ["0", "0"]]],
           [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]]]})


class TestStructureChecks:
    """`cohomology` checks the algebra once, and the representation only when
    the file writes it out: an adjoint one is valid by theorem, and
    `adjoint_rep` is the one place that builds it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"check_lya": 0, "check_representation": 0, "adjoint_rep": 0}
        for name in counts:
            orig = getattr(structures, name)

            def spy(*args, _orig=orig, _name=name):
                counts[_name] += 1
                return _orig(*args)

            for mod in list(sys.modules.values()):
                if mod.__name__.startswith("lieyamaguti") and getattr(mod, name, None) is orig:
                    monkeypatch.setattr(mod, name, spy)
        return counts

    @pytest.mark.parametrize("extra", [(), ("--rbo",)])
    def test_adjoint_model(self, capsys, calls, extra):
        code, _ = run(capsys, "cohomology", "dim4.lyat", "--degree", "1", *extra)
        assert code == 0
        assert calls == {"check_lya": 1, "check_representation": 0, "adjoint_rep": 1}

    @pytest.mark.parametrize("extra", [(), ("--rbo",)])
    def test_explicit_model(self, capsys, calls, tmp_path, extra):
        written = write_model(tmp_path, "explicit.lyat", EXPLICIT)
        code, payload = run_json(capsys, "cohomology", written, "--degree", "2", *extra)
        assert code == 0
        assert calls == {"check_lya": 1, "check_representation": 1, "adjoint_rep": 0}
        _, adjoint = run_json(capsys, "cohomology", "dim2.lyat", "--degree", "2", *extra)
        assert payload == adjoint

    def test_invalid_structures_still_rejected(self, capsys, calls):
        code, payload = run_json(capsys, "cohomology", "dim2_bad_algebra.lyat", "--degree", "1")
        assert code == 2
        assert payload["details"] == {
            "message": "algebra fails binary-derivation at basis tuple (0, 1, 0, 1)"}
        assert calls == {"check_lya": 1, "check_representation": 0, "adjoint_rep": 1}
        code, payload = run_json(capsys, "cohomology", "dim2_bad_rep.lyat", "--degree", "1")
        assert code == 2
        assert payload["details"] == {
            "message": "representation fails mu-bracket-right at (1, 0, 1, 1)"}
        assert calls == {"check_lya": 2, "check_representation": 1, "adjoint_rep": 1}

    @pytest.mark.parametrize("argv", [("cohomology", None, "--degree", "1"), ("check-rbo", None),
                                      ("nijenhuis", None, "--all-basis"), ("deform", "check", None)])
    def test_missing_representation_fails_before_any_check(self, capsys, calls, tmp_path, argv):
        # the algebra is checked only once there is a representation to use it with
        path = write_model(tmp_path, "norep.lyat", {k: v for k, v in MINIMAL.items()
                                                    if k not in ("representation", "operator")})
        code, payload = run_json(capsys, *(path if a is None else a for a in argv))
        assert code == 2
        assert payload["details"] == {"message": f"{path}: file declares no representation"}
        assert calls == {"check_lya": 0, "check_representation": 0, "adjoint_rep": 0}


class TestKernelDump:
    """`cohomology --kernel-dump` reads the kernel basis off the elimination
    that gives the dimensions: each degree is assembled and eliminated once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from lieyamaguti import complexes, linalg

        counts = {"rows": [], "rref": 0}
        rows, rref = complexes._coboundary_rows, linalg._rref

        def rows_spy(ctx, p):
            counts["rows"].append(p)
            return rows(ctx, p)

        def rref_spy(ints):
            counts["rref"] += 1
            return rref(ints)

        monkeypatch.setattr(complexes, "_coboundary_rows", rows_spy)
        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("lieyamaguti") and getattr(mod, "_rref", None) is rref:
                monkeypatch.setattr(mod, "_rref", rref_spy)
        return counts

    @pytest.mark.parametrize("extra", [(), ("--rbo",)])
    def test_one_assembly_and_one_elimination_per_degree(self, capsys, calls, extra):
        code, payload = run_json(capsys, "cohomology", "dim4.lyat", "--degree", "2",
                                 "--kernel-dump", *extra)
        assert code == 0
        assert sorted(calls["rows"]) == [1, 2]
        assert calls["rref"] == 2
        details = payload["details"]
        assert len(details["kernel_basis"]) == details["dim_cocycles"]

    def test_operator_degree_one(self, capsys, calls):
        # degree 0 of the operator complex is eliminated from its own columns
        code, _ = run(capsys, "cohomology", "dim4.lyat", "--degree", "1", "--rbo",
                      "--kernel-dump")
        assert code == 0
        assert calls == {"rows": [1], "rref": 2}


class TestTablesOnce:
    """A structure's integer tables are built once, by its one builder:
    `Representation._fill` for the model's representation and for the induced
    one of the operator's one `RboComplex.build`, `LYAlgebra._fill` for the
    model's algebra and for the sub-adjacent one of that build. `deform
    extend` reads one complex at every order."""

    COMMANDS = [("cohomology", "dim4.lyat", "--degree", "2", "--rbo"),
                ("deform", "extend", None, "--max-order", "3")]

    @pytest.fixture
    def builds(self, monkeypatch):
        from lieyamaguti import rbo_cohomology

        seen = {"tables": [], "algebras": [], "induced": []}
        fill, induced = structures.Representation._fill, rbo_cohomology.induced_rep_on_g
        fill_algebra = structures.LYAlgebra._fill

        def fill_spy(r, *args):
            seen["tables"].append(r)
            return fill(r, *args)

        def fill_algebra_spy(a, *args):
            seen["algebras"].append(a)
            return fill_algebra(a, *args)

        def induced_spy(o):
            seen["induced"].append(induced(o))
            return seen["induced"][-1]

        monkeypatch.setattr(structures.Representation, "_fill", fill_spy)
        monkeypatch.setattr(structures.LYAlgebra, "_fill", fill_algebra_spy)
        monkeypatch.setattr(rbo_cohomology, "induced_rep_on_g", induced_spy)
        return seen

    def dim4_deformation(self, tmp_path):
        model = json.loads((Path(cli.__file__).parent / "data" / "dim4.lyat").read_text())
        model["deformation"] = {"terms": [model["operator"]]}
        return write_model(tmp_path, "d4.lyat", model)

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_once_per_representation(self, capsys, builds, tmp_path, argv):
        argv = [self.dim4_deformation(tmp_path) if a is None else a for a in argv]
        code, _ = run_json(capsys, *argv)
        assert code == 0
        reps, induced = builds["tables"], builds["induced"]
        assert len({id(r) for r in reps}) == len(reps)
        assert len(induced) == 1 and {id(r) for r in induced} <= {id(r) for r in reps}
        assert len(reps) == 2

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_once_per_algebra(self, capsys, builds, tmp_path, argv):
        argv = [self.dim4_deformation(tmp_path) if a is None else a for a in argv]
        code, _ = run_json(capsys, *argv)
        assert code == 0
        algebras, induced = builds["algebras"], builds["induced"]
        assert len({id(a) for a in algebras}) == len(algebras)
        assert len(induced) == 1 and {id(r.algebra) for r in induced} <= {id(a) for a in algebras}
        assert len(algebras) == 2


class TestOncePerOperator:
    """A verified operator enters the integer engines once: `RelRBO.build`
    runs `_expansion` once and keeps T's columns, and each order check or
    obstruction runs one more over its own terms. One induced representation,
    one assembly of delta^1's rows, and one `_rref` per differential or per
    order's [delta^1 | Ob] follow."""

    KEYS = ("_expansion", "_term_tables", "induced", "delta1", "_rref")

    @pytest.fixture
    def counts(self, monkeypatch):
        from lieyamaguti import complexes, deformation, linalg, rbo  # noqa: F401  (loads them all)

        seen = dict.fromkeys(self.KEYS, 0)

        def spy(key, real, counted):
            def wrapper(*args):
                seen[key] += counted(args)
                return real(*args)
            return wrapper

        def every(args):
            return True

        for key, real, counted in (
                ("_expansion", rbo._expansion, every), ("_term_tables", rbo._term_tables, every),
                ("induced", rbo.induced_rep_on_g, every),
                ("delta1", complexes._coboundary_rows, lambda args: args[1] == 1),
                ("_rref", linalg._rref, every)):
            wrapped = spy(key, real, counted)
            for mod in list(sys.modules.values()):
                if mod.__name__.startswith("lieyamaguti"):
                    for name, value in list(vars(mod).items()):
                        if value is real:
                            monkeypatch.setattr(mod, name, wrapped)
        return seen

    @pytest.mark.parametrize("argv,expected", [
        (("deform", "extend", "dim2.lyat", "--max-order", "4"), (4, 4, 1, 1, 3)),
        (("deform", "obstruction", "dim2.lyat"), (2, 2, 1, 1, 1)),
        (("nijenhuis", "dim4.lyat", "--all-basis"), (1, 1, 0, 0, 0)),
        (("cohomology", "dim4.lyat", "--degree", "1", "--rbo"), (1, 1, 1, 1, 2)),
    ])
    def test_counts(self, capsys, counts, argv, expected):
        code, _ = run_json(capsys, *argv)
        assert code in (0, 1)
        assert tuple(counts[key] for key in self.KEYS) == expected


class TestObstructionAssembly:
    """`deform obstruction` and `deform extend` build the rows of delta^1
    only: the obstruction is a cocycle by the paper's lemma, which
    `tests/test_deformation.py::TestObstructionIsACocycle` checks."""

    @pytest.fixture
    def degrees(self, monkeypatch):
        from lieyamaguti import complexes

        seen = []
        rows = complexes._coboundary_rows

        def rows_spy(ctx, p):
            seen.append(p)
            return rows(ctx, p)

        monkeypatch.setattr(complexes, "_coboundary_rows", rows_spy)
        return seen

    @pytest.mark.parametrize("argv", [("obstruction",), ("extend", "--max-order", "3")])
    def test_trivial_obstructions_build_no_degree_two_rows(self, capsys, degrees, argv):
        code, _ = run_json(capsys, "deform", argv[0], "dim2.lyat", *argv[1:])
        assert code == 0
        assert degrees and set(degrees) == {1}

    def test_nontrivial_obstruction_builds_degree_one_rows_only(self, capsys, degrees, tmp_path):
        # T_1 = E_11 is a 1-cocycle of the dim2 operator whose obstruction is
        # not a coboundary
        model = dict(MINIMAL, deformation={"terms": [[["0", "0"], ["0", "1"]],
                                                     [["1", "0"], ["0", "0"]]]})
        code, payload = run_json(capsys, "deform", "obstruction",
                                 write_model(tmp_path, "d.lyat", model))
        assert code == 1
        details = payload["details"]
        assert details["is_cocycle"] and not details["trivial"]
        assert degrees == [1]


class TestObstructionOnIntegerRows:
    """`deform obstruction` and `deform extend` read delta^1 and delta^2 as
    integer rows: no dense view and no `solve_linear` on a `Matrix`."""

    VIEWS = ("solve_linear", "rbo_coboundary_matrix", "coboundary_matrix")

    @pytest.fixture
    def views(self, monkeypatch):
        from lieyamaguti import deformation  # noqa: F401  (loads the modules it imports from)

        called = []

        def spy(name, real):
            def wrapper(*args):
                called.append(name)
                return real(*args)
            return wrapper

        for mod in [m for m in sys.modules.values() if m.__name__.startswith("lieyamaguti")]:
            for name in self.VIEWS:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
        return called

    @pytest.mark.parametrize("argv", [("obstruction",), ("extend", "--max-order", "3")])
    def test_trivial_obstructions(self, capsys, views, argv):
        code, _ = run_json(capsys, "deform", argv[0], "dim2.lyat", *argv[1:])
        assert code == 0
        assert views == []

    def test_nontrivial_obstruction(self, capsys, views, tmp_path):
        model = dict(MINIMAL, deformation={"terms": [[["0", "0"], ["0", "1"]],
                                                     [["1", "0"], ["0", "0"]]]})
        code, payload = run_json(capsys, "deform", "obstruction",
                                 write_model(tmp_path, "d.lyat", model))
        assert code == 1
        assert payload["details"]["is_cocycle"] and not payload["details"]["trivial"]
        assert views == []


# sl2 lifted by <x,y,z> = [[x,y],z], its adjoint representation and the
# operator diag(-1, 0, 0): e1^e2 fails every Nijenhuis condition
SL2_LIFT = {
    "scalar": "rational", "dim": 3,
    "binary": [{"args": [1, 2], "value": {"e2": "2"}},
               {"args": [1, 3], "value": {"e3": "-2"}},
               {"args": [2, 3], "value": {"e1": "1"}}],
    "ternary": [{"args": [1, 2, 1], "value": {"e2": "-4"}},
                {"args": [1, 2, 3], "value": {"e1": "2"}},
                {"args": [1, 3, 1], "value": {"e3": "-4"}},
                {"args": [1, 3, 2], "value": {"e1": "2"}},
                {"args": [2, 3, 2], "value": {"e2": "2"}},
                {"args": [2, 3, 3], "value": {"e3": "-2"}}],
    "representation": "adjoint",
    "operator": [["-1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
    "elements": {"X": [{"args": [1, 2], "coeff": "1"}]}}


def _condition(identity, *violations):
    return {"identity": identity, "valid": not violations,
            "violations": [{"identity": identity, "args": list(args), "residual": res}
                           for args, res in violations]}


_BRACKET_CONDITIONS = [
    _condition("bracket-binary", (("e1", "e3"), "16*e2")),
    _condition("bracket-ternary-quadratic",
               (("e1", "e3", "e3"), "16*e1"), (("e2", "e3", "e3"), "16*e2"),
               (("e3", "e1", "e3"), "-16*e1"), (("e3", "e2", "e3"), "-16*e2")),
    _condition("bracket-ternary-cubic",
               (("e1", "e3", "e3"), "-64*e2"), (("e3", "e1", "e3"), "64*e2")),
]

FROZEN_NIJENHUIS = {
    "command": "nijenhuis", "status": "violated",
    "details": {"elements": [{
        "name": "X", "is_nijenhuis": False,
        "conditions": _BRACKET_CONDITIONS + [
            _condition("mu-quadratic",
                       (("e1", "e3", "u3"), "-16*u1"), (("e2", "e3", "u3"), "-16*u2"),
                       (("e3", "e3", "u1"), "16*u1"), (("e3", "e3", "u2"), "16*u2")),
            _condition("mu-cubic",
                       (("e1", "e3", "u3"), "64*u2"), (("e3", "e3", "u1"), "-64*u2")),
            _condition("closing", (("u3",), "8*e2")),
        ],
        # the plain closing condition takes its argument in g
        "plain_conditions": _BRACKET_CONDITIONS + [
            _condition("closing", (("e3",), "8*e2")),
        ],
    }]}}


def test_failing_nijenhuis_report_is_frozen(capsys, tmp_path):
    path = write_model(tmp_path, "sl2.lyat", SL2_LIFT)
    code = cli.main(["nijenhuis", path, "--element", "X", "--format", "json"])
    assert code == 1
    assert capsys.readouterr().out == json.dumps(FROZEN_NIJENHUIS, indent=2) + "\n"


class TestInstalledScript:
    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "lieyamaguti.cli", "check-algebra",
             "dim2.lyat"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "status: ok" in proc.stdout
