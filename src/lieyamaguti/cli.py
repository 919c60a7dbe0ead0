"""The `lyat` command line tool: argument parsing, dispatch and output.

This module imports only the standard library, so `examples`, `--help` and a
usage error compile nothing more. The first command that reads a model loads
`commands` (the .lyat format, the parser and the command bodies), whose
`_MODEL_NAMES` resolve here too (PEP 562). `commands` never imports this
module: under `python -m lieyamaguti.cli` it runs as `__main__`, and importing
`lieyamaguti.cli` would execute it a second time, with its own `Report`.

Exit codes: 0 when the checked property holds, 1 when a check ran and found
violations, 2 when the input could not be used, which is exactly when the
command raised a subclass of `structures.InputError`, 3 for any other
exception, an internal error in lyat itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple

__all__ = ["ParseError", "InvariantError", "ModelFile", "Report",
           "parse_model", "main"]

_MODEL_NAMES = ("parse_model", "ModelFile", "ParseError", "InvariantError", "UsageError",
                "MAX_DIM", "MAX_ROWS")


def _model_layer():
    """`commands`, with its `_MODEL_NAMES` bound here where not bound already."""
    from . import commands
    for name in _MODEL_NAMES:
        globals().setdefault(name, getattr(commands, name))
    return commands


def __getattr__(name: str):
    if name not in _MODEL_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_model_layer(), name)


def _load_model(path: str):
    # `parse_model` and `ParseError` are this module's bindings, which
    # `_model_layer` makes first; a tracer sees the parse by wrapping the one here
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return parse_model(fh.read(), path)
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None
    if os.path.basename(path) == path:
        from importlib import resources  # slow to import, and a file on disk needs none
        res = resources.files("lieyamaguti").joinpath("data", path)
        if res.is_file():
            return parse_model(res.read_text(encoding="utf-8"), path)
    raise ParseError(f"{path}: no such file on disk or among bundled examples "
                     f"(see `lyat examples list`)")


def _bundled_names() -> list[str]:
    from importlib import resources
    data = resources.files("lieyamaguti").joinpath("data")
    return sorted(p.name for p in data.iterdir() if p.name.endswith(".lyat"))


# -- reports ------------------------------------------------------------------

_EXIT = {"ok": 0, "violated": 1, "error": 2}
_EXIT_INTERNAL = 3  # an "error" report marked internal: a fault in lyat, not in its input


class Report(namedtuple("Report", ("command", "status", "details"))):
    __slots__ = ()

    @property
    def exit_code(self) -> int:
        if self.details.get("internal"):
            return _EXIT_INTERNAL
        return _EXIT[self.status]


def _emit(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"command": report.command, "status": report.status,
                           "details": report.details}, indent=2)
    lines = [f"command: {report.command}", f"status: {report.status}"]
    lines.extend(_text_lines(report.details))
    return "\n".join(lines)


def _text_scalar(v: object) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _text_lines(value: object, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, str) and "\n" in v:
                lines.append(f"{pad}{k}:")
                lines.extend(f"{pad}  {ln}" for ln in v.splitlines())
            elif isinstance(v, (dict, list)):
                if v:
                    lines.append(f"{pad}{k}:")
                    lines.extend(_text_lines(v, indent + 1))
                else:
                    lines.append(f"{pad}{k}: []" if isinstance(v, list) else f"{pad}{k}: {{}}")
            else:
                lines.append(f"{pad}{k}: {_text_scalar(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, dict) and set(item) == {"identity", "args", "residual"}:
                lines.append(f"{pad}- {item['identity']} at "
                             f"({', '.join(item['args'])}): residual {item['residual']}")
            elif isinstance(item, list) and all(not isinstance(x, (dict, list)) for x in item):
                lines.append(f"{pad}- [{', '.join(_text_scalar(x) for x in item)}]")
            elif isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_text_scalar(item)}")
    else:
        lines.append(f"{pad}{_text_scalar(value)}")
    return lines


def _cmd_examples(args) -> Report:
    if args.action == "list":
        if args.name is not None:
            raise _model_layer().UsageError(f"examples list takes no name, got {args.name!r}")
        return Report("examples", "ok", {"examples": _bundled_names()})
    if not args.name:
        raise _model_layer().ParseError("examples show requires a name (see `lyat examples list`)")
    from importlib import resources
    res = resources.files("lieyamaguti").joinpath("data", args.name)
    if os.path.basename(args.name) != args.name or not res.is_file():
        raise _model_layer().ParseError(f"no bundled example named {args.name!r}")
    return Report("examples", "ok", {"name": args.name,
                                     "content": res.read_text(encoding="utf-8")})


# -- entry point --------------------------------------------------------------

def _add_format(sp) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="output format (default: text)")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lyat",
        description="Exact checks and cohomology for Lie-Yamaguti algebras "
                    "and relative Rota-Baxter operators on them.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check-algebra", help="verify the algebra axioms")
    sp.add_argument("file")
    _add_format(sp)

    sp = sub.add_parser("check-rep", help="verify the representation conditions")
    sp.add_argument("file")
    _add_format(sp)

    sp = sub.add_parser("check-rbo", help="verify the Rota-Baxter identities")
    sp.add_argument("file")
    _add_format(sp)

    sp = sub.add_parser("cohomology", help="cocycle/coboundary/quotient dimensions")
    sp.add_argument("file")
    sp.add_argument("--degree", type=int, required=True, help="cochain degree (>= 1)")
    sp.add_argument("--rbo", action="store_true",
                    help="operator complex instead of the bare algebra complex")
    sp.add_argument("--kernel-dump", action="store_true",
                    help="include a basis of the cocycle space (flat coordinates)")
    sp.add_argument("--force", action="store_true",
                    help="allow degrees above 3, and coboundaries of more than "
                         "10^6 rows, despite the cost")
    _add_format(sp)

    sp = sub.add_parser("nijenhuis", help="check wedge elements for the Nijenhuis conditions")
    sp.add_argument("file")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--element", help="name of an element from the file")
    grp.add_argument("--all-basis", action="store_true",
                     help="check every basis wedge e_i^e_j")
    _add_format(sp)

    sp = sub.add_parser("deform", help="order-n checks, obstructions, extensions")
    sp.add_argument("action", choices=("check", "obstruction", "extend"))
    sp.add_argument("file")
    sp.add_argument("--max-order", type=int, default=None,
                    help="extend until this order (default: current order + 1)")
    _add_format(sp)

    sp = sub.add_parser("examples", help="list or show bundled model files")
    sp.add_argument("action", choices=("list", "show"))
    sp.add_argument("name", nargs="?")
    _add_format(sp)

    return p


def _dispatch(args) -> Report:
    if args.command == "examples":
        return _cmd_examples(args)
    c = _model_layer()
    run = {"check-algebra": c._cmd_check_algebra, "check-rep": c._cmd_check_rep,
           "check-rbo": c._cmd_check_rbo, "cohomology": c._cmd_cohomology,
           "nijenhuis": c._cmd_nijenhuis, "deform": c._cmd_deform}.get(args.command)
    if run is None:
        raise RuntimeError(f"unknown command {args.command!r}")
    return Report(args.command, *run(_load_model(args.file), args))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report = _dispatch(args)
    except Exception as exc:
        from .structures import InputError  # loaded already by whatever raised one
        details = {"message": str(exc)} if isinstance(exc, InputError) else \
            {"message": f"{type(exc).__name__}: {exc}", "internal": True}
        report = Report(args.command, "error", details)
    try:
        print(_emit(report, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`lyat ... | head`); the verdict stands, and
        # stdout goes to devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
