"""The model-file layer of `lyat`, loaded by `cli` on the first command that
reads a model: the .lyat parser, and the command bodies, each returning
(status, details). It never imports `cli` (see there).

Model files (.lyat) are JSON documents describing an algebra over the
rationals, optionally a representation, a candidate Rota-Baxter operator, a
truncated deformation, and named wedge elements:

    {
      "scalar": "rational",
      "dim": 2,
      "basis": ["e1", "e2"],
      "binary":  [{"args": [1, 2], "value": {"e1": "1"}}],
      "ternary": [{"args": [1, 2, 2], "value": {"e1": "1"}}],
      "representation": "adjoint",
      "operator": [["0", "0"], ["0", "1"]],
      "deformation": {"terms": [[["0","0"],["0","1"]], [["0","-1"],["0","0"]]]},
      "elements": {"X": [{"args": [1, 2], "coeff": "1"}]}
    }

Basis indices in `args` are 1-based. Structure constants and wedge terms are
stored for ascending indices only (i < j); coefficients are integers or
strings like "-3/2" (decimal notation is rejected: arithmetic is exact).
Matrices act on coordinate columns, so `operator` rows are g-coordinates and
columns are module basis vectors. An explicit representation is
{"dim": v, "rho": [M...], "mu": [[M...]...]} with v x v matrices.

Commands import the library functions they run when they run, so a tracer's
wrappers are seen; at module level only `linalg` and `structures` load.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import Matrix, Vector, _kernel, rat_str
from .structures import (
    InputError,
    LYAlgebra,
    Representation,
    Violation,
    _names,
    _require_lya,
    _require_representation,
    wedge_basis,
)

__all__ = ["ParseError", "InvariantError", "UsageError", "ModelFile", "parse_model"]


class ParseError(InputError):
    """The model file is malformed."""


class InvariantError(InputError):
    """The model file is well-formed but breaks a storage invariant."""


class UsageError(InputError):
    """A command-line value is outside what the command accepts."""


# The algebra stores dense dim^2 and dim^3 tables of structure constants, so
# the dimension is checked before anything is allocated. The bundled models
# have dim at most 4.
MAX_DIM = 64
# `cohomology` counts the rows of its coboundary from the dimensions before it
# checks or builds anything; the bundled models need at most 4 320.
MAX_ROWS = 10 ** 6
# `deform extend` expands each order once, at a cost about the square of the
# order; 32 takes 0.2 s on a dim-4 model, start-up included. A larger
# --max-order is refused before any check.
MAX_ORDER = 32

_RAT_RE = re.compile(r"-?\d+(?:/\d+)?")

_TOP_KEYS = {"scalar", "dim", "basis", "binary", "ternary", "representation",
             "operator", "deformation", "elements"}


def _parse_rat(x: Any, where: str) -> Fraction:
    if isinstance(x, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise ParseError(f"{where}: decimal notation is not exact; "
                         f'write rationals as strings like "-3/2"')
    if isinstance(x, str):
        if not _RAT_RE.fullmatch(x):
            raise ParseError(f"{where}: malformed rational {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ParseError(f"{where}: zero denominator in {x!r}") from None
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"{where}: {exc}") from None
    raise ParseError(f"{where}: expected a rational, got {type(x).__name__}")


def _indexed(spec: Any, count: int, dim: int, where: str, key: str, parse: Callable[[Any, str], Any],
             ascending: str, not_list: str) -> Dict[Tuple[int, ...], Any]:
    """The entries {"args": [...], key: value} of the list spec (else the
    message `not_list`) by their 0-based args: 1-based in the file, the first
    two ascending (else the message `ascending` with {} for the args), none
    repeated. Entry k is reported as `where` k; parse(value, where k) reads it."""
    if not isinstance(spec, list):
        raise ParseError(not_list)
    out: Dict[Tuple[int, ...], Any] = {}
    for pos, entry in enumerate(spec):
        at = f"{where}{pos + 1}"
        if not isinstance(entry, dict) or set(entry) != {"args", key}:
            raise ParseError(f"{at}: expected keys args and {key}")
        given = entry["args"]
        if not isinstance(given, list) or len(given) != count:
            raise ParseError(f"{at}: args must be a list of {count} basis indices")
        for x in given:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ParseError(f"{at}: basis indices must be integers")
            if not 1 <= x <= dim:
                raise ParseError(f"{at}: basis index {x} out of range 1..{dim}")
        args = tuple(x - 1 for x in given)
        shown = f"[{', '.join(str(i + 1) for i in args)}]"
        if args[0] >= args[1]:
            raise InvariantError(f"{at}: {ascending.format(shown)}")
        if args in out:
            raise ParseError(f"{at}: duplicate args {shown}")
        out[args] = parse(entry[key], at)
    return out


def _value_vector(value: Any, names: Sequence[str], where: str) -> Vector:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: value must map basis names to rationals")
    coeffs = {}
    for name, c in value.items():
        if name not in names:
            raise ParseError(f"{where}: unknown basis name {name!r}")
        coeffs[name] = _parse_rat(c, f"{where}, entry {name!r}")
    return tuple(coeffs.get(n, Fraction(0)) for n in names)


def _parse_matrix(obj: Any, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"{where}: expected a matrix with {rows} rows")
    entries = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{where}: row {i + 1} must have {cols} entries")
        entries.append([_parse_rat(x, f"{where}, row {i + 1}") for x in row])
    return Matrix(entries, cols=cols)


class ModelFile(NamedTuple):
    """Parsed contents of a .lyat file. `elements` keeps each named wedge
    element as its validated {(i, j): coefficient} map, i < j."""

    path: str
    algebra: LYAlgebra
    rep_kind: Optional[str]                 # None | "adjoint" | "explicit"
    explicit_rep: Optional[Representation]
    operator: Optional[Matrix]
    deformation: Optional[Tuple[Matrix, ...]]
    elements: Dict[str, Dict[Tuple[int, int], Fraction]]

    def rep(self) -> Representation:
        from .structures import adjoint_rep
        if self.rep_kind is None:
            raise ParseError(f"{self.path}: file declares no representation")
        return adjoint_rep(self.algebra) if self.rep_kind == "adjoint" else self.explicit_rep

    def require_operator(self) -> Matrix:
        if self.operator is None:
            raise ParseError(f"{self.path}: file declares no operator")
        return self.operator


def parse_model(text: str, path: str = "<input>") -> ModelFile:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer with too many digits
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ParseError(f"{path}: unknown keys: {', '.join(unknown)}")
    if data.get("scalar") != "rational":
        raise ParseError(f'{path}: "scalar" must be "rational"')
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f'{path}: "dim" must be a positive integer')
    if dim > MAX_DIM:
        raise ParseError(f'{path}: "dim" is {dim}; at most {MAX_DIM} is supported')

    if "basis" in data:
        basis = data["basis"]
        if (not isinstance(basis, list) or len(basis) != dim
                or not all(isinstance(n, str) and n for n in basis)
                or len(set(basis)) != dim):
            raise ParseError(f'{path}: "basis" must list {dim} distinct names')
        names = tuple(basis)
    else:
        names = _names("e", dim)

    def vector(value: Any, where: str) -> Vector:
        return _value_vector(value, names, where)

    binary = _indexed(data.get("binary", []), 2, dim, f"{path}: binary entry ", "value", vector,
                      "constants are stored for ascending indices only (got {}); "
                      "state the i < j case and the skew completion is implied",
                      f'{path}: "binary" must be a list of entries')
    ternary = _indexed(data.get("ternary", []), 3, dim, f"{path}: ternary entry ", "value", vector,
                       "constants are stored for ascending first indices only (got {})",
                       f'{path}: "ternary" must be a list of entries')
    algebra = LYAlgebra(dim, binary=binary, ternary=ternary, basis_names=names)

    rep_kind: Optional[str] = None
    explicit_rep: Optional[Representation] = None
    dim_v: Optional[int] = None
    if "representation" in data:
        spec = data["representation"]
        if spec == "adjoint":
            rep_kind = "adjoint"
            dim_v = dim
        elif isinstance(spec, dict):
            if set(spec) != {"dim", "rho", "mu"}:
                raise ParseError(f"{path}: representation needs keys dim, rho, mu")
            v = spec["dim"]
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ParseError(f"{path}: representation dim must be a nonnegative integer")
            rho_spec = spec["rho"]
            if not isinstance(rho_spec, list) or len(rho_spec) != dim:
                raise ParseError(f"{path}: rho must list {dim} matrices")
            rho = [_parse_matrix(mx, v, v, f"{path}: rho[{i + 1}]")
                   for i, mx in enumerate(rho_spec)]
            mu_spec = spec["mu"]
            if not isinstance(mu_spec, list) or len(mu_spec) != dim \
                    or not all(isinstance(row, list) and len(row) == dim for row in mu_spec):
                raise ParseError(f"{path}: mu must be a {dim}x{dim} array of matrices")
            mu = [[_parse_matrix(mu_spec[i][j], v, v, f"{path}: mu[{i + 1}][{j + 1}]")
                   for j in range(dim)] for i in range(dim)]
            rep_kind = "explicit"
            explicit_rep = Representation(algebra, v, rho, mu)
            dim_v = v
        else:
            raise ParseError(f'{path}: representation must be "adjoint" or an object')

    operator: Optional[Matrix] = None
    if "operator" in data:
        if dim_v is None:
            raise ParseError(f"{path}: operator requires a representation")
        operator = _parse_matrix(data["operator"], dim, dim_v, f"{path}: operator")

    deformation: Optional[Tuple[Matrix, ...]] = None
    if "deformation" in data:
        spec = data["deformation"]
        if not isinstance(spec, dict) or set(spec) != {"terms"}:
            raise ParseError(f"{path}: deformation needs the single key terms")
        if operator is None:
            raise ParseError(f"{path}: deformation requires an operator")
        terms_spec = spec["terms"]
        if not isinstance(terms_spec, list) or not terms_spec:
            raise ParseError(f"{path}: deformation terms must be a nonempty list")
        terms = tuple(_parse_matrix(mx, dim, dim_v, f"{path}: deformation term {k}")
                      for k, mx in enumerate(terms_spec))
        if terms[0] != operator:
            raise InvariantError(f"{path}: deformation term 0 must equal the operator")
        deformation = terms

    elements: Dict[str, Dict[Tuple[int, int], Fraction]] = {}
    if "elements" in data:
        spec = data["elements"]
        if not isinstance(spec, dict):
            raise ParseError(f"{path}: elements must map names to wedge terms")
        for name, terms_spec in spec.items():
            if not isinstance(name, str) or not name:
                raise ParseError(f"{path}: element names must be nonempty strings")
            where = f"{path}: element {name!r}"
            elements[name] = _indexed(terms_spec, 2, dim, f"{where}, term ", "coeff", _parse_rat,
                                      "wedge terms are stored for ascending indices only (got {})",
                                      f"{where}: expected a list of wedge terms")

    return ModelFile(path=path, algebra=algebra, rep_kind=rep_kind,
                     explicit_rep=explicit_rep, operator=operator,
                     deformation=deformation, elements=elements)


# -- violation rendering ------------------------------------------------------

def _combo(vec: Vector, names: Sequence[str]) -> str:
    parts = []
    for c, n in zip(vec, names):
        if c:
            sign = (" - " if c < 0 else " + ") if parts else ("-" if c < 0 else "")
            parts.append(f"{sign}{n}" if abs(c) == 1 else f"{sign}{rat_str(abs(c))}*{n}")
    return "".join(parts) if parts else "0"


def _render_violation(v: Violation, g_names: Sequence[str],
                      v_names: Sequence[str], plain: bool = False) -> Dict[str, Any]:
    names = {"g": g_names, "v": v_names}
    # the plain closing condition of the adjoint case takes its argument in g
    spaces = "g" if plain and v.identity == "closing" else v.arg_spaces
    return {"identity": v.identity,
            "args": [names[space][i] for space, i in zip(spaces, v.args)],
            "residual": _combo(v.residual, names[v.residual_space])}


def _render_violations(viols, g_names, v_names, plain=False) -> List[Dict[str, Any]]:
    return [_render_violation(v, g_names, v_names, plain=plain) for v in viols]


def _render_matrix(m: Matrix) -> List[List[str]]:
    return [[rat_str(x) for x in row] for row in m.entries]


# -- commands -----------------------------------------------------------------

Outcome = Tuple[str, Dict[str, Any]]   # (status, details) of a report


def _validated_rep(model: ModelFile) -> Representation:
    """Representation of a validated algebra, validated too unless adjoint (`adjoint_rep`
    checks the algebra); a model with none fails first, before any check."""
    r = model.rep()
    if model.rep_kind != "adjoint":
        _require_lya(model.algebra)
        _require_representation(r)
    return r


def _cmd_check_algebra(model: ModelFile, args) -> Outcome:
    from .structures import check_lya
    report = check_lya(model.algebra)
    gn = model.algebra.basis_names
    return "ok" if report.valid else "violated", {
        "dim": model.algebra.dim,
        "basis": list(gn),
        "violations": _render_violations(report.violations, gn, gn),
    }


def _cmd_check_rep(model: ModelFile, args) -> Outcome:
    from .structures import check_representation
    r = model.rep()
    report = check_representation(r)
    gn = model.algebra.basis_names
    vn = _names("u", r.dim_v)
    return "ok" if report.valid else "violated", {
        "dim": model.algebra.dim,
        "dim_v": r.dim_v,
        "kind": model.rep_kind,
        "violations": _render_violations(report.violations, gn, vn),
    }


def _cmd_check_rbo(model: ModelFile, args) -> Outcome:
    from .rbo import check_rbo

    r = _validated_rep(model)
    t = model.require_operator()
    report = check_rbo(model.algebra, r, t)
    gn = model.algebra.basis_names
    vn = _names("u", r.dim_v)
    return "ok" if report.valid else "violated", {
        "dim": model.algebra.dim,
        "dim_v": r.dim_v,
        "operator": _render_matrix(t),
        "violations": _render_violations(report.violations, gn, vn),
    }


def _cmd_cohomology(model: ModelFile, args) -> Outcome:
    degree = args.degree
    if degree < 1:
        raise UsageError(f"cohomology degree must be >= 1, got {degree}")
    if degree > 3 and not args.force:
        raise UsageError(f"degree {degree} cochain spaces grow exponentially; "
                         f"pass --force to compute anyway")
    from .complexes import ComplexContext, _blocks, _echelon, cochain_dim, cohomology_dims

    if model.rep_kind is not None and not args.force:
        g = model.algebra.dim
        v = g if model.rep_kind == "adjoint" else model.explicit_rep.dim_v
        m, v = (v, g) if args.rbo else (g, v)   # the operator complex: V, coefficients in g
        if (rows := sum(_blocks(m, degree + 1)) * v) > MAX_ROWS:
            raise UsageError(f"the degree-{degree} coboundary has {rows} rows, more than "
                             f"{MAX_ROWS}; pass --force to compute anyway")
    details: Dict[str, Any] = {"degree": degree}
    r = _validated_rep(model)

    details["complex"] = "operator" if args.rbo else "bare"
    if args.rbo:
        from .rbo import RelRBO
        from .rbo_cohomology import RboComplex, rbo_cohomology_dims

        cplx = RboComplex.build(RelRBO.build(model.algebra, r, model.require_operator()))
        ctx, dims = cplx.ctx, rbo_cohomology_dims
    else:
        cplx = ctx = ComplexContext(model.algebra, r, validate=False)
        dims = cohomology_dims
    details.update(dims(cplx, degree)._asdict())
    if args.kernel_dump:
        # the context keeps the elimination that gave dim_cocycles
        kernel = _kernel(_echelon(ctx, degree), cochain_dim(ctx, degree))
        details["kernel_basis"] = [[rat_str(x) for x in vec] for vec in kernel]
    return "ok", details


def _cmd_nijenhuis(model: ModelFile, args) -> Outcome:
    r = _validated_rep(model)
    from .rbo import RelRBO, Wedge2
    o = RelRBO.build(model.algebra, r, model.require_operator())
    from .deformation import nijenhuis_element_check
    gn = model.algebra.basis_names
    vn = _names("u", r.dim_v)
    if args.element is not None:
        if args.element not in model.elements:
            raise ParseError(f"{model.path}: no element named {args.element!r}")
        chosen = [(args.element,
                   Wedge2.from_dict(model.algebra.dim, model.elements[args.element]))]
    else:
        chosen = [(f"{gn[i]}^{gn[j]}", Wedge2.basis(model.algebra.dim, i, j))
                  for (i, j) in wedge_basis(model.algebra.dim)]

    def render(conditions, plain: bool = False) -> List[Dict[str, Any]]:
        return [{"identity": label, "valid": rep.valid,
                 "violations": _render_violations(rep.violations, gn, vn, plain=plain)}
                for label, rep in conditions]

    reports = [(name, nijenhuis_element_check(o, x)) for name, x in chosen]
    entries = [{"name": name, "is_nijenhuis": nrep.is_nijenhuis,
                "conditions": render(nrep.conditions),
                "plain_conditions": None if nrep.plain_conditions is None
                else render(nrep.plain_conditions, plain=True)} for name, nrep in reports]
    status = "ok" if all(nrep.is_nijenhuis for _, nrep in reports) else "violated"
    return status, {"elements": entries}


def _cmd_deform(model: ModelFile, args) -> Outcome:
    if args.action == "extend" and args.max_order is not None and args.max_order > MAX_ORDER:
        raise UsageError(f"--max-order is {args.max_order}; at most {MAX_ORDER} is supported")
    r = _validated_rep(model)
    from .rbo import RelRBO
    o = RelRBO.build(model.algebra, r, model.require_operator())
    from .deformation import TruncatedDeformation, extend_deformation, obstruction, order_n_check
    if model.deformation is None:
        raise ParseError(f"{model.path}: file declares no deformation")
    d = TruncatedDeformation(model.deformation)
    gn = model.algebra.basis_names
    vn = _names("u", r.dim_v)

    if args.action == "check":
        report = order_n_check(o, d)
        return "ok" if report.valid else "violated", {
            "action": "check",
            "order": d.order,
            "violations": _render_violations(report.violations, gn, vn),
        }

    if args.action == "obstruction":
        result = obstruction(o, d)
        return "ok" if result.trivial else "violated", {
            "action": "obstruction",
            "order": d.order,
            "obstruction_is_zero": result.ob.is_zero(),
            "is_cocycle": result.is_cocycle,
            "trivial": result.trivial,
            "witness": _render_matrix(result.witness.as_matrix(model.algebra.dim))
                       if result.witness is not None else None,
        }

    # extend
    target = args.max_order if args.max_order is not None else d.order + 1
    if target <= d.order:
        raise UsageError(f"--max-order must exceed the current order {d.order}")
    start = d.order
    stuck: Optional[int] = None
    while d.order < target:
        extended = extend_deformation(o, d)
        if extended is None:
            stuck = d.order
            break
        d = extended
    return "ok" if d.order == target else "violated", {
        "action": "extend",
        "start_order": start,
        "target_order": target,
        "achieved_order": d.order,
        "stuck_at": stuck,
        "terms": [_render_matrix(t) for t in d.terms],
    }
