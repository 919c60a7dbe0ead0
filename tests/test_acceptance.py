"""End-to-end checks tying the whole package together: the bundled examples
admit the advertised operator families, induced structures satisfy their
defining identities, complexes square to zero, deformation theory is
consistent with direct sampling, and the CLI output is frozen byte for byte."""

import ast
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import lieyamaguti as ly
from lieyamaguti import cli
from conftest import Model, dim4_operator, fr, random_matrix, random_valid_pair


def test_two_dim_example_carries_an_operator_family(dim2: Model):
    start = time.monotonic()
    a, r = dim2.algebra, dim2.rep
    assert ly.check_lya(a).valid
    rng = random.Random(99)
    for _ in range(20):
        t = ly.Matrix(((fr(0), fr(rng.randint(-9, 9), rng.randint(1, 5))),
                       (fr(0), fr(rng.randint(-9, 9), rng.randint(1, 5)))))
        assert ly.check_rbo(a, r, t).valid
    for c in (fr(1), fr(-2), fr(3, 7), fr(5)):
        x = ly.Wedge2.from_dict(2, {(0, 1): c})
        assert ly.nijenhuis_element_check(dim2.op, x).is_nijenhuis
    assert time.monotonic() - start < 1.0


def test_four_dim_example_carries_an_operator_family(dim4: Model):
    start = time.monotonic()
    a, r = dim4.algebra, dim4.rep
    assert ly.check_lya(a).valid
    rng = random.Random(7)
    for _ in range(10):
        t = dim4_operator(*(fr(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in range(9)))
        assert ly.check_rbo(a, r, t).valid
    for (i, j) in ly.wedge_basis(4):
        report = ly.nijenhuis_element_check(dim4.op, ly.Wedge2.basis(4, i, j))
        assert report.is_nijenhuis
    assert time.monotonic() - start < 1.0


def test_coboundaries_square_to_zero(dim2: Model, dim4: Model):
    start = time.monotonic()
    for model in (dim2, dim4):
        ctx = ly.ComplexContext(model.algebra, model.rep)
        m1 = ly.coboundary_matrix(ctx, 1)
        m2 = ly.coboundary_matrix(ctx, 2)
        assert (m2 @ m1).is_zero()

    rng = random.Random(31)
    for _ in range(25):
        a, r = random_valid_pair(rng)
        ctx = ly.ComplexContext(a, r)
        assert (ly.coboundary_matrix(ctx, 2) @ ly.coboundary_matrix(ctx, 1)).is_zero()

    for model in (dim2, dim4):
        rc = ly.RboComplex.build(model.op)
        m0 = ly.rbo_coboundary_matrix(rc, 0)
        m1 = ly.rbo_coboundary_matrix(rc, 1)
        m2 = ly.rbo_coboundary_matrix(rc, 2)
        assert (m1 @ m0).is_zero()
        assert (m2 @ m1).is_zero()
    assert time.monotonic() - start < 60.0


def test_operator_induces_valid_structures(dim2: Model, dim4: Model):
    for model in (dim2, dim4):
        o, a, r = model.op, model.algebra, model.rep
        m, v = a.dim, r.dim_v

        sub = ly.induced_lya_on_v(o)
        assert ly.check_lya(sub).valid
        ir = ly.induced_rep_on_g(o)
        assert ly.check_representation(ir).valid

        # the D map of the induced pair has a closed form in the original data
        for b1 in range(v):
            for b2 in range(b1 + 1, v):
                tu, tv = o.column(b1), o.column(b2)
                for i in range(m):
                    x = a.basis(i)
                    inner = ly.vsub(r.mu_of(tv, x).column(b1),
                                    r.mu_of(tu, x).column(b2))
                    expect = ly.vsub(a.triple(tu, tv, x), o.apply(inner))
                    assert ir.d_basis(b1, b2).column(i) == expect

        # the block lift is a Nijenhuis operator on the semidirect sum...
        sd = ly.semidirect(a, r)
        lift = ly.lift_to_nijenhuis(o)
        assert ly.nijenhuis_operator_check(sd, lift).valid

        # ...and its deformed brackets carry exactly the induced structures
        dB = ly.deformed_brackets(sd, lift)
        zg, zv = (fr(0),) * m, (fr(0),) * v
        for b1 in range(v):
            for b2 in range(b1 + 1, v):
                got = dB.bracket_basis(m + b1, m + b2)
                assert got[:m] == zg and got[m:] == sub.bracket_basis(b1, b2)
                for b3 in range(v):
                    got = dB.triple_basis(m + b1, m + b2, m + b3)
                    assert got[:m] == zg
                    assert got[m:] == sub.triple_basis(b1, b2, b3)
        for i in range(m):
            for b in range(v):
                got = dB.bracket_basis(i, m + b)
                assert got[:m] == ly.vneg(ir.rho(b).column(i))
                assert got[m:] == zv
        for i in range(m):
            for b1 in range(v):
                for b2 in range(v):
                    got = dB.triple_basis(i, m + b1, m + b2)
                    assert got[:m] == tuple(ir.mu(b1, b2).column(i))
                    assert got[m:] == zv
                    if b1 == b2:
                        continue
                    dprime = (ir.d_basis(b1, b2) if b1 < b2
                              else ir.d_basis(b2, b1).scale(fr(-1)))
                    got = dB.triple_basis(m + b1, m + b2, i)
                    assert got[:m] == tuple(dprime.column(i))
                    assert got[m:] == zv


def test_semidirect_validity_tracks_representation(dim4: Model):
    from conftest import corrupt_rep

    # the 8-dimensional semidirect sum of the big fixture, valid and corrupted
    rng = random.Random(67)
    verdicts = []
    for cand in (dim4.rep, corrupt_rep(rng, dim4.rep), corrupt_rep(rng, dim4.rep)):
        rep_valid = ly.check_representation(cand).valid
        assert rep_valid == ly.check_lya(ly.semidirect(dim4.algebra, cand)).valid
        verdicts.append(rep_valid)
    assert verdicts == [True, False, False]

    rng = random.Random(61)
    valid_seen = invalid_seen = 0
    while valid_seen < 5 or invalid_seen < 5:
        a, r = random_valid_pair(rng)
        candidates = [r] if valid_seen < 5 else []
        candidates.append(corrupt_rep(rng, r))
        for cand in candidates:
            rep_valid = ly.check_representation(cand).valid
            sum_valid = ly.check_lya(ly.semidirect(a, cand)).valid
            assert rep_valid == sum_valid
            if rep_valid:
                valid_seen += 1
            else:
                invalid_seen += 1


def test_trivial_deformations_are_equivalences(dim2: Model, dim4: Model):
    for model, wedges in ((dim2, [(0, 1)]), (dim4, list(ly.wedge_basis(4)))):
        o, a, r = model.op, model.algebra, model.rep
        n = a.dim
        base = ly.TruncatedDeformation((o.t_matrix, ly.Matrix.zero(n, n)))
        for (i, j) in wedges:
            x = ly.Wedge2.basis(n, i, j)
            d = ly.trivial_deformation_from(o, x)
            direction = d.terms[1]
            assert ly.linear_deformation_check(o, direction).valid

            lx = x.action_matrix(a)
            dx = x.d_matrix(r)
            for t in (1, 2, 5):
                deformed = ly.RelRBO.build(
                    a, r, o.t_matrix + direction.scale(fr(t)))
                phi_g = ly.Matrix.identity(n) + lx.scale(fr(t))
                phi_v = ly.Matrix.identity(n) + dx.scale(fr(t))
                report = ly.rbo_homomorphism_check(deformed, o, phi_g, phi_v)
                assert report.valid

            assert ly.equivalence_check_linear(o, base, d, x).valid


def test_degree_three_cohomology(dim4: Model, capsys):
    start = time.monotonic()
    ctx = ly.ComplexContext(dim4.algebra, dim4.rep)
    rc = ly.RboComplex.build(dim4.op)
    for dims, expected in ((lambda p: ly.cohomology_dims(ctx, p), (720, 241, 69, 172)),
                           (lambda p: ly.rbo_cohomology_dims(rc, p), (720, 504, 36, 468))):
        s2, s3 = dims(2), dims(3)
        assert s3.dim_coboundaries == s2.dim_cochains - s2.dim_cocycles
        assert 0 <= s3.dim_coboundaries <= s3.dim_cocycles <= s3.dim_cochains
        assert (s3.dim_cochains, s3.dim_cocycles, s3.dim_coboundaries, s3.dim_h) == expected
    for extra in ((), ("--rbo",)):
        assert cli.main(["cohomology", "dim4.lyat", "--degree", "3", *extra]) == 0
    capsys.readouterr()
    assert time.monotonic() - start < 60.0


def test_obstructions_and_expanded_coboundary(dim2: Model, dim4: Model):
    res = ly.obstruction(dim2.op, ly.trivial_deformation_from(dim2.op, dim2.x))
    assert res.is_cocycle
    rc = ly.RboComplex.build(dim2.op)
    preimage = ly.solve_linear(ly.rbo_coboundary_matrix(rc, 1),
                               ly.vneg(res.ob.flatten()))
    assert res.trivial == (preimage is not None)
    extended = ly.extend_deformation(
        dim2.op, ly.trivial_deformation_from(dim2.op, dim2.x))
    assert (extended is not None) == res.trivial
    if extended is not None:
        assert ly.order_n_check(dim2.op, extended).valid

    rng = random.Random(43)
    for model in (dim2, dim4):
        rc = ly.RboComplex.build(model.op)
        n = ly.cochain_dim(rc.ctx, 1)
        for _ in range(50):
            flat = tuple(fr(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(n))
            c = ly.Cochain.from_flat(rc.ctx, 1, flat)
            assert (ly.rbo_delta1_expanded(model.op, c).flatten()
                    == ly.coboundary(rc.ctx, c).flatten())


def test_linear_check_agrees_with_sampled_parameters(dim2: Model, dim4: Model):
    rng = random.Random(53)
    for model in (dim2, dim4):
        o, a, r = model.op, model.algebra, model.rep
        n = a.dim
        directions = [ly.rbo_delta0(o, model.x).as_matrix()]
        directions += [random_matrix(rng, n, n, span=3, den=2)
                       for _ in range(50)]
        agreed_valid = 0
        for direction in directions:
            predicted = ly.linear_deformation_check(o, direction).valid
            sampled = all(
                ly.check_rbo(a, r, o.t_matrix + direction.scale(fr(t))).valid
                for t in (1, 2, 3))
            assert predicted == sampled
            agreed_valid += predicted
        assert agreed_valid >= 1  # the delta-image direction always works


def _holds(*labels):
    return [{"identity": label, "valid": True, "violations": []} for label in labels]


# every Nijenhuis condition holds for the one wedge element of dim2
_DIM2_NIJENHUIS = {
    "is_nijenhuis": True,
    "conditions": _holds("bracket-binary", "bracket-ternary-quadratic", "bracket-ternary-cubic",
                         "mu-quadratic", "mu-cubic", "closing"),
    "plain_conditions": _holds("bracket-binary", "bracket-ternary-quadratic",
                               "bracket-ternary-cubic", "closing")}

FROZEN_CLI = [
    (("check-algebra", "dim2.lyat"), 0,
     {"command": "check-algebra", "status": "ok",
      "details": {"dim": 2, "basis": ["e1", "e2"], "violations": []}}),
    (("cohomology", "dim2.lyat", "--degree", "1"), 0,
     {"command": "cohomology", "status": "ok",
      "details": {"degree": 1, "complex": "bare", "dim_cochains": 4,
                  "dim_cocycles": 2, "dim_coboundaries": 0, "dim_h": 2}}),
    (("cohomology", "dim2.lyat", "--degree", "1", "--rbo"), 0,
     {"command": "cohomology", "status": "ok",
      "details": {"degree": 1, "complex": "operator", "dim_cochains": 4,
                  "dim_cocycles": 3, "dim_coboundaries": 1, "dim_h": 2}}),
    (("deform", "obstruction", "dim2.lyat"), 0,
     {"command": "deform", "status": "ok",
      "details": {"action": "obstruction", "order": 1,
                  "obstruction_is_zero": True, "is_cocycle": True,
                  "trivial": True, "witness": [["0", "0"], ["0", "0"]]}}),
    (("check-rbo", "dim2_bad_rbo.lyat"), 1,
     {"command": "check-rbo", "status": "violated",
      "details": {"dim": 2, "dim_v": 2,
                  "operator": [["1", "0"], ["0", "1"]],
                  "violations": [
                      {"identity": "rota-baxter-binary",
                       "args": ["u1", "u2"], "residual": "-e1"},
                      {"identity": "rota-baxter-ternary",
                       "args": ["u1", "u2", "u2"], "residual": "-2*e1"}]}}),
    (("check-algebra", "dim2_bad_algebra.lyat"), 1,
     {"command": "check-algebra", "status": "violated",
      "details": {"dim": 2, "basis": ["e1", "e2"],
                  "violations": [
                      {"identity": "binary-derivation",
                       "args": ["e1", "e2", "e1", "e2"], "residual": "-e1"},
                      {"identity": "binary-derivation",
                       "args": ["e1", "e2", "e2", "e1"], "residual": "e1"},
                      {"identity": "binary-derivation",
                       "args": ["e2", "e1", "e1", "e2"], "residual": "e1"},
                      {"identity": "binary-derivation",
                       "args": ["e2", "e1", "e2", "e1"], "residual": "-e1"},
                      {"identity": "ternary-derivation",
                       "args": ["e1", "e2", "e1", "e2", "e2"], "residual": "-e2"},
                      {"identity": "ternary-derivation",
                       "args": ["e1", "e2", "e2", "e1", "e2"], "residual": "e2"},
                      {"identity": "ternary-derivation",
                       "args": ["e2", "e1", "e1", "e2", "e2"], "residual": "e2"},
                      {"identity": "ternary-derivation",
                       "args": ["e2", "e1", "e2", "e1", "e2"], "residual": "-e2"}]}}),
    (("check-rep", "dim2_bad_rep.lyat"), 1,
     {"command": "check-rep", "status": "violated",
      "details": {"dim": 2, "dim_v": 2, "kind": "explicit",
                  "violations": [
                      {"identity": "mu-bracket-right",
                       "args": ["e2", "e1", "e2", "u2"], "residual": "-u1"},
                      {"identity": "mu-bracket-right",
                       "args": ["e2", "e2", "e1", "u2"], "residual": "u1"},
                      {"identity": "mu-triple-commutator",
                       "args": ["e1", "e2", "e2", "e2", "u2"], "residual": "-u1"},
                      {"identity": "mu-triple-expansion",
                       "args": ["e1", "e2", "e2", "e2", "u2"], "residual": "u1"},
                      {"identity": "mu-composition",
                       "args": ["e2", "e1", "e2", "e2", "u2"], "residual": "2*u1"},
                      {"identity": "mu-triple-commutator",
                       "args": ["e2", "e1", "e2", "e2", "u2"], "residual": "u1"},
                      {"identity": "mu-triple-expansion",
                       "args": ["e2", "e1", "e2", "e2", "u2"], "residual": "-u1"},
                      {"identity": "mu-composition",
                       "args": ["e2", "e2", "e1", "e2", "u2"], "residual": "-2*u1"}]}}),
    (("nijenhuis", "dim2.lyat", "--element", "X"), 0,
     {"command": "nijenhuis", "status": "ok",
      "details": {"elements": [{"name": "X", **_DIM2_NIJENHUIS}]}}),
    (("nijenhuis", "dim2.lyat", "--all-basis"), 0,
     {"command": "nijenhuis", "status": "ok",
      "details": {"elements": [{"name": "e1^e2", **_DIM2_NIJENHUIS}]}}),
]


def test_cli_json_output_is_frozen(capsys):
    for argv, expected_code, expected_payload in FROZEN_CLI:
        code = cli.main([*argv, "--format", "json"])
        out = capsys.readouterr().out
        assert code == expected_code, argv
        assert out == json.dumps(expected_payload, indent=2) + "\n", argv


def test_frozen_output_without_asserts():
    # `python -O` strips every assert, so no verdict may depend on one
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for argv, expected_code, expected_payload in (FROZEN_CLI[1], FROZEN_CLI[3], FROZEN_CLI[4],
                                                  FROZEN_CLI[-1]):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "lieyamaguti.cli", *argv, "--format", "json"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == expected_code, argv
        assert proc.stdout == json.dumps(expected_payload, indent=2) + "\n", argv


def _src_nodes():
    package = Path(__file__).resolve().parents[1] / "src" / "lieyamaguti"
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_no_asserts_in_src():
    # invariants raise explicitly; an `assert` would vanish under `python -O`
    found = [f"{path.name}:{node.lineno}" for path, node in _src_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_dense_views_have_no_callers_in_src():
    # library computations read the integer rows; the dense matrices and the
    # solves over them are views for API users and may only build on each other
    views = {"coboundary_matrix", "rbo_coboundary_matrix", "rank_kernel", "solve_linear"}

    def name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    found = {f"{path.name}:{node.lineno}" for path, fn in _src_nodes()
             if isinstance(fn, ast.FunctionDef) and fn.name not in views
             for node in ast.walk(fn) if isinstance(node, ast.Call) and name(node) in views}
    assert sorted(found) == []


def test_fraction_matrix_is_gone_from_src():
    # a representation is held as its integer tables, which its constructors
    # hand in directly; no helper turns integer columns into Fraction matrices
    # for the tables to be scaled back out of them
    found = [f"{path.name}:{node.lineno}" for path, node in _src_nodes()
             if "_fraction_matrix" in (getattr(node, "id", None), getattr(node, "attr", None),
                                       getattr(node, "name", None))]   # names, defs, imports
    assert found == []


def test_algebra_views_are_read_only_inside_structures():
    # an algebra is held as its integer tables, which every other module reads;
    # its `Fraction` constants are views for API users, and the old stored
    # copies of them (`_binary`, `_ternary`) are gone, slots included
    views, gone = {"bracket_basis", "triple_basis"}, {"_binary", "_ternary"}

    def names(node):
        return {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None),
                getattr(node, "value", None) if isinstance(node, ast.Constant) else None}

    found = [f"{path.name}:{node.lineno}" for path, node in _src_nodes()
             if names(node) & gone or (path.name != "structures.py" and isinstance(node, ast.Call)
                                       and names(node.func) & views)]
    assert found == []


def test_coboundary_has_no_callers_outside_complexes():
    # the paper's lemmas that `coboundary` would re-prove at run time (the
    # obstruction is a 2-cocycle, delta o delta = 0) are checked by the tests
    found = [f"{path.name}:{node.lineno}" for path, node in _src_nodes()
             if path.name != "complexes.py" and isinstance(node, ast.Call)
             and "coboundary" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert found == []


def test_no_dataclasses_in_src():
    # records are NamedTuples: importing `dataclasses` loads inspect, ast and
    # dis, a cost every `lyat` command would pay at start-up
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom) and node.module:
            return [node.module]
        return []
    found = [f"{path.name}:{node.lineno}" for path, node in _src_nodes()
             if any(name.split(".")[0] == "dataclasses" for name in imported(node))]
    assert found == []


def test_the_entry_imports_only_the_standard_library():
    # `examples`, `--help` and usage errors compile `cli` alone; the model
    # layer loads on the first command that reads a model. Under `python -m`
    # `cli` runs as `__main__`, so a module importing `lieyamaguti.cli` would
    # execute it a second time
    package = Path(__file__).resolve().parents[1] / "src" / "lieyamaguti"
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    top = [alias.name if isinstance(node, ast.Import) else "." * node.level + (node.module or "")
           for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
           for alias in node.names]
    assert top and all(name.split(".")[0] in sys.stdlib_module_names for name in top), top

    def imports_cli(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "lieyamaguti.cli" for alias in node.names)
        if not isinstance(node, ast.ImportFrom):
            return False
        module = node.module or ""
        if node.level == 0 and module.startswith("lieyamaguti"):
            return module == "lieyamaguti.cli" or any(a.name == "cli" for a in node.names)
        return node.level == 1 and (module == "cli" or not module
                                    and any(a.name == "cli" for a in node.names))
    found = [f"{path.name}:{node.lineno}" for path, node in _src_nodes() if imports_cli(node)]
    assert found == []


def test_only_the_builders_decide_q():
    # every construction hands its integers to `LYAlgebra._fill` or
    # `Representation._fill`, which alone reduce them to the least q; `rbo`
    # imports neither reduction, and `semidirect` is built from the
    # representation's tables, not from `Fraction` views or the public constructor
    reductions, builders = {"_least_q", "_rescaled"}, {"LYAlgebra._fill", "Representation._fill"}
    views = {"basis", "bracket_basis", "triple_basis", "bracket", "triple", "rho", "mu", "d_basis",
             "rho_of", "mu_of", "d_of", "binary_constants", "ternary_constants"}

    def name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def functions(tree, prefix=""):   # (qualified name, def) of every function, nested ones too
        for node in ast.iter_child_nodes(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(node, ast.FunctionDef):
                    yield prefix + node.name, node
                yield from functions(node, prefix + node.name + ".")

    package = Path(__file__).resolve().parents[1] / "src" / "lieyamaguti"
    found, calls = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qual, fn in functions(tree):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and name(node) in reductions:
                    calls.add(qual)
                if qual == "semidirect" and isinstance(node, ast.Call) \
                        and (name(node) in views or getattr(node.func, "id", None) == "LYAlgebra"):
                    found.append(f"semidirect calls {name(node)} at line {node.lineno}")
        if path.name == "rbo.py":
            found += [f"rbo imports {alias.name}" for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names
                      if alias.name in reductions | {"_algebra_tables"}]
    assert found == []
    assert calls == builders


def test_operators_live_in_rbo_as_integer_columns():
    # `structures` holds algebras and representations only; the operator code
    # lives in `rbo`, where a caller's `Matrix` is scaled into integer columns
    # once, by `_term_tables`, where it enters: T alone in `RelRBO._columns`,
    # which the operator keeps, and a list of terms or maps by the function
    # it is given to. Every map the library derives from the tables
    # (identities, <X, .>, D(X), delta X) stays in integers: no `Fraction`
    # view of an action is built on the way
    moved = {"_term_tables", "_hom_expansion", "_nijenhuis", "nijenhuis_operator_check",
             "deformed_brackets", "NotNijenhuis", "semidirect"}
    views = {"action_matrix", "d_matrix", "bracket_with", "rho_of", "mu_of", "d_of"}
    matrices = {"identity", "zero"}   # as attributes of `Matrix`
    entries = {"_columns", "linear_deformation_check", "_order_violations", "rbo_delta1_expanded",
               "pre_ly_deformation_terms", "_homomorphism_violations", "_nijenhuis",
               "equivalence_check_linear"}
    package = Path(__file__).resolve().parents[1] / "src" / "lieyamaguti"
    structures_tree = ast.parse((package / "structures.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(structures_tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & moved == set()

    def name(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    found, scalers = [], set()
    for path, fn in _src_nodes():
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            if name(node) == "_term_tables":
                scalers.add(fn.name)
            func = node.func
            if fn.name not in views and (name(node) in views or (
                    isinstance(func, ast.Attribute) and func.attr in matrices
                    and getattr(func.value, "id", None) == "Matrix")):
                found.append(f"{path.name}:{node.lineno} {fn.name} calls {name(node)}")
    assert found == []
    assert scalers == entries
