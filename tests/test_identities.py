"""The Fraction-path identity checks against their hand-unrolled reference
(`reference_identities`), and the space of every argument and residual each
check reports."""

import random
from fractions import Fraction

import pytest

import lieyamaguti as ly
import reference_deformation as refd
import reference_identities as ref
import reference_structures as refs
from lieyamaguti import structures
from conftest import (DIM4_P, DIM4_Q, LIE_FAMILIES, Model, fr, random_fraction, random_matrix,
                      sl2_sum_operator, transport)


def _sl2_lift(t: ly.Matrix) -> Model:
    """sl2 lifted by <x,y,z> = [[x,y],z], with its adjoint representation."""
    a = ly.lya_from_lie(3, {k: tuple(fr(c) for c in v)
                            for k, v in LIE_FAMILIES["sl2"][1].items()})
    r = ly.adjoint_rep(a)
    return Model(a, r, ly.RelRBO.build(a, r, t), ly.Wedge2.basis(3, 0, 1))


@pytest.fixture(scope="module")
def models(dim2: Model, dim4: Model, dim4_rational: Model, sl2_standard: Model):
    diag = ly.Matrix(((fr(-1), fr(0), fr(0)), (fr(0), fr(0), fr(0)), (fr(0), fr(0), fr(0))))
    return [dim2, dim4, dim4_rational, sl2_standard,
            _sl2_lift(ly.Matrix.zero(3, 3)), _sl2_lift(diag)]


def _random_wedge(rng, dim: int) -> ly.Wedge2:
    return ly.Wedge2.from_flat(dim, [random_fraction(rng, 3, 2) if rng.random() < 0.6 else 0
                                     for _ in ly.wedge_basis(dim)])


# wedge elements of the dim-4 algebra over 5 and 7, coprime to the integer
# scale q of `dim4_rational`'s representation
WEDGES_OVER_5_AND_7 = (ly.Wedge2.from_dict(4, {(0, 1): fr(1, 5), (2, 3): fr(2, 7)}),
                       ly.Wedge2.from_dict(4, {(0, 2): fr(2, 7), (0, 3): fr(1, 5),
                                               (1, 3): fr(-1, 5)}))


def _random_invertible(rng, n: int) -> ly.Matrix:
    while True:
        m = random_matrix(rng, n, n, 2, 2)
        try:
            ly.inverse(m)
            return m
        except ValueError:
            continue


def _outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc), getattr(exc, "violation", None)


def _assert_fractions(report: ly.AxiomReport) -> None:
    for v in report.violations:
        assert all(type(x) is Fraction for x in v.residual)


def _count_calls(monkeypatch, cls, names) -> list:
    """Record the name of each call of the methods `names` of `cls`."""
    called = []

    def spy(name: str):
        real = getattr(cls, name)

        def wrapper(self, *args):
            called.append(name)
            return real(self, *args)
        return wrapper

    for name in names:
        monkeypatch.setattr(cls, name, spy(name))
    return called


def _off_axioms_operator() -> ly.RelRBO:
    """An operator on the adjoint-shaped action of an algebra that fails
    `check_lya`; there D(X) is not <X, .>."""
    def vec(*xs):
        return tuple(fr(x) for x in xs)
    a = ly.LYAlgebra(3, binary={(0, 2): vec(1, -1, 1), (1, 2): vec(1, -1, -1)},
                     ternary={(0, 1, 0): vec(1, 0, 1), (0, 1, 2): vec(-1, 1, 0),
                              (0, 2, 2): vec(-1, -1, 1), (1, 2, 1): vec(1, -1, 0)})
    rng = range(3)
    r = ly.Representation(a, 3, [ly.Matrix.from_columns([a.bracket_basis(i, k) for k in rng], rows=3)
                                 for i in rng],
                          [[ly.Matrix.from_columns([a.triple_basis(k, i, j) for k in rng], rows=3)
                            for j in rng] for i in rng])
    return ly.RelRBO.build(a, r, ly.Matrix([[1, 0, -1], [0, 0, 0], [0, 0, 0]]))


class TestAgainstReference:
    """Every check must report exactly what its reference reports: the same
    violations in the same order, with the same args and residuals."""

    def test_nijenhuis_operators(self, models, dim2: Model, dim4_rational: Model,
                                 sl2_standard: Model):
        rng = random.Random(53)
        cases = []
        for m in models:
            a = m.algebra
            n = a.dim
            cases += [(a, ly.Matrix.zero(n, n)), (a, ly.Matrix.identity(n).scale(fr(-3, 2)))]
            cases += [(a, random_matrix(rng, n, n, 2, 2)) for _ in range(3)]
        for m in (dim2, sl2_standard):
            sd = ly.semidirect(m.algebra, m.rep)
            lift = ly.lift_to_nijenhuis(m.op)
            cases += [(sd, lift), (sd, lift + random_matrix(rng, sd.dim, sd.dim, 1, 1))]
        # operators over 5 and 7, coprime to the integer scale q of `dim4_rational`
        a = dim4_rational.algebra
        cases += [(a, random_matrix(rng, 4, 4, 3, 1).scale(fr(1, p))) for p in (5, 7)]
        cases.append((a, ly.Matrix.identity(4).scale(fr(2, 35))))
        # the semidirect sum of sl2 + sl2 with its lift, and the lift with one more entry
        o = sl2_sum_operator(2)
        sd = ly.semidirect(o.algebra, o.rep)
        lift = ly.lift_to_nijenhuis(o)
        nudge = [[fr(0)] * sd.dim for _ in range(sd.dim)]
        nudge[0][7] = fr(1, 5)
        cases += [(sd, lift), (sd, lift + ly.Matrix(nudge))]
        invalid = 0
        for a, n in cases:
            report = ly.nijenhuis_operator_check(a, n)
            assert report == ref.nijenhuis_operator_check(a, n)
            _assert_fractions(report)
            invalid += not report.valid
            got, want = _outcome(ly.deformed_brackets, a, n), _outcome(ref.deformed_brackets, a, n)
            assert got == want
            if isinstance(got, ly.LYAlgebra):
                assert got.basis_names == want.basis_names
        assert 10 < invalid < len(cases)
        with pytest.raises(ValueError, match="operator must be 2x2"):
            ly.nijenhuis_operator_check(dim2.algebra, ly.Matrix.zero(3, 3))

    def test_homomorphisms_and_conjugation(self, models, dim2: Model, dim4: Model,
                                           dim4_rational: Model):
        rng = random.Random(59)
        # rho vanishes, so a map of the module can fail mu before rho
        z = ly.Matrix.zero(2, 2)
        mu_only = ly.Representation(dim2.algebra, 2, [z, z],
                                    [[dim2.rep.mu(i, j) for j in range(2)] for i in range(2)])
        ops = [m.op for m in models] + [ly.RelRBO(dim2.algebra, mu_only, z, verified=True)]
        # an automorphism of the binary bracket of dim4 that fails the ternary one
        cases = [(dim4.op, ly.Matrix(((fr(2), 0, 0, 0), (0, fr(1), 0, 0),
                                        (0, 0, fr(1), 0), (0, 0, 0, fr(2)))),
                    ly.Matrix.identity(4))]
        phi = ly.Matrix(((fr(3), fr(1)), (fr(0), fr(1))))
        cases.append((dim2.op, phi, phi))
        for o in ops:
            m, v = o.algebra.dim, o.rep.dim_v
            cases.append((o, ly.Matrix.identity(m), ly.Matrix.identity(v)))
            cases.append((o, ly.Matrix.identity(m), _random_invertible(rng, v)))
            cases.append((o, _random_invertible(rng, m), _random_invertible(rng, v)))
            cases.append((o, ly.Matrix.identity(m), ly.Matrix.zero(v, v)))
        # maps over 5 and 7 on dim4_rational, whose q is coprime to 35: random
        # ones, and the automorphism diag(1, 1/5, 2/7, 1/5) of the dim4 brackets
        # and module, written in dim4_rational's bases
        o = dim4_rational.op
        cases += [(o, random_matrix(rng, 4, 4, 3, 1).scale(fr(1, 5)),
                   random_matrix(rng, 4, 4, 3, 1).scale(fr(1, 7))) for _ in range(2)]
        auto = ly.Matrix(((fr(1), 0, 0, 0), (0, fr(1, 5), 0, 0),
                          (0, 0, fr(2, 7), 0), (0, 0, 0, fr(1, 5))))
        cases.append((o, ly.inverse(DIM4_P) @ auto @ DIM4_P, ly.inverse(DIM4_Q) @ auto @ DIM4_Q))
        cases.append((o, ly.inverse(DIM4_P) @ auto @ DIM4_P, ly.Matrix.identity(4).scale(fr(1, 7))))
        invalid = 0
        kinds = set()
        for o, pg, pv in cases:
            moved = _outcome(ly.conjugate_rbo, o, pg, pv)
            if isinstance(moved, ly.RelRBO):   # returned verified with no check_rbo of its own
                assert ly.check_rbo(moved.algebra, moved.rep, moved.t_matrix).valid
            assert moved == _outcome(ref.conjugate_rbo, o, pg, pv)
            kinds.add(type(moved) if isinstance(moved, ly.RelRBO) else moved[0])
            targets = [o] + ([moved] if isinstance(moved, ly.RelRBO) else [])
            for o2 in targets:
                report = ly.rbo_homomorphism_check(o, o2, pg, pv)
                assert report == ref.rbo_homomorphism_check(o, o2, pg, pv)
                _assert_fractions(report)
                invalid += not report.valid
        assert kinds == {ly.RelRBO, ly.NotAutomorphism, ly.NotIntertwining, ValueError}
        assert invalid > len(cases) // 2

    def test_nijenhuis_elements(self, models, dim2: Model, dim4_rational: Model):
        rng = random.Random(61)
        a, r = dim2.algebra, dim2.rep
        # the adjoint action written out, and one that differs from it in mu only
        written = ly.Representation(a, 2, [r.rho(i) for i in range(2)],
                                    [[r.mu(i, j) for j in range(2)] for i in range(2)])
        other = ly.Representation(a, 2, [r.rho(i) for i in range(2)],
                                  [[r.mu(i, j).scale(fr(2)) for j in range(2)] for i in range(2)])
        ops = [m.op for m in models] + [
            ly.RelRBO(a, rep, dim2.op.t_matrix, verified=True) for rep in (written, other)]
        cases = []
        for o in ops:
            dim = o.algebra.dim
            elements = [ly.Wedge2.zero(dim), ly.Wedge2.basis(dim, 0, 1)]
            elements += [_random_wedge(rng, dim) for _ in range(4)]
            cases += [(o, x) for x in elements]
        cases += [(dim4_rational.op, x) for x in WEDGES_OVER_5_AND_7]
        sl2_sum = sl2_sum_operator(2)
        cases += [(sl2_sum, _random_wedge(rng, 6)) for _ in range(3)]
        off = _off_axioms_operator()
        assert not ly.check_lya(off.algebra).valid
        cases.append((off, ly.Wedge2.from_dict(3, {(0, 1): 1, (1, 2): fr(1, 2)})))
        failing = plain = total = 0
        for o, x in cases:
            total += 1
            report = ly.nijenhuis_element_check(o, x)
            assert report == ref.nijenhuis_element_check(o, x)
            for _, rep in report.conditions + (report.plain_conditions or ()):
                _assert_fractions(rep)
            failing += not report.is_nijenhuis
            plain += report.plain_conditions is not None
        # on the dim2 and dim4 examples every wedge element passes
        assert failing > 12
        assert 0 < plain < total
        # the last case is off the axioms: the reduced closing condition, reading <X, .> for D(X), differs
        closings = [dict(conds)["closing"] for conds in (report.conditions, report.plain_conditions)]
        assert closings[0] != closings[1]

    def test_equivalences(self, models, dim4_rational: Model):
        rng = random.Random(67)
        failing = 0

        def zero(o: ly.RelRBO) -> ly.TruncatedDeformation:
            return ly.TruncatedDeformation((o.t_matrix, ly.Matrix.zero(o.t_matrix.rows,
                                                                       o.t_matrix.cols)))

        def compare(o: ly.RelRBO, first, second, x: ly.Wedge2) -> ly.AxiomReport:
            report = ly.equivalence_check_linear(o, first, second, x)
            assert report == ref.equivalence_check_linear(o, first, second, x)
            _assert_fractions(report)
            return report

        def compare_directions(o: ly.RelRBO, x: ly.Wedge2, direction: ly.Matrix) -> None:
            nonlocal failing
            d1 = ly.TruncatedDeformation((o.t_matrix, direction))
            for first, second in ((zero(o), d1), (d1, zero(o)), (zero(o), zero(o))):
                failing += not compare(o, first, second, x).valid

        def compare_trivial(o: ly.RelRBO, x: ly.Wedge2) -> None:
            delta = ly.TruncatedDeformation((o.t_matrix, ly.rbo_delta0(o, x).as_matrix()))
            compare(o, zero(o), delta, x)

        for m in models:
            o = m.op
            shape = (o.t_matrix.rows, o.t_matrix.cols)
            for _ in range(3):
                x = _random_wedge(rng, o.algebra.dim)
                compare_directions(o, x, random_matrix(rng, *shape, 2, 2))
            compare_trivial(o, m.x)
        # over 5 and 7 on dim4_rational, whose q is coprime to 35; T + t delta(X)
        # is a deformation equivalent to T, as every wedge element of dim4 is a
        # Nijenhuis element
        o = dim4_rational.op
        for x in WEDGES_OVER_5_AND_7:
            compare_directions(o, x, random_matrix(rng, 4, 4, 3, 1).scale(fr(1, 7)))
            compare_trivial(o, x)
            delta = ly.TruncatedDeformation((o.t_matrix, ly.rbo_delta0(o, x).as_matrix()))
            assert ly.equivalence_check_linear(o, zero(o), delta, x).valid
        sl2_sum = sl2_sum_operator(2)
        for _ in range(3):
            compare_directions(sl2_sum, _random_wedge(rng, 6), random_matrix(rng, 6, 6, 2, 2))
        assert failing > 20

    def test_wedge_of_another_dimension(self, dim2: Model):
        """The expansion takes <X, .> and D(X) as matrices, so the callers
        reject a wedge element of another dimension themselves."""
        o = dim2.op
        zero = ly.TruncatedDeformation((o.t_matrix, ly.Matrix.zero(2, 2)))
        want = (ValueError, "wedge element and algebra dimensions differ", None)
        for x in (ly.Wedge2.basis(3, 0, 1), ly.Wedge2.zero(1)):
            assert _outcome(ly.nijenhuis_element_check, o, x) == want
            assert _outcome(ref.nijenhuis_element_check, o, x) == want
            assert _outcome(ly.equivalence_check_linear, o, zero, zero, x) == want
            assert _outcome(ref.equivalence_check_linear, o, zero, zero, x) == want


def test_homomorphism_checks_read_only_the_integer_tables(dim2: Model, sl2_standard: Model,
                                                          monkeypatch):
    """The homomorphism, conjugation, equivalence and Nijenhuis element checks
    evaluate on `Representation.tables()`: none builds rho(x), mu(x, y) or
    D(x, y) of a vector as a `Fraction` matrix."""
    called = _count_calls(monkeypatch, ly.Representation, ("rho_of", "mu_of", "d_of"))
    rng = random.Random(73)
    for m in (dim2, sl2_standard):   # adjoint, and written out
        o = m.op
        n, v = o.algebra.dim, o.rep.dim_v
        other = ly.RelRBO(m.algebra, m.rep, random_matrix(rng, n, v, 2, 2), verified=True)
        for pg, pv in ((ly.Matrix.identity(n), ly.Matrix.identity(v)),
                       (_random_invertible(rng, n), _random_invertible(rng, v))):
            assert ly.rbo_homomorphism_check(o, other, pg, pv).violations
            _outcome(ly.conjugate_rbo, o, pg, pv)
        zero = ly.TruncatedDeformation((o.t_matrix, ly.Matrix.zero(n, v)))
        linear = ly.TruncatedDeformation((o.t_matrix, random_matrix(rng, n, v, 2, 2)))
        for x in (m.x, _random_wedge(rng, n)):
            assert not ly.equivalence_check_linear(o, zero, linear, x).valid
            ly.nijenhuis_element_check(o, x)
    assert called == []


def test_nijenhuis_operator_checks_read_only_the_integer_tables(dim2: Model,
                                                                dim4_rational: Model,
                                                                monkeypatch):
    """`nijenhuis_operator_check` and `deformed_brackets` evaluate no bracket
    of vectors: they read the homomorphism expansion of Id + tN."""
    rng = random.Random(79)
    o = sl2_sum_operator(1)
    cases = [(ly.semidirect(m.algebra, m.rep), ly.lift_to_nijenhuis(m))
             for m in (dim2.op, o)]
    a = dim4_rational.algebra
    cases += [(a, random_matrix(rng, 4, 4, 2, 2)), (a, ly.Matrix.identity(4).scale(fr(3, 5)))]
    called = _count_calls(monkeypatch, ly.LYAlgebra, ("bracket", "triple"))
    valid = [ly.nijenhuis_operator_check(a, n).valid for a, n in cases]
    for a, n in cases[:2] + cases[3:]:
        ly.deformed_brackets(a, n)
    assert valid == [True, True, False, True]
    assert called == []


def test_nijenhuis_elements_bracket_only_to_build_the_action(models, monkeypatch):
    """`nijenhuis_element_check` never calls `Wedge2.bracket_with`: the
    matrix of <X, .> is one evaluation of the algebra's table with X in its
    first two slots, and delta(X) and the closing conditions are products of
    matrices."""
    rng = random.Random(83)
    called = _count_calls(monkeypatch, ly.Wedge2, ("bracket_with",))
    for m in models:
        for x in (m.x, _random_wedge(rng, m.algebra.dim)):
            ly.nijenhuis_element_check(m.op, x)
    assert called == []


def test_every_reported_identity_names_its_spaces(models):
    """Each label a check reports on failing input has an entry in the
    identity table, whose spaces fit the violation's args and residual; and
    every entry is reported by some check."""
    rng = random.Random(71)
    seen = set()

    def record(report: ly.AxiomReport, dim_g: int, dim_v: int = 0) -> None:
        dims = {"g": dim_g, "v": dim_v}
        for v in report.violations:
            assert len(v.arg_spaces) == len(v.args), v.identity
            assert all(i < dims[space] for space, i in zip(v.arg_spaces, v.args)), v.identity
            assert len(v.residual) == dims[v.residual_space], v.identity
            seen.add(v.identity.split("@")[0])

    def vec(n):
        return [random_fraction(rng, 2, 1) for _ in range(n)]

    for _ in range(3):
        a = ly.LYAlgebra(3, binary={(i, j): vec(3) for i, j in ly.wedge_basis(3)},
                         ternary={(0, 1, k): vec(3) for k in range(3)})
        record(ly.check_lya(a), 3)
    r = ly.Representation(a, 2, [random_matrix(rng, 2, 2, 2, 1) for _ in range(3)],
                          [[random_matrix(rng, 2, 2, 2, 1) for _ in range(3)] for _ in range(3)])
    record(ly.check_representation(r), 3, 2)
    for m in models:
        o, a, r = m.op, m.algebra, m.rep
        n, v = a.dim, r.dim_v
        record(ly.nijenhuis_operator_check(a, random_matrix(rng, n, n, 2, 2)), n)
        record(ly.check_rbo(a, r, random_matrix(rng, n, v, 2, 2)), n, v)
        other = ly.RelRBO(a, r, random_matrix(rng, n, v, 2, 2), verified=True)
        record(ly.rbo_homomorphism_check(o, other, random_matrix(rng, n, n, 2, 2),
                                         random_matrix(rng, v, v, 2, 2)), n, v)
        direction = random_matrix(rng, n, v, 2, 2)
        record(ly.linear_deformation_check(o, direction), n, v)
        zero = ly.TruncatedDeformation((o.t_matrix, ly.Matrix.zero(n, v)))
        linear = ly.TruncatedDeformation((o.t_matrix, direction))
        record(ly.equivalence_check_linear(o, zero, linear, _random_wedge(rng, n)), n, v)
        nrep = ly.nijenhuis_element_check(o, ly.Wedge2.basis(n, 0, 1))
        for _, report in nrep.conditions:
            record(report, n, v)
    assert seen == set(structures._SPACES)


def _module_over_3_5_7() -> ly.RelRBO:
    """The sl2 lift's operator with the module written in a basis over 3, 5 and 7:
    the algebra keeps q = 1, while the representation's q is 1575."""
    o = sl2_sum_operator(1)
    q = ly.Matrix(((fr(1), fr(1, 5), fr(0)), (fr(0), fr(2, 7), fr(0)), (fr(1, 3), fr(0), fr(1))))
    a, r = transport(o.algebra, o.rep, ly.Matrix.identity(3), q)
    return ly.RelRBO.build(a, r, o.t_matrix @ q)


class TestIntegerColumns:
    """The operator checks hold every map as integer columns over one scale:
    T, deformation terms and phi scaled from the caller's matrices, identities
    as unit columns, <X, .> and D(X) read off the representation's tables.
    Their reports equal the references exactly, on the fixtures, the sl2^k
    lifts, seeded wedges with denominators, seeded map pairs, and a
    representation whose q exceeds its algebra's."""

    @pytest.fixture(scope="class")
    def operators(self, dim2: Model, dim4: Model, dim4_rational: Model, sl2_standard: Model):
        ops = [m.op for m in (dim2, dim4, dim4_rational, sl2_standard)]
        ops += [sl2_sum_operator(k) for k in (1, 2, 3)] + [_module_over_3_5_7()]
        assert ops[-1].rep.tables().q > ops[-1].algebra._tables[0] == 1
        assert ops[2].rep.tables().q > ops[2].algebra._tables[0] > 1
        return ops

    @staticmethod
    def _wedges(rng, o: ly.RelRBO) -> list:
        m = o.algebra.dim
        basis = [ly.Wedge2.basis(m, i, j) for i, j in ly.wedge_basis(m)]
        seeded = [ly.Wedge2.from_flat(m, [random_fraction(rng, 3, 6) if rng.random() < 0.5 else 0
                                          for _ in ly.wedge_basis(m)]) for _ in range(2)]
        return (basis if m <= 4 else rng.sample(basis, 4 if m <= 6 else 2)) + seeded[:1 + (m <= 6)]

    def test_nijenhuis_elements_and_equivalences(self, operators):
        rng = random.Random(97)
        denominators = set()
        for o in operators:
            m, v = o.algebra.dim, o.rep.dim_v
            zero = ly.TruncatedDeformation((o.t_matrix, ly.Matrix.zero(m, v)))
            for x in self._wedges(rng, o):
                denominators.update(c.denominator for *_, c in x.entries)
                report = ly.nijenhuis_element_check(o, x)
                assert report == ref.nijenhuis_element_check(o, x)
                delta = ly.TruncatedDeformation((o.t_matrix, ly.rbo_delta0(o, x).as_matrix(m)))
                linear = ly.TruncatedDeformation((o.t_matrix, random_matrix(rng, m, v, 2, 3)))
                for d1, d2 in ((zero, delta), (linear, zero), (delta, linear))[:3 if m <= 6 else 1]:
                    got = ly.equivalence_check_linear(o, d1, d2, x)
                    assert got == ref.equivalence_check_linear(o, d1, d2, x)
                    _assert_fractions(got)
        assert denominators - {1}

    def test_homomorphisms_and_conjugation(self, operators):
        rng = random.Random(101)
        for o in operators:
            m, v = o.algebra.dim, o.rep.dim_v
            other = ly.RelRBO(o.algebra, o.rep, random_matrix(rng, m, v, 2, 3), verified=True)
            pairs = [(ly.Matrix.identity(m), ly.Matrix.identity(v)),
                     (_random_invertible(rng, m).scale(fr(1, 3)), _random_invertible(rng, v)),
                     (ly.Matrix.identity(m), ly.Matrix.identity(v).scale(fr(2, 5)))]
            for pg, pv in pairs:
                assert _outcome(ly.conjugate_rbo, o, pg, pv) == _outcome(ref.conjugate_rbo, o, pg, pv)
                for o2 in (o, other):
                    report = ly.rbo_homomorphism_check(o, o2, pg, pv)
                    assert report == ref.rbo_homomorphism_check(o, o2, pg, pv)
                    _assert_fractions(report)

    def test_pre_ly_products_and_deformation_terms(self, operators):
        rng = random.Random(103)
        for o in operators:
            m, v = o.algebra.dim, o.rep.dim_v
            assert ly.pre_ly_products(o) == refd.pre_ly_products(o)
            if m > 6:   # the reference's linear check takes seconds here
                continue
            for x in self._wedges(rng, o)[-2:]:
                frak = ly.rbo_delta0(o, x).as_matrix(m)
                for direction in (frak, frak.scale(fr(1, 7)), random_matrix(rng, m, v, 2, 3)):
                    assert _outcome(ly.pre_ly_deformation_terms, o, direction) == \
                        _outcome(refd.pre_ly_deformation_terms, o, direction)

    def test_semidirect_sums_and_their_nijenhuis_lifts(self, operators):
        rng = random.Random(107)
        for o in operators:
            sd = ly.semidirect(o.algebra, o.rep)
            assert sd == refs.semidirect(o.algebra, o.rep)
            if sd.dim > 8:   # the reference takes seconds there
                continue
            lift = ly.lift_to_nijenhuis(o)
            nudge = lift + random_matrix(rng, sd.dim, sd.dim, 1, 2).scale(fr(1, 5))
            for n in (lift, nudge):
                assert ly.nijenhuis_operator_check(sd, n) == ref.nijenhuis_operator_check(sd, n)
                assert _outcome(ly.deformed_brackets, sd, n) == _outcome(ref.deformed_brackets, sd, n)


def test_operator_checks_build_no_matrix(dim4_rational: Model, monkeypatch):
    """The Nijenhuis element, equivalence, homomorphism and pre-Lie-Yamaguti
    checks construct no `Matrix`: their caller's matrices enter as integer
    columns, and everything they derive stays in integers."""
    rng = random.Random(109)
    calls = []
    for o in (dim4_rational.op, sl2_sum_operator(2), _module_over_3_5_7()):
        m, v = o.algebra.dim, o.rep.dim_v
        x = ly.Wedge2.from_flat(m, [random_fraction(rng, 3, 4) for _ in ly.wedge_basis(m)])
        zero = ly.TruncatedDeformation((o.t_matrix, ly.Matrix.zero(m, v)))
        frak = ly.rbo_delta0(o, ly.Wedge2.basis(m, 0, 1)).as_matrix(m)
        linear = ly.TruncatedDeformation((o.t_matrix, frak))
        other = ly.RelRBO(o.algebra, o.rep, random_matrix(rng, m, v, 2, 3), verified=True)
        pg, pv = _random_invertible(rng, m), _random_invertible(rng, v)
        calls += [(ly.nijenhuis_element_check, o, x), (ly.equivalence_check_linear, o, zero, linear, x),
                  (ly.rbo_homomorphism_check, o, other, pg, pv), (ly.pre_ly_products, o),
                  (ly.pre_ly_deformation_terms, o, frak)]
    built = []
    init = ly.Matrix.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ly.Matrix, "__init__", spy)
    for fn, *args in calls:
        fn(*args)
    assert built == []
    ly.Matrix.identity(1)
    assert len(built) == 1


def test_degree_one_scales_the_operator_once(dim4_rational: Model, monkeypatch):
    """delta^0 of every basis wedge reads the operator's one scaling of T:
    building the complex and `rbo_cohomology_dims` at degree 1 call
    `_term_tables` once between them, not once per wedge or per step."""
    from lieyamaguti import rbo
    scaled = []
    real = rbo._term_tables

    def spy(terms):
        scaled.append(len(terms))
        return real(terms)

    for o in (dim4_rational.op, sl2_sum_operator(2)):
        # a new operator object keeps nothing yet
        o = ly.RelRBO(o.algebra, o.rep, o.t_matrix, verified=True)
        monkeypatch.setattr(rbo, "_term_tables", spy)
        ly.rbo_cohomology_dims(ly.RboComplex.build(o), 1)
        monkeypatch.undo()
        assert scaled == [1]
        scaled.clear()
