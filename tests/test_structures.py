"""Algebras, representations, semidirect sums and Nijenhuis operators."""

import itertools
import random
from fractions import Fraction

import pytest

import lieyamaguti as ly
import reference_structures as ref
from conftest import (
    DIM4_P,
    DIM4_Q,
    LIE_FAMILIES,
    Model,
    conjugated_lie_lya,
    corrupt_rep,
    dim4_operator,
    fr,
    random_fraction,
    random_invertible,
    random_matrix,
    random_valid_pair,
    sl2_sum_operator,
    transport,
)
from lieyamaguti import structures


class TestLYAlgebra:
    def test_fixtures_are_valid(self, dim2: Model, dim4: Model):
        assert ly.check_lya(dim2.algebra).valid
        assert ly.check_lya(dim4.algebra).valid

    def test_broken_algebra_witness(self, broken_algebra):
        report = ly.check_lya(broken_algebra)
        assert not report.valid
        first = report.first()
        assert first.identity == "binary-derivation"
        assert first.args == (0, 1, 0, 1)
        assert first.residual == (fr(-1), fr(0))
        assert len(report.violations) == 8

    def test_skew_extension_of_constants(self, dim2: Model):
        a = dim2.algebra
        e1, e2 = a.basis(0), a.basis(1)
        assert a.bracket(e1, e2) == (fr(1), fr(0))
        assert a.bracket(e2, e1) == (fr(-1), fr(0))
        assert a.bracket_basis(1, 0) == (fr(-1), fr(0))
        assert a.triple(e2, e1, e2) == (fr(-1), fr(0))
        assert a.triple_basis(0, 0, 1) == (fr(0), fr(0))
        assert a.basis_names == ("e1", "e2")

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="i < j"):
            ly.LYAlgebra(2, binary={(1, 0): (fr(1), fr(0))})
        with pytest.raises(ValueError, match="i < j"):
            ly.LYAlgebra(2, ternary={(1, 0, 0): (fr(1), fr(0))})
        with pytest.raises(ValueError, match="length"):
            ly.LYAlgebra(2, binary={(0, 1): (fr(1),)})
        with pytest.raises(ValueError, match="out of range"):
            ly.LYAlgebra(2, binary={(0, 5): (fr(1), fr(0))})

    def test_dimension_zero(self):
        # the sub-adjacent algebra of an operator on a zero module
        assert ly.check_lya(ly.LYAlgebra(0)).valid
        with pytest.raises(ValueError, match="nonnegative"):
            ly.LYAlgebra(-1)

    def test_zero_values_dropped(self):
        a = ly.LYAlgebra(2, binary={(0, 1): (fr(0), fr(0))})
        assert a.binary_constants() == {}


class TestLyaFromLie:
    def test_lifts_all_families(self):
        rng = random.Random(7)
        for family in sorted(LIE_FAMILIES):
            for _ in range(3):
                a = conjugated_lie_lya(rng, family)
                assert ly.check_lya(a).valid, family

    def test_non_jacobi_bracket_rejected(self):
        bad = {(0, 1): (fr(0), fr(0), fr(1)),
               (1, 2): (fr(1), fr(0), fr(0)),
               (0, 2): (fr(-1), fr(0), fr(0))}
        with pytest.raises(ly.JacobiViolation) as info:
            ly.lya_from_lie(3, bad)
        assert info.value.triple == (0, 1, 2)
        assert info.value.residual == (fr(0), fr(0), fr(1))

    def test_ternary_is_nested_bracket(self):
        rng = random.Random(11)
        a = conjugated_lie_lya(rng, "sl2")
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    nested = a.bracket(a.bracket_basis(i, j), a.basis(k))
                    assert a.triple_basis(i, j, k) == nested


class TestAdjointRep:
    def test_matrices_on_small_fixture(self, dim2: Model):
        r = dim2.rep
        assert r.rho(0).entries == ((fr(0), fr(1)), (fr(0), fr(0)))
        assert r.rho(1).entries == ((fr(-1), fr(0)), (fr(0), fr(0)))
        assert r.mu(0, 1).entries == ((fr(0), fr(-1)), (fr(0), fr(0)))
        assert r.mu(1, 0).is_zero()
        assert r.mu(1, 1).entries == ((fr(1), fr(0)), (fr(0), fr(0)))
        assert r.d_basis(0, 1).entries == ((fr(0), fr(1)), (fr(0), fr(0)))

    def test_d_variants_agree(self, dim2: Model):
        r = dim2.rep
        e1, e2 = dim2.algebra.basis(0), dim2.algebra.basis(1)
        assert r.d_of(e1, e2) == r.d_basis(0, 1)
        assert r.d_of(e2, e1) == r.d_basis(0, 1).scale(fr(-1))

    def test_d_basis_is_its_formula_at_every_ordered_pair(self, sl2_standard: Model):
        # D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y]) on a
        # written-out, non-adjoint representation and on the same rho with
        # seeded mu (valid or not, D is defined), asked in both pair orders
        rng = random.Random(29)
        r = sl2_standard.rep
        a, n = r.algebra, r.algebra.dim
        rho = [r.rho(i) for i in range(n)]
        mu = [[random_matrix(rng, 2, 2) for _ in range(n)] for _ in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n)]
        for rep, order in ((r, pairs), (ly.Representation(a, 2, rho, mu), pairs[::-1])):
            for i, j in order:
                expected = (rep.mu(j, i) - rep.mu(i, j) + ly.commutator(rep.rho(i), rep.rho(j))
                            - rep.rho_of(a.bracket_basis(i, j)))
                assert rep.d_basis(i, j) == expected

    def test_tables_equal_the_written_out_construction(self, dim2: Model, dim4: Model,
                                                        dim4_rational: Model, sl2_standard: Model):
        # adjoint_rep hands the algebra's own integer tables to the builder;
        # they must equal, q included, what the public constructor scales
        # from the written-out Fraction matrices rho(x) = [x, .], mu(x, y) = <., x, y>
        rng = random.Random(97)
        algebras = [m.algebra for m in (dim2, dim4, dim4_rational, sl2_standard)]
        algebras += [conjugated_lie_lya(rng, f) for f in sorted(LIE_FAMILIES) for _ in range(3)]
        scales = []
        for a in algebras:
            n = range(a.dim)
            rho = [ly.Matrix.from_columns([a.bracket_basis(i, k) for k in n], rows=a.dim) for i in n]
            mu = [[ly.Matrix.from_columns([a.triple_basis(k, i, j) for k in n], rows=a.dim)
                   for j in n] for i in n]
            written, r = ly.Representation(a, a.dim, rho, mu), ly.adjoint_rep(a)
            assert r.tables() == written.tables()
            assert r == written and hash(r) == hash(written)
            scales.append(r.tables().q)
        assert sum(q > 1 for q in scales) >= 5

    def test_valid_on_fixtures(self, dim2: Model, dim4: Model):
        assert ly.check_representation(dim2.rep).valid
        assert ly.check_representation(dim4.rep).valid

    def test_rejects_invalid_algebra(self, broken_algebra):
        with pytest.raises(ly.InvalidAlgebra, match="binary-derivation"):
            ly.adjoint_rep(broken_algebra)

    def test_adjoint_of_a_valid_algebra_is_valid(self, dim2: Model, dim4: Model,
                                                 dim4_rational: Model, sl2_standard: Model):
        # the theorem behind `lyat` building an adjoint representation
        # without `check_representation`: a seeded sweep of valid algebras
        rng = random.Random(47)
        algebras = [m.algebra for m in (dim2, dim4, dim4_rational, sl2_standard)]
        algebras += [ly.lya_from_lie(dim, {k: tuple(fr(c) for c in v) for k, v in consts.items()})
                     for dim, consts in LIE_FAMILIES.values()]
        for family in ("sl2", "heisenberg", "affine2"):
            algebras += [conjugated_lie_lya(rng, family) for _ in range(4)]
        for a in list(algebras):   # the same algebras in seeded integer bases
            p = random_invertible(rng, a.dim)
            algebras.append(transport(a, ly.zero_rep(a, 0), p, ly.Matrix([], cols=0))[0])
        assert len(algebras) == 42
        for a in algebras:
            assert ly.check_lya(a).valid
            assert ly.check_representation(ly.adjoint_rep(a)).valid

    def test_linearity_of_rho_and_mu(self, dim2: Model):
        r = dim2.rep
        x = (fr(2), fr(-3))
        y = (fr(1), fr(1, 2))
        expected = r.rho(0).scale(x[0]) + r.rho(1).scale(x[1])
        assert r.rho_of(x) == expected
        mixed = r.mu_of(x, y)
        by_parts = ly.Matrix.zero(2, 2)
        for i in range(2):
            for j in range(2):
                by_parts = by_parts + r.mu(i, j).scale(x[i] * y[j])
        assert mixed == by_parts


class TestCheckRepresentation:
    def test_bad_rep_witness(self, bad_rep):
        report = ly.check_representation(bad_rep)
        assert not report.valid
        first = report.first()
        assert first.identity == "mu-bracket-right"
        assert first.args == (1, 0, 1, 1)
        assert first.residual == (fr(-1), fr(0))
        assert len(report.violations) == 8

    def test_zero_rep_valid(self, dim2: Model):
        for k in (1, 3):
            assert ly.check_representation(ly.zero_rep(dim2.algebra, k)).valid

    def test_zero_rep_tables_equal_the_written_out_construction(self, dim2: Model,
                                                                dim4_rational: Model):
        for a in (dim2.algebra, dim4_rational.algebra):
            for k in range(3):
                z = ly.Matrix.zero(k, k)
                written = ly.Representation(a, k, [z] * a.dim, [[z] * a.dim for _ in range(a.dim)])
                assert ly.zero_rep(a, k).tables() == written.tables()
                assert ly.zero_rep(a, k) == written
        assert dim4_rational.rep.tables().q > 1
        with pytest.raises(ValueError, match="nonnegative"):
            ly.zero_rep(dim2.algebra, -1)

    def test_random_corruptions_mostly_caught(self):
        rng = random.Random(23)
        caught = 0
        for _ in range(20):
            a, r = random_valid_pair(rng)
            assert ly.check_representation(r).valid
            if not ly.check_representation(corrupt_rep(rng, r)).valid:
                caught += 1
        assert caught >= 10


class TestSemidirect:
    def test_shape_and_names(self, dim2: Model):
        sd = ly.semidirect(dim2.algebra, dim2.rep)
        assert sd.dim == 4
        assert sd.basis_names == ("e1", "e2", "u1", "u2")

    def test_valid_iff_representation_valid(self, dim2: Model, bad_rep):
        assert ly.check_lya(ly.semidirect(dim2.algebra, dim2.rep)).valid
        assert not ly.check_lya(ly.semidirect(dim2.algebra, bad_rep)).valid

    def test_subalgebra_and_action(self, dim2: Model):
        a, r = dim2.algebra, dim2.rep
        sd = ly.semidirect(a, r)
        # g x g block reproduces the original bracket
        assert sd.bracket_basis(0, 1)[:2] == a.bracket_basis(0, 1)
        assert sd.bracket_basis(0, 1)[2:] == (fr(0), fr(0))
        # g acting on V is rho
        assert sd.bracket_basis(0, 3)[2:] == tuple(r.rho(0).column(1))
        # V x V brackets vanish
        assert sd.bracket_basis(2, 3) == (fr(0),) * 4


class TestNijenhuisOperators:
    def test_identity_and_projection(self, dim2: Model):
        a = dim2.algebra
        assert ly.nijenhuis_operator_check(a, ly.Matrix.identity(2)).valid
        proj = ly.Matrix(((fr(0), fr(0)), (fr(0), fr(1))))
        assert ly.nijenhuis_operator_check(a, proj).valid
        deformed = ly.deformed_brackets(a, proj)
        assert deformed.binary_constants() == {(0, 1): (fr(1), fr(0))}
        assert deformed.ternary_constants() == {(0, 1, 1): (fr(1), fr(0))}

    def test_failing_operator(self, dim4: Model):
        n = ly.Matrix(((fr(-1), fr(2), fr(-2), fr(0)),
                       (fr(-2), fr(1), fr(1), fr(1)),
                       (fr(1), fr(-1), fr(-2), fr(1)),
                       (fr(-2), fr(1), fr(1), fr(2))))
        report = ly.nijenhuis_operator_check(dim4.algebra, n)
        assert not report.valid
        first = report.first()
        assert first.identity == "nijenhuis-binary"
        assert first.args == (0, 1)
        assert first.residual == (fr(0), fr(8), fr(-2), fr(18))
        with pytest.raises(ly.NotNijenhuis):
            ly.deformed_brackets(dim4.algebra, n)

    def test_shape_check(self, dim2: Model):
        with pytest.raises(ValueError):
            ly.nijenhuis_operator_check(dim2.algebra, ly.Matrix.identity(3))

    def test_deformed_brackets_are_valid_and_n_is_a_homomorphism(
            self, dim2: Model, dim4: Model):
        cases = [(dim2.algebra, ly.Matrix(((fr(0), fr(0)), (fr(0), fr(1)))))]
        cases += [(ly.semidirect(m.algebra, m.rep), ly.lift_to_nijenhuis(m.op))
                  for m in (dim2, dim4)]
        for a, n in cases:
            deformed = ly.deformed_brackets(a, n)
            assert ly.check_lya(deformed).valid
            nb = [n.column(i) for i in range(a.dim)]
            for i in range(a.dim):
                for j in range(a.dim):
                    assert n.apply(deformed.bracket_basis(i, j)) == a.bracket(nb[i], nb[j])
                    for k in range(a.dim):
                        assert (n.apply(deformed.triple_basis(i, j, k))
                                == a.triple(nb[i], nb[j], nb[k]))


class TestReports:
    def test_report_helpers(self, broken_algebra):
        ok = ly.check_lya(ly.LYAlgebra(2))
        assert ok.valid and ok.first() is None and ok.violations == ()
        bad = ly.check_lya(broken_algebra)
        assert bad.first() == bad.violations[0]


def _assert_matches_reference(a=None, r=None):
    reports = []
    if a is not None:
        reports.append((ly.check_lya(a), ref.check_lya(a)))
    if r is not None:
        reports.append((ly.check_representation(r), ref.check_representation(r)))
    for got, want in reports:
        assert got == want
        for v in got.violations:
            assert all(type(x) is Fraction for x in v.residual)
    return [got for got, _ in reports]


class TestAgainstDenseReference:
    """The sparse integer evaluation must reproduce the dense Fraction
    evaluation of `reference_structures` exactly: the same violations in the
    same order, with the same args and the same Fraction residuals."""

    def test_fixtures_and_semidirect_sums(self, dim2: Model, dim4: Model):
        for m in (dim2, dim4):
            _assert_matches_reference(m.algebra, m.rep)
            _assert_matches_reference(ly.semidirect(m.algebra, m.rep))
            _assert_matches_reference(None, ly.zero_rep(m.algebra, 0))
            _assert_matches_reference(None, ly.zero_rep(m.algebra, 2))

    def test_semidirect_sums_equal_the_replaced_construction(
            self, dim2: Model, dim4_rational: Model, sl2_standard: Model, bad_rep):
        rng = random.Random(19)
        pairs = [(m.algebra, m.rep) for m in (dim2, dim4_rational, sl2_standard)]
        pairs += [(dim2.algebra, bad_rep), (dim2.algebra, ly.zero_rep(dim2.algebra, 0)),
                  (sl2_standard.algebra, corrupt_rep(rng, sl2_standard.rep))]
        for a, r in pairs:
            got, want = ly.semidirect(a, r), ref.semidirect(a, r)
            assert got == want and got.basis_names == want.basis_names
            assert got.binary_constants() == want.binary_constants()
            assert got.ternary_constants() == want.ternary_constants()

    def test_broken_inputs(self, dim2: Model, dim4: Model, broken_algebra, bad_rep):
        lya_report, = _assert_matches_reference(broken_algebra)
        assert len(lya_report.violations) == 8
        rep_report, = _assert_matches_reference(None, bad_rep)
        assert len(rep_report.violations) == 8
        _assert_matches_reference(ly.semidirect(dim2.algebra, bad_rep))
        rng = random.Random(17)
        for m in (dim2, dim4):
            for _ in range(3):
                bad = corrupt_rep(rng, m.rep)
                _assert_matches_reference(None, bad)

    def test_random_pairs(self):
        rng = random.Random(29)
        for _ in range(12):
            a, r = random_valid_pair(rng)
            _assert_matches_reference(a, r)
            bad = corrupt_rep(rng, r)
            _assert_matches_reference(None, bad)
            _assert_matches_reference(ly.semidirect(a, bad))

    def test_orbit_scan_reports_every_failing_representation(self, dim2: Model, dim4: Model,
                                                              sl2_standard: Model):
        # `check_representation` decides validity on one tuple per skew orbit
        # and enumerates every tuple only once one fails: one-entry corruptions
        # of valid representations fail on few tuples, and written-out random
        # ones break every identity; all must report as the reference does
        rng = random.Random(113)
        valid = [m.rep for m in (dim2, dim4, sl2_standard)]
        valid += [ly.induced_rep_on_g(m.op) for m in (dim2, dim4)]
        seen = set()
        for r in valid:
            assert _assert_matches_reference(None, r)[0].valid
            for _ in range(3):
                report, = _assert_matches_reference(None, corrupt_rep(rng, r))
                seen |= {v.identity for v in report.violations}
        for a in (dim2.algebra, dim4.algebra, sl2_sum_operator(2).algebra):
            r = ly.Representation(a, 2, [random_matrix(rng, 2, 2, 2, 2) for _ in range(a.dim)],
                                  [[random_matrix(rng, 2, 2, 2, 1) for _ in range(a.dim)]
                                   for _ in range(a.dim)])
            report, = _assert_matches_reference(None, r)
            seen |= {v.identity for v in report.violations}
        assert seen == {name for name, (args, _) in structures._SPACES.items()
                        if args in ("gggv", "ggggv")}

    def test_rational_basis_change(self, dim4_rational: Model):
        # non-unimodular rational bases put denominators into every table, so
        # the integer scale is above 1 (the bundled models all have scale 1)
        a, r = dim4_rational.algebra, dim4_rational.rep
        assert any(x.denominator > 1 for vec in a.ternary_constants().values() for x in vec)
        assert any(x.denominator > 1 for i in range(4) for j in range(4)
                   for row in r.mu(i, j).entries for x in row)
        lya_report, rep_report = _assert_matches_reference(a, r)
        assert lya_report.valid and rep_report.valid

        (i, j, k), vec = next(iter(a.ternary_constants().items()))
        ternary = dict(a.ternary_constants())
        ternary[(i, j, k)] = tuple(x + fr(1, 3) for x in vec)
        broken = ly.LYAlgebra(4, binary=a.binary_constants(), ternary=ternary)
        lya_report, = _assert_matches_reference(broken)
        assert not lya_report.valid
        assert any(x.denominator > 1 for v in lya_report.violations for x in v.residual)

        rho = [r.rho(i) for i in range(4)]
        rho[1] = rho[1] + ly.Matrix.identity(4).scale(fr(1, 7))
        bad = ly.Representation(a, 4, rho, [[r.mu(i, j) for j in range(4)] for i in range(4)])
        rep_report, = _assert_matches_reference(None, bad)
        assert not rep_report.valid
        sd_report, = _assert_matches_reference(ly.semidirect(a, bad))
        assert not sd_report.valid


@pytest.fixture(scope="module")
def algebras(dim2: Model, dim4: Model, dim4_rational: Model, sl2_standard: Model, broken_algebra):
    """Algebras from every construction: the fixtures, the lifts of the Lie
    families, conjugated lifts and the sl2^k lifts; the sub-adjacent algebras
    of the fixtures' operators, of the sl2^k ones, of seeded operators on
    dim4_rational and of rational multiples of them all; and semidirect sums
    and deformed brackets."""
    rng = random.Random(97)
    models = (dim2, dim4, dim4_rational, sl2_standard)
    out = [m.algebra for m in models] + [broken_algebra]
    out += [ly.lya_from_lie(dim, {k: tuple(map(fr, v)) for k, v in consts.items()})
            for dim, consts in LIE_FAMILIES.values()]
    out += [conjugated_lie_lya(rng, family) for family in sorted(LIE_FAMILIES) for _ in range(3)]
    ops = [m.op for m in models] + [sl2_sum_operator(k) for k in (1, 2, 3)]
    out += [o.algebra for o in ops[4:]]
    a, r = dim4_rational.algebra, dim4_rational.rep
    ops += [ly.RelRBO.build(a, r, ly.inverse(DIM4_P) @ dim4_operator(
        *(random_fraction(rng, 4, 3) for _ in range(9))) @ DIM4_Q) for _ in range(3)]
    ops += [ly.RelRBO.build(o.algebra, o.rep, o.t_matrix.scale(random_fraction(rng, 4, 5) or 1))
            for o in ops]
    out += [ly.induced_lya_on_v(o) for o in ops]
    out += [ly.semidirect(m.algebra, m.rep) for m in models]
    out += [ly.deformed_brackets(ly.semidirect(o.algebra, o.rep), ly.lift_to_nijenhuis(o))
            for o in (dim2.op, ops[4])]
    out.append(ly.deformed_brackets(a, ly.Matrix.identity(4).scale(fr(3, 5))))
    return out


class TestOneForm:
    """An algebra is held once, as its integer tables: what it stores, the
    `Fraction` views of it and its evaluations equal those of the replaced
    `Fraction` form (`reference_structures.FractionAlgebra`)."""

    @staticmethod
    def fraction_form(a: ly.LYAlgebra) -> ref.FractionAlgebra:
        return ref.FractionAlgebra(a.dim, a.binary_constants(), a.ternary_constants(),
                                   a.basis_names)

    def test_tables_equal_the_replaced_scan(self, algebras):
        """The stored tables, q included, are those the replaced scan of the
        `Fraction` constants gave, and so are the tables rescaled to a larger q."""
        for a in algebras:
            assert structures._algebra_tables(a) == ref.algebra_tables(a)
            for den in (2, 6, 35):
                assert (structures._algebra_tables(a, den)
                        == ref.algebra_tables(a, [(Fraction(1, den),)]))
        qs = [structures._algebra_tables(a)[0] for a in algebras]
        assert len(algebras) > 50 and sum(q > 1 for q in qs) >= 9

    def test_views_and_evaluations_equal_the_replaced_form(self, algebras):
        rng = random.Random(101)
        for a in algebras:
            f, idx = self.fraction_form(a), range(a.dim)
            assert [a.basis(i) for i in idx] == [f.basis(i) for i in idx]
            assert all(a.bracket_basis(i, j) == f.bracket_basis(i, j) for i in idx for j in idx)
            assert all(a.triple_basis(i, j, k) == f.triple_basis(i, j, k)
                       for i in idx for j in idx for k in idx)
            assert a.binary_constants() == f.binary_constants()
            assert a.ternary_constants() == f.ternary_constants()
            vecs = [a.basis(i) for i in idx] + [tuple(random_fraction(rng, 3, 4) for _ in idx)
                                                for _ in range(3)]
            for _ in range(6):
                u, v, w = (rng.choice(vecs) for _ in range(3))
                assert a.bracket(u, v) == f.bracket(u, v)
                assert a.triple(u, v, w) == f.triple(u, v, w)

    def test_equality_and_hash_decide_as_the_replaced_form(self, algebras):
        forms = [self.fraction_form(a) for a in algebras]
        for a in algebras:
            rebuilt = ly.LYAlgebra(a.dim, a.binary_constants(), a.ternary_constants())
            assert rebuilt == a and hash(rebuilt) == hash(a)
        equal = 0
        for (a, fa), (b, fb) in itertools.combinations(zip(algebras, forms), 2):
            assert (a == b) == (fa == fb)
            if a == b:
                equal += 1
                assert hash(a) == hash(b)
        assert equal

    def test_stored_tables_are_skew(self, algebras):
        for a in algebras:
            _, b, t = structures._algebra_tables(a)
            for i in range(a.dim):
                assert b[i][i] == [] and t[i][i] == [[]] * a.dim
                for j in range(a.dim):
                    assert b[j][i] == [(l, -x) for l, x in b[i][j]]
                    assert t[j][i] == [[(l, -x) for l, x in c] for c in t[i][j]]


class TestCheckLyaOrbits:
    """`check_lya` decides validity on one basis tuple per orbit of the skew
    symmetries of each identity, and enumerates a failing algebra in full."""

    def test_corruptions_report_as_the_reference(self, dim4_rational: Model):
        rng = random.Random(103)
        valid = [conjugated_lie_lya(rng, family) for family in sorted(LIE_FAMILIES)
                 for _ in range(6)] + [dim4_rational.algebra]
        assert sum(structures._algebra_tables(a)[0] > 1 for a in valid) >= 5
        failing = 0
        for a in valid:
            n = a.dim
            for kind in ("binary", "ternary"):
                binary, ternary = dict(a.binary_constants()), dict(a.ternary_constants())
                i, j = sorted(rng.sample(range(n), 2))
                table, key = (binary, (i, j)) if kind == "binary" else \
                    (ternary, (i, j, rng.randrange(n)))
                vec = list(table.get(key, (fr(0),) * n))
                vec[rng.randrange(n)] += random_fraction(rng, 3, 3) or 1
                table[key] = tuple(vec)
                bad = ly.LYAlgebra(n, binary, ternary)
                report = ly.check_lya(bad)
                assert report == ref.check_lya(bad)
                failing += not report.valid
        assert failing >= 30, failing


@pytest.fixture(scope="module")
def representations(dim2: Model, dim4: Model, dim4_rational: Model, sl2_standard: Model, bad_rep):
    """Representations from every construction: the fixtures' adjoint ones and
    `sl2_standard`, the sl2^k lifts' adjoint ones, the induced ones of the
    conftest operators, `zero_rep` of dimensions 0-2, and written-out ones with
    q > 1, among them rho with halves and integer mu, so that D has quarters."""
    rng = random.Random(107)
    ops = [m.op for m in (dim2, dim4, dim4_rational, sl2_standard)]
    ops += [sl2_sum_operator(k) for k in (1, 2, 3)]
    out = [m.rep for m in (dim2, dim4, dim4_rational, sl2_standard)] + [bad_rep]
    out += [ly.adjoint_rep(sl2_standard.algebra)] + [o.rep for o in ops[4:]]
    out += [ly.induced_rep_on_g(o) for o in ops]
    out += [ly.zero_rep(a, k) for a in (dim2.algebra, dim4_rational.algebra) for k in (0, 1, 2)]
    for a, v, rho_den, mu_den in ((dim2.algebra, 2, 2, 1), (sl2_standard.algebra, 2, 2, 1),
                                  (dim4_rational.algebra, 2, 3, 2), (dim2.algebra, 3, 4, 3)):
        n = a.dim
        out.append(ly.Representation(
            a, v, [random_matrix(rng, v, v, 3, rho_den) for _ in range(n)],
            [[random_matrix(rng, v, v, 3, mu_den) for _ in range(n)] for _ in range(n)]))
    return out


class TestOneEvaluator:
    """Every construction hands its integers to a builder that reduces them to
    the least q, and one integer evaluator gives every `Fraction` value: the
    tables, views and evaluations equal those of the replaced code
    (`reference_structures`), exactly."""

    def test_tables_are_least_and_equal_the_scan_of_the_views(self, representations):
        for r in representations:
            assert tuple(r.tables()) == ref.representation_tables(r)
        assert sum(r.tables().q > 1 for r in representations) >= 8

    def test_views_and_evaluations_equal_the_replaced_ones(self, representations):
        rng = random.Random(109)
        for r in representations:
            a, v, idx = r.algebra, r.dim_v, range(r.algebra.dim)
            assert [r.rho(i) for i in idx] == [ref.rho(r, i) for i in idx]
            assert all(r.mu(i, j) == ref.mu(r, i, j) and r.d_basis(i, j) == ref.d_basis(r, i, j)
                       for i in idx for j in idx)
            vecs = [a.basis(i) for i in idx] + [tuple(random_fraction(rng, 4, 6) for _ in idx)
                                                for _ in range(3)]
            for _ in range(4):
                x, y = rng.choice(vecs), rng.choice(vecs)
                assert r.rho_of(x) == ref.rho_of(r, x)
                assert r.mu_of(x, y) == ref.mu_of(r, x, y)
                assert r.d_of(x, y) == ref.d_of(r, x, y)
            wedges = [ly.Wedge2.basis(a.dim, i, j) for i, j in ly.wedge_basis(a.dim)[:2]]
            wedges += [ly.Wedge2.from_flat(a.dim, [random_fraction(rng, 4, 6)
                                                   for _ in ly.wedge_basis(a.dim)]),
                       ly.Wedge2.zero(a.dim)]
            for x in wedges:
                assert x.action_matrix(a) == ref.action_matrix(x, a)
                assert x.d_matrix(r) == ref.d_matrix(x, r)
                z = rng.choice(vecs)
                assert x.bracket_with(a, z) == ref.bracket_with(x, a, z)
                m = x.d_matrix(r)
                assert (m.rows, m.cols) == (v, v)
                assert all(type(e) is Fraction for row in m.entries for e in row)

    def test_every_evaluation_checks_its_arguments(self, dim4: Model):
        """The one evaluator rejects an argument whose length is not its slot's
        dimension, and every action of a wedge element one of another dimension:
        the first wrong values on either side, each a ValueError."""
        a, r = dim4.algebra, dim4.rep
        good = a.basis(0)
        for n in (a.dim - 1, a.dim + 1):
            bad = (fr(1),) * n
            for call in (lambda: a.bracket(bad, good), lambda: a.bracket(good, bad),
                         lambda: a.triple(good, good, bad), lambda: r.rho_of(bad),
                         lambda: r.mu_of(good, bad), lambda: r.d_of(bad, good),
                         lambda: dim4.x.bracket_with(a, bad)):
                with pytest.raises(ValueError, match=f"length {a.dim}, got {n}"):
                    call()
        for x in (ly.Wedge2.basis(a.dim - 1, 0, 1), ly.Wedge2.basis(a.dim + 1, 0, 1)):
            for call in (lambda: x.bracket_with(a, good), lambda: x.action_matrix(a),
                         lambda: x.d_matrix(r)):
                with pytest.raises(ValueError, match="dimensions differ"):
                    call()

    def test_semidirect_sums_equal_the_view_construction(self, representations):
        """The sum built from the representation's tables equals the one built
        from its views by the public constructor: tables, q included, `==`
        and hash; the sum's q may exceed the representation's, as D has weight 2."""
        larger = 0
        for r in representations:
            got, want = ly.semidirect(r.algebra, r), ref.view_semidirect(r.algebra, r)
            assert structures._algebra_tables(got) == structures._algebra_tables(want)
            assert got == want and hash(got) == hash(want) and got.basis_names == want.basis_names
            larger += structures._algebra_tables(got)[0] > r.tables().q
        assert larger
