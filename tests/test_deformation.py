"""Deformations of Rota-Baxter operators: linear, higher order, equivalence,
Nijenhuis elements and obstructions."""

import math
import random
import sys
import time
from fractions import Fraction
from importlib import resources

import pytest

import lieyamaguti as ly
import reference_deformation as ref
from conftest import (LIE_FAMILIES, Model, assert_same_representation, fr, random_fraction,
                      random_matrix, sl2_sum_operator, transport)
from lieyamaguti import cli, linalg, rbo
from lieyamaguti.complexes import _coboundary_rows


@pytest.fixture(scope="module")
def trivial2(dim2: Model) -> ly.TruncatedDeformation:
    return ly.trivial_deformation_from(dim2.op, dim2.x)


class TestTruncatedDeformation:
    def test_normalizes_and_orders(self, dim2: Model):
        z = ly.Matrix.zero(2, 2)
        d = ly.TruncatedDeformation([dim2.op.t_matrix, z])
        assert isinstance(d.terms, tuple)
        assert d.order == 1

    def test_validation(self, dim2: Model):
        with pytest.raises(ValueError, match="constant term"):
            ly.TruncatedDeformation(())
        with pytest.raises(ValueError, match="shape 3x3"):
            ly.TruncatedDeformation((dim2.op.t_matrix, ly.Matrix.zero(3, 3)))


class TestLinearCheck:
    def test_trivial_direction_passes(self, dim2: Model, trivial2):
        report = ly.linear_deformation_check(dim2.op, trivial2.terms[1])
        assert report.valid

    def test_bad_direction_witness(self, dim2: Model):
        bad = ly.Matrix(((fr(0), fr(0)), (fr(1), fr(0))))
        report = ly.linear_deformation_check(dim2.op, bad)
        assert not report.valid
        first = report.first()
        assert first.identity == "binary@t^1"
        assert first.args == (0, 1)
        assert first.residual == (fr(0), fr(-1))
        assert len(report.violations) == 3

    def test_matches_sampled_parameters(self, dim4: Model):
        # a direction is a linear deformation exactly when T + t*direction
        # stays an operator for generic t
        rng = random.Random(17)
        a, r, t0 = dim4.algebra, dim4.rep, dim4.op.t_matrix
        for _ in range(8):
            direction = random_matrix(rng, 4, 4, span=2, den=2)
            report = ly.linear_deformation_check(dim4.op, direction)
            sampled = all(
                ly.check_rbo(a, r, t0 + direction.scale(fr(t))).valid
                for t in (1, 2, 3))
            assert report.valid == sampled

    def test_shape_check(self, dim2: Model):
        with pytest.raises(ValueError):
            ly.linear_deformation_check(dim2.op, ly.Matrix.zero(3, 3))


class TestNijenhuisElements:
    def test_small_fixture_element(self, dim2: Model):
        report = ly.nijenhuis_element_check(dim2.op, dim2.x)
        assert report.is_nijenhuis
        assert [lab for lab, _ in report.conditions] == [
            "bracket-binary", "bracket-ternary-quadratic",
            "bracket-ternary-cubic", "mu-quadratic", "mu-cubic", "closing"]
        # adjoint representation: the reduced condition set is also reported
        assert report.plain_conditions is not None
        assert [lab for lab, _ in report.plain_conditions] == [
            "bracket-binary", "bracket-ternary-quadratic",
            "bracket-ternary-cubic", "closing"]
        assert all(r.valid for _, r in report.plain_conditions)

    def test_plain_conditions_reserved_for_adjoint(self, dim2: Model):
        zr = ly.zero_rep(dim2.algebra, 2)
        zo = ly.RelRBO.build(dim2.algebra, zr, ly.Matrix.zero(2, 2))
        report = ly.nijenhuis_element_check(zo, ly.Wedge2.basis(2, 0, 1))
        assert report.plain_conditions is None
        assert report.is_nijenhuis

    def test_failing_element(self):
        consts = {(0, 1): (fr(0), fr(2), fr(0)),
                  (0, 2): (fr(0), fr(0), fr(-2)),
                  (1, 2): (fr(1), fr(0), fr(0))}
        a = ly.lya_from_lie(3, consts)
        r = ly.adjoint_rep(a)
        o = ly.RelRBO.build(a, r, ly.Matrix.zero(3, 3))
        w = ly.Wedge2.basis(3, 0, 1)
        report = ly.nijenhuis_element_check(o, w)
        assert not report.is_nijenhuis
        failing = [(lab, ar.first()) for lab, ar in report.conditions
                   if not ar.valid]
        label, violation = failing[0]
        assert label == "bracket-binary"
        assert violation.args == (0, 2)
        assert violation.residual == (fr(0), fr(16), fr(0))
        with pytest.raises(ly.NotNijenhuisElement) as info:
            ly.trivial_deformation_from(o, w)
        assert info.value.label == "bracket-binary"
        assert info.value.violation.args == (0, 2)


class TestTrivialDeformation:
    def test_terms(self, dim2: Model, trivial2):
        assert trivial2.order == 1
        assert trivial2.terms[0] == dim2.op.t_matrix
        assert trivial2.terms[1].entries == ((fr(0), fr(-1)), (fr(0), fr(0)))

    def test_direction_is_delta_of_element(self, dim2: Model, trivial2):
        assert trivial2.terms[1] == ly.rbo_delta0(dim2.op, dim2.x).as_matrix()

    def test_equivalent_to_constant_deformation(self, dim2: Model, trivial2):
        base = ly.TruncatedDeformation((dim2.op.t_matrix, ly.Matrix.zero(2, 2)))
        report = ly.equivalence_check_linear(dim2.op, base, trivial2, dim2.x)
        assert report.valid


class TestEquivalence:
    def test_input_validation(self, dim2: Model, trivial2):
        t, z = dim2.op.t_matrix, ly.Matrix.zero(2, 2)
        with pytest.raises(ValueError, match="linear deformations"):
            ly.equivalence_check_linear(
                dim2.op, ly.TruncatedDeformation((t,)), trivial2, dim2.x)
        with pytest.raises(ValueError, match="start at the operator"):
            ly.equivalence_check_linear(
                dim2.op, ly.TruncatedDeformation((z, z)), trivial2, dim2.x)

    def test_wrong_witness_detected(self, dim2: Model):
        # X relates T to its own trivial deformation, not to that of 2X
        base = ly.TruncatedDeformation((dim2.op.t_matrix, ly.Matrix.zero(2, 2)))
        two_x = ly.Wedge2.from_dict(2, {(0, 1): fr(2)})
        other = ly.trivial_deformation_from(dim2.op, two_x)
        report = ly.equivalence_check_linear(dim2.op, base, other, dim2.x)
        assert not report.valid
        first = report.first()
        assert first.identity == "t-intertwine@t^1"
        assert first.args == (1,)
        assert first.residual == (fr(1), fr(0))


class TestOrderN:
    def test_must_start_at_operator(self, dim2: Model):
        z = ly.Matrix.zero(2, 2)
        with pytest.raises(ValueError, match="start at the operator"):
            ly.order_n_check(dim2.op, ly.TruncatedDeformation((z, z)))

    def test_reports_first_failing_coefficient(self, dim2: Model):
        bad = ly.TruncatedDeformation(
            (dim2.op.t_matrix, ly.Matrix(((fr(0), fr(0)), (fr(1), fr(0))))))
        report = ly.order_n_check(dim2.op, bad)
        assert not report.valid
        assert report.first().identity == "binary@t^1"

    def test_valid_orders(self, dim2: Model, trivial2):
        assert ly.order_n_check(dim2.op, trivial2).valid
        single = ly.TruncatedDeformation((dim2.op.t_matrix,))
        assert ly.order_n_check(dim2.op, single).valid


class TestObstruction:
    def test_trivial_deformation_extends_freely(self, dim2: Model, trivial2):
        res = ly.obstruction(dim2.op, trivial2)
        assert res.ob.is_zero()
        assert res.is_cocycle and res.trivial
        assert res.witness is not None and res.witness.is_zero()
        d2 = ly.extend_deformation(dim2.op, trivial2)
        assert d2 is not None and d2.order == 2
        assert d2.terms[-1].is_zero()
        d3 = ly.extend_deformation(dim2.op, d2)
        assert d3 is not None and d3.order == 3
        assert ly.order_n_check(dim2.op, d3).valid

    def test_gate_on_invalid_deformation(self, dim2: Model):
        bad = ly.TruncatedDeformation(
            (dim2.op.t_matrix, ly.Matrix(((fr(0), fr(0)), (fr(1), fr(0))))))
        with pytest.raises(ly.NotOrderN) as info:
            ly.obstruction(dim2.op, bad)
        assert info.value.violation.identity == "binary@t^1"
        with pytest.raises(ly.NotOrderN):
            ly.extend_deformation(dim2.op, bad)

    def test_order_zero(self, dim2: Model):
        single = ly.TruncatedDeformation((dim2.op.t_matrix,))
        res = ly.obstruction(dim2.op, single)
        assert res.ob.is_zero() and res.trivial


class TestPreLyDeformationTerms:
    def test_small_fixture_tables(self, dim2: Model, trivial2):
        phi, om1, om2 = ly.pre_ly_deformation_terms(dim2.op, trivial2.terms[1])
        assert phi[1][1] == (fr(-1), fr(0))
        assert phi[0][0] == phi[0][1] == phi[1][0] == (fr(0), fr(0))
        nonzero1 = {(i, j, k): om1[i][j][k]
                    for i in range(2) for j in range(2) for k in range(2)
                    if om1[i][j][k] != (fr(0), fr(0))}
        assert nonzero1 == {(1, 1, 1): (fr(1), fr(0))}
        assert all(om2[i][j][k] == (fr(0), fr(0))
                   for i in range(2) for j in range(2) for k in range(2))

    def test_gate(self, dim2: Model):
        bad = ly.Matrix(((fr(0), fr(0)), (fr(1), fr(0))))
        with pytest.raises(ly.NotLinearDeformation) as info:
            ly.pre_ly_deformation_terms(dim2.op, bad)
        assert info.value.violation.identity == "binary@t^1"

    def test_matches_deformed_products_at_samples(self, dim2: Model, trivial2):
        a, r = dim2.algebra, dim2.rep
        frak_t = trivial2.terms[1]
        phi, om1, om2 = ly.pre_ly_deformation_terms(dim2.op, frak_t)
        base_b, base_t = ly.pre_ly_products(dim2.op)
        for t in (1, 2, 3):
            ot = ly.RelRBO.build(a, r, dim2.op.t_matrix + frak_t.scale(fr(t)))
            def_b, def_t = ly.pre_ly_products(ot)
            for i in range(2):
                for j in range(2):
                    assert def_b[i][j] == ly.vadd(
                        base_b[i][j], ly.vscale(fr(t), phi[i][j]))
                    for k in range(2):
                        expect = ly.vadd(
                            base_t[i][j][k],
                            ly.vadd(ly.vscale(fr(t), om1[i][j][k]),
                                    ly.vscale(fr(t * t), om2[i][j][k])))
                        assert def_t[i][j][k] == expect

    def test_equals_the_reference(self, dim2: Model, dim4: Model, dim4_rational: Model,
                                  sl2_standard: Model):
        # directions delta(X) of seeded wedges, and seeded matrices that fail
        # to be directions of a linear deformation
        rng = random.Random(37)

        def outcome(fn, o, frak_t):
            try:
                return fn(o, frak_t)
            except ly.NotLinearDeformation as exc:
                return type(exc), str(exc), exc.violation

        valid = invalid = 0
        for m in (dim2, dim4, dim4_rational, sl2_standard):
            o = m.op
            dim, shape = o.algebra.dim, (o.t_matrix.rows, o.t_matrix.cols)
            assert ly.pre_ly_products(o) == ref.pre_ly_products(o)
            wedges = [ly.Wedge2.from_flat(dim, [random_fraction(rng, 3, 2)
                                                for _ in ly.wedge_basis(dim)])
                      for _ in range(3)]
            directions = [ly.rbo_delta0(o, x).as_matrix(dim) for x in wedges]
            directions += [random_matrix(rng, *shape, 2, 2) for _ in range(3)]
            for frak_t in directions:
                got = outcome(ly.pre_ly_deformation_terms, o, frak_t)
                assert got == outcome(ref.pre_ly_deformation_terms, o, frak_t)
                if got[0] is ly.NotLinearDeformation:
                    invalid += 1
                    continue
                valid += 1
                phi, omega1, omega2 = got
                vectors = [vec for row in phi for vec in row]
                vectors += [vec for omega in (omega1, omega2) for plane in omega
                            for row in plane for vec in row]
                assert all(type(x) is Fraction for vec in vectors for x in vec)
        assert valid >= 6 and invalid >= 6


class TestRigidity:
    def test_small_fixture_probe(self, dim2: Model):
        probe = ly.rigidity_probe(dim2.op)
        assert probe.dim_z1 == 3
        assert probe.dim_delta_image == 1
        assert not probe.nijenhuis_image_contained

    def test_containment_matches_per_cocycle_solves(self, dim2: Model, dim4: Model):
        # the former definition: solve delta0 X = z for every 1-cocycle z
        for model in (dim2, dim4):
            rc = ly.RboComplex.build(model.op)
            _, kernel = ly.rank_kernel(ly.rbo_coboundary_matrix(rc, 1))
            mat0 = ly.rbo_coboundary_matrix(rc, 0)
            contained = all(ly.solve_linear(mat0, z) is not None for z in kernel)
            probe = ly.rigidity_probe(model.op)
            assert probe == ly.RigidityProbe(
                dim_z1=len(kernel), dim_delta_image=ly.rank_kernel(mat0)[0],
                nijenhuis_image_contained=contained)


def _bad_rbo_model():
    text = resources.files("lieyamaguti").joinpath("data", "dim2_bad_rbo.lyat").read_text()
    model = cli.parse_model(text)
    return model.algebra, model.rep(), model.require_operator()


def _assert_same_report(got: ly.AxiomReport, want: ly.AxiomReport) -> None:
    assert got == want
    for v in got.violations:
        assert all(type(x) is Fraction for x in v.residual)


class TestAgainstReference:
    """The residual engine must reproduce the dense term-by-term evaluation of
    `reference_deformation` exactly: the same violations in the same order,
    with the same args and the same Fraction residuals, and the same
    cochains."""

    @pytest.fixture(scope="class")
    def models(self, dim2: Model, dim4: Model, dim4_rational: Model, sl2_standard: Model):
        """(algebra, representation, operator) triples; the operators of the
        bundled bad model and of the trivial actions are not Rota-Baxter."""
        rng = random.Random(23)
        out = [(m.algebra, m.rep, m.op.t_matrix) for m in (dim2, dim4, dim4_rational, sl2_standard)]
        out.append(_bad_rbo_model())
        out.append((dim2.algebra, ly.zero_rep(dim2.algebra, 0), ly.Matrix.zero(2, 0)))
        out.append((dim4.algebra, ly.zero_rep(dim4.algebra, 2), random_matrix(rng, 4, 2, 3, 3)))
        return out

    def test_check_rbo_and_sub_adjacent_constants(self, models):
        rng = random.Random(31)
        invalid = 0
        for a, r, t in models:
            ops = [t] + [random_matrix(rng, a.dim, r.dim_v, 3, 3) for _ in range(4)]
            for op in ops:
                report = ly.check_rbo(a, r, op)
                _assert_same_report(report, ref.check_rbo(a, r, op))
                invalid += not report.valid
                # the inner tables are sparse integer vectors over qq and qq^2, on every tuple
                _, (qq, binary, ternary) = rbo._expansion(a, r, rbo._term_tables((op,)), ())
                sub = tuple({k: tuple(Fraction(dict(vec).get(l, 0), den) for l in range(r.dim_v))
                             for k, vec in table.items() if vec}
                            for table, den in ((binary, qq), (ternary, qq * qq)))
                assert sub == ref._sub_adjacent_constants(r, op)
        assert invalid > 20

    def test_induced_algebra(self, dim2: Model, dim4_rational: Model, sl2_standard: Model):
        for m in (dim2, dim4_rational, sl2_standard):
            binary, ternary = ref._sub_adjacent_constants(m.rep, m.op.t_matrix)
            sub = ly.induced_lya_on_v(m.op)
            assert sub.binary_constants() == binary
            assert sub.ternary_constants() == ternary

    def test_orders_of_random_terms(self, models):
        # the expansion does not need T_0 to be an operator; `verified` only
        # opens the gate of the public checks, which start at order 1 (order
        # 0 is `check_rbo`, compared above)
        rng = random.Random(37)

        def reference(o, terms):   # the reference's orders 1..n
            orders = range(1, len(terms))
            return ly.AxiomReport.from_violations(ref._coefficient_violations(o, terms, orders, orders))

        for a, r, t in models:
            o = ly.RelRBO(a, r, t, verified=True)
            for n in (1, 2, 4):
                terms = (t,) + tuple(random_matrix(rng, a.dim, r.dim_v, 2, 3)
                                     for _ in range(n))
                d = ly.TruncatedDeformation(terms)
                _assert_same_report(ly.order_n_check(o, d), reference(o, terms))
                residuals, _ = rbo._expansion(a, r, rbo._term_tables(terms), (n + 1,))
                binary, ternary = residuals[n + 1]
                assert (ly.Cochain(2, tuple(binary.values()), tuple(ternary.values()))
                        == ref.obstruction_cochain(o, terms))
            _assert_same_report(ly.linear_deformation_check(o, terms[1]),
                                ref.linear_deformation_check(o, terms[1]))
            want = reference(o, terms)
            if not want.valid:
                with pytest.raises(ly.NotOrderN) as info:
                    ly.obstruction(o, d)
                assert info.value.violation == want.violations[0]

    def test_delta1_and_obstruction_of_valid_deformations(
            self, dim2: Model, dim4: Model, dim4_rational: Model, sl2_standard: Model):
        rng = random.Random(41)
        for m in (dim2, dim4, dim4_rational, sl2_standard):
            o = m.op
            rc = ly.RboComplex.build(o)
            for _ in range(3):
                f = random_matrix(rng, m.algebra.dim, m.rep.dim_v, 4, 3)
                c = ly.Cochain(1, tuple(f.column(b) for b in range(f.cols)), None)
                assert ly.coboundary(rc.ctx, c) == ref.rbo_delta1_expanded(o, c)
            d = ly.trivial_deformation_from(o, ly.Wedge2.zero(m.algebra.dim))
            for _ in range(3):
                assert ly.obstruction(o, d).ob == ref.obstruction_cochain(o, d.terms)
                d = ly.extend_deformation(o, d)
            _, kernel = ly.rank_kernel(ly.rbo_coboundary_matrix(rc, 1))
            for z in kernel:
                d = ly.TruncatedDeformation((o.t_matrix, ly.Cochain.from_flat(rc.ctx, 1, z).as_matrix()))
                assert ly.obstruction(o, d).ob == ref.obstruction_cochain(o, d.terms)


class TestObstructionClasses:
    def test_the_coadjoint_r_matrix_reads_the_binary_block(self, dim2: Model, dim4: Model,
                                                           sl2_coadjoint: Model):
        # delta^2 of the adjoint operators of dim2 and dim4 has rank 0 over
        # the binary-block columns, so a rescaled binary block of Ob stays a
        # cocycle there; on the coadjoint r-matrix operator it has rank 6
        m = sl2_coadjoint
        assert ly.check_representation(m.rep).valid
        ly.RelRBO.build(m.algebra, m.rep, ly.Matrix(((0, 0, 1), (0, 0, 0), (-1, 0, 0))))
        with pytest.raises(ly.NotRotaBaxter):
            ly.RelRBO.build(m.algebra, m.rep, ly.Matrix(((0, 0, 0), (0, 0, 1), (0, -1, 0))))
        rc = ly.RboComplex.build(m.op)
        assert [ly.rbo_cohomology_dims(rc, p).dim_h for p in (1, 2)] == [1, 7]
        ranks = []
        for o in (dim2.op, dim4.op, m.op):
            ctx = ly.RboComplex.build(o).ctx
            binary = math.comb(ctx.m, 2) * ctx.v   # the first columns of degree 2
            rows = _coboundary_rows(ctx, 2)[1]
            ranks.append(len(linalg._rref([{c: x for c, x in row.items() if c < binary}
                                           for row in rows])))
        assert ranks == [0, 0, 6]

    def test_infinitesimal_cocycles_have_cocycle_obstructions(self, dim2: Model, dim4: Model,
                                                              sl2_coadjoint: Model):
        # T_1 in Z^1 makes T + t T_1 an order-1 deformation; its obstruction
        # at t^2 is a 2-cocycle, and a class in H^2 that may be nontrivial
        rng = random.Random(11)
        nontrivial = 0
        for m in (dim2, dim4, sl2_coadjoint):
            rc = ly.RboComplex.build(m.op)
            m1 = ly.rbo_coboundary_matrix(rc, 1)
            m2 = ly.rbo_coboundary_matrix(rc, 2)
            _, kernel = ly.rank_kernel(m1)
            for _ in range(6):
                z = [fr(0)] * m1.cols
                for k in kernel:
                    z = ly.vadd(z, ly.vscale(fr(rng.randint(-3, 3)), k))
                t1 = ly.Cochain.from_flat(rc.ctx, 1, z).as_matrix()
                d = ly.TruncatedDeformation((m.op.t_matrix, t1))
                assert ly.order_n_check(m.op, d).valid
                res = ly.obstruction(m.op, d)
                assert res.is_cocycle
                assert ly.is_zero_vector(m2.apply(res.ob.flatten()))
                sol = ly.solve_linear(m1, ly.vneg(res.ob.flatten()))
                assert res.trivial == (sol is not None)
                nontrivial += not res.trivial
                if res.trivial:
                    assert ly.order_n_check(m.op, ly.extend_deformation(m.op, d)).valid
        assert nontrivial > 0


def _cocycle_draws(o: ly.RelRBO, rng: random.Random, count: int, share: float = 1.0):
    """Order-1 deformations T + t T_1, T_1 a seeded combination of the
    free-column basis of Z^1 with coefficients in -3..3; with share < 1, each
    basis vector enters with that probability."""
    rc = ly.RboComplex.build(o)
    m1 = ly.rbo_coboundary_matrix(rc, 1)
    _, kernel = ly.rank_kernel(m1)
    for _ in range(count):
        z = [fr(0)] * m1.cols
        for k in kernel:
            if share == 1 or rng.random() < share:
                z = ly.vadd(z, ly.vscale(fr(rng.randint(-3, 3)), k))
        t1 = ly.Cochain.from_flat(rc.ctx, 1, z).as_matrix(o.algebra.dim)
        yield ly.TruncatedDeformation((o.t_matrix, t1))


class TestObstructionIsACocycle:
    """`obstruction` takes the paper's lemma for granted: the residual at
    t^{n+1} of an order-n deformation is a 2-cocycle. These tests apply
    delta^2 to it on nontrivial classes, where no witness implies it."""

    @staticmethod
    def _checked(o: ly.RelRBO, ctx: ly.ComplexContext, d: ly.TruncatedDeformation):
        res = ly.obstruction(o, d)
        assert res.is_cocycle and ly.coboundary(ctx, res.ob).is_zero()
        return res

    def test_dim2_e11(self, dim2: Model):
        # T_1 = E_11 is a 1-cocycle whose obstruction is not a coboundary
        e11 = ly.Matrix(((fr(1), fr(0)), (fr(0), fr(0))))
        d = ly.TruncatedDeformation((dim2.op.t_matrix, e11))
        ctx = ly.RboComplex.build(dim2.op).ctx
        assert not self._checked(dim2.op, ctx, d).trivial

    def test_order_one_on_sl2_sum(self):
        o = sl2_sum_operator(2)
        ctx = ly.RboComplex.build(o).ctx
        draws = _cocycle_draws(o, random.Random(67), 24, share=0.25)
        assert sum(not self._checked(o, ctx, d).trivial for d in draws) >= 10

    def test_order_one_on_sl2_lift(self):
        # T h = h on the sl2 lift: delta^2 reads the binary block of Ob here,
        # as it does not on the operator complexes of dim2 and sl2+sl2, so a
        # rescaled block of Ob is no cocycle
        a = ly.lya_from_lie(3, {k: tuple(map(fr, v)) for k, v in LIE_FAMILIES["sl2"][1].items()})
        t = ly.Matrix([[fr(int(i == j == 0)) for j in range(3)] for i in range(3)])
        o = ly.RelRBO.build(a, ly.adjoint_rep(a), t)
        ctx = ly.RboComplex.build(o).ctx
        draws = _cocycle_draws(o, random.Random(5), 24)
        assert sum(not self._checked(o, ctx, d).trivial for d in draws) >= 10

    def test_order_two_on_the_coadjoint_r_matrix(self, sl2_coadjoint: Model):
        # every class here is trivial; at order 1 Ob's binary block lies in
        # the kernel of delta^2, at order 2 it often does not, so delta^2
        # reads it and a rescaled binary block is no cocycle
        o = sl2_coadjoint.op
        ctx = ly.RboComplex.build(o).ctx
        rng = random.Random(71)
        extended = [ly.extend_deformation(o, d) for d in _cocycle_draws(o, rng, 12, share=0.5)]
        seen = 0
        for d, shift in zip(extended * 2, _cocycle_draws(o, rng, 24, share=0.5)):
            d2 = ly.TruncatedDeformation(d.terms[:2] + (d.terms[2] + shift.terms[1],))
            assert ly.order_n_check(o, d2).valid
            ob = self._checked(o, ctx, d2).ob
            binary = ly.Cochain(2, ob.f_part, tuple(ly.vzero(ctx.v) for _ in ob.g_part))
            seen += not ly.coboundary(ctx, binary).is_zero()
        assert seen >= 5

    def test_order_two_on_sl2_sum(self):
        # a trivial order-1 class extended by its witness T_2, then T_2 moved
        # by a 1-cocycle: still order 2, with a new class at t^3
        o = sl2_sum_operator(2)
        ctx = ly.RboComplex.build(o).ctx
        rng = random.Random(71)
        extended = [ly.extend_deformation(o, d) for d in _cocycle_draws(o, rng, 24, share=0.15)]
        extended = [d for d in extended if d is not None][:10]
        assert len(extended) == 10
        nontrivial = 0
        for d, shift in zip(extended * 3, _cocycle_draws(o, rng, 30, share=0.15)):
            d2 = ly.TruncatedDeformation(d.terms[:2] + (d.terms[2] + shift.terms[1],))
            assert ly.order_n_check(o, d2).valid
            nontrivial += not self._checked(o, ctx, d2).trivial
        assert nontrivial >= 5


def _same_obstruction(o: ly.RelRBO, d: ly.TruncatedDeformation):
    """The package's obstruction of d, asserted equal to the replaced one
    field by field, or None after asserting that both raise the same
    NotOrderN."""
    try:
        want = ref.obstruction(o, d)
    except ly.NotOrderN as exc:
        with pytest.raises(ly.NotOrderN) as info:
            ly.obstruction(o, d)
        assert info.value.violation == exc.violation
        return None
    got = ly.obstruction(o, d)
    assert got == want   # ob, is_cocycle, trivial and witness
    return got


class TestObstructionAgainstReference:
    """`obstruction` reads the witness off the integer rows of delta^1 and
    tests the cocycle condition in integers; its results must equal those of
    the replaced dense solve and `Fraction` coboundary exactly."""

    def test_fixtures(self, dim2: Model, dim4: Model, dim4_rational: Model,
                      sl2_standard: Model):
        rng = random.Random(43)
        zero_module = ly.RelRBO.build(dim2.algebra, ly.zero_rep(dim2.algebra, 0),
                                      ly.Matrix.zero(2, 0))
        results = []
        for o in (dim2.op, dim4.op, dim4_rational.op, sl2_standard.op, zero_module):
            a, v = o.algebra.dim, o.rep.dim_v
            d = ly.trivial_deformation_from(o, ly.Wedge2.zero(a))
            for _ in range(3):   # trivial at every order
                results.append(_same_obstruction(o, d))
                d = ly.extend_deformation(o, d)
            for d in _cocycle_draws(o, rng, 3):
                results.append(_same_obstruction(o, d))
                if results[-1].trivial:
                    results.append(_same_obstruction(o, ly.extend_deformation(o, d)))
            for n in (1, 2):   # random terms: mostly NotOrderN
                terms = (o.t_matrix,) + tuple(random_matrix(rng, a, v, 3, 3) for _ in range(n))
                results.append(_same_obstruction(o, ly.TruncatedDeformation(terms)))
        assert sum(r is None for r in results) >= 7
        assert sum(r is not None and not r.trivial for r in results) >= 3
        assert sum(r is not None and r.trivial and not r.ob.is_zero() for r in results) >= 1

    @pytest.mark.parametrize("k", [2, 3])
    def test_sl2_sums(self, k):
        start = time.monotonic()
        o = sl2_sum_operator(k)
        first = next(_cocycle_draws(o, random.Random(11), 1))
        assert not _same_obstruction(o, first).trivial
        zero = ly.trivial_deformation_from(o, ly.Wedge2.zero(o.algebra.dim))
        assert _same_obstruction(o, zero).trivial
        assert time.monotonic() - start < 60.0


class TestOneOperatorObject:
    """An operator object keeps T's columns, its sub-adjacent tables and its
    complex across calls. Obstructions and extensions of two deformations of
    one object, interleaved at orders 1-4, must equal those of the reference,
    which builds a new complex at every call, so a stale cache fails."""

    def test_two_deformations_of_one_operator(self, dim2: Model, sl2_standard: Model):
        rng = random.Random(131)
        file_t1 = ly.Matrix(((fr(0), fr(-1)), (fr(0), fr(0))))   # the deformation in dim2.lyat
        nonzero = 0
        for m in (dim2, sl2_standard):
            o = ly.RelRBO.build(m.algebra, m.rep, m.op.t_matrix)   # a new object keeps nothing yet
            chains = list(_cocycle_draws(o, rng, 2))
            if m is dim2:
                chains[0] = ly.TruncatedDeformation((o.t_matrix, file_t1))
            assert chains[0].terms[1] != chains[1].terms[1]
            orders = []
            for _ in range(4):
                for k, d in enumerate(chains):
                    if d is None:   # stopped at a nontrivial class
                        continue
                    got = _same_obstruction(o, d)
                    nonzero += not got.ob.is_zero()
                    orders.append(d.order)
                    chains[k] = ly.extend_deformation(o, d)
                    assert chains[k] == (None if not got.trivial else ly.TruncatedDeformation(
                        d.terms + (got.witness.as_matrix(m.algebra.dim),)))
            assert 4 in orders
        assert nonzero >= 4


class TestExtensionsHoldByConstruction:
    """What `extend_deformation` returns holds through its order by
    construction and records its operator; `obstruction` then expands order
    n+1 alone, and `order_n_check` and `linear_deformation_check` ignore the
    record. A trusted extension must have the obstruction of the same terms
    verified in full."""

    FILE_T1 = ((0, -1), (0, 0))   # the deformation in dim2.lyat

    @pytest.fixture
    def expanded(self, monkeypatch):
        from lieyamaguti import deformation  # noqa: F401  (loads the modules it imports from)

        seen, real = [], rbo._expansion

        def spy(a, r, terms, orders):
            orders = tuple(orders)
            seen.append(set(orders))
            return real(a, r, terms, orders)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("lieyamaguti"):
                for name, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, name, spy)
        return seen

    @staticmethod
    def _chain(o: ly.RelRBO, d: ly.TruncatedDeformation, order: int):
        """The extensions of d up to the order, asserted to get there."""
        chain = []
        while d.order < order:
            d = ly.extend_deformation(o, d)
            assert d is not None
            chain.append(d)
        return chain

    def test_deform_extend_expands_each_order_once(self, capsys, expanded):
        assert cli.main(["deform", "extend", "dim2.lyat", "--max-order", "4", "--format", "json"]) == 0
        capsys.readouterr()
        assert expanded == [{0}, {1, 2}, {3}, {4}]   # `RelRBO.build`, then one per order

    def test_checks_expand_every_order(self, dim2: Model, expanded):
        d = self._chain(dim2.op, ly.TruncatedDeformation(
            (dim2.op.t_matrix, ly.Matrix(self.FILE_T1))), 4)[-1]
        del expanded[:]
        assert ly.order_n_check(dim2.op, d).valid
        assert ly.linear_deformation_check(dim2.op, d.terms[1]).valid
        assert expanded == [{1, 2, 3, 4}, {1, 2, 3}]

    def test_order_n_check_ignores_the_record(self, dim4: Model):
        o = dim4.op
        d = self._chain(o, next(_cocycle_draws(o, random.Random(3), 1)), 3)[-1]
        bump = ly.Matrix([[fr(int((i, j) == (1, 0))) for j in range(4)] for i in range(4)])
        bad = ly.TruncatedDeformation(d.terms[:-1] + (d.terms[-1] + bump,))
        bad.__dict__["holds_for"] = o   # as if `extend_deformation` had built it
        report = ly.order_n_check(o, bad)
        _assert_same_report(report, ref.order_n_check(o, bad.terms))
        assert report.violations and {v.identity[-4:] for v in report.violations} == {"@t^3"}

    def test_trusted_obstructions_equal_full_ones(self, dim2: Model, dim4: Model,
                                                  sl2_standard: Model):
        rng = random.Random(3)
        starts = [(dim2.op, ly.TruncatedDeformation((dim2.op.t_matrix, ly.Matrix(self.FILE_T1))))]
        starts += [(m.op, d) for m in (dim4, sl2_standard) for d in _cocycle_draws(m.op, rng, 2)]
        moved = 0
        for o, d in starts:
            for ext in self._chain(o, d, 8):
                rebuilt = ly.TruncatedDeformation(ext.terms)
                assert ext.__dict__["holds_for"] is o and "holds_for" not in rebuilt.__dict__
                assert ly.obstruction(o, ext) == ly.obstruction(o, rebuilt)
                moved += any(map(any, ext.terms[-1].entries))
        assert moved >= 7


def _denominators(*matrices: ly.Matrix) -> int:
    return math.lcm(*(x.denominator for m in matrices for row in m.entries for x in row))


class TestSplitScaling:
    """The engine scales the terms T_s by their own q_T, and the
    representation's tables by q. With q_T coprime to q, every residual,
    inner table and induced structure must still equal the reference."""

    @pytest.fixture(scope="class")
    def ops(self, dim4_rational: Model, sl2_standard: Model):
        """Operators with q_T = 5 on representations with q > 1 coprime to 35:
        that of dim4_rational, and sl2_standard in bases with denominators 2
        and 3, whose sub-adjacent algebra is not zero. Both identities are
        homogeneous in T, so every multiple of an operator is one."""
        p, q = ly.Matrix([[2, 1, 0], [0, 3, 1], [0, 0, 1]]), ly.Matrix([[2, 1], [0, 3]])
        sl2 = transport(sl2_standard.algebra, sl2_standard.rep, p, q) \
            + (ly.inverse(p) @ sl2_standard.op.t_matrix @ q,)
        d4 = dim4_rational
        return [ly.RelRBO.build(a, r, t.scale(fr(_denominators(t), 5)))
                for a, r, t in ((d4.algebra, d4.rep, d4.op.t_matrix), sl2)]

    def test_scales_are_coprime(self, ops):
        for o in ops:
            q = o.rep.tables().q
            assert q > 1 and math.gcd(q, 35) == 1 and _denominators(o.t_matrix) == 5

    def test_induced_structures(self, ops):
        nonzero = 0
        for o in ops:
            binary, ternary = ref._sub_adjacent_constants(o.rep, o.t_matrix)
            sub = ly.induced_lya_on_v(o)
            assert (sub.binary_constants(), sub.ternary_constants()) == (binary, ternary)
            assert_same_representation(ly.induced_rep_on_g(o), ref.induced_rep_on_g(o))
            nonzero += bool(binary and ternary)
        assert nonzero

    def test_terms_over_5_and_7(self, ops):
        rng = random.Random(53)
        for o in ops:
            m, v = o.algebra.dim, o.rep.dim_v
            t1, t2 = (random_matrix(rng, m, v, 3, 1).scale(fr(1, den)) for den in (7, 5))
            assert _denominators(o.t_matrix, t1, t2) == 35
            terms = (o.t_matrix, t1, t2)
            want = ref.order_n_check(o, terms)
            assert not want.valid
            _assert_same_report(ly.order_n_check(o, ly.TruncatedDeformation(terms)), want)
            rc = ly.RboComplex.build(o)
            c = ly.Cochain(1, tuple(t1.columns()), None)
            assert ly.coboundary(rc.ctx, c) == ref.rbo_delta1_expanded(o, c)
            # a 1-cocycle T_1 over 7 makes T + t T_1 an order-1 deformation
            _, kernel = ly.rank_kernel(ly.rbo_coboundary_matrix(rc, 1))
            nonzero = 0
            for k in kernel:
                ints = [int(x * math.lcm(*(y.denominator for y in k))) for x in k]
                z = [fr(x, 7 * math.gcd(*ints)) for x in ints]
                d = ly.TruncatedDeformation(
                    (o.t_matrix, ly.Cochain.from_flat(rc.ctx, 1, z).as_matrix()))
                assert _denominators(*d.terms) == 35
                got = _same_obstruction(o, d)
                assert got.ob == ref.obstruction_cochain(o, d.terms)
                nonzero += not got.ob.is_zero()
            assert nonzero
