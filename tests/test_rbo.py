"""Relative Rota-Baxter operators and the structures they induce."""

import random

import pytest

import lieyamaguti as ly
import reference_deformation as ref
from conftest import (Model, assert_same_representation, dim4_operator, fr, random_fraction,
                      sl2_sum_operator)
from lieyamaguti import rbo


class TestCheckRbo:
    def test_fixture_operators_pass(self, dim2: Model, dim4: Model):
        for m in (dim2, dim4):
            assert ly.check_rbo(m.algebra, m.rep, m.op.t_matrix).valid

    def test_identity_fails(self, dim2: Model):
        report = ly.check_rbo(dim2.algebra, dim2.rep, ly.Matrix.identity(2))
        assert not report.valid
        first = report.first()
        assert first.identity == "rota-baxter-binary"
        assert first.args == (0, 1)
        assert first.residual == (fr(-1), fr(0))
        assert len(report.violations) == 2

    def test_shape_mismatch(self, dim2: Model):
        with pytest.raises(ValueError, match="must be 2x2"):
            ly.check_rbo(dim2.algebra, dim2.rep, ly.Matrix.identity(3))

    def test_zero_operator_always_works(self, dim4: Model):
        z = ly.Matrix.zero(4, 4)
        assert ly.check_rbo(dim4.algebra, dim4.rep, z).valid

    def test_random_family_on_big_fixture(self, dim4: Model):
        rng = random.Random(5)
        for _ in range(10):
            t = dim4_operator(*(random_fraction(rng) for _ in range(9)))
            assert ly.check_rbo(dim4.algebra, dim4.rep, t).valid


class TestRelRBO:
    def test_build_verifies(self, dim2: Model):
        assert dim2.op.verified
        with pytest.raises(ValueError,
                           match="fails rota-baxter-binary at \\(0, 1\\)"):
            ly.RelRBO.build(dim2.algebra, dim2.rep, ly.Matrix.identity(2))

    def test_column_and_apply(self, dim2: Model):
        assert dim2.op.column(1) == (fr(0), fr(1))
        assert dim2.op.apply((fr(2), fr(3))) == (fr(0), fr(3))

    def test_unverified_gate(self, dim2: Model):
        raw = ly.RelRBO(dim2.algebra, dim2.rep, dim2.op.t_matrix)
        assert not raw.verified
        for fn in (ly.induced_lya_on_v, ly.induced_rep_on_g,
                   ly.pre_ly_products, ly.lift_to_nijenhuis):
            with pytest.raises(ly.UnverifiedOperator):
                fn(raw)

    def test_wrong_shape_rejected(self, dim2: Model):
        with pytest.raises(ValueError):
            ly.RelRBO(dim2.algebra, dim2.rep, ly.Matrix.zero(3, 2))


class TestInducedStructures:
    def test_sub_adjacent_algebra(self, dim2: Model):
        sub = ly.induced_lya_on_v(dim2.op)
        assert sub.binary_constants() == {(0, 1): (fr(1), fr(0))}
        assert sub.ternary_constants() == {(0, 1, 1): (fr(1), fr(0))}
        assert ly.check_lya(sub).valid

    def test_sub_adjacent_brackets_from_definition(self, dim4: Model):
        o, r = dim4.op, dim4.rep
        sub = ly.induced_lya_on_v(o)
        for b1 in range(4):
            for b2 in range(b1 + 1, 4):
                # [u,v]_T = rho(Tu) v - rho(Tv) u
                expect = ly.vsub(r.rho_of(o.column(b1)).column(b2),
                                 r.rho_of(o.column(b2)).column(b1))
                assert sub.bracket_basis(b1, b2) == expect

    def test_induced_rep_tables(self, dim2: Model):
        ir = ly.induced_rep_on_g(dim2.op)
        assert ir.dim_v == 2
        assert ir.rho(0).is_zero()
        assert ir.rho(1).entries == ((fr(-1), fr(0)), (fr(0), fr(0)))
        assert ir.mu(1, 1).entries == ((fr(1), fr(0)), (fr(0), fr(0)))
        assert ir.mu(0, 1).is_zero() and ir.mu(1, 0).is_zero()
        assert ir.d_basis(0, 1).is_zero()
        assert ly.check_representation(ir).valid

    def test_induced_rep_valid_on_big_fixture(self, dim4: Model):
        assert ly.check_representation(ly.induced_rep_on_g(dim4.op)).valid

    def test_induced_rep_equals_the_reference(self, dim2: Model, dim4: Model,
                                             dim4_rational: Model, sl2_standard: Model):
        # the integer-table construction against the dense Fraction one it
        # replaced, whose tables the public constructor scales by the least
        # q; dim4_rational has denominators in every table
        ops = [m.op for m in (dim2, dim4, dim4_rational, sl2_standard)]
        for o in ops + [sl2_sum_operator(2), sl2_sum_operator(3)]:
            assert_same_representation(ly.induced_rep_on_g(o), ref.induced_rep_on_g(o))

    def test_pre_ly_products(self, dim2: Model):
        binary, ternary = ly.pre_ly_products(dim2.op)
        assert binary[1][0] == (fr(-1), fr(0))
        assert binary[0][1] == (fr(0), fr(0))
        assert ternary[0][1][1] == (fr(1), fr(0))
        assert ternary[1][0][1] == (fr(0), fr(0))

    def test_pre_ly_commutator_recovers_bracket(self, dim4: Model):
        binary, _ = ly.pre_ly_products(dim4.op)
        sub = ly.induced_lya_on_v(dim4.op)
        for a in range(4):
            for b in range(4):
                assert ly.vsub(binary[a][b], binary[b][a]) == sub.bracket_basis(a, b)

    def test_operator_is_a_homomorphism_from_sub_adjacent(self, dim2: Model, dim4: Model):
        for m in (dim2, dim4):
            o, a = m.op, m.algebra
            v = m.rep.dim_v
            sub = ly.induced_lya_on_v(o)
            timg = [o.column(b) for b in range(v)]
            for b1 in range(v):
                for b2 in range(v):
                    assert o.apply(sub.bracket_basis(b1, b2)) == a.bracket(timg[b1], timg[b2])
                    for b3 in range(v):
                        assert (o.apply(sub.triple_basis(b1, b2, b3))
                                == a.triple(timg[b1], timg[b2], timg[b3]))

    def test_nijenhuis_lift(self, dim2: Model):
        lift = ly.lift_to_nijenhuis(dim2.op)
        assert lift.entries == (
            (fr(0), fr(0), fr(0), fr(0)),
            (fr(0), fr(0), fr(0), fr(1)),
            (fr(0), fr(0), fr(0), fr(0)),
            (fr(0), fr(0), fr(0), fr(0)),
        )
        sd = ly.semidirect(dim2.algebra, dim2.rep)
        assert ly.nijenhuis_operator_check(sd, lift).valid


class TestHomomorphisms:
    def test_identity_pair(self, dim2: Model):
        report = ly.rbo_homomorphism_check(
            dim2.op, dim2.op, ly.Matrix.identity(2), ly.Matrix.identity(2))
        assert report.valid

    def test_scaling_only_g_breaks_intertwining(self, dim2: Model):
        report = ly.rbo_homomorphism_check(
            dim2.op, dim2.op,
            ly.Matrix(((fr(3), fr(0)), (fr(0), fr(1)))), ly.Matrix.identity(2))
        assert not report.valid
        first = report.first()
        assert first.identity == "rho-intertwine"
        assert first.args == (0, 1)
        assert first.residual == (fr(-2), fr(0))

    def test_conjugation_produces_verified_operator(self, dim2: Model):
        phi = ly.Matrix(((fr(3), fr(1)), (fr(0), fr(1))))
        moved = ly.conjugate_rbo(dim2.op, phi, phi)
        assert moved.verified
        assert moved.t_matrix.entries == ((fr(0), fr(-1, 3)), (fr(0), fr(1)))
        # conjugating is an equivalence: phi is a homomorphism moved -> original
        report = ly.rbo_homomorphism_check(moved, dim2.op, phi, phi)
        assert report.valid

    def test_conjugation_makes_no_check_rbo_call(self, dim2: Model, monkeypatch):
        # the hypotheses make the conjugate an operator; the tests check it
        calls, real = [], rbo.check_rbo
        monkeypatch.setattr(rbo, "check_rbo", lambda *args: calls.append(args) or real(*args))
        phi = ly.Matrix(((fr(3), fr(1)), (fr(0), fr(1))))
        assert ly.conjugate_rbo(dim2.op, phi, phi).verified
        assert calls == []

    def test_conjugation_failure_modes(self, dim2: Model):
        o = dim2.op
        with pytest.raises(ly.NotAutomorphism, match="binary bracket"):
            ly.conjugate_rbo(o, ly.Matrix(((fr(0), fr(1)), (fr(1), fr(0)))),
                             ly.Matrix.identity(2))
        with pytest.raises(ly.NotAutomorphism, match="not invertible"):
            ly.conjugate_rbo(o, ly.Matrix.zero(2, 2), ly.Matrix.identity(2))
        with pytest.raises(ValueError, match="phi_v must be invertible"):
            ly.conjugate_rbo(o, ly.Matrix.identity(2), ly.Matrix.zero(2, 2))
        with pytest.raises(ly.NotIntertwining) as info:
            ly.conjugate_rbo(o, ly.Matrix.identity(2),
                             ly.Matrix(((fr(1), fr(0)), (fr(0), fr(2)))))
        assert info.value.violation.identity == "rho-intertwine"


class TestWedge2:
    def test_basis_and_dict(self):
        x = ly.Wedge2.basis(4, 1, 3)
        assert x.entries == ((1, 3, fr(1)),)
        y = ly.Wedge2.from_dict(4, {(0, 1): fr(2), (2, 3): fr(-1)})
        assert y.entries == ((0, 1, fr(2)), (2, 3, fr(-1)))
        assert ly.Wedge2.from_dict(4, {(0, 1): fr(0)}) == ly.Wedge2.zero(4)

    def test_validation(self):
        with pytest.raises(ValueError, match="0 <= i < j"):
            ly.Wedge2.from_dict(2, {(1, 0): fr(1)})
        with pytest.raises(ValueError, match="0 <= i < j"):
            ly.Wedge2.from_dict(2, {(0, 5): fr(1)})
        with pytest.raises(ValueError, match="coefficients"):
            ly.Wedge2.from_flat(2, (fr(1), fr(2)))

    def test_flat_roundtrip(self):
        y = ly.Wedge2.from_dict(4, {(0, 1): fr(2), (2, 3): fr(-1)})
        assert y.flat() == (fr(2), fr(0), fr(0), fr(0), fr(0), fr(-1))
        assert ly.Wedge2.from_flat(4, y.flat()) == y

    def test_actions_on_small_fixture(self, dim2: Model):
        x = dim2.x
        expected = ((fr(0), fr(1)), (fr(0), fr(0)))
        assert x.action_matrix(dim2.algebra).entries == expected
        assert x.d_matrix(dim2.rep).entries == expected
        assert x.bracket_with(dim2.algebra, (fr(0), fr(1))) == (fr(1), fr(0))

    def test_dimension_mismatch(self, dim2: Model):
        with pytest.raises(ValueError, match="dimensions differ"):
            ly.Wedge2.basis(4, 0, 1).action_matrix(dim2.algebra)


def test_representations_are_built_without_fraction_matrices(dim2: Model, dim4_rational: Model,
                                                             monkeypatch):
    """adjoint_rep, zero_rep and RboComplex.build hand integer columns to the
    representation's builder: none of them constructs a `Matrix`."""
    ops = [dim2.op, dim4_rational.op, sl2_sum_operator(3)]
    built = []
    init = ly.Matrix.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ly.Matrix, "__init__", spy)
    for o in ops:
        ly.RboComplex.build(o)
        ly.adjoint_rep(o.algebra)
        ly.zero_rep(o.algebra, 2)
    assert built == []
    ly.Matrix.identity(1)
    assert len(built) == 1


def test_command_paths_read_no_algebra_views(dim2: Model, dim4: Model, dim4_rational: Model,
                                            sl2_standard: Model, broken_algebra, monkeypatch):
    """check_lya, adjoint_rep, RboComplex.build and nijenhuis_element_check
    read the algebra's integer tables, never its `Fraction` views."""
    models = [(m.op, m.x) for m in (dim2, dim4, dim4_rational, sl2_standard)]
    models.append((sl2_sum_operator(3), ly.Wedge2.basis(9, 1, 2)))
    read = []

    def spy(name: str):
        real = getattr(ly.LYAlgebra, name)

        def wrapper(self, *args):
            read.append(name)
            return real(self, *args)
        return wrapper

    for name in ("basis", "bracket_basis", "triple_basis"):
        monkeypatch.setattr(ly.LYAlgebra, name, spy(name))
    assert not ly.check_lya(broken_algebra).valid
    for o, x in models:
        assert ly.check_lya(o.algebra).valid
        ly.adjoint_rep(o.algebra)
        ly.RboComplex.build(o)
        ly.nijenhuis_element_check(o, x)
    assert read == []
    dim2.algebra.basis(0)
    assert read == ["basis"]
