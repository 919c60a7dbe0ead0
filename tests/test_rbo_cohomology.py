"""The cochain complex controlling deformations of a Rota-Baxter operator."""

import random

import pytest

import lieyamaguti as ly
from conftest import Model, fr


@pytest.fixture(scope="module")
def rc2(dim2: Model) -> ly.RboComplex:
    return ly.RboComplex.build(dim2.op)


@pytest.fixture(scope="module")
def rc4(dim4: Model) -> ly.RboComplex:
    return ly.RboComplex.build(dim4.op)


class TestBuild:
    def test_context_uses_induced_structures(self, rc2, dim2: Model):
        sub = ly.induced_lya_on_v(dim2.op)
        assert rc2.ctx.algebra.binary_constants() == sub.binary_constants()
        assert rc2.ctx.v == dim2.algebra.dim

    def test_rejects_unverified(self, dim2: Model):
        raw = ly.RelRBO(dim2.algebra, dim2.rep, dim2.op.t_matrix)
        with pytest.raises(ly.UnverifiedOperator):
            ly.RboComplex.build(raw)


class TestDegreeZero:
    def test_delta0_on_wedge_basis(self, rc2, dim2: Model):
        c = ly.rbo_delta0(dim2.op, dim2.x)
        assert c.degree == 1
        assert c.flatten() == (fr(0), fr(0), fr(-1), fr(0))

    def test_delta0_matrix(self, rc2):
        m = ly.rbo_coboundary_matrix(rc2, 0)
        assert (m.rows, m.cols) == (4, 1)
        assert m.column(0) == (fr(0), fr(0), fr(-1), fr(0))

    def test_delta0_definition(self, rc4, dim4: Model):
        o, r = dim4.op, dim4.rep
        x = ly.Wedge2.from_dict(4, {(0, 2): fr(3), (1, 3): fr(-1, 2)})
        c = ly.rbo_delta0(o, x)
        dx = x.d_matrix(r)
        for b in range(4):
            expect = ly.vsub(o.apply(dx.column(b)),
                             x.bracket_with(dim4.algebra, o.column(b)))
            assert c.f_part[b] == expect


class TestDegreeOne:
    def test_matrix_frozen(self, rc2):
        m = ly.rbo_coboundary_matrix(rc2, 1)
        expected = [[fr(0)] * 4 for _ in range(6)]
        expected[1][1] = fr(-1)
        expected[5][1] = fr(-1)
        assert m == ly.Matrix(expected)

    def test_composite_vanishes(self, rc2, rc4):
        for rc in (rc2, rc4):
            m0 = ly.rbo_coboundary_matrix(rc, 0)
            m1 = ly.rbo_coboundary_matrix(rc, 1)
            m2 = ly.rbo_coboundary_matrix(rc, 2)
            assert (m1 @ m0).is_zero()
            assert (m2 @ m1).is_zero()

    def test_kernel_basis(self, rc2):
        _, kernel = ly.rank_kernel(ly.rbo_coboundary_matrix(rc2, 1))
        assert kernel == [
            (fr(1), fr(0), fr(0), fr(0)),
            (fr(0), fr(0), fr(1), fr(0)),
            (fr(0), fr(0), fr(0), fr(1)),
        ]

    def test_expanded_formula_matches_generic(self, rc2, rc4, dim2: Model, dim4: Model,
                                              dim4_rational: Model, sl2_standard: Model):
        # the t^1 coefficient of the identities for T + t f is delta^1 f, with
        # a + sign, also for a written-out non-adjoint representation and with
        # denominators in every table
        rng = random.Random(13)
        cases = [(rc2, dim2), (rc4, dim4)]
        cases += [(ly.RboComplex.build(m.op), m) for m in (dim4_rational, sl2_standard)]
        for rc, model in cases:
            n = ly.cochain_dim(rc.ctx, 1)
            for _ in range(10):
                flat = tuple(fr(rng.randint(-4, 4), rng.randint(1, 3))
                             for _ in range(n))
                c = ly.Cochain.from_flat(rc.ctx, 1, flat)
                expanded = ly.rbo_delta1_expanded(model.op, c)
                assert expanded.flatten() == ly.coboundary(rc.ctx, c).flatten()

    def test_expanded_rejects_wrong_degree(self, rc2, dim2: Model):
        c2 = ly.Cochain.zero(rc2.ctx, 2)
        with pytest.raises(ValueError, match="degree-1"):
            ly.rbo_delta1_expanded(dim2.op, c2)


class TestDims:
    def test_small_fixture(self, rc2):
        s1 = ly.rbo_cohomology_dims(rc2, 1)
        assert (s1.dim_cochains, s1.dim_cocycles,
                s1.dim_coboundaries, s1.dim_h) == (4, 3, 1, 2)
        s2 = ly.rbo_cohomology_dims(rc2, 2)
        assert (s2.dim_cochains, s2.dim_cocycles,
                s2.dim_coboundaries, s2.dim_h) == (6, 4, 1, 3)

    def test_coboundaries_inside_cocycles(self, rc2, rc4):
        for rc in (rc2, rc4):
            for p in (1, 2):
                s = ly.rbo_cohomology_dims(rc, p)
                assert 0 <= s.dim_coboundaries <= s.dim_cocycles <= s.dim_cochains
                assert s.dim_h == s.dim_cocycles - s.dim_coboundaries

    def test_degree_must_be_positive(self, rc2):
        with pytest.raises(ValueError, match=">= 1"):
            ly.rbo_cohomology_dims(rc2, 0)
        with pytest.raises(ValueError, match=">= 0"):
            ly.rbo_coboundary_matrix(rc2, -1)

    def test_rank_only_path_agrees_with_rank_kernel(self, rc2, rc4, dim4_rational: Model,
                                                    sl2_standard: Model):
        rcs = [rc2, rc4] + [ly.RboComplex.build(m.op) for m in (dim4_rational, sl2_standard)]
        for rc in rcs:
            ranks = [ly.rank_kernel(ly.rbo_coboundary_matrix(rc, p))[0] for p in range(3)]
            for p in (1, 2):
                dim_c = ly.cochain_dim(rc.ctx, p)
                dim_z = dim_c - ranks[p]
                assert ly.rbo_cohomology_dims(rc, p) == ly.CohomologySummary(
                    p, dim_c, dim_z, ranks[p - 1], dim_z - ranks[p - 1])

    def test_builds_no_matrix(self, dim4: Model, monkeypatch):
        expected = [ly.rbo_cohomology_dims(ly.RboComplex.build(dim4.op), p) for p in (1, 2)]
        # a new induced representation: its tables, D among them, are built under the spy
        rc = ly.RboComplex.build(dim4.op)
        built = []
        init = ly.Matrix.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ly.Matrix, "__init__", spy)
        assert [ly.rbo_cohomology_dims(rc, p) for p in (1, 2)] == expected
        assert not built
