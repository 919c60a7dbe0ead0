"""The cochain complex attached to an algebra with a representation."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import lieyamaguti as ly
from conftest import Model, conjugated_lie_lya, fr, random_valid_pair, sl2_sum_operator
from lieyamaguti import linalg
from lieyamaguti.complexes import _coboundary_rows, _echelon, _preimage
from reference_coboundary import coboundary as replaced_coboundary
from reference_coboundary import reference_coboundary, reference_coboundary_matrix
import reference_linalg as ref_linalg

rationals = st.builds(fr, st.integers(-6, 6), st.integers(1, 4))


def _assert_matches_reference(ctx: ly.ComplexContext, p: int, rng: random.Random) -> None:
    assert ly.coboundary_matrix(ctx, p) == reference_coboundary_matrix(ctx, p)
    for _ in range(3):
        flat = tuple(fr(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(ly.cochain_dim(ctx, p)))
        c = ly.Cochain.from_flat(ctx, p, flat)
        assert ly.coboundary(ctx, c) == reference_coboundary(ctx, c)


@pytest.fixture(scope="module")
def ctx2(dim2: Model) -> ly.ComplexContext:
    return ly.ComplexContext(dim2.algebra, dim2.rep)


class TestContext:
    def test_sizes(self, ctx2):
        assert (ctx2.m, ctx2.v, ctx2.w) == (2, 2, 1)
        assert ctx2.wedge == ((0, 1),)
        assert ctx2.wedge_index(0, 1) == 0

    def test_wedge_basis(self):
        assert ly.wedge_basis(3) == ((0, 1), (0, 2), (1, 2))
        assert ly.wedge_basis(1) == ()

    def test_validation_gate(self, dim2: Model, bad_rep):
        with pytest.raises(ly.InvalidRepresentation):
            ly.ComplexContext(dim2.algebra, bad_rep)
        # opt-out constructs anyway
        ctx = ly.ComplexContext(dim2.algebra, bad_rep, validate=False)
        assert ctx.v == 2

    def test_cochain_dims(self, ctx2, dim4: Model):
        assert [ly.cochain_dim(ctx2, p) for p in (1, 2, 3)] == [4, 6, 6]
        ctx4 = ly.ComplexContext(dim4.algebra, dim4.rep)
        # dim 4: m=4, v=4, w=6, so p=1 -> 16, p=2 -> 6*4*5 = 120
        assert ly.cochain_dim(ctx4, 1) == 16
        assert ly.cochain_dim(ctx4, 2) == 120
        with pytest.raises(ValueError):
            ly.cochain_dim(ctx2, 0)


class TestCochain:
    def test_roundtrip_fixed(self, ctx2):
        flat = tuple(fr(k) for k in (1, 2, 3, 4, 5, 6))
        c = ly.Cochain.from_flat(ctx2, 2, flat)
        assert c.degree == 2
        assert c.flatten() == flat

    @settings(deadline=None, max_examples=30)
    @given(degree=st.integers(1, 3), data=st.data())
    def test_roundtrip_random(self, ctx2, degree, data):
        n = ly.cochain_dim(ctx2, degree)
        flat = tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))
        c = ly.Cochain.from_flat(ctx2, degree, flat)
        assert c.flatten() == flat
        assert c.is_zero() == all(x == 0 for x in flat)

    def test_wrong_length(self, ctx2):
        with pytest.raises(ValueError):
            ly.Cochain.from_flat(ctx2, 1, (fr(1),) * 5)

    def test_zero_and_matrix_view(self, ctx2):
        z = ly.Cochain.zero(ctx2, 1)
        assert z.is_zero()
        m = ly.Cochain.from_flat(ctx2, 1, (fr(1), fr(2), fr(3), fr(4))).as_matrix()
        # columns are images of basis vectors
        assert m.column(0) == (fr(1), fr(2))
        assert m.column(1) == (fr(3), fr(4))

    def test_zero_dimensional_module(self, dim2: Model):
        # every value vector is (); the cochains still have their m, w^n and
        # w^n m values, and the differential maps them to zero
        ctx = ly.ComplexContext(dim2.algebra, ly.zero_rep(dim2.algebra, 0))
        for p, shape in ((1, (2, None)), (2, (1, 2)), (3, (1, 2))):
            z = ly.Cochain.from_flat(ctx, p, ())
            assert z == ly.Cochain.zero(ctx, p) and z.is_zero()
            assert (len(z.f_part), None if z.g_part is None else len(z.g_part)) == shape
            assert set(z.f_part + (z.g_part or ())) == {()}
            assert ly.coboundary(ctx, z) == ly.Cochain.zero(ctx, p + 1)


class TestCoboundary:
    def test_degree1_matrix_frozen(self, ctx2):
        m = ly.coboundary_matrix(ctx2, 1)
        assert m.entries == (
            (fr(0), fr(0), fr(0), fr(1)),
            (fr(0), fr(-1), fr(0), fr(0)),
            (fr(0), fr(1), fr(0), fr(0)),
            (fr(0), fr(0), fr(0), fr(0)),
            (fr(0), fr(0), fr(0), fr(2)),
            (fr(0), fr(-1), fr(0), fr(0)),
        )

    def test_identity_cochain_image(self, ctx2):
        ident = ly.Cochain.from_flat(ctx2, 1, (fr(1), fr(0), fr(0), fr(1)))
        image = ly.coboundary(ctx2, ident)
        assert image.flatten() == (fr(1), fr(0), fr(0), fr(0), fr(2), fr(0))

    def test_matrix_agrees_with_map(self, ctx2, dim2: Model, dim4: Model):
        # the matrix and the map both read one assembler; the reference
        # evaluates every term of delta on cochains instead
        start = time.monotonic()
        contexts = [ctx2, ly.ComplexContext(dim4.algebra, dim4.rep),
                    ly.RboComplex.build(dim2.op).ctx,
                    ly.RboComplex.build(dim4.op).ctx]
        rng = random.Random(3)
        for ctx in contexts:
            for p in (1, 2):
                _assert_matches_reference(ctx, p, rng)
        assert time.monotonic() - start < 60.0

    def test_matrix_agrees_with_map_random(self):
        start = time.monotonic()
        rng = random.Random(23)
        pairs = 0
        while pairs < 4:
            a, r = random_valid_pair(rng)
            if a.dim > 3 or r.dim_v > 3:
                continue
            pairs += 1
            ctx = ly.ComplexContext(a, r)
            for p in (1, 2, 3):
                _assert_matches_reference(ctx, p, rng)
        assert time.monotonic() - start < 60.0

    def test_malformed_cochain(self, ctx2):
        z = fr(0)
        with pytest.raises(ValueError, match="malformed degree-1"):
            ly.coboundary(ctx2, ly.Cochain(1, ((z, z),), None))
        with pytest.raises(ValueError, match="malformed degree-2"):
            ly.coboundary(ctx2, ly.Cochain(2, ((z, z),), None))
        with pytest.raises(ValueError, match="malformed degree-2"):
            ly.coboundary(ctx2, ly.Cochain(2, ((z, z),), ((z,), (z, z))))
        with pytest.raises(ValueError, match="malformed degree-1"):   # g_part is None at degree 1
            ly.coboundary(ctx2, ly.Cochain(1, ((z, z), (z, z)), ()))
        with pytest.raises(ValueError, match="at least 1"):
            ly.coboundary(ctx2, ly.Cochain(0, (), None))

    def test_degree_mismatch(self, ctx2):
        with pytest.raises(ValueError):
            ly.coboundary_matrix(ctx2, 0)

    def test_square_zero_fixture(self, ctx2, dim4: Model):
        start = time.monotonic()
        ctx4 = ly.ComplexContext(dim4.algebra, dim4.rep)
        for ctx in (ctx2, ctx4):
            m1, m2, m3 = (ly.coboundary_matrix(ctx, p) for p in (1, 2, 3))
            assert (m2 @ m1).is_zero()
            assert (m3 @ m2).is_zero()
        assert time.monotonic() - start < 60.0

    def test_square_zero_random(self):
        start = time.monotonic()
        rng = random.Random(41)
        for _ in range(6):
            a, r = random_valid_pair(rng)
            if a.dim > 3 or r.dim_v > 3:
                continue
            ctx = ly.ComplexContext(a, r)
            m1, m2, m3 = (ly.coboundary_matrix(ctx, p) for p in (1, 2, 3))
            assert (m2 @ m1).is_zero()
            assert (m3 @ m2).is_zero()
        assert time.monotonic() - start < 60.0


class TestCohomologyDims:
    def test_degree1_fixture(self, ctx2):
        s = ly.cohomology_dims(ctx2, 1)
        assert (s.degree, s.dim_cochains, s.dim_cocycles,
                s.dim_coboundaries, s.dim_h) == (1, 4, 2, 0, 2)

    def test_bare_degree1_has_no_coboundaries(self, ctx2):
        # nothing sits below degree 1 in the bare complex
        s = ly.cohomology_dims(ctx2, 1)
        assert s.dim_coboundaries == 0

    def test_quotient_consistency(self, ctx2):
        for p in (1, 2):
            s = ly.cohomology_dims(ctx2, p)
            assert s.dim_h == s.dim_cocycles - s.dim_coboundaries
            assert 0 <= s.dim_coboundaries <= s.dim_cocycles <= s.dim_cochains


def _integer_row_contexts(dim2: Model, dim4_rational: Model, sl2_standard: Model):
    """(context, degrees): the fixtures, the operator complex of sl2, and sl2
    and Heisenberg conjugated by integer matrices whose inverses have
    denominators, so that q > 1 on three of them. The degrees keep the
    term-by-term reference to a few seconds."""
    rng = random.Random(61)
    out = [(ly.ComplexContext(dim2.algebra, dim2.rep), (1, 2, 3)),
           (ly.ComplexContext(sl2_standard.algebra, sl2_standard.rep), (1, 2)),
           (ly.RboComplex.build(sl2_standard.op).ctx, (1, 2)),
           (ly.ComplexContext(dim4_rational.algebra, dim4_rational.rep), (1,))]
    for family, degrees in (("sl2", (1, 2)), ("heisenberg", (1, 2, 3))):
        while True:
            a = conjugated_lie_lya(rng, family)
            if ly.adjoint_rep(a).tables().q > 1:
                out.append((ly.ComplexContext(a, ly.adjoint_rep(a)), degrees))
                break
    return out


class TestIntegerRows:
    """`_coboundary_rows` emits integer rows, Q = q^2 times the exact ones,
    and the dimensions come from their ranks alone."""

    def test_rows_over_q_equal_the_reference(self, dim2, dim4_rational, sl2_standard):
        start = time.monotonic()
        scales = []
        for ctx, degrees in _integer_row_contexts(dim2, dim4_rational, sl2_standard):
            q = ctx.rep.tables().q
            scales.append(q)
            for p in degrees:
                qq, rows = _coboundary_rows(ctx, p)
                assert qq == q * q
                assert all(type(x) is int and x for row in rows for x in row.values())
                ref = reference_coboundary_matrix(ctx, p)
                assert len(rows) == ref.rows
                dense = tuple(tuple(Fraction(row.get(k, 0), qq) for k in range(ref.cols))
                              for row in rows)
                assert dense == ref.entries
        assert sum(1 for q in scales if q > 1) >= 3
        assert time.monotonic() - start < 60.0

    def test_rows_of_the_sl2_lifts_equal_the_reference(self):
        # on sl2 + sl2 the matrices of one block's elements on the other
        # block are zero, and the rows skip them
        for k, degrees in ((1, (1, 2)), (2, (1,))):
            o = sl2_sum_operator(k)
            for ctx in (ly.ComplexContext(o.algebra, o.rep), ly.RboComplex.build(o).ctx):
                _, _, _, rho, mu, d = ctx.rep.tables()
                mats = rho + [cols for table in (mu, d) for row in table for cols in row]
                assert k == 1 or any(not any(cols) for cols in mats)
                for p in degrees:
                    qq, rows = _coboundary_rows(ctx, p)
                    ref = reference_coboundary_matrix(ctx, p)
                    dense = tuple(tuple(Fraction(row.get(col, 0), qq) for col in range(ref.cols))
                                  for row in rows)
                    assert dense == ref.entries

    def test_empty_rows_never_reach_the_elimination(self, dim2, dim4, monkeypatch):
        # most rows of a sparse coboundary are empty; `_rref` drops them, and
        # ranks, RREFs, kernels and preimages are those of all the rows
        received = []
        modular = linalg._rref_mod

        def spy(rows, *args):
            received.append(rows)
            return modular(rows, *args)

        monkeypatch.setattr(linalg, "_rref_mod", spy)
        rng = random.Random(79)
        contexts = [ly.ComplexContext(dim2.algebra, dim2.rep),
                    ly.ComplexContext(dim4.algebra, dim4.rep)]
        for k in (1, 2):
            o = sl2_sum_operator(k)
            contexts += [ly.ComplexContext(o.algebra, o.rep), ly.RboComplex.build(o).ctx]
        empty = 0
        for ctx in contexts:
            for p in (1, 2):
                rows, dim = _coboundary_rows(ctx, p)[1], ly.cochain_dim(ctx, p)
                empty += sum(1 for row in rows if not row)
                basis, exact = linalg._rref(rows), ref_linalg._rref_exact(rows)
                assert basis == exact
                assert linalg._kernel(basis, dim) == linalg._kernel(exact, dim)
                x = ly.Cochain.from_flat(ctx, p, tuple(fr(rng.randint(-3, 3)) for _ in range(dim)))
                c = ly.coboundary(ctx, x)
                got = _preimage(ctx, c)
                with monkeypatch.context() as m:
                    m.setattr(linalg, "_rref", ref_linalg._rref_exact)
                    assert got == _preimage(ctx, c)
                assert ly.coboundary(ctx, ly.Cochain.from_flat(ctx, p, got)) == c
        assert empty and received
        assert all(row for rows in received for row in rows)

    def test_rank_only_path_agrees_with_rank_kernel(self, dim2, dim4, dim4_rational,
                                                    sl2_standard):
        contexts = [ctx for ctx, _ in _integer_row_contexts(dim2, dim4_rational, sl2_standard)]
        for ctx in contexts + [ly.ComplexContext(dim4.algebra, dim4.rep)]:
            top = 2 if ctx.m > 3 else 3
            ranks = {p: ly.rank_kernel(ly.coboundary_matrix(ctx, p))[0]
                     for p in range(1, top + 1)}
            for p in range(1, top + 1):
                assert len(_echelon(ctx, p)) == ranks[p]
                dim_c = ly.cochain_dim(ctx, p)
                dim_b = ranks[p - 1] if p >= 2 else 0
                assert ly.cohomology_dims(ctx, p) == ly.CohomologySummary(
                    p, dim_c, dim_c - ranks[p], dim_b, dim_c - ranks[p] - dim_b)

    def test_coboundary_equals_the_replaced_fraction_map(self, dim2, dim4_rational,
                                                         sl2_standard):
        # the map scales a cochain to integers, so denominators in both the
        # structure (q > 1) and the cochain must come out as before
        start = time.monotonic()
        rng = random.Random(67)
        scales = []
        for ctx, degrees in _integer_row_contexts(dim2, dim4_rational, sl2_standard):
            scales.append(ctx.rep.tables().q)
            for p in degrees:
                dim = ly.cochain_dim(ctx, p)
                flats = [(fr(0),) * dim, tuple(fr(int(k == dim // 2)) for k in range(dim))]
                flats += [tuple(fr(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 9, 35)))
                                if rng.random() < density else fr(0) for _ in range(dim))
                          for density in (0.2, 1.0)]
                for flat in flats:
                    c = ly.Cochain.from_flat(ctx, p, flat)
                    got = ly.coboundary(ctx, c)
                    assert got == replaced_coboundary(ctx, c)
                    assert all(type(x) is Fraction for x in got.flatten())
        assert sum(1 for q in scales if q > 1) >= 3
        assert time.monotonic() - start < 60.0

    def test_malformed_cochains_fail_as_in_the_replaced_map(self, ctx2):
        z = fr(0)
        for c in (ly.Cochain(1, ((z, z),), None), ly.Cochain(2, ((z, z),), None),
                  ly.Cochain(2, ((z, z),), ((z,), (z, z))), ly.Cochain(0, (), None),
                  ly.Cochain(1, ((z,), (z, z)), None), ly.Cochain(1, ((z, z), (z, z)), ())):
            with pytest.raises(ValueError) as want:
                replaced_coboundary(ctx2, c)
            with pytest.raises(ValueError, match=f"^{want.value}$"):
                ly.coboundary(ctx2, c)

    def test_cohomology_dims_builds_no_matrix(self, dim4: Model, monkeypatch):
        # checking and reading a new copy of the representation builds its
        # tables, D among them, under the spy
        a, r = dim4.algebra, dim4.rep
        rng = range(a.dim)
        expected = [ly.cohomology_dims(ly.ComplexContext(a, r), p) for p in (1, 2)]
        fresh = ly.Representation(a, r.dim_v, [r.rho(i) for i in rng],
                                  [[r.mu(i, j) for j in rng] for i in rng])
        built = []
        init = ly.Matrix.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ly.Matrix, "__init__", spy)
        ctx = ly.ComplexContext(a, fresh)
        assert [ly.cohomology_dims(ctx, p) for p in (1, 2)] == expected
        assert not built
