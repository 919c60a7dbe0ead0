"""Exact linear algebra: frozen examples plus algebraic properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_linalg as ref
from conftest import Model, conjugated_lie_lya, transport
from lieyamaguti import (
    ComplexContext,
    Matrix,
    RboComplex,
    adjoint_rep,
    coboundary_matrix,
    commutator,
    inverse,
    is_zero_vector,
    rank_kernel,
    rat,
    rat_str,
    rbo_coboundary_matrix,
    solve_linear,
    vadd,
    vneg,
    vscale,
    vsub,
    vzero,
)
from lieyamaguti import linalg
from lieyamaguti.complexes import _coboundary_rows
from lieyamaguti.linalg import P


def fr(*args):
    return Fraction(*args)


rationals = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


def matrices(rows, cols):
    return st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Matrix)


class TestRat:
    def test_coercions(self):
        assert rat(3) == fr(3)
        assert rat("-7/2") == fr(-7, 2)
        assert rat("5") == fr(5)
        assert rat(fr(2, 4)) == fr(1, 2)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_rat_str(self):
        assert rat_str(fr(3, 2)) == "3/2"
        assert rat_str(fr(-4, 2)) == "-2"
        assert rat_str(fr(0)) == "0"


class TestVectors:
    def test_arithmetic(self):
        u, v = (fr(1), fr(2)), (fr(3), fr(-1))
        assert vadd(u, v) == (fr(4), fr(1))
        assert vsub(u, v) == (fr(-2), fr(3))
        assert vneg(u) == (fr(-1), fr(-2))
        assert vscale(fr(1, 2), u) == (fr(1, 2), fr(1))
        assert is_zero_vector(vzero(3))
        assert not is_zero_vector(u)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vadd((fr(1),), (fr(1), fr(2)))


class TestMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Matrix([[fr(1)], [fr(1), fr(2)]])
        with pytest.raises(ValueError):
            Matrix([], cols=None)
        assert Matrix([], cols=3).cols == 3

    def test_immutable(self):
        m = Matrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 5

    def test_apply_and_matmul(self):
        m = Matrix(((fr(1), fr(2)), (fr(0), fr(1))))
        assert m.apply((fr(1), fr(1))) == (fr(3), fr(1))
        assert (m @ m).entries == ((fr(1), fr(4)), (fr(0), fr(1)))
        with pytest.raises(ValueError):
            m.apply((fr(1),))

    def test_from_columns(self):
        m = Matrix.from_columns([(fr(1), fr(0)), (fr(2), fr(3))])
        assert m.column(1) == (fr(2), fr(3))
        assert Matrix.from_columns([], rows=2).cols == 0
        # the entries are coerced once, by the constructor, and floats are refused
        for bad in ([(fr(1), 0.5)], [(1.0,), (fr(2),)]):
            with pytest.raises(TypeError, match="not an exact rational"):
                Matrix.from_columns(bad)

    def test_commutator(self):
        a = Matrix(((fr(0), fr(1)), (fr(0), fr(0))))
        b = Matrix(((fr(1), fr(0)), (fr(0), fr(-1))))
        assert commutator(a, b) == (a @ b) - (b @ a)
        assert commutator(a, a).is_zero()


class TestRankKernel:
    def test_frozen_examples(self):
        rank, kernel = rank_kernel(Matrix(((fr(1), fr(2)), (fr(2), fr(4)))))
        assert rank == 1
        assert kernel == [(fr(-2), fr(1))]

        rank, kernel = rank_kernel(Matrix.identity(2))
        assert (rank, kernel) == (2, [])

        rank, kernel = rank_kernel(Matrix.zero(2, 2))
        assert rank == 0
        assert kernel == [(fr(1), fr(0)), (fr(0), fr(1))]

    @settings(deadline=None)
    @given(matrices(3, 4))
    def test_rank_nullity_and_kernel(self, m):
        rank, kernel = rank_kernel(m)
        assert rank + len(kernel) == m.cols
        for k in kernel:
            assert is_zero_vector(m.apply(k))


class TestSolve:
    def test_inconsistent(self):
        a = Matrix(((fr(1), fr(1)), (fr(1), fr(1))))
        assert solve_linear(a, (fr(0), fr(1))) is None

    def test_rhs_length(self):
        with pytest.raises(ValueError):
            solve_linear(Matrix.identity(2), (fr(1),))

    @settings(deadline=None)
    @given(matrices(3, 3), st.lists(rationals, min_size=3, max_size=3))
    def test_solutions_solve(self, m, x):
        b = m.apply(tuple(x))
        s = solve_linear(m, b)
        assert s is not None
        assert m.apply(s) == b


class TestInverse:
    def test_singular(self):
        with pytest.raises(ValueError):
            inverse(Matrix(((fr(1), fr(2)), (fr(2), fr(4)))))
        with pytest.raises(ValueError):
            inverse(Matrix([[fr(1), fr(2)]]))

    @settings(deadline=None)
    @given(matrices(3, 3))
    def test_roundtrip(self, m):
        rank, _ = rank_kernel(m)
        if rank < 3:
            with pytest.raises(ValueError):
                inverse(m)
        else:
            mi = inverse(m)
            assert m @ mi == Matrix.identity(3)
            assert mi @ m == Matrix.identity(3)


sparse_entries = st.one_of(st.just(Fraction(0)), rationals)


@st.composite
def shaped_matrices(draw, max_dim=7):
    """Tall, wide, square and empty shapes; sparse entries, with some rows
    and columns forced to zero; or a product of two factors through a
    smaller inner dimension, so the rank is deficient."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    if draw(st.booleans()):
        inner = draw(st.integers(0, min(rows, cols)))
        left = draw(st.lists(st.lists(rationals, min_size=inner, max_size=inner),
                             min_size=rows, max_size=rows))
        right = draw(st.lists(st.lists(rationals, min_size=cols, max_size=cols),
                              min_size=inner, max_size=inner))
        return Matrix(left, cols=inner) @ Matrix(right, cols=cols)
    cells = draw(st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return Matrix([[Fraction(0) if i in zero_rows or j in zero_cols else x
                    for j, x in enumerate(row)] for i, row in enumerate(cells)], cols=cols)


def _inverse_or_error(inv, m):
    try:
        return inv(m)
    except ValueError as exc:
        return str(exc)


def _assert_matches_reference(m, rhs=()):
    assert rank_kernel(m) == ref.rank_kernel(m)
    for b in rhs:
        assert solve_linear(m, b) == ref.solve_linear(m, b)
    assert _inverse_or_error(inverse, m) == _inverse_or_error(ref.inverse, m)


class TestAgainstDenseReference:
    """The reduced row echelon form is unique, so the sparse elimination must
    reproduce the dense Gauss-Jordan reference exactly: the rank, the kernel
    basis in order, the zero-free-variable solution and the inverse."""

    @settings(deadline=None, max_examples=300)
    @given(shaped_matrices(), st.data())
    def test_random_shapes(self, m, data):
        x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
        other = data.draw(st.lists(sparse_entries, min_size=m.rows, max_size=m.rows))
        consistent = m.apply(tuple(x))
        assert solve_linear(m, consistent) is not None
        _assert_matches_reference(m, (consistent, tuple(other)))

    def test_inconsistent_rhs(self):
        m = Matrix(((fr(1), fr(2), fr(0)), (fr(2), fr(4), fr(0)), (fr(0), fr(0), fr(0))))
        for b in ((fr(1), fr(3), fr(0)), (fr(0), fr(0), fr(1))):
            assert solve_linear(m, b) is None
            _assert_matches_reference(m, (b,))

    def test_degenerate_shapes(self):
        for m in (Matrix([], cols=0), Matrix([], cols=3), Matrix([[], []], cols=0)):
            _assert_matches_reference(m, (tuple(fr(0) for _ in range(m.rows)),))
        assert solve_linear(Matrix([[], []], cols=0), (fr(0), fr(1))) is None

    def test_coboundary_matrices(self, dim4: Model):
        bare = coboundary_matrix(ComplexContext(dim4.algebra, dim4.rep), 2)
        rc = RboComplex.build(dim4.op)
        for m in (bare, rbo_coboundary_matrix(rc, 0), rbo_coboundary_matrix(rc, 1)):
            # a column of m is a consistent right-hand side; these matrices
            # have rank below their row count, so some unit vector is not
            units = [tuple(fr(int(i == r)) for i in range(m.rows)) for r in range(m.rows)]
            inconsistent = next(u for u in units if ref.solve_linear(m, u) is None)
            _assert_matches_reference(m, (m.column(m.cols - 1), inconsistent))

    def test_unlucky_prime(self):
        # rows that vanish or coincide modulo P: the modular rank is 1, the
        # rational rank 2, and only the rows the modular pass drops show it
        for m in (Matrix(((fr(P), fr(0)), (fr(0), fr(1)))),
                  Matrix(((fr(1), fr(2), fr(3)), (fr(1), fr(2 + P), fr(3))))):
            assert rank_kernel(m)[0] == 2
            _assert_matches_reference(m, (m.column(0), tuple(fr(1) for _ in range(m.rows))))

    def test_entries_beyond_the_lift_bound(self):
        # the RREF entry -(2**40 + 1)/3 lifts to a wrong small fraction,
        # which only the certificate rejects
        big = fr(2**40 + 1, 3)
        m = Matrix(((fr(3), fr(-(2**40 + 1))), (fr(6), fr(-(2**41 + 2)))))
        assert rank_kernel(m) == (1, [(big, fr(1))])
        _assert_matches_reference(m, ((fr(1), fr(2)), (fr(1), fr(1))))
        n = Matrix(((fr(2**40 + 1), fr(1), fr(0)), (fr(0), fr(3), fr(1, 7)), (fr(1), fr(0), fr(1))))
        _assert_matches_reference(n, ((fr(1), fr(1), fr(1)),))


class TestCertifiedModularElimination:
    """`_rref` falls back to the exact `Fraction` elimination exactly when
    the modular result is not certified."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        exact = linalg._rref_exact

        def spy(rows):
            calls.append(rows)
            return exact(rows)

        monkeypatch.setattr(linalg, "_rref_exact", spy)
        return calls

    def test_unlucky_prime_and_large_entries_fall_back(self, fallbacks):
        for m in (Matrix(((fr(P), fr(0)), (fr(0), fr(1)))),
                  Matrix(((fr(3), fr(-(2**40 + 1))),))):
            before = len(fallbacks)
            rank_kernel(m)
            assert len(fallbacks) == before + 1

    def test_integer_rows_reach_the_fallback(self, fallbacks):
        # the rank-only entry takes integer rows as they come (coboundary rows
        # are Q times the exact ones): a row that vanishes or repeats modulo P
        # hides rank there, and only the certificate shows it
        assert len(linalg._rref([{0: P}, {1: 1}])) == 2
        assert len(fallbacks) == 1
        assert len(linalg._rref([{0: 1, 1: 2, 2: 3}, {0: 1, 1: 2 + P, 2: 3}])) == 2
        assert len(fallbacks) == 2
        assert len(linalg._rref([{0: 2, 1: -4}, {0: -3, 1: 6}, {1: 5}])) == 2
        assert len(linalg._rref([])) == 0
        assert len(fallbacks) == 2

    def test_lift_bound(self, fallbacks):
        # numerators and denominators up to isqrt(P // 2) lift; one more does not
        bound = linalg._BOUND
        assert 2 * bound * bound < P <= 2 * (bound + 1) ** 2
        for x in (fr(bound), fr(-1, bound), fr(-bound, bound - 2)):
            assert rank_kernel(Matrix(((fr(1), -x),))) == (1, [(x, fr(1))])
        assert not fallbacks
        for x in (fr(bound + 1), fr(1, bound + 1)):
            assert rank_kernel(Matrix(((fr(1), -x),))) == (1, [(x, fr(1))])
        assert len(fallbacks) == 2

    def test_dense_coboundary_matrix_is_certified(self, dim4: Model, fallbacks):
        # a dense unimodular change of basis fills the degree-2 matrix with
        # entries of several bits; its RREF stays within the lift bound
        lower = Matrix(((1, 0, 0, 0), (2, 1, 0, 0), (-1, 1, 1, 0), (1, -2, 1, 1)))
        upper = Matrix(((1, 1, -1, 2), (0, 1, 2, -1), (0, 0, 1, 1), (0, 0, 0, 1)))
        p = lower @ upper
        a, _ = transport(dim4.algebra, dim4.rep, p, p)
        m = coboundary_matrix(ComplexContext(a, adjoint_rep(a)), 2)
        native = coboundary_matrix(ComplexContext(dim4.algebra, dim4.rep), 2)
        assert sum(1 for row in m.entries for x in row if x) > 10 * sum(
            1 for row in native.entries for x in row if x)
        rank, kernel = rank_kernel(m)
        assert not fallbacks
        assert rank == rank_kernel(native)[0]
        assert rank + len(kernel) == m.cols
        for k in kernel:
            assert is_zero_vector(m.apply(k))


def _low_rank_rows(rng, ncols, rank, nrows, big=False):
    """Seeded tall integer rows of rank at most `rank`: combinations of
    `rank` sparse generators, with duplicates, rows that vanish modulo P,
    and rows equal modulo P to a combination but not over Q."""
    span = 2**40 if big else 9
    gens = [{c: rng.choice((-1, 1)) * rng.randint(1, span)
             for c in rng.sample(range(ncols), rng.randint(1, ncols))} for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        row = {}
        for g in rng.sample(gens, rng.randint(1, rank)):
            k = rng.randint(-3, 3)
            for c, x in g.items():
                row[c] = row.get(c, 0) + k * x
        rows.append({c: x for c, x in row.items() if x})
    rows += [dict(rng.choice(rows)) for _ in range(nrows // 4)]
    rows.append({c: P * rng.randint(1, 3) for c in rng.sample(range(ncols), min(2, ncols))})
    if rng.random() < 0.3:
        c, row = rng.randrange(ncols), dict(rng.choice(gens))
        row[c] = row.get(c, 0) + P
        rows.append(row)
    rng.shuffle(rows)
    return rows


class TestSkippedRowsAndPackedCertificate:
    """`_rref_mod` skips a row whose weighted sum vanishes, and `_certified`
    checks every row in one packed integer sum; `_rref` stays exact."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        calls = []
        exact = linalg._rref_exact

        def spy(rows):
            calls.append(rows)
            return exact(rows)

        monkeypatch.setattr(linalg, "_rref_exact", spy)
        return calls

    def test_tall_low_rank_rows(self):
        rng = random.Random(71)
        for case in range(60):
            ncols = rng.randint(1, 12)
            rows = _low_rank_rows(rng, ncols, rng.randint(1, min(ncols, 5)),
                                  rng.randint(4, 40), big=case % 5 == 4)
            assert linalg._rref(rows) == linalg._rref_exact(rows)
            # skipping rows of the span leaves the modular form as it was, and
            # so does reducing the back-elimination only once
            assert linalg._rref_mod(rows) == ref._rref_mod(rows) == ref._rref_mod_eager(rows)

    def test_no_skipped_rows_fall_back_on_coboundary_rows(self, dim4: Model, fallbacks):
        ctx = ComplexContext(dim4.algebra, dim4.rep)
        for p in (1, 2):
            rows = linalg._int_rows(coboundary_matrix(ctx, p).entries)
            basis = linalg._rref(rows)
            assert not fallbacks
            assert basis == linalg._rref_exact(rows)
            assert linalg._rref_mod(rows) == ref._rref_mod_eager(rows)
            fallbacks.clear()

    def test_deferred_back_elimination_on_dense_coboundary_rows(self):
        # sl2 in a seeded dense basis: delta^2 has rank 29, so each pivot row
        # takes many back-elimination updates before the pass returns
        rng = random.Random(73)
        a = conjugated_lie_lya(rng, "sl2")
        ctx = ComplexContext(a, adjoint_rep(a))
        for p in (1, 2):
            rows = _coboundary_rows(ctx, p)[1]
            modular = linalg._rref_mod(rows)
            assert modular == ref._rref_mod_eager(rows)
            assert all(0 < u < P for row in modular.values() for u in row.values())

    @pytest.mark.parametrize("rows,pivots", [
        # weights all 1: {1: 1, 2: -1} sums to 0, yet it is independent, and
        # its free column 2 is held by no pivot row
        ([{0: 1}, {1: 1, 2: -1}], {0: {}, 1: {2: fr(-1)}}),
        # the weights become (-2, -2, 1, 1): the last row sums to 0, and holds
        # only pivot columns and free columns the pivot rows hold, so its
        # packed sum is what rejects it
        ([{0: 1, 2: 1, 3: 1}, {1: 1, 2: 1, 3: 1}, {0: 1, 1: -1, 2: 1, 3: -1}],
         {0: {3: fr(2)}, 1: {3: fr(2)}, 2: {3: fr(-1)}}),
    ])
    def test_a_false_skip_is_caught(self, monkeypatch, fallbacks, rows, pivots):
        monkeypatch.setattr(linalg._Weights, "__missing__", lambda w, c: w.setdefault(c, 1))
        skipped = linalg._rref_mod(rows)
        assert len(skipped) == len(pivots) - 1
        lifted = {pc: {c: fr(u) if u <= P // 2 else fr(u - P) for c, u in row.items()}
                  for pc, row in skipped.items()}
        assert not linalg._certified(rows, lifted)
        assert not ref._certified(rows, lifted)
        assert linalg._rref(rows) == pivots
        assert len(fallbacks) == 1

    def test_packed_certificate_agrees_with_the_reference(self):
        rng = random.Random(72)
        checked = rejected = 0
        for _ in range(40):
            ncols = rng.randint(2, 10)
            rows = _low_rank_rows(rng, ncols, rng.randint(1, min(ncols, 4)), rng.randint(3, 25))
            basis = linalg._rref_exact(rows)
            assert linalg._certified(rows, basis) and ref._certified(rows, basis)
            entries = [(pc, c) for pc, row in basis.items() for c in row]
            if not entries:
                continue
            pc, c = rng.choice(entries)
            for bump in (fr(1), fr(1, 7), -basis[pc][c]):
                bad = {p: dict(row) for p, row in basis.items()}
                bad[pc][c] += bump
                if not bad[pc][c]:
                    del bad[pc][c]
                verdict = linalg._certified(rows, bad)
                assert verdict == ref._certified(rows, bad)
                checked += 1
                rejected += not verdict
        assert checked > 60 and rejected > checked // 2

    @pytest.mark.parametrize("k", [1, 7, 40, 64])
    def test_slot_sums_at_the_width_bound(self, k):
        # the kernel entry 2**k - 1 and a row of L1 norm 1 make the slot
        # width w = k + 1, and the row's products 2**(w-1) - 1 and its
        # negative, next to a slot holding -1 or +1
        top = 2**k - 1
        basis = {0: {1: fr(-top), 2: fr(1)}}
        for rows in ([{0: 1}], [{0: -1}], [{0: 1}, {0: -1}]):
            assert linalg._certified(rows, basis) is False
            assert ref._certified(rows, basis) is False
        exact = [{0: 1, 1: -top, 2: 1}, {0: -2, 1: 2 * top, 2: -2}]
        assert linalg._certified(exact, basis) and ref._certified(exact, basis)
