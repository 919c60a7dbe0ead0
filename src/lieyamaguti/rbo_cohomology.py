"""Cohomology of a relative Rota-Baxter operator.

The degree-(>=1) part is the Yamaguti complex of the sub-adjacent algebra on
the module, with coefficients in the induced representation on g. Degree 0 is
the second exterior power of g, mapped into 1-cochains by

    (delta X)(v) = T( D(X) v ) - <X, Tv>.

Cohomology in every positive degree therefore quotients by coboundaries,
degree 1 included.

A verified operator keeps its complex: `_complex` calls `RboComplex.build`
once per operator object, which builds the induced representation from the
sub-adjacent tables `RelRBO.build` kept, and the complex's context keeps the
rows and the elimination of each differential (see `complexes`). delta^0 is
composed from T's columns, which the operator keeps, and its elimination is
kept by the operator as well.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .linalg import Matrix, _int_rows, _rref
from .complexes import (Cochain, CohomologySummary, ComplexContext, cochain_dim, coboundary_matrix,
                        cohomology_dims, wedge_basis)
from .rbo import (RelRBO, Scaled, Wedge2, _compose, _expansion, _require_verified, _term_tables,
                  induced_rep_on_g)

__all__ = [
    "RboComplex",
    "rbo_delta0",
    "rbo_coboundary_matrix",
    "rbo_cohomology_dims",
    "rbo_delta1_expanded",
]


class RboComplex(NamedTuple):
    """A verified operator together with the cochain context of its
    sub-adjacent algebra and induced representation."""

    operator: RelRBO
    ctx: ComplexContext

    @classmethod
    def build(cls, o: RelRBO) -> "RboComplex":
        rep = induced_rep_on_g(o)   # checks that o is verified
        # the induced representation of a verified operator is valid (a theorem
        # the tests check on the fixtures), so the context skips its check
        ctx = ComplexContext(rep.algebra, rep, validate=False)
        return cls(o, ctx)


def _complex(o: RelRBO) -> RboComplex:
    """The complex of a verified operator, built by one `RboComplex.build` and kept by it."""
    return o._derive("complex", RboComplex.build)


def rbo_delta0(o: RelRBO, x: Wedge2) -> Cochain:
    """The degree-0 coboundary of a wedge element, as a 1-cochain V -> g."""
    _require_verified(o)
    s, lx, dx = x._actions(o.rep)   # checks the dimension of X
    qt, (tc,) = o._columns()
    return Cochain(1, tuple(tuple(Fraction(y, qt * s) for y in col)
                            for col in _compose(o.algebra.dim, *_delta0(tc, lx, dx))), None)


def _delta0(tc: List[Scaled], lx: List[Scaled], d: List[Scaled]) -> Tuple[tuple, tuple]:
    """delta X = T D(X) - <X, .> T as the products `rbo._compose` sums, from the integer columns
    of T, <X, .> and D(X) (the reduced closing of `nijenhuis_element_check` passes <X, .> again)."""
    return (1, tc, d), (-1, lx, tc)


def rbo_coboundary_matrix(rc: RboComplex, p: int) -> Matrix:
    """Matrix of the operator-complex coboundary leaving degree p. Degree 0
    maps wedge elements of g (lexicographic wedge coordinates) to 1-cochains;
    higher degrees delegate to the Yamaguti complex of the context."""
    if p < 0:
        raise ValueError(f"degree must be >= 0, got {p}")
    if p == 0:
        den, cols = _delta0_columns(rc.operator)
        return Matrix.from_columns([tuple(Fraction(y, den) for y in col) for col in cols],
                                   rows=cochain_dim(rc.ctx, 1))
    return coboundary_matrix(rc.ctx, p)


def _delta0_columns(o: RelRBO) -> Tuple[int, List[List[int]]]:
    """q_T q^2 and delta of each basis wedge over it, flattened: the columns of the degree-0
    coboundary matrix. The actions of e_i ^ e_j are the tables' own columns t[i][j] and d[i][j]."""
    q, _, t, _, _, d = o.rep.tables()
    qt, (tc,) = o._columns()
    m = o.algebra.dim
    return qt * q * q, [[y for col in _compose(m, *_delta0(tc, t[i][j], d[i][j])) for y in col]
                        for i, j in wedge_basis(m)]


def rbo_cohomology_dims(rc: RboComplex, p: int) -> CohomologySummary:
    """Cocycle / coboundary / quotient dimensions in degree p >= 1. Unlike
    the bare Yamaguti complex, degree 1 already quotients by the image of the
    wedge elements under delta."""
    if p < 1:
        raise ValueError(f"cohomology degree must be >= 1, got {p}")
    summary = cohomology_dims(rc.ctx, p)
    if p > 1:
        return summary
    # the operator keeps the elimination of delta^0, whose columns serve as rows: a matrix
    # and its transpose have one rank
    dim_b = len(rc.operator._derive("delta0", lambda o: _rref(_int_rows(_delta0_columns(o)[1]))))
    return summary._replace(dim_coboundaries=dim_b, dim_h=summary.dim_h - dim_b)


def rbo_delta1_expanded(o: RelRBO, c1: Cochain) -> Cochain:
    """Degree-1 coboundary written out in terms of T, the brackets on g, and
    the representation maps: the t^1 coefficient of both Rota-Baxter
    identities for T + t f, which reads (D being skew)

        (dI f)(u, v)     = [Tu, f(v)] - [Tv, f(u)]
                           + T( rho(f(v)) u - rho(f(u)) v ) - f([u, v]_T)
        (dII f)(u, v, w) = <Tu, Tv, f(w)> + <f(u), Tv, Tw> - <f(v), Tu, Tw>
                           - f(<u, v, w>_T)
                           - T( D(f(u), Tv) w - D(f(v), Tu) w
                                + mu(Tv, f(w)) u - mu(Tu, f(w)) v
                                - mu(f(u), Tw) v + mu(f(v), Tw) u )

    This is an independent route to the same map as the generic Yamaguti
    coboundary on the operator complex; the two are compared in tests."""
    _require_verified(o)
    a, r = o.algebra, o.rep
    m, v = a.dim, r.dim_v
    if c1.degree != 1 or c1.g_part is not None or len(c1.f_part) != v \
            or any(len(img) != m for img in c1.f_part):
        raise ValueError("expected a degree-1 cochain of the operator complex")
    f = Matrix.from_columns(c1.f_part, rows=m)
    residuals, _ = _expansion(a, r, _term_tables((o.t_matrix, f)), (1,))
    binary, ternary = residuals[1]
    return Cochain(2, tuple(binary.values()), tuple(ternary.values()))
