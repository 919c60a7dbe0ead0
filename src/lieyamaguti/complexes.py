"""The cochain complex of a Lie-Yamaguti algebra with module coefficients.

A degree n+1 cochain (n >= 1) is a pair (f, g) with f: (wedge^2 g)^(tensor n)
-> V and g: (wedge^2 g)^(tensor n) (tensor) g -> V. Degree 1 is the n = 0 case
with no f-block: a linear map g -> V. Wedge arguments are expanded over the
lexicographic basis e_i ^ e_j (i < j), so cochains are stored as flat tuples
of value vectors: f-block first, then g-block, wedge-tuple index most
significant, module coordinates innermost.

The two differentials (delta_I into the f-slot, delta_II into the g-slot)
follow a fixed sign convention; the D-type sum of delta_I stops at slot n
while that of delta_II runs to slot n+1. Both are written once, for every
degree, in `_coboundary_rows`, which walks the output coordinates of the flat
layout and emits the nonzero {input index: coefficient} entries of each in
integers, Q = q^2 times the exact ones. Every term reads one of the
representation's stored `tables()` (see `structures`): [.,.] or rho (weight 1,
scaled by q) with one more factor q, or <.,.,.>, mu or D (weight 2, scaled by
q^2), the module maps column by column. Every computation reads these rows in
integers, assembled once per context (`_rows`): `coboundary` applies them to
a cochain scaled to integers, `_preimage` solves delta(x) = c on them and
`cohomology_dims` takes their ranks from the `_rref` the context keeps
(`_echelon`); `coboundary_matrix` densifies them, a view for API users. The
tests compare the rows against an independent term-by-term evaluation on
cochains and check that consecutive differentials compose to zero.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import IntRow, Matrix, Rref, Vector, _rref, _solve, rat
from .structures import (
    LYAlgebra,
    Representation,
    Scaled,
    _denominator_lcm,
    _require_representation,
    wedge_basis,
)

__all__ = [
    "wedge_basis",
    "ComplexContext",
    "Cochain",
    "cochain_dim",
    "coboundary",
    "coboundary_matrix",
    "cohomology_dims",
    "CohomologySummary",
]

class CohomologySummary(NamedTuple):
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_h: int


class ComplexContext:
    """An algebra together with a validated representation and the fixed
    wedge-basis enumeration used for all cochain indexing, keeping each
    differential it has assembled (`_rows`) or eliminated (`_echelon`)."""

    __slots__ = ("algebra", "rep", "wedge", "_windex", "_kept")

    def __init__(self, algebra: LYAlgebra, rep: Representation, validate: bool = True):
        if rep.algebra is not algebra and rep.algebra != algebra:
            raise ValueError("representation belongs to a different algebra")
        if validate:
            _require_representation(rep)
        wedge = wedge_basis(algebra.dim)
        for name, value in (("algebra", algebra), ("rep", rep), ("wedge", wedge),
                            ("_windex", {pair: idx for idx, pair in enumerate(wedge)}), ("_kept", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexContext is immutable")

    @property
    def m(self) -> int:
        return self.algebra.dim

    @property
    def v(self) -> int:
        return self.rep.dim_v

    @property
    def w(self) -> int:
        return len(self.wedge)

    def wedge_index(self, i: int, j: int) -> int:
        return self._windex[(i, j)]


def _blocks(m: int, p: int) -> Tuple[int, int]:
    """The numbers nf, ng of value vectors in the f- and g-blocks of the degree-p = n+1
    layout over an algebra of dimension m with w wedges: w^n and w^n m, with no f-block at
    degree 1 (n = 0). Degree 0 lives only in the operator complex, not here."""
    if p < 1:
        raise ValueError("cochain degree must be at least 1")
    n, w = p - 1, m * (m - 1) // 2
    return (w ** n if n else 0), w ** n * m


def cochain_dim(ctx: ComplexContext, p: int) -> int:
    """Dimension of the degree-p cochain space."""
    return sum(_blocks(ctx.m, p)) * ctx.v


class Cochain(NamedTuple):
    """Flat storage for one cochain.

    degree 1: f_part has one value vector per algebra basis element, g_part
    is None. degree n+1 >= 2: f_part has w^n value vectors (wedge tuples in
    lexicographic mixed-radix order), g_part has w^n * m.
    """

    degree: int
    f_part: Tuple[Vector, ...]
    g_part: Optional[Tuple[Vector, ...]]

    @classmethod
    def zero(cls, ctx: ComplexContext, p: int) -> "Cochain":
        return cls.from_flat(ctx, p, (0,) * cochain_dim(ctx, p))

    @classmethod
    def from_flat(cls, ctx: ComplexContext, p: int, coeffs: Sequence) -> "Cochain":
        (nf, ng), v = _blocks(ctx.m, p), ctx.v
        vals = [rat(c) for c in coeffs]
        if len(vals) != (total := (nf + ng) * v):
            raise ValueError(f"expected {total} coefficients for degree {p}, got {len(vals)}")
        # counted by values, not by coordinates: a zero-dimensional module has values ()
        chunks = [tuple(vals[i * v:i * v + v]) for i in range(nf + ng)]
        # degree 1 keeps its values in f_part
        return cls(p, tuple(chunks[:nf]), tuple(chunks[nf:])) if nf else cls(p, tuple(chunks), None)

    def flatten(self) -> Vector:
        parts: List[Fraction] = []
        for val in self.f_part:
            parts.extend(val)
        if self.g_part is not None:
            for val in self.g_part:
                parts.extend(val)
        return tuple(parts)

    def as_matrix(self, rows: Optional[int] = None) -> Matrix:
        """Degree-1 cochains as value-space x algebra-space matrices
        (column b is the image of the b-th basis element). `rows`, the
        dimension of the value space, is needed when there are no columns."""
        if self.degree != 1:
            raise ValueError("as_matrix applies to degree-1 cochains only")
        return Matrix.from_columns(list(self.f_part), rows=rows)

    def is_zero(self) -> bool:
        return not any(map(any, self.f_part + (self.g_part or ())))


def _compose_wedges(ctx: ComplexContext, t: List[List[List[Scaled]]], wk: int, wl: int) -> Scaled:
    """The composed wedge argument <x_k,y_k,x_l> ^ y_l + x_l ^ <x_k,y_k,y_l>
    over the wedge basis, from the ternary table t scaled by q^2."""
    xk, yk = ctx.wedge[wk]
    xl, yl = ctx.wedge[wl]
    acc: Dict[int, int] = {}
    # u ^ e_y is u_s at e_s ^ e_y for s < y and -u_s at e_y ^ e_s for s > y;
    # x_l ^ u is -(u ^ e_xl)
    for u, y, sign in ((t[xk][yk][xl], yl, 1), (t[xk][yk][yl], xl, -1)):
        for s, x in u:
            if s != y:
                idx = ctx.wedge_index(min(s, y), max(s, y))
                acc[idx] = acc.get(idx, 0) + (sign * x if s < y else -sign * x)
    return [(idx, c) for idx, c in sorted(acc.items()) if c]


def _coboundary_rows(ctx: ComplexContext, p: int) -> Tuple[int, List[IntRow]]:
    """The differential leaving degree p, row by row, in integers: Q and, for
    each coordinate of a degree-(p+1) cochain, its nonzero {input index:
    coefficient} entries, each Q times the exact one.

    Every term of delta reads one value vector of the input, at a block
    position ("slot") of the flat layout, and maps it into the output value
    vector either by a representation matrix (rho, mu, D) or by a scalar
    (structure constants, composed wedges)."""
    m, v, w = ctx.m, ctx.v, ctx.w
    q, b, t, rho, mu, dd = ctx.rep.tables()
    # a zero matrix becomes (), which `emit` skips without walking its columns
    # (117 of the 171 rho, mu and D matrices of the adjoint sl2^3 are zero)
    rho = [cols if any(cols) else () for cols in rho]
    mu = [[cols if any(cols) else () for cols in row] for row in mu]
    d = [cols if any(cols) else () for cols in (dd[i][j] for (i, j) in ctx.wedge)]
    rows: List[IntRow] = []

    def emit(ops, scals) -> None:
        """One output value vector: ops are (sign, matrix columns, slot),
        scals are (coefficient, slot)."""
        acc: List[IntRow] = [{} for _ in range(v)]
        for sign, cols, slot in ops:
            if not cols:
                continue
            # column col is read at input index k; empty columns are skipped
            for k, col in itertools.compress(enumerate(cols, slot * v), cols):
                for i, x in col:
                    row = acc[i]
                    row[k] = row.get(k, 0) + sign * x
        for co, slot in scals:
            for k, row in enumerate(acc, slot * v):
                row[k] = row.get(k, 0) + co
        rows.extend({k: c for k, c in row.items() if c} for row in acc)

    n = p - 1  # number of wedge slots of the input; degree 1 has no f-block
    nf = _blocks(ctx.m, p)[0]
    sign_n = (-1) ** n
    # composed wedges pair two input slots, so no degree-1 row reads them
    comp = [[_compose_wedges(ctx, t, wk, wl) for wl in range(w)] for wk in range(w)] if n else []
    bracket = [b[i][j] for (i, j) in ctx.wedge]
    triple = [[t[i][j][z] for z in range(m)] for (i, j) in ctx.wedge]

    def f_slot(ws: Sequence[int]) -> int:
        out = 0
        for wt in ws:
            out = out * w + wt
        return out

    def g_slot(ws: Sequence[int], z: int) -> int:
        return nf + f_slot(ws) * m + z

    def composed(ws: Tuple[int, ...]):
        """sum_{k<l} (-1)^k (... hat k ..., composed at l, ...): coefficient
        and wedge tuple of every term."""
        for k0 in range(n + 1):
            for l0 in range(k0 + 1, n + 1):
                for wt, co in comp[ws[k0]][ws[l0]]:
                    yield (-1) ** (k0 + 1) * co, ws[:k0] + ws[k0 + 1:l0] + (wt,) + ws[l0 + 1:]

    tuples = list(itertools.product(range(w), repeat=n + 1))
    for ws in tuples:
        xe, ye = ctx.wedge[ws[-1]]
        head = ws[:n]
        # (-1)^n ( rho(x_{n+1}) g(..., y_{n+1}) - rho(y_{n+1}) g(..., x_{n+1})
        #          - g(..., [x_{n+1}, y_{n+1}]) )
        ops = [(sign_n * q, rho[xe], g_slot(head, ye)), (-sign_n * q, rho[ye], g_slot(head, xe))]
        scals = [(-sign_n * q * co, g_slot(head, zc)) for zc, co in bracket[ws[-1]]]
        # sum_{k=1}^{n} (-1)^{k+1} D(x_k,y_k) f(... hat k ...)
        ops += [((-1) ** k0, d[ws[k0]], f_slot(ws[:k0] + ws[k0 + 1:])) for k0 in range(n)]
        scals += [(co, f_slot(ts)) for co, ts in composed(ws)]
        emit(ops, scals)

    for ws in tuples:
        xe, ye = ctx.wedge[ws[-1]]
        head = ws[:n]
        rests = [ws[:k0] + ws[k0 + 1:] for k0 in range(n + 1)]
        comps = list(composed(ws))
        for z in range(m):
            # (-1)^n ( mu(y_{n+1}, z) g(..., x_{n+1}) - mu(x_{n+1}, z) g(..., y_{n+1}) )
            ops = [(sign_n, mu[ye][z], g_slot(head, xe)), (-sign_n, mu[xe][z], g_slot(head, ye))]
            # sum_{k=1}^{n+1} (-1)^{k+1} D(x_k,y_k) g(... hat k ..., z)
            ops += [((-1) ** k0, d[ws[k0]], g_slot(rest, z)) for k0, rest in enumerate(rests)]
            scals = [(co, g_slot(ts, z)) for co, ts in comps]
            # sum_{k=1}^{n+1} (-1)^k g(... hat k ..., <x_k, y_k, z>)
            scals += [((-1) ** (k0 + 1) * co, g_slot(rest, zz))
                      for k0, rest in enumerate(rests) for zz, co in triple[ws[k0]][z]]
            emit(ops, scals)
    return q * q, rows


def _rows(ctx: ComplexContext, p: int) -> Tuple[int, List[IntRow]]:
    """`_coboundary_rows(ctx, p)`, assembled once per context."""
    if ("rows", p) not in ctx._kept:
        ctx._kept["rows", p] = _coboundary_rows(ctx, p)
    return ctx._kept["rows", p]


def _echelon(ctx: ComplexContext, p: int) -> Rref:
    """The `_rref` of the differential leaving degree p, eliminated once per context."""
    if ("rref", p) not in ctx._kept:
        ctx._kept["rref", p] = _rref(_rows(ctx, p)[1])
    return ctx._kept["rref", p]


def coboundary(ctx: ComplexContext, c: Cochain) -> Cochain:
    """Apply the differential, raising the degree by one."""
    p = c.degree
    nf, ng = _blocks(ctx.m, p)
    blocks = (len(c.f_part), None if c.g_part is None else len(c.g_part))
    if blocks != ((nf, ng) if nf else (ng, None)) \
            or any(len(val) != ctx.v for val in c.f_part + (c.g_part or ())):
        raise ValueError(f"malformed degree-{p} cochain")
    flat = c.flatten()
    scale = _denominator_lcm((flat,))
    ints = [x.numerator * (scale // x.denominator) for x in flat]
    qq, rows = _rows(ctx, p)
    den, zero = qq * scale, Fraction(0)
    image = [Fraction(s, den) if (s := sum(map(mul, row.values(), map(ints.__getitem__, row))))
             else zero for row in rows]
    return Cochain.from_flat(ctx, p + 1, image)


def _preimage(ctx: ComplexContext, c: Cochain) -> Optional[Vector]:
    """A flat x with delta(x) = c, free variables set to zero, or None when c
    (of degree p >= 2) is no coboundary. Row i of [delta | c] is scaled by
    Q d_i, for c_i = n_i / d_i: d_i times the integer row, and Q n_i."""
    ncols = cochain_dim(ctx, c.degree - 1)
    qq, rows = _rows(ctx, c.degree - 1)
    aug: List[IntRow] = []
    for row, x in zip(rows, c.flatten()):
        aug.append({k: x.denominator * co for k, co in row.items()})
        if x:
            aug[-1][ncols] = qq * x.numerator
    return _solve(aug, ncols)


def coboundary_matrix(ctx: ComplexContext, p: int) -> Matrix:
    """Matrix of the degree-p differential over the flat cochain bases:
    cochain_dim(p) columns, cochain_dim(p+1) rows."""
    dim_in = cochain_dim(ctx, p)
    qq, rows = _rows(ctx, p)
    entries = [[Fraction(0)] * dim_in for _ in rows]  # one shared zero per row
    for dense, row in zip(entries, rows):
        for k, co in row.items():
            dense[k] = Fraction(co, qq)
    return Matrix(entries, cols=dim_in)


def cohomology_dims(ctx: ComplexContext, p: int) -> CohomologySummary:
    """Cocycle/coboundary/quotient dimensions at degree p, from the ranks of
    the differentials the context keeps eliminated.

    dim_coboundaries counts the rank of the degree-(p-1) differential only
    for p >= 2: the complex here starts at degree 1, so first cohomology is
    plain cocycles.
    """
    dim_c = cochain_dim(ctx, p)
    dim_z = dim_c - len(_echelon(ctx, p))
    dim_b = len(_echelon(ctx, p - 1)) if p >= 2 else 0
    return CohomologySummary(degree=p, dim_cochains=dim_c, dim_cocycles=dim_z,
                             dim_coboundaries=dim_b, dim_h=dim_z - dim_b)
