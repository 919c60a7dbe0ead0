"""Dense, term-by-term evaluation of the Lie-Yamaguti and representation axioms.

These are the `check_lya` and `check_representation` that
`lieyamaguti.structures` used before it switched to sparse integer-scaled
evaluation, kept verbatim as an independent reference: every basis tuple runs
dense `bracket`/`triple` calls in `Fraction` arithmetic, and every term of a
representation identity builds a new `Matrix`. The reports of both
implementations must be equal, violation for violation and residual for
residual. Slow on the 8-dimensional semidirect sums (seconds), so only the
tests use it.

`semidirect` is kept verbatim as the library wrote it before it set only the
constants that can be nonzero; the tests compare the two sums exactly.

`FractionAlgebra` is `LYAlgebra` as the library wrote it before an algebra was
held as its integer tables: it stores the `Fraction` constants for every
ordered index tuple, completed by skewness, and evaluates the brackets on
them. `algebra_tables` is the scan that scaled such constants to integers,
kept verbatim; on the `Fraction` views of an algebra it gives the tables the
algebra must store, and `representation_tables` extends it to a
representation.

The last section keeps the code that one integer evaluator replaced, as the
library wrote it before: `view_semidirect`, which read the `Fraction` views
and rescanned them through the public constructor; the representation views
`rho`, `mu` and `d_basis` and their `combine` into `rho_of`, `mu_of` and
`d_of`; and `Wedge2`'s `bracket_with`, `action_matrix` and `d_matrix`. The
methods are written as functions of the object they were methods of.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from lieyamaguti.linalg import (Matrix, Vector, commutator, is_zero_vector, vadd, vector, vneg,
                                vsub, vzero)
from lieyamaguti.structures import (AxiomReport, LYAlgebra, Representation, Violation,
                                    _algebra_tables, _comb, _denominator_lcm, _names, _scaled,
                                    _sparse, wedge_basis)


def check_lya(a: LYAlgebra) -> AxiomReport:
    """Check the four defining identities on every basis tuple.

    Multilinearity extends basis-tuple validity to the whole space, so an
    empty violation list certifies the algebra. Violations carry the basis
    index tuple and the nonzero residual (always "LHS sum" in the orientation
    written below).
    """
    viols: List[Violation] = []
    rng = range(a.dim)
    bas = [a.basis(i) for i in rng]

    # [[x,y],z] + [[y,z],x] + [[z,x],y] + <x,y,z> + <y,z,x> + <z,x,y> = 0
    for i, j, k in itertools.product(rng, repeat=3):
        r = a.bracket(a.bracket_basis(i, j), bas[k])
        r = vadd(r, a.bracket(a.bracket_basis(j, k), bas[i]))
        r = vadd(r, a.bracket(a.bracket_basis(k, i), bas[j]))
        r = vadd(r, a.triple_basis(i, j, k))
        r = vadd(r, a.triple_basis(j, k, i))
        r = vadd(r, a.triple_basis(k, i, j))
        if not is_zero_vector(r):
            viols.append(Violation("jacobi-defect", (i, j, k), r))

    # <[x,y],z,w> + <[y,z],x,w> + <[z,x],y,w> = 0
    for i, j, k, l in itertools.product(rng, repeat=4):
        r = a.triple(a.bracket_basis(i, j), bas[k], bas[l])
        r = vadd(r, a.triple(a.bracket_basis(j, k), bas[i], bas[l]))
        r = vadd(r, a.triple(a.bracket_basis(k, i), bas[j], bas[l]))
        if not is_zero_vector(r):
            viols.append(Violation("cyclic-ternary", (i, j, k, l), r))

    # <x,y,[z,w]> = [<x,y,z>,w] + [z,<x,y,w>]
    for i, j, k, l in itertools.product(rng, repeat=4):
        r = a.triple(bas[i], bas[j], a.bracket_basis(k, l))
        r = vsub(r, a.bracket(a.triple_basis(i, j, k), bas[l]))
        r = vsub(r, a.bracket(bas[k], a.triple_basis(i, j, l)))
        if not is_zero_vector(r):
            viols.append(Violation("binary-derivation", (i, j, k, l), r))

    # <x,y,<z,w,t>> = <<x,y,z>,w,t> + <z,<x,y,w>,t> + <z,w,<x,y,t>>
    for i, j, k, l, m in itertools.product(rng, repeat=5):
        r = a.triple(bas[i], bas[j], a.triple_basis(k, l, m))
        r = vsub(r, a.triple(a.triple_basis(i, j, k), bas[l], bas[m]))
        r = vsub(r, a.triple(bas[k], a.triple_basis(i, j, l), bas[m]))
        r = vsub(r, a.triple(bas[k], bas[l], a.triple_basis(i, j, m)))
        if not is_zero_vector(r):
            viols.append(Violation("ternary-derivation", (i, j, k, l, m), r))

    return AxiomReport.from_violations(viols)


def _matrix_violations(viols: List[Violation], identity: str,
                       args: Tuple[int, ...], residual: Matrix) -> None:
    # one violation per nonzero column, so residuals stay vectors
    for c in range(residual.cols):
        col = residual.column(c)
        if not is_zero_vector(col):
            viols.append(Violation(identity, args + (c,), col))


def check_representation(r: Representation) -> AxiomReport:
    """Check the five representation conditions plus three derived identities
    for D that downstream constructions rely on. Identities are evaluated as
    matrix equations per basis tuple; a violation is recorded per nonzero
    residual column, with the module index appended to the argument tuple.
    """
    a = r.algebra
    rng = range(a.dim)
    bas = [a.basis(i) for i in rng]
    viols: List[Violation] = []

    for i, j, k in itertools.product(rng, repeat=3):
        # mu([x,y],z) = mu(x,z) rho(y) - mu(y,z) rho(x)
        res = (r.mu_of(a.bracket_basis(i, j), bas[k])
               - r.mu(i, k) @ r.rho(j) + r.mu(j, k) @ r.rho(i))
        _matrix_violations(viols, "mu-bracket-left", (i, j, k), res)

        # mu(x,[y,z]) = rho(y) mu(x,z) - rho(z) mu(x,y)
        res = (r.mu_of(bas[i], a.bracket_basis(j, k))
               - r.rho(j) @ r.mu(i, k) + r.rho(k) @ r.mu(i, j))
        _matrix_violations(viols, "mu-bracket-right", (i, j, k), res)

        # rho(<x,y,z>) = [D(x,y), rho(z)]
        res = r.rho_of(a.triple_basis(i, j, k)) - commutator(r.d_basis(i, j), r.rho(k))
        _matrix_violations(viols, "rho-triple-commutator", (i, j, k), res)

        # D([x,y],z) + D([y,z],x) + D([z,x],y) = 0   (derived)
        res = (r.d_of(a.bracket_basis(i, j), bas[k])
               + r.d_of(a.bracket_basis(j, k), bas[i])
               + r.d_of(a.bracket_basis(k, i), bas[j]))
        _matrix_violations(viols, "d-bracket-cyclic", (i, j, k), res)

    for i, j, k, l in itertools.product(rng, repeat=4):
        # mu(z,w) mu(x,y) - mu(y,w) mu(x,z) - mu(x,<y,z,w>) + D(y,z) mu(x,w) = 0
        res = (r.mu(k, l) @ r.mu(i, j) - r.mu(j, l) @ r.mu(i, k)
               - r.mu_of(bas[i], a.triple_basis(j, k, l))
               + r.d_basis(j, k) @ r.mu(i, l))
        _matrix_violations(viols, "mu-composition", (i, j, k, l), res)

        # mu(<x,y,z>,w) + mu(z,<x,y,w>) = [D(x,y), mu(z,w)]
        res = (r.mu_of(a.triple_basis(i, j, k), bas[l])
               + r.mu_of(bas[k], a.triple_basis(i, j, l))
               - commutator(r.d_basis(i, j), r.mu(k, l)))
        _matrix_violations(viols, "mu-triple-commutator", (i, j, k, l), res)

        # D(<x,y,z>,w) + D(z,<x,y,w>) = [D(x,y), D(z,w)]   (derived)
        res = (r.d_of(a.triple_basis(i, j, k), bas[l])
               + r.d_of(bas[k], a.triple_basis(i, j, l))
               - commutator(r.d_basis(i, j), r.d_basis(k, l)))
        _matrix_violations(viols, "d-triple-commutator", (i, j, k, l), res)

        # mu(<x,y,z>,w) = mu(x,w) mu(z,y) - mu(y,w) mu(z,x) - mu(z,w) D(x,y)   (derived)
        res = (r.mu_of(a.triple_basis(i, j, k), bas[l])
               - r.mu(i, l) @ r.mu(k, j) + r.mu(j, l) @ r.mu(k, i)
               + r.mu(k, l) @ r.d_basis(i, j))
        _matrix_violations(viols, "mu-triple-expansion", (i, j, k, l), res)

    return AxiomReport.from_violations(viols)


def semidirect(a: LYAlgebra, r: Representation) -> LYAlgebra:
    """Brackets on g (+) V induced by (rho, mu):

        [x+u, y+v]   = [x,y] + rho(x)v - rho(y)u
        <x+u,y+v,z+w> = <x,y,z> + D(x,y)w + mu(y,z)u - mu(x,z)v

    Built unconditionally; it passes `check_lya` exactly when `r` passes
    `check_representation`, which makes it an independent validity probe.
    """
    if r.algebra is not a and r.algebra != a:
        raise ValueError("representation belongs to a different algebra")
    m, v = a.dim, r.dim_v
    n = m + v

    def pad_g(x: Vector) -> Vector:
        return tuple(x) + vzero(v)

    def pad_v(u: Vector) -> Vector:
        return vzero(m) + tuple(u)

    uvec = [tuple(Fraction(1 if c == b else 0) for c in range(v)) for b in range(v)]

    binary: Dict[Tuple[int, int], Vector] = {}
    ternary: Dict[Tuple[int, int, int], Vector] = {}

    for p in range(n):
        for q in range(p + 1, n):
            if q < m:
                val = pad_g(a.bracket_basis(p, q))
            elif p < m:
                val = pad_v(r.rho(p).apply(uvec[q - m]))
            else:
                val = vzero(n)
            if not is_zero_vector(val):
                binary[(p, q)] = val
            for k in range(n):
                if q < m:
                    if k < m:
                        t = pad_g(a.triple_basis(p, q, k))
                    else:
                        t = pad_v(r.d_basis(p, q).apply(uvec[k - m]))
                elif p < m:
                    # <e_p + 0, 0 + u_b, z + w> = mu(0,z)0 - mu(e_p,z)u_b on the V side
                    if k < m:
                        t = pad_v(vneg(r.mu(p, k).apply(uvec[q - m])))
                    else:
                        t = vzero(n)
                else:
                    t = vzero(n)
                if not is_zero_vector(t):
                    ternary[(p, q, k)] = t

    names = a.basis_names + _names("u", v)
    return LYAlgebra(n, binary=binary, ternary=ternary, basis_names=names)


class FractionAlgebra:
    """Finite-dimensional algebra with a skew binary bracket and a ternary
    bracket skew in its first two slots.

    `binary` maps (i, j) with i < j to the coefficient vector of [e_i, e_j];
    `ternary` maps (i, j, k) with i < j to that of <e_i, e_j, e_k>. Missing
    entries are zero. Whether the axioms hold is a separate question answered
    by `check_lya`.
    """

    __slots__ = ("dim", "basis_names", "_binary", "_ternary", "_basis")

    def __init__(self, dim: int,
                 binary: Optional[Dict[Tuple[int, int], Iterable]] = None,
                 ternary: Optional[Dict[Tuple[int, int, int], Iterable]] = None,
                 basis_names: Optional[Sequence[str]] = None):
        if dim < 0:
            raise ValueError("algebra dimension must be nonnegative")
        names = tuple(basis_names) if basis_names is not None else _names("e", dim)
        if len(names) != dim:
            raise ValueError(f"expected {dim} basis names, got {len(names)}")

        zero = vzero(dim)
        btab: List[List[Vector]] = [[zero] * dim for _ in range(dim)]
        for key, val in (binary or {}).items():
            i, j = key
            self._check_pair(i, j, dim)
            v = vector(val)
            if len(v) != dim:
                raise ValueError(f"binary constant at {key} has length {len(v)}, expected {dim}")
            btab[i][j] = v
            btab[j][i] = vneg(v)

        ttab: List[List[List[Vector]]] = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        for key, val in (ternary or {}).items():
            i, j, k = key
            self._check_pair(i, j, dim)
            if not 0 <= k < dim:
                raise ValueError(f"ternary index {k} out of range")
            v = vector(val)
            if len(v) != dim:
                raise ValueError(f"ternary constant at {key} has length {len(v)}, expected {dim}")
            ttab[i][j][k] = v
            ttab[j][i][k] = vneg(v)

        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "_binary", tuple(tuple(r) for r in btab))
        object.__setattr__(self, "_ternary",
                           tuple(tuple(tuple(c) for c in r) for r in ttab))
        object.__setattr__(self, "_basis",
                           tuple(tuple(Fraction(1 if c == i else 0) for c in range(dim))
                                 for i in range(dim)))

    def __setattr__(self, name, value):
        raise AttributeError("FractionAlgebra is immutable")

    @staticmethod
    def _check_pair(i: int, j: int, dim: int) -> None:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"basis index out of range in ({i}, {j})")
        if i >= j:
            raise ValueError(f"structure constants are stored for i < j only, got ({i}, {j})")

    def basis(self, i: int) -> Vector:
        return self._basis[i]

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self._binary[i][j]

    def triple_basis(self, i: int, j: int, k: int) -> Vector:
        return self._ternary[i][j][k]

    def bracket(self, u: Vector, v: Vector) -> Vector:
        out = [Fraction(0)] * self.dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if not cj:
                    continue
                w = self._binary[i][j]
                c = ci * cj
                for l, wl in enumerate(w):
                    if wl:
                        out[l] += c * wl
        return tuple(out)

    def triple(self, u: Vector, v: Vector, w: Vector) -> Vector:
        out = [Fraction(0)] * self.dim
        for i, ci in enumerate(u):
            if not ci:
                continue
            for j, cj in enumerate(v):
                if not cj:
                    continue
                cij = ci * cj
                for k, ck in enumerate(w):
                    if not ck:
                        continue
                    t = self._ternary[i][j][k]
                    c = cij * ck
                    for l, tl in enumerate(t):
                        if tl:
                            out[l] += c * tl
        return tuple(out)

    def binary_constants(self) -> Dict[Tuple[int, int], Vector]:
        return {(i, j): self._binary[i][j]
                for i in range(self.dim) for j in range(i + 1, self.dim)
                if not is_zero_vector(self._binary[i][j])}

    def ternary_constants(self) -> Dict[Tuple[int, int, int], Vector]:
        return {(i, j, k): self._ternary[i][j][k]
                for i in range(self.dim) for j in range(i + 1, self.dim)
                for k in range(self.dim)
                if not is_zero_vector(self._ternary[i][j][k])}

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionAlgebra):
            return NotImplemented
        return (self.dim == other.dim and self._binary == other._binary
                and self._ternary == other._ternary)

    def __hash__(self) -> int:
        return hash((self.dim, self._binary, self._ternary))

    def __repr__(self) -> str:
        return f"FractionAlgebra(dim={self.dim})"


def algebra_tables(a, vectors: Iterable[Vector] = ()) -> Tuple[int, list, list]:
    """q, the least common multiple of the denominators of the algebra's constants
    and the vectors' entries; q[e_i,e_j] as b[i][j], q^2<e_i,e_j,e_k> as t[i][j][k]."""
    rng = range(a.dim)
    q = _denominator_lcm([a.bracket_basis(i, j) for i in rng for j in rng]
                         + [a.triple_basis(i, j, k) for i in rng for j in rng for k in rng]
                         + list(vectors))
    b = [[_scaled(a.bracket_basis(i, j), q) for j in rng] for i in rng]
    t = [[[_scaled(a.triple_basis(i, j, k), q * q) for k in rng] for j in rng] for i in rng]
    return q, b, t


def representation_tables(r: Representation) -> tuple:
    """q, the least common multiple of the denominators of the algebra's
    constants and of the entries of rho and mu; the algebra's tables over q
    (`algebra_tables`); and the columns of q rho, q^2 mu and q^2 D, scanned from
    the views."""
    a, idx = r.algebra, range(r.algebra.dim)
    rhos = [rho(r, i) for i in idx]
    mus = [[mu(r, i, j) for j in idx] for i in idx]
    q, b, t = algebra_tables(a, [row for m in rhos + [m for row in mus for m in row]
                                 for row in m.entries])

    def cols(m: Matrix, s: int) -> list:
        return [_scaled(col, s) for col in m.columns()]

    return (q, b, t, [cols(m, q) for m in rhos], [[cols(m, q * q) for m in row] for row in mus],
            [[cols(d_basis(r, i, j), q * q) for j in idx] for i in idx])


# -- replaced by one integer evaluator -----------------------------------------

def view_semidirect(a: LYAlgebra, r: Representation) -> LYAlgebra:
    """Brackets on g (+) V induced by (rho, mu):

        [x+u, y+v]   = [x,y] + rho(x)v - rho(y)u
        <x+u,y+v,z+w> = <x,y,z> + D(x,y)w + mu(y,z)u - mu(x,z)v

    Built unconditionally; it passes `check_lya` exactly when `r` passes
    `check_representation`, which makes it an independent validity probe.
    """
    if r.algebra is not a and r.algebra != a:
        raise ValueError("representation belongs to a different algebra")
    m, v = a.dim, r.dim_v
    zero_g, zero_v = vzero(m), vzero(v)
    binary: Dict[Tuple[int, int], Vector] = {}
    ternary: Dict[Tuple[int, int, int], Vector] = {}
    # every other constant vanishes
    for p, q in wedge_basis(m):
        binary[(p, q)] = a.bracket_basis(p, q) + zero_v
        for k in range(m):
            ternary[(p, q, k)] = a.triple_basis(p, q, k) + zero_v
        for b in range(v):
            ternary[(p, q, m + b)] = zero_g + r.d_basis(p, q).column(b)
    for p in range(m):
        for b in range(v):
            binary[(p, m + b)] = zero_g + r.rho(p).column(b)
            for k in range(m):
                # <e_p + 0, 0 + u_b, z + w> = mu(0,z)0 - mu(e_p,z)u_b on the V side
                ternary[(p, m + b, k)] = zero_g + vneg(r.mu(p, k).column(b))

    names = a.basis_names + _names("u", v)
    return LYAlgebra(m + v, binary=binary, ternary=ternary, basis_names=names)


def view(r: Representation, cols: list, w: int) -> Matrix:
    """The `Fraction` matrix of integer columns of weight w (`Representation._view`,
    without its cache)."""
    n, den = r.dim_v, r.tables().q ** w
    return Matrix.from_columns(
        [[Fraction(c.get(l, 0), den) for l in range(n)] for c in map(dict, cols)], rows=n)


def rho(r: Representation, i: int) -> Matrix:
    return view(r, r.tables().rho[i], 1)


def mu(r: Representation, i: int, j: int) -> Matrix:
    return view(r, r.tables().mu[i][j], 2)


def d_basis(r: Representation, i: int, j: int) -> Matrix:
    return view(r, r.tables().d[i][j], 2)


def combine(r: Representation, terms: Iterable[Tuple[Fraction, Matrix]]) -> Matrix:
    """sum of c * m over the terms, accumulated into one table."""
    n = r.dim_v
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c, m in terms:
        for arow, mrow in zip(acc, m.entries):
            for col, x in enumerate(mrow):
                if x:
                    arow[col] += c * x
    return Matrix(acc, cols=n)


def rho_of(r: Representation, x: Vector) -> Matrix:
    return combine(r, ((c, rho(r, i)) for i, c in enumerate(x) if c))


def mu_of(r: Representation, x: Vector, y: Vector) -> Matrix:
    return combine(r, ((ci * cj, mu(r, i, j))
                       for i, ci in enumerate(x) if ci
                       for j, cj in enumerate(y) if cj))


def d_of(r: Representation, x: Vector, y: Vector) -> Matrix:
    return combine(r, ((ci * cj, d_basis(r, i, j))
                       for i, ci in enumerate(x) if ci
                       for j, cj in enumerate(y) if cj))


def bracket_with(x, a: LYAlgebra, z: Vector) -> Vector:
    """<X, z> = sum X_ij <e_i, e_j, z>, read from the algebra's table q^2 <.,.,.>."""
    q, _, t = _algebra_tables(a)
    out = [Fraction(0)] * a.dim
    for i, j, c in x.entries:
        _comb(out, c, _sparse(z), t[i][j])
    return tuple(y / (q * q) for y in out)


def action_matrix(x, a: LYAlgebra) -> Matrix:
    """Matrix of z -> <X, z> on the algebra."""
    if a.dim != x.dim:
        raise ValueError("wedge element and algebra dimensions differ")
    cols = [bracket_with(x, a, [int(l == k) for l in range(a.dim)]) for k in range(a.dim)]
    return Matrix.from_columns(cols, rows=a.dim)


def d_matrix(x, r: Representation) -> Matrix:
    """D(X) = sum X_ij D(e_i, e_j) acting on the module."""
    if r.algebra.dim != x.dim:
        raise ValueError("wedge element and algebra dimensions differ")
    return combine(r, ((c, d_basis(r, i, j)) for i, j, c in x.entries))
