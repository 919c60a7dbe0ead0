"""Lie-Yamaguti algebras, their representations, and their checks.

A Lie-Yamaguti algebra carries a skew binary bracket [.,.] and a ternary
bracket <.,.,.> skew in its first two slots, tied together by four axioms
(checked in `check_lya`). Structure constants are given for i < j only and
completed by skewness; all arithmetic is exact.

`check_lya` and `check_representation` evaluate each identity on each basis
tuple as a sum over the nonzero structure constants only, in Python integers.
Let q be the least common multiple of every denominator among the constants
of [.,.], <.,.,.>, rho and mu. Give [.,.] and rho weight 1 and <.,.,.> and mu
weight 2; then D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y]) has
weight 2. Scaling every table by q to the power of its weight makes it
integral, and every identity is homogeneous: Jacobi has weight 2, the
cyclic, binary-derivation and three-index representation identities weight 3,
and the ternary-derivation and four-index identities weight 4. An identity of
weight w evaluated on the scaled tables is therefore exactly q^w times its
true residual, so it vanishes exactly when the true residual does, and
Fraction(R, q^w) gives the true residual back. Nothing is rounded or sampled.

Both structures are held once, as these tables, which the structure checks,
`complexes` and `rbo` read. An `LYAlgebra` stores q and the sparse integer
vectors q[e_i,e_j] and q^2<e_i,e_j,e_k> for every ordered index tuple, skew by
construction; a `Representation` adds rho, mu and D as lists of sparse integer
columns, and the algebra's tables over its own q. Only the builders,
`LYAlgebra._fill` and `Representation._fill`, decide q: every construction
hands them integers at whatever common scale it computed, and they reduce to
the least q, so equal structures have equal tables. One integer evaluator,
`_evaluate`, gives every `Fraction` value of a table: `bracket`, `triple`,
`rho_of`, `mu_of`, `d_of`, `rbo.Wedge2`'s actions and, cached on first use,
the views `basis`, `bracket_basis`, `triple_basis`, `rho`, `mu`, `d_basis`.

Operators, their checks and the constructions they feed, the semidirect sum
among them, live in `rbo`. `Violation` reads the spaces of its arguments and
residual from `_SPACES`, one entry per identity, the operator ones included.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .linalg import Matrix, Vector, is_zero_vector, vector

__all__ = [
    "LYAlgebra",
    "Violation",
    "AxiomReport",
    "JacobiViolation",
    "InputError",
    "InvalidAlgebra",
    "InvalidRepresentation",
    "check_lya",
    "lya_from_lie",
    "Representation",
    "check_representation",
    "adjoint_rep",
    "zero_rep",
    "wedge_basis",
]


# For each identity a check reports, keyed by its label before any "@t^s"
# order suffix: the space of each basis index in `args` ('g' the algebra, 'v'
# the module) and the space the residual lives in.
_SPACES = {
    "jacobi-defect": ("ggg", "g"),
    "cyclic-ternary": ("gggg", "g"),
    "binary-derivation": ("gggg", "g"),
    "ternary-derivation": ("ggggg", "g"),
    "mu-bracket-left": ("gggv", "v"),
    "mu-bracket-right": ("gggv", "v"),
    "rho-triple-commutator": ("gggv", "v"),
    "d-bracket-cyclic": ("gggv", "v"),
    "mu-composition": ("ggggv", "v"),
    "mu-triple-commutator": ("ggggv", "v"),
    "d-triple-commutator": ("ggggv", "v"),
    "mu-triple-expansion": ("ggggv", "v"),
    "nijenhuis-binary": ("gg", "g"),
    "nijenhuis-ternary": ("ggg", "g"),
    "rota-baxter-binary": ("vv", "g"),
    "rota-baxter-ternary": ("vvv", "g"),
    "phi-binary-hom": ("gg", "g"),
    "phi-ternary-hom": ("ggg", "g"),
    "t-intertwine": ("v", "g"),
    "rho-intertwine": ("gv", "v"),
    "mu-intertwine": ("ggv", "v"),
    "d-intertwine": ("ggv", "v"),
    "bracket-binary": ("gg", "g"),
    "bracket-ternary-quadratic": ("ggg", "g"),
    "bracket-ternary-cubic": ("ggg", "g"),
    "mu-quadratic": ("ggv", "v"),
    "mu-cubic": ("ggv", "v"),
    "closing": ("v", "g"),
    "binary": ("vv", "g"),
    "ternary": ("vvv", "g"),
    "binary-hom": ("gg", "g"),
    "ternary-hom": ("ggg", "g"),
}


class Violation(NamedTuple):
    """One failed instance of a named identity on a basis tuple."""

    identity: str
    args: Tuple[int, ...]
    residual: Vector

    @property
    def arg_spaces(self) -> str:
        """The space of each index in `args`: 'g' (algebra) or 'v' (module)."""
        return _SPACES[self.identity.split("@", 1)[0]][0]

    @property
    def residual_space(self) -> str:
        """The space the residual lives in: 'g' (algebra) or 'v' (module)."""
        return _SPACES[self.identity.split("@", 1)[0]][1]


# (identity, args, residual): a residual of any identity check, zero or not
Term = Tuple[str, Tuple[int, ...], Vector]


class AxiomReport(NamedTuple):
    valid: bool
    violations: Tuple[Violation, ...]

    @classmethod
    def from_violations(cls, violations: Iterable[Violation]) -> "AxiomReport":
        vs = tuple(violations)
        return cls(valid=not vs, violations=vs)

    @classmethod
    def from_residuals(cls, terms: Iterable[Term]) -> "AxiomReport":
        """The report of (identity, args, residual) terms, in order, dropping
        zero residuals."""
        return cls.from_violations(Violation(*term) for term in terms if not is_zero_vector(term[2]))

    def first(self, identity: Optional[str] = None) -> Optional[Violation]:
        for v in self.violations:
            if identity is None or v.identity == identity:
                return v
        return None


def wedge_basis(m: int) -> Tuple[Tuple[int, int], ...]:
    """Lexicographic basis (i, j), i < j, of the second exterior power."""
    return tuple((i, j) for i in range(m) for j in range(i + 1, m))


class JacobiViolation(Exception):
    """A claimed Lie bracket fails the Jacobi identity."""

    def __init__(self, triple: Tuple[int, ...], residual: Vector):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


class InputError(Exception):
    """The input cannot be used. Every error that `lyat` reports with exit
    code 2 derives from this class; any other exception is a fault in lyat."""


class InvalidAlgebra(InputError):
    """An operation required a valid Lie-Yamaguti algebra and got a broken one."""


class InvalidRepresentation(InputError):
    """An operation required a valid representation and got a broken one."""


def _names(prefix: str, n: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


class LYAlgebra:
    """Finite-dimensional algebra with a skew binary bracket and a ternary
    bracket skew in its first two slots, held as its integer tables.

    `binary` maps (i, j) with i < j to the coefficient vector of [e_i, e_j];
    `ternary` maps (i, j, k) with i < j to that of <e_i, e_j, e_k>. Missing
    entries are zero. The constants are stored once, scaled as the module
    docstring explains: q, the least common multiple of their denominators,
    and q[e_i,e_j] as b[i][j] and q^2<e_i,e_j,e_k> as t[i][j][k], sparse, for
    every ordered index tuple. `basis`, `bracket_basis` and `triple_basis` are
    `Fraction` views of them, made on first use. Whether the axioms hold is a
    separate question answered by `check_lya`.
    """

    __slots__ = ("dim", "basis_names", "_tables", "_views")

    def __init__(self, dim: int,
                 binary: Optional[Dict[Tuple[int, int], Iterable]] = None,
                 ternary: Optional[Dict[Tuple[int, int, int], Iterable]] = None,
                 basis_names: Optional[Sequence[str]] = None):
        if dim < 0:
            raise ValueError("algebra dimension must be nonnegative")
        names = tuple(basis_names) if basis_names is not None else _names("e", dim)
        if len(names) != dim:
            raise ValueError(f"expected {dim} basis names, got {len(names)}")

        bvals: Dict[Tuple[int, int], Vector] = {}
        for key, val in (binary or {}).items():
            i, j = key
            self._check_pair(i, j, dim)
            bvals[key] = v = vector(val)
            if len(v) != dim:
                raise ValueError(f"binary constant at {key} has length {len(v)}, expected {dim}")

        tvals: Dict[Tuple[int, int, int], Vector] = {}
        for key, val in (ternary or {}).items():
            i, j, k = key
            self._check_pair(i, j, dim)
            if not 0 <= k < dim:
                raise ValueError(f"ternary index {k} out of range")
            tvals[key] = v = vector(val)
            if len(v) != dim:
                raise ValueError(f"ternary constant at {key} has length {len(v)}, expected {dim}")

        q = _denominator_lcm([*bvals.values(), *tvals.values()])
        self._fill(dim, names, q, {key: _scaled(v, q) for key, v in bvals.items()},
                   {key: _scaled(v, q * q) for key, v in tvals.items()})

    def _fill(self, dim: int, names: Tuple[str, ...], qq: int, b: Dict[Tuple[int, int], Scaled],
              t: Dict[Tuple[int, int, int], Scaled]) -> "LYAlgebra":
        """The one builder of an algebra, from the sparse constants b[(i, j)] = qq[e_i,e_j]
        and t[(i, j, k)] = qq^2<e_i,e_j,e_k>, i < j, for any common scale qq (a missing one is
        zero). It stores them over the least q, each i > j entry as the negated j < i one and
        the diagonal as zero, so every stored table is skew; `check_lya` relies on that."""
        q = 1 if qq == 1 else _least_q(qq, [(w, (x for c in tab.values() for _, x in c))
                                            for w, tab in ((1, b), (2, t))])
        rng, zero = range(dim), []   # the tables are read, never written
        bt = [[zero] * dim for _ in rng]
        tt = [[[zero] * dim for _ in rng] for _ in rng]
        for (i, j), c in b.items():
            if c:
                c = _rescaled(c, q, qq, 1)
                bt[i][j], bt[j][i] = c, [(l, -x) for l, x in c]
        for (i, j, k), c in t.items():
            if c:
                c = _rescaled(c, q, qq, 2)
                tt[i][j][k], tt[j][i][k] = c, [(l, -x) for l, x in c]
        for name, value in (("dim", dim), ("basis_names", names), ("_tables", (q, bt, tt)),
                            ("_views", {})):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LYAlgebra is immutable")

    @staticmethod
    def _check_pair(i: int, j: int, dim: int) -> None:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"basis index out of range in ({i}, {j})")
        if i >= j:
            raise ValueError(f"structure constants are stored for i < j only, got ({i}, {j})")

    def _view(self, key: tuple, vec: Scaled, w: int) -> Vector:
        """The `Fraction` vector of a sparse integer one of weight w, made on first use."""
        if key not in self._views:
            self._views[key] = _evaluate(vec, self._tables[0] ** w, (), self.dim)
        return self._views[key]

    def basis(self, i: int) -> Vector:
        return self._view(("e", i), [(i, 1)], 0)

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self._view(("b", i, j), self._tables[1][i][j], 1)

    def triple_basis(self, i: int, j: int, k: int) -> Vector:
        return self._view(("t", i, j, k), self._tables[2][i][j][k], 2)

    def bracket(self, u: Vector, v: Vector) -> Vector:
        return _evaluate(self._tables[1], self._tables[0], (u, v), self.dim)

    def triple(self, u: Vector, v: Vector, w: Vector) -> Vector:
        return _evaluate(self._tables[2], self._tables[0] ** 2, (u, v, w), self.dim)

    def binary_constants(self) -> Dict[Tuple[int, int], Vector]:
        b = self._tables[1]
        return {(i, j): self.bracket_basis(i, j) for i, j in wedge_basis(self.dim) if b[i][j]}

    def ternary_constants(self) -> Dict[Tuple[int, int, int], Vector]:
        t = self._tables[2]
        return {(i, j, k): self.triple_basis(i, j, k)
                for i, j in wedge_basis(self.dim) for k in range(self.dim) if t[i][j][k]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LYAlgebra):
            return NotImplemented
        return self.dim == other.dim and self._tables == other._tables

    def __hash__(self) -> int:
        return hash((self.dim, self._tables[0]))

    def __repr__(self) -> str:
        return f"LYAlgebra(dim={self.dim})"


Scaled = List[Tuple[int, int]]  # (index, integer value) pairs, value != 0


def _denominator_lcm(vectors: Iterable[Sequence[Fraction]]) -> int:
    return math.lcm(1, *{x.denominator for vec in vectors for x in vec if x})


def _scaled(vec: Sequence[Fraction], s: int) -> Scaled:
    """The nonzero entries of s * vec, where s clears every denominator."""
    return [(l, x.numerator * (s // x.denominator)) for l, x in enumerate(vec) if x]


def _evaluate(table: list, den: int, args: Sequence[Vector], n: int, matrix: bool = False):
    """The multilinear extension of an integer table over den to `Fraction` vectors, each
    scaled by the lcm of its denominators. The args fill the first slots; what remains is
    a sparse vector of length n, or the n sparse columns of an n x n `Matrix`. An argument
    whose length is not its slot's dimension raises ValueError."""
    sub = table
    for x in args:
        if len(x) != len(sub):
            raise ValueError(f"expected a vector of length {len(sub)}, got {len(x)}")
        sub = sub[0] if sub else sub
    scales = [_denominator_lcm([x]) for x in args]
    acc = [0] * (n * n if matrix else n)
    for pairs in itertools.product(*map(_scaled, args, scales)):
        sub, c = table, 1
        for p, x in pairs:
            sub, c = sub[p], c * x
        for k, col in enumerate(sub if matrix else (sub,)):
            for l, y in col:
                acc[k * n + l] += c * y
    den, zero = den * math.prod(scales), Fraction(0)
    out = [Fraction(x, den) if x else zero for x in acc]
    return Matrix([out[l::n] for l in range(n)], cols=n) if matrix else tuple(out)


def _sparse(acc: Iterable[int]) -> Scaled:
    """The nonzero entries of a dense integer vector."""
    return [(l, x) for l, x in enumerate(acc) if x] if any(acc) else []


def _comb(acc: List[int], s: int, coeffs: Scaled, vecs: Sequence[Scaled]) -> None:
    """acc += s * sum_p coeffs[p] * vecs[p], over nonzero entries only."""
    for p, c in coeffs:
        sc = s * c
        for l, x in vecs[p]:
            acc[l] += sc * x


def _ccomb(acc: List[int], s: int, coeffs: Scaled, mats: Sequence[List[Scaled]], c: int) -> None:
    """acc += s * sum_p coeffs[p] * (column c of mats[p])."""
    for p, x in coeffs:
        sx = s * x
        for l, y in mats[p][c]:
            acc[l] += sx * y


def _add(acc: List[int], s: int, vec: Scaled) -> None:
    for l, x in vec:
        acc[l] += s * x


def _algebra_tables(a: LYAlgebra, den: int = 1) -> Tuple[int, list, list]:
    """The algebra's stored q, b and t (see `LYAlgebra`), or, when den brings a
    denominator that q lacks, the same tables over q' = lcm(q, den): b times
    q'/q and t times (q'/q)^2."""
    q, b, t = a._tables
    s = math.lcm(q, den) // q
    if s == 1:
        return a._tables
    return q * s, [[[(l, x * s) for l, x in c] for c in row] for row in b], \
        [[[[(l, x * s * s) for l, x in c] for c in col] for col in row] for row in t]


def _least_q(qq: int, weighted: Iterable[Tuple[int, Iterable[int]]]) -> int:
    """The least common multiple of the denominators of x / qq^w, over the
    integers x of each weight w: that of gcd(qq^w, all x) / qq^w, for each w."""
    return math.lcm(*(qq ** w // math.gcd(qq ** w, *xs) for w, xs in weighted))


def _rescaled(vec: Scaled, q: int, qq: int, w: int) -> Scaled:
    """A sparse integer vector of weight w over qq^w, over q^w."""
    return vec if q == qq else [(l, x * q ** w // qq ** w) for l, x in vec]


def check_lya(a: LYAlgebra) -> AxiomReport:
    """Check the four defining identities on every basis tuple.

    Multilinearity extends basis-tuple validity to the whole space, so an
    empty violation list certifies the algebra. Violations carry the basis
    index tuple and the nonzero residual (always "LHS sum" in the orientation
    written below). Evaluated in integers as the module docstring explains.

    On skew tables, as `LYAlgebra._fill` stores them, jacobi-defect and
    cyclic-ternary are totally skew in their first three indices, and both
    derivation identities skew in (i, j) and in (k, l). So one tuple per orbit
    decides validity; only an algebra that fails is enumerated in full.
    """
    n = a.dim
    rng = range(n)
    q, b, t = _algebra_tables(a)
    # tt[k][l][p] = t[p][k][l]: the triple as a function of its first slot
    tt = [[[t[p][k][l] for p in rng] for l in rng] for k in rng]

    # [[x,y],z] + [[y,z],x] + [[z,x],y] + <x,y,z> + <y,z,x> + <z,x,y> = 0
    def jacobi(i, j, k):
        acc = [0] * n
        _comb(acc, -1, b[i][j], b[k])
        _comb(acc, -1, b[j][k], b[i])
        _comb(acc, -1, b[k][i], b[j])
        _add(acc, 1, t[i][j][k])
        _add(acc, 1, t[j][k][i])
        _add(acc, 1, t[k][i][j])
        return acc

    # <[x,y],z,w> + <[y,z],x,w> + <[z,x],y,w> = 0
    def cyclic(i, j, k, l):
        acc = [0] * n
        _comb(acc, 1, b[i][j], tt[k][l])
        _comb(acc, 1, b[j][k], tt[i][l])
        _comb(acc, 1, b[k][i], tt[j][l])
        return acc

    # <x,y,[z,w]> = [<x,y,z>,w] + [z,<x,y,w>]
    def binary_derivation(i, j, k, l):
        acc = [0] * n
        _comb(acc, 1, b[k][l], t[i][j])
        _comb(acc, 1, t[i][j][k], b[l])
        _comb(acc, -1, t[i][j][l], b[k])
        return acc

    # <x,y,<z,w,t>> = <<x,y,z>,w,t> + <z,<x,y,w>,t> + <z,w,<x,y,t>>
    def ternary_derivation(i, j, k, l, m):
        acc = [0] * n
        _comb(acc, 1, t[k][l][m], t[i][j])
        _comb(acc, -1, t[i][j][k], tt[l][m])
        _comb(acc, 1, t[i][j][l], tt[k][m])
        _comb(acc, -1, t[i][j][m], t[k][l])
        return acc

    pairs, triples = wedge_basis(n), list(itertools.combinations(rng, 3))
    # (label, residual, its arity, q^weight, one tuple per orbit)
    identities = (
        ("jacobi-defect", jacobi, 3, q ** 2, triples),
        ("cyclic-ternary", cyclic, 4, q ** 3, [c + (l,) for c in triples for l in rng]),
        ("binary-derivation", binary_derivation, 4, q ** 3, [p + r for p in pairs for r in pairs]),
        ("ternary-derivation", ternary_derivation, 5, q ** 4,
         [p + r + (m,) for p in pairs for r in pairs for m in rng]),
    )
    if not any(any(res(*args)) for _, res, _, _, orbits in identities for args in orbits):
        return AxiomReport.from_violations(())
    return AxiomReport.from_violations(
        Violation(label, args, tuple(Fraction(x, den) for x in acc))
        for label, res, arity, den, _ in identities
        for args in itertools.product(rng, repeat=arity) if any(acc := res(*args)))


def lya_from_lie(dim: int,
                 binary: Optional[Dict[Tuple[int, int], Iterable]] = None,
                 basis_names: Optional[Sequence[str]] = None) -> LYAlgebra:
    """Lift a Lie algebra to a Lie-Yamaguti algebra via <x,y,z> := [[x,y],z].

    The Jacobi identity is verified first; the first failing basis triple is
    raised as `JacobiViolation` with its residual.
    """
    lie = LYAlgebra(dim, binary=binary, basis_names=basis_names)
    # with no ternary bracket the jacobi-defect residual is the Jacobi sum
    failure = check_lya(lie).first("jacobi-defect")
    if failure is not None:
        raise JacobiViolation(failure.args, failure.residual)
    q, b, _ = _algebra_tables(lie)
    ternary = {}
    for i, j in wedge_basis(dim):
        for k in range(dim):
            acc = [0] * dim   # q^2 [[e_i, e_j], e_k] = -q^2 [e_k, [e_i, e_j]]
            _comb(acc, -1, b[i][j], b[k])
            ternary[(i, j, k)] = _sparse(acc)
    return LYAlgebra.__new__(LYAlgebra)._fill(
        dim, lie.basis_names, q, {(i, j): b[i][j] for i, j in wedge_basis(dim)}, ternary)


# q and the integer tables of a representation; see `Representation.tables`
Tables = NamedTuple("Tables", [("q", int), ("b", list), ("t", list),
                               ("rho", list), ("mu", list), ("d", list)])


class Representation:
    """Module data (rho, mu) for a Lie-Yamaguti algebra, held as its integer `tables`.

    rho assigns a dim_v x dim_v matrix to each algebra basis element; mu
    assigns one to each ordered pair. `rho`, `mu` and `d_basis`, of the derived
    skew action D(x,y) = mu(y,x) - mu(x,y) + [rho(x),rho(y)] - rho([x,y]), are
    `Fraction` views of the tables, made on first use. Validity is a separate
    question answered by `check_representation`.
    """

    __slots__ = ("algebra", "dim_v", "_tables", "_views")

    def __init__(self, algebra: LYAlgebra, dim_v: int,
                 rho: Sequence[Matrix], mu: Sequence[Sequence[Matrix]]):
        if len(rho) != algebra.dim:
            raise ValueError(f"expected {algebra.dim} rho matrices, got {len(rho)}")
        if len(mu) != algebra.dim or any(len(row) != algebra.dim for row in mu):
            raise ValueError(f"mu must be a {algebra.dim}x{algebra.dim} array of matrices")
        maps = [*rho, *itertools.chain(*mu)]
        for m in maps:
            if (m.rows, m.cols) != (dim_v, dim_v):
                raise ValueError(f"rho and mu matrices must be {dim_v}x{dim_v}, got {m.rows}x{m.cols}")
        qq = _denominator_lcm(row for m in maps for row in m.entries)
        self._fill(algebra, dim_v, qq, [[_scaled(col, qq) for col in m.columns()] for m in rho],
                   [[[_scaled(col, qq * qq) for col in m.columns()] for m in row] for row in mu])

    def _fill(self, algebra: LYAlgebra, dim_v: int, qq: int, rho: List[List[Scaled]],
              mu: List[List[List[Scaled]]]) -> "Representation":
        """The one builder of a representation, from the columns of qq rho and qq^2 mu for any
        scale qq. It stores them over the least q, the lcm of the algebra's q and theirs, with
        the algebra's b and t over q, and D from its formula for i < j, by skewness otherwise."""
        if dim_v < 0:
            raise ValueError("module dimension must be nonnegative")
        q = algebra._tables[0] if qq == 1 else math.lcm(algebra._tables[0], _least_q(qq, [
            (1, (x for m in rho for col in m for _, x in col)),
            (2, (x for row in mu for m in row for col in m for _, x in col))]))
        if q != qq:
            rho = [[_rescaled(col, q, qq, 1) for col in m] for m in rho]
            mu = [[[_rescaled(col, q, qq, 2) for col in m] for m in row] for row in mu]
        _, b, t = _algebra_tables(algebra, q)
        n, rng = dim_v, range(algebra.dim)
        d: List[List[List[Scaled]]] = [[[[] for _ in range(n)] for _ in rng] for _ in rng]
        for i, j in wedge_basis(algebra.dim):
            acc = [0] * (n * n)
            _madd(acc, 1, mu[j][i])
            _madd(acc, -1, mu[i][j])
            _mmul(acc, 1, rho[i], rho[j])
            _mmul(acc, -1, rho[j], rho[i])
            _mcomb(acc, -1, b[i][j], rho)
            d[i][j] = [_sparse(acc[c * n:c * n + n]) for c in range(n)]
            d[j][i] = [[(l, -x) for l, x in col] for col in d[i][j]]
        for name, value in (("algebra", algebra), ("dim_v", dim_v),
                            ("_tables", Tables(q, b, t, rho, mu, d)), ("_views", {})):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def _view(self, key: tuple, cols: List[Scaled], w: int) -> Matrix:
        """The `Fraction` matrix of integer columns of weight w, made on first use."""
        if key not in self._views:
            self._views[key] = _evaluate(cols, self._tables.q ** w, (), self.dim_v, True)
        return self._views[key]

    def rho(self, i: int) -> Matrix:
        return self._view(("rho", i), self._tables.rho[i], 1)

    def mu(self, i: int, j: int) -> Matrix:
        return self._view(("mu", i, j), self._tables.mu[i][j], 2)

    def d_basis(self, i: int, j: int) -> Matrix:
        return self._view(("d", i, j), self._tables.d[i][j], 2)

    def tables(self) -> Tables:
        """The integer tables: q[e_i,e_j] as b[i][j], q^2<e_i,e_j,e_k> as
        t[i][j][k], and the columns of q rho(e_i), q^2 mu(e_i,e_j) and
        q^2 D(e_i,e_j) as rho[i][c], mu[i][j][c], d[i][j][c]."""
        return self._tables

    def rho_of(self, x: Vector) -> Matrix:
        return _evaluate(self._tables.rho, self._tables.q, (x,), self.dim_v, True)

    def mu_of(self, x: Vector, y: Vector) -> Matrix:
        return _evaluate(self._tables.mu, self._tables.q ** 2, (x, y), self.dim_v, True)

    def d_of(self, x: Vector, y: Vector) -> Matrix:
        return _evaluate(self._tables.d, self._tables.q ** 2, (x, y), self.dim_v, True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Representation):
            return NotImplemented
        return (self.algebra == other.algebra and self.dim_v == other.dim_v
                and self._tables[:5] == other._tables[:5])

    def __hash__(self) -> int:
        return hash((self.algebra, self.dim_v, self._tables.q))

    def __repr__(self) -> str:
        return f"Representation(dim_v={self.dim_v} over dim={self.algebra.dim})"


def _madd(acc: List[int], s: int, m: List[Scaled]) -> None:
    """acc += s * m, with acc a column-major flat table."""
    v = len(m)
    for c, col in enumerate(m):
        cv = c * v
        for r, x in col:
            acc[cv + r] += s * x


def _mmul(acc: List[int], s: int, m1: List[Scaled], m2: List[Scaled]) -> None:
    """acc += s * m1 @ m2."""
    v = len(m2)
    for c, col in enumerate(m2):
        cv = c * v
        for k, x in col:
            sx = s * x
            for r, y in m1[k]:
                acc[cv + r] += sx * y


def _mcomb(acc: List[int], s: int, coeffs: Scaled, mats: Sequence[List[Scaled]]) -> None:
    """acc += s * sum_p coeffs[p] * mats[p]."""
    for p, cp in coeffs:
        _madd(acc, s * cp, mats[p])


def _column_violations(identity: str, args: Tuple[int, ...], cols: Iterable[List[int]],
                       den: int) -> List[Violation]:
    """A matrix residual, given by its integer columns over den, as one violation per nonzero
    column c, with c appended to args, so residuals stay vectors."""
    return [Violation(identity, args + (c,), tuple(Fraction(x, den) for x in col))
            for c, col in enumerate(cols) if any(col)]


def _matrix_violations(viols: List[Violation], identity: str, args: Tuple[int, ...],
                       acc: List[int], v: int, den: int) -> None:
    if any(acc):   # acc is column-major and v x v
        viols += _column_violations(identity, args, (acc[c * v:c * v + v] for c in range(v)), den)


def check_representation(r: Representation) -> AxiomReport:
    """Check the five representation conditions plus three derived identities
    for D that downstream constructions rely on. Identities are evaluated as
    matrix equations per basis tuple, in integers as the module docstring
    explains; a violation is recorded per nonzero residual column, with the
    module index appended to the argument tuple.

    On skew tables, as the builders store them, d-bracket-cyclic is totally
    skew, d-triple-commutator skew in (i, j) and in (k, l), mu-bracket-right
    and mu-composition skew in (j, k), and the others skew in (i, j). So one
    tuple per orbit decides validity, as in `check_lya`; only a
    representation that fails is enumerated in full, tuple by tuple.
    """
    a = r.algebra
    n, v = a.dim, r.dim_v
    rng = range(n)
    vv = v * v
    q, b, t, rho, mu, d = r.tables()
    mu_t = [[mu[p][k] for p in rng] for k in rng]  # mu_t[k][p] = mu(e_p, e_k)

    # mu([x,y],z) = mu(x,z) rho(y) - mu(y,z) rho(x)
    def mu_bracket_left(i, j, k):
        acc = [0] * vv
        _mcomb(acc, 1, b[i][j], mu_t[k])
        _mmul(acc, -1, mu[i][k], rho[j])
        _mmul(acc, 1, mu[j][k], rho[i])
        return acc

    # mu(x,[y,z]) = rho(y) mu(x,z) - rho(z) mu(x,y)
    def mu_bracket_right(i, j, k):
        acc = [0] * vv
        _mcomb(acc, 1, b[j][k], mu[i])
        _mmul(acc, -1, rho[j], mu[i][k])
        _mmul(acc, 1, rho[k], mu[i][j])
        return acc

    # rho(<x,y,z>) = [D(x,y), rho(z)]
    def rho_triple_commutator(i, j, k):
        acc = [0] * vv
        _mcomb(acc, 1, t[i][j][k], rho)
        _mmul(acc, -1, d[i][j], rho[k])
        _mmul(acc, 1, rho[k], d[i][j])
        return acc

    # D([x,y],z) + D([y,z],x) + D([z,x],y) = 0   (derived; D is skew)
    def d_bracket_cyclic(i, j, k):
        acc = [0] * vv
        _mcomb(acc, -1, b[i][j], d[k])
        _mcomb(acc, -1, b[j][k], d[i])
        _mcomb(acc, -1, b[k][i], d[j])
        return acc

    # mu(z,w) mu(x,y) - mu(y,w) mu(x,z) - mu(x,<y,z,w>) + D(y,z) mu(x,w) = 0
    def mu_composition(i, j, k, l):
        acc = [0] * vv
        _mmul(acc, 1, mu[k][l], mu[i][j])
        _mmul(acc, -1, mu[j][l], mu[i][k])
        _mcomb(acc, -1, t[j][k][l], mu[i])
        _mmul(acc, 1, d[j][k], mu[i][l])
        return acc

    # mu(<x,y,z>,w) + mu(z,<x,y,w>) = [D(x,y), mu(z,w)]
    def mu_triple_commutator(i, j, k, l):
        acc = [0] * vv
        _mcomb(acc, 1, t[i][j][k], mu_t[l])
        _mcomb(acc, 1, t[i][j][l], mu[k])
        _mmul(acc, -1, d[i][j], mu[k][l])
        _mmul(acc, 1, mu[k][l], d[i][j])
        return acc

    # D(<x,y,z>,w) + D(z,<x,y,w>) = [D(x,y), D(z,w)]   (derived)
    def d_triple_commutator(i, j, k, l):
        acc = [0] * vv
        _mcomb(acc, -1, t[i][j][k], d[l])
        _mcomb(acc, 1, t[i][j][l], d[k])
        _mmul(acc, -1, d[i][j], d[k][l])
        _mmul(acc, 1, d[k][l], d[i][j])
        return acc

    # mu(<x,y,z>,w) = mu(x,w) mu(z,y) - mu(y,w) mu(z,x) - mu(z,w) D(x,y)   (derived)
    def mu_triple_expansion(i, j, k, l):
        acc = [0] * vv
        _mcomb(acc, 1, t[i][j][k], mu_t[l])
        _mmul(acc, -1, mu[i][l], mu[k][j])
        _mmul(acc, 1, mu[j][l], mu[k][i])
        _mmul(acc, 1, mu[k][l], d[i][j])
        return acc

    pairs = wedge_basis(n)
    ij_k = [(i, j, k) for i, j in pairs for k in rng]
    ij_kl = [(i, j, k, l) for i, j in pairs for k in rng for l in rng]
    # (arity, q^weight, and each identity's label, residual and one tuple per orbit)
    groups = (
        (3, q ** 3, (("mu-bracket-left", mu_bracket_left, ij_k),
                     ("mu-bracket-right", mu_bracket_right, [(i, j, k) for i in rng for j, k in pairs]),
                     ("rho-triple-commutator", rho_triple_commutator, ij_k),
                     ("d-bracket-cyclic", d_bracket_cyclic, list(itertools.combinations(rng, 3))))),
        (4, q ** 4, (("mu-composition", mu_composition,
                      [(i, j, k, l) for i in rng for j, k in pairs for l in rng]),
                     ("mu-triple-commutator", mu_triple_commutator, ij_kl),
                     ("d-triple-commutator", d_triple_commutator, [p + s for p in pairs for s in pairs]),
                     ("mu-triple-expansion", mu_triple_expansion, ij_kl))),
    )
    if not any(any(res(*args)) for _, _, identities in groups
               for _, res, orbits in identities for args in orbits):
        return AxiomReport.from_violations(())
    viols: List[Violation] = []
    for arity, den, identities in groups:
        for args in itertools.product(rng, repeat=arity):
            for label, res, _ in identities:
                _matrix_violations(viols, label, args, res(*args), v, den)
    return AxiomReport.from_violations(viols)


def _require_lya(a: LYAlgebra) -> None:
    """Raise InvalidAlgebra at the first violation `check_lya` finds."""
    report = check_lya(a)
    if not report.valid:
        first = report.violations[0]
        raise InvalidAlgebra(f"algebra fails {first.identity} at basis tuple {first.args}")


def _require_representation(r: Representation) -> None:
    """Raise InvalidRepresentation at the first violation `check_representation` finds."""
    report = check_representation(r)
    if not report.valid:
        first = report.violations[0]
        raise InvalidRepresentation(f"representation fails {first.identity} at {first.args}")


def adjoint_rep(a: LYAlgebra) -> Representation:
    """The algebra acting on itself: rho(x) = [x, .], mu(x, y) = <., x, y>.

    Requires a valid algebra (raises InvalidAlgebra otherwise); validity of
    the result is then automatic and D(x,y) acts as <x,y,.>.
    """
    _require_lya(a)
    q, b, t = _algebra_tables(a)
    rng = range(a.dim)
    mu = [[[t[k][i][j] for k in rng] for j in rng] for i in rng]
    return Representation.__new__(Representation)._fill(a, a.dim, q, b, mu)


def zero_rep(a: LYAlgebra, dim_v: int) -> Representation:
    """The trivial action on a dim_v-dimensional module."""
    zero = [[]] * dim_v   # the tables are read, never written
    return Representation.__new__(Representation)._fill(a, dim_v, 1, [zero] * a.dim,
                                                         [[zero] * a.dim] * a.dim)
