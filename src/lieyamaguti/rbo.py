"""Relative Rota-Baxter operators and the structures they induce.

An operator T: V -> g is relative Rota-Baxter for a representation
(V; rho, mu) when

    [Tu, Tv]     = T( rho(Tu)v - rho(Tv)u )
    <Tu, Tv, Tw> = T( D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v )

Verified operators induce a Lie-Yamaguti structure on V, a representation of
it back on g, pre-Lie-Yamaguti products, and a Nijenhuis operator on the
semidirect sum; all of that lives here, with the semidirect sum itself and
the Nijenhuis operator checks.

Both identities, and every coefficient of their expansion under a polynomial
T_t = sum_s t^s T_s (see `deformation`), are evaluated by one engine,
`_expansion`, in Python integers. It reads the representation's stored
`tables()`, scaled by q as `structures` explains, and the terms T_s scaled
by their own q_T, the least common multiple of their denominators. Both
identities are bi-homogeneous: every summand of the binary one holds T twice
and a table of weight 1 in q, every summand of the ternary one T three times
and a table of weight 2. A residual R is therefore q_T^2 q or q_T^3 q^2 times
the true one, which Fraction(R, q_T^2 q) or Fraction(R, q_T^3 q^2) gives
back exactly. The sub-adjacent brackets [u,v]_T and <u,v,w>_T are the
engine's inner tables, scaled by q_T q and q_T^2 q^2; `induced_lya_on_v`
hands them to the algebra's builder at that scale, as `induced_rep_on_g`
hands rho' and mu' to the representation's, and the builders reduce them to
the least q (see `structures`). As q_T is separate, the stored tables depend
only on the representation.

Every other operator-side map is held the same way: a caller's `Matrix` is
scaled once by `_term_tables`, where it enters. T alone enters through its
`RelRBO`, which keeps q_T and T's columns (`RelRBO._columns`); a list of
terms (a deformation, T with a direction) or of maps (N, phi_g, phi_v) is
scaled by the function it is given to. `RelRBO.build` runs order 0 of
`_expansion` once, and the operator keeps its inner tables, from which
`induced_lya_on_v` builds the sub-adjacent algebra; `rbo_cohomology` keeps
the operator's complex and the elimination of delta^0 on it too, so each is
made once per operator object. Identities are unit columns, and
`Wedge2._contract` reads <X, .> and D(X) off the tables. Products of maps are composed in integers, and a
matrix residual reports one violation per nonzero column. Homomorphisms of
operators are order 0 of `_hom_expansion`, the t^s coefficients of the
conditions for phi_t = sum_s t^s Phi_s on g and psi_t = sum_s t^s Psi_s on V
to be a homomorphism. The same expansion gives the Nijenhuis operator
conditions for phi_t = Id + tN (`_nijenhuis`), and the Nijenhuis element and
equivalence conditions of `deformation` for Id + t<X, .> and Id + tD(X).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from .linalg import Matrix, Vector, inverse, rat, vneg, vsub, vzero
from .structures import (AxiomReport, InputError, LYAlgebra, Representation, Scaled, Violation,
                         _add, _ccomb, _column_violations, _comb, _denominator_lcm, _evaluate, _names,
                         _scaled, _sparse, wedge_basis, zero_rep)

__all__ = ["NotRotaBaxter", "UnverifiedOperator", "NotIntertwining", "NotAutomorphism", "NotNijenhuis",
           "RelRBO", "Wedge2", "check_rbo", "induced_lya_on_v", "induced_rep_on_g", "pre_ly_products",
           "lift_to_nijenhuis", "rbo_homomorphism_check", "conjugate_rbo", "semidirect",
           "nijenhuis_operator_check", "deformed_brackets"]


class NotRotaBaxter(InputError, ValueError):
    """`RelRBO.build` was given an operator that fails `check_rbo`."""


class UnverifiedOperator(InputError):
    """A construction that is only meaningful for verified operators was
    asked to run on an unverified one."""


class NotIntertwining(Exception):
    """The map pair fails the rho/mu intertwining conditions."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"fails {violation.identity} at {violation.args}")


class NotAutomorphism(Exception):
    """The algebra-side map is not an algebra automorphism."""


class NotNijenhuis(Exception):
    """Deformed brackets were requested for a non-Nijenhuis operator."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(
            f"operator fails {violation.identity} at basis tuple {violation.args}")


class _RelRBOFields(NamedTuple):
    algebra: LYAlgebra
    rep: Representation
    t_matrix: Matrix
    verified: bool = False


class RelRBO(_RelRBOFields):
    """An operator matrix (columns = images of module basis vectors in g)
    bundled with its algebra and representation.

    `verified` records that `check_rbo` passed, or that a theorem makes T an
    operator (`conjugate_rbo`); constructions that rely on the defining
    identities gate on it. Use `build` to verify-and-wrap. The instance
    dictionary (no `__slots__`) keeps what the operator derives from T
    (`_derive`); equality and hashing read the fields only.
    """

    def __new__(cls, algebra: LYAlgebra, rep: Representation, t_matrix: Matrix,
                verified: bool = False) -> "RelRBO":
        t = t_matrix
        if (t.rows, t.cols) != (algebra.dim, rep.dim_v):
            raise ValueError(
                f"operator must be {algebra.dim}x{rep.dim_v}, got {t.rows}x{t.cols}")
        return super().__new__(cls, algebra, rep, t_matrix, verified)

    @classmethod
    def build(cls, algebra: LYAlgebra, rep: Representation, t_matrix: Matrix) -> "RelRBO":
        o = cls(algebra, rep, t_matrix, verified=True)
        report = o._check()
        if not report.valid:
            first = report.violations[0]
            raise NotRotaBaxter(
                f"not a relative Rota-Baxter operator: fails {first.identity} at {first.args}")
        return o

    def __setattr__(self, name, value):
        raise AttributeError("RelRBO is immutable")

    def _derive(self, key: str, make: Callable[["RelRBO"], Any]) -> Any:
        """What the operator keeps under key, made by make(self) on first use."""
        if key not in self.__dict__:
            self.__dict__[key] = make(self)
        return self.__dict__[key]

    def _columns(self) -> TermTables:
        """q_T and T's integer columns: where T enters the integer engines, once."""
        return self._derive("columns", lambda o: _term_tables((o.t_matrix,)))

    def _check(self) -> AxiomReport:
        """`check_rbo` of T, order 0 of `_expansion`; the operator keeps its inner tables."""
        residuals, self.__dict__["inner"] = _expansion(self.algebra, self.rep, self._columns(), (0,))
        return AxiomReport.from_violations(
            _violations(residuals, (0,), "rota-baxter-binary", "rota-baxter-ternary"))

    def column(self, b: int) -> Vector:
        return self.t_matrix.column(b)

    def apply(self, u: Vector) -> Vector:
        return self.t_matrix.apply(u)


def check_rbo(a: LYAlgebra, r: Representation, t: Matrix) -> AxiomReport:
    """Check the two defining identities on module basis tuples. Both sides
    are skew in (u, v), so pairs are checked for u < v only; witnesses carry
    module basis indices and the residual LHS - RHS in g."""
    return RelRBO(a, r, t)._check()


Residuals = Dict[int, Tuple[Dict[Tuple[int, int], Vector], Dict[Tuple[int, int, int], Vector]]]
# q_T and the integer columns q_T T_s u_c of terms T_s, as [s][c]; see `_term_tables`
TermTables = Tuple[int, List[List[Scaled]]]


def _expansion(a: LYAlgebra, r: Representation, terms: TermTables,
               orders: Iterable[int]) -> Tuple[Residuals, Tuple[int, Dict, Dict]]:
    """The t^s coefficients of both identities for T_t = sum_s t^s T_s, the
    terms given as `_term_tables` scales them, in integers as the module
    docstring explains:

        S_bin(s)(u, v)    = sum_{i+j=s}   [T_i u, T_j v] - T_i [u, v]_{T_j}
        S_ter(s)(u, v, w) = sum_{i+j+k=s} <T_i u, T_j v, T_k w>
                            - T_i( D(T_j u, T_k v) w + mu(T_j v, T_k w) u
                                   - mu(T_j u, T_k w) v )

    over the available terms. Returns {s: (S_bin(s), S_ter(s))} for each s in
    orders, each a dict from the module basis tuples (u < v, then w) in
    lexicographic order to the residual in g; and, for T = terms[0], qq =
    q_T q with the constants of [u,v]_T and <u,v,w>_T on the same tuples, as
    sparse integer vectors over qq and qq^2. Both sums are skew in (u, v)
    (relabel j <-> k), so u < v suffices.
    """
    m, v = a.dim, r.dim_v
    vrng = range(v)
    qt, tc = terms
    top = len(tc) - 1
    orders = tuple(orders)
    q, b, t, rho, mu, d = r.tables()
    qq = qt * q
    pairs = wedge_basis(v)
    triples = [(b1, b2, b3) for b1, b2 in pairs for b3 in vrng]

    # [u,v]_{T_j}, and sum_{j+k=s} of the inner ternary sum, scaled by qq and qq^2, sparse
    inner2 = []
    for j in range(top + 1):
        table = {}
        for b1, b2 in pairs:
            acc = [0] * v
            _ccomb(acc, 1, tc[j][b1], rho, b2)
            _ccomb(acc, -1, tc[j][b2], rho, b1)
            table[(b1, b2)] = _sparse(acc)
        inner2.append(table)
    inner4 = {}
    for s in {0} | {s - i for s in orders for i in range(min(s, top) + 1)}:
        table = {}
        for b1, b2, b3 in triples:
            acc = [0] * v
            for j in range(max(0, s - top), min(s, top) + 1):
                tk = tc[s - j]
                for p, x in tc[j][b1]:
                    _ccomb(acc, x, tk[b2], d[p], b3)
                    _ccomb(acc, -x, tk[b3], mu[p], b2)
                for p, x in tc[j][b2]:
                    _ccomb(acc, x, tk[b3], mu[p], b1)
            table[(b1, b2, b3)] = _sparse(acc)
        inner4[s] = table

    # each residual term holds one more T than an inner table: over qt qq and qt qq^2
    residuals: Residuals = {}
    for s in orders:
        binary = {}
        for b1, b2 in pairs:
            acc = [0] * m
            for i in range(max(0, s - top), min(s, top) + 1):
                for p, x in tc[i][b1]:
                    _comb(acc, x, tc[s - i][b2], b[p])
                _comb(acc, -1, inner2[s - i][(b1, b2)], tc[i])
            binary[(b1, b2)] = tuple(Fraction(x, qt * qq) for x in acc)
        ternary = {}
        for b1, b2, b3 in triples:
            acc = [0] * m
            for i in range(min(s, top) + 1):
                for j in range(max(0, s - i - top), min(s - i, top) + 1):
                    tk = tc[s - i - j][b3]
                    for p, x in tc[i][b1]:
                        for p2, y in tc[j][b2]:
                            _comb(acc, x * y, tk, t[p][p2])
                _comb(acc, -1, inner4[s - i][(b1, b2, b3)], tc[i])
            ternary[(b1, b2, b3)] = tuple(Fraction(x, qt * qq * qq) for x in acc)
        residuals[s] = (binary, ternary)
    return residuals, (qq, inner2[0], inner4[0])


def _violations(residuals: Residuals, orders: Iterable[int],
                binary_label: str, ternary_label: str) -> List[Violation]:
    """The nonzero residuals at the given orders as violations: the binary
    ones order by order, then the ternary ones; a label names its order as
    `{s}`."""
    viols: List[Violation] = []
    for kind, label in enumerate((binary_label, ternary_label)):
        for s in orders:
            viols.extend(Violation(label.format(s=s), args, res)
                         for args, res in residuals[s][kind].items() if any(res))
    return viols


def _term_tables(terms: Sequence[Matrix]) -> TermTables:
    """q_T, the least common multiple of the terms' denominators, and q_T T_s u_c as [s][c]."""
    qt = _denominator_lcm(row for term in terms for row in term.entries)
    return qt, [[_scaled(col, qt) for col in term.columns()] for term in terms]


def _unit(n: int, s: int) -> List[Scaled]:
    """The columns of s times the n x n identity."""
    return [[(c, s)] for c in range(n)]


def _compose(rows: int, *products: Tuple[int, List[Scaled], List[Scaled]]) -> List[List[int]]:
    """The dense integer columns of the sum of s A B over the (s, A, B) given, A with `rows` rows."""
    cols = []
    for c in range(len(products[0][2])):
        acc = [0] * rows
        for s, a, b in products:
            _comb(acc, s, b[c], a)
        cols.append(acc)
    return cols


def _hom_expansion(a: LYAlgebra, r: Representation, qp: int, phis: Sequence[List[Scaled]],
                   psis: Sequence[List[Scaled]], orders: Sequence[int],
                   families: Sequence[str]) -> Dict[str, Dict]:
    """The t^s coefficients, s in orders, of the homomorphism conditions on
    phi_t = sum_s t^s phis[s] on g and psi_t = sum_s t^s psis[s] on V,

        binary-hom      [phi_t x, phi_t y] - phi_t [x, y]               (x < y)
        ternary-hom     <phi_t x, phi_t y, phi_t z> - phi_t <x, y, z>
        rho-intertwine  rho(phi_t x) psi_t u - psi_t rho(x) u
        mu-intertwine   mu(phi_t x, phi_t y) psi_t u - psi_t mu(x, y) u
        d-intertwine    D(phi_t x, phi_t y) psi_t u - psi_t D(x, y) u

    for basis vectors x, y, z of g and u of V, in integers on `r.tables()`:
    {family: {s: {args: residual}}}, nonzero residuals only, args in
    lexicographic order. Each map is its integer columns over one common
    scale qp. A left side holds the maps k = 2 or 3 times and a table of
    weight k - 1, a right side once, times qp^(k-1); so Fraction(R, qp^k
    q^(k-1)) is the residual."""
    q, b, t, rho, mu, d = r.tables()
    f, g = phis, psis
    # each family's table, of weight n - 1, and its n slots' maps; the last maps the value too
    spec = {"binary-hom": (b, (f, f)), "ternary-hom": (t, (f, f, f)), "rho-intertwine": (rho, (f, g)),
            "mu-intertwine": (mu, (f, f, g)), "d-intertwine": (d, (f, f, g))}
    out = {}
    for name in families:
        table, maps = spec[name]
        n, value = len(maps), maps[-1]
        den, rhs = qp ** n * q ** (n - 1), -qp ** (n - 1)
        # per order, each split's maps of the head slots and of the last one
        splits = {s: [([mp[si] for mp, si in zip(maps[:-1], ss)], value[ss[-1]])
                      for ss in itertools.product(*(range(len(mp)) for mp in maps)) if sum(ss) == s]
                  for s in orders}
        out[name] = residuals = {s: {} for s in orders}
        tuples = wedge_basis(a.dim) if name == "binary-hom" else \
            itertools.product(*(range(len(mp[0])) for mp in maps))
        for args in tuples:
            for s in orders:
                acc = [0] * len(value[0])
                for heads, last in splits[s]:
                    for pairs in itertools.product(*map(list.__getitem__, heads, args)):
                        sub, c = table, 1
                        for p, x in pairs:
                            sub, c = sub[p], c * x
                        _comb(acc, c, last[args[-1]], sub)
                if s < len(value):
                    entry = table[args[0]][args[1]] if n == 2 else table[args[0]][args[1]][args[2]]
                    _comb(acc, rhs, entry, value[s])
                if any(acc):
                    residuals[s][args] = tuple(Fraction(x, den) for x in acc)
    return out


# the homomorphism conditions, in the order `rbo_homomorphism_check` reports them
_HOM = ("binary-hom", "ternary-hom", "rho-intertwine", "mu-intertwine", "d-intertwine")


def _require_verified(o: RelRBO) -> None:
    if not o.verified:
        raise UnverifiedOperator("operator has not passed check_rbo")


def induced_lya_on_v(o: RelRBO) -> LYAlgebra:
    """The sub-adjacent Lie-Yamaguti algebra on the module of a verified
    operator. It satisfies the axioms, and T is an algebra homomorphism from
    it into the original brackets (both checked by the tests). Its tables are
    the engine's inner tables, over q_T q, which the operator keeps."""
    _require_verified(o)
    qq, binary, ternary = o._derive("inner", lambda o: _expansion(o.algebra, o.rep, o._columns(), ())[1])
    v = o.rep.dim_v
    return LYAlgebra.__new__(LYAlgebra)._fill(v, _names("e", v), qq, binary, ternary)


def induced_rep_on_g(o: RelRBO) -> Representation:
    """The induced representation of the sub-adjacent algebra back on g:

        rho'(u) x    = [Tu, x] + T( rho(x) u )
        mu'(u, v) x  = <x, Tu, Tv> - T( D(x, Tu) v - mu(x, Tv) u )

    It is a valid representation, and its derived D action has the closed form
        D'(u, v) x = <Tu, Tv, x> - T( mu(Tv, x) u - mu(Tu, x) v )
    (both checked by the tests). Evaluated on the engine's integer tables, as
    rho' over q_T q and mu' over (q_T q)^2."""
    sub = induced_lya_on_v(o)   # checks that o is verified
    a, r = o.algebra, o.rep
    m, v = a.dim, r.dim_v
    q, b, t, rho, mu, d = r.tables()
    qt, (tc,) = o._columns()

    def rho2(u: int, c: int) -> Scaled:
        acc = [0] * m
        _comb(acc, -1, tc[u], b[c])              # [Tu, e_c] = -[e_c, Tu]
        _comb(acc, 1, rho[c][u], tc)             # T( rho(e_c) u )
        return _sparse(acc)

    def mu2(u1: int, u2: int, c: int) -> Scaled:
        acc = [0] * m
        for p, x in tc[u1]:
            _comb(acc, x, tc[u2], t[c][p])       # <e_c, Tu1, Tu2>
            _comb(acc, -x, d[c][p][u2], tc)      # - T( D(e_c, Tu1) u2 )
        for p, x in tc[u2]:
            _comb(acc, x, mu[c][p][u1], tc)      # + T( mu(e_c, Tu2) u1 )
        return _sparse(acc)

    grng, vrng = range(m), range(v)
    return Representation.__new__(Representation)._fill(
        sub, m, qt * q, [[rho2(u, c) for c in grng] for u in vrng],
        [[[mu2(u1, u2, c) for c in grng] for u2 in vrng] for u1 in vrng])


def pre_ly_products(o: RelRBO) -> Tuple[Tuple[Tuple[Vector, ...], ...],
                                        Tuple[Tuple[Tuple[Vector, ...], ...], ...]]:
    """Pre-Lie-Yamaguti products on the module:

        u * v     = rho(Tu) v          (binary table [a][b])
        {u, v, w} = mu(Tv, Tw) u       (ternary table [a][b][c])

    The commutator of * is the sub-adjacent bracket (checked by the tests)."""
    _require_verified(o)
    return _pre_ly_expansion(o.rep, o._columns(), (0,))[0]


def _pre_ly_expansion(r: Representation, terms: TermTables,
                      orders: Iterable[int]) -> Dict[int, Tuple[tuple, tuple]]:
    """The t^s coefficients, s in orders, of the `pre_ly_products` tables of
    T_t = sum_s t^s T_s, the terms as `_term_tables` scales them, as {s:
    (binary, ternary)}: rho(T_s u) v and the sum of mu(T_j v, T_k w) u over
    j + k = s, on `r.tables()` in integers."""
    q, _, _, rho, mu, _ = r.tables()
    qt, tc = terms
    v, top = r.dim_v, len(tc) - 1
    vrng, qq = range(v), qt * q

    def rho_col(s: int, u: int, w: int) -> Vector:   # column w of rho(T_s u), over qq
        acc = [0] * v
        _ccomb(acc, 1, tc[s][u] if s <= top else [], rho, w)
        return tuple(Fraction(x, qq) for x in acc)

    def mu_col(s: int, u: int, b: int, c: int) -> Vector:   # column u of the mu sum, over qq^2
        acc = [0] * v
        for j in range(max(0, s - top), min(s, top) + 1):
            for p, x in tc[j][b]:
                _ccomb(acc, x, tc[s - j][c], mu[p], u)
        return tuple(Fraction(x, qq * qq) for x in acc)

    return {s: (tuple(tuple(rho_col(s, u, w) for w in vrng) for u in vrng),
                tuple(tuple(tuple(mu_col(s, u, b, c) for c in vrng) for b in vrng) for u in vrng))
            for s in orders}


def lift_to_nijenhuis(o: RelRBO) -> Matrix:
    """The block operator (x, u) -> (Tu, 0) on the semidirect sum g (+) V.

    For a verified operator this is a Nijenhuis operator there, and its
    deformed brackets restrict to the sub-adjacent structure on V and the
    induced representation data on g (verified by the test battery)."""
    _require_verified(o)
    m, v = o.algebra.dim, o.rep.dim_v
    return Matrix([[0] * m + list(o.t_matrix.row(i)) for i in range(m)]
                  + [[0] * (m + v) for _ in range(v)], cols=m + v)


def _homomorphism_violations(a: LYAlgebra, r: Representation, phi_g: Matrix, phi_v: Matrix,
                             families: Sequence[str], operators: Sequence[Matrix] = ()) -> tuple:
    """The violations of (phi_g, phi_v) as a homomorphism of operators, with
    residuals phi(...) - (...)phi, in the order `rbo_homomorphism_check`
    reports them: phi_g on each pair and then on its triples (i < j); for
    operators (T1, T2), t-intertwine T2 phi_v - phi_g T1, one per column; and
    the intertwinings among families. All maps are scaled together, once."""
    for name, phi, n in (("phi_g", phi_g, a.dim), ("phi_v", phi_v, r.dim_v)):
        if (phi.rows, phi.cols) != (n, n):
            raise ValueError(f"{name} must be {n}x{n}")
    qp, (f, g, *ts) = _term_tables((phi_g, phi_v, *operators))
    res = _hom_expansion(a, r, qp, (f,), (g,), (0,), families)
    viols = [Violation(("phi-" if name in _HOM[:2] else "") + name, args, vneg(x))
             for name in families for args, x in res[name][0].items()
             if name != "ternary-hom" or args[0] < args[1]]
    # the brackets come first; a stable sort puts each pair's binary violation before its triples'
    brackets = sorted((x for x in viols if x.residual_space == "g"), key=lambda x: x.args[:2])
    operator = _column_violations("t-intertwine", (), _compose(a.dim, (1, ts[1], g), (-1, f, ts[0])),
                                  qp * qp) if ts else []
    return brackets, operator, viols[len(brackets):]


def rbo_homomorphism_check(o1: RelRBO, o2: RelRBO,
                           phi_g: Matrix, phi_v: Matrix) -> AxiomReport:
    """Check (phi_g, phi_v) as a homomorphism of operators from o1 to o2
    (both over the same algebra and representation):

        phi_g is an algebra homomorphism,
        o2.T o phi_v = phi_g o o1.T,
        phi_v rho(x) = rho(phi_g x) phi_v,
        phi_v mu(x,y) = mu(phi_g x, phi_g y) phi_v,

    plus the derived D-intertwining, which follows from the mu/rho ones and
    is reported as its own identity."""
    if o1.algebra != o2.algebra or o1.rep != o2.rep:
        raise ValueError("homomorphisms are defined between operators on the same data")
    return AxiomReport.from_violations(itertools.chain(*_homomorphism_violations(
        o1.algebra, o1.rep, phi_g, phi_v, _HOM, (o1.t_matrix, o2.t_matrix))))


def conjugate_rbo(o: RelRBO, phi_g: Matrix, phi_v: Matrix) -> RelRBO:
    """phi_g^{-1} o T o phi_v, which is again a relative Rota-Baxter operator
    when phi_g is an algebra automorphism and (phi_g, phi_v) intertwines rho
    and mu. Raises NotAutomorphism / NotIntertwining when the hypotheses
    fail; when they hold the result is an operator, returned verified."""
    _require_verified(o)
    a, r = o.algebra, o.rep
    # D-intertwining is implied by the conditions before it
    brackets, _, intertwinings = _homomorphism_violations(a, r, phi_g, phi_v, _HOM[:4])
    try:
        phi_g_inv = inverse(phi_g)
    except ValueError as exc:
        raise NotAutomorphism(f"phi_g is not invertible: {exc}") from exc
    try:
        inverse(phi_v)
    except ValueError as exc:
        raise ValueError(f"phi_v must be invertible: {exc}") from exc
    if brackets:
        first = brackets[0]
        raise NotAutomorphism(f"phi_g fails the {first.identity.split('-')[1]} bracket at {first.args}")
    if intertwinings:
        raise NotIntertwining(intertwinings[0])
    return RelRBO(a, r, phi_g_inv @ o.t_matrix @ phi_v, verified=True)


class Wedge2(NamedTuple):
    """An element of the second exterior power of the algebra, stored as
    nonzero coefficients over the lexicographic wedge basis."""

    dim: int
    entries: Tuple[Tuple[int, int, Fraction], ...]

    @classmethod
    def from_dict(cls, dim: int, coeffs: Dict[Tuple[int, int], object]) -> "Wedge2":
        entries = []
        for (i, j), c in sorted(coeffs.items()):
            if not (0 <= i < j < dim):
                raise ValueError(f"wedge index ({i}, {j}) must satisfy 0 <= i < j < {dim}")
            c = rat(c)
            if c:
                entries.append((i, j, c))
        return cls(dim, tuple(entries))

    @classmethod
    def basis(cls, dim: int, i: int, j: int) -> "Wedge2":
        return cls.from_dict(dim, {(i, j): 1})

    @classmethod
    def zero(cls, dim: int) -> "Wedge2":
        return cls(dim, ())

    @classmethod
    def from_flat(cls, dim: int, coeffs: Iterable) -> "Wedge2":
        pairs = wedge_basis(dim)
        vals = [rat(c) for c in coeffs]
        if len(vals) != len(pairs):
            raise ValueError(f"expected {len(pairs)} wedge coefficients, got {len(vals)}")
        return cls.from_dict(dim, {pair: c for pair, c in zip(pairs, vals)})

    def flat(self) -> Vector:
        out = {(i, j): c for i, j, c in self.entries}
        return tuple(out.get(pair, Fraction(0)) for pair in wedge_basis(self.dim))

    def _contract(self, dim: int, q: int, table: list, n: int) -> Tuple[List[Scaled], int]:
        """s<X, .> or s D(X), as n integer columns, from q^2 <.,.,.> or q^2 D, and s = q_X q^2 for
        q_X the lcm of X's denominators. Every action of X comes here, which checks X's dimension."""
        if dim != self.dim:
            raise ValueError("wedge element and algebra dimensions differ")
        qx = _denominator_lcm([[c for *_, c in self.entries]])
        cols = [[0] * n for _ in range(n)]
        for i, j, c in self.entries:
            w = c.numerator * (qx // c.denominator)
            for col, entry in zip(cols, table[i][j]):
                _add(col, w, entry)
        return [_sparse(col) for col in cols], qx * q * q

    def _actions(self, r: Representation) -> Tuple[int, List[Scaled], List[Scaled]]:
        """s and the integer columns of s<X, .> and s D(X), both off `r.tables()` (r's q)."""
        tab, m = r.tables(), r.algebra.dim
        lx, s = self._contract(m, tab.q, tab.t, m)
        return s, lx, self._contract(m, tab.q, tab.d, r.dim_v)[0]

    def bracket_with(self, a: LYAlgebra, z: Vector) -> Vector:
        """<X, z> = sum X_ij <e_i, e_j, z>, read from the algebra's table q^2 <.,.,.>."""
        return _evaluate(*self._contract(a.dim, a._tables[0], a._tables[2], a.dim), (z,), a.dim)

    def action_matrix(self, a: LYAlgebra) -> Matrix:
        """Matrix of z -> <X, z> on the algebra."""
        return _evaluate(*self._contract(a.dim, a._tables[0], a._tables[2], a.dim), (), a.dim, True)

    def d_matrix(self, r: Representation) -> Matrix:
        """D(X) = sum X_ij D(e_i, e_j) acting on the module."""
        tab = r.tables()
        return _evaluate(*self._contract(r.algebra.dim, tab.q, tab.d, r.dim_v), (), r.dim_v, True)


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
    q, b, t, rho, mu, d = r.tables()

    def on_v(col: Scaled, s: int = 1) -> Scaled:   # s times a column of V, in g (+) V
        return [(m + l, s * x) for l, x in col]

    binary, ternary = {}, {}   # every other constant vanishes
    for p, p2 in wedge_basis(m):
        binary[(p, p2)] = b[p][p2]
        for k in range(m):
            ternary[(p, p2, k)] = t[p][p2][k]
        for c in range(v):
            ternary[(p, p2, m + c)] = on_v(d[p][p2][c])
    for p in range(m):
        for c in range(v):
            binary[(p, m + c)] = on_v(rho[p][c])
            for k in range(m):
                # <e_p + 0, 0 + u_c, z + w> = mu(0,z)0 - mu(e_p,z)u_c on the V side
                ternary[(p, m + c, k)] = on_v(mu[p][k][c], -1)
    # D has weight 2, so the least q of the sum can exceed the representation's
    return LYAlgebra.__new__(LYAlgebra)._fill(m + v, a.basis_names + _names("u", v), q,
                                              binary, ternary)


def _nijenhuis(a: LYAlgebra, n: Matrix) -> Tuple[AxiomReport, Dict, Dict]:
    """The report of `nijenhuis_operator_check` and the nonzero deformed
    constants (i < j), from the t^s coefficients B_s of binary-hom and C_s of
    ternary-hom for phi_t = Id + tN: [x,y]_N = B_1, <x,y,z>_N = C_2 - N C_1,
    and the residuals [Nx,Ny] - N[x,y]_N = B_2 - N B_1 and
    <Nx,Ny,Nz> - N<x,y,z>_N = C_3 - N<x,y,z>_N."""
    if (n.rows, n.cols) != (a.dim, a.dim):
        raise ValueError(f"operator must be {a.dim}x{a.dim}")
    qn, (nc,) = _term_tables((n,))
    ex = _hom_expansion(a, zero_rep(a, 0), qn, (_unit(a.dim, qn), nc), (), (1, 2, 3),
                        ("binary-hom", "ternary-hom"))
    (b1, b2, _), (c1, c2, c3) = (ex[name].values() for name in ("binary-hom", "ternary-hom"))
    zero = vzero(a.dim)

    def minus_n(x: Dict, y: Dict) -> Dict:   # x - N y where either is nonzero, i < j, in order
        return {k: vsub(x.get(k, zero), n.apply(y.get(k, zero)))
                for k in sorted(x.keys() | y.keys()) if k[0] < k[1]}

    ternary = minus_n(c2, c1)
    report = AxiomReport.from_residuals(itertools.chain(
        (("nijenhuis-binary", k, res) for k, res in minus_n(b2, b1).items()),
        (("nijenhuis-ternary", k, res) for k, res in minus_n(c3, ternary).items())))
    return report, b1, ternary


def nijenhuis_operator_check(a: LYAlgebra, n: Matrix) -> AxiomReport:
    """Check the Nijenhuis conditions for a linear operator N on the algebra:

        [Nx,Ny] = N [x,y]_N        <Nx,Ny,Nz> = N <x,y,z>_N

    with the deformed brackets of `deformed_brackets`.
    """
    return _nijenhuis(a, n)[0]


def deformed_brackets(a: LYAlgebra, n: Matrix) -> LYAlgebra:
    """The brackets deformed by a Nijenhuis operator:

        [x,y]_N   = [Nx,y] + [x,Ny] - N[x,y]
        <x,y,z>_N = <Nx,Ny,z> + <Nx,y,Nz> + <x,Ny,Nz>
                    - N<Nx,y,z> - N<x,Ny,z> - N<x,y,Nz> + N^2 <x,y,z>

    Raises NotNijenhuis when the operator fails `nijenhuis_operator_check`.
    The result is again a Lie-Yamaguti algebra, and N is a homomorphism from
    it to the original (both checked by the tests).
    """
    report, binary, ternary = _nijenhuis(a, n)
    if not report.valid:
        raise NotNijenhuis(report.violations[0])
    return LYAlgebra(a.dim, binary=binary, ternary=ternary, basis_names=a.basis_names)
