"""Dense, term-by-term evaluation of the Rota-Baxter identities and of the
coefficients of their expansion under T_t = sum_s t^s T_s.

These are `check_rbo`, `_sub_adjacent_constants`, the coefficient residuals
of `order_n_check`, `linear_deformation_check` and `obstruction`, and
`rbo_delta1_expanded` (the degree-one differential written out, which the
library no longer has; the tests compare it with the generic coboundary of
the operator complex) as the library wrote them before one integer-scaled
residual engine in `lieyamaguti.rbo` replaced all of them, and
`induced_rep_on_g` as it was before it moved onto the engine's integer
tables, kept verbatim as an independent reference: every residual builds
dense `rho_of`, `mu_of` and `d_of` matrices in `Fraction` arithmetic and
applies them to unit vectors. The library's results must be equal to these,
violation for violation and residual for residual. Slow, so only the tests
use it.

`pre_ly_products` and `pre_ly_deformation_terms` are kept verbatim as the
library wrote them before both read one expansion of the products in powers
of t; the second gates on this module's `linear_deformation_check`.

`obstruction` is kept as the library wrote it before it read the witness
off the integer rows of delta^1: it solves over the dense
`rbo_coboundary_matrix` with `solve_linear`, and tests the cocycle condition
with the `Fraction` coboundary of `reference_coboundary`. Its order-1..n
violations and its Ob come from this module's own residuals, so it shares
no code with the library's expansion.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from lieyamaguti.complexes import Cochain
from lieyamaguti.deformation import NotLinearDeformation, NotOrderN, ObstructionResult, TruncatedDeformation
from lieyamaguti.linalg import Matrix, Vector, is_zero_vector, solve_linear, vadd, vneg, vsub, vzero
from lieyamaguti.rbo import RelRBO, _require_verified, induced_lya_on_v
from lieyamaguti.rbo_cohomology import RboComplex, rbo_coboundary_matrix
from lieyamaguti.structures import (
    AxiomReport,
    LYAlgebra,
    Representation,
    Violation,
    wedge_basis,
)

from reference_coboundary import coboundary


def _unit(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if c == i else 0) for c in range(n))


def check_rbo(a: LYAlgebra, r: Representation, t: Matrix) -> AxiomReport:
    """Check the two defining identities on module basis tuples. Both sides
    are skew in (u, v), so pairs are checked for u < v only; witnesses carry
    module basis indices and the residual LHS - RHS in g."""
    if (t.rows, t.cols) != (a.dim, r.dim_v):
        raise ValueError(f"operator must be {a.dim}x{r.dim_v}, got {t.rows}x{t.cols}")
    v = r.dim_v
    timg = [t.column(b) for b in range(v)]
    binary, ternary = _sub_adjacent_constants(r, t)
    zero = vzero(v)
    viols: List[Violation] = []

    for b1 in range(v):
        for b2 in range(b1 + 1, v):
            res = vsub(a.bracket(timg[b1], timg[b2]), t.apply(binary.get((b1, b2), zero)))
            if not is_zero_vector(res):
                viols.append(Violation("rota-baxter-binary", (b1, b2), res))

    for b1 in range(v):
        for b2 in range(b1 + 1, v):
            for b3 in range(v):
                res = vsub(a.triple(timg[b1], timg[b2], timg[b3]),
                           t.apply(ternary.get((b1, b2, b3), zero)))
                if not is_zero_vector(res):
                    viols.append(Violation("rota-baxter-ternary", (b1, b2, b3), res))

    return AxiomReport.from_violations(viols)


def _sub_adjacent_constants(r: Representation, t: Matrix) -> Tuple[Dict, Dict]:
    """Structure constants of the bracket/triple induced on the module by the
    operator matrix t:

        [u,v]_T   = rho(Tu)v - rho(Tv)u
        <u,v,w>_T = D(Tu,Tv)w + mu(Tv,Tw)u - mu(Tu,Tw)v

    Each rho, mu and D matrix is built once, and a matrix applied to a basis
    vector is read as its column.
    """
    v = r.dim_v
    timg = [t.column(b) for b in range(v)]
    rho = [r.rho_of(x) for x in timg]
    mu = [[r.mu_of(x, y) for y in timg] for x in timg]
    binary: Dict[Tuple[int, int], Vector] = {}
    ternary: Dict[Tuple[int, int, int], Vector] = {}
    for b1 in range(v):
        for b2 in range(b1 + 1, v):
            val = vsub(rho[b1].column(b2), rho[b2].column(b1))
            if not is_zero_vector(val):
                binary[(b1, b2)] = val
            d = r.d_of(timg[b1], timg[b2])
            for b3 in range(v):
                tval = vsub(vadd(d.column(b3), mu[b2][b3].column(b1)), mu[b1][b3].column(b2))
                if not is_zero_vector(tval):
                    ternary[(b1, b2, b3)] = tval
    return binary, ternary


def _binary_sum_residual(o: RelRBO, terms: Tuple[Matrix, ...], s: int,
                         a_i: int, b_i: int) -> Vector:
    """S_bin(s) evaluated on module basis elements u_a, u_b."""
    a, r = o.algebra, o.rep
    v = r.dim_v
    ua, ub = _unit(v, a_i), _unit(v, b_i)
    out = vzero(a.dim)
    top = len(terms) - 1
    for i in range(max(0, s - top), min(s, top) + 1):
        j = s - i
        ti, tj = terms[i], terms[j]
        out = vadd(out, a.bracket(ti.apply(ua), tj.apply(ub)))
        inner = vsub(r.rho_of(tj.apply(ua)).apply(ub),
                     r.rho_of(tj.apply(ub)).apply(ua))
        out = vsub(out, ti.apply(inner))
    return out


def _ternary_sum_residual(o: RelRBO, terms: Tuple[Matrix, ...], s: int,
                          a_i: int, b_i: int, c_i: int) -> Vector:
    """S_ter(s) evaluated on module basis elements u_a, u_b, u_c."""
    a, r = o.algebra, o.rep
    v = r.dim_v
    ua, ub, uc = _unit(v, a_i), _unit(v, b_i), _unit(v, c_i)
    out = vzero(a.dim)
    top = len(terms) - 1
    for i in range(0, min(s, top) + 1):
        for j in range(0, min(s - i, top) + 1):
            k = s - i - j
            if k > top:
                continue
            ti, tj, tk = terms[i], terms[j], terms[k]
            out = vadd(out, a.triple(ti.apply(ua), tj.apply(ub), tk.apply(uc)))
            inner = r.d_of(tj.apply(ua), tk.apply(ub)).apply(uc)
            inner = vadd(inner, r.mu_of(tj.apply(ub), tk.apply(uc)).apply(ua))
            inner = vsub(inner, r.mu_of(tj.apply(ua), tk.apply(uc)).apply(ub))
            out = vsub(out, ti.apply(inner))
    return out


def _coefficient_violations(o: RelRBO, terms: Tuple[Matrix, ...],
                            binary_orders, ternary_orders) -> List[Violation]:
    """Collect nonzero coefficient residuals. Both sums are skew in the first
    two module slots (relabel i <-> j in the sum), so pairs run over a < b."""
    v = o.rep.dim_v
    viols: List[Violation] = []
    for s in binary_orders:
        for a_i in range(v):
            for b_i in range(a_i + 1, v):
                res = _binary_sum_residual(o, terms, s, a_i, b_i)
                if not is_zero_vector(res):
                    viols.append(Violation(f"binary@t^{s}", (a_i, b_i), res))
    for s in ternary_orders:
        for a_i in range(v):
            for b_i in range(a_i + 1, v):
                for c_i in range(v):
                    res = _ternary_sum_residual(o, terms, s, a_i, b_i, c_i)
                    if not is_zero_vector(res):
                        viols.append(Violation(f"ternary@t^{s}", (a_i, b_i, c_i), res))
    return viols


def linear_deformation_check(o: RelRBO, frak_t: Matrix) -> AxiomReport:
    """The coefficient residuals of `linear_deformation_check`."""
    terms = (o.t_matrix, frak_t)
    return AxiomReport.from_violations(
        _coefficient_violations(o, terms, binary_orders=(1, 2), ternary_orders=(1, 2, 3)))


def order_n_check(o: RelRBO, terms: Tuple[Matrix, ...]) -> AxiomReport:
    """The coefficient residuals of `order_n_check`."""
    orders = tuple(range(len(terms)))
    return AxiomReport.from_violations(
        _coefficient_violations(o, terms, binary_orders=orders, ternary_orders=orders))


def obstruction_cochain(o: RelRBO, terms: Tuple[Matrix, ...]) -> Cochain:
    """The residual 2-cochain `obstruction` packs at order n+1."""
    n = len(terms) - 1
    v = o.rep.dim_v
    pairs = wedge_basis(v)
    f_part = tuple(_binary_sum_residual(o, terms, n + 1, a_i, b_i)
                   for (a_i, b_i) in pairs)
    g_part = tuple(_ternary_sum_residual(o, terms, n + 1, a_i, b_i, c_i)
                   for (a_i, b_i) in pairs for c_i in range(v))
    return Cochain(2, f_part, g_part)


def rbo_delta1_expanded(o: RelRBO, c1: Cochain) -> Cochain:
    """Degree-1 coboundary written out directly in terms of T, the brackets
    on g, and the representation maps:

        (dI f)(u, v)     = [Tu, f(v)] - [Tv, f(u)]
                           + T( rho(f(v)) u - rho(f(u)) v ) - f([u, v]_T)
        (dII f)(u, v, w) = <Tu, Tv, f(w)> + <f(u), Tv, Tw> - <f(v), Tu, Tw>
                           - f(<u, v, w>_T)
                           - T( D(f(u), Tv) w - D(f(v), Tu) w
                                + mu(Tv, f(w)) u - mu(Tu, f(w)) v
                                - mu(f(u), Tw) v + mu(f(v), Tw) u )
    """
    a, r, t = o.algebra, o.rep, o.t_matrix
    m, v = a.dim, r.dim_v
    if c1.degree != 1 or c1.g_part is not None or len(c1.f_part) != v \
            or any(len(img) != m for img in c1.f_part):
        raise ValueError("expected a degree-1 cochain of the operator complex")

    units = [_unit(v, b) for b in range(v)]
    timg = [o.column(b) for b in range(v)]
    fimg = list(c1.f_part)

    def f_of(uvec: Vector) -> Vector:
        total = vzero(m)
        for b, coeff in enumerate(uvec):
            if coeff:
                total = vadd(total, tuple(coeff * x for x in fimg[b]))
        return total

    def sub_bracket(b1: int, b2: int) -> Vector:
        return vsub(r.rho_of(timg[b1]).apply(units[b2]),
                    r.rho_of(timg[b2]).apply(units[b1]))

    def sub_triple(b1: int, b2: int, b3: int) -> Vector:
        out = r.d_of(timg[b1], timg[b2]).apply(units[b3])
        out = vadd(out, r.mu_of(timg[b2], timg[b3]).apply(units[b1]))
        return vsub(out, r.mu_of(timg[b1], timg[b3]).apply(units[b2]))

    pairs = wedge_basis(v)
    f_out: List[Vector] = []
    g_out: List[Vector] = []
    for (b1, b2) in pairs:
        val = vsub(a.bracket(timg[b1], fimg[b2]), a.bracket(timg[b2], fimg[b1]))
        inner = vsub(r.rho_of(fimg[b2]).apply(units[b1]),
                     r.rho_of(fimg[b1]).apply(units[b2]))
        val = vadd(val, t.apply(inner))
        f_out.append(vsub(val, f_of(sub_bracket(b1, b2))))
    for (b1, b2) in pairs:
        for b3 in range(v):
            val = a.triple(timg[b1], timg[b2], fimg[b3])
            val = vadd(val, a.triple(fimg[b1], timg[b2], timg[b3]))
            val = vsub(val, a.triple(fimg[b2], timg[b1], timg[b3]))
            val = vsub(val, f_of(sub_triple(b1, b2, b3)))
            inner = vsub(r.d_of(fimg[b1], timg[b2]).apply(units[b3]),
                         r.d_of(fimg[b2], timg[b1]).apply(units[b3]))
            inner = vadd(inner, r.mu_of(timg[b2], fimg[b3]).apply(units[b1]))
            inner = vsub(inner, r.mu_of(timg[b1], fimg[b3]).apply(units[b2]))
            inner = vsub(inner, r.mu_of(fimg[b1], timg[b3]).apply(units[b2]))
            inner = vadd(inner, r.mu_of(fimg[b2], timg[b3]).apply(units[b1]))
            g_out.append(vsub(val, t.apply(inner)))
    return Cochain(2, tuple(f_out), tuple(g_out))


def induced_rep_on_g(o: RelRBO) -> Representation:
    """The induced representation of the sub-adjacent algebra back on g:

        rho'(u) x    = [Tu, x] + T( rho(x) u )
        mu'(u, v) x  = <x, Tu, Tv> - T( D(x, Tu) v - mu(x, Tv) u )

    It is a valid representation, and its derived D action has the closed form
        D'(u, v) x = <Tu, Tv, x> - T( mu(Tv, x) u - mu(Tu, x) v )
    (both checked by the tests)."""
    _require_verified(o)
    sub = induced_lya_on_v(o)
    a, r, t = o.algebra, o.rep, o.t_matrix
    m, v = a.dim, r.dim_v
    timg = [o.column(b) for b in range(v)]
    bas = [a.basis(i) for i in range(m)]
    # D(e_c, Tu) and mu(e_c, Tu), built once for each basis vector and image
    d_xt = [[r.d_of(x, y) for y in timg] for x in bas]
    mu_xt = [[r.mu_of(x, y) for y in timg] for x in bas]

    rho2 = []
    for b in range(v):
        cols = [vadd(a.bracket(timg[b], bas[c]), t.apply(r.rho(c).column(b)))
                for c in range(m)]
        rho2.append(Matrix.from_columns(cols, rows=m))

    mu2 = []
    for b1 in range(v):
        row = []
        for b2 in range(v):
            cols = []
            for c in range(m):
                val = a.triple(bas[c], timg[b1], timg[b2])
                adj = vsub(d_xt[c][b1].column(b2), mu_xt[c][b2].column(b1))
                cols.append(vsub(val, t.apply(adj)))
            row.append(Matrix.from_columns(cols, rows=m))
        mu2.append(row)

    return Representation(sub, m, rho2, mu2)


def pre_ly_products(o: RelRBO) -> Tuple[Tuple[Tuple[Vector, ...], ...],
                                        Tuple[Tuple[Tuple[Vector, ...], ...], ...]]:
    """Pre-Lie-Yamaguti products on the module:

        u * v     = rho(Tu) v          (binary table [a][b])
        {u, v, w} = mu(Tv, Tw) u       (ternary table [a][b][c])

    The commutator of * is the sub-adjacent bracket (checked by the tests)."""
    _require_verified(o)
    r = o.rep
    v = r.dim_v
    timg = [o.column(b) for b in range(v)]
    rho = [r.rho_of(x) for x in timg]
    mu = [[r.mu_of(x, y) for y in timg] for x in timg]
    binary = tuple(tuple(rho[a].column(b) for b in range(v)) for a in range(v))
    ternary = tuple(tuple(tuple(mu[b][c].column(a) for c in range(v)) for b in range(v))
                    for a in range(v))
    return binary, ternary


def pre_ly_deformation_terms(o: RelRBO, frak_t: Matrix) -> Tuple[tuple, tuple, tuple]:
    """Deformation terms induced on the pre-Lie-Yamaguti products of a linear
    deformation:

        phi(u, v)       = rho(frak_t u) v
        omega1(u, v, w) = mu(Tv, frak_t w) u + mu(frak_t v, Tw) u
        omega2(u, v, w) = mu(frak_t v, frak_t w) u

    so that the deformed operator's products are * + t*phi and
    {.} + t*omega1 + t^2*omega2. Raises NotLinearDeformation when frak_t is
    not a linear deformation direction."""
    report = linear_deformation_check(o, frak_t)
    if not report.valid:
        raise NotLinearDeformation(report.violations[0])
    r = o.rep
    v = r.dim_v
    timg = [o.column(b) for b in range(v)]
    simg = [frak_t.column(b) for b in range(v)]
    rho = [r.rho_of(x) for x in simg]
    mu1 = [[r.mu_of(timg[b], simg[c]) + r.mu_of(simg[b], timg[c]) for c in range(v)]
           for b in range(v)]
    mu2 = [[r.mu_of(x, y) for y in simg] for x in simg]
    phi = tuple(tuple(rho[a].column(b) for b in range(v)) for a in range(v))
    omega1 = tuple(tuple(tuple(mu1[b][c].column(a) for c in range(v)) for b in range(v))
                   for a in range(v))
    omega2 = tuple(tuple(tuple(mu2[b][c].column(a) for c in range(v)) for b in range(v))
                   for a in range(v))
    return phi, omega1, omega2


def obstruction(o: RelRBO, d: TruncatedDeformation) -> ObstructionResult:
    """The coefficient residual at t^{n+1}, packaged as a 2-cochain Ob of the
    operator complex. The deformation extends to order n+1 by a term frak_t
    iff delta(frak_t) = -Ob; the witness is such a preimage when it exists.

    Raises NotOrderN when d itself fails its order-n conditions."""
    _require_verified(o)
    if d.terms[0] != o.t_matrix:
        raise ValueError("deformation must start at the operator")
    orders = range(1, d.order + 1)
    viols = _coefficient_violations(o, d.terms, binary_orders=orders, ternary_orders=orders)
    if viols:
        raise NotOrderN(viols[0])
    rc = RboComplex.build(o)
    ob = obstruction_cochain(o, d.terms)
    sol = solve_linear(rbo_coboundary_matrix(rc, 1), vneg(ob.flatten()))
    witness = None if sol is None else Cochain.from_flat(rc.ctx, 1, sol)
    # a witness makes Ob = -delta(witness) a cocycle, as delta o delta = 0
    is_cocycle = witness is not None or coboundary(rc.ctx, ob).is_zero()
    return ObstructionResult(ob, is_cocycle, witness is not None, witness)
