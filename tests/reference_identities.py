"""Hand-unrolled identity checks on the Fraction path: the Nijenhuis
conditions for an operator and the brackets it deforms, homomorphisms and
conjugation of relative Rota-Baxter operators, Nijenhuis elements (with the
rebuild of the adjoint matrices that decides whether the reduced condition
set applies), and equivalences of linear deformations.

These are `nijenhuis_operator_check`, `deformed_brackets`,
`rbo_homomorphism_check`, `conjugate_rbo`, `nijenhuis_element_check` (with
`_is_adjoint`) and `equivalence_check_linear` as the library wrote them
before every check yielded its residuals to one residual-to-violation path
(`AxiomReport.from_residuals`), kept verbatim as an independent reference.
The library's results must be equal to these: the same violations in the
same order with the same residuals, the same deformed constants, and the
same exceptions with the same messages. Only the tests use it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from lieyamaguti.deformation import NijenhuisReport, TruncatedDeformation
from lieyamaguti.linalg import Matrix, Vector, inverse, is_zero_vector, vadd, vsub
from lieyamaguti.rbo import (
    NotAutomorphism,
    NotIntertwining,
    NotNijenhuis,
    RelRBO,
    Wedge2,
    _require_verified,
)
from lieyamaguti.rbo_cohomology import rbo_delta0
from lieyamaguti.structures import (
    AxiomReport,
    LYAlgebra,
    Violation,
)


def nijenhuis_operator_check(a: LYAlgebra, n: Matrix) -> AxiomReport:
    """Check the Nijenhuis conditions for a linear operator N on the algebra:

        [Nx,Ny] = N([Nx,y] + [x,Ny] - N[x,y])
        <Nx,Ny,Nz> = N(<Nx,Ny,z> + <Nx,y,Nz> + <x,Ny,Nz>
                       - N<Nx,y,z> - N<x,Ny,z> - N<x,y,Nz> + N^2 <x,y,z>)
    """
    if (n.rows, n.cols) != (a.dim, a.dim):
        raise ValueError(f"operator must be {a.dim}x{a.dim}")
    rng = range(a.dim)
    bas = [a.basis(i) for i in rng]
    nb = [n.apply(b) for b in bas]
    viols: List[Violation] = []

    for i in rng:
        for j in range(i + 1, a.dim):
            lhs = a.bracket(nb[i], nb[j])
            inner = vadd(a.bracket(nb[i], bas[j]), a.bracket(bas[i], nb[j]))
            inner = vsub(inner, n.apply(a.bracket_basis(i, j)))
            res = vsub(lhs, n.apply(inner))
            if not is_zero_vector(res):
                viols.append(Violation("nijenhuis-binary", (i, j), res))

    for i in rng:
        for j in range(i + 1, a.dim):
            for k in rng:
                lhs = a.triple(nb[i], nb[j], nb[k])
                inner = a.triple(nb[i], nb[j], bas[k])
                inner = vadd(inner, a.triple(nb[i], bas[j], nb[k]))
                inner = vadd(inner, a.triple(bas[i], nb[j], nb[k]))
                inner = vsub(inner, n.apply(a.triple(nb[i], bas[j], bas[k])))
                inner = vsub(inner, n.apply(a.triple(bas[i], nb[j], bas[k])))
                inner = vsub(inner, n.apply(a.triple(bas[i], bas[j], nb[k])))
                inner = vadd(inner, n.apply(n.apply(a.triple_basis(i, j, k))))
                res = vsub(lhs, n.apply(inner))
                if not is_zero_vector(res):
                    viols.append(Violation("nijenhuis-ternary", (i, j, k), res))

    return AxiomReport.from_violations(viols)


def deformed_brackets(a: LYAlgebra, n: Matrix) -> LYAlgebra:
    """The brackets deformed by a Nijenhuis operator:

        [x,y]_N   = [Nx,y] + [x,Ny] - N[x,y]
        <x,y,z>_N = <Nx,Ny,z> + <Nx,y,Nz> + <x,Ny,Nz>
                    - N<Nx,y,z> - N<x,Ny,z> - N<x,y,Nz> + N^2 <x,y,z>

    Raises NotNijenhuis when the operator fails `nijenhuis_operator_check`.
    The result is again a Lie-Yamaguti algebra, and N is a homomorphism from
    it to the original (both checked by the tests).
    """
    report = nijenhuis_operator_check(a, n)
    if not report.valid:
        raise NotNijenhuis(report.violations[0])
    rng = range(a.dim)
    bas = [a.basis(i) for i in rng]
    nb = [n.apply(b) for b in bas]

    binary: Dict[Tuple[int, int], Vector] = {}
    ternary: Dict[Tuple[int, int, int], Vector] = {}
    for i in rng:
        for j in range(i + 1, a.dim):
            val = vadd(a.bracket(nb[i], bas[j]), a.bracket(bas[i], nb[j]))
            val = vsub(val, n.apply(a.bracket_basis(i, j)))
            if not is_zero_vector(val):
                binary[(i, j)] = val
            for k in rng:
                t = a.triple(nb[i], nb[j], bas[k])
                t = vadd(t, a.triple(nb[i], bas[j], nb[k]))
                t = vadd(t, a.triple(bas[i], nb[j], nb[k]))
                t = vsub(t, n.apply(a.triple(nb[i], bas[j], bas[k])))
                t = vsub(t, n.apply(a.triple(bas[i], nb[j], bas[k])))
                t = vsub(t, n.apply(a.triple(bas[i], bas[j], nb[k])))
                t = vadd(t, n.apply(n.apply(a.triple_basis(i, j, k))))
                if not is_zero_vector(t):
                    ternary[(i, j, k)] = t

    return LYAlgebra(a.dim, binary=binary, ternary=ternary, basis_names=a.basis_names)


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
    a, r = o1.algebra, o1.rep
    m, v = a.dim, r.dim_v
    if (phi_g.rows, phi_g.cols) != (m, m):
        raise ValueError(f"phi_g must be {m}x{m}")
    if (phi_v.rows, phi_v.cols) != (v, v):
        raise ValueError(f"phi_v must be {v}x{v}")
    viols: List[Violation] = []
    bas = [a.basis(i) for i in range(m)]
    pg = [phi_g.apply(b) for b in bas]

    for i in range(m):
        for j in range(i + 1, m):
            res = vsub(phi_g.apply(a.bracket_basis(i, j)), a.bracket(pg[i], pg[j]))
            if not is_zero_vector(res):
                viols.append(Violation("phi-binary-hom", (i, j), res))
            for k in range(m):
                res = vsub(phi_g.apply(a.triple_basis(i, j, k)),
                           a.triple(pg[i], pg[j], pg[k]))
                if not is_zero_vector(res):
                    viols.append(Violation("phi-ternary-hom", (i, j, k), res))

    tcond = o2.t_matrix @ phi_v - phi_g @ o1.t_matrix
    for b in range(v):
        col = tcond.column(b)
        if not is_zero_vector(col):
            viols.append(Violation("t-intertwine", (b,), col))

    for i in range(m):
        res = phi_v @ r.rho(i) - r.rho_of(pg[i]) @ phi_v
        for b in range(v):
            col = res.column(b)
            if not is_zero_vector(col):
                viols.append(Violation("rho-intertwine", (i, b), col))

    for i in range(m):
        for j in range(m):
            res = phi_v @ r.mu(i, j) - r.mu_of(pg[i], pg[j]) @ phi_v
            for b in range(v):
                col = res.column(b)
                if not is_zero_vector(col):
                    viols.append(Violation("mu-intertwine", (i, j, b), col))

    for i in range(m):
        for j in range(m):
            res = phi_v @ r.d_basis(i, j) - r.d_of(pg[i], pg[j]) @ phi_v
            for b in range(v):
                col = res.column(b)
                if not is_zero_vector(col):
                    viols.append(Violation("d-intertwine", (i, j, b), col))

    return AxiomReport.from_violations(viols)


def conjugate_rbo(o: RelRBO, phi_g: Matrix, phi_v: Matrix) -> RelRBO:
    """phi_g^{-1} o T o phi_v, which is again a relative Rota-Baxter operator
    when phi_g is an algebra automorphism and (phi_g, phi_v) intertwines rho
    and mu. Raises NotAutomorphism / NotIntertwining when the hypotheses
    fail; the result is rebuilt through `check_rbo`."""
    _require_verified(o)
    a, r = o.algebra, o.rep
    m, v = a.dim, r.dim_v
    if (phi_g.rows, phi_g.cols) != (m, m):
        raise ValueError(f"phi_g must be {m}x{m}")
    if (phi_v.rows, phi_v.cols) != (v, v):
        raise ValueError(f"phi_v must be {v}x{v}")
    try:
        phi_g_inv = inverse(phi_g)
    except ValueError as exc:
        raise NotAutomorphism(f"phi_g is not invertible: {exc}") from exc
    try:
        inverse(phi_v)
    except ValueError as exc:
        raise ValueError(f"phi_v must be invertible: {exc}") from exc

    bas = [a.basis(i) for i in range(m)]
    pg = [phi_g.apply(b) for b in bas]
    for i in range(m):
        for j in range(i + 1, m):
            if phi_g.apply(a.bracket_basis(i, j)) != a.bracket(pg[i], pg[j]):
                raise NotAutomorphism(f"phi_g fails the binary bracket at ({i}, {j})")
            for k in range(m):
                if phi_g.apply(a.triple_basis(i, j, k)) != a.triple(pg[i], pg[j], pg[k]):
                    raise NotAutomorphism(f"phi_g fails the ternary bracket at ({i}, {j}, {k})")

    for i in range(m):
        res = phi_v @ r.rho(i) - r.rho_of(pg[i]) @ phi_v
        if not res.is_zero():
            b = next(b for b in range(v) if not is_zero_vector(res.column(b)))
            raise NotIntertwining(Violation("rho-intertwine", (i, b), res.column(b)))
    for i in range(m):
        for j in range(m):
            res = phi_v @ r.mu(i, j) - r.mu_of(pg[i], pg[j]) @ phi_v
            if not res.is_zero():
                b = next(b for b in range(v) if not is_zero_vector(res.column(b)))
                raise NotIntertwining(Violation("mu-intertwine", (i, j, b), res.column(b)))

    return RelRBO.build(a, r, phi_g_inv @ o.t_matrix @ phi_v)


def _is_adjoint(o: RelRBO) -> bool:
    a, r = o.algebra, o.rep
    m = a.dim
    if r.dim_v != m:
        return False
    for i in range(m):
        ad = Matrix.from_columns([a.bracket_basis(i, k) for k in range(m)], rows=m)
        if r.rho(i) != ad:
            return False
    for i in range(m):
        for j in range(m):
            mu = Matrix.from_columns([a.triple_basis(k, i, j) for k in range(m)], rows=m)
            if r.mu(i, j) != mu:
                return False
    return True


def nijenhuis_element_check(o: RelRBO, x: Wedge2) -> NijenhuisReport:
    """Check the six conditions that make a wedge element X generate a
    trivial linear deformation T + t*delta(X):

        bracket-binary             [<X,x>, <X,y>] = 0
        bracket-ternary-quadratic  <<X,x>,<X,y>,z> + <<X,x>,y,<X,z>>
                                   + <x,<X,y>,<X,z>> = 0
        bracket-ternary-cubic      <<X,x>,<X,y>,<X,z>> = 0
        mu-quadratic               mu(z,<X,w>)D(X) + mu(<X,z>,w)D(X)
                                   + mu(<X,z>,<X,w>) = 0
        mu-cubic                   mu(<X,z>,<X,w>)D(X) = 0
        closing                    <X, T(D(X)v) - <X,Tv>> = 0 for v in V

    When the representation is the adjoint one the report also carries the
    reduced set that suffices there (the bracket conditions plus a closing
    condition phrased through the operator on g)."""
    _require_verified(o)
    a, r, t = o.algebra, o.rep, o.t_matrix
    if x.dim != a.dim:
        raise ValueError("wedge element and algebra dimensions differ")
    m, v = a.dim, r.dim_v
    bas = [a.basis(i) for i in range(m)]
    xb = [x.bracket_with(a, e) for e in bas]
    dx = x.d_matrix(r)

    viols: List[Violation] = []
    for i in range(m):
        for j in range(i + 1, m):
            res = a.bracket(xb[i], xb[j])
            if not is_zero_vector(res):
                viols.append(Violation("bracket-binary", (i, j), res))
    binary_rep = AxiomReport.from_violations(viols)

    viols = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                res = vadd(vadd(a.triple(xb[i], xb[j], bas[k]),
                                a.triple(xb[i], bas[j], xb[k])),
                           a.triple(bas[i], xb[j], xb[k]))
                if not is_zero_vector(res):
                    viols.append(Violation("bracket-ternary-quadratic", (i, j, k), res))
    quad_rep = AxiomReport.from_violations(viols)

    viols = []
    for i in range(m):
        for j in range(m):
            for k in range(m):
                res = a.triple(xb[i], xb[j], xb[k])
                if not is_zero_vector(res):
                    viols.append(Violation("bracket-ternary-cubic", (i, j, k), res))
    cubic_rep = AxiomReport.from_violations(viols)

    viols = []
    for z in range(m):
        for w in range(m):
            mat = (r.mu_of(bas[z], xb[w]) + r.mu_of(xb[z], bas[w])) @ dx \
                + r.mu_of(xb[z], xb[w])
            for col in range(v):
                res = mat.column(col)
                if not is_zero_vector(res):
                    viols.append(Violation("mu-quadratic", (z, w, col), res))
    mu_quad_rep = AxiomReport.from_violations(viols)

    viols = []
    for z in range(m):
        for w in range(m):
            mat = r.mu_of(xb[z], xb[w]) @ dx
            for col in range(v):
                res = mat.column(col)
                if not is_zero_vector(res):
                    viols.append(Violation("mu-cubic", (z, w, col), res))
    mu_cubic_rep = AxiomReport.from_violations(viols)

    viols = []
    delta_x = rbo_delta0(o, x)
    for b in range(v):
        res = x.bracket_with(a, delta_x.f_part[b])
        if not is_zero_vector(res):
            viols.append(Violation("closing", (b,), res))
    closing_rep = AxiomReport.from_violations(viols)

    conditions = (
        ("bracket-binary", binary_rep),
        ("bracket-ternary-quadratic", quad_rep),
        ("bracket-ternary-cubic", cubic_rep),
        ("mu-quadratic", mu_quad_rep),
        ("mu-cubic", mu_cubic_rep),
        ("closing", closing_rep),
    )

    plain = None
    if _is_adjoint(o):
        viols = []
        for y in range(m):
            inner = vsub(t.apply(xb[y]), x.bracket_with(a, t.apply(bas[y])))
            res = x.bracket_with(a, inner)
            if not is_zero_vector(res):
                viols.append(Violation("closing", (y,), res))
        plain = (
            ("bracket-binary", binary_rep),
            ("bracket-ternary-quadratic", quad_rep),
            ("bracket-ternary-cubic", cubic_rep),
            ("closing", AxiomReport.from_violations(viols)),
        )

    return NijenhuisReport(element=x, conditions=conditions, plain_conditions=plain)


def equivalence_check_linear(o: RelRBO, d1: TruncatedDeformation,
                             d2: TruncatedDeformation, x: Wedge2) -> AxiomReport:
    """Check whether the wedge element X realizes an equivalence from the
    linear deformation d2 onto d1 through the maps

        phi_t = Id_g + t <X, .>        psi_t = Id_V + t D(X).

    Each homomorphism-of-operators condition is polynomial in t; its
    coefficients are reported per degree (labels like "mu-intertwine@t^2").
    The t^1 parts of the bracket and rho/mu conditions hold automatically by
    the algebra and representation axioms and are included for completeness."""
    _require_verified(o)
    a, r = o.algebra, o.rep
    m, v = a.dim, r.dim_v
    for d in (d1, d2):
        if d.order != 1:
            raise ValueError("equivalence check applies to linear deformations")
        if d.terms[0] != o.t_matrix:
            raise ValueError("deformation must start at the operator")
    if x.dim != m:
        raise ValueError("wedge element and algebra dimensions differ")
    lx = x.action_matrix(a)
    dx = x.d_matrix(r)
    t1, t2 = d1.terms[1], d2.terms[1]
    bas = [a.basis(i) for i in range(m)]
    lxb = [lx.apply(e) for e in bas]
    viols: List[Violation] = []

    for i in range(m):
        for j in range(i + 1, m):
            res = vsub(vadd(a.bracket(lxb[i], bas[j]), a.bracket(bas[i], lxb[j])),
                       lx.apply(a.bracket_basis(i, j)))
            if not is_zero_vector(res):
                viols.append(Violation("binary-hom@t^1", (i, j), res))
            res = a.bracket(lxb[i], lxb[j])
            if not is_zero_vector(res):
                viols.append(Violation("binary-hom@t^2", (i, j), res))

    for i in range(m):
        for j in range(m):
            for k in range(m):
                res = vadd(vadd(a.triple(lxb[i], bas[j], bas[k]),
                                a.triple(bas[i], lxb[j], bas[k])),
                           a.triple(bas[i], bas[j], lxb[k]))
                res = vsub(res, lx.apply(a.triple_basis(i, j, k)))
                if not is_zero_vector(res):
                    viols.append(Violation("ternary-hom@t^1", (i, j, k), res))
                res = vadd(vadd(a.triple(lxb[i], lxb[j], bas[k]),
                                a.triple(lxb[i], bas[j], lxb[k])),
                           a.triple(bas[i], lxb[j], lxb[k]))
                if not is_zero_vector(res):
                    viols.append(Violation("ternary-hom@t^2", (i, j, k), res))
                res = a.triple(lxb[i], lxb[j], lxb[k])
                if not is_zero_vector(res):
                    viols.append(Violation("ternary-hom@t^3", (i, j, k), res))

    for i in range(m):
        mat1 = dx @ r.rho(i) - r.rho_of(lxb[i]) - r.rho(i) @ dx
        mat2 = (r.rho_of(lxb[i]) @ dx).scale(-1)
        for label, mat in (("rho-intertwine@t^1", mat1), ("rho-intertwine@t^2", mat2)):
            for col in range(v):
                res = mat.column(col)
                if not is_zero_vector(res):
                    viols.append(Violation(label, (i, col), res))

    for i in range(m):
        for j in range(m):
            mat1 = dx @ r.mu(i, j) - r.mu_of(lxb[i], bas[j]) \
                - r.mu_of(bas[i], lxb[j]) - r.mu(i, j) @ dx
            mat2 = (r.mu_of(lxb[i], lxb[j])
                    + (r.mu_of(lxb[i], bas[j]) + r.mu_of(bas[i], lxb[j])) @ dx).scale(-1)
            mat3 = (r.mu_of(lxb[i], lxb[j]) @ dx).scale(-1)
            for label, mat in (("mu-intertwine@t^1", mat1),
                               ("mu-intertwine@t^2", mat2),
                               ("mu-intertwine@t^3", mat3)):
                for col in range(v):
                    res = mat.column(col)
                    if not is_zero_vector(res):
                        viols.append(Violation(label, (i, j, col), res))

    mat1 = t1 + o.t_matrix @ dx - t2 - lx @ o.t_matrix
    mat2 = t1 @ dx - lx @ t2
    for label, mat in (("t-intertwine@t^1", mat1), ("t-intertwine@t^2", mat2)):
        for col in range(v):
            res = mat.column(col)
            if not is_zero_vector(res):
                viols.append(Violation(label, (col,), res))

    return AxiomReport.from_violations(viols)
