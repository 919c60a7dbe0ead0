"""Deformations of relative Rota-Baxter operators.

A truncated deformation is a polynomial T_t = sum_s t^s T_s with T_0 the
verified operator. Substituting it into the two defining identities and
collecting powers of t gives, for each s, a pair of coefficient residuals

    S_bin(s)(u, v)    = sum_{i+j=s}   [T_i u, T_j v]
                        - T_i( rho(T_j u) v - rho(T_j v) u )
    S_ter(s)(u, v, w) = sum_{i+j+k=s} <T_i u, T_j v, T_k w>
                        - T_i( D(T_j u, T_k v) w + mu(T_j v, T_k w) u
                               - mu(T_j u, T_k w) v )

(indices running over the available terms). `check_rbo` is order 0 of (T,),
and one engine in `rbo` computes every order in one pass. Linear deformations
need the full expansion to vanish; order-n deformations only need it mod
t^{n+1}; the residual at t^{n+1} is the obstruction to extending one more
order, and the one at t^1 is the coboundary of T_1 (`rbo_delta1_expanded`).
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple, Optional, Tuple

from .linalg import Matrix, solve_linear, vadd, vneg, vsub
from .structures import AxiomReport, Term, Violation, _adjoint_tables, wedge_basis
from .complexes import Cochain, coboundary
from .rbo import RelRBO, Wedge2, _expansion, _require_verified, _violations
from .rbo_cohomology import RboComplex, rbo_coboundary_matrix, rbo_cohomology_dims, rbo_delta0

__all__ = [
    "NotNijenhuisElement",
    "NotLinearDeformation",
    "NotOrderN",
    "TruncatedDeformation",
    "ObstructionResult",
    "NijenhuisReport",
    "RigidityProbe",
    "linear_deformation_check",
    "nijenhuis_element_check",
    "trivial_deformation_from",
    "equivalence_check_linear",
    "order_n_check",
    "obstruction",
    "extend_deformation",
    "pre_ly_deformation_terms",
    "rigidity_probe",
]


class NotNijenhuisElement(Exception):
    """The wedge element fails one of the Nijenhuis conditions."""

    def __init__(self, label: str, violation: Violation):
        self.label = label
        self.violation = violation
        super().__init__(f"fails {label} at {violation.args}")


class NotLinearDeformation(Exception):
    """T + t*frak_t is not a relative Rota-Baxter operator for all t."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"fails {violation.identity} at {violation.args}")


class NotOrderN(Exception):
    """The truncated deformation fails its own order-n conditions."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"fails {violation.identity} at {violation.args}")


class _TruncatedDeformationFields(NamedTuple):
    terms: Tuple[Matrix, ...]


class TruncatedDeformation(_TruncatedDeformationFields):
    """Coefficient matrices (T_0, T_1, ..., T_n) of a polynomial deformation;
    the order is n."""

    __slots__ = ()

    def __new__(cls, terms) -> "TruncatedDeformation":
        terms = tuple(terms)
        if not terms:
            raise ValueError("a deformation needs at least its constant term")
        shape = (terms[0].rows, terms[0].cols)
        for k, term in enumerate(terms):
            if (term.rows, term.cols) != shape:
                raise ValueError(f"term {k} has shape {term.rows}x{term.cols}, expected {shape[0]}x{shape[1]}")
        return super().__new__(cls, terms)

    @property
    def order(self) -> int:
        return len(self.terms) - 1


class ObstructionResult(NamedTuple):
    """The residual 2-cochain at order n+1, whether it is a cocycle, and a
    degree-1 preimage of its negative under the operator coboundary when one
    exists (then the deformation extends by that term)."""

    ob: Cochain
    is_cocycle: bool
    trivial: bool
    witness: Optional[Cochain]


class NijenhuisReport(NamedTuple):
    """Per-condition reports for a wedge element. `plain_conditions` carries
    the reduced condition set that applies when the representation is the
    adjoint one (operator on the algebra itself); otherwise None."""

    element: Wedge2
    conditions: Tuple[Tuple[str, AxiomReport], ...]
    plain_conditions: Optional[Tuple[Tuple[str, AxiomReport], ...]] = None

    @property
    def is_nijenhuis(self) -> bool:
        return all(report.valid for _, report in self.conditions)


class RigidityProbe(NamedTuple):
    """Dimensions feeding the rigidity discussion: the space of 1-cocycles,
    the image of wedge elements under delta, and whether every 1-cocycle lies
    in that image. A True flag does not by itself prove rigidity (the wedge
    preimages must also be Nijenhuis elements)."""

    dim_z1: int
    dim_delta_image: int
    nijenhuis_image_contained: bool


_LABELS = ("binary@t^{s}", "ternary@t^{s}")


def linear_deformation_check(o: RelRBO, frak_t: Matrix) -> AxiomReport:
    """Is T + t*frak_t a relative Rota-Baxter operator for every t? The full
    expansion has binary coefficients at t^1..t^2 and ternary ones at
    t^1..t^3 (the t^0 parts vanish because T is verified)."""
    _require_verified(o)
    if (frak_t.rows, frak_t.cols) != (o.t_matrix.rows, o.t_matrix.cols):
        raise ValueError(
            f"deformation direction must be {o.t_matrix.rows}x{o.t_matrix.cols}, got {frak_t.rows}x{frak_t.cols}")
    # the binary coefficient at t^3 has no terms
    orders = (1, 2, 3)
    residuals, _ = _expansion(o.algebra, o.rep, (o.t_matrix, frak_t), orders)
    return AxiomReport.from_violations(_violations(residuals, orders, *_LABELS))


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
    m = a.dim
    rng = range(m)
    bas = [a.basis(i) for i in rng]
    xb = [x.bracket_with(a, e) for e in bas]
    dx = x.d_matrix(r)
    pairs = list(itertools.product(rng, repeat=2))
    triples = list(itertools.product(rng, repeat=3))

    def condition(label: str, terms) -> Tuple[str, AxiomReport]:
        return label, AxiomReport.from_residuals((label, args, res) for args, res in terms)

    brackets = (
        condition("bracket-binary", (((i, j), a.bracket(xb[i], xb[j]))
                                     for i, j in wedge_basis(m))),
        condition("bracket-ternary-quadratic", (
            ((i, j, k), vadd(vadd(a.triple(xb[i], xb[j], bas[k]),
                                  a.triple(xb[i], bas[j], xb[k])),
                             a.triple(bas[i], xb[j], xb[k])))
            for i, j, k in triples)),
        condition("bracket-ternary-cubic", (((i, j, k), a.triple(xb[i], xb[j], xb[k]))
                                            for i, j, k in triples)),
    )
    conditions = brackets + (
        condition("mu-quadratic", (
            ((z, w), (r.mu_of(bas[z], xb[w]) + r.mu_of(xb[z], bas[w])) @ dx
             + r.mu_of(xb[z], xb[w]))
            for z, w in pairs)),
        condition("mu-cubic", (((z, w), r.mu_of(xb[z], xb[w]) @ dx) for z, w in pairs)),
        condition("closing", (((b,), x.bracket_with(a, image))
                              for b, image in enumerate(rbo_delta0(o, x).f_part))),
    )

    plain = None
    if r.dim_v == m and _adjoint_tables(a) == ([r.rho(i) for i in rng],
                                               [[r.mu(i, j) for j in rng] for i in rng]):
        plain = brackets + (condition("closing", (
            ((y,), x.bracket_with(a, vsub(t.apply(xb[y]), x.bracket_with(a, t.apply(bas[y])))))
            for y in rng)),)

    return NijenhuisReport(element=x, conditions=conditions, plain_conditions=plain)


def trivial_deformation_from(o: RelRBO, x: Wedge2) -> TruncatedDeformation:
    """The linear deformation T + t*delta(X) generated by a Nijenhuis
    element. Raises NotNijenhuisElement when X fails a condition."""
    report = nijenhuis_element_check(o, x)
    for label, rep in report.conditions:
        if not rep.valid:
            raise NotNijenhuisElement(label, rep.violations[0])
    direction = rbo_delta0(o, x).as_matrix(o.algebra.dim)
    return TruncatedDeformation((o.t_matrix, direction))


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
    m = a.dim
    for d in (d1, d2):
        if d.order != 1:
            raise ValueError("equivalence check applies to linear deformations")
        if d.terms[0] != o.t_matrix:
            raise ValueError("deformation must start at the operator")
    if x.dim != m:
        raise ValueError("wedge element and algebra dimensions differ")
    lx = x.action_matrix(a)
    dx = x.d_matrix(r)
    t0, t1, t2 = o.t_matrix, d1.terms[1], d2.terms[1]
    bas = [a.basis(i) for i in range(m)]
    lxb = [lx.apply(e) for e in bas]

    def terms() -> Iterator[Term]:
        for i, j in wedge_basis(m):
            yield ("binary-hom@t^1", (i, j),
                   vsub(vadd(a.bracket(lxb[i], bas[j]), a.bracket(bas[i], lxb[j])),
                        lx.apply(a.bracket_basis(i, j))))
            yield "binary-hom@t^2", (i, j), a.bracket(lxb[i], lxb[j])
        for i, j, k in itertools.product(range(m), repeat=3):
            yield ("ternary-hom@t^1", (i, j, k),
                   vsub(vadd(vadd(a.triple(lxb[i], bas[j], bas[k]),
                                  a.triple(bas[i], lxb[j], bas[k])),
                             a.triple(bas[i], bas[j], lxb[k])),
                        lx.apply(a.triple_basis(i, j, k))))
            yield ("ternary-hom@t^2", (i, j, k),
                   vadd(vadd(a.triple(lxb[i], lxb[j], bas[k]), a.triple(lxb[i], bas[j], lxb[k])),
                        a.triple(bas[i], lxb[j], lxb[k])))
            yield "ternary-hom@t^3", (i, j, k), a.triple(lxb[i], lxb[j], lxb[k])
        for i in range(m):
            yield "rho-intertwine@t^1", (i,), dx @ r.rho(i) - r.rho_of(lxb[i]) - r.rho(i) @ dx
            yield "rho-intertwine@t^2", (i,), -(r.rho_of(lxb[i]) @ dx)
        for i, j in itertools.product(range(m), repeat=2):
            mixed = r.mu_of(lxb[i], bas[j]) + r.mu_of(bas[i], lxb[j])
            yield "mu-intertwine@t^1", (i, j), dx @ r.mu(i, j) - mixed - r.mu(i, j) @ dx
            yield "mu-intertwine@t^2", (i, j), -(r.mu_of(lxb[i], lxb[j]) + mixed @ dx)
            yield "mu-intertwine@t^3", (i, j), -(r.mu_of(lxb[i], lxb[j]) @ dx)
        yield "t-intertwine@t^1", (), t1 + t0 @ dx - t2 - lx @ t0
        yield "t-intertwine@t^2", (), t1 @ dx - lx @ t2

    return AxiomReport.from_residuals(terms())


def _order_violations(o: RelRBO, d: TruncatedDeformation, orders: range):
    """Residuals of d at the orders, and the violations among them up to
    order n."""
    _require_verified(o)
    if d.terms[0] != o.t_matrix:
        raise ValueError("deformation must start at the operator")
    residuals, _ = _expansion(o.algebra, o.rep, d.terms, orders)
    return residuals, _violations(residuals, range(d.order + 1), *_LABELS)


def order_n_check(o: RelRBO, d: TruncatedDeformation) -> AxiomReport:
    """The defining identities for T_t mod t^{n+1}: every coefficient
    residual at t^0..t^n must vanish."""
    _, viols = _order_violations(o, d, range(d.order + 1))
    return AxiomReport.from_violations(viols)


def obstruction(o: RelRBO, d: TruncatedDeformation) -> ObstructionResult:
    """The coefficient residual at t^{n+1}, packaged as a 2-cochain Ob of the
    operator complex. The deformation extends to order n+1 by a term frak_t
    iff delta(frak_t) = -Ob; the witness is such a preimage when it exists.

    Raises NotOrderN when d itself fails its order-n conditions."""
    n = d.order
    residuals, viols = _order_violations(o, d, range(n + 2))
    if viols:
        raise NotOrderN(viols[0])
    rc = RboComplex.build(o)
    binary, ternary = residuals[n + 1]
    ob = Cochain(2, tuple(binary.values()), tuple(ternary.values()))
    is_cocycle = coboundary(rc.ctx, ob).is_zero()
    sol = solve_linear(rbo_coboundary_matrix(rc, 1), vneg(ob.flatten()))
    witness = None
    if sol is not None:
        witness = Cochain.from_flat(rc.ctx, 1, sol)
    return ObstructionResult(ob=ob, is_cocycle=is_cocycle,
                             trivial=sol is not None, witness=witness)


def extend_deformation(o: RelRBO, d: TruncatedDeformation) -> Optional[TruncatedDeformation]:
    """Extend an order-n deformation to order n+1 when its obstruction is
    trivial; None when it is not."""
    result = obstruction(o, d)
    if not result.trivial:
        return None
    return TruncatedDeformation(d.terms + (result.witness.as_matrix(o.algebra.dim),))


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


def rigidity_probe(o: RelRBO) -> RigidityProbe:
    """Dimensions of the degree-1 cocycle space and of the image of wedge
    elements under delta, plus whether the image exhausts the cocycles."""
    h1 = rbo_cohomology_dims(RboComplex.build(o), 1)
    # delta^1 o delta^0 = 0 puts the image inside the cocycles, so it
    # exhausts them exactly when the dimensions agree
    return RigidityProbe(dim_z1=h1.dim_cocycles, dim_delta_image=h1.dim_coboundaries,
                         nijenhuis_image_contained=h1.dim_h == 0)
