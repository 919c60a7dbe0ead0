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
and one engine in `rbo` computes every order in one pass, on the terms as
each check scales them once. A verified operator passes order 0 by
definition, so the checks here start at order 1. Linear deformations
need the full expansion to vanish; order-n deformations only need it mod
t^{n+1}; the residual at t^{n+1} is the obstruction to extending one more
order, and the one at t^1 is the coboundary of T_1 (`rbo_delta1_expanded`).
The obstruction is a 2-cocycle by the paper's lemma, which the tests check;
`obstruction` only seeks its preimage, on the integer rows of delta^1 of the
operator's one complex, assembled once however many orders `deform extend`
asks for; each order eliminates its own [delta^1 | Ob].
T_t likewise deforms the pre-Lie-Yamaguti products u * v = rho(T_t u) v and
{u, v, w} = mu(T_t v, T_t w) u, expanded by the same Cauchy product.

A wedge element X gives phi_t = Id + t<X, .> on g and psi_t = Id + tD(X) on
V, which the homomorphism engine of `rbo` (`_hom_expansion`) expands in
powers of t: the binary-hom and rho-intertwine coefficients up to t^2, the
ternary-hom and mu-intertwine ones up to t^3. Between linear deformations
T + tT_1' and T + tT_1 the t^1 term of the operator condition is
T_1 - T_1' + delta(X), so equivalent deformations have cohomologous
infinitesimals; a Nijenhuis element zeroes the t^2 and t^3 bracket and mu
terms. With L = <X, .>, delta(X) = T D(X) - L T; the closing condition is
the columns of L delta(X), and on the adjoint representation of L (T L - L T).
All of it runs on integer columns, as `rbo` explains; T's are those its
operator keeps.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .linalg import Matrix, vneg
from .structures import AxiomReport, InputError, Violation, _column_violations, _sparse
from .complexes import Cochain, _preimage
from .rbo import (_HOM, RelRBO, Wedge2, _compose, _expansion, _hom_expansion, _pre_ly_expansion,
                  _require_verified, _term_tables, _unit, _violations)
from .rbo_cohomology import _complex, _delta0, rbo_cohomology_dims, rbo_delta0

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


class NotNijenhuisElement(InputError):
    """The wedge element fails one of the Nijenhuis conditions."""

    def __init__(self, label: str, violation: Violation):
        self.label = label
        self.violation = violation
        super().__init__(f"fails {label} at {violation.args}")


class NotLinearDeformation(InputError):
    """T + t*frak_t is not a relative Rota-Baxter operator for all t."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"fails {violation.identity} at {violation.args}")


class NotOrderN(InputError):
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
    """The residual 2-cochain at order n+1, whether it is a cocycle (always,
    by the paper's lemma; not recomputed), and a degree-1 preimage of its
    negative under the operator coboundary when one exists (then the
    deformation extends by that term)."""

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
    residuals, _ = _expansion(o.algebra, o.rep, _term_tables((o.t_matrix, frak_t)), orders)
    return AxiomReport.from_violations(_violations(residuals, orders, *_LABELS))


# the coefficients of the expansion of phi_t and psi_t that make up the Nijenhuis conditions
_NIJENHUIS = {"bracket-binary": ("binary-hom", 2), "bracket-ternary-quadratic": ("ternary-hom", 2),
              "bracket-ternary-cubic": ("ternary-hom", 3), "mu-quadratic": ("mu-intertwine", 2),
              "mu-cubic": ("mu-intertwine", 3)}


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
    a, r = o.algebra, o.rep
    m, rng = a.dim, range(a.dim)
    qp, lx, dx = x._actions(r)   # checks the dimension of X
    expansion = _hom_expansion(a, r, qp, (_unit(m, qp), lx), (_unit(r.dim_v, qp), dx),
                               (2, 3), ("binary-hom", "ternary-hom", "mu-intertwine"))
    qt, (tc,) = o._columns()

    def condition(label: str, terms) -> Tuple[str, AxiomReport]:
        return label, AxiomReport.from_residuals((label, args, res) for args, res in terms)

    def closing(d) -> Tuple[str, AxiomReport]:   # <X,.> delta(X), one violation per column v
        delta = [_sparse(col) for col in _compose(m, *_delta0(tc, lx, d))]
        return "closing", AxiomReport.from_violations(
            _column_violations("closing", (), _compose(m, (1, lx, delta)), qp * qt * qp))

    conditions = tuple(condition(label, expansion[name][s].items())
                       for label, (name, s) in _NIJENHUIS.items()) + (closing(dx),)

    tab = r.tables()   # adjoint: rho(e_i) e_k = [e_i, e_k], mu(e_i, e_j) e_k = <e_k, e_i, e_j>
    adjoint = r.dim_v == m and all(tab.rho[i][k] == tab.b[i][k] and tab.mu[i][j][k] == tab.t[k][i][j]
                                   for i in rng for j in rng for k in rng)
    # there the bracket conditions and <X, T<X,y> - <X,Ty>>: closing with <X,.> for D(X)
    plain = conditions[:3] + (closing(lx),) if adjoint else None

    return NijenhuisReport(element=x, conditions=conditions, plain_conditions=plain)


def trivial_deformation_from(o: RelRBO, x: Wedge2) -> TruncatedDeformation:
    """The linear deformation T + t*delta(X) generated by a Nijenhuis
    element. Raises NotNijenhuisElement when X fails a condition."""
    report = nijenhuis_element_check(o, x)
    for label, rep in report.conditions:
        if not rep.valid:
            raise NotNijenhuisElement(label, rep.violations[0])
    return TruncatedDeformation((o.t_matrix, rbo_delta0(o, x).as_matrix(o.algebra.dim)))


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
    for d in (d1, d2):
        if d.order != 1:
            raise ValueError("equivalence check applies to linear deformations")
        if d.terms[0] != o.t_matrix:
            raise ValueError("deformation must start at the operator")
    orders = (1, 2, 3)   # binary-hom and rho-intertwine vanish at t^3
    qp, lx, dx = x._actions(r)
    m, idv = a.dim, _unit(r.dim_v, qp)
    expansion = _hom_expansion(a, r, qp, (_unit(m, qp), lx), (idv, dx), orders, _HOM[:4])
    qt, (tc, t1, t2) = _term_tables((o.t_matrix, d1.terms[1], d2.terms[1]))
    # each tuple of algebra indices with its orders in turn (the sort is stable); the
    # intertwinings as psi_t mu(x, y) - mu(phi_t x, phi_t y) psi_t, and so for rho
    viols = [v for name in _HOM[:4] for v in sorted(
        (Violation(f"{name}@t^{s}", args, vneg(res) if name.endswith("intertwine") else res)
         for s in orders for args, res in expansion[name][s].items()),
        key=lambda v: v.args[:v.arg_spaces.count("g")])]
    # T_1 - T_1' + delta(X) and T_1 D(X) - <X, .> T_1', over q_T qp
    first = _compose(m, (1, t1, idv), (-1, t2, idv), *_delta0(tc, lx, dx))
    second = _compose(m, (1, t1, dx), (-1, lx, t2))
    for label, cols in (("t-intertwine@t^1", first), ("t-intertwine@t^2", second)):
        viols += _column_violations(label, (), cols, qt * qp)
    return AxiomReport.from_violations(viols)


def _order_violations(o: RelRBO, d: TruncatedDeformation, orders: range):
    """Residuals of d at the orders, and the violations among them at orders
    1..n; order 0 is `check_rbo` of T, which a verified operator passes."""
    _require_verified(o)
    if d.terms[0] != o.t_matrix:
        raise ValueError("deformation must start at the operator")
    residuals, _ = _expansion(o.algebra, o.rep, _term_tables(d.terms), orders)
    return residuals, _violations(residuals, range(1, d.order + 1), *_LABELS)


def order_n_check(o: RelRBO, d: TruncatedDeformation) -> AxiomReport:
    """The defining identities for T_t mod t^{n+1}: every coefficient
    residual at t^1..t^n must vanish (t^0 does, as T is verified)."""
    _, viols = _order_violations(o, d, range(1, d.order + 1))
    return AxiomReport.from_violations(viols)


def obstruction(o: RelRBO, d: TruncatedDeformation) -> ObstructionResult:
    """The coefficient residual at t^{n+1}, packaged as a 2-cochain Ob of the
    operator complex. The deformation extends to order n+1 by a term frak_t
    iff delta(frak_t) = -Ob; the witness is such a preimage when it exists.

    Raises NotOrderN when d itself fails its order-n conditions."""
    n = d.order
    residuals, viols = _order_violations(o, d, range(1, n + 2))
    if viols:
        raise NotOrderN(viols[0])
    rc = _complex(o)
    binary, ternary = residuals[n + 1]
    ob = Cochain(2, tuple(binary.values()), tuple(ternary.values()))
    # a preimage x of Ob gives the witness -x
    sol = _preimage(rc.ctx, ob)
    witness = None if sol is None else Cochain.from_flat(rc.ctx, 1, vneg(sol))
    return ObstructionResult(ob, True, witness is not None, witness)


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
    (phi, omega1), (_, omega2) = _pre_ly_expansion(o.rep, _term_tables((o.t_matrix, frak_t)),
                                                   (1, 2)).values()
    return phi, omega1, omega2


def rigidity_probe(o: RelRBO) -> RigidityProbe:
    """Dimensions of the degree-1 cocycle space and of the image of wedge
    elements under delta, plus whether the image exhausts the cocycles."""
    h1 = rbo_cohomology_dims(_complex(o), 1)
    # delta^1 o delta^0 = 0 puts the image inside the cocycles, so it
    # exhausts them exactly when the dimensions agree
    return RigidityProbe(dim_z1=h1.dim_cocycles, dim_delta_image=h1.dim_coboundaries,
                         nijenhuis_image_contained=h1.dim_h == 0)
