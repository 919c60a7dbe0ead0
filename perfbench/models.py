"""Seeded generator of `.lyat` model files for the benchmark.

Independent of the package under test: every constant is computed here with
`fractions.Fraction`, so a defect in the library cannot make its own inputs.

Families (all with the adjoint representation unless stated):

* dim-2: [e1,e2] = e1, <e1,e2,e2> = e1; operators [[0,a],[0,b]], each one a
  relative Rota-Baxter operator, with a same-shape deformation direction.
* dim-4: [e1,e2] = 2 e4, <e1,e2,e1> = e4; operators with the nine free
  entries of the family (e2 may hit e1, anything may hit e3 and e4).
* dim-3 Lie type: Heisenberg and sl2 lifted by <x,y,z> = [[x,y],z], rescaled
  by a seeded diagonal so the seed moves coefficients, not sparsity.

`transport` rewrites a model in the basis given by the columns of an
invertible integer matrix P (see `basis_change`): constants become P^-1[Pe_i, Pe_j] and
P^-1<Pe_i, Pe_j, Pe_k>, operators P^-1 T P. Cohomology dimensions and the
validity of every structure are invariant, so outputs stay checkable while
the coboundary matrices turn dense with large entries.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Vec = Tuple[Fraction, ...]
Mat = List[List[Fraction]]

ZERO = Fraction(0)


class Model:
    """Full structure-constant tables plus optional operator data.

    `binary[i][j]` and `ternary[i][j][k]` are coefficient vectors; both are
    kept skew-completed so basis changes can evaluate brackets directly.
    The representation is the adjoint one when `rho` is None; otherwise
    `rho[i]` and `mu[i][j]` are its matrices, written out in the file.
    """

    def __init__(self, dim: int, binary, ternary,
                 operator: Optional[Mat] = None,
                 direction: Optional[Mat] = None):
        self.dim = dim
        self.binary = binary
        self.ternary = ternary
        self.rho: Optional[List[Mat]] = None
        self.mu: Optional[List[List[Mat]]] = None
        self.operator = operator
        self.direction = direction

    def copy(self) -> "Model":
        m = Model(self.dim,
                  [list(row) for row in self.binary],
                  [[list(col) for col in row] for row in self.ternary],
                  _mcopy(self.operator), _mcopy(self.direction))
        if self.rho is not None:
            m.rho = [_mcopy(x) for x in self.rho]
            m.mu = [[_mcopy(x) for x in row] for row in self.mu]
        return m

    def write_out_rep(self) -> None:
        """Replace the adjoint representation by its explicit matrices."""
        self.rho, self.mu = adjoint_matrices(self)


def _mcopy(m: Optional[Mat]) -> Optional[Mat]:
    return None if m is None else [list(r) for r in m]


def _zero_tables(n: int):
    z = tuple([ZERO] * n)
    return ([[z] * n for _ in range(n)],
            [[[z] * n for _ in range(n)] for _ in range(n)])


def _vec(n: int, entries: Dict[int, int]) -> Vec:
    return tuple(Fraction(entries.get(i, 0)) for i in range(n))


def _set_binary(tab, i: int, j: int, v: Vec) -> None:
    tab[i][j] = v
    tab[j][i] = tuple(-x for x in v)


def _set_ternary(tab, i: int, j: int, k: int, v: Vec) -> None:
    tab[i][j][k] = v
    tab[j][i][k] = tuple(-x for x in v)


def bracket(m: Model, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    out = [ZERO] * m.dim
    for i, ci in enumerate(u):
        if not ci:
            continue
        for j, cj in enumerate(v):
            if not cj:
                continue
            c = ci * cj
            for l, x in enumerate(m.binary[i][j]):
                if x:
                    out[l] += c * x
    return tuple(out)


def triple(m: Model, u, v, w) -> Vec:
    out = [ZERO] * m.dim
    for i, ci in enumerate(u):
        if not ci:
            continue
        for j, cj in enumerate(v):
            if not cj:
                continue
            for k, ck in enumerate(w):
                if not ck:
                    continue
                c = ci * cj * ck
                for l, x in enumerate(m.ternary[i][j][k]):
                    if x:
                        out[l] += c * x
    return tuple(out)


def _unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if c == i else 0) for c in range(n))


# -- matrices -----------------------------------------------------------------

def matmul(a: Mat, b: Mat) -> Mat:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def apply(a: Mat, v: Sequence[Fraction]) -> Vec:
    return tuple(sum((a[i][k] * v[k] for k in range(len(v))), ZERO)
                 for i in range(len(a)))


def inverse(a: Mat) -> Optional[Mat]:
    """Exact inverse by Gauss-Jordan, or None when singular."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c]), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


# Dense unimodular bases with entries in [-3, 3] whose inverses have no zero
# entry either, so transported constants are dense with integer entries. The
# dim-4 inverse reaches 31, which puts the entries of the degree-2
# coboundary matrix at 11 bits and makes elimination outweigh assembly there.
P0 = {
    2: ((2, 3), (1, 2)),
    3: ((3, -1, -3), (2, 3, 1), (-1, -2, -1)),
    4: ((2, 2, 3, 3), (2, -1, 1, 2), (1, 3, 1, -3), (-1, -1, -2, -3)),
}


def basis_change(rng: random.Random, n: int) -> Mat:
    """P = P0 D: the fixed dense basis of P0 with its vectors sign-flipped by
    the seed. Sign flips move only the signs of the transported constants
    and of the coboundary matrices' rows and columns, so elimination takes
    the same pivots and the work is the same for every seed; a fully random
    P changed the elimination time of the dim-4 degree-2 complex threefold
    from seed to seed."""
    sign = [rng.choice((-1, 1)) for _ in range(n)]
    return [[Fraction(sign[j] * P0[n][i][j]) for j in range(n)] for i in range(n)]


def _rat(rng: random.Random, span: int, den: int) -> Fraction:
    """A nonzero rational: a zero entry would skip work and make the size of
    the work depend on the seed."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, span), rng.randint(1, den))


# -- families -----------------------------------------------------------------

def dim2_algebra() -> Model:
    b, t = _zero_tables(2)
    _set_binary(b, 0, 1, _vec(2, {0: 1}))
    _set_ternary(t, 0, 1, 1, _vec(2, {0: 1}))
    return Model(2, b, t)


def dim2_operator(a: Fraction, b: Fraction) -> Mat:
    return [[ZERO, Fraction(a)], [ZERO, Fraction(b)]]


def dim4_algebra() -> Model:
    b, t = _zero_tables(4)
    _set_binary(b, 0, 1, _vec(4, {3: 2}))
    _set_ternary(t, 0, 1, 0, _vec(4, {3: 1}))
    return Model(4, b, t)


def dim4_operator(a12, a31, a32, a33, a34, a41, a42, a43, a44) -> Mat:
    z = ZERO
    return [[z, Fraction(a12), z, z],
            [z, z, z, z],
            [Fraction(a31), Fraction(a32), Fraction(a33), Fraction(a34)],
            [Fraction(a41), Fraction(a42), Fraction(a43), Fraction(a44)]]


LIE_TYPES: Dict[str, Dict[Tuple[int, int], Dict[int, int]]] = {
    "heisenberg": {(0, 1): {2: 1}},
    "sl2": {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
}


def lie_type(name: str, scale: Sequence[Fraction]) -> Model:
    """A dim-3 Lie algebra in the basis f_i = scale_i e_i, lifted to a
    Lie-Yamaguti algebra by <x,y,z> = [[x,y],z]."""
    b, t = _zero_tables(3)
    for (i, j), val in LIE_TYPES[name].items():
        _set_binary(b, i, j, tuple(Fraction(val.get(l, 0)) * scale[i] * scale[j] / scale[l]
                                   for l in range(3)))
    m = Model(3, b, t)
    for i in range(3):
        for j in range(i + 1, 3):
            for k in range(3):
                _set_ternary(t, i, j, k, bracket(m, m.binary[i][j], _unit(3, k)))
    return m


def operator_model(rng: random.Random, family: str) -> Model:
    """A seeded member of the dim-2 or dim-4 operator family, with a
    same-shape deformation direction."""
    if family == "dim2":
        m = dim2_algebra()
        m.operator = dim2_operator(_rat(rng, 9, 5), _rat(rng, 9, 5))
        m.direction = dim2_operator(_rat(rng, 9, 5), _rat(rng, 9, 5))
        return m
    m = dim4_algebra()
    m.operator = dim4_operator(*(_rat(rng, 6, 4) for _ in range(9)))
    m.direction = dim4_operator(*(_rat(rng, 6, 4) for _ in range(9)))
    return m


def lie_model(rng: random.Random, name: str) -> Model:
    return lie_type(name, [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(3)])


# -- basis change and corruption ----------------------------------------------

def transport(m: Model, p: Mat) -> Model:
    """The same structures written in the basis of P's columns."""
    n = m.dim
    pinv = inverse(p)
    cols = [tuple(p[r][c] for r in range(n)) for c in range(n)]
    b, t = _zero_tables(n)
    for i in range(n):
        for j in range(i + 1, n):
            _set_binary(b, i, j, apply(pinv, bracket(m, cols[i], cols[j])))
            for k in range(n):
                _set_ternary(t, i, j, k, apply(pinv, triple(m, cols[i], cols[j], cols[k])))
    out = Model(n, b, t)
    if m.rho is not None:
        def conj(mat: Mat) -> Mat:
            return matmul(matmul(pinv, mat), p)

        def comb(coeffs: Sequence[Tuple[Fraction, Mat]]) -> Mat:
            return [[sum((c * x[r][q] for c, x in coeffs), ZERO) for q in range(n)]
                    for r in range(n)]

        out.rho = [conj(comb([(p[k][i], m.rho[k]) for k in range(n)])) for i in range(n)]
        out.mu = [[conj(comb([(p[k][i] * p[l][j], m.mu[k][l])
                              for k in range(n) for l in range(n)]))
                   for j in range(n)] for i in range(n)]
    if m.operator is not None:
        out.operator = matmul(matmul(pinv, m.operator), p)
    if m.direction is not None:
        out.direction = matmul(matmul(pinv, m.direction), p)
    return out


# Positions whose bump breaks the family, checked by the self-tests. Bumping
# a constant that is already nonzero only rescales it and keeps the axioms,
# so the ternary bumps add a component that is zero in the family. Many mu
# entries of dim 4 (most in the e3 and e4 rows) survive a bump; the listed
# ones do not.
TERNARY_BUMPS = {
    2: [(0, 1, 1, 1), (0, 1, 0, 0), (0, 1, 0, 1)],
    4: [(0, 1, 0, 0), (0, 1, 2, 3), (0, 2, 0, 0), (1, 2, 1, 1), (2, 3, 1, 2), (1, 3, 3, 0)],
}
MU_BUMPS = {
    2: [(0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 1, 1)],
    4: [(0, 0, 0, 0), (0, 1, 0, 1), (1, 1, 0, 3), (2, 3, 0, 2), (3, 0, 0, 0), (1, 2, 0, 1)],
}
CORRUPTIONS = ("ternary", "mu", "operator")


def corrupt(m: Model, kind: str, rng: random.Random) -> Model:
    """A copy of a native family member that breaks the family's shape in
    one place; transport it afterwards, validity is basis-invariant.

    "ternary": the algebra fails its axioms; "mu": the written-out adjoint
    representation fails; "operator": a nonzero entry where the family has a
    structural zero (the e2 row of the dim-4 operator, the e1 column of the
    dim-2 one), so the operator fails its identities.
    """
    out = m.copy()
    n = m.dim
    if kind == "ternary":
        i, j, k, l = rng.choice(TERNARY_BUMPS[n])
        vec = list(out.ternary[i][j][k])
        vec[l] += rng.choice((-1, 1))
        _set_ternary(out.ternary, i, j, k, tuple(vec))
    elif kind == "mu":
        out.write_out_rep()
        i, j, r, c = rng.choice(MU_BUMPS[n])
        out.mu[i][j][r][c] += 1
    elif kind == "operator":
        if n == 4:
            out.operator[1][rng.randrange(4)] += rng.choice((-1, 1, 2))
        else:
            out.operator[rng.randrange(2)][0] += rng.choice((-1, 1, 2))
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return out


# -- serialisation --------------------------------------------------------------

def _s(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _value(vec: Vec, names: Sequence[str]) -> Dict[str, str]:
    return {names[l]: _s(x) for l, x in enumerate(vec) if x}


def _smat(m: Mat) -> List[List[str]]:
    return [[_s(x) for x in row] for row in m]


def adjoint_matrices(m: Model) -> Tuple[List[Mat], List[List[Mat]]]:
    """rho(e_i) column k = [e_i, e_k]; mu(e_i, e_j) column k = <e_k, e_i, e_j>."""
    n = m.dim
    e = [_unit(n, i) for i in range(n)]

    def from_cols(cols):
        return [[cols[c][r] for c in range(n)] for r in range(n)]

    rho = [from_cols([bracket(m, e[i], e[k]) for k in range(n)]) for i in range(n)]
    mu = [[from_cols([triple(m, e[k], e[i], e[j]) for k in range(n)]) for j in range(n)]
          for i in range(n)]
    return rho, mu


def to_lyat(m: Model) -> str:
    """The model as a `.lyat` document; with an operator T and a direction
    D it declares the linear deformation T + tD."""
    n = m.dim
    names = [f"e{i + 1}" for i in range(n)]
    doc: Dict[str, object] = {"scalar": "rational", "dim": n, "basis": names}
    doc["binary"] = [{"args": [i + 1, j + 1], "value": _value(m.binary[i][j], names)}
                     for i in range(n) for j in range(i + 1, n) if any(m.binary[i][j])]
    doc["ternary"] = [{"args": [i + 1, j + 1, k + 1],
                       "value": _value(m.ternary[i][j][k], names)}
                      for i in range(n) for j in range(i + 1, n) for k in range(n)
                      if any(m.ternary[i][j][k])]
    if m.rho is None:
        doc["representation"] = "adjoint"
    else:
        doc["representation"] = {"dim": n, "rho": [_smat(x) for x in m.rho],
                                 "mu": [[_smat(x) for x in row] for row in m.mu]}
    if m.operator is not None:
        doc["operator"] = _smat(m.operator)
        if m.direction is not None:
            doc["deformation"] = {"terms": [_smat(m.operator), _smat(m.direction)]}
        doc["elements"] = {"X": [{"args": [1, 2], "coeff": "1"}]}
    return json.dumps(doc) + "\n"
