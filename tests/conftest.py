"""Shared fixtures: the two bundled examples as in-memory objects, broken
variants of the small one, and seeded generators for random algebra /
representation pairs built from classical Lie algebras."""

from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

import pytest

import lieyamaguti as ly


def fr(*args) -> Fraction:
    return Fraction(*args)


class Model(NamedTuple):
    algebra: ly.LYAlgebra
    rep: ly.Representation
    op: ly.RelRBO
    x: ly.Wedge2


def _dim2_algebra() -> ly.LYAlgebra:
    # [e1,e2] = e1, <e1,e2,e2> = e1
    return ly.LYAlgebra(2,
                        binary={(0, 1): (fr(1), fr(0))},
                        ternary={(0, 1, 1): (fr(1), fr(0))})


def _dim4_algebra() -> ly.LYAlgebra:
    # [e1,e2] = 2 e4, <e1,e2,e1> = e4
    return ly.LYAlgebra(4,
                        binary={(0, 1): (fr(0), fr(0), fr(0), fr(2))},
                        ternary={(0, 1, 0): (fr(0), fr(0), fr(0), fr(1))})


def dim4_operator(a12, a31, a32, a33, a34, a41, a42, a43, a44) -> ly.Matrix:
    """The shape of operator that works on the 4-dim algebra: e2 may hit e1,
    anything may hit e3 and e4, nothing else."""
    z = fr(0)
    return ly.Matrix((
        (z, fr(a12), z, z),
        (z, z, z, z),
        (fr(a31), fr(a32), fr(a33), fr(a34)),
        (fr(a41), fr(a42), fr(a43), fr(a44)),
    ))


@pytest.fixture(scope="session")
def dim2() -> Model:
    a = _dim2_algebra()
    r = ly.adjoint_rep(a)
    o = ly.RelRBO.build(a, r, ly.Matrix(((fr(0), fr(0)), (fr(0), fr(1)))))
    return Model(a, r, o, ly.Wedge2.basis(2, 0, 1))


@pytest.fixture(scope="session")
def dim4() -> Model:
    a = _dim4_algebra()
    r = ly.adjoint_rep(a)
    o = ly.RelRBO.build(
        a, r, dim4_operator(fr(3, 2), 1, -2, fr(1, 3), 5, 2, fr(7, 2), -1, 4))
    return Model(a, r, o, ly.Wedge2.basis(4, 0, 1))


# the non-unimodular rational bases of g (columns of DIM4_P) and of V
# (columns of DIM4_Q) in which `dim4_rational` writes the big fixture
DIM4_P = ly.Matrix(((fr(2), fr(1, 3), fr(0), fr(1)),
                    (fr(0), fr(1, 2), fr(1), fr(0)),
                    (fr(1), fr(0), fr(3), fr(-1, 2)),
                    (fr(0), fr(1), fr(0), fr(5, 4))))
DIM4_Q = ly.Matrix(((fr(1, 2), fr(0), fr(1), fr(0)),
                    (fr(0), fr(3), fr(0), fr(1)),
                    (fr(1), fr(0), fr(2, 3), fr(0)),
                    (fr(0), fr(1), fr(-1), fr(1, 5))))


@pytest.fixture(scope="session")
def dim4_rational(dim4: Model) -> Model:
    """The big fixture in non-unimodular rational bases of g and V, so every
    table has denominators and the integer scale of the checks is above 1."""
    p, q = DIM4_P, DIM4_Q
    a, r = transport(dim4.algebra, dim4.rep, p, q)
    o = ly.RelRBO.build(a, r, ly.inverse(p) @ dim4.op.t_matrix @ q)
    return Model(a, r, o, ly.Wedge2.from_dict(4, {(0, 1): fr(1, 2), (2, 3): fr(3)}))


@pytest.fixture(scope="session")
def sl2_standard() -> Model:
    """sl2 lifted by <x,y,z> = [[x,y],z], acting on k^2 by its defining
    representation rho, with mu(x,y) = rho(y) rho(x), written out (not the
    adjoint), and an operator of rank 2 into it."""
    a = ly.lya_from_lie(3, {k: tuple(fr(c) for c in v)
                            for k, v in LIE_FAMILIES["sl2"][1].items()})
    rho = [ly.Matrix(((fr(1), fr(0)), (fr(0), fr(-1)))),
           ly.Matrix(((fr(0), fr(1)), (fr(0), fr(0)))),
           ly.Matrix(((fr(0), fr(0)), (fr(1), fr(0))))]
    mu = [[rho[j] @ rho[i] for j in range(3)] for i in range(3)]
    r = ly.Representation(a, 2, rho, mu)
    o = ly.RelRBO.build(a, r, ly.Matrix(((fr(-1), fr(0)), (fr(0), fr(0)), (fr(1), fr(-1)))))
    return Model(a, r, o, ly.Wedge2.basis(3, 1, 2))


@pytest.fixture(scope="session")
def broken_algebra() -> ly.LYAlgebra:
    # <e1,e2,e2> = e2 breaks the derivation identities
    return ly.LYAlgebra(2,
                        binary={(0, 1): (fr(1), fr(0))},
                        ternary={(0, 1, 1): (fr(0), fr(1))})


@pytest.fixture(scope="session")
def bad_rep(dim2: Model) -> ly.Representation:
    """The adjoint representation of the small algebra with mu(e2,e2)
    corrupted to the identity (true value sends e1 to e1 only)."""
    a = dim2.algebra
    z = ly.Matrix.zero(2, 2)
    rho = [ly.Matrix(((fr(0), fr(1)), (fr(0), fr(0)))),
           ly.Matrix(((fr(-1), fr(0)), (fr(0), fr(0))))]
    mu = [[z, ly.Matrix(((fr(0), fr(-1)), (fr(0), fr(0))))],
          [z, ly.Matrix.identity(2)]]
    return ly.Representation(a, 2, rho, mu)


# -- random structured families ------------------------------------------------

# Lie brackets known to satisfy Jacobi; conjugating by an invertible matrix
# keeps that true while scrambling the constants.
LIE_FAMILIES: Dict[str, Tuple[int, Dict[Tuple[int, int], Tuple[int, ...]]]] = {
    "abelian2": (2, {}),
    "abelian3": (3, {}),
    "affine2": (2, {(0, 1): (0, 1)}),
    "heisenberg": (3, {(0, 1): (0, 0, 1)}),
    "sl2": (3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}),
}


def sl2_sum_operator(k: int) -> ly.RelRBO:
    """The operator sending f to e in each block (T e_{3b+2} = e_{3b+1}) on
    the adjoint representation of k copies of sl2, lifted by
    <x,y,z> = [[x,y],z]."""
    n = 3 * k
    binary = {}
    for b in range(k):
        for (i, j), consts in LIE_FAMILIES["sl2"][1].items():
            value = [fr(0)] * n
            value[3 * b:3 * b + 3] = map(fr, consts)
            binary[(3 * b + i, 3 * b + j)] = tuple(value)
    a = ly.lya_from_lie(n, binary)
    t = [[fr(int(i % 3 == 1 and j == i + 1)) for j in range(n)] for i in range(n)]
    return ly.RelRBO.build(a, ly.adjoint_rep(a), ly.Matrix(t))


def assert_same_representation(got: ly.Representation, want: ly.Representation) -> None:
    """The same integer tables, q included, and so equal and equally hashed."""
    assert got.tables() == want.tables()
    assert got == want and hash(got) == hash(want)


def random_invertible(rng, n: int) -> ly.Matrix:
    while True:
        m = ly.Matrix([[fr(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        try:
            ly.inverse(m)
            return m
        except ValueError:
            continue


def conjugated_lie_lya(rng, family: str) -> ly.LYAlgebra:
    """A Lie-Yamaguti algebra obtained by transporting a classical Lie
    bracket through a random change of basis and lifting via
    <x,y,z> = [[x,y],z]."""
    dim, consts = LIE_FAMILIES[family]
    base = ly.LYAlgebra(dim, binary={k: tuple(fr(c) for c in v)
                                     for k, v in consts.items()})
    p = random_invertible(rng, dim)
    pinv = ly.inverse(p)
    binary = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            val = pinv.apply(base.bracket(p.column(i), p.column(j)))
            if not ly.is_zero_vector(val):
                binary[(i, j)] = val
    return ly.lya_from_lie(dim, binary)


def random_valid_pair(rng) -> Tuple[ly.LYAlgebra, ly.Representation]:
    """(algebra, representation) with the representation valid by
    construction: either adjoint or the trivial action."""
    family = rng.choice(sorted(LIE_FAMILIES))
    a = conjugated_lie_lya(rng, family)
    kind = rng.choice(("adjoint", "zero1", "zero2"))
    if kind == "adjoint":
        return a, ly.adjoint_rep(a)
    return a, ly.zero_rep(a, 1 if kind == "zero1" else 2)


def corrupt_rep(rng, r: ly.Representation) -> ly.Representation:
    """Bump one random entry of one rho or mu matrix by 1."""
    a, v = r.algebra, r.dim_v
    rho = [r.rho(i) for i in range(a.dim)]
    mu = [[r.mu(i, j) for j in range(a.dim)] for i in range(a.dim)]

    def bump(m: ly.Matrix) -> ly.Matrix:
        entries = [list(row) for row in m.entries]
        entries[rng.randrange(v)][rng.randrange(v)] += 1
        return ly.Matrix(entries, cols=v)

    if rng.random() < 0.5:
        i = rng.randrange(a.dim)
        rho[i] = bump(rho[i])
    else:
        i, j = rng.randrange(a.dim), rng.randrange(a.dim)
        mu[i][j] = bump(mu[i][j])
    return ly.Representation(a, v, rho, mu)


def transport(a: ly.LYAlgebra, r: ly.Representation, p: ly.Matrix, q: ly.Matrix):
    """The same algebra and representation in the bases given by the columns
    of p (on the algebra) and q (on the module)."""
    n, v = a.dim, r.dim_v
    pinv, qinv = ly.inverse(p), ly.inverse(q)
    pc = [p.column(i) for i in range(n)]
    binary = {(i, j): pinv.apply(a.bracket(pc[i], pc[j]))
              for i in range(n) for j in range(i + 1, n)}
    ternary = {(i, j, k): pinv.apply(a.triple(pc[i], pc[j], pc[k]))
               for i in range(n) for j in range(i + 1, n) for k in range(n)}
    b = ly.LYAlgebra(n, binary=binary, ternary=ternary)
    rho = [qinv @ r.rho_of(pc[i]) @ q for i in range(n)]
    mu = [[qinv @ r.mu_of(pc[i], pc[j]) @ q for j in range(n)] for i in range(n)]
    return b, ly.Representation(b, v, rho, mu)


def random_fraction(rng, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_matrix(rng, rows: int, cols: int, span: int = 6, den: int = 4) -> ly.Matrix:
    return ly.Matrix([[random_fraction(rng, span, den) for _ in range(cols)]
                      for _ in range(rows)])
