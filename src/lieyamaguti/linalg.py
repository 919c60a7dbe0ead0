"""Exact linear algebra over the rationals.

Every verdict this package produces (axiom checks, cohomology dimensions,
solvability of extension equations) reduces to ranks, kernels and linear
solves, so all scalars are `fractions.Fraction` and nothing here rounds.

Matrices act on column vectors: ``apply(x)[r] == sum_c entries[r][c] * x[c]``.
Vectors are plain tuples of Fraction.

`rank_kernel`, `solve_linear` and `inverse` scale each row of their matrix
to integers by the LCM of its denominators (`_int_rows`), which keeps its
reduced row echelon form, and share one elimination, `_rref`, of sparse
integer rows ``{column: nonzero value}``; callers that need only a rank or
one solution hand their own integer rows to `_rref` or `_solve`, and no
dense matrix is built. Rows enter one at a time, each reduced against the
pivot rows found so far, which are kept fully reduced; a row that vanishes
is dropped, otherwise its first column becomes a new pivot and is cleared
from the other pivot rows. Zeros are never touched, which matters for the
tall, sparse, low-rank coboundary matrices.

The elimination runs modulo the prime P = 2**61 - 1 (`_rref_mod`), so no
entry grows beyond 61 bits. A row is first tested with one weighted sum: a
free column weighs a fixed pseudo-random residue, and a pivot column pc
weighs -sum_f weight[f] * basis[pc][f] over the free columns f, so the
weights form a combination of the free-column kernel vectors. A row in the
span sums to 0 and is skipped unreduced; an independent row sums to 0 with
probability about 1/P, and is then skipped too. Every entry of the result is
lifted to the rational n/d with |n|, d <= isqrt(P // 2) that it represents
(rational reconstruction), and the lift is certified over Q: every input
row, skipped or not, must have a zero integer dot product with every
free-column kernel vector of the lifted form, scaled to integers. Packed
into one integer per column, in slots too wide to carry into each other,
those products are one integer sum per row (`_certified`). If a lift fails
or a product is nonzero, the same elimination runs in exact `Fraction`
arithmetic (`_rref_exact`); that is also the only path for inputs whose
reduced entries exceed the bound.

Why a certified result is exact, whatever rows were skipped: the rank
modulo P of any subset of the rows of an integer matrix is at most its rank
over Q, and the certificate exhibits as many independent rational kernel
vectors as the modular form has free columns, so the ranks agree. A lift
keeps zeros and nonzeros where they are, so the lifted rows are in reduced
row echelon form; they annihilate the whole kernel, so they span the row
space, and the reduced row echelon form of a matrix is unique. Every output
(the rank, the free-column kernel basis, the solution with free variables
set to zero, the inverse) is therefore exactly the rational one, whichever
path computed it and in whatever order the rows were eliminated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Rational = Fraction
Vector = Tuple[Fraction, ...]

__all__ = [
    "Rational",
    "Vector",
    "rat",
    "rat_str",
    "vector",
    "vzero",
    "vadd",
    "vsub",
    "vneg",
    "vscale",
    "is_zero_vector",
    "Matrix",
    "commutator",
    "rank_kernel",
    "solve_linear",
    "inverse",
]


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) or isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def rat_str(value) -> str:
    """Render a rational as "p" or "p/q" in lowest terms."""
    return str(rat(value))


def vector(values: Iterable) -> Vector:
    return tuple(rat(x) for x in values)


def vzero(n: int) -> Vector:
    return (Fraction(0),) * n


def vadd(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"vector length mismatch: {len(u)} vs {len(v)}")
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vscale(c, u: Vector) -> Vector:
    c = rat(c)
    return tuple(c * a for a in u)


def is_zero_vector(u: Vector) -> bool:
    return all(a == 0 for a in u)


class Matrix:
    """Immutable rational matrix.

    Degenerate shapes (0 rows or 0 columns) are legal; cochain spaces can
    be 0-dimensional, so the column count must be supplied explicitly when
    it cannot be inferred from a first row.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries: Iterable[Iterable], cols: Optional[int] = None):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if rows:
            ncols = len(rows[0])
            for r in rows:
                if len(r) != ncols:
                    raise ValueError("ragged matrix rows")
            if cols is not None and cols != ncols:
                raise ValueError(f"cols={cols} disagrees with row length {ncols}")
        else:
            if cols is None:
                raise ValueError("a 0-row matrix needs an explicit column count")
            ncols = cols
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: Optional[int] = None) -> "Matrix":
        if columns:
            nrows = len(columns[0])
            if rows is not None and rows != nrows:
                raise ValueError(f"rows={rows} disagrees with column length {nrows}")
            for c in columns:
                if len(c) != nrows:
                    raise ValueError("ragged matrix columns")
        else:
            if rows is None:
                raise ValueError("a 0-column matrix needs an explicit row count")
            nrows = rows
        return cls([[col[i] for col in columns] for i in range(nrows)], cols=len(columns))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> List[Vector]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError(f"cannot apply {self.rows}x{self.cols} matrix to length-{len(v)} vector")
        out = []
        for row in self.entries:
            s = Fraction(0)
            for a, x in zip(row, v):
                if a and x:
                    s += a * x
            out.append(s)
        return tuple(out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            acc = [Fraction(0)] * other.cols
            for k, a in enumerate(row):
                if not a:
                    continue
                orow = other.entries[k]
                for j, b in enumerate(orow):
                    if b:
                        acc[j] += a * b
            out.append(acc)
        return Matrix(out, cols=other.cols)

    def _entrywise(self, other, op, name: str) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in matrix {name}")
        return Matrix([list(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)],
                      cols=self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, add, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, sub, "subtraction")

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.entries], cols=self.cols)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix([[c * a for a in r] for r in self.entries], cols=self.cols)

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(a) for a in r) + "]" for r in self.entries)
        return f"Matrix({self.rows}x{self.cols}, [{body}])"


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return (a @ b) - (b @ a)


SparseRow = Dict[int, Fraction]
Rref = Dict[int, SparseRow]  # {pivot column: the rest of its reduced row}
IntRow = Dict[int, int]  # nonzero entries only

# The elimination runs modulo this Mersenne prime. A lift recovers n/d only
# when |n| and d are at most _BOUND, so that 2 * _BOUND**2 < P makes it
# unique (and larger entries go to the exact elimination).
P = 2**61 - 1
_BOUND = isqrt(P // 2)


def _subtract(target: SparseRow, f: Fraction, row: SparseRow) -> None:
    """target -= f * row, keeping only nonzero entries."""
    for c, x in row.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = y
        else:
            del target[c]


def _rref_exact(rows: Iterable[IntRow]) -> Rref:
    """Reduced row echelon form of sparse integer `rows` in `Fraction`
    arithmetic, built one row at a time.

    Returns {pivot column: reduced row}, where each row keeps only its
    nonzero entries outside the pivot columns: its pivot entry is an
    implicit 1 and every other pivot column is 0 in it. Rows that hold no
    pivot are dropped.
    """
    basis: Rref = {}
    for row in rows:
        row = dict(row)
        # the basis is fully reduced, so one pass over the pivot columns this
        # row holds clears them all without bringing in any other
        for pc in [c for c in row if c in basis]:
            _subtract(row, row.pop(pc), basis[pc])
        if not row:
            continue
        pc = min(row)
        inv = 1 / Fraction(row.pop(pc))
        row = {c: x * inv for c, x in row.items()}
        for other in basis.values():
            if pc in other:
                _subtract(other, other.pop(pc), row)
        basis[pc] = row
    return basis


class _Weights(dict):
    """`_rref_mod`'s column weights; a column starts free, at splitmix64 of c."""

    def __missing__(self, c: int) -> int:
        z = (c + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        self[c] = w = (z ^ z >> 27) * 0x94D049BB133111EB % P
        return w


def _rref_mod(rows: Iterable[IntRow]) -> Dict[int, Dict[int, int]]:
    """`_rref_exact` over the integers modulo P, with entries in range(1, P),
    skipping each row whose weighted sum is 0 (see the module docstring)."""
    basis: Dict[int, Dict[int, int]] = {}
    weight = _Weights()
    for row in sorted(rows, key=len):  # short rows first keep pivot rows sparse
        if not sum(map(mul, row.values(), map(weight.__getitem__, row))) % P:
            continue
        row = dict(row)
        for pc in [c for c in row if c in basis]:
            f = row.pop(pc) % P
            if f:
                for c, x in basis[pc].items():
                    row[c] = row.get(c, 0) - f * x
        # reduced mod P once, after all subtractions; a nonzero weighted sum leaves some
        row = {c: y for c, x in row.items() if (y := x % P)}
        pc = min(row)
        inv = pow(row.pop(pc), -1, P)
        row = {c: x * inv % P for c, x in row.items()}
        kappa = -sum(map(mul, row.values(), map(weight.__getitem__, row))) % P
        shift = weight[pc] - kappa  # a row losing b at pc gains b * shift in weight
        for opc, other in basis.items():
            f = other.pop(pc, 0) % P
            if f:
                weight[opc] = (weight[opc] + f * shift) % P
                for c, x in row.items():
                    other[c] = other.get(c, 0) - f * x
        weight[pc] = kappa
        basis[pc] = row
    # back-elimination left entries below rank * P**2, and zeros, in the pivot rows
    return {pc: {c: y for c, x in row.items() if (y := x % P)} for pc, row in basis.items()}


def _lift(u: int) -> Optional[Fraction]:
    """The n/d with |n|, d <= _BOUND and n = u d mod P, or None when there is
    none: the extended Euclidean algorithm on (P, u), stopped at the first
    remainder within the bound (Wang's rational reconstruction)."""
    r0, r1, t0, t1 = P, u, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _certified(rows: Sequence[IntRow], basis: Rref) -> bool:
    """Whether every integer row is orthogonal to every free-column kernel
    vector of `basis` (1 at free column f, -basis[pc][f] at each pivot column
    pc), each scaled to integers. A column packs its kernel entries into
    signed w-bit slots, one per f; 2**(w-1) exceeds a row's L1 norm times a
    bound on every entry, so a row's slot sums vanish iff its one sum does."""
    scale: Dict[int, int] = {}
    for row in basis.values():
        for f, x in row.items():
            scale[f] = lcm(scale.get(f, 1), x.denominator)
    top = max(scale.values(), default=0) * max(
        (abs(x.numerator) for row in basis.values() for x in row.values()), default=0)
    w = (top * max((sum(map(abs, row.values())) for row in rows), default=0)).bit_length() + 1
    slot = {f: w * i for i, f in enumerate(scale)}
    packed = {f: s << slot[f] for f, s in scale.items()}
    packed.update((pc, sum(-x.numerator * (scale[f] // x.denominator) << slot[f]
                           for f, x in row.items())) for pc, row in basis.items())
    try:
        for row in rows:
            if sum(map(mul, row.values(), map(packed.__getitem__, row))):
                return False
    except KeyError:  # a free column that no pivot row holds: its kernel vector fails
        return False
    return True


def _int_rows(rows: Iterable[Sequence[Fraction]]) -> List[IntRow]:
    """The nonzero entries of each rational row, scaled to integers by the
    LCM of their denominators."""
    ints = []
    for dense in rows:
        row = {c: x for c, x in enumerate(dense) if x}
        q = lcm(*(x.denominator for x in row.values()))
        ints.append({c: x.numerator * (q // x.denominator) for c, x in row.items()})
    return ints


def _rref(ints: Sequence[IntRow]) -> Rref:
    """Reduced row echelon form of the integer rows `ints`, in the format of
    `_rref_exact`: reduced modulo P and lifted, or, when `_certified` cannot
    prove the lift exact, computed by `_rref_exact`. Empty rows hold no pivot
    and constrain no kernel vector, so they are dropped first."""
    ints = [row for row in ints if row]
    lifted: Rref = {}
    for pc, row in _rref_mod(ints).items():
        lifted[pc] = out = {}
        for c, u in row.items():
            x = _lift(u)
            if x is None:
                return _rref_exact(ints)
            out[c] = x
    if not _certified(ints, lifted):
        return _rref_exact(ints)
    return lifted


def rank_kernel(m: Matrix) -> Tuple[int, List[Vector]]:
    """Rank and a kernel basis.

    The kernel basis is the standard free-column basis of the RREF: one
    vector per non-pivot column, with a 1 in that column. Deterministic for
    a given matrix.
    """
    basis = _rref(_int_rows(m.entries))
    return len(basis), _kernel(basis, m.cols)


def _kernel(basis: Rref, ncols: int) -> List[Vector]:
    """The free-column kernel basis of the RREF `basis` over `ncols` columns."""
    free = {fc: [Fraction(0)] * ncols for fc in range(ncols) if fc not in basis}
    for pc, row in basis.items():
        for fc, x in row.items():
            free[fc][pc] = -x
    for fc, v in free.items():
        v[fc] = Fraction(1)
    return [tuple(v) for v in free.values()]


def solve_linear(a: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of a x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} does not match {a.rows} rows")
    return _solve(_int_rows(r + (rat(x),) for r, x in zip(a.entries, b)), a.cols)


def _solve(ints: Sequence[IntRow], ncols: int) -> Optional[Vector]:
    """`solve_linear` on integer rows of [a | b], b in column `ncols`; scaling
    a row by any nonzero factor leaves the RREF, so the solution, unchanged."""
    basis = _rref(ints)
    if ncols in basis:
        return None
    x = [Fraction(0)] * ncols
    for pc, row in basis.items():
        x[pc] = row.get(ncols, Fraction(0))
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse. Raises ValueError on non-square or singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = (r + tuple(Fraction(int(i == j)) for j in range(n)) for i, r in enumerate(m.entries))
    basis = _rref(_int_rows(aug))
    # [m | I] has rank n; its pivots are exactly 0..n-1 iff m is invertible,
    # and then the left half reduces to the identity and the right half to
    # the inverse
    if any(i not in basis for i in range(n)):
        raise ValueError("matrix is singular")
    return Matrix([[basis[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)],
                  cols=n)
