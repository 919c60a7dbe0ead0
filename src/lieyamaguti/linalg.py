"""Exact linear algebra over the rationals.

Every verdict this package produces (axiom checks, cohomology dimensions,
solvability of extension equations) reduces to ranks, kernels and linear
solves, so all scalars are `fractions.Fraction` and nothing here rounds.

Matrices act on column vectors: ``apply(x)[r] == sum_c entries[r][c] * x[c]``.
Vectors are plain tuples of Fraction.

`rank_kernel`, `solve_linear` and `inverse` share one elimination, `_rref`:
rows are held as ``{column: Fraction}`` dicts of their nonzero entries and
enter one at a time. Each is reduced against the pivot rows found so far,
which are kept fully reduced, so only the pivot columns the row itself holds
need work; a row that vanishes is dropped, otherwise its first column
becomes a new pivot and is cleared from the other pivot rows. Zeros are never
touched, which matters for the coboundary matrices: tall, sparse, and of low
rank. The reduced row echelon form of a matrix is unique, so every output
(the rank, the free-column kernel basis, the solution with free variables
set to zero, the inverse) does not depend on the order of elimination.
"""

from __future__ import annotations

from fractions import Fraction
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
        return cls([[rat(columns[j][i]) for j in range(len(columns))] for i in range(nrows)],
                   cols=len(columns))

    @classmethod
    def from_function(cls, rows: int, cols: int, entry) -> "Matrix":
        return cls([[entry(i, j) for j in range(cols)] for i in range(rows)], cols=cols)

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

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)], cols=self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)], cols=self.cols)

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in r] for r in self.entries], cols=self.cols)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix([[c * a for a in r] for r in self.entries], cols=self.cols)

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], cols=self.rows)

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


def _subtract(target: SparseRow, f: Fraction, row: SparseRow) -> None:
    """target -= f * row, keeping only nonzero entries."""
    for c, x in row.items():
        y = target.get(c, 0) - f * x
        if y:
            target[c] = y
        else:
            del target[c]


def _rref(rows: Iterable[Sequence[Fraction]], ncols: int) -> Dict[int, SparseRow]:
    """Reduced row echelon form of `rows`, built one row at a time.

    Only columns below `ncols` may hold pivots (rows may be longer, e.g.
    augmented). Returns {pivot column: reduced row}, where each row keeps
    only its nonzero entries outside the pivot columns: its pivot entry is
    an implicit 1 and every other pivot column is 0 in it. Rows that hold no
    pivot are dropped.
    """
    basis: Dict[int, SparseRow] = {}
    for dense in rows:
        row = {c: x for c, x in enumerate(dense) if x}
        # the basis is fully reduced, so one pass over the pivot columns this
        # row holds clears them all without bringing in any other
        for pc in [c for c in row if c in basis]:
            _subtract(row, row.pop(pc), basis[pc])
        pc = min((c for c in row if c < ncols), default=None)
        if pc is None:
            continue
        inv = 1 / row.pop(pc)
        row = {c: x * inv for c, x in row.items()}
        for other in basis.values():
            if pc in other:
                _subtract(other, other.pop(pc), row)
        basis[pc] = row
    return basis


def rank_kernel(m: Matrix) -> Tuple[int, List[Vector]]:
    """Rank and a kernel basis.

    The kernel basis is the standard free-column basis of the RREF: one
    vector per non-pivot column, with a 1 in that column. Deterministic for
    a given matrix.
    """
    basis = _rref(m.entries, m.cols)
    free = {fc: [Fraction(0)] * m.cols for fc in range(m.cols) if fc not in basis}
    for pc, row in basis.items():
        for fc, x in row.items():
            free[fc][pc] = -x
    for fc, v in free.items():
        v[fc] = Fraction(1)
    return len(basis), [tuple(v) for v in free.values()]


def solve_linear(a: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of a x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} does not match {a.rows} rows")
    basis = _rref((r + (rat(x),) for r, x in zip(a.entries, b)), a.cols + 1)
    if a.cols in basis:
        return None
    x = [Fraction(0)] * a.cols
    for pc, row in basis.items():
        x[pc] = row.get(a.cols, Fraction(0))
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse. Raises ValueError on non-square or singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = (r + tuple(Fraction(int(i == j)) for j in range(n)) for i, r in enumerate(m.entries))
    basis = _rref(aug, n)
    if len(basis) < n:
        raise ValueError("matrix is singular")
    # the left half reduces to the identity, so the right half is the inverse
    return Matrix([[basis[i].get(n + j, Fraction(0)) for j in range(n)] for i in range(n)],
                  cols=n)
