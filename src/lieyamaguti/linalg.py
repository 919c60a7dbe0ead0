"""Exact linear algebra over the rationals.

Every verdict this package produces (axiom checks, cohomology dimensions,
solvability of extension equations) reduces to ranks, kernels and linear
solves, so all scalars are `fractions.Fraction` and nothing here rounds.
Matrices act on column vectors: ``apply(x)[r] == sum_c entries[r][c] * x[c]``;
vectors are plain tuples of Fraction.

`rank_kernel`, `solve_linear` and `inverse` scale each row to integers by
the LCM of its denominators (`_int_rows`), which keeps the reduced row
echelon form, and share one elimination, `_rref`, of sparse integer rows
``{column: nonzero value}``, as do callers that hand their own integer rows
to `_rref` or `_solve`. Rows enter one at a time, reduced against the fully
reduced pivot rows found so far; zeros are never touched, which matters for
the tall, sparse, low-rank coboundary matrices.

The elimination runs modulo a prime (`_rref_mod`), so no entry grows beyond
61 bits. The first pass, modulo P = 2**61 - 1, skips each row whose weighted
sum is 0: a free column weighs a fixed pseudo-random integer, and a pivot
column pc weighs -sum_f weight[f] * basis[pc][f] over the free columns f, so
the weights combine the free-column kernel vectors. A row in the span sums
to 0; an independent row does so with probability about 1/P. Each entry is
lifted to the n/d with |n|, d <= isqrt(M // 2) that it represents modulo
M = P (rational reconstruction), and the lift is certified over Q: every
row, skipped or not, has a zero integer dot product with every free-column
kernel vector of the lifted form, scaled to integers; packed into one
integer per column, those are one sum per row (`_certified`). Should a lift
or the certificate fail, passes follow modulo the primes below P (`_primes`),
skipping rows while each keeps the rows the first kept and no certificate
has failed, and then taking all rows: as the weights are fixed integers, a
row that they miss over Q is skipped modulo every prime. `_rref` keeps the
passes of the best pivot profile (more pivots, then lexicographically
smaller columns), restarting at a better one, and combines them by the
Chinese remainder theorem modulo M, the product of their primes, to lift.

A certified result is exact: a pass finds at most the rank over Q of its
rows, and the certificate shows as many independent rational kernel vectors
as the lifted form has free columns, so the ranks agree. The lifted rows
keep the zeros of a reduced row echelon form and annihilate the kernel, so
span the row space, and that form is unique: every output (rank, kernel
basis, solution with free variables zero, inverse) is the rational one.

The passes end. Let the rows A have rank r and pivot columns c_1 < ... < c_r
over Q, and D != 0 the minor of r independent rows on those columns. (a)
Modulo p the first c columns of any rows of A have at most their rank over
Q, so no pass beats A's profile. (b) A pass over rows S of A that reaches it
gives the RREF over Q modulo p: some r rows of S have a minor on c_1..c_r
that is a unit modulo p, and the RREF is its inverse times them. (c) A pass
over A reaches it unless p divides D, by (a) and as D's columns c_1..c_i
keep rank i. (d) By Cramer's rule the RREF's entries are ratios of minors of
at most r rows, at most the product H of the r largest row norms (Hadamard)
in numerator and denominator, and the lift returns them once M > 2 H**2 (M
is odd, so isqrt(M // 2) >= H). All skipping passes but the last reduce the
rows K the first kept, so by (a)-(d) for K the skipping ends at the latest
when K's RREF lifts exactly. Over all rows, the first pass modulo a prime
not dividing D then has A's profile, so from then on every kept pass has it
and by (b) reduces the true RREF, and the certificate passes once their
primes' product exceeds 2 H**2. Each prime exceeds 2**60, so with L = log2(H) there are at
most (3L + 1)/30 + 3 passes. Rows of n entries of b bits have
L <= r (b + log2(n) / 2), and the more than 10**16 primes between 2**60 and
P are more passes than any input that fits in memory can need.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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
            if any(len(r) != ncols for r in rows):
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

    def __reduce__(self):
        return type(self), (self.entries, self.cols)

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
            if any(len(c) != nrows for c in columns):
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
        return tuple(sum((a * x for a, x in zip(row, v) if a and x), Fraction(0))
                     for row in self.entries)

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

P = 2**61 - 1  # the first pass runs modulo this Mersenne prime


def _primes() -> Iterator[int]:
    """P, then the smaller primes above 37, descending: the strong probable
    primes to each base 2..37, exact below 3.1 * 10**23 (Sorenson, Webster)."""
    yield P  # a Mersenne prime
    for n in range(P - 2, 38, -2):
        s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
        if all((x := pow(a, n - 1 >> s, n)) == 1
               or n - 1 in accumulate(range(s - 1), lambda y, _: y * y % n, initial=x)
               for a in range(2, 38)):
            yield n


class _Weights(dict):
    """`_rref_mod`'s column weights; a column starts free, at splitmix64 of c."""

    def __missing__(self, c: int) -> int:
        z = (c + 1) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
        self[c] = w = (z ^ z >> 27) * 0x94D049BB133111EB % P
        return w


def _rref_mod(rows: Iterable[IntRow], p: int,
              kept: Optional[List[IntRow]] = None) -> Dict[int, Dict[int, int]]:
    """The RREF of `rows` modulo the prime p, entries in range(1, p); given a
    list `kept`, it skips each row whose weighted sum is 0 and keeps the rest."""
    basis: Dict[int, Dict[int, int]] = {}
    weight = _Weights()  # fixed integers, whatever p is
    for row in sorted(rows, key=len):  # short rows first keep pivot rows sparse
        if kept is not None:
            if not sum(map(mul, row.values(), map(weight.__getitem__, row))) % p:
                continue
            kept.append(row)
        row = dict(row)
        for pc in [c for c in row if c in basis]:
            f = row.pop(pc) % p
            if f:
                for c, x in basis[pc].items():
                    row[c] = row.get(c, 0) - f * x
        # reduced mod p once, after all subtractions
        row = {c: y for c, x in row.items() if (y := x % p)}
        if not row:
            continue
        pc = min(row)
        inv = pow(row.pop(pc), -1, p)
        row = {c: x * inv % p for c, x in row.items()}
        kappa = -sum(map(mul, row.values(), map(weight.__getitem__, row))) % p
        shift = weight[pc] - kappa  # a row losing b at pc gains b * shift in weight
        for opc, other in basis.items():
            f = other.pop(pc, 0) % p
            if f:
                weight[opc] = (weight[opc] + f * shift) % p
                for c, x in row.items():
                    other[c] = other.get(c, 0) - f * x
        weight[pc] = kappa
        basis[pc] = row
    # back-elimination left entries below rank * p**2, and zeros, in the pivot rows
    return {pc: {c: y for c, x in row.items() if (y := x % p)} for pc, row in basis.items()}


def _lift(residues: Dict[int, Dict[int, int]], m: int) -> Optional[Rref]:
    """Each residue u as the n/d with |n|, d <= isqrt(m // 2) and n = u d mod m,
    or None if one has none: the extended Euclidean algorithm on (m, u),
    stopped at the first remainder within the bound (Wang)."""
    bound, lifted = isqrt(m // 2), {}
    for pc, row in residues.items():
        lifted[pc] = out = {}
        for c, u in row.items():
            r0, r1, t0, t1 = m, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                t0, t1 = t1, t0 - q * t1
            if abs(t1) > bound or gcd(r1, t1) != 1:
                return None
            out[c] = Fraction(r1, t1)
    return lifted


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
    """The RREF of the integer rows `ints`, as {pivot column: the nonzero
    entries of its row outside the pivot columns}, as the module docstring
    explains; empty rows hold no pivot and constrain no kernel vector."""
    ints = [row for row in ints if row]
    best, skip = None, True
    for p in _primes():
        kept = [] if skip else None
        modular = _rref_mod(ints, p, kept)
        first = kept if best is None else first
        skip = kept == first  # until a pass keeps other rows than the first
        profile = (-len(modular), sorted(modular))  # more pivots, then earlier ones
        if best is None or profile < best:
            best, residues, m = profile, modular, p  # any passes before were unlucky
        elif profile == best:
            inv = pow(m, -1, p)
            for pc, row in residues.items():
                for c in row.keys() | modular[pc].keys():
                    u = row.get(c, 0)
                    row[c] = u + m * ((modular[pc].get(c, 0) - u) * inv % p)
            m *= p
        else:
            continue  # an unlucky prime
        if (lifted := _lift(residues, m)) is not None:
            if _certified(ints, lifted):
                return lifted
            skip = False


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
