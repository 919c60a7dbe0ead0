"""Dense Gauss-Jordan elimination over the rationals, the modular pass and
certificate `lieyamaguti.linalg` used before it skipped rows, and its
modular pass before it deferred the reduction of the back-elimination.

This is the elimination `lieyamaguti.linalg` used before it switched to a
sparse incremental reduction, kept verbatim as an independent reference:
every pivot sweeps all rows and every cell, zeros included. The reduced
row echelon form is unique, so `rank_kernel`, `solve_linear` and `inverse`
here must agree exactly with the package's. Slow on the larger coboundary
matrices, so only the tests use it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Tuple

from lieyamaguti.linalg import IntRow, Matrix, P, SparseRow, Vector, _Weights, rat


def _rref(rows: List[List[Fraction]], ncols: int) -> List[int]:
    """Reduce `rows` in place to reduced row echelon form, scanning pivots
    over the first `ncols` columns only (rows may be longer, e.g. augmented).
    Returns the pivot column indices in order."""
    pivots: List[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank_kernel(m: Matrix) -> Tuple[int, List[Vector]]:
    """Rank and a kernel basis.

    The kernel basis is the standard free-column basis of the RREF: one
    vector per non-pivot column, with a 1 in that column. Deterministic for
    a given matrix.
    """
    rows = [list(r) for r in m.entries]
    pivots = _rref(rows, m.cols)
    rank = len(pivots)
    pivot_set = set(pivots)
    kernel: List[Vector] = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        kernel.append(tuple(v))
    return rank, kernel


def solve_linear(a: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of a x = b, or None when the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if len(b) != a.rows:
        raise ValueError(f"rhs length {len(b)} does not match {a.rows} rows")
    aug = [list(r) + [rat(x)] for r, x in zip(a.entries, b)]
    pivots = _rref(aug, a.cols + 1)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][a.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    """Exact inverse. Raises ValueError on non-square or singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = [list(r) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, r in enumerate(m.entries)]
    pivots = _rref(aug, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    # RREF left half is the identity, so the right half is the inverse.
    return Matrix([row[n:] for row in aug], cols=n)


# The modular pass and the certificate of `lieyamaguti.linalg` before it
# skipped rows already in the span and packed the certificate into one
# integer per column, kept verbatim: the package must return the same RREF
# and the same verdicts.

def _rref_mod(rows: Iterable[IntRow]) -> Dict[int, Dict[int, int]]:
    """`_rref_exact` over the integers modulo P: the same incremental, fully
    reduced elimination, with entries in range(1, P)."""
    basis: Dict[int, Dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        for pc in [c for c in row if c in basis]:
            f = row.pop(pc) % P
            if f:
                for c, x in basis[pc].items():
                    row[c] = row.get(c, 0) - f * x
        # entries are reduced modulo P once, after all subtractions
        row = {c: y for c, x in row.items() if (y := x % P)}
        if not row:
            continue
        pc = min(row)
        inv = pow(row.pop(pc), -1, P)
        row = {c: x * inv % P for c, x in row.items()}
        for other in basis.values():
            f = other.pop(pc, 0)
            if f:
                for c, x in row.items():
                    y = (other.get(c, 0) - f * x) % P
                    if y:
                        other[c] = y
                    else:
                        del other[c]
        basis[pc] = row
    return basis


def _certified(rows: Iterable[IntRow], basis: Dict[int, SparseRow]) -> bool:
    """Whether every integer row is orthogonal to every free-column kernel
    vector of `basis`, each scaled to integers.

    Kernel vector f is 1 at free column f and -basis[pc][f] at each pivot
    column pc. Its products with a row are summed column by column, so a
    row touches only the kernel entries in its own support.
    """
    scale: Dict[int, int] = {}
    for row in basis.values():
        for f, x in row.items():
            scale[f] = lcm(scale.get(f, 1), x.denominator)
    # the (free column, integer kernel entry) pairs at each pivot column
    at_pivot = {pc: [(f, -x.numerator * (scale[f] // x.denominator)) for f, x in row.items()]
                for pc, row in basis.items()}
    for row in rows:
        acc: Dict[int, int] = {}
        for c, a in row.items():
            terms = at_pivot.get(c)
            if terms is None:   # free column c: only kernel vector c is nonzero there
                acc[c] = acc.get(c, 0) + a * scale.get(c, 1)
            else:
                for f, w in terms:
                    acc[f] = acc.get(f, 0) + a * w
        if any(acc.values()):
            return False
    return True


# The modular pass of `lieyamaguti.linalg` before its back-elimination left
# the pivot rows unreduced until it returned, kept verbatim (under its own
# name): it reduces every updated entry modulo P and deletes the zeros at
# once. The package must return the same modular form.

def _rref_mod_eager(rows: Iterable[IntRow]) -> Dict[int, Dict[int, int]]:
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
            f = other.pop(pc, 0)
            if f:
                weight[opc] = (weight[opc] + f * shift) % P
                for c, x in row.items():
                    y = (other.get(c, 0) - f * x) % P
                    if y:
                        other[c] = y
                    else:
                        del other[c]
        weight[pc] = kappa
        basis[pc] = row
    return basis
