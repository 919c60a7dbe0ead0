"""The cochain-level Yamaguti coboundary, evaluated term by term on cochains.

This is an independent reference for `lieyamaguti.coboundary` and
`lieyamaguti.coboundary_matrix`, which both read the rows of one sparse
assembler: here every term of delta_I and delta_II is evaluated directly on
the value vectors through the multilinear `_eval_f`/`_eval_g`, and the matrix
is built column by column from unit cochains. Slow (dim 4 degree 2 takes
seconds), so only the tests use it.

`coboundary` is the package's map as it was before it applied the integer
rows in integers, kept verbatim: it divides every entry of every row by Q as
a `Fraction`. The package's `coboundary` must return the same cochains and
raise the same errors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from lieyamaguti import Cochain, ComplexContext, Matrix, cochain_dim
from lieyamaguti.complexes import _coboundary_rows
from lieyamaguti.linalg import Vector, vadd, vscale, vsub, vzero

Sparse = List[Tuple[int, Fraction]]  # (index, coefficient) pairs, coefficient != 0


def _flat_windex(ctx: ComplexContext, idx: Sequence[int]) -> int:
    out = 0
    for t in idx:
        out = out * ctx.w + t
    return out


def _lookup_f(ctx: ComplexContext, c: Cochain, idx: Sequence[int]) -> Vector:
    return c.f_part[_flat_windex(ctx, idx)]


def _lookup_g(ctx: ComplexContext, c: Cochain, idx: Sequence[int], z: int) -> Vector:
    return c.g_part[_flat_windex(ctx, idx) * ctx.m + z]


def _eval_f(ctx: ComplexContext, c: Cochain, slots: Sequence[Sparse]) -> Vector:
    """Multilinear evaluation of the f-component on sparse wedge arguments."""
    total = [Fraction(0)] * ctx.v

    def rec(k: int, coeff: Fraction, flat: int) -> None:
        if k == len(slots):
            val = c.f_part[flat]
            for i, x in enumerate(val):
                if x:
                    total[i] += coeff * x
            return
        for widx, co in slots[k]:
            rec(k + 1, coeff * co, flat * ctx.w + widx)

    rec(0, Fraction(1), 0)
    return tuple(total)


def _eval_g(ctx: ComplexContext, c: Cochain, slots: Sequence[Sparse], zslot: Sparse) -> Vector:
    total = [Fraction(0)] * ctx.v

    def rec(k: int, coeff: Fraction, flat: int) -> None:
        if k == len(slots):
            base = flat * ctx.m
            for z, cz in zslot:
                val = c.g_part[base + z]
                cc = coeff * cz
                for i, x in enumerate(val):
                    if x:
                        total[i] += cc * x
            return
        for widx, co in slots[k]:
            rec(k + 1, coeff * co, flat * ctx.w + widx)

    rec(0, Fraction(1), 0)
    return tuple(total)


def _sparse_vec(vec: Vector) -> Sparse:
    return [(i, c) for i, c in enumerate(vec) if c]


def _sparse_unit(idx: int) -> Sparse:
    return [(idx, Fraction(1))]


def _wedge_decompose(ctx: ComplexContext, u: Vector, v: Vector) -> Dict[int, Fraction]:
    """Coefficients of u ^ v over the wedge basis: coeff(i,j) = u_i v_j - u_j v_i."""
    out: Dict[int, Fraction] = {}
    for idx, (i, j) in enumerate(ctx.wedge):
        c = u[i] * v[j] - u[j] * v[i]
        if c:
            out[idx] = c
    return out


def _compose_wedges(ctx: ComplexContext, wk: int, wl: int) -> Sparse:
    """The composed wedge argument <x_k,y_k,x_l> ^ y_l + x_l ^ <x_k,y_k,y_l>,
    expanded over the wedge basis."""
    a = ctx.algebra
    xk, yk = ctx.wedge[wk]
    xl, yl = ctx.wedge[wl]
    acc: Dict[int, Fraction] = {}
    for idx, c in _wedge_decompose(ctx, a.triple_basis(xk, yk, xl), a.basis(yl)).items():
        acc[idx] = acc.get(idx, Fraction(0)) + c
    for idx, c in _wedge_decompose(ctx, a.basis(xl), a.triple_basis(xk, yk, yl)).items():
        acc[idx] = acc.get(idx, Fraction(0)) + c
    return [(idx, c) for idx, c in sorted(acc.items()) if c]


def _coboundary_degree1(ctx: ComplexContext, c: Cochain) -> Cochain:
    a, r = ctx.algebra, ctx.rep

    def f_of(vec: Vector) -> Vector:
        out = vzero(ctx.v)
        for i, co in enumerate(vec):
            if co:
                out = vadd(out, vscale(co, c.f_part[i]))
        return out

    f_out: List[Vector] = []
    g_out: List[Vector] = []
    for (i, j) in ctx.wedge:
        val = r.rho(i).apply(c.f_part[j])
        val = vsub(val, r.rho(j).apply(c.f_part[i]))
        val = vsub(val, f_of(a.bracket_basis(i, j)))
        f_out.append(val)
    for (i, j) in ctx.wedge:
        for z in range(ctx.m):
            val = r.d_basis(i, j).apply(c.f_part[z])
            val = vadd(val, r.mu(j, z).apply(c.f_part[i]))
            val = vsub(val, r.mu(i, z).apply(c.f_part[j]))
            val = vsub(val, f_of(a.triple_basis(i, j, z)))
            g_out.append(val)
    return Cochain(2, tuple(f_out), tuple(g_out))


def _coboundary_general(ctx: ComplexContext, c: Cochain) -> Cochain:
    a, r = ctx.algebra, ctx.rep
    n = c.degree - 1  # number of wedge slots of the input
    assert n >= 1
    w = ctx.w
    sign_n = Fraction(-1) ** n

    def unit(widx: int) -> Sparse:
        return [(widx, Fraction(1))]

    f_out: List[Vector] = []
    g_out: List[Vector] = []

    for ws in itertools.product(range(w), repeat=n + 1):
        pairs = [ctx.wedge[t] for t in ws]
        xe, ye = pairs[-1]
        head = ws[:n]

        # (-1)^n ( rho(x_{n+1}) g(..., y_{n+1}) - rho(y_{n+1}) g(..., x_{n+1})
        #          - g(..., [x_{n+1}, y_{n+1}]) )
        val = r.rho(xe).apply(_lookup_g(ctx, c, head, ye))
        val = vsub(val, r.rho(ye).apply(_lookup_g(ctx, c, head, xe)))
        br = a.bracket_basis(xe, ye)
        for zc, co in enumerate(br):
            if co:
                val = vsub(val, vscale(co, _lookup_g(ctx, c, head, zc)))
        val = vscale(sign_n, val)

        # sum_{k=1}^{n} (-1)^{k+1} D(x_k,y_k) f(... hat k ...)
        for k0 in range(n):
            rest = ws[:k0] + ws[k0 + 1:]
            term = r.d_basis(*pairs[k0]).apply(_lookup_f(ctx, c, rest))
            val = vadd(val, vscale(Fraction(-1) ** k0, term))

        # sum_{k<l} (-1)^k f(... hat k ..., composed at l, ...)
        for k0 in range(n + 1):
            for l0 in range(k0 + 1, n + 1):
                comp = _compose_wedges(ctx, ws[k0], ws[l0])
                slots: List[Sparse] = []
                for pos in range(n + 1):
                    if pos == k0:
                        continue
                    slots.append(comp if pos == l0 else unit(ws[pos]))
                term = _eval_f(ctx, c, slots)
                val = vadd(val, vscale(-(Fraction(-1) ** k0), term))

        f_out.append(val)

    for ws in itertools.product(range(w), repeat=n + 1):
        pairs = [ctx.wedge[t] for t in ws]
        xe, ye = pairs[-1]
        head = ws[:n]
        for z in range(ctx.m):
            # (-1)^n ( mu(y_{n+1}, z) g(..., x_{n+1}) - mu(x_{n+1}, z) g(..., y_{n+1}) )
            val = r.mu(ye, z).apply(_lookup_g(ctx, c, head, xe))
            val = vsub(val, r.mu(xe, z).apply(_lookup_g(ctx, c, head, ye)))
            val = vscale(sign_n, val)

            # sum_{k=1}^{n+1} (-1)^{k+1} D(x_k,y_k) g(... hat k ..., z)
            for k0 in range(n + 1):
                rest = ws[:k0] + ws[k0 + 1:]
                term = r.d_basis(*pairs[k0]).apply(_lookup_g(ctx, c, rest, z))
                val = vadd(val, vscale(Fraction(-1) ** k0, term))

            # sum_{k<l} (-1)^k g(... hat k ..., composed at l, ..., z)
            for k0 in range(n + 1):
                for l0 in range(k0 + 1, n + 1):
                    comp = _compose_wedges(ctx, ws[k0], ws[l0])
                    slots = []
                    for pos in range(n + 1):
                        if pos == k0:
                            continue
                        slots.append(comp if pos == l0 else unit(ws[pos]))
                    term = _eval_g(ctx, c, slots, _sparse_unit(z))
                    val = vadd(val, vscale(-(Fraction(-1) ** k0), term))

            # sum_{k=1}^{n+1} (-1)^k g(... hat k ..., <x_k, y_k, z>)
            for k0 in range(n + 1):
                rest = ws[:k0] + ws[k0 + 1:]
                tz = _sparse_vec(a.triple_basis(pairs[k0][0], pairs[k0][1], z))
                if tz:
                    term = _eval_g(ctx, c, [unit(t) for t in rest], tz)
                    val = vadd(val, vscale(-(Fraction(-1) ** k0), term))

            g_out.append(val)

    return Cochain(c.degree + 1, tuple(f_out), tuple(g_out))


def reference_coboundary(ctx: ComplexContext, c: Cochain) -> Cochain:
    if c.degree == 1:
        return _coboundary_degree1(ctx, c)
    return _coboundary_general(ctx, c)


def reference_coboundary_matrix(ctx: ComplexContext, p: int) -> Matrix:
    dim_in = cochain_dim(ctx, p)
    dim_out = cochain_dim(ctx, p + 1)
    cols: List[Vector] = []
    unit = [Fraction(0)] * dim_in
    for idx in range(dim_in):
        unit[idx] = Fraction(1)
        cols.append(reference_coboundary(ctx, Cochain.from_flat(ctx, p, unit)).flatten())
        unit[idx] = Fraction(0)
    return Matrix.from_columns(cols, rows=dim_out)


def coboundary(ctx: ComplexContext, c: Cochain) -> Cochain:
    """Apply the differential, raising the degree by one."""
    p = c.degree
    if p < 1:
        raise ValueError("cochain degree must be at least 1")
    nf = ctx.m if p == 1 else ctx.w ** (p - 1)
    blocks = (len(c.f_part), None if c.g_part is None else len(c.g_part))
    if blocks != (nf, None if p == 1 else nf * ctx.m) \
            or any(len(val) != ctx.v for val in c.f_part + (c.g_part or ())):
        raise ValueError(f"malformed degree-{p} cochain")
    flat = c.flatten()
    qq, rows = _coboundary_rows(ctx, p)
    zero = Fraction(0)
    image = [sum((co * flat[k] for k, co in row.items()), zero) / qq for row in rows]
    return Cochain.from_flat(ctx, p + 1, image)
