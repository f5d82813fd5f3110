"""The three polynomial forms, and sigma, expanded by ring products.

The reference the closed-form builders of ``hughes_core`` are held to: every
product here goes through ``TriPoly`` multiplication over GF(Q), term by
term, with no use of Lucas' theorem on the tq powers.  ``tq_pow`` is the
reference of the batched expansion ``hughes_core._tq_pows``: the same
expansion by Lucas' theorem, one exponent at a time.
"""

import numpy as np

from hughesptr.hughes_core import _g_factor, _h_factor
from hughesptr.modcomb import binom_mod_lucas, central_binoms
from hughesptr.trivar_poly import TriPoly, variables


def _univariate(ctx, factor) -> TriPoly:
    exps, res = factor
    return TriPoly(ctx, {(n, 0, 0): ctx.from_int(c) for n, c in zip(exps.tolist(), res.tolist())})


def g_poly(ctx, i: int) -> TriPoly:
    """g_i(X) = (-4)^(-(i+1)) * sum_{j=0}^{i+1} C[j(q-1)+i] X^(j(q-1)+i+1) mod p."""
    return _univariate(ctx, _g_factor(ctx, i))


def h_poly(ctx, i: int) -> TriPoly:
    """h_i(X) = (-4)^(-(i+1)) * sum_{j=0}^{i} T'[i-j, j] X^(j(q-1)+i) mod p."""
    return _univariate(ctx, _h_factor(ctx, i, central_binoms(i + 1)))


def tq_poly(ctx, axis: int) -> TriPoly:
    """V^q - V in the chosen variable (axis 0 = X, 1 = Y, 2 = Z)."""
    hi = [0, 0, 0]
    lo = [0, 0, 0]
    hi[axis] = ctx.q
    lo[axis] = 1
    return TriPoly(ctx, {tuple(hi): ctx.one, tuple(lo): -ctx.one})


def tq_powers(ctx, axis: int, upto: int) -> list[TriPoly]:
    """[1, tq, tq^2, ..., tq^upto] in the chosen variable."""
    base = tq_poly(ctx, axis)
    out = [TriPoly.one(ctx)]
    for _ in range(upto):
        out.append(out[-1] * base)
    return out


def tq_pow(ctx, n: int):
    """tq(V)^n = sum_j (-1)^(n-j) binom(n, j) V^(qj + n - j) over GF(p), n >= 0,
    as a factor (exponents, residues).

    The j with binom(n, j) nonzero mod p are enumerated digit by digit (every
    base-p digit of j at most that of n), and their binomials come from one
    call of the Lucas kernel.
    """
    p = ctx.p
    js = np.zeros(1, dtype=np.int64)
    place, rest = 1, n
    while rest:
        js = (js[:, None] + place * np.arange(rest % p + 1)).ravel()
        place, rest = place * p, rest // p
    res = binom_mod_lucas(n, js, p)
    res = np.where((n - js) % 2, p - res, res)
    return ctx.q * js + n - js, res


def ring_M(ctx) -> TriPoly:
    """X*Y - (1/2) * (X^((Q+1)/2) - X) * (Y^q - Y)."""
    X, Y, _ = variables(ctx)
    t_half_x = TriPoly(ctx, {((ctx.Q + 1) // 2, 0, 0): ctx.one, (1, 0, 0): -ctx.one})
    return X * Y - (t_half_x * tq_poly(ctx, 1)).scale(ctx.half())


def ring_nonreduced_T(ctx) -> TriPoly:
    """M + Z - (1/2) * sum_m binom((Q+1)/2, m) X^m tq(Y)^m tq(Z)^(Q-m)."""
    Q, p = ctx.Q, ctx.p
    half_exp = (Q + 1) // 2
    tq_y = tq_powers(ctx, 1, (Q - 1) // 2)
    tq_z = tq_powers(ctx, 2, Q - 1)
    s = TriPoly.zero(ctx)
    for m in range(1, (Q - 1) // 2 + 1):
        b = binom_mod_lucas(half_exp, m, p)
        if b:
            s = s + TriPoly.monomial(ctx, ctx.from_int(b), (m, 0, 0)) * tq_y[m] * tq_z[Q - m]
    _, _, Z = variables(ctx)
    return ring_M(ctx) + Z - s.scale(ctx.half())


def ring_reduced_T(ctx) -> TriPoly:
    """M + Z - sum_i g_i(X) tq(Y)^(i+1) tq(Z)^(q-1-i)."""
    q = ctx.q
    tq_y = tq_powers(ctx, 1, q - 1)
    tq_z = tq_powers(ctx, 2, q - 1)
    s = TriPoly.zero(ctx)
    for i in range(q - 1):
        s = s + g_poly(ctx, i) * tq_y[i + 1] * tq_z[q - 1 - i]
    _, _, Z = variables(ctx)
    return ring_M(ctx) + Z - s


def ring_T2(ctx) -> TriPoly:
    """M + Z + tq(X) tq(Y) tq(Z) * sum_i h_i(X) tq(Y)^i tq(Z)^(q-2-i)."""
    q = ctx.q
    tq_y = tq_powers(ctx, 1, q - 1)
    tq_z = tq_powers(ctx, 2, q - 1)
    s = TriPoly.zero(ctx)
    for i in range(q - 1):
        s = s + h_poly(ctx, i) * tq_y[i] * tq_z[q - 2 - i]
    _, _, Z = variables(ctx)
    prefactor = tq_poly(ctx, 0) * tq_poly(ctx, 1) * tq_poly(ctx, 2)
    return ring_M(ctx) + Z + prefactor * s


def ring_sigma(ctx) -> TriPoly:
    """tq(Y)^(Q-1) * (X^((Q+1)/2) + sum_m binom((Q+1)/2, m) X^m tq(Y)^(m-1) tq(Z)^(Q-m))."""
    Q, p = ctx.Q, ctx.p
    half_exp = (Q + 1) // 2
    tq_y = tq_powers(ctx, 1, Q - 1)
    tq_z = tq_powers(ctx, 2, Q - 1)
    inner = TriPoly.monomial(ctx, ctx.one, (half_exp, 0, 0))
    for m in range(1, (Q - 1) // 2 + 1):
        b = binom_mod_lucas(half_exp, m, p)
        if b:
            inner = inner + TriPoly.monomial(ctx, ctx.from_int(b), (m, 0, 0)) * tq_y[m - 1] * tq_z[Q - m]
    return tq_y[Q - 1] * inner


RING_FORMS = {
    "nonreduced": ring_nonreduced_T,
    "reduced": ring_reduced_T,
    "t2": ring_T2,
}
