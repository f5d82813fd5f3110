"""The regular nearfield, the piecewise ternary operation coordinatizing the
Hughes plane of order Q = q^2, and its polynomial forms.

The nearfield keeps field addition and twists multiplication by the
quadratic character of the left operand:

    x * y           if x is a square (zero included),
    x * y^q         if x is a non-square.

The piecewise ternary operation splits on whether y lies in the subfield
and, if not, on the quadratic class of x + k, where (k, k') is the unique
subfield pair with z = k*y + k':

    x*y + z             if y in GF(q),
    x*y + z             if y not in GF(q) and x + k is a square,
    x*y^q + z^q         otherwise.

``ptr_piecewise`` is the ground-truth oracle; everything polynomial is
checked against it.  ``ptr_values`` is its single vectorized restatement, on
broadcastable index arrays: the full grid (``ptr_table``) and every section
sweep are calls to it.  Three polynomial forms are provided:

* ``build_nonreduced_T``: binomial-coefficient form, exponents up to Q*q.
* ``build_reduced_T``: the reduced form, whose inner coefficients are
  Catalan numbers mod p (weighted by inverse powers of -4).
* ``build_T2``: an equivalent factoring whose coefficients are generalized
  Catalan numbers; after reduction it is coefficientwise identical to the
  reduced form.

The square-branch involution phi_k(X) = (X + k)^((Q+1)/2) - k evaluates to
x on {x : x + k square} and to -x - 2k elsewhere, and drives the piecewise
behavior of all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf_tower import FieldCtx, FieldElement
from .modcomb import binom_mod_lucas, catalan_mod, gen_catalan_mod
from .trivar_poly import TriPoly, variables

__all__ = [
    "NotUniqueError",
    "KPair",
    "NearfieldCtx",
    "nearfield_mul",
    "solve_kkprime",
    "ptr_piecewise",
    "ptr_nearfield_form",
    "ptr_values",
    "ptr_table",
    "phi_eval",
    "phi_poly",
    "sigma_eval",
    "sigma_poly",
    "build_M",
    "build_nonreduced_T",
    "build_reduced_T",
    "build_T2",
    "g_poly",
    "h_poly",
    "render_text",
]


class NotUniqueError(ValueError):
    """The decomposition z = k*y + k' is not unique (y lies in the subfield)."""


@dataclass(frozen=True)
class KPair:
    """The unique subfield pair (k, k') with z = k*y + k'."""

    k: FieldElement
    k_prime: FieldElement


@dataclass(frozen=True)
class NearfieldCtx:
    """The regular nearfield of order Q with center GF(q)."""

    ctx: FieldCtx

    def mul(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return nearfield_mul(self.ctx, x, y)


def nearfield_mul(ctx: FieldCtx, x: FieldElement, y: FieldElement) -> FieldElement:
    """x * y for square x (zero takes this branch too), x * y^q otherwise."""
    if ctx.is_square(x):
        return x * y
    return x * ctx.frobenius_q(y)


def solve_kkprime(ctx: FieldCtx, y: FieldElement, z: FieldElement) -> KPair:
    """Solve z = k*y + k' for (k, k') in the subfield; requires y outside it.

    k comes out as t_q(z) / t_q(y): both t_q values are negated by the
    Frobenius, so their ratio is Frobenius-fixed, hence in GF(q).
    """
    if ctx.in_subfield(y):
        raise NotUniqueError("y lies in GF(q); the pair (k, k') is not unique")
    k = ctx.t_q(z) / ctx.t_q(y)
    k_prime = z - k * y
    return KPair(k, k_prime)


def ptr_piecewise(ctx: FieldCtx, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
    """The piecewise ternary operation; ground truth for every polynomial form.

    When x + k is zero, both branches agree, and the square branch is taken.
    """
    if ctx.in_subfield(y):
        return x * y + z
    k = ctx.t_q(z) / ctx.t_q(y)
    if ctx.is_square(x + k):
        return x * y + z
    return x * ctx.frobenius_q(y) + ctx.frobenius_q(z)


def ptr_nearfield_form(ctx: FieldCtx, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
    """The original two-case form (x + k) * y + k' with nearfield product."""
    if ctx.in_subfield(y):
        return nearfield_mul(ctx, x, y) + z
    pair = solve_kkprime(ctx, y, z)
    return nearfield_mul(ctx, x + pair.k, y) + pair.k_prime


def ptr_values(ctx: FieldCtx, X, Y, Z) -> np.ndarray:
    """The piecewise operation on broadcastable index arrays (or scalars).

    Vectorized restatement of ``ptr_piecewise``, cross-checked against it by
    the test suite.  The result has the broadcast shape of X, Y and Z.
    """
    t = ctx.tables
    same = t.add(t.mul(X, Y), Z)                     # x*y + z
    twisted = t.add(t.mul(X, t.frob[Y]), t.frob[Z])  # x*y^q + z^q
    k = t.mul(t.inv[t.tq[Y]], t.tq[Z])               # garbage for y in GF(q), masked
    square_branch = t.quad[t.add(X, k)] >= 0         # x + k
    return np.where(t.in_subfield[Y] | square_branch, same, twisted)


def ptr_table(ctx: FieldCtx) -> np.ndarray:
    """Values of the piecewise operation on the whole grid, indexed [x, y, z].

    Filled one x-slab at a time, so the temporaries of ``ptr_values`` stay
    at O(Q^2) next to the int32 output.
    """
    ar = np.arange(ctx.Q, dtype=np.int32)
    out = np.empty((ctx.Q,) * 3, dtype=np.int32)
    for x in range(ctx.Q):
        out[x] = ptr_values(ctx, np.int32(x), ar[:, None], ar[None, :])
    return out


# ---------------------------------------------------------------------------
# The square-branch involution
# ---------------------------------------------------------------------------


def phi_eval(ctx: FieldCtx, k: FieldElement, x: FieldElement) -> FieldElement:
    """(x + k)^((Q+1)/2) - k: x on the square branch, -x - 2k on the other."""
    if ctx.is_square(x + k):
        return x
    return -(x + k + k)


def phi_poly(ctx: FieldCtx, k: FieldElement) -> TriPoly:
    """(X + k)^((Q+1)/2) - k as a polynomial in X.

    Expanded by the binomial theorem with Lucas-reduced coefficients, which
    exposes the sparse support: a surviving monomial X^(aq+b) always has
    a <= (q-1)/2 and b <= (q+1)/2.
    """
    half_exp = (ctx.Q + 1) // 2
    terms: dict[tuple[int, int, int], FieldElement] = {}
    kpow = ctx.one
    for m in range(half_exp, -1, -1):
        b = binom_mod_lucas(half_exp, m, ctx.p)
        if b:
            coeff = ctx.from_int(b) * kpow
            if coeff.index:
                terms[(m, 0, 0)] = terms.get((m, 0, 0), ctx.zero) + coeff
        kpow = kpow * k
    const = terms.get((0, 0, 0), ctx.zero) - k
    terms[(0, 0, 0)] = const
    return TriPoly(ctx, terms)


def sigma_eval(ctx: FieldCtx, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
    """0 when y is in the subfield, else phi_k(x) with k = t_q(z)/t_q(y)."""
    if ctx.in_subfield(y):
        return ctx.zero
    k = ctx.t_q(z) / ctx.t_q(y)
    return phi_eval(ctx, k, x)


def _tq_poly(ctx: FieldCtx, axis: int) -> TriPoly:
    """V^q - V in the chosen variable (axis 0 = X, 1 = Y, 2 = Z)."""
    hi = [0, 0, 0]
    lo = [0, 0, 0]
    hi[axis] = ctx.q
    lo[axis] = 1
    return TriPoly(ctx, {tuple(hi): ctx.one, tuple(lo): -ctx.one})


def _tq_powers(ctx: FieldCtx, axis: int, upto: int) -> list[TriPoly]:
    """[1, tq, tq^2, ..., tq^upto] in the chosen variable."""
    base = _tq_poly(ctx, axis)
    out = [TriPoly.one(ctx)]
    for _ in range(upto):
        out.append(out[-1] * base)
    return out


def sigma_poly(ctx: FieldCtx) -> TriPoly:
    """A (non-reduced) polynomial evaluating as ``sigma_eval`` everywhere:

    tq(Y)^(Q-1) * (X^((Q+1)/2)
                   + sum_{m=1}^{(Q-1)/2} binom((Q+1)/2, m) X^m tq(Y)^(m-1) tq(Z)^(Q-m))
    """
    Q, p = ctx.Q, ctx.p
    half_exp = (Q + 1) // 2
    tq_y = _tq_powers(ctx, 1, Q - 1)
    tq_z = _tq_powers(ctx, 2, Q - 1)

    inner = TriPoly.monomial(ctx, ctx.one, (half_exp, 0, 0))
    for m in range(1, (Q - 1) // 2 + 1):
        b = binom_mod_lucas(half_exp, m, p)
        if not b:
            continue
        term = TriPoly.monomial(ctx, ctx.from_int(b), (m, 0, 0))
        inner = inner + term * tq_y[m - 1] * tq_z[Q - m]
    return tq_y[Q - 1] * inner


# ---------------------------------------------------------------------------
# Polynomial forms of the ternary operation
# ---------------------------------------------------------------------------


def build_M(ctx: FieldCtx) -> TriPoly:
    """M(X, Y) = X*Y - (1/2) * (X^((Q+1)/2) - X) * (Y^q - Y); already reduced."""
    X, Y, _ = variables(ctx)
    t_half_x = TriPoly(
        ctx, {((ctx.Q + 1) // 2, 0, 0): ctx.one, (1, 0, 0): -ctx.one}
    )
    return X * Y - (t_half_x * _tq_poly(ctx, 1)).scale(ctx.half())


def build_nonreduced_T(ctx: FieldCtx) -> TriPoly:
    """Binomial-coefficient form:

    M(X,Y) + Z - (1/2) * sum_{m=1}^{(Q-1)/2} binom((Q+1)/2, m) X^m tq(Y)^m tq(Z)^(Q-m)

    Z-exponents reach (Q-1)*q, so this form is not reduced, but it evaluates
    identically to the piecewise operation.
    """
    Q, p = ctx.Q, ctx.p
    half_exp = (Q + 1) // 2
    tq_y = _tq_powers(ctx, 1, (Q - 1) // 2)
    tq_z = _tq_powers(ctx, 2, Q - 1)

    s = TriPoly.zero(ctx)
    for m in range(1, (Q - 1) // 2 + 1):
        b = binom_mod_lucas(half_exp, m, p)
        if not b:
            continue
        term = TriPoly.monomial(ctx, ctx.from_int(b), (m, 0, 0))
        s = s + term * tq_y[m] * tq_z[Q - m]

    _, _, Z = variables(ctx)
    return build_M(ctx) + Z - s.scale(ctx.half())


def _inv_neg4_pow(ctx: FieldCtx, i: int) -> int:
    """(-4)^(-(i+1)) in GF(p)."""
    return pow(-4 % ctx.p, -(i + 1), ctx.p)


def g_poly(ctx: FieldCtx, i: int) -> TriPoly:
    """g_i(X) = (-4)^(-(i+1)) * sum_{j=0}^{i+1} C[j(q-1)+i] X^(j(q-1)+i+1) mod p."""
    q, p = ctx.q, ctx.p
    scale = _inv_neg4_pow(ctx, i)
    terms: dict[tuple[int, int, int], FieldElement] = {}
    for j in range(i + 2):
        c = catalan_mod(j * (q - 1) + i, p)
        if c:
            terms[(j * (q - 1) + i + 1, 0, 0)] = ctx.from_int(scale * c)
    return TriPoly(ctx, terms)


def h_poly(ctx: FieldCtx, i: int) -> TriPoly:
    """h_i(X) = (-4)^(-(i+1)) * sum_{j=0}^{i} T'[i-j, j] X^(j(q-1)+i) mod p."""
    q, p = ctx.q, ctx.p
    scale = _inv_neg4_pow(ctx, i)
    terms: dict[tuple[int, int, int], FieldElement] = {}
    for j in range(i + 1):
        c = gen_catalan_mod(i - j, j, p)
        if c:
            terms[(j * (q - 1) + i, 0, 0)] = ctx.from_int(scale * c)
    return TriPoly(ctx, terms)


def build_reduced_T(ctx: FieldCtx) -> TriPoly:
    """The reduced form with Catalan-number coefficients:

    M(X,Y) + Z - sum_{i=0}^{q-2} g_i(X) tq(Y)^(i+1) tq(Z)^(q-1-i)
    """
    q = ctx.q
    tq_y = _tq_powers(ctx, 1, q - 1)
    tq_z = _tq_powers(ctx, 2, q - 1)

    s = TriPoly.zero(ctx)
    for i in range(q - 1):
        s = s + g_poly(ctx, i) * tq_y[i + 1] * tq_z[q - 1 - i]

    _, _, Z = variables(ctx)
    return build_M(ctx) + Z - s


def build_T2(ctx: FieldCtx) -> TriPoly:
    """The generalized-Catalan form:

    M(X,Y) + Z + tq(X) tq(Y) tq(Z) * sum_{i=0}^{q-2} h_i(X) tq(Y)^i tq(Z)^(q-2-i)

    Equal to the reduced form after reduction: tq(X) * h_i(X) = -g_i(X)
    coefficientwise mod p, which the test suite asserts directly.
    """
    q = ctx.q
    tq_y = _tq_powers(ctx, 1, q - 1)
    tq_z = _tq_powers(ctx, 2, q - 1)

    s = TriPoly.zero(ctx)
    for i in range(q - 1):
        s = s + h_poly(ctx, i) * tq_y[i] * tq_z[q - 2 - i]

    _, _, Z = variables(ctx)
    prefactor = _tq_poly(ctx, 0) * _tq_poly(ctx, 1) * _tq_poly(ctx, 2)
    return build_M(ctx) + Z + prefactor * s


# ---------------------------------------------------------------------------
# Human-readable rendering (informational; JSON is the canonical output)
# ---------------------------------------------------------------------------


def _univar_str(poly: TriPoly, var: str = "X") -> str:
    parts = []
    for (i, _, _), c in poly.sorted_terms():
        if i == 0:
            parts.append(f"{c.index}")
        elif i == 1:
            parts.append(f"{c.index}*{var}")
        else:
            parts.append(f"{c.index}*{var}^{i}")
    return " + ".join(parts) if parts else "0"


def render_text(ctx: FieldCtx, form: str) -> str:
    """Structured plain-text rendering of one of the three forms.

    Coefficients are canonical element indices; tq(V) denotes V^q - V.
    """
    p, e, q, Q = ctx.p, ctx.e, ctx.q, ctx.Q
    lines = [
        f"field: GF({Q}) = GF({q})^2, q = {q} = {p}^{e}",
        "notation: tq(V) = V^q - V; coefficients are canonical element indices",
        f"M(X,Y) = X*Y - {ctx.half().index} * (X^{(Q + 1) // 2} - X) * tq(Y)",
    ]
    if form == "reduced":
        lines.append(f"T(X,Y,Z) = M(X,Y) + Z - sum_(i=0..{q - 2}) g_i(X) * tq(Y)^(i+1) * tq(Z)^({q - 1}-i)")
        for i in range(q - 1):
            lines.append(f"g_{i}(X) = {_univar_str(g_poly(ctx, i))}")
    elif form == "t2":
        lines.append(
            f"T(X,Y,Z) = M(X,Y) + Z + tq(X)*tq(Y)*tq(Z) * sum_(i=0..{q - 2}) h_i(X) * tq(Y)^i * tq(Z)^({q - 2}-i)"
        )
        for i in range(q - 1):
            lines.append(f"h_{i}(X) = {_univar_str(h_poly(ctx, i))}")
    elif form == "nonreduced":
        half_exp = (Q + 1) // 2
        lines.append(
            f"T(X,Y,Z) = M(X,Y) + Z - {ctx.half().index} * sum_(m=1..{(Q - 1) // 2}) B(m) * X^m * tq(Y)^m * tq(Z)^({Q}-m)"
        )
        bs = ", ".join(
            f"B({m})={binom_mod_lucas(half_exp, m, p)}" for m in range(1, (Q - 1) // 2 + 1)
        )
        lines.append(f"binomial coefficients mod {p}: {bs}")
    else:
        raise ValueError(f"unknown form {form!r}")
    return "\n".join(lines) + "\n"
