"""Sparse polynomials in X, Y, Z over GF(Q).

Terms live in a map from exponent triples to nonzero coefficients; zero
coefficients are purged after every operation so equal functions in reduced
form have identical term maps.  Reduction modulo (X^Q - X, Y^Q - Y, Z^Q - Z)
folds every exponent n >= Q to ((n - 1) mod (Q - 1)) + 1, i.e. into
[1, Q-1], leaving exponent 0 alone; this preserves evaluation at every
point, including 0.

``evaluate_grid`` evaluates a polynomial on the whole Q^3 grid with the
context's vectorized field operations (``FieldTables.add``, ``mul``, ``pow``
and ``poly``), one Y exponent at a time; it must agree pointwise with
``evaluate``, and the tests also hold it to ``hughes_core.evaluate_blocks``
with one block per term.  It is the tests' oracle: the CLI proves the
polynomial equal to the piecewise operation on Q*q points
(``hughes_core.piecewise_match``) and never builds the Q^3 grid of the
polynomial.

JSON schema: {"p": p, "e": e, "terms": [{"ex": i, "ey": j, "ez": k, "c": c},
...]} with c the canonical element index and terms sorted lexicographically
by exponent triple, so output is byte-stable (``gen`` writes it).
"""

from __future__ import annotations

import numpy as np

from .gf_tower import FieldCtx, FieldElement, field_ctx

__all__ = ["TriPoly", "variables", "evaluate_grid"]


class TriPoly:
    """Sparse trivariate polynomial over a fixed field context."""

    __slots__ = ("ctx", "terms")
    __hash__ = None

    def __init__(self, ctx: FieldCtx, terms: dict | None = None):
        self.ctx = ctx
        clean: dict[tuple[int, int, int], FieldElement] = {}
        if terms:
            for exps, c in terms.items():
                if c.index != 0:
                    clean[exps] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "TriPoly":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "TriPoly":
        return cls(ctx, {(0, 0, 0): ctx.one})

    @classmethod
    def constant(cls, ctx: FieldCtx, c: FieldElement) -> "TriPoly":
        return cls(ctx, {(0, 0, 0): c})

    @classmethod
    def monomial(cls, ctx: FieldCtx, c: FieldElement, exps: tuple[int, int, int]) -> "TriPoly":
        if min(exps) < 0:
            raise ValueError("exponents must be non-negative")
        return cls(ctx, {tuple(exps): c})

    # -- ring operations -------------------------------------------------------

    def _check(self, other: "TriPoly") -> None:
        if other.ctx is not self.ctx and other.ctx.params != self.ctx.params:
            raise ValueError("polynomials come from different field contexts")

    def __add__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps)
            out[exps] = c if s is None else s + c
        return TriPoly(self.ctx, out)

    def __neg__(self):
        return TriPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (FieldElement, int)):
            return self.scale(other)
        if not isinstance(other, TriPoly):
            return NotImplemented
        self._check(other)
        out: dict[tuple[int, int, int], FieldElement] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                exps = (i1 + i2, j1 + j2, k1 + k2)
                c = c1 * c2
                s = out.get(exps)
                out[exps] = c if s is None else s + c
        return TriPoly(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, c) -> "TriPoly":
        if isinstance(c, int):
            c = self.ctx.from_int(c)
        return TriPoly(self.ctx, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("exponent must be non-negative")
        result = TriPoly.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self.ctx.params == other.ctx.params and self.terms == other.terms

    # -- reduction and evaluation ----------------------------------------------

    @property
    def is_reduced(self) -> bool:
        Q = self.ctx.Q
        return all(max(e) < Q for e in self.terms)

    def reduce(self) -> "TriPoly":
        """Fold exponents modulo V^Q - V per variable, preserving evaluation."""
        Q = self.ctx.Q

        def fold(n: int) -> int:
            return n if n < Q else (n - 1) % (Q - 1) + 1

        out: dict[tuple[int, int, int], FieldElement] = {}
        for (i, j, k), c in self.terms.items():
            exps = (fold(i), fold(j), fold(k))
            s = out.get(exps)
            out[exps] = c if s is None else s + c
        return TriPoly(self.ctx, out)

    def evaluate(self, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
        ctx = self.ctx
        pows: list[dict[int, int]] = [{}, {}, {}]
        pts = (x.index, y.index, z.index)

        def power(v: int, n: int) -> int:
            cache = pows[v]
            r = cache.get(n)
            if r is None:
                r = ctx._pow_i(pts[v], n)
                cache[n] = r
            return r

        acc = 0
        for (i, j, k), c in self.terms.items():
            t = c.index
            if i:
                t = ctx._mul_i(t, power(0, i))
            if j:
                t = ctx._mul_i(t, power(1, j))
            if k:
                t = ctx._mul_i(t, power(2, k))
            acc = ctx._add_i(acc, t)
        return FieldElement(ctx, acc)

    def equal_reduced(self, other: "TriPoly") -> bool:
        """Coefficientwise equality; both sides must already be reduced."""
        if not isinstance(other, TriPoly):
            raise TypeError("expected a TriPoly")
        self._check(other)
        if not self.is_reduced or not other.is_reduced:
            raise ValueError("equal_reduced requires reduced polynomials")
        return self.terms == other.terms

    def degree_profile(self) -> tuple[int, int, int, int]:
        """(deg_X, deg_Y, deg_Z, term count); all zero for the zero polynomial."""
        if not self.terms:
            return (0, 0, 0, 0)
        dx = max(e[0] for e in self.terms)
        dy = max(e[1] for e in self.terms)
        dz = max(e[2] for e in self.terms)
        return (dx, dy, dz, len(self.terms))

    # -- serialization -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], FieldElement]]:
        return sorted(self.terms.items())

    def to_json_dict(self) -> dict:
        return {
            "p": self.ctx.p,
            "e": self.ctx.e,
            "terms": [
                {"ex": i, "ey": j, "ez": k, "c": c.index}
                for (i, j, k), c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict, ctx: FieldCtx | None = None) -> "TriPoly":
        if ctx is None:
            ctx = field_ctx(data["p"], data["e"])
        terms = {
            (t["ex"], t["ey"], t["ez"]): ctx.element_from_index(t["c"])
            for t in data["terms"]
        }
        return cls(ctx, terms)

    def __repr__(self):
        n = len(self.terms)
        return f"TriPoly(GF({self.ctx.Q}), {n} term{'s' if n != 1 else ''})"


def variables(ctx: FieldCtx) -> tuple[TriPoly, TriPoly, TriPoly]:
    """The three coordinate polynomials X, Y, Z."""
    one = ctx.one
    return (
        TriPoly.monomial(ctx, one, (1, 0, 0)),
        TriPoly.monomial(ctx, one, (0, 1, 0)),
        TriPoly.monomial(ctx, one, (0, 0, 1)),
    )


def evaluate_grid(poly: TriPoly) -> np.ndarray:
    """Values of the polynomial on all of GF(Q)^3, int32 indexed [x, y, z].

    Write T = sum_j y^j W_j(x, z), W_j = sum_k u_jk(x) z^k and
    u_jk = sum_i c_ijk x^i.  Per Y exponent j, each u_jk is one
    ``FieldTables.poly`` on GF(Q), W_j is summed on the Q x Q plane, and
    y^j W_j is added into the grid one x-slab at a time, so the
    temporaries stay at O(Q^2) next to the output.
    """
    ctx = poly.ctx
    t = ctx.tables
    Q = ctx.Q
    ar = np.arange(Q, dtype=np.int32)

    groups: dict[int, dict[int, tuple[list[int], list[int]]]] = {}
    for (i, j, k), c in poly.terms.items():
        exps, coeffs = groups.setdefault(j, {}).setdefault(k, ([], []))
        exps.append(i)
        coeffs.append(c.index)

    out = np.zeros((Q, Q, Q), dtype=np.int32)
    for j, by_k in groups.items():
        W = np.zeros((Q, Q), dtype=np.int32)
        for k, (exps, coeffs) in by_k.items():
            W = t.add(W, t.mul(t.poly(exps, coeffs, ar)[:, None], t.pow(ar, k)))
        yj = t.pow(ar, j)[:, None]
        for x in range(Q):
            out[x] = t.add(out[x], t.mul(yj, W[x]))
    return out
