"""Exact arithmetic in the tower GF(p) < GF(q) < GF(Q), with q = p^e, Q = q^2.

Every context fixes canonical moduli so that repeated runs are bit-identical:

* GF(q) is GF(p)[x] modulo the least monic irreducible of degree e, where
  candidates are ordered by their coefficient vector read as base-p digits,
  constant coefficient first.
* GF(Q) is GF(q)[w] modulo w^2 - n, where n is the least non-square of GF(q)
  in canonical index order.  Because n is a non-square, w^q = -w, which makes
  the order-2 Frobenius x -> x^q a cheap sign flip on the w coordinate.

An element a + b*w (a, b in GF(q)) is identified with the integer index
index(a) + q * index(b); equivalently, the 2e base-p digits of the index are
the element's coefficient vector over GF(p).  Index 0 is zero, index 1 is one,
and the subfield GF(q) occupies exactly the indices below q.

``FieldCtx(p, e)`` raises ``ValueError`` unless p is an odd prime and e >= 1,
and keeps ``params = (p, e)``: elements and polynomials of two contexts with
equal params are compared as members of one field.

The scalar side (``FieldCtx``) holds only the q x q tables of GF(q).  It
multiplies schoolbook on the (a, b) pair with a single reduction by
w^2 = n, and a + b*w is a square of GF(Q) exactly when its norm
a^2 - n*b^2 is a square of GF(q) (Lidl and Niederreiter, *Finite Fields*,
ch. 2).  The numpy layer (``FieldCtx.tables``) alone holds the discrete logs
of GF(Q): it multiplies through them, reads the quadratic character off
their parity, and adds digit-wise on the base-p digits of the indices.  It
shares no table with the scalar side, is an optimization only, and is
required to agree with the scalar side element for element.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "FieldCtx",
    "FieldElement",
    "FieldTables",
    "field_ctx",
    "is_odd_prime",
]


# ---------------------------------------------------------------------------
# GF(p)[x] helpers. Polynomials are tuples of residues, constant term first.
# ---------------------------------------------------------------------------


def _poly_rem(f: list[int], g: tuple[int, ...], p: int) -> list[int]:
    """Remainder of f modulo monic g, both coefficient lists mod p."""
    f = list(f)
    dg = len(g) - 1
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c:
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
    return f[:dg]


def _monic_polys(p: int, deg: int):
    """All monic polynomials of the given degree, in canonical index order."""
    for t in range(p**deg):
        coeffs = []
        u = t
        for _ in range(deg):
            coeffs.append(u % p)
            u //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(poly)/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(p, d):
            if not any(_poly_rem(list(poly), g, p)):
                return False
    return True


def _prime_factors(n: int) -> list[int]:
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return primes + [n] if n > 1 else primes


def is_odd_prime(n: int) -> bool:
    return n % 2 == 1 and _prime_factors(n) == [n]


def _find_base_modulus(p: int, e: int) -> tuple[int, ...]:
    for cand in _monic_polys(p, e):
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _subfield_tables(p: int, modulus: tuple[int, ...]) -> tuple[list, list, list]:
    """Addition, negation and multiplication tables of GF(p)[x] / modulus.

    Elements are indexed by their base-p digits, constant coefficient first.
    The q x q products are one broadcast convolution of the digit vectors,
    then one reduction step by the monic modulus per degree above e - 1.
    """
    e = len(modulus) - 1
    q = p**e
    place = p ** np.arange(e, dtype=np.int64)
    D = np.arange(q, dtype=np.int64)[:, None] // place % p  # D[i, k]: digit k of i
    # these @ products stay int64: numpy's integer loops, never BLAS (see __init__)
    add = (D[:, None, :] + D[None, :, :]) % p @ place
    neg = -D % p @ place
    prod = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
    for k in range(e):
        prod[:, :, k:k + e] += D[:, None, k, None] * D[None, :, :]
    prod %= p
    low = np.array(modulus[:e], dtype=np.int64)
    for k in range(2 * e - 2, e - 1, -1):
        prod[:, :, k - e:k] = (prod[:, :, k - e:k] - prod[:, :, k, None] * low) % p
    mul = prod[:, :, :e] @ place
    return add.tolist(), neg.tolist(), mul.tolist()


# ---------------------------------------------------------------------------
# Field elements
# ---------------------------------------------------------------------------


class FieldElement:
    """An element of GF(Q), canonically indexed.

    Instances are immutable value objects; create them through a FieldCtx
    (``element_from_index`` / ``from_int``), not directly.
    """

    __slots__ = ("ctx", "index")

    def __init__(self, ctx: "FieldCtx", index: int):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The 2e base-p digits of the index: coefficients over GF(p)."""
        p = self.ctx.p
        u = self.index
        out = []
        for _ in range(2 * self.ctx.e):
            out.append(u % p)
            u //= p
        return tuple(out)

    def _coerce(self, other) -> int | None:
        if isinstance(other, FieldElement):
            if other.ctx is not self.ctx and other.ctx.params != self.ctx.params:
                raise ValueError("field elements come from different contexts")
            return other.index
        if isinstance(other, int):
            return other % self.ctx.p  # n * 1 lands in the prime subfield
        return None

    def __add__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._add_i(self.index, j))

    __radd__ = __add__

    def __sub__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._add_i(self.index, self.ctx._neg_i(j)))

    def __rsub__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._add_i(j, self.ctx._neg_i(self.index)))

    def __neg__(self):
        return FieldElement(self.ctx, self.ctx._neg_i(self.index))

    def __mul__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._mul_i(self.index, j))

    __rmul__ = __mul__

    def __truediv__(self, other):
        j = self._coerce(other)
        if j is None:
            return NotImplemented
        return FieldElement(self.ctx, self.ctx._mul_i(self.index, self.ctx._inv_i(j)))

    def __pow__(self, n: int):
        if n < 0:
            return FieldElement(self.ctx, self.ctx._pow_i(self.ctx._inv_i(self.index), -n))
        return FieldElement(self.ctx, self.ctx._pow_i(self.index, n))

    def inv(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._inv_i(self.index))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.index == other.index and self.ctx.params == other.ctx.params
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.params, self.index))

    def __bool__(self):
        return self.index != 0

    def __repr__(self):
        return f"GF({self.ctx.Q})[{self.index}]"


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------


class FieldCtx:
    """Immutable description of the tower: canonical moduli and GF(q) tables.

    All operations are pure, so ``field_ctx`` hands one context to every caller.
    """

    def __init__(self, p: int, e: int):
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if e < 1:
            raise ValueError(f"e must be a positive integer, got {e}")
        self.params = (p, e)  # contexts with equal params hold equal fields
        self.p = p
        self.e = e
        self.q = p**e
        self.Q = self.q**2

        self.base_modulus = _find_base_modulus(p, e)
        self._q_add, self._q_neg, self._q_mul = _subfield_tables(p, self.base_modulus)

        # quadratic character of GF(q): a^((q-1)/2) is 1 or -1 for a != 0
        half = (self.q - 1) // 2
        self._q_quad = [0] + [1 if self._q_pow(a, half) == 1 else -1 for a in range(1, self.q)]
        self.ext_nonresidue_index = self._q_quad.index(-1)

        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self._tables: FieldTables | None = None

    # -- construction helpers ------------------------------------------------

    def _q_pow(self, a: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._q_mul[r][a]
            a = self._q_mul[a][a]
            n >>= 1
        return r

    # -- index-level arithmetic (internal fast path) -------------------------

    def _add_i(self, i: int, j: int) -> int:
        q, qa = self.q, self._q_add
        return qa[i % q][j % q] + q * qa[i // q][j // q]

    def _neg_i(self, i: int) -> int:
        q, qn = self.q, self._q_neg
        return qn[i % q] + q * qn[i // q]

    def _mul_i(self, i: int, j: int) -> int:
        q, qm, qa = self.q, self._q_mul, self._q_add
        a1, b1 = i % q, i // q
        a2, b2 = j % q, j // q
        re = qa[qm[a1][a2]][qm[qm[b1][b2]][self.ext_nonresidue_index]]
        im = qa[qm[a1][b2]][qm[b1][a2]]
        return re + q * im

    def _pow_i(self, i: int, n: int) -> int:
        r = 1
        while n:
            if n & 1:
                r = self._mul_i(r, i)
            i = self._mul_i(i, i)
            n >>= 1
        return r

    def _inv_i(self, i: int) -> int:
        if i == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._pow_i(i, self.Q - 2)

    def _frob_i(self, i: int) -> int:
        # (a + b*w)^q = a - b*w because w^q = -w
        q = self.q
        return i % q + q * self._q_neg[i // q]

    def _tq_i(self, i: int) -> int:
        return self._add_i(self._frob_i(i), self._neg_i(i))

    # -- public element API ---------------------------------------------------

    def element_from_index(self, i: int) -> FieldElement:
        if not 0 <= i < self.Q:
            raise IndexError(f"element index {i} out of range [0, {self.Q})")
        return FieldElement(self, i)

    def index_of(self, x: FieldElement) -> int:
        self._check(x)
        return x.index

    def from_int(self, n: int) -> FieldElement:
        """The prime-subfield element n * 1."""
        return FieldElement(self, n % self.p)

    def enumerate_field(self) -> list[FieldElement]:
        return [FieldElement(self, i) for i in range(self.Q)]

    def subfield_elements(self) -> list[FieldElement]:
        """The copy of GF(q) inside GF(Q): exactly the indices below q."""
        return [FieldElement(self, i) for i in range(self.q)]

    def _check(self, x: FieldElement) -> None:
        if x.ctx is not self and x.ctx.params != self.params:
            raise ValueError("element belongs to a different field context")

    def pow(self, a: FieldElement, n: int) -> FieldElement:
        self._check(a)
        if n < 0:
            raise ValueError("exponent must be non-negative")
        return FieldElement(self, self._pow_i(a.index, n))

    def frobenius_q(self, x: FieldElement) -> FieldElement:
        """x^q, the order-2 automorphism fixing GF(q)."""
        self._check(x)
        return FieldElement(self, self._frob_i(x.index))

    def trace_sub(self, x: FieldElement) -> FieldElement:
        """Trace onto the subfield: x^q + x."""
        self._check(x)
        return FieldElement(self, self._add_i(self._frob_i(x.index), x.index))

    def t_n(self, x: FieldElement, n: int) -> FieldElement:
        """x^n - x.  For n = q this vanishes exactly on the subfield."""
        if n < 1:
            raise ValueError("n must be positive")
        self._check(x)
        return FieldElement(self, self._add_i(self._pow_i(x.index, n), self._neg_i(x.index)))

    def t_q(self, x: FieldElement) -> FieldElement:
        self._check(x)
        return FieldElement(self, self._tq_i(x.index))

    def quad_char(self, x: FieldElement) -> int:
        """+1 for nonzero squares, -1 for non-squares, 0 for zero: the
        character of the norm (a + b*w)^(q+1) = a^2 - n*b^2 in GF(q)."""
        self._check(x)
        q, qm = self.q, self._q_mul
        a, b = x.index % q, x.index // q
        nb2 = qm[qm[b][b]][self.ext_nonresidue_index]
        return self._q_quad[self._q_add[qm[a][a]][self._q_neg[nb2]]]

    def is_square(self, x: FieldElement) -> bool:
        """True for squares, with zero counted as a square."""
        return self.quad_char(x) >= 0

    def in_subfield(self, x: FieldElement) -> bool:
        self._check(x)
        return x.index < self.q

    def half(self) -> FieldElement:
        """The inverse of 2 = 1 + 1 (p is odd, so this exists)."""
        return FieldElement(self, self._inv_i(self._add_i(1, 1)))

    @property
    def tables(self) -> "FieldTables":
        """Vectorized numpy tables, built lazily on first use."""
        if self._tables is None:
            self._tables = FieldTables(self)
        return self._tables

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, Q={self.Q})"


# ---------------------------------------------------------------------------
# Vectorized table layer
# ---------------------------------------------------------------------------

class FieldTables:
    """numpy views of a FieldCtx for whole-grid arithmetic on index arrays.

    Multiplication uses padded discrete-log tables (zero maps to a sentinel
    log so products involving zero land in a zeroed region of the padded
    exponential table); the logs are built here and held nowhere else.

    Addition is digit-wise mod p on the 2e base-p digits of an index.
    ``_packed`` (Q entries) respaces those digits to radix 2p-1, so the sum
    of two packed values holds every digit sum in [0, 2p-2] with no carry,
    and ``_canon`` ((2p-1)^(2e) entries: 28,561 at Q=2401, 390,625 at
    Q=6561) reduces each digit mod p and gives back the index:
    ``add(A, B) = _canon[_packed[A] + _packed[B]]``.  Negation and the
    Frobenius are read off the digits too, so no table here comes from the
    scalar side; results are required to be bit-identical to it.

    ``add`` and ``mul`` are this layer's only field arithmetic: ``sub``,
    ``pow`` and ``poly`` (a univariate polynomial on an index array) are
    built on them, and so is every vectorized evaluation in the package,
    the difference maps that ``du_analysis`` counts included.

    Every gather from a table is one ``ndarray.take``, which on these 1-D
    tables costs about 0.6 of the same fancy index: one ``add`` of 6,561
    int32 indices took 49 us against 78 us, and of 131,072 indices 0.90 ms
    against 1.45 ms, at Q = 81, 169 and 2401 alike (2-core x86-64 VM,
    numpy 2.4).  The semantics are those of indexing: an index at or past
    a table's end raises ``IndexError`` and a negative one wraps.  ``take``
    copies indices of any other type to intp first, so ``_packed`` and
    ``log`` are intp and the sums ``add``, ``sub`` and ``mul`` gather by need
    no copy; callers keep their own index arrays to a slab or a chunk.
    """

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        Q, q, p = ctx.Q, ctx.q, ctx.p
        Qm1 = Q - 1
        self.Qm1 = Qm1

        # the least generator of GF(Q)*: no (Q-1)/r-th power is 1, r | Q-1 prime
        primes = _prime_factors(Qm1)
        gen = next(g for g in range(2, Q) if all(ctx._pow_i(g, Qm1 // r) != 1 for r in primes))
        exp = [1] * Qm1
        for i in range(1, Qm1):
            exp[i] = ctx._mul_i(exp[i - 1], gen)
        exp = np.array(exp, dtype=np.int32)

        log = np.empty(Q, dtype=np.intp)
        log[0] = 2 * Qm1  # sums with zero's log land in the zeroed half of exp_pad
        log[exp] = np.arange(Qm1)
        self.log = log

        exp_pad = np.zeros(4 * Qm1 + 1, dtype=np.int32)
        exp_pad[:2 * Qm1] = np.tile(exp, 2)
        self.exp_pad = exp_pad

        # quadratic character from log parity: squares have even logs
        self.quad = np.where(log % 2 == 0, 1, -1).astype(np.int8)
        self.quad[0] = 0
        inv = np.zeros(Q, dtype=np.int32)  # inv[0] stays 0; callers must mask
        inv[1:] = exp_pad[(Qm1 - log[1:]) % Qm1]
        self.inv = inv

        ar = np.arange(Q, dtype=np.int32)
        D = 2 * ctx.e
        place = np.array([p**d for d in range(D)], dtype=np.int32)
        digits = ar // place[:, None] % p  # digits[d, i]: digit d of i

        # digits respaced to radix 2p-1: a sum of two packed values holds each
        # digit sum in [0, 2p-2], and _canon reduces every digit mod p
        r = 2 * p - 1
        # these @ products stay integer: numpy's integer loops, never BLAS (see __init__)
        self._packed = np.array([r**d for d in range(D)], dtype=np.intp) @ digits
        canon = np.zeros(1, dtype=np.int32)
        for d in range(D):
            canon = np.add.outer(np.arange(r, dtype=np.int32) % p * place[d], canon).ravel()
        self._canon = canon

        self.neg = place @ (-digits % p)
        self._packed_neg = self._packed[self.neg]
        flip = np.repeat(np.array([1, -1], dtype=np.int32), ctx.e)
        self.frob = place @ (digits * flip[:, None] % p)  # (a + b*w)^q = a - b*w
        self.tq = self.add(self.frob, self.neg)
        self.in_subfield = ar < q
        # one direction of each pair {a, -a}: the nonzero a with a < -a
        self.shift_reps = np.flatnonzero(ar < self.neg).astype(np.int32)

    # inputs are integer arrays (any broadcastable shapes) of element indices

    def add(self, A, B):
        return self._canon.take(self._packed.take(A) + self._packed.take(B))

    def sub(self, A, B):
        return self._canon.take(self._packed.take(A) + self._packed_neg.take(B))

    def mul(self, A, B):
        return self.exp_pad.take(self.log.take(A) + self.log.take(B))

    def pow(self, A, n: int):
        """Elementwise A**n for a fixed non-negative integer exponent."""
        if n == 0:
            return np.ones_like(np.asarray(A), dtype=np.int32)
        r = self.exp_pad.take((self.log.take(A) * (n % self.Qm1)) % self.Qm1)  # no int64 wrap
        return np.where(np.asarray(A) == 0, 0, r).astype(np.int32)

    def poly(self, exps, coeffs, V):
        """sum_n c_n V^n on an index array V, with each coefficient c_n given
        as an element index; a repeated exponent adds its coefficients, and
        0^0 = 1, as in ``TriPoly.evaluate``."""
        out = np.zeros(np.shape(V), dtype=np.int32)
        for n, c in zip(np.asarray(exps).tolist(), np.asarray(coeffs).tolist()):
            out = self.add(out, self.mul(c, self.pow(V, n)))
        return out


@lru_cache(maxsize=None)
def field_ctx(p: int, e: int) -> FieldCtx:
    """Shared, memoized context for the (p, e) tower."""
    return FieldCtx(p, e)
