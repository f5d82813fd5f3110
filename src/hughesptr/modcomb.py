"""Binomial coefficients, Catalan numbers, and generalized Catalan numbers,
exactly and modulo a prime.

Conventions: binom(n, k) = 0 whenever k < 0, n < 0, or k > n, and the
generalized Catalan number is 0 whenever either index is negative.  The
mod-p binomial ``binom_mod_lucas`` is one broadcasting kernel over index
arrays: by Lucas' theorem it is the product of the binomials of the base-p
digits.  It reads k digits per pass, one gather from a p^k x p^k block table
that is itself the Lucas product of the p x p digit table (``_block_table``;
(p^k)^2 <= 4096, so B = p^k is 27, 25 and 49 for p = 3, 5 and 7).  The
passes run in int32 when every argument is below 2^31, in int64 otherwise,
and the result is int64 either way.  The mod-p Catalan value is computed
division-free as binom(2n, n) - binom(2n, n+1) through that kernel, since
(n+1) need not be invertible mod p.  Generalized Catalan values are computed
exactly as big integers and then reduced, for the same reason;
``central_binoms`` lists the central binomials binom(2m, m) they are made
of, so that a caller needing many of them builds each once.

``identity_suite`` re-verifies every congruence identity the polynomial
construction relies on, exactly.  Its Lucas sweep compares the kernel with
Pascal's triangle built mod p row by row: reduction mod p is a ring
homomorphism, so every entry of that triangle is binom(a, b) mod p.  Each
row is one add of the row before it and one remainder, written in place
into a buffer preallocated per chunk of rows: uint8 while the sum of two
residues fits (p <= 127), int64 above.  The row and column indices of a
chunk are int32, which the kernel does not widen.  The other sweeps compare
exact big integers, reduced mod p where the identity is a congruence.  They
take their binomials from rows built with
binom(n, k+1) = binom(n, k) (n-k) / (k+1), and their Catalan numbers from one
run of C[m+1] = C[m] * 2(2m+1) / (m+2), rather than one ``math.comb`` per
entry; ``binom_exact`` and ``catalan_exact`` are the references both are
tested against.  Each central binomial and each T'[n, k] is computed once
per suite, the central binomials from ``central_binoms`` and not from the
Catalan run, so a fault in either shows against the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "binom_exact",
    "binom_mod_lucas",
    "catalan_exact",
    "catalan_mod",
    "central_binoms",
    "gen_catalan_exact",
    "gen_catalan_mod",
    "IdentityCheck",
    "identity_suite",
]


def binom_exact(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


@functools.lru_cache(maxsize=None)
def _digit_table(p: int) -> np.ndarray:
    """binom(a, b) mod p for digits a, b < p, indexed [a, b]; read-only."""
    table = np.array([[math.comb(a, b) % p for b in range(p)] for a in range(p)], dtype=np.int64)
    table.setflags(write=False)
    return table


# entries of the largest Lucas block table: the kernel reads k base-p digits
# per pass from a p^k x p^k table, (p^k)^2 at most this
_BLOCK_ENTRIES = 1 << 12


def _block_table(p: int) -> tuple[int, np.ndarray]:
    """(B, table): B = p^k, the largest power of p with B^2 <= _BLOCK_ENTRIES
    (at least p), and binom(A, C) mod p at table[A * B + C] for A, C < B.

    Keyed on the contents of ``_digit_table(p)``, so a replaced digit table
    reaches the kernel.
    """
    return _lucas_block(p, _digit_table(p).tobytes())


@functools.lru_cache(maxsize=None)
def _lucas_block(p: int, digits: bytes) -> tuple[int, np.ndarray]:
    """``_block_table`` of the int64 digit table whose bytes are ``digits``."""
    digit = np.frombuffer(digits, dtype=np.int64).reshape(p, p)
    table = digit
    while (table.shape[0] * p) ** 2 <= _BLOCK_ENTRIES:
        # one more base-p digit, the new leading one: Lucas' theorem again
        table = np.kron(digit, table) % p
    flat = table.ravel()
    flat.setflags(write=False)
    return table.shape[0], flat


def binom_mod_lucas(alpha, beta, p: int):
    """binom(alpha, beta) mod p, elementwise on broadcastable integer arrays.

    By Lucas' theorem, the product of the binomials of the base-p digits.
    Each pass reads the binomial of k digits at once, one gather from the
    flat B x B block table of ``_block_table`` (B = p^k), which is the Lucas
    product of the digit table, not ``math.comb``.  The passes work in int32
    when the largest argument is below 2^31 (and p^2 too, which bounds a
    product of two residues), else in int64; int32 arguments are not
    widened on the way.  The result is int64.  0 where either argument is
    negative.  Given two ints, it returns an int.
    """
    size, table = _block_table(p)
    a, b = (x if x.dtype == np.int32 else x.astype(np.int64, copy=False)
            for x in (np.asarray(alpha), np.asarray(beta)))
    valid = (a >= 0) & (b >= 0)
    top = max(int(a.max(initial=0)), int(b.max(initial=0)))
    dtype = np.int32 if max(top, p * p) < 2**31 else np.int64
    table = table.astype(dtype, copy=False)
    r = valid.astype(dtype)
    # fresh arrays of the broadcast shape, so the passes may write into them,
    # and 0 where an argument is negative (whatever the cast made of it)
    a, b = (np.multiply(x, valid, dtype=dtype, casting="unsafe") for x in (a, b))
    while top:  # one pass per k base-p digits of the largest argument
        a_hi, b_hi = a // size, b // size
        a -= a_hi * size  # the low k digits of each argument
        b -= b_hi * size
        a *= size
        a += b
        r *= table.take(a)
        r -= r // p * p  # r mod p: // by a scalar costs far less than %
        a, b, top = a_hi, b_hi, top // size
    return int(r) if r.ndim == 0 else r.astype(np.int64, copy=False)


def catalan_exact(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1)."""
    if n < 0:
        return 0
    return math.comb(2 * n, n) // (n + 1)


def catalan_mod(n, p: int):
    """Catalan numbers mod p, division-free: binom(2n,n) - binom(2n,n+1).

    Elementwise on an integer array, an int for an int; 0 for negative n.
    """
    n = np.asarray(n, dtype=np.int64)
    return (binom_mod_lucas(2 * n, n, p) - binom_mod_lucas(2 * n, n + 1, p)) % p


def _gen_catalan(n: int, k: int, central) -> int:
    """T'[n, k] = binom(2n,n) binom(2k,k) (2k+1) / (n+k+1), with central(m) = binom(2m, m)."""
    if n < 0 or k < 0:
        return 0
    quotient, rem = divmod(central(n) * central(k) * (2 * k + 1), n + k + 1)
    if rem:  # always divides; guard against silent misuse
        raise ArithmeticError(f"generalized Catalan ({n},{k}) is not an integer")
    return quotient


def central_binoms(count: int) -> list[int]:
    """binom(2m, m) for m = 0 .. count-1, from one run of
    binom(2m+2, m+1) = binom(2m, m) * 2(2m+1) / (m+1)."""
    out, c = [], 1
    for m in range(count):
        out.append(c)
        c = c * 2 * (2 * m + 1) // (m + 1)
    return out


def gen_catalan_exact(n: int, k: int, central: list[int] | None = None) -> int:
    """binom(2n,n) * binom(2k,k) * (2k+1) / (n+k+1); 0 on negative indices.

    ``central``, a ``central_binoms`` list reaching max(n, k), supplies the
    two central binomials in place of ``math.comb``.
    """
    if central is None:
        return _gen_catalan(n, k, lambda m: math.comb(2 * m, m))
    return _gen_catalan(n, k, central.__getitem__)


def gen_catalan_mod(n: int, k: int, p: int) -> int:
    return gen_catalan_exact(n, k) % p


# ---------------------------------------------------------------------------
# Identity verification suite
# ---------------------------------------------------------------------------


@dataclass
class IdentityCheck:
    """Outcome of one identity sweep: instance count and first violator."""

    label: str
    passed: bool = True
    checked: int = 0
    witness: tuple | None = None

    def record(self, ok, where) -> None:
        """Record a batch of instances in scan order.

        ``ok`` holds one verdict per instance; ``where(i)`` names instance i
        and is called only for the first violator of the sweep.
        """
        ok = np.asarray(ok, dtype=bool)
        self.checked += ok.size
        if self.passed and not ok.all():
            self.passed = False
            self.witness = tuple(where(int(np.argmin(ok))))


def _neg4_powers(count: int, p: int) -> np.ndarray:
    """(-4)^n mod p for n = 0 .. count-1."""
    return np.array([pow(-4 % p, n, p) for n in range(count)], dtype=np.int64)


def _binom_row(n: int, upto: int, p: int) -> np.ndarray:
    """binom(n, k) mod p for k = 0 .. upto, exact big integers reduced mod p.

    Built with binom(n, k+1) = binom(n, k) (n-k) / (k+1); 0 past k = n.
    """
    out = np.zeros(upto + 1, dtype=np.int64)
    c = 1
    for k in range(min(n, upto) + 1):
        out[k] = c % p
        c = c * (n - k) // (k + 1)
    return out


def _catalan_run():
    """C(n), n >= 0, on demand from one run of C[m+1] = C[m] * 2(2m+1) / (m+2)."""
    run = [1]

    def catalan(n: int) -> int:
        for m in range(len(run) - 1, n):
            run.append(run[m] * 2 * (2 * m + 1) // (m + 2))
        return run[n]

    return catalan


def _pascal_chunks(max_n: int, p: int, size: int):
    """Rows 0 .. max_n of Pascal's triangle mod p, in chunks of whole rows.

    Each row is built from the one before, mod p, with one add and one
    remainder, in place in the chunk's preallocated buffer: uint8 when the
    sum of two entries (below 2p) fits, int64 otherwise.  Yields (a, b,
    entry) arrays in scan order, a and b int32, at least ``size`` entries
    per chunk but the last.
    """
    dtype = np.uint8 if 2 * (p - 1) <= 255 else np.int64
    prev, first = None, 0
    while first <= max_n:
        buf = np.ones(size + max_n + 1, dtype=dtype)  # every row begins and ends with 1
        at, a = 0, first
        while True:
            row = buf[at:at + a + 1]
            if a > 1:
                inner = row[1:a]
                np.add(prev[1:], prev[:-1], out=inner)
                np.remainder(inner, p, out=inner)
            prev, at = row, at + a + 1
            if at >= size or a == max_n:
                break
            a += 1
        lengths = np.arange(first + 1, a + 2, dtype=np.int32)
        starts = np.cumsum(lengths, dtype=np.int32) - lengths  # of the rows in buf
        rows_a = np.repeat(np.arange(first, a + 1, dtype=np.int32), lengths)
        rows_b = np.arange(at, dtype=np.int32) - np.repeat(starts, lengths)
        yield rows_a, rows_b, buf[:at]
        first = a + 1


# index ceiling of the exact integer identity gen_catalan_diff
EXACT_CAP = 60

# triangle entries per chunk of the Lucas sweep
_LUCAS_CHUNK = 1 << 16


def identity_suite(p: int, e: int, max_n: int = 300) -> dict[str, IdentityCheck]:
    """Verify the binomial/Catalan congruences over their full index ranges.

    Every check is exact.  The Lucas sweep holds ``binom_mod_lucas`` to
    Pascal's triangle mod p; every other sweep compares exact big-integer
    binomials and Catalan numbers (reduced mod p where the identity is a
    congruence) and never goes through the Lucas kernel.

    ``max_n`` also caps the per-identity index ranges, since exact values at
    indices of order q^2 get expensive for large fields.  With the default
    cap, every field with q <= 300 is swept over its full hypothesis ranges.
    """
    q = p**e
    Q = q * q
    cap = max_n + 1
    catalan = _catalan_run()
    # each central binomial and each T'[n, k] is computed once per call; the
    # sweeps read binom(2m, m) up to m = max(max_n, EXACT_CAP) + 1
    central = central_binoms(max(max_n, EXACT_CAP) + 2)
    tprime = functools.cache(lambda n, k: _gen_catalan(n, k, central.__getitem__))

    out: dict[str, IdentityCheck] = {}

    # Lucas' theorem against Pascal's triangle mod p, rows 0 .. max_n.
    chk = out.setdefault("lucas", IdentityCheck("lucas"))
    for a, b, entry in _pascal_chunks(max_n, p, _LUCAS_CHUNK):
        chk.record(binom_mod_lucas(a, b, p) == entry, lambda i: (int(a[i]), int(b[i])))

    # binom((Q+1)/2, aq+b) = binom((q-1)/2, a) * binom((q+1)/2, b) mod p.
    chk = out.setdefault("central_binom_split", IdentityCheck("central_binom_split"))
    side = min(q, cap)
    lhs = _binom_row((Q + 1) // 2, (side - 1) * (q + 1), p)[(q * np.arange(side))[:, None] + np.arange(side)]
    rhs = _binom_row((q - 1) // 2, side - 1, p)[:, None] * _binom_row((q + 1) // 2, side - 1, p) % p
    chk.record((lhs == rhs).ravel(), lambda i: divmod(i, side))

    # 2 * binom(2n-1, n) = (-4)^n * binom((p^t - 1)/2, n) mod p, 1 <= n < p^t,
    # where 2 * binom(2n-1, n) = binom(2n, n).
    chk = out.setdefault("doubled_binom", IdentityCheck("doubled_binom"))
    for t in range(1, 2 * e + 1):
        pt = p**t
        top = min(pt, max_n + 1)
        lhs = np.array([central[n] % p for n in range(1, top)], dtype=np.int64)
        rhs = _neg4_powers(top, p)[1:] * _binom_row((pt - 1) // 2, top - 1, p)[1:] % p
        chk.record(lhs == rhs, lambda i: (t, i + 1))

    # C[n] = 2 * (-4)^n * binom((p^t + 1)/2, n+1) mod p, 0 <= n < p^t - 1.
    chk = out.setdefault("catalan_binom", IdentityCheck("catalan_binom"))
    for t in range(1, 2 * e + 1):
        pt = p**t
        top = min(pt - 1, max_n + 1)
        lhs = np.array([catalan(n) % p for n in range(top)], dtype=np.int64)
        rhs = 2 * _neg4_powers(top, p) * _binom_row((pt + 1) // 2, top, p)[1:] % p
        chk.record(lhs == rhs, lambda i: (t, i))

    # Exact integer identity: T'[n,k] - T'[n+1,k-1] = 2 * binom(2k-1, k) * C[n].
    chk = out.setdefault("gen_catalan_diff", IdentityCheck("gen_catalan_diff"))
    chk.record(
        [tprime(n, k) - tprime(n + 1, k - 1) == central[k] * catalan(n)
         for n in range(EXACT_CAP + 1) for k in range(1, EXACT_CAP + 1)],
        lambda i: (i // EXACT_CAP, i % EXACT_CAP + 1),
    )

    # C[kq+n] = T'[n,k] - T'[n+1,k-1] mod p, 0 <= n < q-1, 0 <= k < q.
    chk = out.setdefault("catalan_block", IdentityCheck("catalan_block"))
    ns = min(q - 1, cap)
    chk.record(
        [catalan(k * q + n) % p == (tprime(n, k) - tprime(n + 1, k - 1)) % p
         for k in range(min(q, cap)) for n in range(ns)],
        lambda i: (i % ns, i // ns),
    )

    # C[j(q-1)+i] = 0 mod p for 0 <= i < i+1 < j <= (q-1)/2.
    chk = out.setdefault("catalan_zero", IdentityCheck("catalan_zero"))
    pairs = [(i, j) for j in range(min((q - 1) // 2, cap) + 1) for i in range(max(j - 1, 0))]
    chk.record([catalan(j * (q - 1) + i) % p == 0 for i, j in pairs], pairs.__getitem__)

    return out
