"""Binomial coefficients, Catalan numbers, and generalized Catalan numbers,
exactly and modulo a prime.

Conventions: binom(n, k) = 0 whenever k < 0, n < 0, or k > n, and the
generalized Catalan number is 0 whenever either index is negative.  The
mod-p Catalan value is computed division-free as
binom(2n, n) - binom(2n, n+1) through Lucas' theorem, since (n+1) need not
be invertible mod p.  Generalized Catalan values are computed exactly as
big integers and then reduced, for the same reason.

``identity_suite`` re-verifies, by exact integer arithmetic, every
congruence identity the polynomial construction relies on.  Its Lucas sweep
takes the exact binomials row by row from Pascal's triangle, each row from
the one before by big-integer addition, and every sweep takes its exact
Catalan numbers from one run of C[m+1] = C[m] * 2(2m+1) / (m+2), rather
than one ``math.comb`` per entry; ``catalan_exact`` is the reference both
are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

__all__ = [
    "binom_exact",
    "binom_mod_lucas",
    "catalan_exact",
    "catalan_mod",
    "gen_catalan_exact",
    "gen_catalan_mod",
    "IdentityCheck",
    "identity_suite",
]


def binom_exact(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def binom_mod_lucas(alpha: int, beta: int, p: int) -> int:
    """binom(alpha, beta) mod p as the product of base-p digit binomials."""
    if beta < 0 or alpha < 0:
        return 0
    r = 1
    while beta or alpha:
        ad, bd = alpha % p, beta % p
        if bd > ad:
            return 0
        r = r * math.comb(ad, bd) % p
        alpha //= p
        beta //= p
    return r


def catalan_exact(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1)."""
    if n < 0:
        return 0
    return math.comb(2 * n, n) // (n + 1)


def catalan_mod(n: int, p: int) -> int:
    """Catalan number mod p, division-free: binom(2n,n) - binom(2n,n+1)."""
    if n < 0:
        return 0
    return (binom_mod_lucas(2 * n, n, p) - binom_mod_lucas(2 * n, n + 1, p)) % p


def gen_catalan_exact(n: int, k: int) -> int:
    """binom(2n,n) * binom(2k,k) * (2k+1) / (n+k+1); 0 on negative indices."""
    if n < 0 or k < 0:
        return 0
    num = math.comb(2 * n, n) * math.comb(2 * k, k) * (2 * k + 1)
    quotient, rem = divmod(num, n + k + 1)
    if rem:  # always divides; guard against silent misuse
        raise ArithmeticError(f"generalized Catalan ({n},{k}) is not an integer")
    return quotient


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

    def record(self, ok: bool, where: tuple) -> None:
        self.checked += 1
        if not ok and self.passed:
            self.passed = False
            self.witness = where


def _neg4_pow(n: int, p: int) -> int:
    return pow(-4 % p, n, p)


def _catalan_run():
    """C(n), n >= 0, on demand from one run of C[m+1] = C[m] * 2(2m+1) / (m+2)."""
    run = [1]

    def catalan(n: int) -> int:
        for m in range(len(run) - 1, n):
            run.append(run[m] * 2 * (2 * m + 1) // (m + 2))
        return run[n]

    return catalan


# index ceiling of the exact integer identity gen_catalan_diff
EXACT_CAP = 60


def identity_suite(p: int, e: int, max_n: int = 300) -> dict[str, IdentityCheck]:
    """Verify the binomial/Catalan congruences over their full index ranges.

    All checks compare exact big-integer evaluations of both sides (reduced
    mod p where the identity is a congruence); nothing is routed through the
    fast Lucas path except the check of that path itself.

    ``max_n`` also caps the per-identity index ranges, since exact values at
    indices of order q^2 get expensive for large fields.  With the default
    cap, every field with q <= 300 is swept over its full hypothesis ranges.
    """
    q = p**e
    Q = q * q
    cap = max_n + 1
    catalan = _catalan_run()
    out: dict[str, IdentityCheck] = {}

    # Lucas' theorem against exact binomials, row a of Pascal's triangle
    # built from row a-1 by big-integer addition.
    chk = out.setdefault("lucas", IdentityCheck("lucas"))
    row = [1]
    for a in range(max_n + 1):
        if a:
            row = [1, *map(add, row, row[1:]), 1]
        for b, exact in enumerate(row):
            chk.record(binom_mod_lucas(a, b, p) == exact % p, (a, b))

    # binom((Q+1)/2, aq+b) = binom((q-1)/2, a) * binom((q+1)/2, b) mod p.
    chk = out.setdefault("central_binom_split", IdentityCheck("central_binom_split"))
    for a in range(min(q, cap)):
        for b in range(min(q, cap)):
            lhs = binom_exact((Q + 1) // 2, a * q + b) % p
            rhs = binom_exact((q - 1) // 2, a) * binom_exact((q + 1) // 2, b) % p
            chk.record(lhs == rhs, (a, b))

    # 2 * binom(2n-1, n) = (-4)^n * binom((p^t - 1)/2, n) mod p, 1 <= n < p^t.
    chk = out.setdefault("doubled_binom", IdentityCheck("doubled_binom"))
    for t in range(1, 2 * e + 1):
        pt = p**t
        for n in range(1, min(pt, max_n + 1)):
            lhs = 2 * binom_exact(2 * n - 1, n) % p
            rhs = _neg4_pow(n, p) * binom_exact((pt - 1) // 2, n) % p
            chk.record(lhs == rhs, (t, n))

    # C[n] = 2 * (-4)^n * binom((p^t + 1)/2, n+1) mod p, 0 <= n < p^t - 1.
    chk = out.setdefault("catalan_binom", IdentityCheck("catalan_binom"))
    for t in range(1, 2 * e + 1):
        pt = p**t
        for n in range(min(pt - 1, max_n + 1)):
            lhs = catalan(n) % p
            rhs = 2 * _neg4_pow(n, p) * binom_exact((pt + 1) // 2, n + 1) % p
            chk.record(lhs == rhs, (t, n))

    # Exact integer identity: T'[n,k] - T'[n+1,k-1] = 2 * binom(2k-1, k) * C[n].
    chk = out.setdefault("gen_catalan_diff", IdentityCheck("gen_catalan_diff"))
    for n in range(EXACT_CAP + 1):
        for k in range(1, EXACT_CAP + 1):
            lhs = gen_catalan_exact(n, k) - gen_catalan_exact(n + 1, k - 1)
            rhs = 2 * binom_exact(2 * k - 1, k) * catalan(n)
            chk.record(lhs == rhs, (n, k))

    # C[kq+n] = T'[n,k] - T'[n+1,k-1] mod p, 0 <= n < q-1, 0 <= k < q.
    chk = out.setdefault("catalan_block", IdentityCheck("catalan_block"))
    for k in range(min(q, cap)):
        for n in range(min(q - 1, cap)):
            lhs = catalan(k * q + n) % p
            rhs = (gen_catalan_exact(n, k) - gen_catalan_exact(n + 1, k - 1)) % p
            chk.record(lhs == rhs, (n, k))

    # C[j(q-1)+i] = 0 mod p for 0 <= i < i+1 < j <= (q-1)/2.
    chk = out.setdefault("catalan_zero", IdentityCheck("catalan_zero"))
    for j in range(min((q - 1) // 2, cap) + 1):
        for i in range(max(j - 1, 0)):
            chk.record(catalan(j * (q - 1) + i) % p == 0, (i, j))

    return out
