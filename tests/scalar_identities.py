"""The scalar reference for ``hughesptr.modcomb``.

``lucas_scalar`` is Lucas' theorem one base-p digit at a time, and
``identity_suite_scalar`` runs every identity sweep one instance at a time:
the Lucas sweep against exact big-integer rows of Pascal's triangle, the
central split against one exact row of binom((Q+1)/2, k)
(``binom_row_mod``: q^2 calls of ``math.comb`` on (Q+1)/2 took 5.3 s of
5.7 s at q = 127), and the other sweeps on ``binom_exact`` and
``gen_catalan_exact``.  The array kernel and the batched sweeps of
``modcomb`` are held to them; nothing here calls ``modcomb``'s array code.

Both take faults for the negative controls: ``digit(a, b)`` replaces
``math.comb`` on the digits, ``pascal_fault`` = (a, b) adds 1 mod p to one
entry of the triangle, the big-integer helpers are looked up on ``modcomb``
at call time, so a monkeypatched ``binom_exact`` or ``_catalan_run`` reaches
both suites, and ``binom_row_mod`` is looked up on this module at call time,
so a wrong binomial can be put into the oracle's row as well.
"""

import math
from operator import add

from hughesptr import modcomb


def lucas_scalar(alpha: int, beta: int, p: int, digit=math.comb) -> int:
    """binom(alpha, beta) mod p as the product of base-p digit binomials."""
    if beta < 0 or alpha < 0:
        return 0
    r = 1
    while beta or alpha:
        ad, bd = alpha % p, beta % p
        if bd > ad:
            return 0
        r = r * digit(ad, bd) % p
        alpha //= p
        beta //= p
    return r


def binom_row_mod(n: int, upto: int, p: int) -> list[int]:
    """binom(n, k) mod p for k = 0 .. upto, from one run of the exact
    big-integer recurrence binom(n, k+1) = binom(n, k) (n-k) / (k+1), each
    term reduced only when stored (0 past k = n)."""
    row, c = [], 1
    for k in range(upto + 1):
        row.append(c % p)
        c = c * (n - k) // (k + 1)
    return row


class _Check:
    def __init__(self):
        self.passed, self.checked, self.witness = True, 0, None

    def record(self, ok: bool, where: tuple) -> None:
        self.checked += 1
        if not ok and self.passed:
            self.passed, self.witness = False, where


def identity_suite_scalar(p: int, e: int, max_n: int, digit=math.comb, pascal_fault=None) -> dict:
    """{label: (passed, checked, witness)}, one instance at a time."""
    binom_exact, gen_catalan_exact = modcomb.binom_exact, modcomb.gen_catalan_exact
    q = p**e
    Q = q * q
    cap = max_n + 1
    catalan = modcomb._catalan_run()
    checks = {label: _Check() for label in (
        "lucas", "central_binom_split", "doubled_binom", "catalan_binom",
        "gen_catalan_diff", "catalan_block", "catalan_zero")}

    chk = checks["lucas"]
    row = [1]
    for a in range(max_n + 1):
        if a:
            row = [1, *map(add, row, row[1:]), 1]
        for b, exact in enumerate(row):
            residue = (exact + ((a, b) == pascal_fault)) % p
            chk.record(lucas_scalar(a, b, p, digit) == residue, (a, b))

    chk = checks["central_binom_split"]
    top = min(q, cap) - 1
    half_row = binom_row_mod((Q + 1) // 2, top * q + top, p)
    for a in range(min(q, cap)):
        for b in range(min(q, cap)):
            lhs = half_row[a * q + b]
            rhs = binom_exact((q - 1) // 2, a) * binom_exact((q + 1) // 2, b) % p
            chk.record(lhs == rhs, (a, b))

    chk = checks["doubled_binom"]
    for t in range(1, 2 * e + 1):
        pt = p**t
        for n in range(1, min(pt, max_n + 1)):
            lhs = 2 * binom_exact(2 * n - 1, n) % p
            rhs = pow(-4 % p, n, p) * binom_exact((pt - 1) // 2, n) % p
            chk.record(lhs == rhs, (t, n))

    chk = checks["catalan_binom"]
    for t in range(1, 2 * e + 1):
        pt = p**t
        for n in range(min(pt - 1, max_n + 1)):
            lhs = catalan(n) % p
            rhs = 2 * pow(-4 % p, n, p) * binom_exact((pt + 1) // 2, n + 1) % p
            chk.record(lhs == rhs, (t, n))

    chk = checks["gen_catalan_diff"]
    for n in range(modcomb.EXACT_CAP + 1):
        for k in range(1, modcomb.EXACT_CAP + 1):
            lhs = gen_catalan_exact(n, k) - gen_catalan_exact(n + 1, k - 1)
            rhs = 2 * binom_exact(2 * k - 1, k) * catalan(n)
            chk.record(lhs == rhs, (n, k))

    chk = checks["catalan_block"]
    for k in range(min(q, cap)):
        for n in range(min(q - 1, cap)):
            lhs = catalan(k * q + n) % p
            rhs = (gen_catalan_exact(n, k) - gen_catalan_exact(n + 1, k - 1)) % p
            chk.record(lhs == rhs, (n, k))

    chk = checks["catalan_zero"]
    for j in range(min((q - 1) // 2, cap) + 1):
        for i in range(max(j - 1, 0)):
            chk.record(catalan(j * (q - 1) + i) % p == 0, (i, j))

    return {label: (c.passed, c.checked, c.witness) for label, c in checks.items()}
