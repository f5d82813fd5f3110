import collections
import math

import numpy as np
import pytest

from hughesptr import modcomb
from hughesptr.modcomb import (
    _catalan_run,
    binom_exact,
    binom_mod_lucas,
    catalan_exact,
    catalan_mod,
    central_binoms,
    gen_catalan_exact,
    gen_catalan_mod,
    identity_suite,
)
import scalar_identities
from scalar_identities import identity_suite_scalar, lucas_scalar

PRIMES = [3, 5, 7, 11, 13]


def test_binom_exact_basics():
    assert binom_exact(0, 0) == 1
    assert binom_exact(6, 3) == 20
    assert binom_exact(4, -1) == 0
    assert binom_exact(-2, 1) == 0
    assert binom_exact(3, 5) == 0


def test_lucas_spot_values():
    # 10 = (101)_3, 4 = (011)_3: the middle digit pair gives a zero factor
    assert binom_mod_lucas(10, 4, 3) == 0
    assert binom_exact(10, 4) == 210 and 210 % 3 == 0
    for a in (0, 5, 17):
        for p in PRIMES:
            assert binom_mod_lucas(a, 0, p) == 1
            assert binom_mod_lucas(a, a, p) == 1


def _triangle(n):
    """(a, b) for 0 <= b <= a <= n, row by row."""
    a = np.repeat(np.arange(n + 1), np.arange(1, n + 2))
    return a, np.arange(a.size) - a * (a + 1) // 2


@pytest.mark.parametrize("p", PRIMES)
def test_lucas_matches_exact(p):
    # the array kernel on the whole triangle against the scalar digit loop
    # and against math.comb
    a, b = _triangle(300)
    got = binom_mod_lucas(a, b, p)
    assert got.dtype == np.int64 and got.shape == a.shape
    assert got.tolist() == [lucas_scalar(x, y, p) for x, y in zip(a.tolist(), b.tolist())]
    assert got.tolist() == [math.comb(x, y) % p for x, y in zip(a.tolist(), b.tolist())]
    # b > a and negative arguments, broadcast against a column of a
    col = np.arange(-3, 40)[:, None]
    row = np.arange(-3, 60)[None, :]
    want = [[lucas_scalar(x, y, p) for y in range(-3, 60)] for x in range(-3, 40)]
    assert binom_mod_lucas(col, row, p).tolist() == want


@pytest.mark.parametrize("p", PRIMES)
def test_lucas_ints_in_int_out(p):
    for a, b in [(0, 0), (10, 4), (300, 150), (p**4 + 3, p**2), (5, -1), (-2, 1), (-1, -1), (3, 7)]:
        got = binom_mod_lucas(a, b, p)
        assert type(got) is int and got == lucas_scalar(a, b, p)
    got = catalan_mod(12, p)
    assert type(got) is int and got == catalan_exact(12) % p
    assert catalan_mod(-1, p) == 0


@pytest.mark.parametrize("p", PRIMES)
def test_block_table_is_pascal(p):
    # k digits per pass: B = p^k with B^2 <= _BLOCK_ENTRIES, and every entry
    # is binom(A, C) mod p
    size, table = modcomb._block_table(p)
    assert size == {3: 27, 5: 25, 7: 49, 11: 11, 13: 13}[p]
    assert not table.flags.writeable
    assert table.reshape(size, size).tolist() == [
        [math.comb(a, c) % p for c in range(size)] for a in range(size)]


@pytest.mark.parametrize("p", PRIMES)
def test_lucas_at_block_boundaries(p):
    # arguments around B, B^2 and B^3, where the number of passes changes,
    # against the one-digit-at-a-time scalar loop
    size, _ = modcomb._block_table(p)
    edges = [-2, -1, 0, 1, p - 1, p, p + 1]
    edges += [s + d for s in (size, size**2, size**3) for d in (-2, -1, 0, 1, 2)]
    col, row = np.array(edges)[:, None], np.array(edges)[None, :]
    want = [[lucas_scalar(x, y, p) for y in edges] for x in edges]
    assert binom_mod_lucas(col, row, p).tolist() == want
    for x, want_row in zip(edges, want):
        assert binom_mod_lucas(x, np.array(edges), p).tolist() == want_row
        for y in edges:
            got = binom_mod_lucas(x, y, p)
            assert type(got) is int and got == lucas_scalar(x, y, p)


@pytest.mark.parametrize("p", PRIMES)
def test_lucas_at_the_int32_boundary(p):
    # the passes run in int32 up to a largest argument of 2^31 - 1 and in
    # int64 from 2^31 on; int32 and int64 arguments give the same int64 result
    edges = [0, 1, p, 2**16 + 3, 2**31 - 2, 2**31 - 1]
    want = [[lucas_scalar(x, y, p) for y in edges] for x in edges]
    for dtype in (np.int32, np.int64):
        col, row = np.array(edges, dtype=dtype)[:, None], np.array(edges, dtype=dtype)[None, :]
        got = binom_mod_lucas(col, row, p)
        assert got.dtype == np.int64 and got.tolist() == want
    for wide in (edges + [2**31, 2**31 + 1, 2**32 - 1], edges + [2**40 + 5]):
        got = binom_mod_lucas(np.array(wide)[:, None], np.array(wide)[None, :], p)
        assert got.dtype == np.int64
        assert got.tolist() == [[lucas_scalar(x, y, p) for y in wide] for x in wide]
    assert binom_mod_lucas(np.array(edges, dtype=np.int32), 2**31, p).tolist() == [
        lucas_scalar(x, 2**31, p) for x in edges]


def test_block_table_follows_digit_table(monkeypatch):
    # the block table is cached on the digit table's contents: a wrong digit
    # patched in after a call with the real table still reaches the kernel
    a, b = _triangle(120)
    good = binom_mod_lucas(a, b, 7)
    bad = _wrong_digit_table(7, 4, 2)
    monkeypatch.setattr(modcomb, "_digit_table", lambda p: bad)
    got = binom_mod_lucas(a, b, 7)
    assert (got != good).any()
    assert got.tolist() == [lucas_scalar(x, y, 7, digit=lambda u, v: int(bad[u, v]))
                            for x, y in zip(a.tolist(), b.tolist())]


def test_catalan_exact_values():
    assert catalan_exact(0) == 1
    assert catalan_exact(1) == 1
    assert catalan_exact(3) == 5
    assert catalan_exact(12) == 208012
    assert catalan_exact(12) % 7 == 0  # = 7 * 29716


@pytest.mark.parametrize("p", PRIMES)
def test_catalan_mod_matches_exact(p):
    got = catalan_mod(np.arange(-2, 301), p)
    assert got.tolist() == [0, 0] + [catalan_exact(n) % p for n in range(301)]


def test_catalan_recurrence():
    for n in range(60):
        conv = sum(catalan_exact(i) * catalan_exact(n - i) for i in range(n + 1))
        assert catalan_exact(n + 1) == conv


def test_gen_catalan_values():
    for n in range(40):
        assert gen_catalan_exact(n, 0) == catalan_exact(n)
    assert gen_catalan_exact(1, 1) == 4
    assert gen_catalan_exact(2, -1) == 0
    assert gen_catalan_exact(-1, 2) == 0
    for n in range(25):
        for k in range(25):
            v = gen_catalan_exact(n, k)  # raises if not an integer
            assert v > 0
            for p in PRIMES:
                assert gen_catalan_mod(n, k, p) == v % p


def test_central_binoms_feed_gen_catalan():
    central = central_binoms(70)
    assert central == [math.comb(2 * m, m) for m in range(70)]
    for n in range(-1, 35):
        for k in range(-1, 35):
            assert gen_catalan_exact(n, k, central) == gen_catalan_exact(n, k)


def test_difference_identity_spot():
    # T'[1,1] - T'[2,0] = 4 - 2 = 2 = 2 * binom(1,1) * C[1]
    assert gen_catalan_exact(1, 1) - gen_catalan_exact(2, 0) == 2
    assert 2 * binom_exact(1, 1) * catalan_exact(1) == 2


def test_catalan_run_matches_exact():
    # the sweeps' recurrence against binom(2n, n) / (n + 1), read out of order
    catalan = _catalan_run()
    indices = [5, 0, 300, 17, 299, 1, 1200]
    assert [catalan(n) for n in indices] == [catalan_exact(n) for n in indices]
    assert [catalan(n) for n in range(301)] == [catalan_exact(n) for n in range(301)]


def test_catalan_binomial_spot():
    # C[2] = 2 and 2 * (-4)^2 * binom((3^2+1)/2, 3) = 320 = 2 mod 3
    assert catalan_exact(2) == 2
    assert 2 * 16 * binom_exact(5, 3) == 320
    assert 320 % 3 == 2


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 1), (7, 1), (11, 1)])
def test_identity_suite_all_pass(p, e):
    suite = identity_suite(p, e, max_n=120)
    for label, chk in suite.items():
        assert chk.passed, f"{label} failed at {chk.witness}"
    # every non-vacuous sweep actually ran
    assert suite["lucas"].checked > 0
    assert suite["central_binom_split"].checked == (p**e) ** 2
    assert suite["gen_catalan_diff"].checked > 0
    if (p**e - 1) // 2 >= 2:
        assert suite["catalan_zero"].checked > 0


def _summary(suite):
    return {label: (chk.passed, chk.checked, chk.witness) for label, chk in suite.items()}


@pytest.mark.parametrize("p,e,max_n", [(3, 1, 60), (3, 2, 300), (5, 1, 130), (7, 1, 61), (5, 2, 400),
                                       (13, 1, 20), (3, 3, 2)])
def test_identity_suite_matches_scalar_sweep(p, e, max_n):
    assert _summary(identity_suite(p, e, max_n)) == identity_suite_scalar(p, e, max_n)


@pytest.mark.parametrize("p,dtype", [(127, np.uint8), (131, np.int64)])
def test_identity_suite_at_the_pascal_dtype_boundary(p, dtype):
    # p = 127 is the largest prime whose row sums, up to 252, fit uint8
    assert next(modcomb._pascal_chunks(300, p, 1 << 16))[2].dtype == dtype
    assert _summary(identity_suite(p, 1, 300)) == identity_suite_scalar(p, 1, 300)


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_lucas_sweep_chunking_keeps_counts_and_witness(monkeypatch, chunk):
    monkeypatch.setattr(modcomb, "_LUCAS_CHUNK", chunk)
    assert _summary(identity_suite(5, 1, 40)) == identity_suite_scalar(5, 1, 40)
    bad = _wrong_digit_table(5, 3, 1)
    monkeypatch.setattr(modcomb, "_digit_table", lambda p: bad)
    got = identity_suite(5, 1, 40)["lucas"]
    assert (got.passed, got.checked, got.witness) == identity_suite_scalar(
        5, 1, 40, digit=lambda a, b: int(bad[a, b]))["lucas"]


def _wrong_digit_table(p, a, b):
    table = modcomb._digit_table(p).copy()
    table[a, b] = (table[a, b] + 1) % p
    return table


def test_identity_suite_detects_violation(monkeypatch):
    # one wrong digit binomial in the kernel's table: the Lucas sweep fails at
    # the scalar oracle's first witness, given the same wrong digit, and
    # nothing else moves
    for p, a, b in [(3, 2, 1), (5, 3, 1), (7, 6, 6), (7, 4, 0)]:
        bad = _wrong_digit_table(p, a, b)
        want = identity_suite_scalar(p, 1, 400, digit=lambda x, y: int(bad[x, y]))
        assert not want["lucas"][0]
        with monkeypatch.context() as patch:
            patch.setattr(modcomb, "_digit_table", lambda p: bad)
            assert _summary(identity_suite(p, 1, 400)) == want


@pytest.mark.parametrize("fault", [(0, 0), (10, 4), (380, 17), (400, 400)])
def test_identity_suite_detects_wrong_pascal_residue(monkeypatch, fault):
    # one wrong residue of Pascal's triangle, in the first chunk, the second
    # or the last entry, on the uint8 entries of p = 3: the sweep fails with
    # the oracle's witness
    real = modcomb._pascal_chunks

    def corrupted(max_n, p, size):
        for a, b, entry in real(max_n, p, size):
            assert entry.dtype == np.uint8 and a.dtype == b.dtype == np.int32
            hit = (a == fault[0]) & (b == fault[1])
            yield a, b, np.where(hit, (entry + 1) % p, entry)

    monkeypatch.setattr(modcomb, "_pascal_chunks", corrupted)
    want = identity_suite_scalar(3, 1, 400, pascal_fault=fault)
    assert want["lucas"] == (False, 401 * 402 // 2, fault)
    assert _summary(identity_suite(3, 1, 400)) == want


@pytest.mark.parametrize("p,e,n,k", [(3, 2, 41, 20), (3, 2, 5, 2), (5, 1, 13, 4), (3, 2, 4, 1)])
def test_identity_suite_detects_wrong_binomial(monkeypatch, p, e, n, k):
    # one wrong big-integer binomial, the same in the exact rows, in the
    # oracle's row and in the oracle's binom_exact: every sweep reading it
    # fails at the same witness
    real_row, real_exact = modcomb._binom_row, modcomb.binom_exact
    real_oracle_row = scalar_identities.binom_row_mod

    def row(m, upto, p):
        out = real_row(m, upto, p)
        if m == n and k <= upto:
            out[k] = (out[k] + 1) % p
        return out

    def oracle_row(m, upto, p):
        out = real_oracle_row(m, upto, p)
        if m == n and k <= upto:
            out[k] = (out[k] + 1) % p
        return out

    monkeypatch.setattr(modcomb, "binom_exact", lambda m, j: real_exact(m, j) + ((m, j) == (n, k)))
    monkeypatch.setattr(scalar_identities, "binom_row_mod", oracle_row)
    want = identity_suite_scalar(p, e, 300)
    assert not all(passed for passed, _, _ in want.values())
    monkeypatch.setattr(modcomb, "binom_exact", real_exact)
    monkeypatch.setattr(modcomb, "_binom_row", row)
    assert _summary(identity_suite(p, e, 300)) == want


def test_binom_row_matches_exact():
    for n in (0, 1, 5, 41, 200):
        for p in PRIMES:
            assert modcomb._binom_row(n, n + 3, p).tolist() == [binom_exact(n, k) % p for k in range(n + 4)]
            assert modcomb._binom_row(n, n // 2, p).tolist() == [binom_exact(n, k) % p for k in range(n // 2 + 1)]
            assert scalar_identities.binom_row_mod(n, n + 3, p) == [math.comb(n, k) % p for k in range(n + 4)]


@pytest.mark.parametrize("p,e,max_n,n", [(3, 2, 300, 5), (3, 2, 300, 17), (3, 2, 300, 40), (5, 1, 130, 0),
                                         (5, 1, 130, 23), (7, 2, 200, 61)])
def test_identity_suite_detects_wrong_catalan(monkeypatch, p, e, max_n, n):
    # one wrong Catalan number C[n] in the run both suites read: every sweep
    # reading it fails at the oracle's witness, and the central binomials and
    # T' values, which do not come from the run, stay right
    real = modcomb._catalan_run

    def run():
        catalan = real()
        return lambda m: catalan(m) + (m == n)

    monkeypatch.setattr(modcomb, "_catalan_run", run)
    want = identity_suite_scalar(p, e, max_n)
    assert not all(passed for passed, _, _ in want.values())
    assert _summary(identity_suite(p, e, max_n)) == want


def test_identity_suite_computes_each_gen_catalan_once(monkeypatch):
    calls = collections.Counter()
    real = modcomb._gen_catalan

    def counted(n, k, central):
        calls[n, k] += 1
        return real(n, k, central)

    monkeypatch.setattr(modcomb, "_gen_catalan", counted)
    assert all(chk.passed for chk in identity_suite(7, 2, 1000).values())
    assert calls and max(calls.values()) == 1
