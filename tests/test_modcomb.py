import math

import pytest

from hughesptr.modcomb import (
    _catalan_run,
    binom_exact,
    binom_mod_lucas,
    catalan_exact,
    catalan_mod,
    gen_catalan_exact,
    gen_catalan_mod,
    identity_suite,
)

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


@pytest.mark.parametrize("p", PRIMES)
def test_lucas_matches_exact(p):
    for a in range(301):
        for b in range(a + 1):
            assert binom_mod_lucas(a, b, p) == math.comb(a, b) % p


def test_catalan_exact_values():
    assert catalan_exact(0) == 1
    assert catalan_exact(1) == 1
    assert catalan_exact(3) == 5
    assert catalan_exact(12) == 208012
    assert catalan_exact(12) % 7 == 0  # = 7 * 29716


@pytest.mark.parametrize("p", PRIMES)
def test_catalan_mod_matches_exact(p):
    for n in range(301):
        assert catalan_mod(n, p) == catalan_exact(n) % p


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


def test_identity_suite_detects_violation():
    # sanity: the harness records witnesses, not just counts
    suite = identity_suite(3, 1, max_n=20)
    chk = suite["lucas"]
    chk.record(False, (99, 1))
    assert not chk.passed and chk.witness == (99, 1)
