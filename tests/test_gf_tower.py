import numpy as np
import pytest

from hughesptr import FieldCtx, field_ctx
from hughesptr.gf_tower import _poly_rem, is_odd_prime
from conftest import random_elements


def test_params_validation():
    with pytest.raises(ValueError):
        FieldCtx(2, 1)
    with pytest.raises(ValueError):
        FieldCtx(4, 1)
    with pytest.raises(ValueError):
        FieldCtx(9, 1)
    with pytest.raises(ValueError):
        FieldCtx(3, 0)
    ctx = FieldCtx(3, 2)
    assert ctx.q == 9 and ctx.Q == 81 and ctx.params == (3, 2)


def test_is_odd_prime_by_trial_division():
    odd_primes = [n for n in range(3, 400, 2) if all(n % d for d in range(3, n, 2))]
    assert [n for n in range(-9, 400) if is_odd_prime(n)] == odd_primes


def test_canonical_moduli():
    # least irreducibles, coefficients read low-degree-first as base-p digits
    assert field_ctx(3, 1).base_modulus == (0, 1)
    assert field_ctx(3, 2).base_modulus == (1, 0, 1)  # x^2 + 1 over GF(3)
    # the extension defect is a genuine non-square of GF(q)
    for p, e in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        ctx = field_ctx(p, e)
        n = ctx.ext_nonresidue_index
        assert ctx._q_pow(n, (ctx.q - 1) // 2) == ctx._q_neg[1]
        for smaller in range(1, n):
            assert ctx._q_pow(smaller, (ctx.q - 1) // 2) == 1


def test_base_modulus_irreducible_by_roots():
    # degree-2 modulus over GF(3) has no roots
    ctx = field_ctx(3, 2)
    c0, c1, c2 = ctx.base_modulus
    for r in range(3):
        assert (c0 + c1 * r + c2 * r * r) % 3 != 0


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


@pytest.mark.parametrize("p,e", [
    (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (23, 1),
    (3, 2), (5, 2), (7, 2), (11, 2), (3, 4), (3, 5),
])
def test_subfield_tables_match_polynomial_products(p, e):
    # every q <= 243 the suite builds, and q = 121: the vectorized GF(q) tables
    # against one digit-vector sum, negation and reduced product per pair
    ctx = field_ctx(p, e)
    q = ctx.q
    digits = [tuple(i // p**k % p for k in range(e)) for i in range(q)]

    def undigits(cs):
        return sum(c * p**k for k, c in enumerate(cs))

    assert ctx._q_add == [[undigits((x + y) % p for x, y in zip(da, db)) for db in digits] for da in digits]
    assert ctx._q_neg == [undigits(-x % p for x in da) for da in digits]
    assert ctx._q_mul == [
        [undigits(_poly_rem(_poly_mul(da, db, p), ctx.base_modulus, p)) for db in digits]
        for da in digits
    ]


def test_additive_identities(ctx9):
    els = ctx9.enumerate_field()
    for a in els:
        assert a + ctx9.zero == a
        assert a + (-a) == ctx9.zero
    one = ctx9.one
    assert one + one + one == ctx9.zero  # characteristic 3


def test_field_axioms_exhaustive_q9(ctx9):
    els = ctx9.enumerate_field()
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
    for a in els:
        for b in els:
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2)])
def test_field_axioms_random_triples(p, e):
    ctx = field_ctx(p, e)
    els = random_elements(ctx, 90, seed=p * 10 + e)
    for a, b, c in zip(els[:30], els[30:60], els[60:]):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_mul_inv_pow(ctx9):
    for a in ctx9.enumerate_field():
        assert a * ctx9.one == a
        if a.index:
            assert a * a.inv() == ctx9.one
            assert ctx9.pow(a, ctx9.Q - 1) == ctx9.one
    with pytest.raises(ZeroDivisionError):
        ctx9.zero.inv()


def test_context_mismatch_rejected(ctx9, ctx25):
    with pytest.raises(ValueError):
        ctx9.one + ctx25.one


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_frobenius(p, e):
    ctx = field_ctx(p, e)
    w = ctx.element_from_index(ctx.q)
    assert ctx.frobenius_q(w) == ctx.pow(w, ctx.q) == -w
    for x in ctx.enumerate_field():
        fx = ctx.frobenius_q(x)
        assert fx == ctx.pow(x, ctx.q)  # sign-flip shortcut vs generic power
        assert ctx.frobenius_q(fx) == x  # order 2
        if ctx.in_subfield(x):
            assert fx == x


def test_trace(ctx9):
    for c in ctx9.subfield_elements():
        assert ctx9.trace_sub(c) == c + c
    w = ctx9.element_from_index(ctx9.q)
    assert ctx9.trace_sub(w) == ctx9.zero
    for x in ctx9.enumerate_field():
        tr = ctx9.trace_sub(x)
        assert ctx9.in_subfield(tr)
        assert ctx9.frobenius_q(tr) == tr


def test_t_n(ctx9):
    q = ctx9.q
    for x in ctx9.enumerate_field():
        tq = ctx9.t_n(x, q)
        assert tq == ctx9.t_q(x)
        assert (tq == ctx9.zero) == ctx9.in_subfield(x)
        for c in ctx9.subfield_elements():
            assert ctx9.t_q(x + c) == tq  # kernel GF(q)
            assert ctx9.t_q(c * x) == c * tq  # GF(q)-semilinearity
    with pytest.raises(ValueError):
        ctx9.t_n(ctx9.one, 0)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)])
def test_quad_char(p, e):
    ctx = field_ctx(p, e)
    Q = ctx.Q
    assert ctx.quad_char(ctx.zero) == 0
    vals = [ctx.quad_char(x) for x in ctx.enumerate_field()]
    assert vals.count(1) == (Q - 1) // 2
    assert vals.count(-1) == (Q - 1) // 2
    for x in ctx.enumerate_field():
        # matches the defining power x^((Q-1)/2)
        power = ctx.pow(x, (Q - 1) // 2)
        expected = {ctx.zero: 0, ctx.one: 1, -ctx.one: -1}[power]
        assert ctx.quad_char(x) == expected
        if x.index:
            assert ctx.quad_char(x * x) == 1
    assert ctx.quad_char(-ctx.one) == 1  # -1 is always a square in GF(q^2)
    assert ctx.quad_char(ctx.one + ctx.one) == 1  # so is 2


def test_quad_char_multiplicative(ctx9):
    for x in ctx9.enumerate_field():
        for y in ctx9.enumerate_field():
            assert ctx9.quad_char(x * y) == ctx9.quad_char(x) * ctx9.quad_char(y)


def test_enumeration_round_trip(ctx9):
    els = ctx9.enumerate_field()
    assert len(els) == ctx9.Q
    assert els[0] == ctx9.zero and els[1] == ctx9.one
    for i, x in enumerate(els):
        assert ctx9.index_of(ctx9.element_from_index(i)) == i
        assert x.index == i
    with pytest.raises(IndexError):
        ctx9.element_from_index(ctx9.Q)
    with pytest.raises(IndexError):
        ctx9.element_from_index(-1)


def test_coeffs_digits(ctx81):
    x = ctx81.element_from_index(47)
    digits = x.coeffs
    assert len(digits) == 2 * ctx81.e
    assert all(0 <= d < ctx81.p for d in digits)
    assert sum(d * ctx81.p**i for i, d in enumerate(digits)) == 47


def test_int_coercion(ctx9):
    x = ctx9.element_from_index(5)
    assert x * 1 == x
    assert x + 0 == x
    assert x * 2 == x + x
    assert 1 - x == ctx9.one - x


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_vector_tables_bit_identical(p, e):
    ctx = field_ctx(p, e)
    t = ctx.tables
    Q = ctx.Q
    ar = np.arange(Q)
    A, B = np.meshgrid(ar, ar, indexing="ij")
    vadd, vmul = t.add(A, B), t.mul(A, B)
    for i in range(Q):
        for j in range(Q):
            assert vadd[i, j] == ctx._add_i(i, j)
            assert vmul[i, j] == ctx._mul_i(i, j)
    # one direction of each pair {a, -a}: together they cover every nonzero a once
    reps = t.shift_reps
    assert len(reps) == (Q - 1) // 2 and (reps < t.neg[reps]).all()
    assert sorted(np.concatenate([reps, t.neg[reps]]).tolist()) == list(range(1, Q))
    for n in (0, 1, 2, ctx.q, Q - 1, Q + 3):
        vp = t.pow(ar, n)
        for i in range(Q):
            assert vp[i] == ctx._pow_i(i, n)
    for i in range(Q):
        assert t.neg[i] == ctx._neg_i(i)
        assert t.frob[i] == ctx._frob_i(i)
        assert t.tq[i] == ctx._tq_i(i)
        assert t.quad[i] == ctx.quad_char(ctx.element_from_index(i))
        if i:
            assert t.inv[i] == ctx._inv_i(i)


@pytest.mark.parametrize("p,e", [(3, 2), (7, 2), (3, 4)])
def test_quad_char_norm_matches_log_parity(p, e):
    # scalar: the character of the norm in GF(q); vector: the parity of the log
    ctx = field_ctx(p, e)
    scalar = [ctx.quad_char(x) for x in ctx.enumerate_field()]
    assert ctx.tables.quad.tolist() == scalar


def test_vector_tables_random_large(ctx81):
    t = ctx81.tables
    rng = np.random.default_rng(3)
    A = rng.integers(0, ctx81.Q, 400)
    B = rng.integers(0, ctx81.Q, 400)
    vadd, vmul, vsub = t.add(A, B), t.mul(A, B), t.sub(A, B)
    for i in range(400):
        assert vadd[i] == ctx81._add_i(int(A[i]), int(B[i]))
        assert vmul[i] == ctx81._mul_i(int(A[i]), int(B[i]))
        assert vsub[i] == ctx81._add_i(int(A[i]), ctx81._neg_i(int(B[i])))


@pytest.mark.parametrize("p,e", [(3, 2), (13, 1)])
def test_packed_add_sub_exhaustive(p, e):
    # every pair at Q = 81 and 169: the packed digit sums against the scalar
    # tower, which shares no table with them
    ctx = field_ctx(p, e)
    t = ctx.tables
    ar = np.arange(ctx.Q, dtype=np.int32)
    vadd, vsub = t.add(ar[:, None], ar[None, :]), t.sub(ar[:, None], ar[None, :])
    add_i, neg_i = ctx._add_i, ctx._neg_i
    assert vadd.tolist() == [[add_i(i, j) for j in range(ctx.Q)] for i in range(ctx.Q)]
    assert vsub.tolist() == [[add_i(i, neg_i(j)) for j in range(ctx.Q)] for i in range(ctx.Q)]


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_vector_ops_reject_an_index_past_the_field(ctx9, op):
    # the gathers raise IndexError as indexing does (a clipping gather would
    # return a wrong element), and a negative index wraps as it does there
    t, Q = ctx9.tables, ctx9.Q
    f = getattr(t, op)
    for A, B in [(Q, 0), (0, Q), (np.arange(Q + 1), 1), (1, np.array([[3], [Q + 3]], dtype=np.int32))]:
        with pytest.raises(IndexError):
            f(A, B)
    assert f(-1, np.arange(Q)).tolist() == f(Q - 1, np.arange(Q)).tolist()


@pytest.mark.parametrize("p,e", [(7, 2), (3, 4)])
def test_large_q_tower_add(p, e):
    # Q = 2401 and 6561, past the reach of the exhaustive table tests
    ctx = field_ctx(p, e)
    t = ctx.tables
    rng = np.random.default_rng(5)
    A = rng.integers(0, ctx.Q, 200)
    B = rng.integers(0, ctx.Q, 200)
    vadd, vsub = t.add(A, B), t.sub(A, B)
    assert vadd.dtype == vsub.dtype == np.int32
    for i in range(200):
        assert vadd[i] == ctx._add_i(int(A[i]), int(B[i]))
        assert vsub[i] == ctx._add_i(int(A[i]), ctx._neg_i(int(B[i])))
    assert np.array_equal(t.add(A[:20, None], B[None, :20]).diagonal(), vadd[:20])


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_poly_matches_scalar_sum_exhaustive(p, e):
    # every V and every exponent below 2Q + 2, against sum c * _pow_i; 0^0 = 1
    ctx = field_ctx(p, e)
    t, Q = ctx.tables, ctx.Q
    V = np.arange(Q)
    ns = range(2 * Q + 2)
    pows = [[ctx._pow_i(v, n) for v in range(Q)] for n in ns]

    def scalar(exps, coeffs):
        out = [0] * Q
        for n, c in zip(exps, coeffs):
            out = [ctx._add_i(s, ctx._mul_i(c, x)) for s, x in zip(out, pows[n])]
        return out

    for n in ns:
        c = (5 * n + 2) % Q
        assert t.poly([n], [c], V).tolist() == scalar([n], [c]), n
    assert t.poly([0], [1], V).tolist() == [1] * Q
    assert t.poly([0, Q], [1, 0], V).tolist() == [1] * Q
    empty = t.poly([], [], V)
    assert empty.dtype == np.int32 and empty.tolist() == [0] * Q
    # sums with repeated exponents (each one twice) and zero coefficients
    rng = np.random.default_rng(Q)
    for _ in range(20):
        exps = np.repeat(rng.choice(ns, 4), 2)
        coeffs = rng.integers(0, Q, len(exps))
        coeffs[::3] = 0
        got = t.poly(exps, coeffs, V)
        assert got.dtype == np.int32
        assert got.tolist() == scalar(exps.tolist(), coeffs.tolist())
    # the result takes the shape of V
    grid = t.poly([2, Q + 1, 0], [3, 1, Q - 1], np.broadcast_to(V[:, None], (Q, 3)))
    assert grid.shape == (Q, 3)
    assert (grid.T == scalar([2, Q + 1, 0], [3, 1, Q - 1])).all()


@pytest.mark.parametrize("n", [2**62, 10**18 + 7, 2**70])
def test_vector_pow_huge_exponent(n):
    # log * n once wrapped int64 (2**62, 10**18+7) or overflowed (2**70) at Q = 6561
    ctx = field_ctx(3, 4)
    A = np.arange(0, ctx.Q, 33)
    got = ctx.tables.pow(A, n)
    assert got.dtype == np.int32
    assert got.tolist() == [ctx._pow_i(int(a), n) for a in A]
