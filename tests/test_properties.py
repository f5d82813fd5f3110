"""Property tests at orders the exhaustive tests cannot reach (Q = 2401, 6561)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hughesptr import field_ctx

LARGE = [(7, 2), (3, 4)]


def _elements(ctx):
    return st.integers(min_value=0, max_value=ctx.Q - 1)


@pytest.mark.parametrize("p,e", LARGE)
def test_mul_matrix_applies_multiplication(p, e):
    # the table product agrees with the scalar product
    ctx = field_ctx(p, e)
    t = ctx.tables

    @settings(max_examples=300, deadline=None)
    @given(_elements(ctx), _elements(ctx))
    def check(c, v):
        assert t.mul(c, v) == ctx._mul_i(c, v)
        assert t.mul(v, c) == ctx._mul_i(c, v)

    check()


@pytest.mark.parametrize("p,e", LARGE)
def test_add_sub_pow_match_scalar_path(p, e):
    ctx = field_ctx(p, e)
    t = ctx.tables

    @settings(max_examples=300, deadline=None)
    @given(_elements(ctx), _elements(ctx), st.integers(min_value=0, max_value=2**80))
    def check(a, b, n):
        assert t.add(a, b) == ctx._add_i(a, b)
        assert t.sub(a, b) == ctx._add_i(a, ctx._neg_i(b))
        assert t.pow(a, n) == ctx._pow_i(a, n)

    check()


@pytest.mark.parametrize("p,e", LARGE)
def test_poly_matches_scalar_sum(p, e):
    # repeated exponents, exponents of Q and above, zero coefficients, and V = 0
    ctx = field_ctx(p, e)
    t = ctx.tables
    exponent = st.one_of(st.integers(min_value=0, max_value=4),
                         st.integers(min_value=0, max_value=3 * ctx.Q))
    terms = st.lists(st.tuples(exponent, _elements(ctx)), max_size=6)

    @settings(max_examples=200, deadline=None)
    @given(terms, st.lists(_elements(ctx), min_size=1, max_size=5))
    def check(terms, values):
        exps, coeffs = [n for n, _ in terms], [c for _, c in terms]
        V = np.array([0, *values])
        want = []
        for v in V.tolist():
            acc = 0
            for n, c in terms:
                acc = ctx._add_i(acc, ctx._mul_i(c, ctx._pow_i(v, n)))
            want.append(acc)
        got = t.poly(exps, coeffs, V)
        assert got.dtype == np.int32
        assert got.tolist() == want

    check()


@pytest.mark.parametrize("p,e", LARGE)
def test_scalar_field_axioms(p, e):
    ctx = field_ctx(p, e)
    add, mul = ctx._add_i, ctx._mul_i

    @settings(max_examples=300, deadline=None)
    @given(_elements(ctx), _elements(ctx), _elements(ctx))
    def check(a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    check()


@pytest.mark.parametrize("p,e", LARGE)
def test_frobenius_is_a_ring_map(p, e):
    ctx = field_ctx(p, e)
    frob = ctx._frob_i

    @settings(max_examples=300, deadline=None)
    @given(_elements(ctx), _elements(ctx))
    def check(a, b):
        assert frob(ctx._add_i(a, b)) == ctx._add_i(frob(a), frob(b))
        assert frob(ctx._mul_i(a, b)) == ctx._mul_i(frob(a), frob(b))
        assert frob(a) == ctx._pow_i(a, ctx.q)

    check()


@pytest.mark.parametrize("p,e", LARGE)
def test_quad_char_is_multiplicative(p, e):
    ctx = field_ctx(p, e)

    @settings(max_examples=300, deadline=None)
    @given(_elements(ctx), _elements(ctx))
    def check(a, b):
        x, y = ctx.element_from_index(a), ctx.element_from_index(b)
        assert ctx.quad_char(x * y) == ctx.quad_char(x) * ctx.quad_char(y)

    check()
