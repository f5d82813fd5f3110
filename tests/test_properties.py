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
    ctx = field_ctx(p, e)
    t = ctx.tables

    @settings(max_examples=300, deadline=None)
    @given(_elements(ctx), _elements(ctx))
    def check(c, v):
        product = ctx._mul_i(c, v)
        assert t.mul(c, v) == product
        applied = t.mul_matrix(c) @ t.digit_planes(np.array(v)) % p
        assert np.array_equal(applied, t.digit_planes(np.array(product)))

    check()


@pytest.mark.parametrize("p,e", LARGE)
def test_mul_matrix_is_a_ring_homomorphism(p, e):
    # M(a) + M(b) = M(a + b) and M(a) M(b) = M(a b), entrywise mod p
    ctx = field_ctx(p, e)
    t = ctx.tables

    @settings(max_examples=200, deadline=None)
    @given(_elements(ctx), _elements(ctx))
    def check(a, b):
        Ma, Mb = t.mul_matrix(a), t.mul_matrix(b)
        assert np.array_equal((Ma + Mb) % p, t.mul_matrix(ctx._add_i(a, b)))
        assert np.array_equal(Ma @ Mb % p, t.mul_matrix(ctx._mul_i(a, b)))

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
