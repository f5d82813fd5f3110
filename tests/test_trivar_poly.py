import io
import json

import numpy as np
import pytest

from hughesptr import (
    TriPoly,
    build_nonreduced_T,
    build_reduced_T,
    build_T2,
    evaluate_grid,
    field_ctx,
    ptr_table,
    variables,
)
from hughesptr.cli import _JSON_CHUNK, _gen_payload, write_json
from hughesptr.hughes_core import evaluate_blocks
from conftest import random_elements


def random_poly(ctx, rng, n_terms=8, max_exp=None):
    if max_exp is None:
        max_exp = 3 * ctx.Q
    terms = {}
    for _ in range(n_terms):
        exps = tuple(int(v) for v in rng.integers(0, max_exp + 1, 3))
        terms[exps] = ctx.element_from_index(int(rng.integers(1, ctx.Q)))
    return TriPoly(ctx, terms)


def test_ring_identities(ctx9):
    X, Y, Z = variables(ctx9)
    P = X * Y + Z
    assert P * TriPoly.one(ctx9) == P
    assert P**0 == TriPoly.one(ctx9)
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_zero_purging(ctx9):
    X, _, _ = variables(ctx9)
    assert (X - X).terms == {}
    assert (X - X).degree_profile() == (0, 0, 0, 0)
    # scalar zero wipes everything
    assert X.scale(ctx9.zero).terms == {}


def test_mul_commutative_associative_monomials(ctx9):
    # monomial basis of total degree <= 2, exhaustive triples
    basis = []
    for i in range(3):
        for j in range(3 - i):
            for k in range(3 - i - j):
                basis.append(TriPoly.monomial(ctx9, ctx9.element_from_index(2), (i, j, k)))
    for a in basis:
        for b in basis:
            assert a * b == b * a
            for c in basis[::3]:
                assert (a * b) * c == a * (b * c)


def test_mul_associative_random(ctx9):
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b, c = (random_poly(ctx9, rng, 4, max_exp=6) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_reduce_folds_q_power(ctx9):
    Q = ctx9.Q
    X, Y, _ = variables(ctx9)
    assert TriPoly.monomial(ctx9, ctx9.one, (Q, 0, 0)).reduce() == X
    # (Y^q - Y)^q folds to -(Y^q - Y)
    tq = TriPoly(ctx9, {(0, ctx9.q, 0): ctx9.one, (0, 1, 0): -ctx9.one})
    assert (tq**ctx9.q).reduce() == -tq


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_tq_power_folding_rule(p, e):
    # tq^(j(q-1)+i) reduces to (-1)^j tq^i for 0 <= j <= q, 1 <= i <= q
    ctx = field_ctx(p, e)
    q = ctx.q
    tq = TriPoly(ctx, {(0, q, 0): ctx.one, (0, 1, 0): -ctx.one})
    powers = [TriPoly.one(ctx)]
    for _ in range(q * (q - 1) + q):
        powers.append(powers[-1] * tq)
    for j in range(q + 1):
        for i in range(1, q + 1):
            lhs = powers[j * (q - 1) + i].reduce()
            rhs = powers[i].reduce()
            if j % 2:
                rhs = -rhs
            assert lhs == rhs, (j, i)


def test_evaluate_basics(ctx9):
    X, Y, Z = variables(ctx9)
    P = X * Y + Z
    for x, y, z in zip(*(random_elements(ctx9, 10, seed=s) for s in (1, 2, 3))):
        assert P.evaluate(x, y, z) == x * y + z
    c = ctx9.element_from_index(7)
    const = TriPoly.constant(ctx9, c)
    assert const.evaluate(*random_elements(ctx9, 3, seed=4)) == c


def test_reduce_preserves_evaluation(ctx9):
    rng = np.random.default_rng(23)
    for trial in range(200):
        P = random_poly(ctx9, rng)
        R = P.reduce()
        assert R.is_reduced
        assert np.array_equal(evaluate_grid(P), evaluate_grid(R))
        assert R.reduce() == R  # idempotent
        # spot-check the grids against scalar evaluation
        if trial % 40 == 0:
            for x, y, z in zip(*(random_elements(ctx9, 3, seed=trial + s) for s in (1, 2, 3))):
                assert P.evaluate(x, y, z) == R.evaluate(x, y, z)
                assert evaluate_grid(P)[x.index, y.index, z.index] == P.evaluate(x, y, z).index


def test_evaluate_grid_matches_scalar_exhaustively(ctx9):
    rng = np.random.default_rng(31)
    els = ctx9.enumerate_field()
    for _ in range(5):
        P = random_poly(ctx9, rng, n_terms=6)
        grid = evaluate_grid(P)
        for x in els:
            for y in els:
                for z in els:
                    assert grid[x.index, y.index, z.index] == P.evaluate(x, y, z).index


def evaluate_grid_by_terms(poly):
    """Reference grid evaluation: ``evaluate_blocks`` with one block per term,
    c x^i * y^j * z^k, on the broadcast grid."""
    ctx = poly.ctx
    blocks = [(([i], [c.index]), ([j], [1]), ([k], [1])) for (i, j, k), c in poly.terms.items()]
    ar = np.arange(ctx.Q, dtype=np.int32)
    return evaluate_blocks(ctx, blocks, ar[:, None, None], ar[None, :, None], ar[None, None, :])


def _special_polys(ctx):
    """Zero, a constant, pure X, Y and Z monomials (reduced and not), one term each."""
    Q, c = ctx.Q, ctx.element_from_index(ctx.Q - 2)
    polys = [TriPoly.zero(ctx), TriPoly.constant(ctx, c)]
    for n in (1, Q - 1, Q, 2 * Q + 3):
        for axis in range(3):
            exps = [0, 0, 0]
            exps[axis] = n
            polys.append(TriPoly.monomial(ctx, c, tuple(exps)))
    return polys


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_evaluate_grid_matches_group_oracle(p, e):
    ctx = field_ctx(p, e)
    Q = ctx.Q
    rng = np.random.default_rng(Q)
    polys = _special_polys(ctx)
    # unreduced exponents up to 3Q; then many terms on few exponents, so that
    # one Y exponent carries several Z exponents and one (Y, Z) group several X
    polys += [random_poly(ctx, rng, n_terms=8) for _ in range(3)]
    polys += [random_poly(ctx, rng, n_terms=30, max_exp=5) for _ in range(2)]
    polys.append(random_poly(ctx, rng, n_terms=20, max_exp=Q - 1))
    for P in polys:
        want = evaluate_grid_by_terms(P)
        got = evaluate_grid(P)
        assert got.dtype == want.dtype == np.int32
        assert got.shape == want.shape == (Q, Q, Q)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want), P.sorted_terms()


@pytest.fixture(scope="module", params=[11, 13], ids=str)
def reduced_T_large_q(request, reduced_grid):
    """(ctx, reduced form, its grid) at Q = 121 and 169, from the session cache."""
    return field_ctx(request.param, 1), *reduced_grid(request.param, 1)


def test_reduced_T_grid_matches_ptr_table_large_q(reduced_T_large_q):
    ctx, _, grid = reduced_T_large_q
    assert np.array_equal(grid, ptr_table(ctx))


def test_evaluate_grid_spot_checks_large_q(reduced_T_large_q):
    ctx, T, T_grid = reduced_T_large_q
    p = ctx.p
    checks = [(T, T_grid)]
    if ctx.Q == 121:  # a random R's whole grid takes 3 s at Q=169; one order checks the kernel
        R = random_poly(ctx, np.random.default_rng(p), n_terms=40)
        checks.append((R, evaluate_grid(R)))
    for P, grid in checks:
        pts = zip(*(random_elements(ctx, 15, seed=p + s) for s in (1, 2, 3)))
        for x, y, z in pts:
            assert grid[x.index, y.index, z.index] == P.evaluate(x, y, z).index


def test_equal_reduced(ctx9):
    X, Y, Z = variables(ctx9)
    P = X * Y + Z
    assert P.equal_reduced(P)
    unreduced = TriPoly.monomial(ctx9, ctx9.one, (ctx9.Q, 0, 0))
    with pytest.raises(ValueError):
        unreduced.equal_reduced(X)
    with pytest.raises(ValueError):
        X.equal_reduced(unreduced)


def test_degree_profile(ctx9):
    X, Y, Z = variables(ctx9)
    assert (X * Y + Z).degree_profile() == (1, 1, 1, 2)
    assert TriPoly.zero(ctx9).degree_profile() == (0, 0, 0, 0)


def test_context_mismatch(ctx9, ctx25):
    with pytest.raises(ValueError):
        variables(ctx9)[0] + variables(ctx25)[0]


def test_json_round_trip(ctx9):
    rng = np.random.default_rng(47)
    P = random_poly(ctx9, rng)
    data = P.to_json_dict()
    assert data["p"] == 3 and data["e"] == 1
    exps = [(t["ex"], t["ey"], t["ez"]) for t in data["terms"]]
    assert exps == sorted(exps)
    again = TriPoly.from_json_dict(json.loads(json.dumps(data)))
    assert again == P
    # byte stability
    assert json.dumps(P.to_json_dict()) == json.dumps(again.to_json_dict())


def _chunk_poly(ctx, n):
    """n terms with distinct exponent triples, for the chunk boundaries of the writer."""
    rng = np.random.default_rng(n)
    coeffs = rng.integers(1, ctx.Q, n).tolist()
    return TriPoly(ctx, {(i // 900, i // 30 % 30, i % 30): ctx.element_from_index(c)
                         for i, c in enumerate(coeffs)})


def _json_text_cases():
    ctx = field_ctx(3, 1)
    yield "zero", TriPoly.zero(ctx)
    yield "one-term", TriPoly.monomial(ctx, ctx.element_from_index(7), (0, 12, 3))
    yield "one-chunk", _chunk_poly(ctx, _JSON_CHUNK)
    yield "one-chunk-plus-one", _chunk_poly(ctx, _JSON_CHUNK + 1)
    for p in (3, 5, 7):
        for build in (build_nonreduced_T, build_reduced_T, build_T2):
            yield f"{build.__name__}-q{p * p}", build(field_ctx(p, 1))


@pytest.mark.parametrize("P", [pytest.param(P, id=name) for name, P in _json_text_cases()])
def test_json_text_matches_json_dumps(P):
    # gen's writer on the term arrays writes the schema of to_json_dict
    keys = sorted(P.terms)
    exps = np.array(keys, dtype=np.int64).reshape(-1, 3).T
    c = np.array([P.terms[k].index for k in keys], dtype=np.int64)
    out = io.BytesIO()
    write_json(_gen_payload(P.ctx.p, P.ctx.e, (*exps, c)), out)
    text = out.getvalue().decode("ascii")
    assert text == json.dumps(P.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert TriPoly.from_json_dict(json.loads(text)) == P


def _columns(n, dtype, seed):
    """(ex, ey, ez, c) whose values have 1 to 6 digits, 0, 9, 10 and 99999 among them."""
    rng = np.random.default_rng(seed)
    values = np.array([0, 9, 10, 99, 100, 99999, 123456], dtype=dtype)
    cols = [rng.choice(values, n), rng.integers(0, 10, n), rng.choice(values[:6], n),
            rng.integers(0, 7, n)]
    return [col.astype(dtype) for col in cols]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("n", [0, 1, 2, _JSON_CHUNK, _JSON_CHUNK + 1, 2 * _JSON_CHUNK + 3])
def test_write_json_matches_json_dumps(n, dtype):
    for arrays in (_columns(n, dtype, n), [np.zeros(n, dtype=dtype)] * 4):
        out = io.BytesIO()
        write_json(_gen_payload(7, 2, arrays), out)
        ex, ey, ez, c = (a.tolist() for a in arrays)
        data = {"p": 7, "e": 2, "terms": [{"ex": i, "ey": j, "ez": k, "c": v}
                                          for i, j, k, v in zip(ex, ey, ez, c)]}
        assert out.getvalue() == (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def test_write_json_rejects_negative_values():
    arrays = [np.array([0, 1]), np.array([0, -1]), np.array([0, 0]), np.array([1, 1])]
    out = io.BytesIO()
    with pytest.raises(ValueError):
        write_json(_gen_payload(3, 1, arrays), out)
    assert out.getvalue() == b""  # checked before the head is written


def test_negative_exponent_rejected(ctx9):
    with pytest.raises(ValueError):
        TriPoly.monomial(ctx9, ctx9.one, (-1, 0, 0))
    with pytest.raises(ValueError):
        variables(ctx9)[0] ** -2
