import numpy as np
import pytest

from hughesptr import (
    NotUniqueError,
    TriPoly,
    build_nonreduced_T,
    build_reduced_T,
    build_T2,
    evaluate_grid,
    field_ctx,
    nearfield_mul,
    phi_eval,
    phi_poly,
    ptr_nearfield_form,
    ptr_piecewise,
    ptr_slabs,
    ptr_table,
    ptr_values,
    sigma_eval,
    solve_kkprime,
)
from hughesptr import hughes_core
from hughesptr.hughes_core import (
    _emit,
    _key_widths,
    _tq_pows,
    centers,
    emit_arrays,
    evaluate_blocks,
    expand_blocks,
    nonreduced_blocks,
    piecewise_match,
    reduced_blocks,
    render_text,
    t2_blocks,
)
from hughesptr.ptr_verify import PtrReport
from conftest import random_elements
from ring_forms import RING_FORMS, g_poly, h_poly, ring_M, ring_sigma, tq_poly, tq_pow


def test_nearfield_mul(ctx9):
    for y in ctx9.enumerate_field():
        assert nearfield_mul(ctx9, ctx9.one, y) == y
        assert nearfield_mul(ctx9, ctx9.zero, y) == ctx9.zero
        for g in ctx9.enumerate_field():
            if ctx9.quad_char(g) == -1:
                assert nearfield_mul(ctx9, g, y) == g * ctx9.frobenius_q(y)
            elif g.index:
                assert nearfield_mul(ctx9, g, y) == g * y


def test_nearfield_mul_not_right_distributive(ctx9):
    # the twist really is felt: (x+y)*z != x*z + y*z somewhere
    els = ctx9.enumerate_field()
    assert any(
        nearfield_mul(ctx9, x + y, z) != nearfield_mul(ctx9, x, z) + nearfield_mul(ctx9, y, z)
        for x in els
        for y in els
        for z in els
    )


def test_solve_kkprime_round_trip(ctx9):
    subfield = ctx9.subfield_elements()
    for y in ctx9.enumerate_field():
        if ctx9.in_subfield(y):
            with pytest.raises(NotUniqueError):
                solve_kkprime(ctx9, y, ctx9.one)
            continue
        for k in subfield:
            for kp in subfield:
                pair = solve_kkprime(ctx9, y, k * y + kp)
                assert pair.k == k and pair.k_prime == kp
                assert ctx9.in_subfield(pair.k) and ctx9.in_subfield(pair.k_prime)


def test_solve_kkprime_spot(ctx9):
    y = next(y for y in ctx9.enumerate_field() if not ctx9.in_subfield(y))
    for z in ctx9.subfield_elements():
        pair = solve_kkprime(ctx9, y, z)
        assert pair.k == ctx9.zero and pair.k_prime == z
    pair = solve_kkprime(ctx9, y, y)
    assert pair.k == ctx9.one and pair.k_prime == ctx9.zero


def test_centers_match_solve_kkprime(ctx25):
    # the vector k = tq(z)/tq(y) of ptr_values and of the X-section sweep
    ar = np.arange(ctx25.Q, dtype=np.int32)
    k = centers(ctx25, ar[:, None], ar[None, :])
    assert k.shape == (ctx25.Q, ctx25.Q)
    checked = 0
    for y in ctx25.enumerate_field():
        if ctx25.in_subfield(y):
            assert not k[y.index].any()  # tq(y) = 0
            continue
        for z in ctx25.enumerate_field():
            assert k[y.index, z.index] == solve_kkprime(ctx25, y, z).k.index
            assert centers(ctx25, y.index, z.index) == k[y.index, z.index]
            checked += 1
    assert checked == (ctx25.Q - ctx25.q) * ctx25.Q


def test_ptr_piecewise_basics(ctx9):
    els = ctx9.enumerate_field()
    for x in els:
        for z in els:
            for y in ctx9.subfield_elements():
                assert ptr_piecewise(ctx9, x, y, z) == x * y + z
            assert ptr_piecewise(ctx9, x, ctx9.zero, z) == z
            assert ptr_piecewise(ctx9, ctx9.zero, x, z) == z
        assert ptr_piecewise(ctx9, x, ctx9.one, ctx9.zero) == x


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_piecewise_matches_nearfield_form(p, e):
    ctx = field_ctx(p, e)
    els = ctx.enumerate_field()
    for x in els:
        for y in els:
            for z in els:
                assert ptr_piecewise(ctx, x, y, z) == ptr_nearfield_form(ctx, x, y, z)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_ptr_table_matches_scalar(p, e):
    ctx = field_ctx(p, e)
    tbl = ptr_table(ctx)
    for x in ctx.enumerate_field():
        for y in ctx.enumerate_field():
            for z in ctx.enumerate_field():
                assert tbl[x.index, y.index, z.index] == ptr_piecewise(ctx, x, y, z).index


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (13, 1)])
def test_ptr_slabs_match_the_table_and_the_x_slabs(p, e):
    # Q = 9, 25, 81 and 169: each y-slab against ptr_table and against the
    # grid stacked from x-slabs of ptr_values, the fill the slabs replaced
    ctx = field_ctx(p, e)
    Q = ctx.Q
    ar = np.arange(Q, dtype=np.int32)
    by_x = np.stack([ptr_values(ctx, np.int32(x), ar[:, None], ar[None, :]) for x in range(Q)])
    table = ptr_table(ctx)
    assert table.dtype == np.int32 and np.array_equal(table, by_x)
    slabs = list(ptr_slabs(ctx))
    assert len(slabs) == Q
    for y, slab in enumerate(slabs):
        assert slab.shape == (Q, Q) and slab.dtype == np.int32
        assert np.array_equal(slab, table[:, y, :]) and np.array_equal(slab, by_x[:, y, :])


@pytest.mark.parametrize("p,e", [(7, 2), (3, 4)])
def test_ptr_values_random_points_large_q(p, e):
    # Q = 2401 and 6561, where the full grid is out of reach
    ctx = field_ctx(p, e)
    rng = np.random.default_rng(11)
    X, Y, Z = rng.integers(0, ctx.Q, (3, 300))
    Y[:50] = rng.integers(0, ctx.q, 50)  # y in the subfield
    vals = ptr_values(ctx, X, Y, Z)
    for i, (x, y, z) in enumerate(zip(X, Y, Z)):
        x, y, z = (ctx.element_from_index(int(v)) for v in (x, y, z))
        expected = ptr_piecewise(ctx, x, y, z).index
        assert vals[i] == expected
        if i % 50 == 0:
            assert ptr_values(ctx, x.index, y.index, z.index) == expected


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_trace_sigma_functional_form(p, e):
    # T(x,y,z) = z + (1/2) (x Tr(y) - tq(y) sigma(x,y,z)) everywhere
    ctx = field_ctx(p, e)
    half = ctx.half()
    for x in ctx.enumerate_field():
        for y in ctx.enumerate_field():
            tr, tq = ctx.trace_sub(y), ctx.t_q(y)
            for z in ctx.enumerate_field():
                rhs = z + half * (x * tr - tq * sigma_eval(ctx, x, y, z))
                assert ptr_piecewise(ctx, x, y, z) == rhs


def test_phi_eval_involution(ctx9):
    for k in ctx9.enumerate_field():
        seen = set()
        for x in ctx9.enumerate_field():
            img = phi_eval(ctx9, k, x)
            seen.add(img.index)
            assert phi_eval(ctx9, k, img) == x
        assert len(seen) == ctx9.Q  # a bijection for every k
        assert phi_eval(ctx9, k, -k) == -k


def test_phi_eval_bijection_q25(ctx25):
    for k in ctx25.enumerate_field():
        images = {phi_eval(ctx25, k, x).index for x in ctx25.enumerate_field()}
        assert len(images) == ctx25.Q


def test_phi_zero_is_signed_identity(ctx9):
    for x in ctx9.enumerate_field():
        if x.index:
            assert phi_eval(ctx9, ctx9.zero, x) == x * ctx9.from_int(ctx9.quad_char(x))


def test_phi_poly_matches_eval(ctx9, ctx25):
    for ctx, ks in ((ctx9, ctx9.enumerate_field()), (ctx25, random_elements(ctx25, 6, seed=13))):
        for k in ks:
            poly = phi_poly(ctx, k)
            for x in ctx.enumerate_field():
                assert poly.evaluate(x, ctx.zero, ctx.zero) == phi_eval(ctx, k, x)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1)])
def test_phi_poly_support_bounds(p, e):
    # nonzero monomials X^(aq+b) satisfy a <= (q-1)/2 and b <= (q+1)/2
    ctx = field_ctx(p, e)
    q = ctx.q
    ks = ctx.enumerate_field() if ctx.Q <= 25 else (
        ctx.subfield_elements() + random_elements(ctx, 60, seed=17))
    for k in ks:
        for (m, _, _), c in phi_poly(ctx, k).terms.items():
            assert c.index != 0
            a, b = divmod(m, q)
            assert a <= (q - 1) // 2 and b <= (q + 1) // 2, (k.index, m)


def test_sigma_eval(ctx9):
    for x in ctx9.enumerate_field():
        for y in ctx9.subfield_elements():
            for z in random_elements(ctx9, 3, seed=19):
                assert sigma_eval(ctx9, x, y, z) == ctx9.zero
    # x = -k lands on the fixed point of the involution
    y = next(y for y in ctx9.enumerate_field() if not ctx9.in_subfield(y))
    for z in ctx9.enumerate_field():
        k = ctx9.t_q(z) / ctx9.t_q(y)
        assert sigma_eval(ctx9, -k, y, z) == -k


def test_sigma_poly_matches_eval_exhaustive(ctx9):
    grid = evaluate_grid(ring_sigma(ctx9).reduce())
    for x in ctx9.enumerate_field():
        for y in ctx9.enumerate_field():
            for z in ctx9.enumerate_field():
                assert grid[x.index, y.index, z.index] == sigma_eval(ctx9, x, y, z).index


def test_build_M_structure(ctx9):
    # expansion of X*Y - (1/2)(X^((Q+1)/2) - X)(Y^q - Y): four monomials
    M = ring_M(ctx9)
    Q, q = ctx9.Q, ctx9.q
    half = ctx9.half()
    expected = {
        (1, 1, 0): half,
        (1, q, 0): half,
        ((Q + 1) // 2, 1, 0): half,
        ((Q + 1) // 2, q, 0): -half,
    }
    assert M.terms == expected


def test_build_M_evaluation(ctx9):
    M = ring_M(ctx9)
    z = ctx9.zero
    for x in ctx9.enumerate_field():
        for y in ctx9.subfield_elements():
            assert M.evaluate(x, y, z) == x * y
    for y in ctx9.enumerate_field():
        assert M.evaluate(ctx9.zero, y, z) == ctx9.zero


def test_nonreduced_T_basics(ctx9):
    T = build_nonreduced_T(ctx9)
    assert not T.is_reduced  # Z-degree runs past Q
    for a in ctx9.enumerate_field():
        for z in ctx9.enumerate_field():
            assert T.evaluate(a, ctx9.zero, z) == z
    assert np.array_equal(evaluate_grid(T), ptr_table(ctx9))


BUILDERS = {"nonreduced": build_nonreduced_T, "reduced": build_reduced_T, "t2": build_T2}


@pytest.mark.parametrize("form", sorted(BUILDERS))
@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_closed_forms_match_ring_products(p, e, form):
    # the closed-form emitter against the same formula expanded by TriPoly products
    ctx = field_ctx(p, e)
    assert BUILDERS[form](ctx).terms == RING_FORMS[form](ctx).terms


def _summed_terms(p, blocks):
    """The sum of the blocks term by term in a dict, as sorted (ex, ey, ez, c) lists."""
    acc = {}
    for block in blocks:
        (xe, xc), (ye, yc), (ze, zc) = (tuple(map(np.ndarray.tolist, f)) for f in block)
        for i, ci in zip(xe, xc):
            for j, cj in zip(ye, yc):
                for k, ck in zip(ze, zc):
                    acc[i, j, k] = (acc.get((i, j, k), 0) + ci * cj * ck) % p
    keys = sorted(key for key, c in acc.items() if c)
    return [[key[v] for key in keys] for v in range(3)] + [[acc[key] for key in keys]]


@pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 16])
def test_emit_arrays_sums_across_chunks(monkeypatch, chunk):
    # equal keys from many blocks, including a key repeated more often than
    # a chunk holds, summed by the chunked pass as by a dict
    ctx = field_ctx(5, 1)
    blocks = (expand_blocks(ctx, nonreduced_blocks(ctx)) + expand_blocks(ctx, t2_blocks(ctx))
              + expand_blocks(ctx, reduced_blocks(ctx)[:1]) * 4)
    monkeypatch.setattr(hughes_core, "_SUM_CHUNK", chunk)
    got = emit_arrays(ctx, blocks)
    assert all(a.dtype == np.int32 for a in got)
    assert [a.tolist() for a in got] == _summed_terms(ctx.p, blocks)


def test_emit_arrays_refuses_exponents_past_int32(ctx9):
    one = (np.array([0]), np.array([1]))
    huge = (np.array([2**31]), np.array([1]))
    with pytest.raises(OverflowError, match="int32"):
        emit_arrays(ctx9, [(one, one, one), (huge, one, one)])
    assert [a.tolist() for a in emit_arrays(ctx9, [(one, one, one), ((huge[0] - 1, huge[1]), one, one)])] == \
        [[0, 2**31 - 1], [0, 0], [0, 0], [1, 1]]


def _ring_sum(ctx, blocks) -> TriPoly:
    """The sum of the blocks by TriPoly products of their three factors."""
    total = TriPoly.zero(ctx)
    for block in blocks:
        product = TriPoly.one(ctx)
        for v, (exps, res) in enumerate(block):
            product = product * TriPoly(ctx, {tuple(n if w == v else 0 for w in range(3)): ctx.from_int(c)
                                              for n, c in zip(exps.tolist(), res.tolist())})
        total = total + product
    return total


@pytest.mark.parametrize("top", ["2^k - 1", "2^k"])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_emit_arrays_at_bit_field_boundaries(p, top, monkeypatch):
    # every exponent field just full (largest exponent 2^k - 1) or one bit
    # wider (2^k), next to 2^k - 1 and its neighbours, with residues that
    # fill the c field, zero residues, and repeated keys across blocks, some
    # summing to 0
    ctx = field_ctx(p, 1)
    rng = np.random.default_rng(p)

    def factor(k):
        exps = [0, 1, 2**k - 2, 2**k - 1] + ([2**k] if top == "2^k" else [])
        return np.array(exps, dtype=np.int64), rng.integers(0, p, len(exps))

    blocks = [tuple(factor(k) for k in (5, 9, 13)) for _ in range(3)]
    blocks.append(tuple((exps, (p - res) % p) for exps, res in blocks[0]))  # -block 0
    blocks.append(((np.array([3]), np.array([0])), *blocks[1][1:]))  # keys of its own, all 0
    assert any((res == 0).any() for block in blocks for _, res in block)
    want = _summed_terms(p, blocks)
    for chunk in (1, 1 << 16):  # a chunk of one key at a time, or all at once
        monkeypatch.setattr(hughes_core, "_SUM_CHUNK", chunk)
        assert [a.tolist() for a in emit_arrays(ctx, blocks)] == want
    assert _emit(ctx, blocks) == _ring_sum(ctx, blocks)


@pytest.mark.parametrize("chunk", [1, 2, 1 << 16])
def test_emit_arrays_refuses_64_bit_keys_before_allocating(ctx9, monkeypatch, chunk):
    # p = 3 takes 2 bits for c; exponents of 20 bits in two variables and of
    # 21 in the third fill 63 bits, and one bit more in any of them needs 64.
    # At 63 bits the largest key sets every exponent bit: its two terms are
    # summed across chunks as any others
    monkeypatch.setattr(hughes_core, "_SUM_CHUNK", chunk)
    x = (np.array([0, 2**20 - 1]), np.array([1, 2]))
    z63 = (np.array([3, 2**21 - 1]), np.array([2, 2]))
    z64 = (np.array([3, 2**21]), np.array([2, 2]))
    blocks = [(x, x, z63)] * 2 + [(x, x, x)]
    got = [a.tolist() for a in emit_arrays(ctx9, blocks)]
    assert got == _summed_terms(3, blocks)
    assert got[0][-1] == 2**20 - 1 and got[1][-1] == 2**20 - 1 and got[2][-1] == 2**21 - 1

    def no_allocation(*args, **kwargs):
        raise AssertionError("emit_arrays allocated before refusing")

    monkeypatch.setattr(np, "empty", no_allocation)
    for refused in ([(x, x, z64)], [(x, x, z63), (z63, x, x)]):
        with pytest.raises(OverflowError, match="64 bits"):
            emit_arrays(ctx9, refused)


def test_emit_arrays_of_the_empty_sum(ctx9):
    # the empty sum is zero, as evaluate_blocks reads it
    got = emit_arrays(ctx9, [])
    assert [(a.dtype, a.size) for a in got] == [(np.dtype(np.int32), 0)] * 4
    assert _emit(ctx9, []) == TriPoly.zero(ctx9)
    assert not evaluate_blocks(ctx9, [], np.arange(ctx9.Q), 0, 0).any()


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2)])
def test_three_forms_agree(p, e):
    ctx = field_ctx(p, e)
    T = build_reduced_T(ctx)
    assert T.is_reduced
    assert build_nonreduced_T(ctx).reduce().equal_reduced(T)
    assert build_T2(ctx).reduce().equal_reduced(T)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1)])
def test_reduced_T_degrees(p, e):
    ctx = field_ctx(p, e)
    dx, dy, dz, _ = build_reduced_T(ctx).degree_profile()
    assert max(dx, dy, dz) < ctx.Q


def test_reduced_T_subfield_slice_is_classical(ctx9):
    grid = evaluate_grid(build_reduced_T(ctx9))
    for y in ctx9.subfield_elements():
        for x in ctx9.enumerate_field():
            for z in ctx9.enumerate_field():
                assert grid[x.index, y.index, z.index] == (x * y + z).index


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_g_equals_minus_tq_times_h(p, e):
    ctx = field_ctx(p, e)
    tq_x = tq_poly(ctx, 0)
    for i in range(ctx.q - 1):
        assert g_poly(ctx, i) == -(tq_x * h_poly(ctx, i)), i


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1)])
def test_neg4_power_periodicity(p, e):
    # (-4)^(j(q-1)+i+1) = (-4)^(i+1) mod p, the scaling the reduced form uses
    q = p**e
    for i in range(q - 1):
        for j in range(i + 2):
            assert pow(-4 % p, j * (q - 1) + i + 1, p) == pow(-4 % p, i + 1, p)


def test_oracle_equivalence_q9(ctx9):
    assert np.array_equal(evaluate_grid(build_reduced_T(ctx9)), ptr_table(ctx9))


def test_render_text_forms(ctx9):
    for form in ("reduced", "nonreduced", "t2"):
        text = render_text(ctx9, form)
        assert "M(X,Y)" in text and "tq(" in text
    with pytest.raises(ValueError):
        render_text(ctx9, "other")


# ---------------------------------------------------------------------------
# The main theorem on Q*q points against the full grid
# ---------------------------------------------------------------------------

BLOCKS = {"nonreduced": nonreduced_blocks, "reduced": reduced_blocks, "t2": t2_blocks}


def _with_x_factor(records, i, residues):
    (exps, _), a, b = records[i]
    return records[:i] + [((exps, np.asarray(residues, dtype=np.int64)), a, b)] + records[i + 1:]


def _changed(ctx, records, i, residues):
    """The records with record i's X residues replaced, and the record
    whose addition to the old records gives the new ones."""
    new = _with_x_factor(records, i, residues)
    return new, [_with_x_factor(records, i, (new[i][0][1] - records[i][0][1]) % ctx.p)[i]]


def _mutant(ctx, kind):
    """The reduced form's records, or a copy with one coefficient or record
    wrong; and the records whose sum is the copy minus the reduced form."""
    p, records = ctx.p, reduced_blocks(ctx)
    if kind == "g_residue":  # g_2 (g_0 at q = 3) with its first residue +1
        i = min(3, ctx.q - 2)
        res = records[i][0][1].copy()
        res[0] = (res[0] + 1) % p
        return _changed(ctx, records, i, res)
    if kind == "half":  # M with 1/2 + 1 in place of 1/2
        h = (ctx.half().index + 1) % p
        return _changed(ctx, records, 0, [(p - h) % p, h])
    if kind == "drop_g":
        last = len(records) - 1
        return records[:-1], [_with_x_factor(records, last, (p - records[last][0][1]) % p)[last]]
    return records, []


@pytest.mark.parametrize("kind", ["hughes", "g_residue", "half", "drop_g"])
@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1)])
def test_piecewise_match_equals_full_grid(p, e, kind, reduced_grid):
    ctx = field_ctx(p, e)
    records, delta = _mutant(ctx, kind)
    blocks = expand_blocks(ctx, records)
    # evaluation is linear in the coefficients: the mutant's grid is the
    # reduced form's plus that of the records it differs by
    grid = reduced_grid(p, e)[1]
    if delta:
        grid = ctx.tables.add(grid, evaluate_grid(_emit(ctx, expand_blocks(ctx, delta)[2:])))
    mismatch = grid != ptr_table(ctx)
    first = np.argwhere(mismatch)[:1]
    want = tuple(int(v) for v in first[0]) if len(first) else None
    report = piecewise_match(ctx, records)
    assert report == PtrReport("polynomial_matches_piecewise", want is None, want)
    assert (kind == "hughes") == report.passed
    # each failing (x, k) fails at every y outside GF(q) and the q values z
    # with tq(z)/tq(y) = k, and nowhere else
    q = ctx.q
    X, kw = np.arange(ctx.Q)[:, None], q * np.arange(q)[None, :]
    fails = evaluate_blocks(ctx, blocks, X, q, kw) != ptr_values(ctx, X, q, kw)
    assert mismatch.sum() == fails.sum() * (ctx.Q - q) * q


@pytest.mark.parametrize("kind", ["g_residue", "half", "drop_g"])
@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_mutant_grid_is_reduced_grid_plus_delta(p, e, kind, reduced_grid):
    # the shortcut test_piecewise_match_equals_full_grid takes, against the direct grid
    ctx = field_ctx(p, e)
    records, delta = _mutant(ctx, kind)
    direct = evaluate_grid(_emit(ctx, expand_blocks(ctx, records)))
    delta_grid = evaluate_grid(_emit(ctx, expand_blocks(ctx, delta)[2:]))
    assert np.array_equal(ctx.tables.add(reduced_grid(p, e)[1], delta_grid), direct)


@pytest.mark.parametrize("form", sorted(BLOCKS))
@pytest.mark.parametrize("p,e", [(3, 1), (3, 2)])
def test_evaluate_blocks_matches_emitted_polynomial(p, e, form):
    ctx = field_ctx(p, e)
    blocks = expand_blocks(ctx, BLOCKS[form](ctx))
    grid = evaluate_grid(_emit(ctx, blocks))
    X, Y, Z = np.random.default_rng(p).integers(0, ctx.Q, (3, 500))
    assert np.array_equal(evaluate_blocks(ctx, blocks, X, Y, Z), grid[X, Y, Z])
    assert np.array_equal(evaluate_blocks(ctx, blocks, X[:, None], Y[0], Z[None, :50]),
                          grid[X[:, None], Y[0], Z[None, :50]])


# every order Q = p^(2e) <= 531441 with p <= 13
LADDER = [(p, e) for p in (3, 5, 7, 11, 13) for e in range(1, 7) if p ** (2 * e) <= 531441]


def _record_tops(ctx, records):
    """The largest X, Y and Z exponents of X*Y + Z plus the records, read off
    the records alone: the top term of tq(V)^n is V^(qn)."""
    return (max([1] + [int(f[0].max()) for f, _, _ in records]),
            max([1] + [ctx.q * a for _, a, _ in records]),
            max([1] + [ctx.q * b for _, _, b in records]))


@pytest.mark.parametrize("form", sorted(BLOCKS))
def test_key_widths_on_the_ladder(form):
    # emit_arrays packs every form up to Q = 531441, and the nonreduced form
    # up to Q = 28561: from Q = 59049 on its keys need 64 bits or more, and
    # it is refused before anything is allocated
    for p, e in LADDER:
        ctx = field_ctx(p, e)
        records = BLOCKS[form](ctx)
        tops = _record_tops(ctx, records)
        if ctx.Q <= 81:
            blocks = expand_blocks(ctx, records)
            assert tops == tuple(max(int(block[v][0].max()) for block in blocks) for v in range(3))
        if form == "nonreduced" and ctx.Q > 28561:
            with pytest.raises(OverflowError, match="bits"):
                _key_widths(p, tops)
        else:
            assert sum(_key_widths(p, tops)) <= 63, (p, e)
    if form == "nonreduced":
        ctx = field_ctx(3, 5)
        with pytest.raises(OverflowError, match="need 64 bits"):
            _key_widths(3, _record_tops(ctx, nonreduced_blocks(ctx)))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_tq_pow_evaluates_to_tq_powers(p, e):
    # the Lucas expansion of tq(V)^n, as a function on GF(Q), for every n < 2Q
    ctx = field_ctx(p, e)
    t = ctx.tables
    V = np.arange(ctx.Q, dtype=np.int32)
    ns = range(2 * ctx.Q)
    for n, factor in zip(ns, _tq_pows(ctx, ns)):
        assert np.array_equal(t.poly(*factor, V), t.pow(t.tq, n)), n


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2)])
def test_tq_pows_match_one_power_at_a_time(p, e):
    # the batched expansion of every n < 2Q, of a shuffled list with a
    # repeat, and of no n, against the per-exponent oracle
    ctx = field_ctx(p, e)
    for ns in (list(range(2 * ctx.Q)), [7, 0, ctx.q, 7, 2 * ctx.Q - 1, 1], []):
        got = _tq_pows(ctx, ns)
        assert len(got) == len(ns)
        for n, (exps, res) in zip(ns, got):
            want_exps, want_res = tq_pow(ctx, n)
            assert exps.dtype == res.dtype == np.int64
            assert np.array_equal(exps, want_exps) and np.array_equal(res, want_res), n


def test_tq_pows_refuses_negative_exponents(ctx9):
    # the per-exponent loop never ends on n < 0 (-1 // p is -1): the batched
    # expansion names the first negative exponent instead
    for ns in ([-1], [3, 0, -2, -5]):
        with pytest.raises(ValueError, match=f"n = {next(n for n in ns if n < 0)}$"):
            _tq_pows(ctx9, ns)


@pytest.mark.parametrize("form", sorted(BLOCKS))
@pytest.mark.parametrize("p,e", [(3, 1), (3, 2)])
def test_expand_blocks_expands_each_power_once(p, e, form, monkeypatch):
    # the reduced and t2 records use every n in 1..q-1 as a Y and a Z
    # exponent: one batched call expands each distinct n once, in order
    ctx = field_ctx(p, e)
    records = BLOCKS[form](ctx)
    expected = expand_blocks(ctx, records)
    calls = []

    def counted(ctx, ns):
        calls.append(list(ns))
        return _tq_pows(ctx, ns)

    monkeypatch.setattr(hughes_core, "_tq_pows", counted)
    blocks = expand_blocks(ctx, records)
    assert calls == [sorted({n for _, a, b in records for n in (a, b)})]
    assert all(np.array_equal(u, v) for got, want in zip(blocks, expected)
               for f, g in zip(got, want) for u, v in zip(f, g))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_shape_check_rejects_stray_blocks(p, e, monkeypatch):
    ctx = field_ctx(p, e)
    records = reduced_blocks(ctx)
    q, f = ctx.q, records[1][0]
    calls = []

    def counted(ctx, ns):
        calls.append(list(ns))
        return _tq_pows(ctx, ns)

    monkeypatch.setattr(hughes_core, "_tq_pows", counted)
    label = "polynomial_matches_piecewise"
    end = len(records)
    cases = {
        "a = 0": (records + [(f, 0, q)], end),                   # tq(Z)^q alone
        "a + b = 2": (records + [(f, 1, 1)], end),               # not 1 mod q-1
        "negative a": ([(f, -1, 2)] + records, 0),               # a + b = 1
        "negative b": (records[:2] + [(f, q, -q + 1)] + records[2:], 2),  # a + b = 1
    }
    for name, (mutant, i) in cases.items():
        assert piecewise_match(ctx, mutant) == PtrReport(label, False, ("block_shape", i)), name
    # the shape check fires before any power is expanded
    assert calls == []
    # the same polynomial in another order, or with the last g record split
    # in two, passes
    (exps, res), a, b = records[-1]
    split = [((exps[:1], res[:1]), a, b), ((exps[1:], res[1:]), a, b)]
    for same in (records[::-1], records[:-1] + split):
        assert piecewise_match(ctx, same).passed


@pytest.mark.parametrize("form", ["reduced", "t2"])
@pytest.mark.parametrize("p,e", [(7, 2), (3, 4)])
def test_main_theorem_past_the_grid_cap(p, e, form):
    # Q = 2401 and 6561, far above the Q^3 grid's reach
    ctx = field_ctx(p, e)
    assert piecewise_match(ctx, BLOCKS[form](ctx)) == PtrReport("polynomial_matches_piecewise", True)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (5, 2)])
def test_nonreduced_theorem_up_to_625(p, e):
    ctx = field_ctx(p, e)
    assert piecewise_match(ctx, nonreduced_blocks(ctx)).passed
