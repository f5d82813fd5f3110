import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hughesptr
from hughesptr import cli, du_analysis, field_ctx, ptr_table
from hughesptr.du_analysis import (
    _row_maxima,
    _section_delta,
    diff_op,
    du,
    du_sections,
    function_table,
    k_sets,
    linearized_table,
    piecewise_section,
    square_shift_partition,
    uniformity,
)


def power_map(ctx, n):
    return lambda x: ctx.pow(x, n)


def test_uniformity_basics(ctx9):
    assert uniformity(ctx9, lambda x: x) == 1
    assert uniformity(ctx9, lambda x: ctx9.zero) == ctx9.Q
    assert uniformity(ctx9, power_map(ctx9, 2)) == 2  # squaring is 2-to-1 off zero


def test_diff_op_basics(ctx9):
    a = ctx9.element_from_index(4)
    with pytest.raises(ValueError):
        diff_op(ctx9, lambda x: x, ctx9.zero)
    # linear map: constant difference
    c = ctx9.element_from_index(5)
    d = diff_op(ctx9, lambda x: c * x, a)
    vals = {d(x).index for x in ctx9.enumerate_field()}
    assert vals == {(c * a).index}
    # squaring: difference 2ax + a^2 is a bijection
    d2 = diff_op(ctx9, power_map(ctx9, 2), a)
    images = {d2(x).index for x in ctx9.enumerate_field()}
    assert len(images) == ctx9.Q
    for x in ctx9.enumerate_field():
        assert d2(x) == x * a * 2 + a * a


def test_diff_op_shift_by_linearized(ctx9):
    # adding L + c to f translates each difference map by L(a)
    rng = np.random.default_rng(2)
    f = rng.integers(0, ctx9.Q, ctx9.Q).astype(np.int32)
    coeffs = [ctx9.element_from_index(int(i)) for i in rng.integers(0, ctx9.Q, 2)]
    L = linearized_table(ctx9, coeffs)
    c = int(rng.integers(0, ctx9.Q))
    t = ctx9.tables
    g = t.add(t.add(f, L), np.int32(c))
    for ai in range(1, ctx9.Q):
        a = ctx9.element_from_index(ai)
        df = diff_op(ctx9, f, a)
        dg = diff_op(ctx9, g, a)
        La = ctx9.element_from_index(int(L[ai]))
        for x in ctx9.enumerate_field():
            assert dg(x) == df(x) + La


def test_du_values(ctx9, ctx25):
    for ctx, expect in ((ctx9, 3), (ctx25, 7)):
        prof = du(ctx, power_map(ctx, (ctx.Q + 1) // 2))
        assert prof.delta == expect == (ctx.Q + 3) // 4
        assert prof.row_max[prof.max_direction.index] == prof.delta
        assert set(prof.row_max) == set(range(1, ctx.Q))
    assert du(ctx9, lambda x: x * ctx9.element_from_index(7)).delta == ctx9.Q
    assert du(ctx9, power_map(ctx9, 2)).delta == 1  # planar square map


def test_du_matches_definition_brute_force(ctx9):
    rng = np.random.default_rng(6)
    tbl = rng.integers(0, ctx9.Q, ctx9.Q).astype(np.int32)
    prof = du(ctx9, tbl)
    best = 0
    for ai in range(1, ctx9.Q):
        fibers = {}
        for xi in range(ctx9.Q):
            v = ctx9._add_i(int(tbl[ctx9._add_i(xi, ai)]), ctx9._neg_i(int(tbl[xi])))
            fibers[v] = fibers.get(v, 0) + 1
        u = max(fibers.values())
        assert prof.row_max[ai] == u
        best = max(best, u)
    assert prof.delta == best


def full_direction_row_maxima(t, tbl):
    # reference: every nonzero direction a, one bincount over the (Q-1) x Q offsets
    Q = len(tbl)
    ar = np.arange(Q)
    diffs = t.sub(tbl[t.add(ar[1:, None], ar[None, :])], tbl[None, :])
    offs = diffs + (np.arange(Q - 1, dtype=np.int64) * Q)[:, None]
    counts = np.bincount(offs.ravel(), minlength=(Q - 1) * Q)
    return counts.reshape(Q - 1, Q).max(axis=1)


def assert_du_matches_reference(ctx, tbl):
    um = full_direction_row_maxima(ctx.tables, tbl)
    assert np.array_equal(_row_maxima(ctx.tables, tbl), um)
    prof = du(ctx, tbl)
    assert prof.delta == um.max()
    assert prof.max_direction.index == int(np.argmax(um)) + 1
    assert prof.row_max == {a + 1: int(u) for a, u in enumerate(um)}


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (13, 1)])
def test_row_maxima_match_full_directions(p, e):
    # one direction of each pair {a, -a}, chunked, against every direction at once
    ctx = field_ctx(p, e)
    rng = np.random.default_rng(p * 10 + e)
    for family in "xyz":
        for i1, i2 in rng.integers(0, ctx.Q, (3, 2)).tolist() + [[1, 0], [ctx.q, 2]]:
            assert_du_matches_reference(ctx, piecewise_section(ctx, family, i1, i2))
    for _ in range(4):
        assert_du_matches_reference(ctx, rng.integers(0, ctx.Q, ctx.Q).astype(np.int32))
        assert_du_matches_reference(ctx, rng.permutation(ctx.Q).astype(np.int32))


@pytest.mark.parametrize("p,e,rows", [(5, 1, 5), (3, 2, 3), (13, 1, 5), (3, 2, 1)])
def test_row_maxima_partial_last_chunk(monkeypatch, p, e, rows):
    ctx = field_ctx(p, e)
    monkeypatch.setattr(du_analysis, "_ROW_COUNT_BUDGET", rows * ctx.Q + ctx.Q // 2)
    assert rows == 1 or len(ctx.tables.shift_reps) % rows  # the last chunk is partial
    rng = np.random.default_rng(rows)
    assert_du_matches_reference(ctx, piecewise_section(ctx, "x", ctx.q + 1, 3))
    assert_du_matches_reference(ctx, rng.integers(0, ctx.Q, ctx.Q).astype(np.int32))


def along_rep(ctx, kind, row=-1):
    """A table whose largest fibres sit in the row ``shift_reps[row]`` = a.

    "periodic": f(x + a) = f(x), random on the cosets of <a>, so u = Q at a
    and its multiples; for p = 3 the row is the only one that reaches Q.
    "bump": f = 1 at x0 and x0 + a, else 0; D_a f is nonzero at x0 - a and
    x0 + a only, so u = Q - 2 at a and -a; at every other b, D_b f is
    nonzero at four points and u = Q - 4.
    """
    t = ctx.tables
    a = int(t.shift_reps[row])
    if kind == "bump":
        tbl = np.zeros(ctx.Q, dtype=np.int32)
        tbl[[5, t.add(5, a)]] = 1
        return tbl
    coset = orbit = np.arange(ctx.Q, dtype=np.int32)
    for _ in range(ctx.p - 1):
        orbit = t.add(orbit, a)
        coset = np.minimum(coset, orbit)
    return np.random.default_rng(ctx.Q).integers(0, ctx.Q, ctx.Q).astype(np.int32)[coset]


@pytest.mark.parametrize("p,e,rows", [(3, 1, 1), (3, 1, 3), (5, 1, 1), (5, 1, 5),
                                      (3, 2, 1), (3, 2, 3), (13, 1, 1), (13, 1, 5)])
def test_section_delta_stops_only_at_q(monkeypatch, p, e, rows):
    """The early stop is exact: the section delta equals the full row maximum.

    Stopping at a threshold Q - 1, Q - 2 or Q - 3 instead of Q cannot change
    any result, so no table can tell those apart: D_a f sums to 0 over each
    coset of <a>, so no fibre has Q - 1 points; a row at Q makes every other
    fibre size a multiple of p, and at most Q - 2p; and a row at Q - 2 leaves
    every other row at most Q - 4.  The "bump" table has exactly that pair,
    with its Q - 2 in the last chunk, so a stop at Q - 4 or below, or one that
    skips the last chunk, fails here.
    """
    ctx = field_ctx(p, e)
    t, Q = ctx.tables, ctx.Q
    monkeypatch.setattr(du_analysis, "_ROW_COUNT_BUDGET", rows * Q + (Q // 2 if rows > 1 else 0))
    assert rows == 1 or len(t.shift_reps) % rows  # the last chunk is partial
    rng = np.random.default_rng(p * 100 + e * 10 + rows)
    tables = [piecewise_section(ctx, family, i1, i2) for family in "xyz"
              for i1, i2 in rng.integers(0, Q, (2, 2)).tolist() + [[1, 0], [ctx.q + 1, 3]]]
    tables += [rng.integers(0, Q, Q).astype(np.int32) for _ in range(3)]
    tables += [rng.permutation(Q).astype(np.int32) for _ in range(3)]
    for tbl in tables:
        assert _section_delta(t, tbl[None])[0] == _row_maxima(t, tbl).max()

    last = [t.shift_reps[-1] - 1, t.neg[t.shift_reps[-1]] - 1]
    periodic, bump = along_rep(ctx, "periodic"), along_rep(ctx, "bump")
    um = _row_maxima(t, periodic)
    assert um[last].tolist() == [Q, Q] and (p > 3 or np.count_nonzero(um == Q) == 2)
    assert _section_delta(t, periodic[None])[0] == Q
    um = _row_maxima(t, bump)
    assert um[last].tolist() == [Q - 2, Q - 2] and np.count_nonzero(um == Q - 2) == 2
    assert set(um.tolist()) == {Q - 4, Q - 2}
    assert _section_delta(t, bump[None])[0] == Q - 2


def record_chunks(monkeypatch):
    """Record the (lo, hi) of every chunk the full scan reads."""
    read = []
    chunk_maxima = du_analysis._chunk_maxima

    def counted(t, tbl):
        for chunk in chunk_maxima(t, tbl):
            read.append(chunk[:2])
            yield chunk

    monkeypatch.setattr(du_analysis, "_chunk_maxima", counted)
    return read


def test_section_delta_reads_one_chunk_when_the_first_reaches_q(monkeypatch, ctx81):
    t, Q = ctx81.tables, ctx81.Q
    monkeypatch.setattr(du_analysis, "_ROW_COUNT_BUDGET", 3 * Q)
    read = record_chunks(monkeypatch)
    # an X-section with y in GF(q) is linear: direction 1 reaches Q, and no
    # chunk is read
    assert _section_delta(t, piecewise_section(ctx81, "x", 2, 5)[None])[0] == Q
    assert read == []
    # u = Q in the first chunk's second row, but not in direction 1
    periodic = along_rep(ctx81, "periodic", row=1)
    assert _row_maxima(t, periodic)[0] < Q
    read.clear()
    assert _section_delta(t, periodic[None])[0] == Q
    assert read == [(0, 3)]
    read.clear()
    assert _section_delta(t, along_rep(ctx81, "bump")[None])[0] == Q - 2
    assert len(read) == -(-len(t.shift_reps) // 3)


def x_center(t, y, z):
    return int(t.mul(t.inv[t.tq[y]], t.tq[z]))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (7, 2)])
def test_one_direction_du_on_every_x_class(monkeypatch, p, e):
    # the X classes are y = a + w, a in GF(q); the symmetry holds on each, u
    # is the same in every nonzero direction, and direction 1 gives the
    # full-scan value without reading a chunk
    ctx = field_ctx(p, e)
    t, Q, q = ctx.tables, ctx.Q, ctx.q
    read = record_chunks(monkeypatch)
    zs = np.random.default_rng(Q).integers(0, Q, q).tolist()
    for a, z in zip(range(q), zs):
        s = piecewise_section(ctx, "x", a + q, z)
        um = _row_maxima(t, s)
        assert set(um.tolist()) == {(Q + 3) // 4}
        read.clear()
        assert _section_delta(t, s[None], [x_center(t, a + q, z)])[0] == (Q + 3) // 4
        assert read == []


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_two_slope_maps_have_one_u_in_every_direction(monkeypatch, p, e):
    # every map x -> Ax on the squares and 0, Bx on the non-squares, which
    # is what passing the symmetry check about center 0 leaves: u is the
    # same in every nonzero direction, so direction 1 gives the value
    ctx = field_ctx(p, e)
    t, Q = ctx.tables, ctx.Q
    read = record_chunks(monkeypatch)
    ar = np.arange(Q, dtype=np.int32)
    square = t.quad >= 0
    for A in range(Q):
        for B in range(Q):
            s = np.where(square, t.mul(A, ar), t.mul(B, ar)).astype(np.int32)
            um = _row_maxima(t, s)
            assert um.min() == um.max(), (A, B)
            read.clear()
            assert _section_delta(t, s[None], [0])[0] == um.max(), (A, B)
            assert read == []


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_hughes_sections_need_no_full_scan(monkeypatch, p, e):
    # exhaustively at Q <= 81: the probe decides every Y- and Z-section and
    # every linear X-section, and the symmetry every other X-section; and so
    # for the sampled sections of `du` at Q = 2401
    ctx = field_ctx(p, e)

    def no_scan(t, tbl):
        raise AssertionError("a section fell back to the full scan")

    monkeypatch.setattr(du_analysis, "_chunk_maxima", no_scan)
    report = du_sections(ctx)
    assert all(report[family]["passed"] for family in "xyz")
    assert cli.main(["du", "--p", "7", "--e", "2", "--samples", "8"]) == 0


def test_full_scan_memory_does_not_grow_with_the_packed_table():
    # at Q = 59049 the packed-digit table _canon has 5^10 entries; a chunk of
    # the full scan allocates O(the chunk) beyond the field tables
    ctx = field_ctx(3, 5)
    t = ctx.tables
    tbl = np.random.default_rng(0).integers(0, ctx.Q, ctx.Q).astype(np.int32)
    tracemalloc.start()
    try:
        lo, hi, u = next(du_analysis._chunk_maxima(t, tbl))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6
    a = int(t.shift_reps[0])
    assert (lo, hi) == (0, 1)
    assert u[0] == np.bincount(t.sub(tbl[t.add(np.arange(ctx.Q), a)], tbl)).max()


@pytest.mark.parametrize("p,e", [(5, 1), (3, 2), (13, 1)])
def test_symmetry_failure_falls_back_to_the_full_scan(monkeypatch, p, e):
    ctx = field_ctx(p, e)
    t, Q, q = ctx.tables, ctx.Q, ctx.q
    read = record_chunks(monkeypatch)
    rng = np.random.default_rng(Q)
    for y, z in [(q + 1, 3), (2 * q + 5, 0)] + rng.integers(q, Q, (2, 2)).tolist():
        s, k = piecewise_section(ctx, "x", y, z), x_center(t, y, z)
        overwritten, swapped = s.copy(), s.copy()
        x0, x1 = rng.choice(Q, 2, replace=False)
        overwritten[x0] = t.add(s[x0], 1)
        swapped[[x0, x1]] = s[[x1, x0]]
        assert s[x0] != s[x1]
        cases = [(overwritten, k), (swapped, k), (s, t.add(k, 1)), (s, t.add(k, q))]
        for tbl, center in cases:
            expected = _row_maxima(t, tbl).max()
            read.clear()
            assert _section_delta(t, tbl[None], [center])[0] == expected
            assert len(read) > 0


def record_scanned_rows(monkeypatch):
    """Record the table of every row the full scan reads."""
    scanned = []
    chunk_maxima = du_analysis._chunk_maxima

    def recorded(t, tbl):
        scanned.append(tbl.tolist())
        return chunk_maxima(t, tbl)

    monkeypatch.setattr(du_analysis, "_chunk_maxima", recorded)
    return scanned


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2)])
def test_one_batch_takes_all_three_exits(monkeypatch, p, e):
    # a linear X-section (the probe), a translated two-slope map with its
    # center (the symmetry check), the same map with a wrong center and a
    # random table (the full scan), interleaved in one batch
    ctx = field_ctx(p, e)
    t, Q = ctx.tables, ctx.Q
    scanned = record_scanned_rows(monkeypatch)
    rng = np.random.default_rng(Q)
    ar = np.arange(Q, dtype=np.int32)
    k, k_prime = 3, 7
    shifted = t.add(ar, k)
    two_slope = t.add(np.where(t.quad[shifted] >= 0, t.mul(1, shifted), t.mul(2, shifted)), k_prime)
    linear = piecewise_section(ctx, "x", 1, 4)
    noise = rng.integers(0, Q, Q).astype(np.int32)
    rows = np.stack([noise, linear, two_slope, two_slope, linear, two_slope])
    centers = [k, 0, k, t.add(k, 1), k, k]
    want = [_row_maxima(t, row).max() for row in rows]
    assert want[1] == Q and want[2] < Q
    scanned.clear()
    assert _section_delta(t, rows, centers).tolist() == want
    assert scanned == [noise.tolist(), two_slope.tolist()]
    # with no centers every row the probe leaves is scanned
    scanned.clear()
    assert _section_delta(t, rows).tolist() == want
    assert scanned == [rows[i].tolist() for i in (0, 2, 3, 5)]


def test_half_power_difference_case_formula(ctx9):
    # away from the character's zeros the difference map of x^((Q+1)/2) is
    # a / 2x+a / -2x-a / -a according to the sign pattern of (x, x+a)
    f = power_map(ctx9, (ctx9.Q + 1) // 2)
    for ai in range(1, ctx9.Q):
        a = ctx9.element_from_index(ai)
        d = diff_op(ctx9, f, a)
        for x in ctx9.enumerate_field():
            sx, sxa = ctx9.quad_char(x), ctx9.quad_char(x + a)
            if sx == 0 or sxa == 0:
                continue
            expected = {
                (1, 1): a,
                (-1, 1): x * 2 + a,
                (1, -1): -(x * 2) - a,
                (-1, -1): -a,
            }[(sx, sxa)]
            assert d(x) == expected


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_du_invariant_under_affine_linearized(p, e):
    ctx = field_ctx(p, e)
    rng = np.random.default_rng(p)
    t = ctx.tables
    for trial in range(4):
        f = rng.integers(0, ctx.Q, ctx.Q).astype(np.int32)
        coeffs = [ctx.element_from_index(int(i)) for i in rng.integers(0, ctx.Q, 2)]
        g = t.add(t.add(f, linearized_table(ctx, coeffs)), np.int32(int(rng.integers(0, ctx.Q))))
        assert du(ctx, g).delta == du(ctx, f).delta


def test_du_invariant_under_linearized_pp_composition(ctx9):
    rng = np.random.default_rng(12)
    f = function_table(ctx9, power_map(ctx9, (ctx9.Q + 1) // 2))
    found = 0
    while found < 3:
        coeffs = [ctx9.element_from_index(int(i)) for i in rng.integers(0, ctx9.Q, 2)]
        L = linearized_table(ctx9, coeffs)
        if uniformity(ctx9, L) != 1:
            continue
        found += 1
        base = du(ctx9, f).delta
        assert du(ctx9, f[L]).delta == base  # f after L
        assert du(ctx9, L[f]).delta == base  # L after f


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_du_composition_with_tq_is_maximal(p, e):
    # t_q is linearized but not a bijection; composing with it pins every
    # difference in a subfield direction to a constant
    ctx = field_ctx(p, e)
    tq = ctx.tables.tq
    f = function_table(ctx, power_map(ctx, (ctx.Q + 1) // 2))
    comp = f[tq]
    for ai in range(1, ctx.q):
        d = diff_op(ctx, comp, ctx.element_from_index(ai))
        assert len({d(x).index for x in ctx.enumerate_field()}) == 1
    assert du(ctx, comp).delta == ctx.Q


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_du_sections_exhaustive(p, e):
    ctx = field_ctx(p, e)
    report = du_sections(ctx)
    for family in "xyz":
        assert report[family]["passed"]
        assert report[family]["fixings"] is report["x"]["fixings"]
    fixings = report["x"]["fixings"].tolist()
    assert fixings == [[y, z] for y in range(ctx.Q) for z in range(ctx.Q)]
    for (y, z), delta in zip(fixings, report["x"]["deltas"].tolist()):
        assert delta == (ctx.Q if y < ctx.q else (ctx.Q + 3) // 4)


def test_du_sections_sampled_q49(ctx49):
    report = du_sections(ctx49, sample=100, seed=0)
    assert all(report[f]["passed"] for f in "xyz")
    assert set(report["x"]["deltas"]) <= {49, 13}
    assert 13 in report["x"]["deltas"]
    assert len(report["x"]["deltas"]) == 100


@pytest.mark.parametrize("sample,seed", [(1, 0), (7, 3), (40, 11)])
def test_du_sections_sampled_fixings_index_all_pairs(ctx81, sample, seed):
    # a sample of k draws k positions in the lexicographic list of all Q^2 pairs
    Q = ctx81.Q
    pairs = [(i1, i2) for i1 in range(Q) for i2 in range(Q)]
    chosen = np.random.default_rng(seed).choice(len(pairs), size=sample, replace=False)
    report = du_sections(ctx81, families="xz", sample=sample, seed=seed)
    fixings = report["x"]["fixings"]
    assert report["z"]["fixings"] is fixings
    assert fixings.tolist() == [list(pairs[i]) for i in sorted(chosen)]
    assert fixings.shape == (sample, 2) and fixings.dtype == np.int32
    assert not fixings.flags.writeable
    with pytest.raises(ValueError):
        fixings[0, 0] = 0


def test_du_sections_sample_sizes(ctx25):
    for family in "yz":
        sampled = du_sections(ctx25, families=family, sample=30, seed=7)
        assert all(d == ctx25.Q for d in sampled[family]["deltas"])
    # a sample of 100 fixings, of 2 and of none is the exhaustive sweep at
    # the sampled fixings
    full = du_sections(ctx25, families="x")["x"]
    by_fixing = dict(zip(map(tuple, full["fixings"].tolist()), full["deltas"].tolist()))
    for sample in (100, 2, 0):
        report = du_sections(ctx25, families="x", sample=sample, seed=5)["x"]
        assert report["fixings"].shape == (sample, 2) and len(report["deltas"]) == sample
        assert report["deltas"].tolist() == [by_fixing[tuple(f)] for f in report["fixings"].tolist()]
        assert report["passed"]


@pytest.mark.parametrize("families,sample", [("w", 0), ("xx", None), ("", None), ("xyw", 5), (["x"], 5)])
def test_du_sections_rejects_bad_families_before_sweeping(monkeypatch, ctx9, families, sample):
    def no_section(*args):
        raise AssertionError("a section was swept")

    monkeypatch.setattr(du_analysis, "piecewise_section", no_section)
    with pytest.raises(ValueError, match="families"):
        du_sections(ctx9, families=families, sample=sample)


def test_du_payload_writes_the_sweep_arrays_uncopied(ctx25):
    report = du_sections(ctx25, sample=30, seed=2)
    payload = cli._du_payload(report)
    for family, res in report.items():
        y, z, deltas = payload[family]["per_fixing"].columns
        assert np.shares_memory(y, res["fixings"]) and np.shares_memory(z, res["fixings"])
        assert np.shares_memory(deltas, res["deltas"])
        aggregate = payload[family]["aggregate"]
        assert aggregate == {"max_delta": max(res["deltas"].tolist()),
                             "min_delta": min(res["deltas"].tolist()), "pass": True}
        assert type(aggregate["max_delta"]) is int and type(aggregate["min_delta"]) is int


@pytest.mark.parametrize("p,e,sample", [(3, 1, None), (5, 1, None), (3, 2, 40), (3, 2, 0)])
def test_du_sections_batches_match_the_default_budget(monkeypatch, p, e, sample):
    # batches of 1, 2 and 3 sections, the last one partial where the count
    # is no multiple of the size, give the result of the default batches,
    # with one piecewise_section call per batch
    ctx = field_ctx(p, e)
    want = du_sections(ctx, sample=sample, seed=3)
    n = len(want["x"]["fixings"])
    shapes = []
    section = du_analysis.piecewise_section

    def recorded(ctx, family, i1, i2):
        out = section(ctx, family, i1, i2)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(du_analysis, "piecewise_section", recorded)
    for rows in (1, 2, 3):
        monkeypatch.setattr(du_analysis, "_ROW_COUNT_BUDGET", rows * ctx.Q + ctx.Q // 2)
        shapes.clear()
        got = du_sections(ctx, sample=sample, seed=3)
        assert got.keys() == want.keys()
        for family, res in got.items():
            assert res.keys() == want[family].keys()
            assert all(np.array_equal(res[key], want[family][key]) for key in res), family
        batches = [(rows, ctx.Q)] * (n // rows) + ([(n % rows, ctx.Q)] if n % rows else [])
        assert shapes == batches * 3


def test_import_leaves_the_process_pool_unloaded():
    # no subcommand needs concurrent.futures or multiprocessing
    env = dict(os.environ, PYTHONPATH=str(Path(hughesptr.__file__).parents[1]))
    probe = ("import sys, hughesptr\n"
             "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "False"]


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_piecewise_sections_match_grid(p, e):
    ctx = field_ctx(p, e)
    table = ptr_table(ctx)
    for i1 in range(ctx.Q):
        for i2 in range(ctx.Q):
            assert np.array_equal(piecewise_section(ctx, "x", i1, i2), table[:, i1, i2])
            assert np.array_equal(piecewise_section(ctx, "y", i1, i2), table[i1, :, i2])
            assert np.array_equal(piecewise_section(ctx, "z", i1, i2), table[i1, i2, :])


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1)])
def test_piecewise_section_batch_matches_grid(p, e):
    # every fixing at once, as (Q^2, 1) index columns, in lexicographic order
    ctx = field_ctx(p, e)
    Q, table = ctx.Q, ptr_table(ctx)
    i1, i2 = np.divmod(np.arange(Q * Q, dtype=np.int32)[:, None], Q)
    for family, axes in (("x", (1, 2, 0)), ("y", (0, 2, 1)), ("z", (0, 1, 2))):
        want = table.transpose(axes).reshape(Q * Q, Q)
        assert np.array_equal(piecewise_section(ctx, family, i1, i2), want)


def test_k_sets(ctx9, ctx25):
    for ctx in (ctx9, ctx25):
        Q = ctx.Q
        for a in ctx.enumerate_field():
            if not a.index:
                continue
            k1, k4 = k_sets(ctx, a)
            parts = square_shift_partition(ctx, a)
            assert sum(parts.values()) == Q
            assert parts["boundary"] == 2
            if ctx.quad_char(a) == 1:
                assert k1 == (Q + 3) // 4
        with pytest.raises(ValueError):
            k_sets(ctx, ctx.zero)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_k_sets_match_direct_count(p, e):
    # the partition-based counts against a direct count, at every nonzero shift
    ctx = field_ctx(p, e)
    t = ctx.tables
    ar = np.arange(ctx.Q, dtype=np.int32)
    sq, nsq = t.quad >= 0, t.quad == -1
    for a in range(1, ctx.Q):
        xa = t.add(ar, np.int32(a))
        direct = (int(np.count_nonzero(sq & sq[xa])), int(np.count_nonzero(nsq & nsq[xa])))
        assert k_sets(ctx, ctx.element_from_index(a)) == direct, a


def test_k_sets_cross_check_against_du(ctx9):
    # for a square shift the square/square count is exactly the fiber
    # maximum of the difference map of x^((Q+1)/2) in that direction
    prof = du(ctx9, power_map(ctx9, (ctx9.Q + 1) // 2))
    for a in ctx9.enumerate_field():
        if ctx9.quad_char(a) == 1:
            assert prof.row_max[a.index] == k_sets(ctx9, a)[0]
    assert prof.delta == max(
        k_sets(ctx9, a)[0] for a in ctx9.enumerate_field() if ctx9.quad_char(a) == 1
    )
