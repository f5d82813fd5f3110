import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hughesptr import build_reduced_T, evaluate_grid, field_ctx, ptr_piecewise, ptr_slabs, ptr_table, ptr_verify
from hughesptr.ptr_verify import (
    PtrReport,
    _axiom_c_direct,
    _collineations,
    _e_pairs,
    _field_tables,
    _lines_through,
    _orbit_minima,
    _plane_points,
    _table_symmetries,
    build_plane,
    check_axioms,
    check_plane,
    check_table_plane,
    count_fano_quadrangles,
    value_table,
    check_pp_classes,
)


def classical_table(ctx):
    t = ctx.tables
    ar = np.arange(ctx.Q, dtype=np.int32)
    return t.add(t.mul(ar[:, None, None], ar[None, :, None]), ar[None, None, :])


def hughes_table(ctx):
    return ptr_table(ctx)


def table_plane(table):
    """The line array of a (Q,Q,Q) value table, built from its own y-slabs."""
    return build_plane(table.swapaxes(0, 1))


def test_axioms_pass_hughes_q9(ctx9):
    reports = check_axioms(value_table(ctx9, lambda x, y, z: ptr_piecewise(ctx9, x, y, z)))
    assert [r.label for r in reports] == [*"ABCDE", "x_sections", "y_sections", "z_sections"]
    assert all(r.passed for r in reports)
    assert all(r.witness is None for r in reports)


def test_axioms_pass_classical(ctx9):
    assert all(r.passed for r in check_axioms(table=classical_table(ctx9)))


def test_axioms_pass_polynomial_table(ctx9, ctx25):
    for ctx in (ctx9, ctx25):
        table = evaluate_grid(build_reduced_T(ctx))
        assert all(r.passed for r in check_axioms(table=table))


def test_value_table_matches_vector_oracle(ctx9):
    scalar = value_table(ctx9, lambda x, y, z: ptr_piecewise(ctx9, x, y, z))
    assert np.array_equal(scalar, hughes_table(ctx9))


def _axiom_report(ctx, fn, label):
    reports = {r.label: r for r in check_axioms(value_table(ctx, fn))}
    return reports[label]


def test_negative_control_axiom_a(ctx9):
    # dropping z breaks T(a,0,z) = z
    r = _axiom_report(ctx9, lambda x, y, z: x * y, "A")
    assert not r.passed and r.witness is not None
    x, y, z = (ctx9.element_from_index(i) for i in r.witness)
    assert (x * y) != z  # the witness really violates the axiom


def test_negative_control_axiom_b(ctx9):
    r = _axiom_report(ctx9, lambda x, y, z: x * (y * y) + z, "B")
    assert not r.passed and r.witness is not None


@pytest.mark.parametrize("cells,label,witness", [
    ([(4, 0, 2)], "A", (4, 0, 2)),  # T(x, 0, z) = z
    ([(0, 5, 2)], "A", (0, 5, 2)),  # T(0, y, z) = z
    ([(0, 5, 2), (7, 0, 1)], "A", (7, 0, 1)),  # the first identity is read first
    ([(6, 1, 0)], "B", (6, 1, 0)),  # T(x, 1, 0) = x
    ([(1, 4, 0)], "B", (1, 4, 0)),  # T(1, y, 0) = y
    ([(1, 4, 0), (8, 1, 0)], "B", (8, 1, 0)),
])
def test_axioms_a_and_b_report_the_first_failing_cell(ctx9, cells, label, witness):
    table = classical_table(ctx9)
    for cell in cells:
        table[cell] = (table[cell] + 1) % ctx9.Q
    assert {r.label: r for r in check_axioms(table)}[label] == PtrReport(label, False, witness)


def test_negative_control_axiom_c(ctx9):
    r = _axiom_report(ctx9, lambda x, y, z: (x * x) * y + z, "C")
    assert not r.passed and r.witness is not None
    a, b, c, d = (ctx9.element_from_index(i) for i in r.witness)
    assert a != c
    count = sum(
        1
        for x in ctx9.enumerate_field()
        if (x * x) * a + b == (x * x) * c + d
    )
    assert count != 1


def test_negative_control_axiom_d(ctx9):
    r = _axiom_report(ctx9, lambda x, y, z: x * y + z * z, "D")
    assert not r.passed and r.witness is not None


def test_negative_control_axiom_e(ctx9):
    fn = lambda x, y, z: x * (y * y) + z
    r = _axiom_report(ctx9, fn, "E")
    assert not r.passed and r.witness is not None
    ai, ci, y1, z1, y2, z2 = r.witness
    a, c = ctx9.element_from_index(ai), ctx9.element_from_index(ci)
    p1 = (ctx9.element_from_index(y1), ctx9.element_from_index(z1))
    p2 = (ctx9.element_from_index(y2), ctx9.element_from_index(z2))
    assert p1 != p2
    assert fn(a, *p1) == fn(a, *p2) and fn(c, *p1) == fn(c, *p2)


@pytest.mark.parametrize("cell,value", [
    ((0, 5, 6), -1),  # np.bincount raises on a negative id
    ((2, 5, 6), 9),   # an id of Q: h * Q + Q packs as the pair (h + 1, 0)
    ((8, 8, 8), 2**31 - 1),
    ((4, 0, 3), -9),
])
def test_axiom_e_reports_ids_out_of_range(ctx9, cell, value):
    table = hughes_table(ctx9)
    table[cell] = value
    reports = {r.label: r for r in check_axioms(table)}
    assert reports["E"] == PtrReport("E", False, ("value_range",) + cell)
    assert not reports["D"].passed
    # with two bad cells the first in scan order is the witness
    table[8, 0, 0] = 9
    assert ptr_verify._axiom_e(table) == PtrReport("E", False, ("value_range",) + min(cell, (8, 0, 0)))


def _ternary_table(ctx, f):
    """Value table of f(x, y, z) built from the vector kernels."""
    ar = np.arange(ctx.Q, dtype=np.int32)
    return f(ctx.tables, ar[:, None, None], ar[None, :, None], ar[None, None, :])


def _swapped_hughes_table(ctx):
    tbl = hughes_table(ctx).copy()
    tbl[2, 3, [0, 1]] = tbl[2, 3, [1, 0]]  # row (2, 3) stays a bijection in z
    return tbl


C_CASES = {
    "hughes": hughes_table,
    "classical": classical_table,
    "x^2*y+z": lambda ctx: _ternary_table(
        ctx, lambda t, x, y, z: t.add(t.mul(t.mul(x, x), y), z)),
    "x*y^2+z": lambda ctx: _ternary_table(
        ctx, lambda t, x, y, z: t.add(t.mul(x, t.mul(y, y)), z)),
    "hughes_row_swap": _swapped_hughes_table,
    "x*y+z^2": lambda ctx: _ternary_table(
        ctx, lambda t, x, y, z: t.add(t.mul(x, y), t.mul(z, z))),
    "x^2*y+z^2": lambda ctx: _ternary_table(
        ctx, lambda t, x, y, z: t.add(t.mul(t.mul(x, x), y), t.mul(z, z))),
}


@pytest.mark.parametrize("case", sorted(C_CASES))
@pytest.mark.parametrize("p", [3, 5])
def test_axiom_c_matches_direct_check(case, p):
    # check_axioms must report exactly what the column-pair check does
    ctx = field_ctx(p, 1)
    tbl = C_CASES[case](ctx)
    reports = {r.label: r for r in check_axioms(table=tbl)}
    direct = _axiom_c_direct(tbl)
    assert reports["C"] == direct
    assert direct.passed == (case in ("hughes", "classical", "x*y+z^2"))
    if direct.witness is not None:
        assert all(type(v) is int for v in direct.witness)
    assert reports["D"].passed == ("z^2" not in case)


def _perturb_table(tbl, rng):
    """Swap two values in a z-row or two z-rows at one x (both keep (D)), or
    overwrite one value (breaks (D))."""
    Q = tbl.shape[0]
    x, y = rng.integers(Q, size=2)
    kind = rng.integers(3)
    if kind == 0:
        z1, z2 = rng.choice(Q, size=2, replace=False)
        tbl[x, y, [z1, z2]] = tbl[x, y, [z2, z1]]
    elif kind == 1:
        y1, y2 = rng.choice(Q, size=2, replace=False)
        tbl[x, [y1, y2]] = tbl[x, [y2, y1]]
    else:
        z = rng.integers(Q)
        tbl[x, y, z] = (tbl[x, y, z] + rng.integers(1, Q)) % Q


@pytest.mark.parametrize("p", [3, 5])
def test_axiom_random_controls_match_direct(p):
    # (C) is inferred from (D) and (E) when both hold; the Q^5 scan must agree
    ctx = field_ctx(p, 1)
    rng = np.random.default_rng(p)
    base = hughes_table(ctx)
    seen = set()
    for _ in range(150):
        tbl = base.copy()
        for _ in range(rng.integers(1, 3)):
            _perturb_table(tbl, rng)
        reports = {r.label: r for r in check_axioms(tbl)}
        assert reports["C"] == _axiom_c_direct(tbl)
        seen.add((reports["D"].passed, reports["E"].passed))
    assert {(True, True), (True, False), (False, False)} <= seen


def _full_sort_reports(tbl):
    """The section reports by one sorted copy of the whole table per axis."""
    Q = tbl.shape[0]
    reports = []
    for label, axis, skip in (("x_sections", 0, 1), ("y_sections", 1, 1), ("z_sections", 2, 0)):
        ar = np.arange(Q).reshape([-1 if i == axis else 1 for i in range(3)])
        bad = np.argwhere(~(np.sort(tbl, axis=axis) == ar).all(axis=axis)[skip:])
        witness = (int(bad[0][0]) + skip, int(bad[0][1])) if len(bad) else None
        reports.append(PtrReport(label, witness is None, witness))
    return reports


@pytest.mark.parametrize("budget", [None, 3, 2**14])
@pytest.mark.parametrize("p,e", [(5, 1), (3, 2)])
def test_chunked_section_checks_match_full_sort(p, e, budget, monkeypatch):
    # chunks of many leading indices, of one, and of two at Q = 81
    if budget is not None:
        monkeypatch.setattr(ptr_verify, "_PAIR_COUNT_BUDGET", budget)
    ctx = field_ctx(p, e)
    rng = np.random.default_rng(p * budget if budget else p)
    base = hughes_table(ctx)
    # two PTRs, whose sections are implied, and the x-slabs 0 and 1 swapped:
    # (C), (D) and (E) hold, but (A) fails, and the y-section T(1, Y, z) with it
    for tbl in (base, classical_table(ctx), base[[1, 0, *range(2, ctx.Q)]]):
        assert check_axioms(tbl)[5:] == _full_sort_reports(tbl)
    for n in range(20):
        tbl = base.copy()
        for _ in range(rng.integers(1, 3)):
            _perturb_table(tbl, rng)
        if n % 5 == 0:  # an id out of range
            tbl[tuple(rng.integers(ctx.Q, size=3))] = rng.choice([-1, ctx.Q])
        want = _full_sort_reports(tbl)
        assert check_pp_classes(tbl) == want[:2]
        assert ptr_verify._first_bad_row(tbl, ctx.Q) == want[2].witness  # (D), the z-sections
        # (C) is a Q^5 scan once (D) fails, and (E) counts ids in [0, Q) only
        if n % 5 and (ctx.Q <= 25 or want[2].passed):
            reports = check_axioms(tbl)
            assert reports[3] == PtrReport("D", want[2].passed, want[2].witness)
            assert reports[5:] == want  # implied by (A), (C) and (E), or sorted


@pytest.mark.parametrize("p,e", [(3, 2), (13, 1)])
def test_axioms_imply_the_sections_without_sorting(p, e, monkeypatch):
    # (A) with (C) gives the x-sections and (A) with (E) the y-sections
    def refuse(table):
        raise AssertionError("the sections were sorted although (A), (C) and (E) hold")

    monkeypatch.setattr(ptr_verify, "check_pp_classes", refuse)
    reports = check_axioms(hughes_table(field_ctx(p, e)))
    assert [r.label for r in reports[5:]] == ["x_sections", "y_sections", "z_sections"]
    assert all(r.passed and r.witness is None for r in reports)


def _pair_swapped_hughes_table(ctx):
    """T(x, 0, 0) and T(x, 1, 0) swapped at every x: one permutation of the
    (y, z) pairs at every x composes each F_(a,c) with it, so (E) holds, and
    (D) fails at the row (1, 0)."""
    tbl = hughes_table(ctx).copy()
    tbl[:, [0, 1], 0] = tbl[:, [1, 0], 0]
    return tbl


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_table_plane_matches_the_built_plane(p, e, monkeypatch):
    # the plane read off (D) and (E), or built and checked when one fails,
    # against the plane built and checked, verdict and witness
    monkeypatch.setattr(ptr_verify, "_axiom_c_direct", lambda tbl: PtrReport("C", False))  # Q^5, not read
    ctx = field_ctx(p, e)
    Q = ctx.Q
    base = hughes_table(ctx)
    x_swap, pair_swap = base[[1, 0, *range(2, Q)]], _pair_swapped_hughes_table(ctx)
    tables = [make(ctx) for make in C_CASES.values()] + [x_swap, pair_swap]
    rng = np.random.default_rng(Q)
    for _ in range(12):
        tbl = base.copy()
        for _ in range(rng.integers(1, 3)):
            _perturb_table(tbl, rng)
        tables.append(tbl)
    seen = set()
    for tbl in tables:
        axioms = check_axioms(tbl)
        report = check_table_plane(tbl, axioms)
        assert report == check_plane(table_plane(tbl))
        seen.add((axioms[3].passed, axioms[4].passed, report.passed))
    assert seen == {(True, True, True), (True, False, False), (False, True, False), (False, False, False)}
    # the x-slabs 0 and 1 swapped fail (A); their plane is the Hughes plane
    # with the points of x = 0 and x = 1 relabelled
    axioms = check_axioms(x_swap)
    assert not axioms[0].passed and check_table_plane(x_swap, axioms).passed
    axioms = check_axioms(pair_swap)
    assert (axioms[3].witness, axioms[4].passed) == ((1, 0), True)
    assert check_table_plane(pair_swap, axioms).witness == ("points_on_common_line", Q, Q * Q)


def test_pp_classes_hughes(ctx9):
    poly = build_reduced_T(ctx9)
    reports = check_pp_classes(evaluate_grid(poly))
    assert [r.label for r in reports] == ["x_sections", "y_sections"]
    assert all(r.passed for r in reports)


def test_pp_classes_x_section_at_zero_is_constant(ctx9):
    table = hughes_table(ctx9)
    for z in range(ctx9.Q):
        assert (table[:, 0, z] == z).all()  # constant, so not a bijection


def test_pp_classes_negative_control(ctx9):
    # squaring x breaks bijectivity of the x-sections
    t = ctx9.tables
    ar = np.arange(ctx9.Q, dtype=np.int32)
    x2 = t.mul(ar, ar)
    broken = t.add(t.mul(x2[:, None, None], ar[None, :, None]), ar[None, None, :])
    reports = {r.label: r for r in check_pp_classes(table=broken)}
    assert not reports["x_sections"].passed
    assert reports["x_sections"].witness is not None


def dense_incidence(plane):
    """(N, lines) bool matrix, rows points, columns lines, read off the line
    array; N = Q^2+Q+1 for Q+1 points per line."""
    n_lines, Q = plane.shape[0], plane.shape[1] - 1
    inc = np.zeros((Q * Q + Q + 1, n_lines), dtype=bool)
    inc[plane.ravel(), np.repeat(np.arange(n_lines), Q + 1)] = True
    return inc


def test_plane_counts_q9(ctx9):
    plane = table_plane(hughes_table(ctx9))
    assert plane.shape == (91, 10) and plane.dtype == np.int32
    assert (np.diff(plane, axis=1) > 0).all()  # rows ascending
    inc = dense_incidence(plane)
    assert (inc.sum(axis=0) == 10).all()
    assert (inc.sum(axis=1) == 10).all()
    assert check_plane(plane).passed


def test_plane_lines_as_documented(ctx9):
    Q, tbl = ctx9.Q, hughes_table(ctx9)
    plane = table_plane(tbl)
    m, k = 4, 7
    assert plane[m * Q + k].tolist() == [x * Q + tbl[x, m, k] for x in range(Q)] + [Q * Q + m]
    assert plane[Q * Q + 2].tolist() == [2 * Q + y for y in range(Q)] + [Q * Q + Q]
    assert plane[Q * Q + Q].tolist() == list(range(Q * Q, Q * Q + Q + 1))


def plane_by_definition(table):
    """The line array of a (Q,Q,Q) value table, written from the whole table
    in ``build_plane``'s labelling: [m, k] is x*Q + T(x, m, k) for x = 0 ..
    Q-1, then Q^2 + m; [c] is c*Q + y, then Q^2 + Q; the line at infinity
    is Q^2 .. Q^2 + Q."""
    Q = len(table)
    ar = np.arange(Q)
    affine = np.concatenate([(table.transpose(1, 2, 0) + ar * Q).reshape(Q * Q, Q),
                             Q * Q + np.repeat(ar, Q)[:, None]], axis=1)
    vertical = np.concatenate([ar[:, None] * Q + ar, np.full((Q, 1), Q * Q + Q)], axis=1)
    return np.concatenate([affine, vertical, Q * Q + np.arange(Q + 1)[None]]).astype(np.int32)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (13, 1)])
def test_plane_from_the_oracle_slabs_is_the_table_plane(p, e):
    # Q = 9, 25, 81 and 169: the plane written one oracle slab at a time, as
    # the plane command builds it, byte for byte
    ctx = field_ctx(p, e)
    plane = build_plane(ptr_slabs(ctx))
    assert plane.dtype == np.int32
    assert plane.tobytes() == plane_by_definition(ptr_table(ctx)).tobytes()


def test_build_plane_takes_exactly_q_slabs(ctx9):
    slabs = list(ptr_slabs(ctx9))
    for wrong in (slabs[:-1], slabs + slabs[:1], slabs[:1]):
        with pytest.raises(ValueError, match="exactly 9 slabs"):
            build_plane(wrong)


def test_plane_classical_control(ctx9):
    plane = table_plane(classical_table(ctx9))
    assert check_plane(plane).passed


def test_plane_negative_control(ctx9):
    plane = table_plane(hughes_table(ctx9))
    plane[0, 0] = plane[0, 1]  # line 0 loses a point
    report = check_plane(plane)
    assert not report.passed and report.witness == ("line_size", 0)
    assert report == dense_plane_report(plane)


def dense_plane_report(plane):
    """Reference plane check on the dense incidence: common-line counts from M M^T and M^T M.

    Entries stay far below float32 precision, so the products are exact.
    """
    Q, inc = plane.shape[1] - 1, dense_incidence(plane)
    N = Q * Q + Q + 1
    if inc.shape != (N, N):
        return PtrReport("projective_plane", False, ("shape", inc.shape))
    m = inc.astype(np.float32)
    for name, sizes in (("line_size", m.sum(axis=0)), ("point_degree", m.sum(axis=1))):
        if not (sizes == Q + 1).all():
            return PtrReport("projective_plane", False, (name, int(np.argmax(sizes != Q + 1))))
    for name, common in (("points_on_common_line", m @ m.T), ("lines_on_common_point", m.T @ m)):
        np.fill_diagonal(common, 1.0)
        bad = np.argwhere(common != 1.0)
        if len(bad):
            return PtrReport("projective_plane", False, (name, int(bad[0][0]), int(bad[0][1])))
    return PtrReport("projective_plane", True)


def _degree_preserving_swap(points_on, rng):
    """Move p1 from line l1 to l2 and p2 from l2 to l1; all sizes stay Q+1."""
    N = len(points_on)
    while True:
        l1, l2 = rng.choice(N, size=2, replace=False)
        only1 = np.setdiff1d(points_on[l1], points_on[l2])
        only2 = np.setdiff1d(points_on[l2], points_on[l1])
        if len(only1) and len(only2):
            p1, p2 = rng.choice(only1), rng.choice(only2)
            points_on[l1][points_on[l1] == p1] = p2
            points_on[l2][points_on[l2] == p2] = p1
            return


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [3, 5])
def test_plane_swap_controls_match_dense_oracle(p, seed):
    ctx = field_ctx(p, 1)
    plane = table_plane(hughes_table(ctx))
    assert check_plane(plane) == dense_plane_report(plane) == PtrReport("projective_plane", True)
    _degree_preserving_swap(plane, np.random.default_rng(seed))
    report = check_plane(plane)
    assert not report.passed and report.witness[0] == "points_on_common_line"
    assert report == dense_plane_report(plane)


def test_plane_size_controls_match_dense_oracle(ctx9):
    plane = table_plane(classical_table(ctx9))
    plane[7] = plane[8]  # line 7 := line 8
    report = check_plane(plane)
    assert report == dense_plane_report(plane)
    assert report.witness == ("point_degree", 7)  # (0, 7) was on line 7
    plane[20, 3] = plane[20, 5]  # a point repeated within line 20
    report = check_plane(plane)
    assert report == dense_plane_report(plane)
    assert report.witness == ("line_size", 20)


def _random_perturbation(points_on, rng):
    """A degree-preserving swap (mostly), a line repeated, or a point repeated in a line."""
    N, k = points_on.shape
    kind = rng.choice(3, p=[0.6, 0.2, 0.2])
    if kind == 0:
        _degree_preserving_swap(points_on, rng)
    elif kind == 1:
        l1, l2 = rng.choice(N, size=2, replace=False)
        points_on[l1] = points_on[l2]
    else:
        i, j = rng.choice(k, size=2, replace=False)
        line = rng.integers(N)
        points_on[line, i] = points_on[line, j]


def _random_controls(p):
    """The Hughes plane of order p and 100 seeded perturbations of it."""
    rng = np.random.default_rng(p)
    base = table_plane(hughes_table(field_ctx(p, 1)))
    planes = []
    for _ in range(100):
        plane = base.copy()
        for _ in range(rng.integers(1, 3)):
            _random_perturbation(plane, rng)
        planes.append(plane)
    return base, planes


@pytest.mark.parametrize("p", [3, 5])
def test_plane_random_controls_match_dense_oracle(p):
    # the dense oracle checks both pair counts; the single pass must agree
    witnesses = set()
    for plane in _random_controls(p)[1]:
        report = check_plane(plane)
        assert report == dense_plane_report(plane)
        witnesses.add(None if report.witness is None else report.witness[0])
    assert "points_on_common_line" in witnesses


@pytest.mark.parametrize("lines", [1, 2, 7])
@pytest.mark.parametrize("p", [3, 5])
def test_chunked_degree_count_matches_default_budget(p, lines, monkeypatch):
    # the planes of test_plane_random_controls_match_dense_oracle, with the
    # point degrees counted in chunks of 1, 2 or 7 lines
    base, planes = _random_controls(p)
    want = [check_plane(plane) for plane in [base, *planes]]
    assert sum(r.witness is not None and r.witness[0] == "point_degree" for r in want) >= 5
    monkeypatch.setattr(ptr_verify, "_PAIR_COUNT_BUDGET", lines * (p * p + 1))
    assert [check_plane(plane) for plane in [base, *planes]] == want


@pytest.mark.parametrize("budget", [10, 64, 2**17])  # chunks of 1 line, of 6 lines (91 = 15*6 + 1), one chunk
def test_lines_through_matches_stable_argsort(ctx9, monkeypatch, budget):
    monkeypatch.setattr(ptr_verify, "_PAIR_COUNT_BUDGET", budget)
    rng = np.random.default_rng(budget)
    base = table_plane(hughes_table(ctx9))
    swapped = base.copy()
    _degree_preserving_swap(swapped, rng)
    relabelled = rng.permutation(len(base)).astype(np.int32)[base]
    for points_on in (base, swapped, relabelled):
        reference = np.argsort(points_on, axis=None, kind="stable") // points_on.shape[1]
        through = _lines_through(points_on, np.arange(len(points_on)))
        assert through.dtype == np.int32
        assert np.array_equal(through, reference.reshape(points_on.shape))
        assert check_plane(points_on) == dense_plane_report(points_on)


@pytest.mark.parametrize("corrupt,witness", [
    (lambda on: on[:-1], ("shape", (90, 10))),
    (lambda on: on[:, :-1], ("shape", (91, 9))),
    (lambda on: np.where(np.arange(91)[:, None] == 30, -1, on), ("line_size", 30)),
    (lambda on: np.where(np.arange(91)[:, None] == 40, on + 91, on), ("line_size", 40)),
    (lambda on: np.where(on == 90, 91, on), ("line_size", 81)),  # first line through inf
])
def test_plane_malformed_lines_fail_without_raising(ctx9, corrupt, witness):
    plane = table_plane(hughes_table(ctx9))
    bad = corrupt(plane)
    assert check_plane(bad) == PtrReport("projective_plane", False, witness)


@pytest.mark.parametrize("budget", [10, 64])  # line-size chunks of 1 line and of 6 lines
def test_chunked_line_size_check_matches_dense_oracle(ctx9, monkeypatch, budget):
    monkeypatch.setattr(ptr_verify, "_PAIR_COUNT_BUDGET", budget)
    base = table_plane(hughes_table(ctx9))
    for line in (0, 5, 6, 90):  # first and last line of a chunk, and the last line
        plane = base.copy()
        plane[line, 2] = plane[line, 7]
        assert check_plane(plane) == dense_plane_report(plane)
        assert check_plane(plane).witness == ("line_size", line)
    rng = np.random.default_rng(budget)
    for _ in range(50):
        plane = base.copy()
        _random_perturbation(plane, rng)
        assert check_plane(plane) == dense_plane_report(plane)


def test_hughes_plane_differs_from_classical(ctx9):
    # quadrangles with collinear diagonal points exist in the Hughes plane
    # and never in the classical plane of odd order
    hughes = table_plane(hughes_table(ctx9))
    classical = table_plane(classical_table(ctx9))
    n_hughes = count_fano_quadrangles(hughes)
    n_classical = count_fano_quadrangles(classical)
    assert n_classical == 0
    assert n_hughes == 235872


def test_report_json_shape():
    r = PtrReport("A", False, (1, 2, 3))
    assert r.to_json_dict() == {"pass": False, "witness": [1, 2, 3]}
    assert PtrReport("A", True).to_json_dict() == {"pass": True}


# ---------------------------------------------------------------------------
# Scans over symmetry orbits
# ---------------------------------------------------------------------------


def _union_find_minima(perms, M):
    """Reference orbit minima: union-find over the edges i -- perm[i]."""
    parent = list(range(M))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for perm in perms:
        for i, j in enumerate(perm):
            a, b = root(i), root(int(j))
            parent[max(a, b)] = min(a, b)
    return [root(i) for i in range(M)]


@st.composite
def _permutation_sets(draw):
    M = draw(st.integers(1, 40))
    n = draw(st.integers(0, 4))
    perms = [np.array(draw(st.permutations(range(M)))) for _ in range(n)]
    if draw(st.booleans()):
        perms.append(np.arange(M))  # the identity
    return M, perms


@settings(max_examples=200, deadline=None)
@given(_permutation_sets())
def test_orbit_minima_matches_union_find(case):
    M, perms = case
    assert _orbit_minima(perms, M).tolist() == _union_find_minima(perms, M)


def test_orbit_minima_of_no_permutation_and_of_a_long_cycle():
    assert _orbit_minima([], 5).tolist() == list(range(5))
    assert _orbit_minima([np.arange(7)], 7).tolist() == list(range(7))
    cycle = np.roll(np.arange(1000), 1)
    assert (_orbit_minima([cycle], 1000) == 0).all()


@pytest.mark.parametrize("Q,params", [(9, (3, 1)), (25, (5, 1)), (81, (3, 2)), (361, (19, 1)),
                                      (1, None), (4, None), (16, None), (27, None), (45, None), (7, None)])
def test_field_tables_read_p_and_e_off_q(Q, params):
    t = _field_tables(Q)
    assert (None if t is None else t.ctx.params) == params


def _full_scan_e(table):
    """(E) on every ordered pair a != c, with the first witness: the scan
    before orbits were used, for tables with every id in [0, Q)."""
    Q = table.shape[0]
    flat = table.reshape(Q, Q * Q).astype(np.int64)
    for a in range(Q):
        for c in range(Q):
            if a == c:
                continue
            combined = flat[a] * Q + flat[c]
            counts = np.bincount(combined, minlength=Q * Q)
            if counts.max() > 1:
                h1, h2 = np.flatnonzero(combined == int(np.argmax(counts > 1)))[:2].tolist()
                return PtrReport("E", False, (a, c, *divmod(h1, Q), *divmod(h2, Q)))
    return PtrReport("E", True)


def symmetric_broken_table(ctx):
    """x*y + z + y^2 tq(x): keeps both table maps, fails (E) and the plane."""
    t = ctx.tables
    ar = np.arange(ctx.Q, dtype=np.int32)
    y2 = t.mul(ar, ar)
    return t.add(t.add(t.mul(ar[:, None, None], ar[None, :, None]), ar[None, None, :]),
                 t.mul(y2[None, :, None], t.tq[:, None, None]))


ORBIT_CASES = {
    "hughes": hughes_table,
    "classical": classical_table,
    "symmetric_broken": symmetric_broken_table,
    "hughes_row_swap": _swapped_hughes_table,
    "x*y^2+z": C_CASES["x*y^2+z"],
}

FIELDS = [(3, 1), (5, 1), (3, 2)]


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
@pytest.mark.parametrize("p,e", FIELDS)
def test_axiom_e_on_orbits_matches_full_scan(p, e, case, monkeypatch):
    tbl = ORBIT_CASES[case](field_ctx(p, e))
    report = ptr_verify._axiom_e(tbl)
    assert report == _full_scan_e(tbl)
    monkeypatch.setattr(ptr_verify, "_table_map_candidates", lambda Q: [])
    assert ptr_verify._axiom_e(tbl) == report
    assert report.passed == (case in ("hughes", "classical"))


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
@pytest.mark.parametrize("p,e", FIELDS)
def test_plane_on_orbits_matches_full_scan(p, e, case, monkeypatch):
    plane = table_plane(ORBIT_CASES[case](field_ctx(p, e)))
    report = check_plane(plane)
    if p ** (2 * e) <= 25:
        assert report == dense_plane_report(plane)
    monkeypatch.setattr(ptr_verify, "_collineation_candidates", lambda Q: [])
    assert check_plane(plane) == report
    assert report.passed == (case in ("hughes", "classical"))


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
@pytest.mark.parametrize("p,e", FIELDS)
def test_plane_from_a_tables_own_slabs_is_its_plane(p, e, case):
    # the mutants too, their slabs as a view and as separate arrays
    tbl = ORBIT_CASES[case](field_ctx(p, e))
    want = plane_by_definition(tbl).tobytes()
    assert table_plane(tbl).tobytes() == want
    assert build_plane(tbl[:, y].copy() for y in range(len(tbl))).tobytes() == want


@pytest.mark.parametrize("p,e", FIELDS)
def test_symmetric_broken_control_keeps_the_table_maps(p, e):
    tbl = symmetric_broken_table(field_ctx(p, e))
    assert len(_table_symmetries(tbl)) == 2
    assert not ptr_verify._axiom_e(tbl).passed


@pytest.mark.parametrize("p,e,n_pairs", [(3, 1, 8), (5, 1, 18), (3, 2, 50), (13, 1, 98)])
def test_orbit_scans_fire_on_hughes(p, e, n_pairs):
    # every candidate holds, so both Q^4 scans shrink to a few rows; the
    # pairs a = c, two orbits more, are not scanned
    ctx = field_ctx(p, e)
    Q, q = ctx.Q, ctx.q
    tbl = hughes_table(ctx)
    assert len(_table_symmetries(tbl)) == 2
    assert len(_e_pairs(tbl)) == n_pairs <= 3 * Q
    plane = table_plane(tbl)
    assert len(_collineations(plane)) == 4
    # (0,0), (0,w), (w,0), the slopes (0) and (w), and the point at infinity
    assert _plane_points(plane).tolist() == [0, q, q * Q, Q * Q, Q * Q + q, Q * Q + Q]


def generator_identities(ctx, tbl):
    """Whether each table identity X, Y, Gx, Gy of the ``ptr_verify``
    docstring holds on ``tbl``, in its order: both sides on the grid."""
    t, Q, q = ctx.tables, ctx.Q, ctx.q
    x, y, z = np.ix_(*[np.arange(Q, dtype=np.int32)] * 3)
    g = int(t.exp_pad[q + 1])
    assert g < q and len({int(t.pow(g, n)) for n in range(q - 1)}) == q - 1  # generates GF(q)^*
    return [np.array_equal(tbl[t.add(x, 1), y, t.sub(z, y)], tbl),
            np.array_equal(tbl[x, t.add(y, 1), z], t.add(tbl, x)),
            np.array_equal(tbl[t.mul(g, x), y, t.mul(g, z)], t.mul(g, tbl)),
            np.array_equal(tbl[x, t.mul(g, y), t.mul(g, z)], t.mul(g, tbl))]


LIFT_COUNTS = {"hughes": (1, 1, 1, 1), "classical": (1, 1, 1, 1), "symmetric_broken": (1, 0, 1, 0),
               "x*y^2+z": (0, 0, 1, 0), "hughes_row_swap": (0, 0, 0, 0)}  # per map X, Y, Gx, Gy: 1 holds


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
@pytest.mark.parametrize("p,e", FIELDS)
def test_lifted_collineation_holds_with_its_table_identity(p, e, case, monkeypatch):
    # each generator's lift holds on the plane exactly when its identity
    # holds on the table
    ctx = field_ctx(p, e)
    tbl = ORBIT_CASES[case](ctx)
    holds = generator_identities(ctx, tbl)
    assert holds == [bool(h) for h in LIFT_COUNTS[case]]
    plane = table_plane(tbl)
    candidates = ptr_verify._collineation_candidates(ctx.Q)
    assert len(candidates) == len(holds) == 4
    kept = []
    for cand in candidates:
        monkeypatch.setattr(ptr_verify, "_collineation_candidates", lambda Q: [cand])
        kept.append(len(_collineations(plane)) == 1)
    assert kept == holds


def test_lines_through_asked_points_are_rows_of_the_full_array(ctx9):
    plane = table_plane(hughes_table(ctx9))
    _degree_preserving_swap(plane, np.random.default_rng(0))
    points = np.array([0, 3, 40, 90])
    assert np.array_equal(_lines_through(plane, points), _lines_through(plane, np.arange(len(plane)))[points])


@pytest.mark.parametrize("seed", range(4))
def test_pair_count_on_asked_points_matches_dense_counts(ctx9, seed):
    # the witness names the asked point, not its position among those asked
    rng = np.random.default_rng(seed)
    plane = table_plane(hughes_table(ctx9))
    _degree_preserving_swap(plane, rng)
    common = dense_incidence(plane).astype(np.int64) @ dense_incidence(plane).T.astype(np.int64)
    np.fill_diagonal(common, 1)
    failing = np.flatnonzero((common != 1).any(axis=1))
    points = np.sort(rng.choice(len(plane), size=20, replace=False))
    points = np.union1d(points, failing[-1:])  # at least one failing point
    i = next(i for i in points.tolist() if i in failing)
    want = (i, int(np.argmax(common[i] != 1)))
    got = ptr_verify._first_pair_count_not_one(_lines_through(plane, points), plane, points)
    assert got == want and got[0] > 0


def all_table_maps(Q):
    """The 3e+2 table identities from which X, Y, Gx and Gy are drawn, as
    (pi, psi, lam) in ``_table_map_candidates``' form, with s over the
    GF(p)-basis p^0, ..., p^(e-1) of GF(q): T(x+s, y, z - s*y) = T,
    T(x, y, z+s) = T + s and T(x, y+s, z) = T + s*x for each s, then
    T(g*x, y, g*z) = g*T and T(x, g*y, g*z) = g*T."""
    t = _field_tables(Q)
    ctx = t.ctx
    ar = np.arange(Q, dtype=np.int32)
    x = y = ar[:, None]
    z, w = ar[None, :], np.broadcast_to(ar, (Q, Q))
    g = int(t.exp_pad[ctx.q + 1])
    maps = []
    for s in (ctx.p**i for i in range(ctx.e)):
        maps.append((t.add(ar, s), y * Q + t.sub(z, t.mul(s, y)), w))
        maps.append((ar, y * Q + t.add(z, s), t.add(w, s)))
        maps.append((ar, t.add(y, s) * Q + z, t.add(w, t.mul(s, x))))
    gx = t.mul(g, ar)
    maps.append((gx, y * Q + gx.take(z), gx.take(w)))
    maps.append((ar, gx.take(y) * Q + gx.take(z), gx.take(w)))
    return [(pi, psi.ravel(), lam) for pi, psi, lam in maps]


def _pair_minima(pis, Q):
    """Orbit minima of the pair ids a*Q + c under the x-maps and the swap."""
    ar = np.arange(Q)
    perms = [(pi[:, None] * Q + pi[None, :]).ravel() for pi in pis]
    perms.append((ar[None, :] * Q + ar[:, None]).ravel())
    return _orbit_minima(perms, Q * Q)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (13, 1)])
def test_four_generators_give_the_orbits_of_all_table_maps(p, e, monkeypatch):
    # the verified maps on the Hughes table: X, Y, Gx, Gy against all 3e+2
    tbl = hughes_table(field_ctx(p, e))
    Q = len(tbl)
    plane = table_plane(tbl)
    pairs, points = _pair_minima(_table_symmetries(tbl), Q), _orbit_minima(_collineations(plane), len(plane))
    monkeypatch.setattr(ptr_verify, "_table_map_candidates", all_table_maps)
    pis, sigmas = _table_symmetries(tbl), _collineations(plane)
    assert (len(pis), len(sigmas)) == (e + 1, 3 * e + 2)  # all of them hold
    assert np.array_equal(_pair_minima(pis, Q), pairs)
    assert np.array_equal(_orbit_minima(sigmas, len(plane)), points)


def test_four_generators_give_the_orbits_of_all_table_maps_at_e3(monkeypatch):
    # Q = 729, the candidates alone: no table is built
    Q = 729

    def minima():
        pis = [pi for pi, _, _ in ptr_verify._table_map_candidates(Q) if not np.array_equal(pi, np.arange(Q))]
        sigmas = [sigma for sigma, _ in ptr_verify._collineation_candidates(Q)]
        return _pair_minima(pis, Q), _orbit_minima(sigmas, Q * Q + Q + 1), len(sigmas)

    pairs, points, n = minima()
    monkeypatch.setattr(ptr_verify, "_table_map_candidates", all_table_maps)
    all_pairs, all_points, n_all = minima()
    assert (n, n_all) == (4, 11)
    assert np.array_equal(pairs, all_pairs)
    assert np.array_equal(points, all_points)


def _collineations_always_sorted(points_on):
    """``_collineations`` with every image row sorted, in one piece."""
    return [sigma for sigma, tau in ptr_verify._collineation_candidates(points_on.shape[1] - 1)
            if np.array_equal(np.sort(sigma.take(points_on), axis=1), points_on.take(tau, axis=0))]


def _same_maps(got, want):
    return len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
@pytest.mark.parametrize("p,e", FIELDS)
def test_collineations_match_always_sorting(p, e, case):
    plane = table_plane(ORBIT_CASES[case](field_ctx(p, e)))
    reversed_row = plane.copy()
    reversed_row[5] = reversed_row[5, ::-1]  # a stored row out of order: no candidate holds
    for points_on in (plane, reversed_row):
        assert _same_maps(_collineations(points_on), _collineations_always_sorted(points_on))
    assert _collineations(reversed_row) == []


@pytest.mark.parametrize("budget", [64, 2**17])  # chunks of 6 lines, one chunk of all 91
def test_chunk_with_an_ascending_first_row_is_still_sorted(ctx9, monkeypatch, budget):
    # Y and Gy keep the affine lines ascending but not the verticals 81-89:
    # the 6-line chunk 78-83 and the single chunk both start with an affine line
    monkeypatch.setattr(ptr_verify, "_PAIR_COUNT_BUDGET", budget)
    plane = table_plane(hughes_table(ctx9))
    y_map = ptr_verify._collineation_candidates(9)[1][0]
    image = y_map.take(plane[78:84])
    assert (np.diff(image[0]) > 0).all() and not (np.diff(image, axis=1) > 0).all()
    got = _collineations(plane)
    assert len(got) == 4 and _same_maps(got, _collineations_always_sorted(plane))


def _corrupt_row(row, kind, N):
    if kind == "adjacent_duplicate":
        row[4] = row[3]  # non-decreasing, not strictly ascending
    elif kind == "duplicate":
        row[2] = row[7]  # not ascending, an id twice
    elif kind == "out_of_range":
        row[2] = N + 3  # not ascending, an id above N - 1
    elif kind == "negative_first":
        row[0] = -1  # still ascending, an id below 0
    elif kind in ("n_last", "d_n_last"):
        row[-1] = N  # still ascending, an id of N
    elif kind == "swap":
        row[[2, 7]] = row[[7, 2]]  # not ascending, but a valid line


def _first_bad_row_by_sort(values, M):
    """The first row whose values, sorted in one pass over all rows, are
    not distinct ids in [0, M), or None."""
    ordered = np.sort(values, axis=-1)
    bad = (ordered[..., 0] < 0) | (ordered[..., -1] >= M) | (np.diff(ordered, axis=-1) == 0).any(axis=-1)
    hits = np.argwhere(bad)
    return tuple(int(v) for v in hits[0]) if len(hits) else None


@pytest.mark.parametrize("budget", [10, 64, 2**17])  # chunks of 1 and 6 lines, one chunk
@pytest.mark.parametrize("kind", ["adjacent_duplicate", "duplicate", "out_of_range",
                                  "negative_first", "n_last", "swap", "d_n_last"])
def test_line_check_without_sorting_ascending_rows_matches_the_sort(ctx9, monkeypatch, budget, kind):
    # d_n_last is (D) on a Q=9 table whose z-rows all ascend, one of them
    # holding the id Q; the plane's chunks are of lines, the table's of x-slabs
    monkeypatch.setattr(ptr_verify, "_PAIR_COUNT_BUDGET", budget)
    if kind == "d_n_last":
        base, M = np.broadcast_to(np.arange(9, dtype=np.int32), (9, 9, 9)).copy(), 9
    else:
        base = table_plane(hughes_table(ctx9))
        M = len(base)
    assert ptr_verify._first_bad_row(base, M) is None
    for line in (0, 5, 6, 40, -1):
        values = base.copy()
        _corrupt_row(values.reshape(-1, values.shape[-1])[line], kind, M)
        want = _first_bad_row_by_sort(values, M)
        assert (want is None) == (kind == "swap")
        assert ptr_verify._first_bad_row(values, M) == want
        if want is not None and values.ndim == 2:
            assert check_plane(values).witness == ("line_size",) + want



# first witnesses of the swapped Q=5 table below: (C), (E) and the plane
SWAPPED_CLASSICAL_Q5 = ((0, 0, 3, 1), (0, 2, 2, 1, 3, 1), ("points_on_common_line", 1, 10))


@pytest.mark.parametrize("Q", [5, 7])
def test_tables_without_table_maps_take_the_full_scans(Q):
    # a prime order is no even power: no candidate map, so (E) counts every
    # pair and the plane every point, and each keeps its first witness
    assert ptr_verify._table_map_candidates(Q) == []
    ar = np.arange(Q)
    table = ((ar[:, None, None] * ar[None, :, None] + ar[None, None, :]) % Q).astype(np.int32)
    plane = table_plane(table)
    assert all(r.passed for r in check_axioms(table) + check_pp_classes(table))
    assert check_plane(plane).passed
    assert np.array_equal(_plane_points(plane), np.arange(len(plane)))

    table[2, 3, [1, 4]] = table[2, 3, [4, 1]]  # swap T(2,3,1) and T(2,3,4)
    plane = table_plane(table)
    _, _, c, d, e, *_ = check_axioms(table)
    got = check_plane(plane)
    assert d.passed
    assert c == _axiom_c_direct(table) and not c.passed
    assert e == _full_scan_e(table) and not e.passed
    assert got == dense_plane_report(plane) and not got.passed
    if Q == 5:
        assert (c.witness, e.witness, got.witness) == SWAPPED_CLASSICAL_Q5
