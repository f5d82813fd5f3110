"""Acceptance suite: every check is exact finite-field arithmetic.

Each test prints one pass/fail line (run pytest with -s to see them).
Field sizes: Q = 9, 25, 49, 81 via (p, e) = (3,1), (5,1), (7,1), (3,2); the
three-form identity also runs at Q = 169 and 625, via (13,1) and (5,2).
"""

import re
from pathlib import Path

import numpy as np
import pytest

from hughesptr import (
    build_nonreduced_T,
    build_reduced_T,
    build_T2,
    evaluate_grid,
    field_ctx,
    phi_poly,
    ptr_piecewise,
    ptr_table,
)
from hughesptr.du_analysis import du_sections
from hughesptr.modcomb import identity_suite, gen_catalan_exact, binom_exact, catalan_exact
from hughesptr.ptr_verify import (
    build_plane,
    check_axioms,
    check_plane,
    check_pp_classes,
    value_table,
)
from conftest import random_elements

FIELDS = {9: (3, 1), 25: (5, 1), 49: (7, 1), 81: (3, 2), 169: (13, 1), 625: (5, 2)}


def _criterion(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_oracle_equivalence():
    ok = True
    for Q in (9, 25, 49, 81):
        ctx = field_ctx(*FIELDS[Q])
        grid = evaluate_grid(build_reduced_T(ctx))
        ok &= bool(np.array_equal(grid, ptr_table(ctx)))
        # ground both fast paths with scalar spot checks
        T = build_reduced_T(ctx)
        for x, y, z in zip(*(random_elements(ctx, 12, seed=Q + s) for s in (1, 2, 3))):
            want = ptr_piecewise(ctx, x, y, z)
            ok &= T.evaluate(x, y, z) == want
            ok &= grid[x.index, y.index, z.index] == want.index
    _criterion(1, "reduced polynomial equals piecewise oracle on all triples, Q in {9,25,49,81}", ok)


def test_criterion_2_three_form_identity():
    ok = True
    for Q in (9, 25, 49, 81, 169, 625):
        ctx = field_ctx(*FIELDS[Q])
        T = build_reduced_T(ctx)
        ok &= build_nonreduced_T(ctx).reduce().equal_reduced(T)
        ok &= build_T2(ctx).reduce().equal_reduced(T)
    _criterion(2, "nonreduced, reduced, and generalized forms agree coefficientwise, Q in {9,25,49,81,169,625}", ok)


def test_criterion_3_axioms_and_controls():
    ok = True
    for Q in (9, 25):
        ctx = field_ctx(*FIELDS[Q])
        reports = check_axioms(value_table(ctx, lambda x, y, z: ptr_piecewise(ctx, x, y, z)))
        ok &= all(r.passed for r in reports)

    ctx = field_ctx(3, 1)
    controls = {
        "A": lambda x, y, z: x * y,
        "B": lambda x, y, z: x * (y * y) + z,
        "C": lambda x, y, z: (x * x) * y + z,
        "D": lambda x, y, z: x * y + z * z,
        "E": lambda x, y, z: x * (y * y) + z,
    }
    for label, fn in controls.items():
        reports = {r.label: r for r in check_axioms(value_table(ctx, fn))}
        ok &= not reports[label].passed
        ok &= reports[label].witness is not None
    _criterion(3, "axioms (A)-(E) pass exhaustively at Q in {9,25}; corrupted controls rejected", ok)


def test_criterion_4_pp_classes():
    ok = True
    for Q in (9, 25):
        ctx = field_ctx(*FIELDS[Q])
        grid = evaluate_grid(build_reduced_T(ctx))
        z_sections = [r for r in check_axioms(grid) if r.label == "D"]  # T(a, b, Z): (D)
        ok &= all(r.passed for r in check_pp_classes(grid) + z_sections)
    _criterion(4, "all three section families are bijections, exhaustive at Q in {9,25}", ok)


def test_criterion_5_du_reproduction():
    ok = True
    for Q in (9, 25):
        ctx = field_ctx(*FIELDS[Q])
        report = du_sections(ctx)
        ok &= all(report[f]["report"].passed for f in "xyz")
        x = report["x"]
        expect = (Q + 3) // 4
        ok &= len(x["fixings"]) == Q * Q and all(
            d == (Q if y < ctx.q else expect) for (y, _), d in zip(x["fixings"].tolist(), x["deltas"].tolist())
        )
    ctx49 = field_ctx(7, 1)
    report = du_sections(ctx49, sample=100, seed=0)
    ok &= all(report[f]["report"].passed for f in "xyz")
    ok &= set(report["x"]["deltas"]) <= {49, 13} and 13 in report["x"]["deltas"]
    _criterion(5, "X-section delta is (Q+3)/4 off the subfield and Q on it; Y/Z maximal", ok)


def test_criterion_6_identity_suite():
    ok = True
    for p, e in [(3, 1), (3, 2), (5, 1), (7, 1), (11, 1)]:
        suite = identity_suite(p, e, max_n=300)
        ok &= all(chk.passed for chk in suite.values())
        ok &= suite["gen_catalan_diff"].checked >= 60 * 60
    # the exact difference identity, re-verified here at its stated bound
    for n in range(61):
        for k in range(1, 61):
            lhs = gen_catalan_exact(n, k) - gen_catalan_exact(n + 1, k - 1)
            ok &= lhs == 2 * binom_exact(2 * k - 1, k) * catalan_exact(n)
    _criterion(6, "binomial/Catalan congruences hold over full ranges for five (p,e) pairs", ok)


def test_criterion_7_plane_construction():
    ok = True
    for Q in (9, 25):
        ctx = field_ctx(*FIELDS[Q])
        table = value_table(ctx, lambda x, y, z: ptr_piecewise(ctx, x, y, z))
        plane = build_plane(table.swapaxes(0, 1))  # its y-slabs
        ok &= plane.shape == (Q * Q + Q + 1, Q + 1)  # as many points as lines
        ok &= bool((np.diff(plane, axis=1) > 0).all())  # Q+1 distinct points per line
        degree = np.bincount(plane.ravel(), minlength=Q * Q + Q + 1)
        ok &= bool((degree == Q + 1).all())
        ok &= check_plane(plane).passed
    _criterion(7, "plane counts and both uniqueness axioms hold exhaustively at Q in {9,25}", ok)


def test_criterion_8_involution_support_bounds():
    ok = True
    for Q in (9, 25, 49):
        ctx = field_ctx(*FIELDS[Q])
        q = ctx.q
        if Q <= 25:
            ks = ctx.enumerate_field()
        else:
            ks = ctx.subfield_elements() + random_elements(ctx, 60, seed=Q)
        for k in ks:
            for (m, _, _), c in phi_poly(ctx, k).terms.items():
                a, b = divmod(m, q)
                ok &= c.index != 0 and a <= (q - 1) // 2 and b <= (q + 1) // 2
    _criterion(8, "involution monomials X^(aq+b) satisfy a <= (q-1)/2, b <= (q+1)/2, Q in {9,25,49}", ok)


def test_readme_quick_example_runs():
    # the README's one python block, as a reader would paste it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    exec(compile(example, "README.md", "exec"), {})
