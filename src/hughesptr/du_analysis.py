"""Uniformity, difference operators, and differential uniformity over GF(Q).

Everything is computed from value tables (vectors indexed by canonical
element index), never symbolically, so the results are immune to algebra
slips.  The differential uniformity of f is the largest number of solutions
x of f(x + a) - f(x) = b over a != 0 and all b (K. Nyberg, *Differentially
uniform mappings for cryptography*, EUROCRYPT '93).  ``du`` counts them
in every direction, in O(Q^2) per function: the differences f(x + a) - f(x)
come a chunk of directions at a time from ``FieldTables.add`` and ``sub``,
and one bincount per chunk counts the fibres on intp offsets, so the scan
holds O(the chunk) beyond the field tables.  Since a and -a give
difference maps with equal fibre sizes, only one direction of each pair is
counted.

A section sweep decides most sections in O(Q).  It takes the sections a
batch at a time, about ``_ROW_COUNT_BUDGET`` values in all, and runs each
stage below as one numpy pass over the sections of the batch still open:

1. the probe: direction 1 alone.  If its largest fibre has Q points, the
   most any map can have, the section's value is Q.  This decides every Y-
   and Z-section and the linear X-sections;
2. the symmetry: an X-section with y outside GF(q) is checked, on its
   whole table, to commute with the scaling by the squares about its
   center; then it is a map with one slope on the squares and one on the
   non-squares, its largest fibre is the same in every direction, and
   direction 1, already counted, decides it (see ``_section_delta``);
3. the fallback: any other section is counted over all directions, one
   section and a chunk of directions at a time, stopping at the first
   chunk that reaches Q.

For the ternary operation of the Hughes plane the section families behave
as follows, and ``du_sections`` re-derives it from each section's table:

* X-sections T(X, y, z): differential uniformity Q when y is in the
  subfield (the section is linear), (Q+3)/4 otherwise.
* Y- and Z-sections: always Q, because the non-linear part factors through
  V -> V^q - V, which kills every direction in the subfield.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .gf_tower import FieldCtx, FieldElement
from .hughes_core import centers, ptr_values
from .ptr_verify import PtrReport

__all__ = [
    "DuProfile",
    "function_table",
    "uniformity",
    "diff_op",
    "du",
    "du_sections",
    "piecewise_section",
    "k_sets",
    "square_shift_partition",
    "linearized_table",
]


@dataclass
class DuProfile:
    """delta, a direction achieving it, and per-direction fiber maxima."""

    delta: int
    max_direction: FieldElement
    row_max: dict[int, int]  # direction index -> u(difference map)


def function_table(ctx: FieldCtx, f) -> np.ndarray:
    """Normalize a function on GF(Q) to a value-index vector.

    Accepts a callable on FieldElements, a numpy index array, or a sequence
    of indices.
    """
    if callable(f):
        return np.array([f(x).index for x in ctx.enumerate_field()], dtype=np.int32)
    arr = np.asarray(f, dtype=np.int32)
    if arr.shape != (ctx.Q,):
        raise ValueError(f"expected a table of length {ctx.Q}")
    return arr


def uniformity(ctx: FieldCtx, f) -> int:
    """Largest fiber size max_b #{x : f(x) = b}."""
    tbl = function_table(ctx, f)
    return int(np.bincount(tbl, minlength=ctx.Q).max())


def diff_op(ctx: FieldCtx, f, a: FieldElement):
    """The difference map x -> f(x+a) - f(x) for a nonzero direction a."""
    if a.index == 0:
        raise ValueError("direction must be nonzero")
    tbl = function_table(ctx, f)

    def delta(x: FieldElement) -> FieldElement:
        shifted = int(tbl[ctx._add_i(x.index, a.index)])
        return ctx.element_from_index(shifted) - ctx.element_from_index(int(tbl[x.index]))

    return delta


# count entries per chunk of rows in _chunk_maxima: with intp offsets, on a
# 2-core x86-64 VM with 2 MiB of L2 per core, a full scan of a random table
# (what ``du`` does, and the section sweep's fallback) took a median 51, 495
# and 2168 ms at Q = 2401, 6561 and 14641 with 2^16, 55, 522 and 2318 ms
# with 2^15, and 65, 528 and 2078 ms with 2^17; over this and a second
# round, on a busier host, 2^16 took the least time in total
_ROW_COUNT_BUDGET = 2**16


def _fibre_maxima(values: np.ndarray) -> np.ndarray:
    """The largest fibre of each row of the (B, Q) array ``values``, indices
    below Q, as a (B,) vector: one bincount of the values on row offsets."""
    B, Q = values.shape
    counts = np.bincount((values + np.arange(B, dtype=np.intp)[:, None] * Q).ravel(), minlength=B * Q)
    return counts.reshape(B, Q).max(axis=1)


def _chunk_maxima(t, tbl: np.ndarray):
    """Yield (lo, hi, u) with u = u(difference map) for directions
    ``t.shift_reps[lo:hi]``, a chunk of about ``_ROW_COUNT_BUDGET`` counts.

    Each chunk's differences are ``t.sub(tbl[t.add(x, a)], tbl)`` on the
    (hi - lo, Q) grid of directions a and points x, so the memory is O(the
    chunk) beyond the field tables.  The full scan: ``_row_maxima`` reads
    every chunk, and the fallback of ``_section_delta`` stops at the first
    chunk that reaches Q.
    """
    Q = len(tbl)
    rows = max(1, _ROW_COUNT_BUDGET // Q)
    ar = np.arange(Q, dtype=np.int32)
    reps = t.shift_reps
    for lo in range(0, len(reps), rows):
        hi = min(lo + rows, len(reps))
        yield lo, hi, _fibre_maxima(t.sub(tbl[t.add(ar, reps[lo:hi, None])], tbl))


def _row_maxima(t, tbl: np.ndarray) -> np.ndarray:
    """u(difference map) for every nonzero direction, as a (Q-1,) vector.

    D_{-a}f(x + a) = f(x) - f(x + a) = -D_a f(x), so x -> x + a carries the
    fibre of D_a f over b onto the fibre of D_{-a}f over -b, and the two
    maps have the same u; this holds for any f on any abelian group.  So
    only the directions in ``t.shift_reps`` are counted, and each maximum
    is written to a and to -a.
    """
    um = np.empty(len(t.shift_reps), dtype=np.int64)
    for lo, hi, u in _chunk_maxima(t, tbl):
        um[lo:hi] = u
    full = np.empty(len(tbl) - 1, dtype=np.int64)
    full[t.shift_reps - 1] = um
    full[t.neg[t.shift_reps] - 1] = um
    return full


def _section_delta(t, rows: np.ndarray, centers: np.ndarray | None = None) -> np.ndarray:
    """The differential uniformity of each row of the (B, Q) array ``rows``,
    ``_row_maxima(t, row).max()``, as a (B,) vector.

    The batch goes through three exits in turn, each on every row still
    open: one ``add``/``sub`` pass and one ``_fibre_maxima`` for the probe;
    one gathered pass for the symmetry check; and ``_chunk_maxima``, one row
    at a time, for the full scan.

    No fibre of a map on GF(Q) holds more than Q points, so when direction 1
    has a fibre of Q points the value is Q, and nothing else is counted.

    Otherwise, given a row's center k in ``centers``, take k' = s(-k) for
    s = the row and c0 = gen^2 for the generator gen of GF(Q)^*, so c0
    generates the squares.  The identity s(c0(x + k) - k) = c0(s(x) - k') + k'
    is checked for every x.  When it holds, direction 1 alone gives the
    value, because u is the same in every direction:

    * r(x) = s(x - k) - k' has r(c0 x) = c0 r(x) and r(0) = 0, and
      D_a r(x) = D_a s(x - k), so r and s have the same u in every
      direction.  Since c0 generates the squares, r(x) = Ax on the squares
      and 0, A = r(1), and r(x) = Bx on the non-squares, B = r(nu)/nu for
      a non-square nu.
    * For a nonzero square c, r(cx) = c r(x), so D_{ca}r(cx) = c D_a r(x),
      and u(D_{ca}r) = u(D_a r).
    * Let r' be r with A and B swapped.  nu x is a square exactly when x is
      not, so r(nu x) = nu r'(x), D_{nu a}r(nu x) = nu D_a r'(x) and
      u(D_{nu a}r) = u(D_a r').  And r + r' = (A+B)x, so
      D_a r' = (A+B)a - D_a r has the fibre sizes of D_a r.

    Every nonzero direction is c or nu c for a square c, so its u is that of
    direction 1.  An X-section of the Hughes operation with y outside GF(q)
    is x -> g_y(x + k) + k' with k = tq(z)/tq(y), and g_y(cx) = c*g_y(x)
    for every nonzero square c (D. R. Hughes, Canad. J. Math. 9, 1957), so
    the identity holds there.  The center only picks which identity is
    checked: when the check fails, or no centers are given, every direction
    is counted, a chunk at a time, and the count stops at the first chunk
    whose maximum is Q.
    """
    Q = rows.shape[1]
    ar = np.arange(Q, dtype=np.int32)
    deltas = _fibre_maxima(t.sub(rows[:, t.add(ar, 1)], rows))
    scan = deltas < Q
    if centers is not None:
        # gathers from the flat batch at row offsets: at Q = 59049, 0.17 ms a
        # row, against 0.50 ms with take_along_axis
        held = np.flatnonzero(scan)
        k, base, flat = np.asarray(centers)[held, None], held[:, None] * Q, rows.ravel()
        c0 = t.exp_pad[2]
        k_prime = flat[t.neg[k] + base]
        phi = t.sub(t.mul(c0, t.add(ar, k)), k)
        same = flat[phi + base] == t.add(t.mul(c0, t.sub(rows[held], k_prime)), k_prime)
        scan[held[same.all(axis=1)]] = False
    for i in np.flatnonzero(scan):
        for _, _, u in _chunk_maxima(t, rows[i]):
            deltas[i] = max(deltas[i], u.max())
            if deltas[i] == Q:
                break
    return deltas


def du(ctx: FieldCtx, f) -> DuProfile:
    """Full differential-uniformity profile by exhaustive enumeration."""
    tbl = function_table(ctx, f)
    um = _row_maxima(ctx.tables, tbl)
    delta = int(um.max())
    direction = int(np.argmax(um)) + 1
    return DuProfile(
        delta=delta,
        max_direction=ctx.element_from_index(direction),
        row_max={a + 1: int(u) for a, u in enumerate(um)},
    )


# ---------------------------------------------------------------------------
# Section sweeps
# ---------------------------------------------------------------------------


def piecewise_section(ctx: FieldCtx, family: str, i1, i2) -> np.ndarray:
    """Sections of the built-in piecewise operation as value vectors.

    ``ptr_values`` with the two fixed coordinates as scalars gives one
    section, a (Q,) vector; with them as (B, 1) index columns it gives B
    sections, a (B, Q) array.  Either is O(Q) per section, so section
    sweeps never materialize the full Q^3 grid.
    """
    ar = np.arange(ctx.Q, dtype=np.int32)
    coords = {"x": (ar, i1, i2), "y": (i1, ar, i2), "z": (i1, i2, ar)}
    if family not in coords:
        raise ValueError(f"unknown section family {family!r}")
    return ptr_values(ctx, *coords[family])


def du_sections(ctx: FieldCtx, *, families: str = "xyz", sample: int | None = None,
                seed: int = 0) -> dict:
    """Differential uniformity of the section families ``families`` (distinct
    letters of "xyz") of the built-in piecewise operation, with the expected
    values for the Hughes operation: per family, ``fixings``, the fixed
    coordinates as one read-only (n, 2) int32 array that every family shares,
    ``deltas``, an (n,) int64 array, and ``report``, a ``PtrReport`` whose
    witness is the first fixing [i1, i2] whose delta is not the expected one.

    Sections are generated lazily in O(Q) each, so no full grid is built.
    ``sample`` limits each family to that many fixings, drawn uniformly
    without replacement by ``random.Random(seed).sample`` over the Q^2
    fixing numbers, a stream the same on every supported Python; a sample of
    Q^2 or more, and the default, is the exhaustive sweep.  Every family
    is swept over the same fixings, in batches of ``_ROW_COUNT_BUDGET // Q``
    of them (at least one): each batch is one ``piecewise_section`` call and
    one ``_section_delta`` call, whose probe and symmetry check are one numpy
    pass over the whole batch.
    """
    if not (isinstance(families, str) and 0 < len(set(families) & set("xyz")) == len(families)):
        raise ValueError(f"families must be distinct letters of 'xyz', got {families!r}")
    Q, t = ctx.Q, ctx.tables
    # fixing number i is the pair divmod(i, Q), in lexicographic order
    if sample is not None and sample < Q * Q:
        picks = np.array(sorted(random.Random(seed).sample(range(Q * Q), sample)), dtype=np.int64)
        fixings = np.empty((len(picks), 2), dtype=np.int32)
        np.divmod(picks, Q, out=(fixings[:, 0], fixings[:, 1]))
    else:  # filled in place: no Q^2 index array
        ar = np.arange(Q, dtype=np.int32)
        fixings = np.empty((Q, Q, 2), dtype=np.int32)
        fixings[:, :, 0] = ar[:, None]
        fixings[:, :, 1] = ar
        fixings = fixings.reshape(Q * Q, 2)
    fixings.flags.writeable = False
    batch = max(1, _ROW_COUNT_BUDGET // Q)
    out: dict = {}
    for family in families:
        deltas = np.empty(len(fixings), dtype=np.int64)
        for lo in range(0, len(fixings), batch):
            i1, i2 = fixings[lo:lo + batch, :1], fixings[lo:lo + batch, 1:]
            # an X-section's center k is only a hint, checked on the table
            hint = centers(ctx, i1[:, 0], i2[:, 0]) if family == "x" else None
            deltas[lo:lo + batch] = _section_delta(t, piecewise_section(ctx, family, i1, i2), hint)
        report = PtrReport(f"{family}_sections")
        # Q, but (Q+3)/4 for an X-section with y outside GF(q)
        report.record(deltas == np.where((family == "x") & (fixings[:, 0] >= ctx.q), (Q + 3) // 4, Q),
                      lambda i: fixings[i].tolist())
        out[family] = {"fixings": fixings, "deltas": deltas, "report": report}
    return out


# ---------------------------------------------------------------------------
# Square shift-pair counts
# ---------------------------------------------------------------------------


def k_sets(ctx: FieldCtx, a: FieldElement) -> tuple[int, int]:
    """(#{x : x, x+a both squares}, #{x : x, x+a both non-squares}).

    Squares include zero here; that is the convention under which the
    square/square count for square a equals (Q+3)/4, the X-section
    differential uniformity.

    Both counts are read off ``square_shift_partition``.  Zero is no
    non-square, so the second is its "nonsquare_nonsquare" class.  The first
    is the "square_square" class plus the two boundary points x = 0 and
    x = -a, distinct since a != 0, at which the other value is a and -a.
    Q = q^2 is 1 mod 4, so -1 = g^((Q-1)/2) is a square for a generator g,
    and a and -a are squares together: both points count when a is a square
    and neither does otherwise.
    """
    parts = square_shift_partition(ctx, a)
    return parts["square_square"] + 2 * (ctx.quad_char(a) == 1), parts["nonsquare_nonsquare"]


def square_shift_partition(ctx: FieldCtx, a: FieldElement) -> dict[str, int]:
    """Strict partition of GF(Q) by the character signs of (x, x+a).

    Boundary points (x = 0 and x = -a, where the character vanishes) form
    their own class, so the five counts sum to Q.
    """
    if a.index == 0:
        raise ValueError("shift must be nonzero")
    t = ctx.tables
    ar = np.arange(ctx.Q, dtype=np.int32)
    xa = t.add(ar, np.int32(a.index))
    s0, s1 = t.quad, t.quad[xa]
    return {
        "square_square": int(np.count_nonzero((s0 == 1) & (s1 == 1))),
        "square_nonsquare": int(np.count_nonzero((s0 == 1) & (s1 == -1))),
        "nonsquare_square": int(np.count_nonzero((s0 == -1) & (s1 == 1))),
        "nonsquare_nonsquare": int(np.count_nonzero((s0 == -1) & (s1 == -1))),
        "boundary": int(np.count_nonzero((s0 == 0) | (s1 == 0))),
    }


# ---------------------------------------------------------------------------
# Linearized-polynomial helpers (used by the invariance tests)
# ---------------------------------------------------------------------------


def linearized_table(ctx: FieldCtx, coeffs: list[FieldElement]) -> np.ndarray:
    """Value table of sum_i c_i * x^(p^i) for the given coefficient list."""
    exps = [ctx.p**i for i in range(len(coeffs))]
    return ctx.tables.poly(exps, [c.index for c in coeffs], np.arange(ctx.Q, dtype=np.int32))
