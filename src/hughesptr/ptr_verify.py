"""Exhaustive verification of the planar-ternary-ring axioms, the
permutation-polynomial section families, and projective-plane construction.

The axiom and section checks operate on a full (Q,Q,Q) value table;
``value_table`` tabulates a ternary callable into one.  The five axioms:

  (A) T(a,0,z) = T(0,b,z) = z
  (B) T(x,1,0) = x and T(1,y,0) = y
  (C) for a != c: a unique x with T(x,a,b) = T(x,c,d)
  (D) for every (a,b): a unique z with T(a,b,z) = c
  (E) for a != c: a unique pair (y,z) with T(a,y,z) = b and T(c,y,z) = d

(D) is the permutation test along z, the z-sections.  (E) is verified as
bijectivity of F_(a,c): (y,z) -> (T(a,y,z), T(c,y,z)) per ordered pair
a != c, a Q^4-scale sweep overall.  (C) follows from (D) and (E), and the
x- and y-sections from (A), (C) and (E) (see ``check_axioms``); each is
computed only when what implies it fails, (C) in Q^5 (``_axiom_c_direct``)
and the sections by sorting their rows (``check_pp_classes``).  The plane,
N = Q^2+Q+1 points and as many lines, is its (N, Q+1) int32 line -> points
array, whose shape fixes Q; ``build_plane`` writes it from the y-slabs of
the operation, one slab at a time, so it needs no Q^3 table.  The plane
of a value table follows from its (D) and (E), so ``check_table_plane``
builds and checks it only when one of them fails.  The plane check
derives point -> lines from it and counts, chunk by chunk, the lines shared
by each pair of points, in O(N (Q+1)^2) time and O(N (Q+1)) memory.
That one pass suffices: the dual statement, any two lines meet in exactly
one point, follows from it by counting (see ``check_plane``).
Failures are reported, never raised, and carry the lexicographically first
counterexample under canonical element indexing.

Both Q^4 scans, (E) and the pair count, visit one representative per orbit
of a group of symmetries, and every generator of that group is first
verified exhaustively on the input itself.  When Q = p^(2e) for an odd
prime p, the generators are four table identities T(pi x, psi(y,z)) =
lam[x, T(x,y,z)] over the field GF(Q), with q = p^e and g a generator of
GF(q)^*:

  X:  T(x+1, y, z-y) = T,         Y:  T(x, y+1, z) = T + x,
  Gx: T(g*x, y, g*z) = g*T,       Gy: T(x, g*y, g*z) = g*T.

The Hughes operation has all of them (D. R. Hughes, *A class of non-
Desarguesian projective planes*, Canad. J. Math. 9, 1957), and the tests
hold that they verify on ``ptr_table``; any other table is checked with
those that hold on it, the full scan when none does.  (E) uses those with
pi != id, X and Gx, since the others fix every pair (a, c).  The plane uses
their lifts to ``build_plane``'s labelling: sigma takes the point (x, w) to
(pi x, lam[x, w]) and the slope point (m) to the slope of psi(m, 0); tau
takes the line [m, k] to psi(m, k) and the vertical [c] to [pi c]; the
point and the line at infinity stay fixed.  So the point (x, T(x,m,k)) of
[m, k] goes to (pi x, T(pi x, psi(m,k))), a point of psi(m, k), and psi
moves the slope m alike for every k.  The minimum of each orbit comes from
``_orbit_minima``.

Why four generators.  For s, t, u in GF(q) write X_s: (x, w) -> (x+s, w),
Y_t: (x, w) -> (x, w + t*x) and Z_u: (x, w) -> (x, w+u) on the affine
points, the lifts of T(x+s, y, z-s*y) = T, T(x, y+t, z) = T + t*x and
T(x, y, z+u) = T + u; a collineation is fixed by its point map.  Then
Gx X_s Gx^-1 = X_(g*s) and Gy Y_t Gy^-1 = Y_(g*t), while X_s X_s' =
X_(s+s') and Y_t Y_t' = Y_(t+t'), so X_0 and Y_0 are the identity.  As
GF(q) = {0} u <g>, X = X_1 and Gx generate every X_s, and Y = Y_1 and Gy
every Y_t.  Y_t X_s takes (x, w) to (x+s, w + t*x + s*t) and X_s Y_t to
(x+s, w + t*x): they differ by Z_(s*t), so every Z_u is generated too.
On the table maps this is the same computation with pi, psi and lam.  So
the four generate the group of the 3e+2 maps X_s, Y_s, Z_s
(s = p^0, ..., p^(e-1), a GF(p)-basis of GF(q)), Gx and Gy, which holds
them: when all four hold on a table, the orbits are those of that group.
When some do not, the arguments below apply to the group of those that do.

Why (E) needs one pair per orbit.  Suppose T(pi x, psi(y,z)) =
lam[x, T(x,y,z)] for all x, y, z, with bijections pi of GF(Q), psi of
GF(Q)^2 and lam_x = lam[x, .] of GF(Q) for each x.  Then
F_(pi a, pi c) o psi = (lam_a x lam_c) o F_(a,c), so F_(a,c) is a bijection
exactly when F_(pi a, pi c) is.  F_(c,a) is F_(a,c) followed by the swap of
the two coordinates, so the swap (a,c) -> (c,a) needs no check.  The pairs
that fail therefore form whole orbits under the group these maps generate
on pairs.  The full scan's first failing pair is the least member of its
orbit, so it is the first failing orbit minimum, and the scan of minima
reports it with the same witness.

Why the plane needs one point per orbit.  Take permutations sigma of the
points and tau of the lines with sigma(line l) = line tau(l) as point sets,
for every l; they are checked by comparing each row of sigma[points_on],
sorted, with the row points_on[tau] (ascending, as ``build_plane`` lists
it).  Then p lies on l exactly
when sigma(p) lies on tau(l), so points i and j share as many lines as
sigma(i) and sigma(j).  A point whose row of counts holds a value other
than one therefore lies in an orbit of such points, the first such point
in the full scan is the least of its orbit, and its row, read in full,
gives the same witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .gf_tower import FieldCtx, FieldTables, field_ctx

__all__ = [
    "PtrReport",
    "value_table",
    "check_axioms",
    "check_pp_classes",
    "build_plane",
    "check_plane",
    "check_table_plane",
    "count_fano_quadrangles",
]


@dataclass
class PtrReport:
    """Outcome of one verification: failures carry a re-checkable witness,
    and ``checked``, when set, counts the instances recorded."""

    label: str
    passed: bool = True
    witness: tuple | None = None
    checked: int | None = None

    def record(self, ok, where) -> None:
        """Record a batch of instances in scan order.

        ``ok`` holds one verdict per instance; ``where`` is called with the
        unravelled index of the batch's first violator, only for the first
        violator of the report, and names it.
        """
        ok = np.asarray(ok, dtype=bool)
        if self.checked is not None:
            self.checked += ok.size
        if self.passed and not ok.all():
            self.passed = False
            self.witness = tuple(where(*_first_true(~ok)))

    def to_json_dict(self) -> dict:
        out: dict = {"pass": self.passed}
        if self.checked is not None:
            out["checked"] = self.checked
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


def value_table(ctx: FieldCtx, T_eval) -> np.ndarray:
    """Tabulate a ternary operation on elements into a (Q,Q,Q) index array."""
    Q = ctx.Q
    els = ctx.enumerate_field()
    out = np.empty((Q, Q, Q), dtype=np.int32)
    for ix, x in enumerate(els):
        for iy, y in enumerate(els):
            out[ix, iy] = [T_eval(x, y, z).index for z in els]
    return out


def _first_true(mask: np.ndarray) -> tuple | None:
    """Lexicographically first index where mask holds, or None."""
    flat = int(np.argmax(mask))  # stops at the first True
    if not mask.flat[flat]:
        return None
    return tuple(int(v) for v in np.unravel_index(flat, mask.shape))


# entries per sort or count array in the chunked checks: at Q=81 on a 2-core
# x86-64 VM, 2^15-2^18 ran equally fast in the plane check and 2^20 ran slower
# at a 38 MiB higher peak
_PAIR_COUNT_BUDGET = 2**17


def _first_bad_row(values: np.ndarray, M: int) -> tuple | None:
    """Index of the first row, in scan order, whose values are not distinct
    ids in [0, M), or None.

    A row runs along the last axis and is indexed by the others; a row of
    length M passes exactly when it is a permutation of 0..M-1, so an
    ``np.moveaxis`` view tests the sections along any axis.  The rows are
    sorted a chunk of leading indices at a time, about
    ``_PAIR_COUNT_BUDGET`` entries, so no sorted copy of ``values`` is made.
    A chunk of rows all strictly ascending and in [0, M), as ``build_plane``
    lists lines, passes unsorted; its last row is tested alone first, as a
    table chunk's first row, T(x, 0, .), is the identity by (A).
    """
    chunk = max(1, _PAIR_COUNT_BUDGET // math.prod(values.shape[1:]))
    for lo in range(0, len(values), chunk):
        rows = values[lo:lo + chunk]
        if all((r[..., 0] >= 0).all() and (r[..., -1] < M).all() and (r[..., 1:] > r[..., :-1]).all()
               for r in (rows[(-1,) * (rows.ndim - 1)], rows)):
            continue
        ordered = np.sort(rows, axis=-1)
        bad = (ordered[..., 0] < 0) | (ordered[..., -1] >= M)
        bad |= (ordered[..., 1:] == ordered[..., :-1]).any(axis=-1)
        first = _first_true(bad)
        if first is not None:
            return (lo + first[0],) + first[1:]
    return None


def _orbit_minima(perms: list[np.ndarray], M: int) -> np.ndarray:
    """For each id in [0, M), the least id of its orbit under the group the
    permutations ``perms`` generate.

    Each pass lowers every label to the least label of its neighbours along
    each permutation and its inverse, then jumps pointers (a label's own
    label is in the same orbit and no larger) until they are stable.  Labels
    stay in their orbit throughout, and a pass that changes nothing leaves
    every orbit at one label, its least id.
    """
    least = np.arange(M)
    while True:
        before = least.copy()
        for perm in perms:
            np.minimum(least, least.take(perm), out=least)
            least[perm] = np.minimum(least.take(perm), least)
        while True:
            jumped = least.take(least)
            if np.array_equal(jumped, least):
                break
            least = jumped
        if np.array_equal(least, before):
            return least


def _field_tables(Q: int) -> FieldTables | None:
    """The numpy tables of GF(Q) when Q = p^(2e) for an odd prime p, else None."""
    if Q < 9:
        return None
    p = next(d for d in range(2, Q + 1) if Q % d == 0)
    n, k = Q, 0
    while n % p == 0:
        n, k = n // p, k + 1
    if p == 2 or n != 1 or k % 2:
        return None
    return field_ctx(p, k // 2).tables


def _table_map_candidates(Q: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The generators (pi, psi, lam) X, Y, Gx, Gy of the module docstring:
    T(pi x, psi(y,z)) = lam[x, T(x,y,z)], psi as flat indices y*Q + z into a
    (Q, Q) slab and lam as a (Q, Q) array.  Empty when Q is not an even
    power of an odd prime."""
    t = _field_tables(Q)
    if t is None:
        return []
    ar = np.arange(Q, dtype=np.int32)
    x = y = ar[:, None]
    z, w = ar[None, :], np.broadcast_to(ar, (Q, Q))
    g = int(t.exp_pad[t.ctx.q + 1])  # generates GF(q)^*
    gx = t.mul(g, ar)
    maps = [(t.add(ar, 1), y * Q + t.sub(z, y), w),
            (ar, t.add(y, 1) * Q + z, t.add(w, x)),
            (gx, y * Q + gx.take(z), gx.take(w)),
            (ar, gx.take(y) * Q + gx.take(z), gx.take(w))]
    return [(pi, psi.ravel(), lam) for pi, psi, lam in maps]


def _table_symmetries(table: np.ndarray) -> list[np.ndarray]:
    """The x-maps pi != id of the candidate table maps that hold on every
    cell, checked one x-slab at a time.  Needs every id in [0, Q)."""
    Q = table.shape[0]
    flat = table.reshape(Q, Q * Q)
    # two slab buffers for every gather: with a fresh array per gather the
    # check took 1.3 s at Q=361, against 0.49 s
    moved, mapped = np.empty(Q * Q, dtype=table.dtype), np.empty(Q * Q, dtype=np.int32)

    def holds(pi, psi, lam):
        psi = psi.astype(np.intp)  # take's index type: converted once, not once per x
        for x in range(Q):
            np.take(flat[pi[x]], psi, out=moved, mode="clip")  # every index is in range
            np.take(lam[x], flat[x], out=mapped, mode="clip")
            if not np.array_equal(moved, mapped):
                return False
        return True

    return [pi for pi, psi, lam in _table_map_candidates(Q)
            if not np.array_equal(pi, np.arange(Q)) and holds(pi, psi, lam)]


def _axiom_c_direct(tbl: np.ndarray) -> PtrReport:
    """(C) by comparing every pair of columns V_(a,b)[x] = T(x,a,b): Q^5.

    For a != c the columns must agree in exactly one x.  Chunked over the
    first pair index to bound memory.  Needs nothing from the other axioms.
    """
    Q = tbl.shape[0]
    cols = tbl.transpose(1, 2, 0).reshape(Q * Q, Q)
    a_of = np.repeat(np.arange(Q), Q)
    chunk = max(1, 2**26 // (Q * Q * Q))
    report = PtrReport("C")
    for lo in range(0, Q * Q, chunk):
        hi = min(lo + chunk, Q * Q)
        agree = (cols[lo:hi, None, :] == cols[None, :, :]).sum(axis=2)
        same = a_of[lo:hi, None] == a_of[None, :]
        report.record(same | (agree == 1), lambda i, j: (*divmod(lo + i, Q), *divmod(j, Q)))  # (a, b, c, d)
        if not report.passed:
            break
    return report


def _e_pairs(table: np.ndarray) -> np.ndarray:
    """Pair ids a*Q + c, a != c, one per orbit of the verified table maps
    and the swap (a, c) -> (c, a), each its orbit's least, ascending.
    Needs every id of the table in [0, Q)."""
    Q = table.shape[0]
    ar = np.arange(Q)
    perms = [(pi[:, None] * Q + pi[None, :]).ravel() for pi in _table_symmetries(table)]
    perms.append((ar[None, :] * Q + ar[:, None]).ravel())
    ids = np.arange(Q * Q)
    return np.flatnonzero((_orbit_minima(perms, Q * Q) == ids) & (ids // Q != ids % Q))


def _axiom_e(table: np.ndarray) -> PtrReport:
    """(E): (y,z) -> (T(a,y,z), T(c,y,z)) is a bijection for every a != c.

    The pair counts need every id in [0, Q), so each row a is range-checked
    first; a table with an id outside that range fails (E) with the first
    such cell in scan order as its witness, ("value_range", a, y, z).  Then
    one pair (a, c) per orbit is counted, the least, in ascending order:
    the orbits are those of the verified table maps and the swap of a and c
    on pair ids a*Q + c (see the module docstring for why this suffices).
    """
    Q = table.shape[0]
    flat = table.reshape(Q, Q * Q)
    report = PtrReport("E")
    for a in range(Q):
        report.record((flat[a] >= 0) & (flat[a] < Q), lambda h: ("value_range", a, *divmod(h, Q)))
        if not report.passed:
            return report
    row = -1
    for pair in _e_pairs(table).tolist():
        a, c = divmod(pair, Q)
        if a != row:
            row, high = a, flat[a].astype(np.int64) * Q
        combined = high + flat[c]
        # the first value v hit twice, and its first two cells (y1, z1), (y2, z2)
        report.record(np.bincount(combined, minlength=Q * Q) < 2,
                      lambda v: (a, c, *np.argwhere(combined.reshape(Q, Q) == v)[:2].ravel().tolist()))
        if not report.passed:
            break
    return report


def check_axioms(table: np.ndarray) -> list[PtrReport]:
    """Verify axioms (A)-(E) and the section families exhaustively on a
    (Q,Q,Q) value table; returns the reports of (A)-(E), ``x_sections``,
    ``y_sections`` and ``z_sections``.

    (C) is computed only when (D) or (E) fails, because on a finite set it
    follows from the two.  Fix slopes a != c and an intercept b.  By (D),
    each x has exactly one d with T(x,c,d) = T(x,a,b), so the Q values of x
    are shared out among the Q values of d.  Suppose some d received two
    values x1 != x2.  Then (y,z) = (a,b) and (y,z) = (c,d) would be two
    different solutions of (E)'s system for the pair (x1, x2).  So each d
    receives at most one x.  Q values of x spread over Q values of d, at
    most one each, means exactly one each, which is (C).  (D. R. Hughes and
    F. C. Piper, *Projective Planes*, 1973, ch. V.)

    The x- and y-sections are sorted (``check_pp_classes``) only when (A),
    (C) or (E) fails.  For a != 0 and any b, d, (C) for the slopes a and 0
    gives one x with T(x,a,b) = T(x,0,d) = d, by (A); and (E) for the pair
    (a, 0) gives one (y,z) with T(a,y,z) = b and T(0,y,z) = z = d, so one y
    with T(a,y,d) = b.  The z-sections are (D), verdict and witness.
    """
    Q = table.shape[0]
    ar = np.arange(Q)

    # (A): z-slices through x=any,y=0 and x=0,y=any are the identity in z
    report_a = PtrReport("A")
    report_a.record(table[:, 0, :] == ar, lambda x, z: (x, 0, z))
    report_a.record(table[0] == ar, lambda y, z: (0, y, z))

    # (B): T(x,1,0) = x and T(1,y,0) = y
    report_b = PtrReport("B")
    report_b.record(table[:, 1, 0] == ar, lambda x: (x, 1, 0))
    report_b.record(table[1, :, 0] == ar, lambda y: (1, y, 0))

    # (D): z -> T(a,b,z) is a bijection for every (a,b)
    bad = _first_bad_row(table, Q)
    report_d = PtrReport("D", bad is None, bad)
    report_e = _axiom_e(table)
    # implied when they pass, see above
    report_c = PtrReport("C") if report_d.passed and report_e.passed else _axiom_c_direct(table)
    implied = report_a.passed and report_c.passed and report_e.passed
    sections = [PtrReport("x_sections"), PtrReport("y_sections")] if implied else check_pp_classes(table)
    return [report_a, report_b, report_c, report_d, report_e, *sections, replace(report_d, label="z_sections")]


def check_pp_classes(table: np.ndarray) -> list[PtrReport]:
    """Verify that two section families of a (Q,Q,Q) value table induce
    bijections of GF(Q):

    * T(X, y, z) for every y != 0 and every z,
    * T(x, Y, z) for every x != 0 and every z.

    The exact full sort, which ``check_axioms`` calls only when the axioms
    implying both families fail; the third family, T(x, y, Z), is (D).
    """
    Q = table.shape[0]
    reports = []
    for label, axis in (("x_sections", 0), ("y_sections", 1)):
        # index 0 of the first remaining axis gives a constant section
        bad = _first_bad_row(np.moveaxis(table, axis, -1)[1:], Q)
        reports.append(PtrReport(label, bad is None, None if bad is None else (bad[0] + 1, bad[1])))
    return reports


# ---------------------------------------------------------------------------
# Projective plane construction
# ---------------------------------------------------------------------------


def build_plane(slabs) -> np.ndarray:
    """The plane of a ternary operation given by its y-slabs, as its
    (N, Q+1) int32 line array, N = Q^2+Q+1: row l lists the Q+1 points of
    line l in ascending order.

    ``slabs`` yields T(., m, .) for m = 0 .. Q-1 in order, each a (Q, Q)
    array indexed [x, k]: ``hughes_core.ptr_slabs(ctx)``, or a (Q,Q,Q)
    value table as ``table.swapaxes(0, 1)``.  The slab of slope m is the
    Q affine lines [m, k], so a slab is written into the line array and
    dropped, and the plane never needs the Q^3 table.  A source with
    fewer or more than Q slabs raises ``ValueError``.

    Points: affine (x, y) -> x*Q + y, slope points (m) -> Q^2 + m, and one
    point at infinity -> Q^2 + Q.  Lines: [m, k] = {(x, T(x,m,k))} + {(m)}
    -> m*Q + k, verticals [c] = {(c, y)} + {inf} -> Q^2 + c, and the line at
    infinity -> Q^2 + Q.  The point -> lines view is derived when needed.
    """
    slabs = iter(slabs)
    first = next(slabs)
    Q = len(first)
    N = Q * Q + Q + 1
    ar = np.arange(Q, dtype=np.int32)
    points_on = np.empty((N, Q + 1), dtype=np.int32)

    # lines [m, k]: affine points (x, T(x, m, k)), then the slope point (m)
    affine = points_on[:Q * Q].reshape(Q, Q, Q + 1)
    slabs = itertools.chain([first], slabs)
    for m, slab in zip(range(Q), slabs):
        np.add(slab.T, ar * Q, out=affine[m, :, :Q])
    if m != Q - 1 or next(slabs, None) is not None:
        raise ValueError(f"a plane of order {Q} takes exactly {Q} slabs")
    affine[:, :, Q] = Q * Q + ar[:, None]

    # vertical lines [c]: points (c, y), then the point at infinity
    points_on[Q * Q:Q * Q + Q, :Q] = ar[:, None] * Q + ar[None, :]
    points_on[Q * Q:Q * Q + Q, Q] = Q * Q + Q

    # line at infinity: all slope points, then the point at infinity
    points_on[Q * Q + Q] = Q * Q + np.arange(Q + 1)
    return points_on


def _lines_through(points_on: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Point -> lines for the ascending point ids ``points``, each row
    ascending; needs every point on Q+1 lines.

    A counting sort over chunks of c lines in ascending order.  Sorting the
    chunk's (point, line) pairs of the asked points, packed as
    slot * c + (line - lo) with slot the point's position in ``points``,
    puts each point's lines in one ascending run, which goes to the next
    free slots of that point's row; a point not asked for gets slot -1, so
    its keys are negative and dropped before the sort.  The keys are int32:
    with n <= N = Q^2+Q+1 and c = 2^17 // (Q+1), n * c stays below 2^31
    for every order below 17515, whose line array alone would take 21 TB.
    Nothing wider than the int32 result is built over all N x (Q+1) entries.
    """
    N, k = points_on.shape
    n = len(points)
    chunk = max(1, _PAIR_COUNT_BUDGET // k)
    slot = np.full(N, -1, dtype=np.int32)  # -1: not asked for
    slot[points] = np.arange(n)
    through = np.empty(n * k, dtype=np.int32)
    free = np.arange(0, n * k, k)  # flat position of each row's next free slot
    for lo in range(0, N, chunk):
        rows = slot.take(points_on[lo:lo + chunk])
        c = len(rows)
        keys = rows * c + np.arange(c, dtype=rows.dtype)[:, None]
        pairs = np.sort(keys[keys >= 0])
        owner = pairs // c
        counts = np.bincount(owner, minlength=n)
        run_start = np.cumsum(counts) - counts  # where each point's run begins in pairs
        through[(free - run_start).take(owner) + np.arange(len(pairs))] = lo + pairs % c
        free += counts
    return through.reshape(n, k)


def _collineation_candidates(Q: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The lifts (sigma on points, tau on lines) of ``_table_map_candidates``
    in ``build_plane``'s labelling; see the module docstring."""
    last = np.array([Q * Q + Q], dtype=np.int32)
    return [(np.concatenate([(pi[:, None] * Q + lam).ravel(), Q * Q + psi[::Q] // Q, last]),
             np.concatenate([psi, Q * Q + pi, last]))
            for pi, psi, lam in _table_map_candidates(Q)]


def _collineations(points_on: np.ndarray) -> list[np.ndarray]:
    """The point maps sigma of the candidate collineations that hold: each
    row of sigma[points_on], sorted, equals the row points_on[tau], compared
    a chunk of lines at a time.  Needs every id in [0, N).

    Equal rows mean equal point sets.  ``build_plane`` lists every line in
    ascending order; a line array stored otherwise can only lose candidates,
    and so the shortcut, never gain a wrong one.  A chunk whose image rows
    are all non-decreasing is compared unsorted, as sorting leaves such a
    row as it is: Y and Gy fix x, so their images of the lines [m, k] keep
    the ascending order.  The chunk's first row is tested alone first, so
    that a map which moves x pays no pass over the whole chunk.
    """
    N, k = points_on.shape
    chunk = max(1, _PAIR_COUNT_BUDGET // k)
    image, target = np.empty((chunk, k), dtype=np.int32), np.empty((chunk, k), dtype=points_on.dtype)

    def holds(sigma, tau):
        for lo in range(0, N, chunk):  # into reused buffers, as in _table_symmetries
            c = min(chunk, N - lo)
            rows = image[:c]
            np.take(sigma, points_on[lo:lo + c], out=rows, mode="clip")  # every id is in range
            if not ((rows[0, 1:] >= rows[0, :-1]).all() and (rows[:, 1:] >= rows[:, :-1]).all()):
                rows.sort(axis=1)
            np.take(points_on, tau[lo:lo + c], axis=0, out=target[:c], mode="clip")
            if not np.array_equal(rows, target[:c]):
                return False
        return True

    return [sigma for sigma, tau in _collineation_candidates(k - 1) if holds(sigma, tau)]


def _plane_points(points_on: np.ndarray) -> np.ndarray:
    """One point per orbit of the verified collineations, its least id, ascending."""
    N = len(points_on)
    return np.flatnonzero(_orbit_minima(_collineations(points_on), N) == np.arange(N))


def check_plane(points_on: np.ndarray) -> PtrReport:
    """Counts, regularity, and the uniqueness axioms of a line array, by one
    pair-count pass.

    Its order is Q = ``points_on.shape[1] - 1``, and it must have
    N = Q^2+Q+1 rows.  Every line must hold Q+1 distinct point ids in
    [0, N) (a chunk of lines at a time, sorted unless every row is already
    strictly ascending and in range) and every point must lie on Q+1
    lines; then the point -> lines array is read off the line -> points
    array by a counting sort, for the least point of each orbit of the
    verified collineations only (see the module docstring).  For a chunk
    of those points, the points on the lines through each of them are
    counted with one bincount (offset by row); any two distinct points must
    share exactly one line.  The first count != 1 in (row, column) order is
    the witness, the same as a scan of every point's row would give.

    The dual axiom, any two lines meet in exactly one point, needs no pass
    of its own: the checks above make the lines a symmetric 2-(N, Q+1, 1)
    design, in which any two blocks meet once (P. Dembowski, *Finite
    Geometries*, 1968, 2.1).  By counting: no two lines share two points,
    or those points would lie on two common lines.  Take a line L.  Each of
    its Q+1 points lies on Q lines other than L, and no such line passes
    through two points of L, so these (Q+1)*Q = N-1 lines are distinct and
    each meets L exactly once; they are all the other lines.
    """
    Q = points_on.shape[1] - 1
    N = Q * Q + Q + 1
    if points_on.shape != (N, Q + 1):
        return PtrReport("projective_plane", False, ("shape", points_on.shape))

    bad_line = _first_bad_row(points_on, N)
    if bad_line is not None:
        return PtrReport("projective_plane", False, ("line_size",) + bad_line)
    # one count per chunk of about _PAIR_COUNT_BUDGET ids: no N x (Q+1) intp copy
    chunk = max(1, _PAIR_COUNT_BUDGET // (Q + 1))
    per_point = sum(np.bincount(points_on[lo:lo + chunk].ravel(), minlength=N) for lo in range(0, N, chunk))
    report = PtrReport("projective_plane")
    report.record(per_point == Q + 1, lambda point: ("point_degree", point))
    if not report.passed:
        return report

    points = _plane_points(points_on)
    bad = _first_pair_count_not_one(_lines_through(points_on, points), points_on, points)
    if bad is not None:
        return PtrReport("projective_plane", False, ("points_on_common_line",) + bad)
    return report


def check_table_plane(table: np.ndarray, axioms: list[PtrReport]) -> PtrReport:
    """The report of ``check_plane(build_plane(table.swapaxes(0, 1)))``, the
    plane of a (Q,Q,Q) value table, given ``axioms``, the reports
    ``check_axioms(table)`` returned.

    When (D) and (E) passed, it is a passing report read off theirs, and no
    line array is built: a ternary ring with the PTR axioms coordinatizes a
    projective plane (M. Hall, *Projective planes*, Trans. AMS 54, 1943;
    Hughes and Piper, ch. V).  In ``build_plane``'s labelling, every check
    of ``check_plane`` passes:

    * (D) makes every row T(x, m, .) a permutation of [0, Q).  So the line
      [m, k] lists the Q+1 distinct in-range ids x*Q + T(x,m,k), ascending
      in x, then Q^2 + m; the verticals and the line at infinity do so by
      construction.  An affine point (x, w) lies on its vertical [x] and,
      for each slope m, on the one [m, k] with T(x,m,k) = w; a slope point
      lies on its Q lines [m, k] and the line at infinity, and the point at
      infinity on the Q verticals and that line.
    * Two affine points (x1, w1), (x2, w2) with x1 != x2 share no vertical
      and exactly the one [m, k] that (E) gives for the pair (x1, x2).  With
      x1 = x2 they share only their vertical, as a line [m, k] holds one
      point per x.
    * (x, w) and the slope point (m) share the one [m, k] with
      T(x,m,k) = w that (D) gives.  Every other pair shares one line by
      construction: (x, w) and the point at infinity the vertical [x], and
      any two points of the line at infinity that line alone.

    Otherwise the plane is built and checked, which finds the witness.
    """
    passed = {report.label: report.passed for report in axioms}
    if passed["D"] and passed["E"]:
        return PtrReport("projective_plane")
    return check_plane(build_plane(table.swapaxes(0, 1)))  # a view whose rows are the y-slabs


def _first_pair_count_not_one(through: np.ndarray, members: np.ndarray,
                              rows: np.ndarray) -> tuple | None:
    """First (i, j), i in ``rows`` (ascending) and j != i, whose number of
    shared blocks is not one.

    ``through[r]`` lists the blocks containing object ``rows[r]`` and
    ``members[k]`` the objects of block k, as many objects as blocks;
    chunks of rows keep each count array near ``_PAIR_COUNT_BUDGET``
    entries.
    """
    N = len(members)
    chunk = max(1, _PAIR_COUNT_BUDGET // N)
    for lo in range(0, len(rows), chunk):
        objects = rows[lo:lo + chunk]
        r = np.arange(len(objects))
        keys = members.take(through[lo:lo + chunk], axis=0) + (r * N)[:, None, None]
        counts = np.bincount(keys.ravel(), minlength=len(objects) * N).reshape(len(objects), N)
        counts[r, objects] = 1
        bad = _first_true(counts != 1)
        if bad is not None:
            return (int(objects[bad[0]]), bad[1])
    return None


def _join_meet_tables(points_on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """line_through[p1, p2] and meet_point[l1, l2]; diagonals are junk (0)."""
    Q = points_on.shape[1] - 1
    N = Q * Q + Q + 1
    join = np.zeros((N, N), dtype=np.int32)
    meet = np.zeros((N, N), dtype=np.int32)
    for ln, pts in enumerate(points_on):
        join[np.ix_(pts, pts)] = ln
    for pt, lns in enumerate(_lines_through(points_on, np.arange(N))):
        meet[np.ix_(lns, lns)] = pt
    np.fill_diagonal(join, 0)
    np.fill_diagonal(meet, 0)
    return join, meet


def count_fano_quadrangles(points_on: np.ndarray) -> int:
    """Number of complete quadrangles whose three diagonal points are collinear.

    In the classical plane of odd order the count is zero (the diagonal
    triangle of a quadrangle is never degenerate there), so a nonzero count
    certifies a non-classical plane.  Informational; quadratic-in-pairs
    sweep over all 4-subsets in canonical order.
    """
    join, meet = _join_meet_tables(points_on)
    N = len(join)

    pairs = [(c, d) for c in range(N) for d in range(c + 1, N)]
    pc = np.array([p[0] for p in pairs], dtype=np.int32)
    pd = np.array([p[1] for p in pairs], dtype=np.int32)

    total = 0
    for a in range(N):
        for b in range(a + 1, N):
            lo = np.searchsorted(pc, b + 1, side="left")
            C, D = pc[lo:], pd[lo:]
            if len(C) == 0:
                continue
            lab = join[a, b]
            lac, lad = join[a, C], join[a, D]
            lbc, lbd = join[b, C], join[b, D]
            lcd = join[C, D]
            general = (lac != lab) & (lad != lab) & (lad != lac) & (lbd != lbc)
            p1 = meet[lab, lcd]
            p2 = meet[lac, lbd]
            p3 = meet[lad, lbc]
            collinear = join[p1, p2] == join[p1, p3]
            total += int(np.count_nonzero(general & collinear))
    return total
