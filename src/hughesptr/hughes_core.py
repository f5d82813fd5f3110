"""The regular nearfield, the piecewise ternary operation coordinatizing the
Hughes plane of order Q = q^2, and its polynomial forms.

The nearfield keeps field addition and twists multiplication by the
quadratic character of the left operand:

    x * y           if x is a square (zero included),
    x * y^q         if x is a non-square.

The piecewise ternary operation splits on whether y lies in the subfield
and, if not, on the quadratic class of x + k, where (k, k') is the unique
subfield pair with z = k*y + k':

    x*y + z             if y in GF(q),
    x*y + z             if y not in GF(q) and x + k is a square,
    x*y^q + z^q         otherwise.

``ptr_piecewise`` is the ground-truth oracle; everything polynomial is
checked against it.  ``ptr_values`` is its single vectorized restatement, on
broadcastable index arrays, and every section sweep is a call to it.  The
full grid comes from one source, ``ptr_slabs``: one ``ptr_values`` call per
y, each giving the y-slab T(., y, .), whose y- and z-only lookups are
Q-vectors.  ``ptr_table`` stacks the slabs into the Q^3 table, and
``ptr_verify.build_plane`` writes the plane from them without it.  Three
polynomial forms are provided:

* ``build_nonreduced_T``: binomial-coefficient form, exponents up to Q*q.
* ``build_reduced_T``: the reduced form, whose inner coefficients are
  Catalan numbers mod p (weighted by inverse powers of -4).
* ``build_T2``: an equivalent factoring whose coefficients are generalized
  Catalan numbers; after reduction it is coefficientwise identical to the
  reduced form.

Every coefficient of these forms lies in GF(p), whose elements are indexed by
their residues, and each form is X*Y + Z plus blocks f(X) * tq(Y)^a * tq(Z)^b
with tq(V) = V^q - V and f a sparse polynomial in X.  A block is recorded as
(f, a, b), with its exponents.  One record list per form (``reduced_blocks``,
``t2_blocks``, ``nonreduced_blocks``) feeds two consumers, both through
``expand_blocks``, which adds X*Y + Z and expands every distinct power
tq(V)^n of the list by Lucas' theorem, all with one call of the Lucas
kernel (``_tq_pows``), into a triple of univariate factors:

* ``emit_arrays`` writes the form out in closed form, as sorted int32
  arrays of exponents and GF(p) residues: the term products of each
  factor triple are formed by numpy broadcasting, each as one int64 key of
  bit fields ex | ey | ez | c, and equal exponent triples are summed mod p
  after one sort; the fields are read back with shifts and masks.  No ring
  product is taken.
  ``gen`` hands those arrays, uncopied, to the JSON writer
  (``cli.write_json``) and builds no ``TriPoly``; the ``build_*``
  functions wrap them in one (``_emit``), and the tests hold every form to
  its expansion by ``TriPoly`` products.
* ``piecewise_match`` proves the main theorem, that the form equals the
  piecewise operation on all of GF(Q)^3: it checks the shape of every
  record on its exponents (a, b) alone, then evaluates the expanded blocks
  (``evaluate_blocks``, each factor one ``FieldTables.poly``) on Q*q
  points only; its docstring has the proof.  ``trivar_poly.evaluate_grid``
  on the whole grid, built on the same ``FieldTables`` operations, is kept
  as the tests' oracle for it.

The square-branch involution phi_k(X) = (X + k)^((Q+1)/2) - k evaluates to
x on {x : x + k square} and to -x - 2k elsewhere, and drives the piecewise
behavior of all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf_tower import FieldCtx, FieldElement
from .modcomb import binom_mod_lucas, catalan_mod, central_binoms, gen_catalan_exact
from .ptr_verify import PtrReport
from .trivar_poly import TriPoly

__all__ = [
    "NotUniqueError",
    "KPair",
    "nearfield_mul",
    "solve_kkprime",
    "ptr_piecewise",
    "ptr_nearfield_form",
    "centers",
    "ptr_values",
    "ptr_slabs",
    "ptr_table",
    "phi_eval",
    "phi_poly",
    "sigma_eval",
    "nonreduced_blocks",
    "reduced_blocks",
    "t2_blocks",
    "expand_blocks",
    "emit_arrays",
    "build_nonreduced_T",
    "build_reduced_T",
    "build_T2",
    "evaluate_blocks",
    "piecewise_match",
    "render_text",
]


class NotUniqueError(ValueError):
    """The decomposition z = k*y + k' is not unique (y lies in the subfield)."""


@dataclass(frozen=True)
class KPair:
    """The unique subfield pair (k, k') with z = k*y + k'."""

    k: FieldElement
    k_prime: FieldElement


def nearfield_mul(ctx: FieldCtx, x: FieldElement, y: FieldElement) -> FieldElement:
    """x * y for square x (zero takes this branch too), x * y^q otherwise."""
    if ctx.is_square(x):
        return x * y
    return x * ctx.frobenius_q(y)


def solve_kkprime(ctx: FieldCtx, y: FieldElement, z: FieldElement) -> KPair:
    """Solve z = k*y + k' for (k, k') in the subfield; requires y outside it.

    k comes out as t_q(z) / t_q(y): both t_q values are negated by the
    Frobenius, so their ratio is Frobenius-fixed, hence in GF(q).
    """
    if ctx.in_subfield(y):
        raise NotUniqueError("y lies in GF(q); the pair (k, k') is not unique")
    k = ctx.t_q(z) / ctx.t_q(y)
    k_prime = z - k * y
    return KPair(k, k_prime)


def ptr_piecewise(ctx: FieldCtx, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
    """The piecewise ternary operation; ground truth for every polynomial form.

    When x + k is zero, both branches agree, and the square branch is taken.
    """
    if ctx.in_subfield(y):
        return x * y + z
    k = ctx.t_q(z) / ctx.t_q(y)
    if ctx.is_square(x + k):
        return x * y + z
    return x * ctx.frobenius_q(y) + ctx.frobenius_q(z)


def ptr_nearfield_form(ctx: FieldCtx, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
    """The original two-case form (x + k) * y + k' with nearfield product."""
    if ctx.in_subfield(y):
        return nearfield_mul(ctx, x, y) + z
    pair = solve_kkprime(ctx, y, z)
    return nearfield_mul(ctx, x + pair.k, y) + pair.k_prime


def centers(ctx: FieldCtx, Y, Z) -> np.ndarray:
    """k = tq(z)/tq(y) of ``solve_kkprime``, the center of the X-section
    T(., y, z), on broadcastable index arrays; 0 for y in GF(q) (tq(y) = 0)."""
    t = ctx.tables
    return t.mul(t.inv.take(t.tq.take(Y)), t.tq.take(Z))


def ptr_values(ctx: FieldCtx, X, Y, Z) -> np.ndarray:
    """The piecewise operation on broadcastable index arrays (or scalars).

    Vectorized restatement of ``ptr_piecewise``, cross-checked against it by
    the test suite.  The result has the broadcast shape of X, Y and Z.
    """
    t = ctx.tables
    same = t.add(t.mul(X, Y), Z)                               # x*y + z
    twisted = t.add(t.mul(X, t.frob.take(Y)), t.frob.take(Z))  # x*y^q + z^q
    k = centers(ctx, Y, Z)                                     # 0 for y in GF(q), masked
    square_branch = t.quad.take(t.add(X, k)) >= 0              # x + k
    return np.where(t.in_subfield.take(Y) | square_branch, same, twisted)


def ptr_slabs(ctx: FieldCtx):
    """The y-slabs T(., y, .) of the piecewise operation, for y = 0 .. Q-1 in
    order, each a fresh (Q, Q) int32 array indexed [x, z].

    Each slab is one ``ptr_values`` call with y a scalar, so every value
    that depends on y or z alone (k = tq(z)/tq(y), the Frobenius images)
    is a Q-vector, and only the terms in both x and z fill Q^2 entries
    (by x-slabs, k is a Q^2 product, and the grid took 5-7% longer at
    Q = 81 to 361).  A slab is also the affine lines of slope y of the
    plane, which ``ptr_verify.build_plane`` reads one slab at a time.
    """
    ar = np.arange(ctx.Q, dtype=np.int32)
    for y in range(ctx.Q):
        yield ptr_values(ctx, ar[:, None], np.int32(y), ar[None, :])


def ptr_table(ctx: FieldCtx) -> np.ndarray:
    """Values of the piecewise operation on the whole grid, indexed [x, y, z].

    Filled from ``ptr_slabs``, one y-slab at a time, so the temporaries of
    ``ptr_values`` stay at O(Q^2) next to the int32 output.
    """
    out = np.empty((ctx.Q,) * 3, dtype=np.int32)
    for y, slab in enumerate(ptr_slabs(ctx)):
        out[:, y, :] = slab
    return out


# ---------------------------------------------------------------------------
# The square-branch involution
# ---------------------------------------------------------------------------


def phi_eval(ctx: FieldCtx, k: FieldElement, x: FieldElement) -> FieldElement:
    """(x + k)^((Q+1)/2) - k: x on the square branch, -x - 2k on the other."""
    if ctx.is_square(x + k):
        return x
    return -(x + k + k)


def phi_poly(ctx: FieldCtx, k: FieldElement) -> TriPoly:
    """(X + k)^((Q+1)/2) - k as a polynomial in X.

    Expanded by the binomial theorem with Lucas-reduced coefficients, which
    exposes the sparse support: a surviving monomial X^(aq+b) always has
    a <= (q-1)/2 and b <= (q+1)/2.
    """
    half_exp = (ctx.Q + 1) // 2
    binoms = binom_mod_lucas(half_exp, np.arange(half_exp + 1), ctx.p).tolist()
    terms: dict[tuple[int, int, int], FieldElement] = {}
    kpow = ctx.one
    for m in range(half_exp, -1, -1):
        b = binoms[m]
        if b:
            coeff = ctx.from_int(b) * kpow
            if coeff.index:
                terms[(m, 0, 0)] = terms.get((m, 0, 0), ctx.zero) + coeff
        kpow = kpow * k
    const = terms.get((0, 0, 0), ctx.zero) - k
    terms[(0, 0, 0)] = const
    return TriPoly(ctx, terms)


def sigma_eval(ctx: FieldCtx, x: FieldElement, y: FieldElement, z: FieldElement) -> FieldElement:
    """0 when y is in the subfield, else phi_k(x) with k = t_q(z)/t_q(y)."""
    if ctx.in_subfield(y):
        return ctx.zero
    k = ctx.t_q(z) / ctx.t_q(y)
    return phi_eval(ctx, k, x)


# ---------------------------------------------------------------------------
# Closed-form emitter over GF(p)
# ---------------------------------------------------------------------------

# A univariate factor is a pair (exponents, residues mod p) of int64 arrays; a
# repeated exponent stands for the sum of its residues.  A block is a triple
# of factors in X, Y and Z and stands for their product.  A record (f, a, b)
# stands for the block f(X) tq(Y)^a tq(Z)^b before its powers are expanded.
Factor = tuple[np.ndarray, np.ndarray]
Block = tuple[Factor, Factor, Factor]
Record = tuple[Factor, int, int]


def _factor(exps, residues) -> Factor:
    return np.asarray(exps, dtype=np.int64), np.asarray(residues, dtype=np.int64)


# raw terms summed per step of emit_arrays' pass over its sorted keys
_SUM_CHUNK = 1 << 16

_ONE = _factor([0], [1])
_VAR = _factor([1], [1])
_XY = (_VAR, _VAR, _ONE)
_Z = (_ONE, _ONE, _VAR)


def _tq_pows(ctx: FieldCtx, ns) -> list[Factor]:
    """[tq(V)^n for n in ns], each sum_j (-1)^(n-j) binom(n, j) V^(qj + n - j)
    over GF(p).

    By Lucas' theorem binom(n, j) is nonzero mod p exactly when every base-p
    digit of j is at most the matching digit of n, and it is then the
    product of the digit binomials; so the j are enumerated digit by digit,
    prod(n_d + 1) of them (N. J. Fine, Amer. Math. Monthly 54, 1947).  This
    is done for every n at once: each pass over one base-p digit repeats
    every j of every n once per value its new digit may take, in ascending
    order.  Their binomials come from one call of the Lucas kernel on all
    pairs (n, j), and the result is split by n.  A negative n raises
    ``ValueError``.
    """
    p = ctx.p
    ns = np.asarray(ns, dtype=np.int64)
    if (ns < 0).any():
        raise ValueError(f"tq(V)^n with the negative exponent n = {int(ns[ns < 0][0])}")
    # the j of each n, n by n in the order of ns: sizes[i] of them for ns[i]
    js = np.zeros(ns.size, dtype=np.int64)
    sizes = np.ones(ns.size, dtype=np.int64)
    rest, place = ns.copy(), 1
    while rest.any():
        choices = rest % p + 1  # the values the next digit of a j may take
        counts = np.repeat(choices, sizes)
        sizes *= choices
        starts = np.cumsum(counts) - counts
        # j + place * d for d = 0 .. counts-1, where j's copies are numbered
        # starts, starts + 1, ... in the new array
        js = np.repeat(js - place * starts, counts)
        js += place * np.arange(js.size)
        rest //= p
        place *= p
    n = np.repeat(ns, sizes)
    res = binom_mod_lucas(n, js, p)
    n -= js
    np.subtract(p, res, out=res, where=(n & 1).astype(bool))  # (-1)^(n-j)
    js *= ctx.q
    n += js  # the exponent q*j + n - j
    cuts = np.cumsum(sizes)
    return list(zip(np.split(n, cuts)[:-1], np.split(res, cuts)[:-1]))


def expand_blocks(ctx: FieldCtx, records: list[Record]) -> list[Block]:
    """The blocks X*Y and Z, which the three forms share, then each record
    (f, a, b) as the block (f, tq(Y)^a, tq(Z)^b).

    The distinct powers are expanded by one ``_tq_pows`` call, in ascending
    order, and each factor is shared by every block that uses it;
    ``emit_arrays`` only reads them.
    """
    ns = sorted({n for _, a, b in records for n in (a, b)})
    powers = dict(zip(ns, _tq_pows(ctx, ns)))
    return [_XY, _Z, *((f, powers[a], powers[b]) for f, a, b in records)]


def _key_widths(p: int, tops) -> tuple[int, int, int, int]:
    """The bit widths (wx, wy, wz, wc) of an ``emit_arrays`` key whose largest
    X, Y and Z exponents are ``tops``: each exponent field as wide as its
    largest value needs, and wc = ceil(log2 p) for a residue mod p.

    Raises ``OverflowError`` when they add up to more than the 63 bits of a
    nonnegative int64, or an exponent does not fit the int32 term arrays.
    """
    wx, wy, wz = (int(top).bit_length() for top in tops)
    widths = wx, wy, wz, (p - 1).bit_length()
    if sum(widths) > 63:
        raise OverflowError(f"exponent keys need {sum(widths)} bits, more than the 63 of an int64")
    if max(*tops, p - 1) >= 2**31:
        raise OverflowError("exponents too large for int32 term arrays")
    return widths


def emit_arrays(ctx: FieldCtx, blocks: list[Block]) -> tuple[np.ndarray, ...]:
    """The sum of the blocks as term arrays (ex, ey, ez, c), with no ring products.

    Every product of one term from each factor of a block is formed by
    broadcasting, as one int64 key of bit fields ex | ey | ez | c: c in the
    low ceil(log2 p) bits, then ez, ey and ex, each as wide as the largest
    exponent of its variable needs.  One sort brings equal exponent triples
    together in (ex, ey, ez) order, their residues are summed mod p and the
    zero sums dropped; the fields are read back with shifts and masks.  The
    int32 arrays come out in that order, and c is a residue mod p, which is
    the index of a GF(p) element.  An empty sum gives four empty arrays.
    Keys wider than 63 bits raise ``OverflowError`` before anything is
    allocated.
    """
    p = ctx.p
    tops = [max((int(block[v][0].max(initial=0)) for block in blocks), default=0) for v in range(3)]
    wx, wy, wz, wc = _key_widths(p, tops)
    sz, sy, sx = wc, wc + wz, wc + wz + wy
    sizes = [fx[0].size * fy[0].size * fz[0].size for fx, fy, fz in blocks]
    packed = np.empty(sum(sizes), dtype=np.int64)
    residues = np.arange(p)[:, None]
    at = 0
    for ((xe, xc), (ye, yc), (ze, zc)), size in zip(blocks, sizes):
        xy = ((xe << sx)[:, None] | (ye << sy)[None, :]).ravel()
        cxy = (xc[:, None] * yc[None, :] % p).ravel()
        # row r: the Z fields with c = r * zc mod p, gathered by each cxy
        z_rows = (ze << sz) | residues * zc % p
        np.bitwise_or(xy[:, None], z_rows[cxy], out=packed[at:at + size].reshape(xy.size, ze.size))
        at += size
    packed.sort()
    # One pass over the sorted raw terms, a chunk at a time, each chunk ending
    # where an exponent key does.  Two neighbours share their exponents when
    # their XOR has no bit above the c field.  Equal keys are summed mod p,
    # and each nonzero sum goes back into the c field of its key, over the
    # front of ``packed``, which the pass has read by then; no second
    # raw-size array is made.
    cmask = (1 << wc) - 1
    kept, lo = 0, 0
    while lo < packed.size:
        hi = min(lo + _SUM_CHUNK, packed.size)
        hi += int(np.searchsorted(packed[hi:], packed[hi - 1] | cmask, side="right"))
        chunk = packed[lo:hi]
        first = np.empty(chunk.size, dtype=bool)
        first[0] = True
        np.greater(chunk[1:] ^ chunk[:-1], cmask, out=first[1:])
        if first.all():  # every key once: its residue is its sum
            summed = chunk[(chunk & cmask) != 0]
        else:
            starts = np.flatnonzero(first)
            sums = np.add.reduceat(chunk & cmask, starts) % p
            nonzero = sums != 0
            summed = chunk[starts[nonzero]] & ~cmask | sums[nonzero]
        packed[kept:kept + summed.size] = summed
        kept += summed.size
        lo = hi
    key = packed[:kept]
    c, ez, ey = (np.empty(kept, dtype=np.int32) for _ in range(3))
    # an unsafe cast on a ufunc's out is buffered: no int64 temporary
    np.bitwise_and(key, cmask, out=c, casting="unsafe")
    key >>= wc
    np.bitwise_and(key, (1 << wz) - 1, out=ez, casting="unsafe")
    key >>= wz
    np.bitwise_and(key, (1 << wy) - 1, out=ey, casting="unsafe")
    key >>= wy
    return key.astype(np.int32), ey, ez, c


def _emit(ctx: FieldCtx, blocks: list[Block]) -> TriPoly:
    """The sum of the blocks (``emit_arrays``) as a TriPoly; each residue maps
    to one shared FieldElement."""
    ex, ey, ez, c = emit_arrays(ctx, blocks)
    elems = [FieldElement(ctx, r) for r in range(ctx.p)]
    terms = dict(zip(zip(ex.tolist(), ey.tolist(), ez.tolist()), map(elems.__getitem__, c.tolist())))
    return TriPoly(ctx, terms)


def _binom_blocks(ctx: FieldCtx, scale: int) -> list[Record]:
    """scale * binom((Q+1)/2, m) X^m tq(Y)^m tq(Z)^(Q-m), m = 1 .. (Q-1)/2."""
    Q, p = ctx.Q, ctx.p
    ms = np.arange(1, (Q - 1) // 2 + 1)
    bs = binom_mod_lucas((Q + 1) // 2, ms, p)
    return [(_factor([m], [scale * b % p]), m, Q - m)
            for m, b in zip(ms[bs != 0].tolist(), bs[bs != 0].tolist())]


# ---------------------------------------------------------------------------
# Polynomial forms of the ternary operation
# ---------------------------------------------------------------------------


def _m_record(ctx: FieldCtx) -> Record:
    """-(1/2) * (X^((Q+1)/2) - X) * tq(Y): M(X,Y) is X*Y plus this record,
    which all three forms share."""
    p = ctx.p
    half = (p + 1) // 2  # 1/2 in GF(p), whose index is its residue
    t_half_x = _factor([(ctx.Q + 1) // 2, 1], [p - half, half])
    return t_half_x, 1, 0


def nonreduced_blocks(ctx: FieldCtx) -> list[Record]:
    """Records of the binomial-coefficient form:

    M(X,Y) + Z - (1/2) * sum_{m=1}^{(Q-1)/2} binom((Q+1)/2, m) X^m tq(Y)^m tq(Z)^(Q-m)

    Z-exponents reach (Q-1)*q, so this form is not reduced, but it evaluates
    identically to the piecewise operation.
    """
    minus_half = (ctx.p - 1) // 2  # -1/2 in GF(p)
    return [_m_record(ctx), *_binom_blocks(ctx, minus_half)]


def build_nonreduced_T(ctx: FieldCtx) -> TriPoly:
    """The binomial-coefficient form (``nonreduced_blocks``) as a TriPoly."""
    return _emit(ctx, expand_blocks(ctx, nonreduced_blocks(ctx)))


def _inv_neg4_pow(ctx: FieldCtx, i: int) -> int:
    """(-4)^(-(i+1)) in GF(p)."""
    return pow(-4 % ctx.p, -(i + 1), ctx.p)


def _g_factor(ctx: FieldCtx, i: int) -> Factor:
    """g_i(X) = (-4)^(-(i+1)) * sum_{j=0}^{i+1} C[j(q-1)+i] X^(j(q-1)+i+1) mod p."""
    q, p = ctx.q, ctx.p
    ns = np.arange(i + 2) * (q - 1) + i
    cs = catalan_mod(ns, p)
    return ns[cs != 0] + 1, _inv_neg4_pow(ctx, i) * cs[cs != 0] % p


def _h_factor(ctx: FieldCtx, i: int, central: list[int]) -> Factor:
    """h_i(X) = (-4)^(-(i+1)) * sum_{j=0}^{i} T'[i-j, j] X^(j(q-1)+i) mod p,
    the central binomials binom(2m, m) read from ``central`` (m <= i)."""
    q, p = ctx.q, ctx.p
    scale = _inv_neg4_pow(ctx, i)
    cs = [(j * (q - 1) + i, gen_catalan_exact(i - j, j, central) % p) for j in range(i + 1)]
    return _factor([n for n, c in cs if c], [scale * c % p for _, c in cs if c])


def reduced_blocks(ctx: FieldCtx) -> list[Record]:
    """Records of the reduced form with Catalan-number coefficients:

    M(X,Y) + Z - sum_{i=0}^{q-2} g_i(X) tq(Y)^(i+1) tq(Z)^(q-1-i)
    """
    q, p = ctx.q, ctx.p
    records = [_m_record(ctx)]
    for i in range(q - 1):
        exps, res = _g_factor(ctx, i)
        records.append(((exps, (p - res) % p), i + 1, q - 1 - i))
    return records


def build_reduced_T(ctx: FieldCtx) -> TriPoly:
    """The reduced form (``reduced_blocks``) as a TriPoly."""
    return _emit(ctx, expand_blocks(ctx, reduced_blocks(ctx)))


def t2_blocks(ctx: FieldCtx) -> list[Record]:
    """Records of the generalized-Catalan form:

    M(X,Y) + Z + tq(X) tq(Y) tq(Z) * sum_{i=0}^{q-2} h_i(X) tq(Y)^i tq(Z)^(q-2-i)

    Its records are M's and (X^q - X) h_i(X) tq(Y)^(i+1) tq(Z)^(q-1-i).
    Equal to the reduced form after reduction: tq(X) * h_i(X) = -g_i(X)
    coefficientwise mod p, which the test suite asserts directly; h_i is
    taken from the generalized Catalan numbers, not from g_i.
    """
    q, p = ctx.q, ctx.p
    records = [_m_record(ctx)]
    central = central_binoms(q - 1)
    for i in range(q - 1):
        exps, res = _h_factor(ctx, i, central)
        tq_x_h = _factor(np.concatenate([exps + q, exps + 1]), np.concatenate([res, (p - res) % p]))
        records.append((tq_x_h, i + 1, q - 1 - i))
    return records


def build_T2(ctx: FieldCtx) -> TriPoly:
    """The generalized-Catalan form (``t2_blocks``) as a TriPoly."""
    return _emit(ctx, expand_blocks(ctx, t2_blocks(ctx)))


# ---------------------------------------------------------------------------
# The main theorem on Q*q points
# ---------------------------------------------------------------------------


def evaluate_blocks(ctx: FieldCtx, blocks: list[Block], X, Y, Z) -> np.ndarray:
    """The sum of the blocks on broadcastable index arrays: the values of the
    polynomial ``emit_arrays`` writes out from the same list.  Each factor
    is one ``FieldTables.poly``: a residue mod p is the index of its GF(p)
    element."""
    t = ctx.tables
    out = np.zeros(np.broadcast_shapes(np.shape(X), np.shape(Y), np.shape(Z)), dtype=np.int32)
    for fx, fy, fz in blocks:
        xy = t.mul(t.poly(*fx, X), t.poly(*fy, Y))
        out = t.add(out, t.mul(xy, t.poly(*fz, Z)))
    return out


def piecewise_match(ctx: FieldCtx, records: list[Record]) -> PtrReport:
    """Whether X*Y + Z plus the records equals the piecewise operation on
    all of GF(Q)^3, decided exactly on the Q*q points (x, w, k*w).

    Here w is the element with index q (w^2 = n, w^q = -w), x runs over
    GF(Q) and k over GF(q), so k*w has index q*idx(k).  Write
    tq(v) = v^q - v.  The reduction is exact:

    * Every record (f, a, b), the block f(X) tq(Y)^a tq(Z)^b, must have
      a >= 1, b >= 0 and a + b = 1 mod (q-1).  This is checked on the
      integers a and b before anything is expanded; the first record i that
      breaks it gives the failed report ("block_shape", i), never an
      exception.  In the reduced and T2 forms a + b = q, in the nonreduced
      form a + b = Q, and in M a = 1, b = 0.
    * For y in GF(q), tq(y) = 0 kills every such block, so T = xy + z, and
      so is the oracle.
    * For y outside GF(q), u = tq(y) satisfies u^q = -u, so u lies in
      w GF(q)^*, and so does tq(z) up to zero; k = tq(z)/u lies in GF(q).
      Then u^(a+b) = w^(a+b-1) u, since u/w is in GF(q)^* and
      a + b - 1 is a multiple of q-1, and each block equals
      f(x) k^b w^(a+b-1) u.  The oracle's F - xy - z is u (x + k) on the
      twisted branch and 0 on the square branch.  So T - F = u R(x, k) for
      a function R of x and k alone.
    * Every k in GF(q) is reached from y = w: z = k*w gives
      tq(z) = k tq(w).  So T = F on the grid exactly when T = F at the
      points (x, w, k*w).

    The comparison evaluates the blocks ``expand_blocks`` makes, the ones
    ``gen`` writes out, so it covers the Lucas expansion of every power.
    The witness is the lexicographically first failing grid triple.  A
    failing pair (x, k) fails at every (x, y, z) with y outside GF(q) and
    tq(z)/tq(y) = k.  The least such y is w (index q).  Given y = w, the
    z are c + k*w with c in GF(q), and the least of them is k*w.  So the
    first failing (x, k) in scan order gives the witness (x, q, q*idx(k)),
    the same as a comparison of the full Q^3 grid would.
    """
    label = "polynomial_matches_piecewise"
    q = ctx.q
    for i, (_, a, b) in enumerate(records):
        if a < 1 or b < 0 or (a + b - 1) % (q - 1):
            return PtrReport(label, False, ("block_shape", i))
    X = np.arange(ctx.Q, dtype=np.int32)[:, None]
    w = np.int32(q)
    kw = q * np.arange(q, dtype=np.int32)[None, :]
    values = evaluate_blocks(ctx, expand_blocks(ctx, records), X, w, kw)
    fails = np.flatnonzero(values != ptr_values(ctx, X, w, kw))
    if fails.size == 0:
        return PtrReport(label, True)
    x, k = divmod(int(fails[0]), q)
    return PtrReport(label, False, (x, q, q * k))


# ---------------------------------------------------------------------------
# Human-readable rendering (informational; JSON is the canonical output)
# ---------------------------------------------------------------------------


def _univar_str(factor: Factor) -> str:
    """A factor in X, read in array order: ``_g_factor`` and ``_h_factor``
    give distinct exponents in ascending order and nonzero residues."""
    parts = []
    for i, c in zip(*(a.tolist() for a in factor)):
        if i == 0:
            parts.append(f"{c}")
        elif i == 1:
            parts.append(f"{c}*X")
        else:
            parts.append(f"{c}*X^{i}")
    return " + ".join(parts) if parts else "0"


def render_text(ctx: FieldCtx, form: str) -> str:
    """Structured plain-text rendering of one of the three forms.

    Coefficients are canonical element indices; tq(V) denotes V^q - V.
    """
    p, e, q, Q = ctx.p, ctx.e, ctx.q, ctx.Q
    lines = [
        f"field: GF({Q}) = GF({q})^2, q = {q} = {p}^{e}",
        "notation: tq(V) = V^q - V; coefficients are canonical element indices",
        f"M(X,Y) = X*Y - {ctx.half().index} * (X^{(Q + 1) // 2} - X) * tq(Y)",
    ]
    if form == "reduced":
        lines.append(f"T(X,Y,Z) = M(X,Y) + Z - sum_(i=0..{q - 2}) g_i(X) * tq(Y)^(i+1) * tq(Z)^({q - 1}-i)")
        for i in range(q - 1):
            lines.append(f"g_{i}(X) = {_univar_str(_g_factor(ctx, i))}")
    elif form == "t2":
        lines.append(
            f"T(X,Y,Z) = M(X,Y) + Z + tq(X)*tq(Y)*tq(Z) * sum_(i=0..{q - 2}) h_i(X) * tq(Y)^i * tq(Z)^({q - 2}-i)"
        )
        central = central_binoms(q - 1)
        for i in range(q - 1):
            lines.append(f"h_{i}(X) = {_univar_str(_h_factor(ctx, i, central))}")
    elif form == "nonreduced":
        lines.append(
            f"T(X,Y,Z) = M(X,Y) + Z - {ctx.half().index} * sum_(m=1..{(Q - 1) // 2}) B(m) * X^m * tq(Y)^m * tq(Z)^({Q}-m)"
        )
        ms = np.arange(1, (Q - 1) // 2 + 1)
        bs = ", ".join(
            f"B({m})={b}" for m, b in zip(ms.tolist(), binom_mod_lucas((Q + 1) // 2, ms, p).tolist())
        )
        lines.append(f"binomial coefficients mod {p}: {bs}")
    else:
        raise ValueError(f"unknown form {form!r}")
    return "\n".join(lines) + "\n"
