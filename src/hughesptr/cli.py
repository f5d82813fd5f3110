"""Command-line entry point.

Subcommands: gen, verify, du, plane, identities.  Exit codes: 0 on success,
1 when a verification sweep fails, 2 on usage errors, 3 on an internal error
(an unexpected exception, whose traceback goes to stderr), and 141
(128 + SIGPIPE, as a shell reports a process killed by that signal) when
the reader of stdout closes it early, as ``head`` does; no traceback is
printed then, and the output is cut short.  JSON output is byte-identical
for a fixed configuration.  Each subcommand writes bytes to the output
stream (the buffer under stdout, or ``--out`` opened in binary mode)
after all of its computation, its JSON through one writer, ``write_json``,
which streams ``gen``'s terms and ``du``'s rows a chunk at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback
from typing import NamedTuple

import numpy as np

from . import du_analysis, hughes_core, modcomb, ptr_verify
from .gf_tower import field_ctx, is_odd_prime

DEFAULT_MAX_ORDER = 6561

# verify holds the oracle's value table on all of GF(Q)^3, and plane the
# (Q^2+Q+1) x (Q+1) line array, written from the oracle one y-slab at a time
# (the polynomial is checked on Q*q points only).  Axiom (E) and the plane's
# pair count scan one member per orbit of the group generated by those of the
# four symmetries X, Y, Gx, Gy that hold on the input, the x- and y-sections
# follow from the axioms, and verify --plane reads the plane off (D) and (E),
# so it builds no line array when they hold: at Q=361, the largest order below
# this cap, verify took 1.5-1.6 s at a peak RSS of 218 MiB, verify --plane
# 1.5-1.8 s at 218 MiB and plane 2.4-2.7 s at 223 MiB; at Q=169, 0.33-0.41 s
# at 51 MiB, 0.32-0.41 s at 51 MiB and 0.39-0.45 s at 53 MiB (shared 2-core
# x86-64 VM with 7 GB, Python 3.11, numpy 2.4).  The full scans took 112 s,
# 324 s and 169 s at Q=361, and Q=529 passed with them (verify 463 s at
# 604 MiB, plane 656 s at 1179 MiB).  A table without these symmetries still
# takes the Q^4 scans, so the cap stays at 400
FULL_GRID_MAX_ORDER = 400


def _int_at_least(low: int):
    """argparse type for an integer flag with a lower bound (exit 2 below it)."""

    def check(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    check.__name__ = "int"  # argparse names the type in "invalid int value"
    return check


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hughesptr",
        description="Hughes-plane ternary-ring polynomials: generation, "
        "verification, and differential-uniformity analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def field_args(sp):
        sp.add_argument("--p", type=int, required=True, help="odd prime characteristic")
        sp.add_argument("--e", type=int, required=True, help="extension degree (q = p^e)")
        sp.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                        help="refuse fields with Q above this bound (default %(default)s)")
        sp.add_argument("--out", type=str, default=None, help="write output to this file")

    sp = sub.add_parser("gen", help="emit a ternary-ring polynomial")
    field_args(sp)
    sp.add_argument("--form", choices=["reduced", "nonreduced", "t2"], default="reduced")
    sp.add_argument("--format", choices=["json", "text"], default="json",
                    help="text rendering is informational; json is canonical")

    sp = sub.add_parser("verify", help="run axiom and section checks")
    field_args(sp)
    sp.add_argument("--plane", action="store_true", help="also check the plane")

    sp = sub.add_parser("du", help="differential uniformity of the section families")
    field_args(sp)
    sp.add_argument("--section", choices=["x", "y", "z"], default=None,
                    help="restrict to one family (default: all three)")
    sp.add_argument("--exhaustive", action="store_true",
                    help="sweep every fixing instead of sampling")
    sp.add_argument("--samples", type=_int_at_least(1), default=100,
                    help="fixings per family when sampling (default %(default)s)")
    sp.add_argument("--seed", type=_int_at_least(0), default=0,
                    help="seed of the random.Random draw of the --samples fixings "
                         "(default %(default)s)")

    sp = sub.add_parser("plane", help="build the plane and verify its axioms")
    field_args(sp)

    sp = sub.add_parser("identities", help="verify the binomial/Catalan congruences")
    field_args(sp)
    sp.add_argument("--max-n", type=_int_at_least(1), default=300, help="index ceiling (default %(default)s)")

    return parser


def _get_ctx(parser: argparse.ArgumentParser, args):
    # a p with p^2 above the bound is refused untested, and Q is built one
    # factor at a time: a huge --p or --e exits 2 at once instead of hanging
    if args.p * args.p <= args.max_order and not is_odd_prime(args.p):
        parser.error("p must be an odd prime")
    if args.e < 1:
        parser.error("e must be a positive integer")
    Q = 1
    for _ in range(2 * args.e):
        Q *= args.p
        if Q > args.max_order:
            parser.error(f"Q = {args.p}^{2 * args.e} exceeds the configured bound {args.max_order}")
    if args.command in ("verify", "plane") and Q > FULL_GRID_MAX_ORDER:
        held = "the Q^3 value table" if args.command == "verify" else "the (Q^2+Q+1) x (Q+1) line array"
        parser.error(
            f"{args.command} holds {held} and supports "
            f"Q <= {FULL_GRID_MAX_ORDER}; gen, du, and identities scale further"
        )
    if Q > DEFAULT_MAX_ORDER:
        print(f"warning: Q = {Q} is above the default bound {DEFAULT_MAX_ORDER}; "
              "exhaustive sweeps may take a long time", file=sys.stderr)
    return field_ctx(args.p, args.e)


_FORM_BLOCKS = {
    "reduced": hughes_core.reduced_blocks,
    "nonreduced": hughes_core.nonreduced_blocks,
    "t2": hughes_core.t2_blocks,
}


def _cmd_gen(ctx, args, out) -> int:
    if args.format == "text":
        out.write(hughes_core.render_text(ctx, args.form).encode())
    else:
        # every term is computed before the first byte is written
        blocks = hughes_core.expand_blocks(ctx, _FORM_BLOCKS[args.form](ctx))
        write_json(_gen_payload(ctx.p, ctx.e, hughes_core.emit_arrays(ctx, blocks)), out)
    return 0


def _gen_payload(p: int, e: int, arrays) -> dict:
    """``TriPoly.to_json_dict``'s schema over ``emit_arrays``' (ex, ey, ez, c), uncopied."""
    ex, ey, ez, c = arrays
    return {"e": e, "p": p, "terms": Rows((c, ex, ey, ez), ("c", "ex", "ey", "ez"))}


def _cmd_verify(ctx, args, out) -> int:
    # the sections and the plane are read off the oracle's table, which is the
    # reduced polynomial's whenever polynomial_matches_piecewise passes; the
    # plane follows from (D) and (E), and its line array is built only when
    # one of them fails
    table = hughes_core.ptr_table(ctx)
    reports = ptr_verify.check_axioms(table)
    if args.plane:
        reports.append(ptr_verify.check_table_plane(table, reports))
    reports.append(hughes_core.piecewise_match(ctx, hughes_core.reduced_blocks(ctx)))
    return _report(out, {r.label: r.to_json_dict() for r in reports}, all(r.passed for r in reports))


def _cmd_du(ctx, args, out) -> int:
    families = args.section if args.section else "xyz"
    sample = None if args.exhaustive else args.samples
    report = du_analysis.du_sections(ctx, families=families, sample=sample, seed=args.seed)
    return _report(out, _du_payload(report), all(res["report"].passed for res in report.values()))


def _du_payload(report: dict) -> dict:
    return {
        fam: {
            "per_fixing": Rows((*res["fixings"].T, res["deltas"])),  # views of du_sections' arrays
            "aggregate": {
                "max_delta": int(res["deltas"].max()),
                "min_delta": int(res["deltas"].min()),
                **res["report"].to_json_dict(),
            },
        }
        for fam, res in report.items()
    }


def _cmd_plane(ctx, args, out) -> int:
    # the plane is written one y-slab of the oracle at a time: no Q^3 table
    plane = ptr_verify.build_plane(hughes_core.ptr_slabs(ctx))
    report = ptr_verify.check_plane(plane)
    n_lines, per_line = plane.shape
    payload = {
        "points": n_lines,  # a plane has as many points as lines
        "lines": n_lines,
        "points_per_line": per_line,
        "projective_plane": report.to_json_dict(),
    }
    return _report(out, payload, report.passed)


def _cmd_identities(ctx, args, out) -> int:
    suite = modcomb.identity_suite(args.p, args.e, max_n=args.max_n)
    payload = {label: chk.to_json_dict() for label, chk in suite.items()}
    return _report(out, payload, all(chk.passed for chk in suite.values()))


def _report(out, payload, ok: bool) -> int:
    """Write a report as canonical JSON; exit code 0 when it passed, else 1."""
    write_json(payload, out)
    return 0 if ok else 1


class Rows(NamedTuple):
    """A JSON list of n rows from columns of n non-negative integers: each row a
    list or, with ``keys`` (ascending, one per column), an object."""

    columns: tuple
    keys: tuple | None = None


_JSON_CHUNK = 1 << 14  # rows in one write of a Rows leaf (about 1.3 MB of gen's JSON)
_ROWS_MARK = "\0Rows"  # the skeleton's stand-in for every Rows leaf


def write_json(payload, stream) -> None:
    """Write ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` to a binary stream,
    byte for byte, each ``Rows`` leaf as the list of its rows.  ``json.dumps`` writes the
    skeleton, with ``_ROWS_MARK`` for each leaf: its pure-Python ``indent`` encoder took
    0.62 s of 1.43 s of ``du --p 13 --e 1 --exhaustive --section x`` writing the rows too.
    A bad leaf raises ``ValueError`` before the first byte is written."""
    leaves = []  # (depth, columns, labels, column maxima), in the order of their marks

    def skeleton(value, depth: int):
        if isinstance(value, Rows):
            columns, keys = [np.asarray(col) for col in value.columns], value.keys
            n = len(columns[0]) if columns else -1
            if n < 0 or keys is not None and (len(keys) != len(columns) or list(keys) != sorted(set(keys))):
                raise ValueError("a Rows leaf takes columns, and ascending keys, one per column")
            if any(col.ndim != 1 or len(col) != n or n and (col.dtype.kind not in "iu" or col.min() < 0)
                   for col in columns):
                raise ValueError("a Rows leaf takes non-negative integer columns of one length")
            labels = None if keys is None else [json.dumps(key) + ": " for key in keys]
            leaves.append((depth, columns, labels, [int(col.max()) for col in columns] if n else []))
            return _ROWS_MARK
        if isinstance(value, dict):  # in json.dumps' key order, as the leaves must be
            return {key: skeleton(value[key], depth + 1) for key in sorted(value)}
        if isinstance(value, (list, tuple)):
            return [skeleton(item, depth + 1) for item in value]
        return value

    text = json.dumps(skeleton(payload, 0), indent=2, sort_keys=True) + "\n"
    pieces = text.split(json.dumps(_ROWS_MARK))
    if len(pieces) != len(leaves) + 1:
        raise ValueError(f"a string of the payload holds {_ROWS_MARK!r}")
    # one digit table per decimal width, up to the largest value of that width
    widest = {len(str(top)): top for top in sorted(top for *_, tops in leaves for top in tops)}
    tables = {width: _decimal_table(top) for width, top in widest.items()}
    stream.write(pieces[0].encode())
    for (depth, columns, labels, tops), piece in zip(leaves, pieces[1:]):
        _write_rows(stream, depth, columns, labels, [tables[len(str(top))] for top in tops])
        stream.write(piece.encode())


def _decimal_table(top: int) -> np.ndarray:
    """The ASCII digits of 0 .. top, one fixed-width void item each,
    right-aligned behind 0 bytes, so that item v is the text of v."""
    width = len(str(top))
    table = np.zeros((top + 1, width), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for k in range(width):  # digit k cycles through 0-9, 10^k v each; v < 10^k lacks it (0 has a units digit)
        cycle, start = np.repeat(digits, 10 ** k), 10 ** k if k else 0
        table[start:, width - 1 - k] = np.tile(cycle, top // cycle.size + 1)[start:top + 1]
    return table.view(np.dtype((np.void, width))).ravel()


def _write_rows(stream, depth: int, columns, labels, tables) -> None:
    """Write a checked Rows leaf at nesting depth ``depth``, ``_JSON_CHUNK`` rows at a time:
    fixed-width records of the constant text, each row with its leading comma (the first is
    dropped), digits filled in by one ``take`` per column from the table of its width, and their
    0 bytes of padding dropped by ``bytes.replace``.  Nonreduced ``gen`` at Q=625 took 35 ms to
    write so, 59 ms with a numpy compress, 74-81 ms with one table for all four columns."""
    n = len(columns[0])
    if n == 0:
        stream.write(b"[]")
        return
    row, field = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    opening, closing = "[]" if labels is None else "{}"
    template, offsets = f",{row}{opening}", []  # ASCII: json.dumps escapes the keys
    for j, label in enumerate(labels or [""] * len(columns)):
        template += f"{',' if j else ''}{field}{label}"
        offsets.append(len(template))
        template += "\0" * tables[j].itemsize
    template = np.frombuffer(f"{template}{row}{closing}".encode(), dtype=np.uint8)
    names = [f"f{j}" for j in range(len(columns))]
    record = np.dtype({"names": names, "formats": [table.dtype for table in tables],
                       "offsets": offsets, "itemsize": template.size})
    stream.write(b"[")
    for start in range(0, n, _JSON_CHUNK):
        stop = min(start + _JSON_CHUNK, n)
        buf = np.empty((stop - start, template.size), dtype=np.uint8)
        buf[:] = template
        records = buf.view(record)[:, 0]
        for name, col, table in zip(names, columns, tables):
            records[name] = table.take(col[start:stop])
        text = memoryview(buf.tobytes().replace(b"\0", b""))
        stream.write(text[1:] if start == 0 else text)
    stream.write(f"\n{'  ' * depth}]".encode())


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "du": _cmd_du,
    "plane": _cmd_plane,
    "identities": _cmd_identities,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    ctx = _get_ctx(parser, args)
    out = contextlib.nullcontext(sys.stdout.buffer)
    if args.out:
        try:  # before computing, so that a bad path costs nothing
            out = open(args.out, "wb")
        except OSError as exc:
            parser.error(f"cannot write --out: {exc}")
    with out as stream:
        return _COMMANDS[args.command](ctx, args, stream)


# exit status when stdout is closed by its reader: 128 + SIGPIPE
EXIT_CLOSED_PIPE = 141


def run(argv=None) -> None:
    """Console entry point: exit 3, not 1, when the program itself fails, and
    ``EXIT_CLOSED_PIPE`` when the reader of stdout goes away."""
    try:
        code = main(argv)
        sys.stdout.flush()  # a closed pipe shows here at the latest
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at shutdown cannot
        # raise again (the recipe of the signal module's documentation)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    except Exception:
        traceback.print_exc()
        code = 3
    raise SystemExit(code)


if __name__ == "__main__":
    run()
