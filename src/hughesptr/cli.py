"""Command-line entry point.

Subcommands: gen, verify, du, plane, identities.  Exit codes: 0 on success,
1 when a verification sweep fails, 2 on usage errors, 3 on an internal error
(an unexpected exception, whose traceback goes to stderr), and 141
(128 + SIGPIPE, as a shell reports a process killed by that signal) when
the reader of stdout closes it early, as ``head`` does; no traceback is
printed then, and the output is cut short.  JSON output is byte-identical
for a fixed configuration.  Each subcommand writes bytes to the output
stream (the buffer under stdout, or ``--out`` opened in binary mode)
itself, after all of its computation: ``gen`` streams its JSON a chunk of
terms at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import traceback

from . import du_analysis, hughes_core, modcomb, ptr_verify
from .gf_tower import field_ctx, is_odd_prime
from .trivar_poly import write_json

DEFAULT_MAX_ORDER = 6561

# verify tabulates the oracle on all of GF(Q)^3, and plane writes its lines
# from the oracle one y-slab at a time (the polynomial is checked on Q*q
# points only).  Axiom (E) and the plane's pair count scan one member per
# orbit of the symmetries verified on the input: at Q=361, the largest order
# below this cap, verify took 2.4 s at a peak RSS of 218 MiB, verify --plane
# 4.9-5.4 s at 392 MiB and plane 4.0-4.6 s at 224 MiB; at Q=169, 0.5 s at
# 51 MiB, 0.65-0.8 s at 68 MiB and 0.45-0.75 s at 54 MiB (shared 2-core
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
    sp.add_argument("--plane", action="store_true", help="also build and check the plane")

    sp = sub.add_parser("du", help="differential uniformity of the section families")
    field_args(sp)
    sp.add_argument("--section", choices=["x", "y", "z"], default=None,
                    help="restrict to one family (default: all three)")
    sp.add_argument("--exhaustive", action="store_true",
                    help="sweep every fixing instead of sampling")
    sp.add_argument("--samples", type=_int_at_least(1), default=100,
                    help="fixings per family when sampling (default %(default)s)")
    sp.add_argument("--seed", type=_int_at_least(0), default=0)

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
        parser.error(
            f"{args.command} tabulates the full GF(Q)^3 grid and supports "
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
        arrays = hughes_core.emit_arrays(ctx, blocks)
        write_json(ctx.p, ctx.e, arrays, out)
    return 0


def _cmd_verify(ctx, args, out) -> int:
    # the sections are read off the oracle's table, which is the reduced
    # polynomial's whenever polynomial_matches_piecewise passes
    table = hughes_core.ptr_table(ctx)
    reports = ptr_verify.check_axioms(table)
    reports += ptr_verify.check_pp_classes(table)
    reports.append(hughes_core.piecewise_match(ctx, hughes_core.reduced_blocks(ctx)))
    payload = {r.label: r.to_json_dict() for r in reports}
    payload["z_sections"] = payload["D"]  # T(a, b, Z) is a bijection: (D)
    if args.plane:
        plane = ptr_verify.build_plane(table.swapaxes(0, 1))  # a view whose rows are the y-slabs
        del table  # not needed by the plane check, which sets the peak
        payload["projective_plane"] = ptr_verify.check_plane(plane).to_json_dict()
    return _report(out, payload, all(v["pass"] for v in payload.values()))


def _cmd_du(ctx, args, out) -> int:
    families = args.section if args.section else "xyz"
    sample = None if args.exhaustive else args.samples
    report = du_analysis.du_sections(ctx, families=families, sample=sample, seed=args.seed)
    return _report(out, _du_payload(report), all(res["passed"] for res in report.values()),
                   _du_dumps)


def _du_payload(report: dict) -> dict:
    return {
        fam: {
            "per_fixing": [[i1, i2, d] for (i1, i2), d in zip(res["fixings"], res["deltas"])],
            "aggregate": {
                "max_delta": max(res["deltas"]),
                "min_delta": min(res["deltas"]),
                "pass": res["passed"],
            },
        }
        for fam, res in report.items()
    }


def _du_dumps(payload: dict) -> str:
    """``_dumps(payload)`` for a ``du`` payload, byte for byte.

    With ``indent``, ``json.dumps`` runs CPython's pure-Python encoder, which
    took 0.62 s of 1.43 s of ``du --p 13 --e 1 --exhaustive --section x``
    under cProfile.  So each ``per_fixing`` list of int triples is left out
    of the dump and written with one format, at its depth of two levels.
    """
    marks = {fam: f"per_fixing of {fam}" for fam in payload}
    text = _dumps({fam: {**body, "per_fixing": marks[fam]} for fam, body in payload.items()})
    for fam, body in payload.items():
        rows = body["per_fixing"]
        if rows:
            row = "      [\n        %d,\n        %d,\n        %d\n      ]"
            block = "[\n" + ",\n".join([row] * len(rows)) % tuple(v for r in rows for v in r) + "\n    ]"
        else:
            block = "[]"
        text = text.replace(json.dumps(marks[fam]), block, 1)
    return text


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
    payload = {
        label: {
            "pass": chk.passed,
            "checked": chk.checked,
            **({"witness": list(chk.witness)} if chk.witness else {}),
        }
        for label, chk in suite.items()
    }
    return _report(out, payload, all(chk.passed for chk in suite.values()))


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _report(out, payload, ok: bool, dumps=_dumps) -> int:
    """Write a report as canonical JSON; exit code 0 when it passed, else 1."""
    out.write((dumps(payload) + "\n").encode())
    return 0 if ok else 1


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
