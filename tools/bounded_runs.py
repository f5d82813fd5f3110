"""Run CLI commands under peak-RSS bounds, and check some against reference digests.

    python tools/bounded_runs.py

Run from the root of the repository, with ``hughesptr`` importable.  Each
row of ``RUNS`` starts ``python -m hughesptr.cli COMMAND`` in a child
process, prints its exit code, wall time, CPU time and peak RSS (the
child's own ``ru_utime + ru_stime`` and ``ru_maxrss``, from ``os.wait4``;
the CPU time counts every thread of the child), and fails when the command
exits non-zero, its peak exceeds the bound or, where asked, its stdout's
SHA-256 differs from ``perfbench/reference_sha256.json``.  Every row runs; the exit code is 1 if
any row failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

# (command, peak RSS bound in MiB, compare stdout with the reference digest)
RUNS = [
    ("plane --p 13 --e 1", 128, False),
    ("verify --p 13 --e 1", 128, False),
    ("du --p 3 --e 4 --samples 2", 96, False),
    ("du --p 11 --e 2 --samples 2 --max-order 14641", 128, False),
    # measured 1.5-1.9 s at 247 MiB (the sorted raw-term keys and the int32
    # term arrays); the bound leaves 41 MiB for other allocators and numpy
    # versions
    ("gen --p 7 --e 2 --form nonreduced", 288, False),
    # about 4.5M Lucas entries, checked 2^16 at a time against uint8 rows of
    # Pascal's triangle, two int32 passes of the 49 x 49 block table each:
    # measured 0.36-0.48 s at 35 MiB
    ("identities --p 7 --e 2 --max-n 3000", 64, False),
    # the same sweep at p = 3: 27 x 27 block table, three passes: measured
    # 0.45-0.62 s at 39 MiB
    ("identities --p 3 --e 4 --max-n 3000", 64, False),
    # the top of the verify cap, Q=361: measured 1.5-1.8 s at 218 MiB, the
    # peak of verify alone, as the plane is read off (D) and (E); a line array
    # built beside the value table adds 174 MiB and breaks the bound.  (E)
    # scans one member per orbit of the four generators; with the full (E)
    # and pair-count scans it took 324 s here
    ("verify --p 19 --e 1 --plane", 256, False),
    # the same table without the plane: measured 1.7-2.1 s at 218 MiB, the
    # value table (188 MB) and the (D) sort of a chunk of its rows; a sorted
    # copy of the table would break the bound
    ("verify --p 19 --e 1", 256, False),
    # the same plane from the oracle's y-slabs, with no value table: measured
    # 2.3-2.5 s at 223 MiB, the line array (189 MB at Q=361) and one slab
    ("plane --p 19 --e 1", 256, False),
    # Q=59049: measured 0.4-0.5 s at 88 MiB, probe and symmetry deciding every
    # section; with both X-sections sent to the full scan instead, which holds
    # O(2^16) counts beyond the field tables, it took 133 s at the same 88 MiB
    ("du --p 3 --e 5 --samples 2 --max-order 59049", 128, False),
    # all 28,561 X-sections at Q=169, 387 to a batch, each non-linear one
    # decided by the symmetry check and direction 1; exit 1 on any delta
    # other than the expected one: measured 0.6-0.9 s at 35 MiB, the rows
    # written by cli.write_json's digit tables from du_sections' own arrays
    ("du --p 13 --e 1 --exhaustive --section x", 64, False),
    # every fixing of all three families at Q=81, 809 sections to a batch:
    # the probe decides the Y-, Z- and linear X-sections and the symmetry
    # check the other X-sections, so no section needs the full scan;
    # measured 0.3-0.4 s at 33 MiB
    ("du --p 3 --e 2 --exhaustive", 64, False),
    # all three families at Q=169, 3 x 28,561 sections over one shared
    # read-only fixings array: measured 1.1-1.7 s at 35 MiB
    ("du --p 13 --e 1 --exhaustive", 64, False),
    # Q=531441, the top of the order ladder: 14,397,137 terms, 1.2 GB of
    # JSON; measured 3.1-3.5 s at 398-401 MiB, the sorted int64 raw-term keys
    # and the four int32 term arrays
    ("gen --p 3 --e 6 --form reduced --max-order 531441", 448, False),
    # a child's ru_maxrss starts at this process's high-water RSS, which
    # holds each captured stdout (28.5 MB for the nonreduced form); so the
    # rows that capture stdout run last
    # the full Q^3 path at Q=81 (oracle table, axioms, the plane read off (D)
    # and (E)): measured 34 MiB
    ("verify --p 3 --e 2 --plane", 64, True),
    ("gen --p 5 --e 2 --form nonreduced", 128, True),
    ("gen --p 3 --e 4 --form t2", 128, True),
    ("identities --p 7 --e 2 --max-n 1000", 128, True),
]


def run(command: str, bound: int, digest: bool, reference: dict) -> bool:
    """Run one row and print its line; True when it passed."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "hughesptr.cli", *command.split()],
                            stdout=subprocess.PIPE if digest else subprocess.DEVNULL)
    out = b""
    if digest:
        with proc.stdout:
            out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    peak = usage.ru_maxrss / 1024
    cpu = usage.ru_utime + usage.ru_stime
    line = f"{command}: exit {code}, {wall:.1f} s, CPU {cpu:.1f} s"
    ok = code == 0 and peak <= bound
    if digest:
        match = hashlib.sha256(out).hexdigest() == reference[command]
        line += f", digest {'matches' if match else 'MISMATCH'}"
        ok &= match
    print(f"{line}, peak RSS {peak:.0f} MiB (bound {bound} MiB)", flush=True)
    return ok


def main() -> int:
    with open("perfbench/reference_sha256.json") as fh:
        reference = json.load(fh)
    results = [run(command, bound, digest, reference) for command, bound, digest in RUNS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
