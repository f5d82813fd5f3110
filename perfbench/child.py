"""One benchmark invocation: a fresh process that sets up and runs the CLI.

    python3 child.py MODE CLI_ARG...

MODE is ``run`` (set up, then ``hughesptr.cli.main(CLI_ARGS)``), ``trace``
(the same with the spans of ``spans.py`` installed) or ``setup`` (set up
only).  Set-up is what every user pays before the subcommand starts:
``import hughesptr``, ``field_ctx(p, e)`` and ``ctx.tables``; the CLI then
finds the context in ``field_ctx``'s cache.  The CLI writes to stdout as it
always does.  When it has finished, one line ``RECORD_PREFIX {json}`` goes to
stderr with the timings, the peak RSS of this process and, traced, the
per-layer summary.  The exit code is the CLI's.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time

RECORD_PREFIX = "perfbench-record"


def _blas_threads():
    """Threads OpenBLAS will use in this process, or None if not found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    p = int(argv[argv.index("--p") + 1])
    e = int(argv[argv.index("--e") + 1])

    t0 = time.perf_counter()
    import hughesptr
    from hughesptr import cli, gf_tower

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    ctx = gf_tower.field_ctx(p, e)
    ctx.tables
    t1 = time.perf_counter()

    code = 0
    if mode != "setup":
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    t2 = time.perf_counter()

    import numpy

    record = {
        "module": os.path.abspath(hughesptr.__file__),
        "setup_s": t1 - t0,
        "solve_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }
    if tracer is not None:
        record["layers"] = tracer.summary()
    print(RECORD_PREFIX, json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
