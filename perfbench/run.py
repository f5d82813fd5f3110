"""Benchmark of hughesptr: time to an exact verdict on the grid, section and
symbolic paths, with per-layer spans recorded from outside the program.

    python3 perfbench/run.py --workload verify-q81 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seconds 40     # every workload, one after another
    python3 perfbench/run.py --self-test      # Q=9 and Q=25 through gate and tracer

Run it from the root of a source tree: it imports hughesptr from ``src/``
and refuses to run, without printing a result, when that is missing.

Workloads.  Inputs are fixed apart from the du sampling seed, which is the
benchmark's ``--seed``.  Each command runs in a fresh process (``child.py``),
exactly as ``hughesptr <command>`` does, one process at a time (a closed
loop with one client); an iteration is one pass over the workload's commands.

* ``verify-q81``: ``verify --p 3 --e 2 --plane``, the full Q^3 grid path:
  scalar oracle, polynomial grid evaluation, axioms (A)-(E), plane check.
* ``du-q2401``: ``du --p 7 --e 2 --samples 8 --seed SEED``, 24 lazily built
  sections on the numpy table kernels; no grid and no polynomial.  Eight
  fixings per family keep an iteration near seven seconds, so that a run
  holds several of them.
* ``symbolic``: ``gen --p 5 --e 2 --form nonreduced``, ``gen --p 3 --e 4
  --form t2`` and ``identities --p 7 --e 2 --max-n 1000``: dict-based
  polynomial arithmetic, scalar field elements and big-integer binomials.

``--trace 0`` sets up once without measuring (a warm-up), runs iterations
while the next one and ``SETUP_PROBES`` set-up-only passes are expected to
end within ``--seconds`` (at least one iteration), then fills the rest of
the run with set-up-only passes.  It reports the fastest iteration's
``solve_s`` (the subcommand, after set-up), ``wall_s`` and ``cpu_s`` (user
plus system, BLAS threads included) of the whole process; the median over
the iterations of ``peak_rss_mb`` (the process's ``ru_maxrss``); and the
median over passes and iterations of ``setup_s`` (``import hughesptr``,
``field_ctx``, ``ctx.tables``).  The host is shared, and contention only
ever slows an iteration down, so the fastest is the steadiest estimate.  For
``symbolic`` an iteration's times are sums over its three processes and its
RSS is their maximum.

``--trace 1`` runs one untraced and two traced iterations, whatever
``--seconds`` says, and reports per layer (see ``spans.py``) the calls, self
time and work counts, as the mean of the two traced iterations.  Every count
must repeat exactly between them.  ``trace.overhead_s`` is traced minus
untraced ``solve_s`` and ``trace.coverage`` is the share of the traced
``solve_s`` that lies inside layer spans below ``cli.main``.

Correctness.  Every stdout is checked: ``gen``, ``identities`` and ``verify``
outputs against SHA-256 digests in ``reference_sha256.json``; ``du`` outputs
by recomputing each section's expected uniformity, independently of the
program's own ``pass`` flag.  A wrong exit code or output counts as a failed
invocation.

The report goes to stdout as text; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import RECORD_PREFIX
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "hughesptr"

SETUP_PROBES = 6  # set-up-only passes per run, at least
MAX_PROBES = 30
RUN_LIMIT_S = 170  # one run of one workload ends well within three minutes

WORKLOADS = {
    "verify-q81": lambda seed: [["verify", "--p", "3", "--e", "2", "--plane"]],
    "du-q2401": lambda seed: [["du", "--p", "7", "--e", "2", "--samples", "8",
                               "--seed", str(seed)]],
    "symbolic": lambda seed: [
        ["gen", "--p", "5", "--e", "2", "--form", "nonreduced"],
        ["gen", "--p", "3", "--e", "4", "--form", "t2"],
        ["identities", "--p", "7", "--e", "2", "--max-n", "1000"],
    ],
}

# the same pipeline at Q=9 and Q=25, for checking the harness in seconds
SELF_TEST = {
    f"{kind}-q{p * p}": make
    for p in (3, 5)
    for kind, make in {
        "verify": lambda seed, p=p: [["verify", "--p", str(p), "--e", "1", "--plane"]],
        "du": lambda seed, p=p: [["du", "--p", str(p), "--e", "1", "--samples", "8",
                                  "--seed", str(seed)]],
        "symbolic": lambda seed, p=p: [
            ["gen", "--p", str(p), "--e", "1", "--form", "nonreduced"],
            ["gen", "--p", str(p), "--e", "1", "--form", "t2"],
            ["identities", "--p", str(p), "--e", "1", "--max-n", "60"],
        ],
    }.items()
}

END_TO_END = {"solve_s": "s", "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
TIMES = ["solve_s", "wall_s", "cpu_s"]  # per iteration; set-up has its own probes

PER_LAYER = {}
for _layer, _, _, _counters in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER.update({key: "count" for key in _counters})
PER_LAYER.update({
    "ptr_verify.check_plane.rss_mb": "MiB",
    "gf_tower.FieldTables.add.elems_per_s": "1/s",
    "du_analysis.section_ms": "ms",
    "cli.stdout_bytes": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
})
EXACT_COUNTS = [name for name, unit in PER_LAYER.items() if unit == "count"]


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _reference() -> dict[str, str]:
    with open(HERE / "reference_sha256.json") as fh:
        return json.load(fh)


def _check_du(argv: list[str], out: bytes) -> str | None:
    """Each sampled section's uniformity against its known value."""
    p = int(argv[argv.index("--p") + 1])
    e = int(argv[argv.index("--e") + 1])
    samples = int(argv[argv.index("--samples") + 1])
    q = p**e
    Q = q * q
    try:
        payload = json.loads(out)
        if sorted(payload) != ["x", "y", "z"]:
            return f"families {sorted(payload)}, expected x, y, z"
        for family, body in payload.items():
            rows = body["per_fixing"]
            if len(rows) != samples or len({(i1, i2) for i1, i2, _ in rows}) != samples:
                return f"{family}: {len(rows)} fixings, expected {samples} distinct"
            for i1, i2, delta in rows:
                if not (0 <= i1 < Q and 0 <= i2 < Q):
                    return f"{family}: fixing ({i1}, {i2}) outside GF({Q})"
                # X-sections are linear exactly when y lies in GF(q)
                expected = Q if family != "x" or i1 < q else (Q + 3) // 4
                if delta != expected:
                    return f"{family}-section ({i1}, {i2}): delta {delta}, expected {expected}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed du output: {exc!r}"
    return None


def check_output(argv: list[str], code: int, out: bytes, reference: dict[str, str]) -> str | None:
    """None if the invocation is correct, else why it is not."""
    if code != 0:
        return f"exit code {code}"
    if argv[0] == "du":
        return _check_du(argv, out)
    expected = reference.get(" ".join(argv))
    if expected is None:
        return "no reference digest for this command"
    if hashlib.sha256(out).hexdigest() != expected:
        return "stdout differs from the reference digest"
    return None


def _invoke(mode: str, argv: list[str], deadline: float, reference: dict[str, str]) -> dict:
    """One fresh process; returns its measurements and any failure."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode, *argv],
                              capture_output=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": f"{' '.join(argv)}: timed out"}
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)

    lines = proc.stderr.decode(errors="replace").splitlines()
    records = [line for line in lines if line.startswith(RECORD_PREFIX + " ")]
    if not records:
        tail = "\n".join(lines[-5:])
        return {"error": f"{' '.join(argv)}: exit {proc.returncode}, no record\n{tail}"}
    record = json.loads(records[-1][len(RECORD_PREFIX) + 1:])
    if Path(record["module"]) != PACKAGE / "__init__.py":
        raise SetupError(f"hughesptr was imported from {record['module']}, not {PACKAGE}")
    sample = {
        "setup_s": record["setup_s"],
        "solve_s": record["solve_s"],
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": record["peak_rss_mb"],
        "stdout_bytes": len(proc.stdout),
        "layers": record.get("layers", {}),
        "machine": {"numpy": record["numpy"], "blas_threads": record["blas_threads"]},
    }
    if mode != "setup":
        error = check_output(argv, proc.returncode, proc.stdout, reference)
        if error:
            sample["error"] = f"{' '.join(argv)}: {error}"
    return sample


def _iteration(mode: str, commands: list[list[str]], deadline: float,
               reference: dict[str, str]) -> dict:
    """One pass over the workload's commands, each in its own process."""
    samples = [_invoke(mode, argv, deadline, reference) for argv in commands]
    it = {"attempted": len(samples), "errors": [s["error"] for s in samples if "error" in s]}
    if any("solve_s" not in s for s in samples):
        return it
    for key in ("setup_s", "solve_s", "wall_s", "cpu_s"):
        it[key] = sum(s[key] for s in samples)
    it["peak_rss_mb"] = max(s["peak_rss_mb"] for s in samples)
    it["machine"] = samples[0]["machine"]
    if mode == "trace":
        layers: dict[str, float] = {}
        for s in samples:
            for key, value in s["layers"].items():
                combine = max if key == "ptr_verify.check_plane.rss_mb" else sum
                layers[key] = combine((layers.get(key, 0), value))
        layers["cli.stdout_bytes"] = sum(s["stdout_bytes"] for s in samples)
        it["layers"] = _derive(layers)
    return it


def _derive(layers: dict[str, float]) -> dict[str, float]:
    """Ratios computed per traced iteration, before medians are taken."""
    add_s = layers["gf_tower.FieldTables.add.self_s"]
    layers["gf_tower.FieldTables.add.elems_per_s"] = (
        layers["gf_tower.FieldTables.add.elems"] / add_s if add_s else 0.0)
    sections = layers["du_analysis.sections"]
    layers["du_analysis.section_ms"] = (
        1000 * layers["du_analysis.du_sections.total_s"] / sections if sections else 0.0)
    main_s = layers["cli.main.total_s"]
    layers["trace.coverage"] = 1 - layers["cli.main.self_s"] / main_s if main_s else 0.0
    return layers


def _median(iterations: list[dict], key: str) -> float:
    return statistics.median(it[key] for it in iterations)


def measure(commands: list[list[str]], seconds: float, trace: bool,
            reference: dict[str, str]) -> dict:
    """One benchmark run of one workload."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    warmup = []
    if trace:
        plain = [_iteration("run", commands, deadline, reference)]
        runs = [_iteration("trace", commands, deadline, reference) for _ in range(2)]
        setups = []
    else:
        # a warm-up pass, not measured, loads the interpreter, numpy and the
        # sources into the file cache; its duration sizes the set-up probes
        warm = time.monotonic()
        warmup = [_iteration("setup", commands, deadline, reference)]
        probe_s = time.monotonic() - warm
        reserve = SETUP_PROBES * probe_s
        plain, runs = [], []
        while True:
            plain.append(_iteration("run", commands, deadline, reference))
            longest = max(it.get("wall_s", 0.0) for it in plain)
            now = time.monotonic()
            if (now - start + longest + reserve > seconds or now + longest > deadline
                    or plain[-1]["errors"]):
                break
        # set-up probes fill what is left of the run, at least SETUP_PROBES
        setups = []
        while len(setups) < SETUP_PROBES or (
                time.monotonic() - start + probe_s < seconds and len(setups) < MAX_PROBES):
            setups.append(_iteration("setup", commands, deadline, reference))

    everything = warmup + setups + plain + runs
    errors = [error for it in everything for error in it["errors"]]
    result = {
        "attempted": sum(it["attempted"] for it in everything),
        "failed": len(errors),
        "errors": errors,
        "iterations": len(plain) + len(runs),
        "machine": next((it["machine"] for it in everything if "machine" in it), {}),
    }
    if errors:
        result["metrics"] = {}
        return result

    if not trace:
        # contention on a shared host only ever slows an iteration down, so
        # the fastest iteration is the run's steadiest estimate of a time
        result["metrics"] = {key: min(it[key] for it in plain) for key in TIMES}
        result["metrics"]["peak_rss_mb"] = _median(plain, "peak_rss_mb")
        result["metrics"]["setup_s"] = _median(setups + plain, "setup_s")
        result["spread"] = {key: (min(it[key] for it in plain), max(it[key] for it in plain))
                            for key in END_TO_END if key != "setup_s"}
        result["spread"]["setup_s"] = (min(it["setup_s"] for it in setups + plain),
                                       max(it["setup_s"] for it in setups + plain))
        return result

    traced = [it["layers"] for it in runs]
    for key in EXACT_COUNTS:
        if len({layers[key] for layers in traced}) != 1:
            result["errors"].append(f"count {key} did not repeat: "
                                    f"{[layers[key] for layers in traced]}")
    result["failed"] = len(result["errors"])
    metrics = {key: traced[0][key] if key in EXACT_COUNTS
               else statistics.median(layers[key] for layers in traced)
               for key in PER_LAYER if not key.startswith("trace.")}
    metrics["trace.overhead_s"] = _median(runs, "solve_s") - _median(plain, "solve_s")
    metrics["trace.coverage"] = statistics.median(layers["trace.coverage"] for layers in traced)
    result["metrics"] = metrics
    return result


def _machine(sample_machine: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        **sample_machine,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _report(name: str, seed: int, result: dict, units: dict[str, str]) -> list[str]:
    fail_rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    lines = [f"# {name} seed={seed} iterations={result['iterations']} "
             f"processes={result['attempted']}"]
    for key, value in result["metrics"].items():
        low, high = result.get("spread", {}).get(key, (value, value))
        span = f"   (min {low:.4g}, max {high:.4g})" if low != high else ""
        lines.append(f"{key:40s} {value:14.6g} {units[key]}{span}")
    lines.append(f"{'fail_rate':40s} {fail_rate:14.6g} ratio "
                 f"({result['failed']} of {result['attempted']} processes)")
    lines += [f"FAILED {error}" for error in result["errors"]]
    return lines


def _result_line(results: dict[str, dict], units: dict[str, str], prefix: bool) -> str:
    metrics = {}
    for name, result in results.items():
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}" if prefix else key] = {"value": value, "unit": units[key]}
    failed = sum(r["failed"] for r in results.values())
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    })


def self_test(seed: int) -> list[str]:
    """Problems found in the harness at Q=9 and Q=25; empty when it is sound."""
    problems = []
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    expected = {"workloads": list(WORKLOADS), "end_to_end": END_TO_END, "per_layer": PER_LAYER}
    for key in declared:
        if declared[key] != expected[key]:
            problems.append(f"BENCHMARK.json {key} do not match run.py")

    reference = _reference()
    verify = ["verify", "--p", "3", "--e", "1", "--plane"]
    out = (HERE / "reference_sha256.json").read_bytes()
    bad_du = json.dumps({f: {"per_fixing": [[5, 0, 9]]} for f in "xyz"}).encode()
    controls = {
        "digest mismatch": check_output(verify, 0, out, reference),
        "nonzero exit": check_output(verify, 1, b"", reference),
        "wrong X-section delta": check_output(
            ["du", "--p", "3", "--e", "1", "--samples", "1"], 0, bad_du, reference),
    }
    problems += [f"gate accepted a {label}" for label, error in controls.items() if error is None]

    for name, make in SELF_TEST.items():
        commands = make(seed)
        for trace in (False, True):
            result = measure(commands, 0, trace, reference)
            print(f"# {name} trace={int(trace)}: {result['attempted']} processes, "
                  f"{result['failed']} failed", flush=True)
            wanted = PER_LAYER if trace else END_TO_END
            if result["errors"]:
                problems.append(f"{name} trace={int(trace)}: {result['errors']}")
            elif set(result["metrics"]) != set(wanted):
                problems.append(f"{name} trace={int(trace)}: metrics do not match BENCHMARK.json")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all of them, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness on Q=9 and Q=25 and exit")
    args = parser.parse_args()

    try:
        if not (PACKAGE / "cli.py").is_file():
            raise SetupError(f"no hughesptr source tree at {PACKAGE}")
        if args.self_test:
            problems = self_test(args.seed)
            print("\n".join(problems) if problems else "self-test passed")
            return 1 if problems else 0

        reference = _reference()
        units = PER_LAYER if args.trace else END_TO_END
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = {}
        for name in names:
            result = measure(WORKLOADS[name](args.seed), args.seconds, bool(args.trace), reference)
            results[name] = result
            if len(results) == 1:
                print("# machine " + json.dumps(_machine(result["machine"])))
            print("\n".join(_report(name, args.seed, result, units)), flush=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(_result_line(results, units, prefix=args.workload is None))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
