import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hughesptr import build_reduced_T, build_T2, du_sections, field_ctx
from hughesptr import cli, gf_tower, hughes_core, trivar_poly
from hughesptr.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference_sha256.json"
DIGESTS = json.loads(REFERENCE.read_text())


def _digested(subcommand):
    return sorted(cmd for cmd in DIGESTS if cmd.split()[0] == subcommand)


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_gen_reduced_smallest(capsys):
    code, out = run_cli(capsys, ["gen", "--p", "3", "--e", "1", "--form", "reduced"])
    assert code == 0
    data = json.loads(out)
    assert data == build_reduced_T(field_ctx(3, 1)).to_json_dict()


def test_gen_t2_and_text(capsys):
    code, out = run_cli(capsys, ["gen", "--p", "3", "--e", "1", "--form", "t2"])
    assert code == 0
    assert json.loads(out) == build_T2(field_ctx(3, 1)).to_json_dict()
    code, out = run_cli(capsys, ["gen", "--p", "3", "--e", "1", "--format", "text"])
    assert code == 0
    assert "M(X,Y)" in out


@pytest.mark.parametrize("cmd", _digested("gen"))
def test_gen_matches_reference_digest(capsys, cmd):
    code, out = run_cli(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[cmd]


@pytest.mark.parametrize("cmd", _digested("identities"))
def test_identities_match_reference_digest(capsys, cmd):
    # the checked counts of the batched sweeps, byte for byte
    code, out = run_cli(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[cmd]


@pytest.mark.parametrize("cmd", _digested("verify"))
def test_verify_matches_reference_digest(capsys, cmd):
    code, out = run_cli(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[cmd]


# SHA-256 of outputs outside the benchmark's reference digests: the text
# rendering of each form, the plane report and du's JSON (the last is the
# du-q2401 benchmark command), so that any byte a change of render_text, of
# the plane command or of du's rows moves shows here
PINNED = {
    "gen --p 3 --e 1 --form reduced --format text": "264eaeb78296bc6f444cf659f68295af0e3c86263a76b7ecccc663e0a7db2e89",
    "gen --p 3 --e 2 --form reduced --format text": "88b114e60298428e902dc5240239afe54cf51d12be393e03e0756dd2f5572cde",
    "gen --p 3 --e 1 --form nonreduced --format text": "44da3a262f82ff49007aca844285ac427273d6423019e564827667dbb6bd6d26",
    "gen --p 3 --e 2 --form nonreduced --format text": "12d4a213eb89eee4580286b77662eefe5fbf52e1acebe70119594be9a4f631e6",
    "gen --p 3 --e 1 --form t2 --format text": "d93a2e14f781aa20192ab1dbbae1786eccf470c1e8dfe4a71837e46328f481b1",
    "gen --p 3 --e 2 --form t2 --format text": "9695f522466447b55cad7cac3c5374c2433777993bece8366fff04de4e5a59e4",
    "plane --p 3 --e 1": "bf6899c83c238ad47f32582aa795f64f22dc4b085eafd8ae342e7c39feca0339",
    "plane --p 5 --e 1": "65e186ca54decdf93f42d1fd125940baeade3db0c9101818ab786cc759fed00b",
    "du --p 3 --e 1": "eba3bcacdffb86237c23dabe0defbaea0cfd33c8acaa097fb278c90d504dc135",
    "du --p 5 --e 1 --exhaustive": "386c115e7f0776b776f756fe647e34e854f1a892b905c48fb7c7e8830901c987",
    "du --p 3 --e 2 --exhaustive": "1481d038587958a40b61723c297b2199adf3d425eaba62f77d47738898bb4df0",
    "du --p 7 --e 2 --samples 8 --seed 1": "0d7a7d40b475772855d6351b597986232d58306ea0b4afa84bfdf50240b02264",
}


@pytest.mark.parametrize("cmd", sorted(PINNED))
def test_text_and_plane_match_pinned_digest(capsys, cmd):
    code, out = run_cli(capsys, cmd.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[cmd]


def test_every_reference_digest_is_checked():
    assert sorted(DIGESTS) == sorted(_digested("gen") + _digested("identities") + _digested("verify"))


def test_gen_out_file_equals_stdout(tmp_path, capsys):
    argv = ["gen", "--p", "5", "--e", "2", "--form", "nonreduced"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out.count('"c": ') > 20 * cli._JSON_CHUNK  # many chunks
    target = tmp_path / "T.json"
    assert main([*argv, "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize("form", ["reduced", "nonreduced", "t2"])
def test_gen_json_builds_no_field_element_or_tripoly(capsys, monkeypatch, form):
    field_ctx(5, 1)  # cached, so the CLI builds no context either

    def refuse(self, *args):
        raise AssertionError(f"gen built a {type(self).__name__}")

    monkeypatch.setattr(gf_tower.FieldElement, "__init__", refuse)
    monkeypatch.setattr(trivar_poly.TriPoly, "__init__", refuse)
    code, out = run_cli(capsys, ["gen", "--p", "5", "--e", "1", "--form", form])
    assert code == 0 and json.loads(out)["terms"]


def test_gen_rejects_composite_p(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--p", "4", "--e", "1"])
    assert exc.value.code == 2
    assert "odd prime" in capsys.readouterr().err


def test_rejects_field_over_ceiling(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--p", "3", "--e", "5"])
    assert exc.value.code == 2


def test_large_field_warning_with_override(capsys):
    # text rendering stays cheap even above the default order bound
    code = main(["gen", "--p", "3", "--e", "5", "--max-order", "100000", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert "M(X,Y)" in captured.out


def test_verify_passes(capsys):
    code, out = run_cli(capsys, ["verify", "--p", "3", "--e", "1"])
    assert code == 0
    report = json.loads(out)
    for label in ["A", "B", "C", "D", "E", "x_sections", "y_sections", "z_sections"]:
        assert report[label]["pass"]
    assert report["polynomial_matches_piecewise"]["pass"]


def test_verify_with_plane(capsys):
    code, out = run_cli(capsys, ["verify", "--p", "3", "--e", "1", "--plane"])
    assert code == 0
    assert json.loads(out)["projective_plane"]["pass"]


def test_verify_reports_the_grid_witness(capsys, monkeypatch):
    # the last g block dropped: the Q*q check fails at the first grid mismatch
    from hughesptr import hughes_core

    full = hughes_core.reduced_blocks
    monkeypatch.setattr(hughes_core, "reduced_blocks", lambda ctx: full(ctx)[:-1])
    code, out = run_cli(capsys, ["verify", "--p", "3", "--e", "1"])
    assert code == 1
    report = json.loads(out)
    assert report["polynomial_matches_piecewise"] == {"pass": False, "witness": [3, 3, 3]}
    assert all(report[label]["pass"] for label in ["A", "B", "C", "D", "E", "z_sections"])


def test_verify_reports_the_z_sections_from_axiom_d(capsys, monkeypatch):
    # a repeated value in the z-section (2, 5): it fails (D), with that witness
    from hughesptr import hughes_core

    full = hughes_core.ptr_table

    def broken(ctx):
        table = full(ctx)
        table[2, 5, 1] = table[2, 5, 0]
        return table

    monkeypatch.setattr(hughes_core, "ptr_table", broken)
    code, out = run_cli(capsys, ["verify", "--p", "3", "--e", "1"])
    assert code == 1
    report = json.loads(out)
    assert report["z_sections"] == report["D"] == {"pass": False, "witness": [2, 5]}


def test_verify_sorts_the_sections_when_axiom_e_fails(capsys, monkeypatch):
    # the z-rows (2, 3) and (2, 5) swapped: (A) and (D) hold, (E) fails, so
    # the x- and y-sections are not implied and come from the full sort
    from hughesptr import hughes_core, ptr_verify

    full = hughes_core.ptr_table
    tables = []

    def broken(ctx):
        table = full(ctx)
        table[2, [3, 5]] = table[2, [5, 3]]
        tables.append(table.copy())
        return table

    monkeypatch.setattr(hughes_core, "ptr_table", broken)
    code, out = run_cli(capsys, ["verify", "--p", "3", "--e", "1"])
    assert code == 1
    report = json.loads(out)
    assert report["A"]["pass"] and report["D"]["pass"] and not report["E"]["pass"]
    want = ptr_verify.check_pp_classes(tables[0])
    assert [report["x_sections"], report["y_sections"]] == [r.to_json_dict() for r in want]


@pytest.mark.parametrize("p,e", [(3, 2), (13, 1)])
def test_verify_plane_reads_the_plane_off_the_axioms(capsys, monkeypatch, p, e):
    # (D) and (E) hold on the Hughes table, so no line array is built or checked
    from hughesptr import ptr_verify

    def refuse(*args):
        raise AssertionError("verify --plane built or checked the line array")

    monkeypatch.setattr(ptr_verify, "build_plane", refuse)
    monkeypatch.setattr(ptr_verify, "check_plane", refuse)
    code, out = run_cli(capsys, ["verify", "--p", str(p), "--e", str(e), "--plane"])
    assert code == 0 and json.loads(out)["projective_plane"] == {"pass": True}


def _row_swap(table):  # hughes_row_swap of the C_CASES: keeps (D), fails (E)
    table[2, 3, [0, 1]] = table[2, 3, [1, 0]]


def _pair_swap(table):  # one permutation of the (y, z) pairs at every x: keeps (E), fails (D)
    table[:, [0, 1], 0] = table[:, [1, 0], 0]


@pytest.mark.parametrize("mutate", [_row_swap, _pair_swap])
def test_verify_plane_checks_the_line_array_when_an_axiom_fails(capsys, monkeypatch, mutate):
    from hughesptr import ptr_verify

    full = hughes_core.ptr_table
    tables = []

    def broken(ctx):
        table = full(ctx)
        mutate(table)
        tables.append(table.copy())
        return table

    monkeypatch.setattr(hughes_core, "ptr_table", broken)
    code, out = run_cli(capsys, ["verify", "--p", "3", "--e", "1", "--plane"])
    assert code == 1
    want = ptr_verify.check_plane(ptr_verify.build_plane(tables[0].swapaxes(0, 1)))
    assert not want.passed and json.loads(out)["projective_plane"] == want.to_json_dict()


def test_verify_does_not_tabulate_the_polynomial(capsys, monkeypatch):
    from hughesptr import trivar_poly

    def refuse(poly):
        raise AssertionError("verify evaluated the polynomial on the Q^3 grid")

    monkeypatch.setattr(trivar_poly, "evaluate_grid", refuse)
    assert not hasattr(cli, "evaluate_grid")
    code, _ = run_cli(capsys, ["verify", "--p", "3", "--e", "1"])
    assert code == 0


def test_plane_subcommand(capsys):
    code, out = run_cli(capsys, ["plane", "--p", "3", "--e", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["points"] == data["lines"] == 91
    assert data["points_per_line"] == 10


def test_plane_builds_no_value_table(capsys, monkeypatch):
    # the plane comes from the oracle's y-slabs, one at a time
    from hughesptr import hughes_core

    def refuse(ctx):
        raise AssertionError("plane tabulated the Q^3 grid")

    monkeypatch.setattr(hughes_core, "ptr_table", refuse)
    code, out = run_cli(capsys, ["plane", "--p", "5", "--e", "1"])
    assert code == 0 and json.loads(out)["projective_plane"] == {"pass": True}


def test_du_deterministic(capsys):
    args = ["du", "--p", "3", "--e", "1", "--exhaustive"]
    code1, out1 = run_cli(capsys, args)
    code2, out2 = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_du_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["du", "--p", "3", "--e", "1", "--workers", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in err and "Traceback" not in err


def test_du_sampled(capsys):
    code, out = run_cli(capsys, ["du", "--p", "7", "--e", "1", "--samples", "20"])
    assert code == 0
    data = json.loads(out)
    assert len(data["x"]["per_fixing"]) == 20
    assert data["x"]["aggregate"]["pass"]


def test_du_single_section(capsys):
    code, out = run_cli(capsys, ["du", "--p", "3", "--e", "1", "--section", "y", "--exhaustive"])
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"y"}
    assert data["y"]["aggregate"]["max_delta"] == 9


def test_du_failure_names_the_first_failing_fixing(capsys, monkeypatch):
    # every section measured at Q: the X-sections with y outside GF(q) fail,
    # and the first of them in scan order, (q, 0), is the witness
    from hughesptr import du_analysis

    monkeypatch.setattr(du_analysis, "_section_delta",
                        lambda t, rows, centers=None: np.full(len(rows), rows.shape[1], dtype=np.int64))
    code, out = run_cli(capsys, ["du", "--p", "3", "--e", "1", "--section", "x", "--exhaustive"])
    assert code == 1
    assert json.loads(out)["x"]["aggregate"] == {"max_delta": 9, "min_delta": 9, "pass": False,
                                                 "witness": [3, 0]}


def _plain(value):
    """The payload with each Rows leaf as the list of its rows: json.dumps' input."""
    if isinstance(value, cli.Rows):
        rows = zip(*(np.asarray(col).tolist() for col in value.columns))
        return [dict(zip(value.keys, row)) if value.keys else list(row) for row in rows]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _du_exhaustive(p, e):
    payload = cli._du_payload(du_sections(field_ctx(p, e)))
    assert len(payload["x"]["per_fixing"].columns[0]) == (p ** (2 * e)) ** 2
    return payload


def _cli_payload(argv):
    """A plain-dict payload of a subcommand, read back from its output."""
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())) as stdout:
        assert main(argv) == 0
        return json.loads(stdout.buffer.getvalue())


def _gen_case(p, e, form):
    ctx = field_ctx(p, e)
    blocks = hughes_core.expand_blocks(ctx, cli._FORM_BLOCKS[form](ctx))
    return cli._gen_payload(p, e, hughes_core.emit_arrays(ctx, blocks))


# payload factories, called in the test: every payload shape the CLI makes,
# and Rows leaves at other depths and widths
WRITE_JSON_CASES = {
    "du-q9": lambda: _du_exhaustive(3, 1),
    "du-q25": lambda: _du_exhaustive(5, 1),
    "du-q81": lambda: _du_exhaustive(3, 2),
    "du-empty-per-fixing": lambda: {
        "x": {"per_fixing": cli.Rows((np.zeros(0, np.int64),) * 3),
              "aggregate": {"max_delta": 7, "min_delta": 7, "pass": True}},
        "y": {"per_fixing": cli.Rows(([0], [1], [9])),
              "aggregate": {"max_delta": 9, "min_delta": 9, "pass": False}},
    },
    "gen-q9-nonreduced": lambda: _gen_case(3, 1, "nonreduced"),
    "verify-plane-q9": lambda: _cli_payload(["verify", "--p", "3", "--e", "1", "--plane"]),
    "plane-q9": lambda: _cli_payload(["plane", "--p", "3", "--e", "1"]),
    "identities-q9": lambda: _cli_payload(["identities", "--p", "3", "--e", "1"]),
    "rows-at-depth-0": lambda: cli.Rows(([3, 0], [10, 2])),
    "rows-at-depth-1": lambda: {"rows": cli.Rows(([0, 1, 2],), ("only",)), "z": None},
    "rows-at-depth-3": lambda: {"a": [{"b": cli.Rows(([4, 5], [60, 7]), ("k", "v"))}, "s"], "c": 1.5},
    "widths-1-and-5": lambda: {"r": cli.Rows((np.array([0, 7, 3], np.int32), np.array([12345, 0, 99999])))},
    "two-leaves-of-one-width": lambda: {  # inserted out of the key order that the output follows
        "c": [cli.Rows(([], [])), cli.Rows(([1],))],
        "b": cli.Rows((np.array([0, 57], np.uint16), [3, 40]), ("k", "v")),
        "a": cli.Rows(([10, 99],)),
    },
}


@pytest.mark.parametrize("case", sorted(WRITE_JSON_CASES))
def test_write_json_matches_json_dumps(case):
    payload = WRITE_JSON_CASES[case]()
    out = io.BytesIO()
    cli.write_json(payload, out)
    assert out.getvalue() == (json.dumps(_plain(payload), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("payload", [
    # a negative value in the second leaf: the first is not written either
    {"x": {"per_fixing": cli.Rows(([0, 1], [2, 3], [9, 9]))},
     "y": {"per_fixing": cli.Rows(([0, 1], [2, 3], [9, -9]))}},
    {"r": cli.Rows(([0.5, 1.0],))},
    {"r": cli.Rows(([0, 1], [2]))},
    {"r": cli.Rows(([0], [1]), ("b", "a"))},
    {"r": cli.Rows(([0], [1]), ("a",))},
    {"r": cli.Rows(([0], [1]), ("a", "a"))},
    {"r": cli.Rows(())},
    {"r": cli.Rows(([0],)), "s": cli._ROWS_MARK},
], ids=["negative", "float", "ragged", "unsorted-keys", "key-count", "repeated-key", "no-columns",
        "mark-in-a-string"])
def test_write_json_rejects_a_bad_payload_before_writing(payload):
    out = io.BytesIO()
    with pytest.raises(ValueError):
        cli.write_json(payload, out)
    assert out.getvalue() == b""


def test_identities_subcommand(capsys):
    code, out = run_cli(capsys, ["identities", "--p", "3", "--e", "1", "--max-n", "60"])
    assert code == 0
    report = json.loads(out)
    assert set(report) == {
        "lucas",
        "central_binom_split",
        "doubled_binom",
        "catalan_binom",
        "gen_catalan_diff",
        "catalan_block",
        "catalan_zero",
    }
    assert all(v["pass"] for v in report.values())


def test_out_file(tmp_path, capsys):
    target = tmp_path / "poly.json"
    code = main(["gen", "--p", "3", "--e", "1", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == build_reduced_T(field_ctx(3, 1)).to_json_dict()


@pytest.mark.parametrize("argv", [
    ["du", "--p", "3", "--e", "1", "--samples", "0"],
    ["du", "--p", "3", "--e", "1", "--samples", "-3"],
    ["identities", "--p", "3", "--e", "1", "--max-n", "0"],
    ["identities", "--p", "3", "--e", "1", "--max-n", "-1"],
    ["du", "--p", "5", "--e", "1", "--seed", "-1"],
])
def test_rejects_out_of_range_integer_flags(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err and "Traceback" not in err


def test_unwritable_out_rejected_before_computing(tmp_path, capsys, monkeypatch):
    def never(ctx, args, out):
        raise AssertionError("the subcommand ran before --out was opened")

    monkeypatch.setitem(cli._COMMANDS, "du", never)
    with pytest.raises(SystemExit) as exc:
        main(["du", "--p", "3", "--e", "1", "--out", str(tmp_path / "missing" / "x.json")])
    assert exc.value.code == 2
    assert "cannot write --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["plane", "--p", "23", "--e", "1"],
    ["verify", "--p", "23", "--e", "1", "--plane"],
])
def test_plane_order_cap(capsys, argv):
    # Q = 529: plane and verify --plane share the full-grid cap, and each
    # names the array it holds
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Q <= 400" in err and "Traceback" not in err
    held = "the Q^3 value table" if argv[0] == "verify" else "the (Q^2+Q+1) x (Q+1) line array"
    assert f"{argv[0]} holds {held}" in err


def _stub_command(monkeypatch, name):
    ran = []

    def stub(ctx, args, out):
        ran.append(ctx.Q)
        return 0

    monkeypatch.setitem(cli._COMMANDS, name, stub)
    return ran


def test_verify_without_plane_keeps_grid_cap(capsys, monkeypatch):
    ran = _stub_command(monkeypatch, "verify")
    assert main(["verify", "--p", "17", "--e", "1"]) == 0
    assert ran == [289]


@pytest.mark.parametrize("argv", [
    ["plane", "--p", "17", "--e", "1"],
    ["verify", "--p", "17", "--e", "1", "--plane"],
])
def test_plane_admitted_up_to_grid_cap(capsys, monkeypatch, argv):
    ran = _stub_command(monkeypatch, argv[0])
    assert main(argv) == 0
    assert ran == [289]


@pytest.mark.parametrize("argv", [
    ["gen", "--p", "3", "--e", "30000000"],
    ["gen", "--p", "1000000000000000003", "--e", "1"],
])
def test_huge_field_arguments_exit_2_at_once(argv):
    # neither p^(2e) nor a primality test of p may be computed in full
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "hughesptr.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert time.monotonic() - start < 5
    assert proc.returncode == 2
    assert "exceeds the configured bound" in proc.stderr and "Traceback" not in proc.stderr


def test_closed_pipe_exits_141_without_traceback():
    # the reader goes away after 10 bytes, as `gen ... | head -c 10` does
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "hughesptr.cli", "gen", "--p", "5", "--e", "2",
                             "--form", "nonreduced"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert head == b'{\n  "e": 2'
    assert code == cli.EXIT_CLOSED_PIPE == 141
    assert "Traceback" not in err and "Error" not in err


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(ctx, args, out):
        raise RuntimeError("kernel fault")

    monkeypatch.setitem(cli._COMMANDS, "verify", broken)
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--p", "3", "--e", "1"])
    assert exc.value.code == 3
    captured = capsys.readouterr()
    assert "Traceback" in captured.err and "RuntimeError: kernel fault" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,code", [
    (["gen", "--p", "3", "--e", "1"], 0),
    (["gen", "--p", "4", "--e", "1"], 2),
])
def test_run_keeps_success_and_usage_codes(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    assert exc.value.code == code
    assert "Traceback" not in capsys.readouterr().err


def test_run_passes_verification_failure_through(capsys, monkeypatch):
    def failing(ctx, args, out):
        out.write(b"{}\n")
        return 1

    monkeypatch.setitem(cli._COMMANDS, "verify", failing)
    with pytest.raises(SystemExit) as exc:
        cli.run(["verify", "--p", "3", "--e", "1"])
    assert exc.value.code == 1
    assert capsys.readouterr().out == "{}\n"


def _value(valid, junk=("", "x", "-1", "0", "1.5")):
    # one draw in four is junk
    return st.integers(0, 3).flatmap(lambda k: valid if k else st.sampled_from(junk))


# every valid field has Q <= 81; junk p and e are never a usable field
_FIELD = _value(st.sampled_from([("3", "1"), ("5", "1"), ("7", "1"), ("3", "2")]),
                [("4", "1"), ("2", "1"), ("9", "2"), ("-3", "1"), ("x", "1"), ("3", "0"),
                 ("3", "-1"), ("5", "1.5"), ("", "")])
_OPTIONS = {
    "--max-order": _value(st.sampled_from(["81", "6561", "10"])),
    "--samples": _value(st.integers(1, 20).map(str)),
    "--seed": _value(st.integers(0, 10).map(str)),
    "--max-n": _value(st.integers(1, 100).map(str)),
    "--form": _value(st.sampled_from(["reduced", "nonreduced", "t2"])),
    "--section": _value(st.sampled_from(["x", "y", "z"])),
}
_OWN = {
    "gen": ["--max-order", "--form"],
    "verify": ["--max-order", "--plane"],
    "du": ["--max-order", "--samples", "--seed", "--section", "--exhaustive"],
    "plane": ["--max-order"],
    "identities": ["--max-order", "--max-n"],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OWN)))
    p, e = draw(_FIELD)
    argv = [command]
    if draw(st.integers(0, 9)):  # now and then a required flag is missing
        argv += ["--p", p, "--e", e]
    names = draw(st.lists(st.sampled_from(_OWN[command]), unique=True, max_size=4))
    if draw(st.integers(0, 5)) == 0:  # a flag of another subcommand
        names.append(draw(st.sampled_from(sorted(_OPTIONS) + ["--plane", "--exhaustive"])))
    if "--exhaustive" in names and (p, e) == ("3", "2"):
        names.remove("--exhaustive")  # seconds per exhaustive sweep at Q=81
    for name in names:
        argv += [name] if name in ("--plane", "--exhaustive") else [name, draw(_OPTIONS[name])]
    return argv


def test_fuzzed_argv_exits_0_1_or_2_without_traceback():
    @settings(max_examples=60, deadline=None)
    @given(_argv())
    def check(argv):
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()  # the CLI writes to out.buffer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert exc.value.code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
