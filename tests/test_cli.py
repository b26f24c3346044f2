"""Command line front end: output shapes, exit codes, JSON contracts."""

import json
import subprocess
import sys
import time

import pytest

from edgeiso import compress, delta
from edgeiso.cli import (EXIT_CAPACITY, EXIT_CHECK_FAILED, EXIT_CLOSED_PIPE,
                         EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main)

PETERSEN_DELTA_TEXT = "delta: (0,1,1,1,2,1,2,2,2,3)"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ------------------------------------------------------------
# delta
# ------------------------------------------------------------

def test_delta_text(capsys):
    code, out, _ = run_cli(capsys, "delta", "petersen")
    assert code == EXIT_OK
    assert PETERSEN_DELTA_TEXT in out
    assert "segments: 6" in out
    assert "nested solutions: yes" in out


def test_delta_json_round_trip(capsys):
    code, payload, _ = run_json(capsys, "delta", "petersen", "--json")
    assert code == EXIT_OK
    assert payload["delta"] == [0, 1, 1, 1, 2, 1, 2, 2, 2, 3]
    assert payload["starts"] == [0, 1, 1, 1, 2, 2]
    assert payload["symmetric"] is True
    assert payload["regular"] is True
    assert payload["crosscheck_consistent"] is True
    assert json.loads(json.dumps(payload)) == payload


def test_delta_symmetry_is_checked_once(capsys, monkeypatch):
    # a wrong symmetry verdict is printed and fails the crosscheck, from
    # one and the same call
    calls = []
    real = delta.is_symmetric

    def inverted(d):
        calls.append(d)
        check = real(d)
        return check._replace(ok=not check.ok)

    monkeypatch.setattr(delta, "is_symmetric", inverted)
    code, payload, _ = run_json(capsys, "delta", "petersen", "--json")
    assert code == EXIT_CHECK_FAILED
    assert payload["symmetric"] is False
    assert payload["regular"] is True
    assert payload["crosscheck_consistent"] is False
    assert len(calls) == 1


def test_delta_without_ns_mentions_it(capsys):
    code, out, _ = run_cli(capsys, "delta", "union(cycle(4),complete(3))")
    assert code == EXIT_OK
    assert "nested solutions: no" in out
    assert "outside the nested-solution setting" in out


# ------------------------------------------------------------
# solve
# ------------------------------------------------------------

def test_solve_table(capsys):
    code, out, _ = run_cli(capsys, "solve", "petersen")
    assert code == EXIT_OK
    assert "induced" in out and "boundary" in out


def test_solve_csv(capsys):
    code, out, _ = run_cli(capsys, "solve", "complete(3)", "--csv")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "m,induced,boundary,witness"
    assert lines[1:] == ["0,0,0,0x0", "1,0,2,0x1", "2,1,2,0x3", "3,3,0,0x7"]


def test_solve_json(capsys):
    code, payload, _ = run_json(capsys, "solve", "complete(3)", "--json")
    assert code == EXIT_OK
    assert payload["induced"] == [0, 0, 1, 3]
    assert payload["boundary"] == [0, 2, 2, 0]
    assert payload["induced_witness"] == ["0x0", "0x1", "0x3", "0x7"]


# ------------------------------------------------------------
# ns / orders
# ------------------------------------------------------------

def test_ns_found(capsys):
    code, out, _ = run_cli(capsys, "ns", "petersen")
    assert code == EXIT_OK
    assert "nested solutions found" in out
    assert "every prefix optimal: True" in out


def test_ns_absent_is_a_finding_not_a_failure(capsys):
    code, out, _ = run_cli(capsys, "ns", "union(cycle(4),complete(3))")
    assert code == EXIT_OK
    assert "no nested solutions" in out
    assert "deepest optimal prefix: 3 of 7" in out


def test_ns_json(capsys):
    code, payload, _ = run_json(capsys, "ns", "path(3)", "--json")
    assert code == EXIT_OK
    assert payload["has_ns"] is True
    assert payload["order"] == [0, 1, 2]
    assert payload["verified"] is True


def test_orders(capsys):
    code, out, _ = run_cli(capsys, "orders", "path(3)")
    assert code == EXIT_OK
    assert "4 optimal orders" in out
    code, payload, _ = run_json(capsys, "orders", "path(3)", "--json")
    assert payload["total"] == 4
    assert payload["listed"] == [[0, 1, 2], [1, 0, 2], [1, 2, 0], [2, 1, 0]]


def test_orders_cap(capsys):
    code, payload, _ = run_json(capsys, "orders", "complete(4)", "--cap", "2", "--json")
    assert code == EXIT_OK
    assert payload["total"] == 24 and len(payload["listed"]) == 2


# ------------------------------------------------------------
# uniqueness / lex2 / power-check
# ------------------------------------------------------------

def test_uniqueness_dense(capsys):
    code, out, _ = run_cli(capsys, "uniqueness", "complete(3)")
    assert code == EXIT_OK
    assert "exactly lex and colex: True" in out


def test_uniqueness_exploratory(capsys):
    code, out, _ = run_cli(capsys, "uniqueness", "path(3)")
    assert code == EXIT_OK
    assert "not delta-dense" in out
    assert "exploratory" in out


def test_uniqueness_json(capsys):
    code, payload, _ = run_json(capsys, "uniqueness", "z(2)", "--json")
    assert code == EXIT_OK
    assert payload["delta_dense"] is True
    assert payload["total_chains"] == 2
    assert payload["exactly_lex_and_colex"] is True


@pytest.mark.parametrize("listed", ["0", "1"])
def test_uniqueness_verdict_ignores_chain_cap(capsys, listed):
    # the verdict classifies two chains however few are listed
    code, out, _ = run_cli(capsys, "uniqueness", "complete(3)", "--cap-chains", listed)
    assert code == EXIT_OK
    assert out == "complete(3) squared: 2 compressed optimal orders; exactly lex and colex: True\n"
    code, payload, _ = run_json(capsys, "uniqueness", "complete(3)", "--cap-chains", listed,
                                "--json")
    assert payload["exactly_lex_and_colex"] is True
    assert len(payload["classifications"]) == int(listed)


@pytest.mark.parametrize("limit", ["1", "2"])
def test_uniqueness_verdict_ignores_count_limit(capsys, limit):
    # the verdict counts past two however low the limit
    code, out, _ = run_cli(capsys, "uniqueness", "z(2)", "--count-limit", limit)
    assert code == EXIT_OK
    assert out == "Z(2) squared: 2 compressed optimal orders; exactly lex and colex: True\n"


def test_uniqueness_dense_inexact_count_is_a_bound(capsys, monkeypatch):
    # no small delta-dense graph has three chains, so the survey is stubbed
    def survey(g, cap, profile, count_limit):
        return compress.ChainSurvey((), count_limit, False, ("lex", "colex", "other")[:cap])

    monkeypatch.setattr(compress, "enumerate_compressed_optimal_orders", survey)
    code, out, _ = run_cli(capsys, "uniqueness", "complete(3)", "--count-limit", "5")
    assert code == EXIT_CHECK_FAILED
    assert out.startswith("complete(3) squared: >= 5 compressed optimal orders;")


@pytest.mark.parametrize("argv", [
    ("orders", "complete(4)", "--cap", "-1"),
    ("uniqueness", "z(2)", "--cap-chains", "-1"),
    ("uniqueness", "z(2)", "--count-limit", "0"),
    ("casebook", "--max-seconds", "-1"),
])
def test_nonsense_counts_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and f"argument {argv[-2]}: must be at least" in err


def test_lex2_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "lex2", "complete(4)")
    assert code == EXIT_OK
    assert "optimal at all sizes" in out
    code, out, _ = run_cli(capsys, "lex2", "path(3)")
    assert code == EXIT_CHECK_FAILED
    assert "first failure: size 4" in out
    assert "witness heights 2,2,0" in out


def test_lex2_requires_ns(capsys):
    code, _, err = run_cli(capsys, "lex2", "union(cycle(4),complete(3))")
    assert code == EXIT_USAGE
    assert "no nested solutions" in err


def test_power_check(capsys):
    code, out, _ = run_cli(capsys, "power-check", "complete(2)", "--d", "3")
    assert code == EXIT_OK
    assert "ok" in out
    code, out, _ = run_cli(capsys, "power-check", "path(3)", "--d", "2")
    assert code == EXIT_CHECK_FAILED
    assert "first failure: size 4" in out


def test_power_check_compressed(capsys):
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "power-check", "complete(3)", "--d", "6",
                           "--mode", "compressed")
    assert code == EXIT_OK and time.perf_counter() - started < 1
    assert "complete(3)^6" in out and out.rstrip().endswith("ok")
    code, out, _ = run_cli(capsys, "power-check", "petersen", "--d", "3",
                           "--mode", "compressed")
    assert code == EXIT_CHECK_FAILED
    assert "lex prefixes of petersen^2" in out
    assert "first failure: size 4, 3 vs 4" in out
    code, payload, _ = run_json(capsys, "power-check", "path(3)", "--d", "2",
                                "--mode", "compressed", "--json")
    assert code == EXIT_CHECK_FAILED
    assert payload["evidence_only"] is False
    assert payload["rows"][3]["witness"] == "2,2,0"


def test_power_check_guards(capsys):
    assert run_cli(capsys, "power-check", "complete(2)", "--d", "0",
                   "--mode", "compressed")[0] == EXIT_USAGE
    for d in ("13", "40"):
        assert run_cli(capsys, "power-check", "complete(2)", "--d", d,
                       "--mode", "compressed")[0] == EXIT_CAPACITY
    code, _, err = run_cli(capsys, "power-check", "complete(2)", "--d", "3",
                           "--mode", "sampled")
    assert code == EXIT_USAGE and "compressed" in err
    assert run_cli(capsys, "power-check", "complete(2)", "--d", "3",
                   "--samples", "4")[0] == EXIT_USAGE


# ------------------------------------------------------------
# casebook
# ------------------------------------------------------------

def test_casebook_list(capsys):
    code, out, _ = run_cli(capsys, "casebook", "--list")
    assert code == EXIT_OK
    lines = [line for line in out.strip().split("\n") if line]
    assert len(lines) == 17
    assert lines[0].startswith("delta-complete")


def test_casebook_single_claim(capsys):
    code, out, _ = run_cli(capsys, "casebook", "--claim", "delta-petersen")
    assert code == EXIT_OK
    assert "delta-petersen" in out
    assert "1 claims: 1 pass" in out


def test_casebook_unknown_claim(capsys):
    code, _, err = run_cli(capsys, "casebook", "--claim", "delta-petersen",
                           "--claim", "bogus")
    assert code == EXIT_USAGE
    assert "bogus" in err


def test_casebook_budget_skip(capsys):
    code, payload, _ = run_json(capsys, "casebook", "--max-seconds", "0", "--json")
    assert code == EXIT_OK  # skipped is not failed
    assert all(r["status"] == "skipped" for r in payload["results"])


def test_casebook_json(capsys):
    code, payload, _ = run_json(capsys, "casebook", "--claim", "z-construction",
                                "--json")
    assert code == EXIT_OK
    row = payload["results"][0]
    assert row["id"] == "z-construction"
    assert row["status"] == "pass"
    assert row["artifacts"]["matching_reading"] == "join_twice"


def test_casebook_failure_exit_code(capsys, monkeypatch):
    import edgeiso.graphs
    monkeypatch.setattr(edgeiso.graphs, "graph_z",
                        lambda k: edgeiso.graphs.complete(17))
    code, out, _ = run_cli(capsys, "casebook", "--claim", "z2-counterexample")
    assert code == EXIT_CHECK_FAILED
    assert "failed_step" in out


def test_casebook_error_exit_code(capsys, monkeypatch):
    import edgeiso.casebook

    def broken():
        raise KeyError("missing artifact")

    claim = edgeiso.casebook.Claim("broken", "a pipeline that raises", broken)
    monkeypatch.setattr(edgeiso.casebook, "CLAIMS", edgeiso.casebook.CLAIMS + (claim,))
    code, out, _ = run_cli(capsys, "casebook", "--claim", "broken",
                           "--claim", "delta-petersen")
    assert code == EXIT_INTERNAL
    assert "[        error] broken" in out
    assert "KeyError: 'missing artifact'" in out
    assert "2 claims: 1 pass, 0 skipped, 0 fail, 1 error" in out


# ------------------------------------------------------------
# errors and exit codes
# ------------------------------------------------------------

def test_usage_errors(capsys):
    assert run_cli(capsys, "delta", "frob(3)")[0] == EXIT_USAGE
    assert run_cli(capsys, "delta", "complete(2,3)")[0] == EXIT_USAGE
    assert run_cli(capsys)[0] == EXIT_USAGE
    assert run_cli(capsys, "no-such-command")[0] == EXIT_USAGE
    assert run_cli(capsys, "power-check", "complete(2)")[0] == EXIT_USAGE


def test_too_deep_expression_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "power(" * 5000 + "x" + ",1)" * 5000)
    assert code == EXIT_USAGE
    assert err.startswith("error:")
    assert "internal error" not in err


def forbid_scans(monkeypatch):
    import edgeiso.solver

    def forbidden(g, **kwargs):
        raise AssertionError("scan started")

    for name in ("_scan_gray", "_scan_blocks"):
        monkeypatch.setattr(edgeiso.solver, name, forbidden)


def test_capacity_exit_code(capsys, monkeypatch):
    forbid_scans(monkeypatch)
    code, _, err = run_cli(capsys, "delta", "empty(33)")
    assert code == EXIT_CAPACITY
    assert "33" in err


def test_scan_ceiling_exit_code(capsys, monkeypatch):
    forbid_scans(monkeypatch)
    code, _, err = run_cli(capsys, "solve", "empty(33)")
    assert code == EXIT_CAPACITY
    assert "32-vertex ceiling" in err
    # no flag moves the ceiling; orders --cap is a listing count
    for command in ("delta", "solve", "ns", "uniqueness"):
        assert run_cli(capsys, command, "complete(3)", "--cap", "30")[0] == EXIT_USAGE
    code, out, _ = run_cli(capsys, "solve", "--help")
    assert code == EXIT_OK and "--csv" in out and "--cap" not in out


def test_internal_error_exit_code(capsys, monkeypatch):
    import edgeiso.solver

    def corrupt(*args, **kwargs):
        raise RuntimeError("inconsistent profile for petersen; solver bug")

    monkeypatch.setattr(edgeiso.solver, "iso_profile", corrupt)
    code, _, err = run_cli(capsys, "solve", "petersen")
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: inconsistent profile")


def test_miscounted_witness_exit_code(capsys, monkeypatch):
    import edgeiso.solver
    real = edgeiso.solver._scan_gray

    def miscounting(g, **kwargs):
        induced, boundary, wit_i, wit_t = real(g, **kwargs)
        wit_i = list(wit_i)
        wit_i[2] = 0b101  # path(3): right size, but no edge inside
        return induced, boundary, wit_i, wit_t

    monkeypatch.setattr(edgeiso.solver, "_scan_gray", miscounting)
    code, _, err = run_cli(capsys, "solve", "path(3)")
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: inconsistent profile")


def test_help_exits_ok(capsys):
    assert run_cli(capsys, "--help")[0] == EXIT_OK


def test_file_input(tmp_path, capsys):
    target = tmp_path / "triangle.txt"
    target.write_text("n 3\n0 1\n1 2\n0 2\n")
    code, out, _ = run_cli(capsys, "delta", str(target))
    assert code == EXIT_OK
    assert "delta: (0,1,2)" in out
    assert "triangle.txt" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "edgeiso.cli", "delta", "complete(4)"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "delta: (0,1,2,3)" in proc.stdout


def test_closed_stdout_exits_quietly():
    # 40320 listed orders, about 645 KB: more than a pipe holds, so the
    # process is still writing when the reader closes after one line.
    with subprocess.Popen(
            [sys.executable, "-m", "edgeiso.cli", "orders", "complete(8)", "--cap", "40320"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.startswith("complete(8): 40320 optimal orders")
    assert (code, err) == (EXIT_CLOSED_PIPE, "")
