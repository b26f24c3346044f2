"""The benchmark's own checks: traced counters reconcile with the work.

    python3 -m pytest perfbench/test_reconcile.py

Each test runs one traced pass of a workload (about 10 s in all) and
checks that the wrappers saw every call, including calls through names
bound by ``from .solver import ...``, and that self times add up.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import workloads  # noqa: E402


def traced_pass(name: str, seed: int = 7):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed, workloads.load_reference())
    tracer = layers.traced()
    with tracer:
        result = workload.run_pass(inputs)
    assert result.failed == 0
    return tracer, inputs, result


def test_wrappers_reach_from_imports_and_are_removed():
    from edgeiso import compress, delta, graphs, solver
    original = solver.has_ns
    tracer = layers.traced()
    with tracer:
        assert delta.has_ns is not original
        delta.nested_solution_form(graphs.petersen())
    assert tracer.calls["solver.has_ns"] == 1
    assert tracer.calls["solver.iso_profile"] == 1
    assert delta.has_ns is original and solver.has_ns is original
    assert compress.iso_profile is solver.iso_profile
    assert not hasattr(solver.iso_profile, "__wrapped__")
    assert "__wrapped__" not in vars(compress.DiagramOptimizer.__init__)


def test_scan_cube27_scans_two_to_the_27():
    tracer, _, _ = traced_pass("scan-cube27")
    # The base graph complete(3) is profiled once too, for its nested-solution order.
    assert tracer.counters["solver.subsets_scanned"] == (1 << 27) + (1 << 3)
    assert tracer.calls["solver.iso_profile"] == 2
    assert tracer.calls["compress.power_lex_check"] == 1


def test_casebook_runs_fifteen_claims():
    tracer, inputs, result = traced_pass("casebook")
    frozen = workloads.load_reference()["casebook"]
    assert sorted(result.claim_elapsed) == sorted(frozen["claims"])
    assert len(result.claim_elapsed) == 15
    assert tracer.calls["solver.iso_profile"] == frozen["iso_profile_calls_per_pass"]
    assert tracer.counters["solver.subsets_scanned"] == inputs["subsets"]
    # Every span nests under cli.main, so self times add up to its total.
    assert math.isclose(sum(tracer.self_s.values()), tracer.total_s["cli.main"], rel_tol=1e-9)


def test_square_survey_profiles_each_graph_once():
    tracer, inputs, _ = traced_pass("square-survey")
    cases = inputs["cases"]
    assert tracer.calls["solver.iso_profile"] == len(cases)
    assert tracer.counters["solver.subsets_scanned"] == inputs["subsets"]
    with_ns = sum(1 for _, _, record in cases if record["ns_order"] is not None)
    assert tracer.calls["compress.chains"] == with_ns
    assert tracer.calls["compress.verify_lex_square"] == with_ns
    assert all(value >= -1e-9 for value in tracer.self_s.values())
