"""The claim catalog: integrity, the runner, and fault injection.

The fault-injection tests patch library functions to return corrupted
results and assert that the recorded pipelines actually notice.  A
casebook that cannot fail is not evidence of anything.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeiso.casebook
import edgeiso.compress
import edgeiso.delta
import edgeiso.graphs
from edgeiso.casebook import (CLAIMS, Z2_REFERENCE_DELTA, CasebookResult,
                              Claim, run_casebook)
from edgeiso.delta import SymmetryCheck
from edgeiso.errors import InputError
from edgeiso.graphs import Graph, graph_y, join

ALL_IDS = [
    "delta-complete", "delta-trees", "delta-petersen", "segment-structure",
    "dense-classification", "regular-identity", "ns-gap-bound",
    "diagram-weight-formula", "compressed-dp-exact", "uniqueness-complete",
    "uniqueness-z2", "z2-counterexample", "z-construction",
    "symmetry-regularity", "power-lex-spot", "power-lex-cube27",
    "power-lex-local-global",
]
SEEDED_IDS = ["regular-identity", "diagram-weight-formula"]


def test_claim_catalog_integrity():
    ids = [claim.id for claim in CLAIMS]
    assert ids == ALL_IDS
    assert len(set(ids)) == len(CLAIMS)
    for claim in CLAIMS:
        assert claim.statement.strip()
        assert callable(claim.run)


def test_reference_delta_shape():
    assert len(Z2_REFERENCE_DELTA) == 17
    assert sum(Z2_REFERENCE_DELTA) == 111


def test_result_to_dict():
    result = CasebookResult("probe", "statement", "pass", {"k": 1}, 0.12345)
    assert result.to_dict() == {
        "id": "probe", "statement": "statement", "status": "pass",
        "artifacts": {"k": 1}, "elapsed": 0.123}


def test_unknown_ids_rejected():
    with pytest.raises(InputError):
        run_casebook(["delta-petersen", "no-such-claim"])


def test_selected_claims_run_in_given_order():
    results = run_casebook(["z-construction", "delta-petersen"])
    assert [r.id for r in results] == ["z-construction", "delta-petersen"]
    assert all(r.status == "pass" for r in results)


def test_budget_skips_are_reported_not_dropped():
    results = run_casebook(max_seconds=0)
    assert [r.id for r in results] == ALL_IDS
    assert all(r.status == "skipped" for r in results)
    assert all("budget" in r.artifacts["reason"] for r in results)


def test_default_budget_runs_every_claim():
    # the 2^27 claim takes well under a second, so the budget never bites
    results = run_casebook()
    assert [r.id for r in results] == ALL_IDS
    assert all(r.status == "pass" for r in results)


def test_budget_counts_measured_time(monkeypatch):
    # a fake clock makes every claim appear to take 5 s
    ticks = iter(range(0, 100, 5))
    clock = SimpleNamespace(perf_counter=lambda: next(ticks))
    monkeypatch.setattr(edgeiso.casebook, "time", clock)
    fakes = tuple(Claim(f"fake-{i}", "always passes", lambda: (True, {})) for i in range(3))
    monkeypatch.setattr(edgeiso.casebook, "CLAIMS", fakes)
    for budget, statuses in ((5, ["pass", "skipped", "skipped"]),
                             (6, ["pass", "pass", "skipped"]),
                             (15, ["pass", "pass", "pass"])):
        results = run_casebook(max_seconds=budget)
        assert [r.status for r in results] == statuses, budget
        assert all(f"{budget}s budget" in r.artifacts["reason"]
                   for r in results if r.status == "skipped")


def test_fast_claims_all_pass():
    ids = [i for i in ALL_IDS if i != "power-lex-cube27"]
    results = run_casebook(ids, max_seconds=600)
    assert all(r.status == "pass" for r in results)
    assert all(r.elapsed >= 0 for r in results)


def test_z2_artifacts():
    result = run_casebook(["z2-counterexample"], max_seconds=600)[0]
    art = result.artifacts
    assert result.status == "pass"
    assert (art["vertices"], art["edges"]) == (17, 111)
    assert art["has_ns"] is True
    assert tuple(art["delta"]) == Z2_REFERENCE_DELTA
    assert art["symmetric"] is False and art["first_asymmetric"] == 9
    assert art["regular"] is False
    assert art["square_sizes_checked"] == 289 and art["square_all_optimal"]


def test_local_global_artifacts():
    result = run_casebook(["power-lex-local-global"])[0]
    assert result.status == "pass"
    sizes = {key: row["sizes"] for key, row in result.artifacts.items()}
    assert len(sizes) == 5 + 9
    assert sizes["complete(3)^6"] == 729 and sizes["complete(2)^10"] == 1024


def test_local_global_detects_a_failing_power(monkeypatch):
    real = edgeiso.graphs.complete
    monkeypatch.setattr(edgeiso.graphs, "complete",
                        lambda n: edgeiso.graphs.path(3) if n == 3 else real(n))
    result = run_casebook(["power-lex-local-global"])[0]
    assert result.status == "fail"
    # every power reports path(3)^2, where lex fails first
    assert result.artifacts["path(3)^6"] == {"sizes": 9, "ok": False}
    assert result.artifacts["complete(2)^10"] == {"sizes": 1024, "ok": True}


def test_local_global_walks_each_base_once(monkeypatch):
    def count(module, name):
        calls = []
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
        return calls

    tables = count(edgeiso.compress, "_column_tables")
    certified = count(edgeiso.delta, "ns_delta")
    optima = count(edgeiso.compress, "_optima")
    assert run_casebook(["power-lex-local-global"])[0].status == "pass"
    # one DP per power: 2..6 of complete(3), 2..10 of complete(2)
    assert (len(tables), len(certified)) == (5 + 9, 2)
    optima.clear()
    assert all(r.status == "pass" for r in run_casebook())
    # one per distinct delta pair: 12 powers past the square, and the
    # squares of complete(3..5) and Z(2) in the chain surveys
    assert len(optima) == 16
    assert len({(tuple(dh.values), tuple(dg.values)) for dh, dg in optima}) == 16


def test_brute_force_claims_check_every_subset_and_diagram():
    results = {r.id: r for r in run_casebook(["regular-identity", "diagram-weight-formula"])}
    assert results["regular-identity"].artifacts == {"graphs": 54, "subsets": 54000}
    assert results["diagram-weight-formula"].artifacts == {"diagrams_checked": 15574}


def _record_checked_sets(monkeypatch) -> list:
    """Patch the edge tally to record each (graphs, member matrix) it is
    asked to count, in call order."""
    seen = []
    real = edgeiso.graphs._edge_tally

    def record(graphs, member, *ops):
        seen.append((list(graphs), member.copy()))
        return real(graphs, member, *ops)

    monkeypatch.setattr(edgeiso.graphs, "_edge_tally", record)
    return seen


def _miscount(monkeypatch, op, error) -> None:
    """Patch the edge tally so that its ``op`` counts come back plus
    ``error(graphs, member)``, broadcast over (graphs x sets)."""
    real = edgeiso.graphs._edge_tally

    def miscount(graphs, member, *ops):
        counts = real(graphs, member, *ops)
        for k, each in enumerate(ops):
            if each is op:
                counts[k] += error(graphs, member)
        return counts

    monkeypatch.setattr(edgeiso.graphs, "_edge_tally", miscount)


def test_seeded_claims_draw_the_generator_inputs(monkeypatch):
    # the subsets and staircases the two seeded claims check are the
    # draws of np.random.default_rng(41) and (17), made in this order
    members = _record_checked_sets(monkeypatch)
    staircases = []
    real_mismatches = edgeiso.casebook._weight_mismatches

    def record_heights(products, tables, heights):
        staircases.append(heights.copy())
        return real_mismatches(products, tables, heights)

    monkeypatch.setattr(edgeiso.casebook, "_weight_mismatches", record_heights)
    results = run_casebook(SEEDED_IDS)
    assert [r.status for r in results] == ["pass", "pass"]

    rng = np.random.default_rng(41)
    graphs = list(edgeiso.casebook._regular_corpus())
    while len(graphs) < 54:
        g = edgeiso.casebook._random_regular(rng)
        if g is not None:
            graphs.append(g)
    for g, (seen, member) in zip(graphs, members[:54], strict=True):
        assert [each.edges() for each in seen] == [g.edges()]
        assert member.dtype == bool
        assert np.array_equal(member, rng.integers(0, 2, (1000, g.n), dtype=bool))

    # Petersen squared, then Z(2) squared, after the 16 boxes of factor pairs
    assert len(staircases) == 18
    rng = np.random.default_rng(17)
    for n, heights in zip((10, 17), staircases[-2:]):
        assert heights.dtype == np.int64
        draws = rng.integers(0, n + 1, (1000, n))
        assert np.array_equal(heights, -np.sort(-draws, axis=1))


def test_seeded_claims_draw_alike_in_either_order(monkeypatch):
    # the casebook workload shuffles claim order, so each seeded claim
    # must check the same sets after the other as when run alone
    seen = _record_checked_sets(monkeypatch)

    def checked(ids):
        seen.clear()
        assert {r.status for r in run_casebook(ids)} == {"pass"}
        return [([g.edges() for g in graphs], member) for graphs, member in seen]

    alone = {claim: checked([claim]) for claim in SEEDED_IDS}
    for ids in (SEEDED_IDS, SEEDED_IDS[::-1]):
        got = checked(ids)
        want = alone[ids[0]] + alone[ids[1]]
        assert len(got) == len(want)
        for (edges, member), (want_edges, want_member) in zip(got, want):
            assert edges == want_edges
            assert np.array_equal(member, want_member)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1))
def test_random_regular_draws_simple_regular_graphs(seed):
    g = edgeiso.casebook._random_regular(np.random.default_rng(seed))
    if g is None:
        return
    # Graph refuses a loop and merges a repeated pair, which would leave
    # two vertices one edge short of the drawn degree
    assert 4 <= g.n <= 10
    regular, r = edgeiso.graphs.is_regular(g)
    assert regular and r in (2, 3, 4)
    assert g.display_name() == f"regular(n={g.n},r={r})"


def _random_regular_reference(rng: np.random.Generator):
    """One attempt at a random simple regular graph on <= 10 vertices:
    200 random pairings of r stubs per vertex, of which the first with
    no loop and no repeated pair wins."""
    n, r = rng.integers([4, 2], [11, 5]).tolist()
    if r >= n or (n * r) % 2:
        return None
    stubs = np.repeat(np.arange(n), r)
    ends = rng.permuted(np.tile(stubs, (200, 1)), axis=1).reshape(200, -1, 2)
    u, v = ends.min(axis=2), ends.max(axis=2)
    codes = np.sort(u * n + v, axis=1)
    simple = (u != v).all(axis=1) & (np.diff(codes, axis=1) > 0).all(axis=1)
    if not simple.any():
        return None
    edges = [divmod(c, n) for c in codes[simple.argmax()].tolist()]
    return edgeiso.graphs.from_edge_list(n, edges, name=f"regular(n={n},r={r})")


def _drawn_edge_lists(draw, seed, count=1):
    """The first ``count`` draws of ``draw`` from ``default_rng(seed)``,
    each None or the graph's edges and name with the (n, edge list, name)
    it handed to ``from_edge_list``, edges in the order given."""
    calls, real = [], edgeiso.graphs.from_edge_list

    def record(n, edges, name=None):
        calls.append((n, list(edges), name))
        return real(n, edges, name)

    rng, drawn = np.random.default_rng(seed), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edgeiso.graphs, "from_edge_list", record)
        while len(drawn) < count:
            g = draw(rng)
            drawn.append(None if g is None else (g.edges(), g.name, calls[-1]))
    return drawn


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1))
def test_random_regular_draws_as_the_axis_reductions_did(seed):
    # the pairing's ends are read elementwise, so every drawn edge list,
    # each pair in (smaller, larger) order, is what the reductions gave
    assert (_drawn_edge_lists(edgeiso.casebook._random_regular, seed)
            == _drawn_edge_lists(_random_regular_reference, seed))


def test_regular_identity_graphs_are_the_reference_draws():
    # the claim's 50 random graphs are the first 50 of these draws
    got = _drawn_edge_lists(edgeiso.casebook._random_regular, 41, 200)
    assert sum(g is not None for g in got) >= 50
    assert got == _drawn_edge_lists(_random_regular_reference, 41, 200)


def test_regular_identity_detects_a_consistent_miscount(monkeypatch):
    # induced +1 on every non-empty set, the same on every graph
    _miscount(monkeypatch, np.bitwise_and, lambda graphs, member: member.any(axis=1))
    result = run_casebook(["regular-identity"])[0]
    assert result.status == "fail"
    assert "mask" in result.artifacts


def test_regular_identity_counts_the_boundary_apart(monkeypatch):
    # the same miscount on the crossing side alone, with the induced side intact
    _miscount(monkeypatch, np.bitwise_xor, lambda graphs, member: -2 * member.any(axis=1))
    members = _record_checked_sets(monkeypatch)
    result = run_casebook(["regular-identity"])[0]
    assert result.status == "fail"
    assert result.artifacts["graph"] == "petersen"
    # the mask is the first non-empty subset drawn for Petersen, bit v for vertex v
    (g,), member = members[0]
    first = member[member.any(axis=1)][0]
    mask = int(result.artifacts["mask"], 16)
    assert [bool(mask >> v & 1) for v in range(g.n)] == first.tolist()


def test_diagram_weight_detects_a_wrong_column_weight(monkeypatch):
    # +1 on column 1 at every non-zero height
    real = edgeiso.compress._column_weights

    def skewed(dh, dg):
        table = real(dh, dg)
        table[1, 1:] += 1
        return table

    monkeypatch.setattr(edgeiso.compress, "_column_weights", skewed)
    result = run_casebook(["diagram-weight-formula"])[0]
    assert result.status == "fail"
    # staircases run in lex order: (0,0), (1,0), (1,1) is the first to use column 1
    assert result.artifacts == {"factors": ("complete(2)", "complete(2)"), "heights": [1, 1]}


@pytest.mark.parametrize("faulty_n", [None, 100])
def test_diagram_weight_detects_a_direct_miscount(monkeypatch, faulty_n):
    # +1 induced edge on full sets of every product, or on every set of
    # Petersen squared alone
    def error(graphs, member):
        if faulty_n is None:
            return member.all(axis=1)
        return np.array([[g.n == faulty_n] for g in graphs])

    _miscount(monkeypatch, np.bitwise_and, error)
    result = run_casebook(["diagram-weight-formula"])[0]
    assert result.status == "fail"
    if faulty_n is None:
        expected = {"factors": ("complete(2)", "complete(2)"), "heights": [2, 2]}
    else:
        draws = np.random.default_rng(17).integers(0, 11, (1000, 10))
        first = -np.sort(-draws[0])
        expected = {"factors": "petersen", "heights": first.tolist()}
    assert result.artifacts == expected


def test_diagram_weight_reports_the_first_failure_in_factor_order(monkeypatch):
    # full sets miscounted in two products: (complete(2), complete(5)) comes
    # first in factor order but sits in the 2x5 box, which is tallied after
    # the 2x2 box that holds (path(2), complete(2))
    faulty = {"product(complete(2),complete(5))", "product(path(2),complete(2))"}
    _miscount(monkeypatch, np.bitwise_and, lambda graphs, member:
              np.array([[g.name in faulty] for g in graphs]) & member.all(axis=1))
    calls = _record_checked_sets(monkeypatch)
    result = run_casebook(["diagram-weight-formula"])[0]
    assert result.status == "fail"
    assert result.artifacts == {"factors": ("complete(2)", "complete(5)"), "heights": [5, 5]}
    # all 16 boxes were tallied, the 2x2 box before the 2x5 box
    box_of = {g.name: i for i, (graphs, _) in enumerate(calls) for g in graphs}
    assert len(calls) == 16
    assert box_of["product(path(2),complete(2))"] < box_of["product(complete(2),complete(5))"]


def test_z_construction_artifacts():
    result = run_casebook(["z-construction"], max_seconds=600)[0]
    art = result.artifacts
    assert result.status == "pass"
    assert art["join_once_vertices"] == 11
    assert art["join_twice_vertices"] == 17
    assert art["matching_reading"] == "join_twice"


# ------------------------------------------------------------
# Fault injection
# ------------------------------------------------------------

def _z2_with_wrong_core():
    """Same 17 vertices and 111 edges, but the 5-vertex part is a
    4-path plus an isolated vertex instead of a 3-path and a 2-path."""
    core = Graph(5, [(0, 1), (1, 2), (2, 3)])
    g = core
    for _ in range(2):
        g = join(g, graph_y())
    return Graph(g.n, g.edges(), name="Z(2)")


def test_pipeline_detects_wrong_construction(monkeypatch):
    monkeypatch.setattr(edgeiso.graphs, "graph_z", lambda k: _z2_with_wrong_core())
    result = run_casebook(["z2-counterexample"], max_seconds=600)[0]
    assert result.status == "fail"
    assert result.artifacts["failed_step"] == "delta-match"
    assert tuple(result.artifacts["delta"]) != Z2_REFERENCE_DELTA


def test_pipeline_detects_wrong_size(monkeypatch):
    monkeypatch.setattr(edgeiso.graphs, "graph_z",
                        lambda k: edgeiso.graphs.complete(17))
    result = run_casebook(["z2-counterexample"], max_seconds=600)[0]
    assert result.status == "fail"
    assert result.artifacts["failed_step"] == "construction"


def test_pipeline_detects_corrupted_symmetry_check(monkeypatch):
    real = edgeiso.delta.is_symmetric

    def inverted(d):
        check = real(d)
        return SymmetryCheck(not check.ok, check.first_asymmetric)

    monkeypatch.setattr(edgeiso.delta, "is_symmetric", inverted)
    result = run_casebook(["z2-counterexample"], max_seconds=600)[0]
    assert result.status == "fail"
    assert result.artifacts["failed_step"] == "asymmetry"
    sym = run_casebook(["symmetry-regularity"], max_seconds=600)[0]
    assert sym.status == "fail"


def _raising_claim():
    raise ZeroDivisionError("pipeline divided by zero")


def test_raising_claim_is_contained(monkeypatch):
    broken = Claim("broken", "a pipeline that raises", _raising_claim)
    monkeypatch.setattr(edgeiso.casebook, "CLAIMS", CLAIMS + (broken,))
    results = run_casebook(["delta-petersen", "broken", "z-construction"])
    assert [r.status for r in results] == ["pass", "error", "pass"]
    error = results[1]
    assert error.artifacts == {"error": "ZeroDivisionError: pipeline divided by zero"}
    assert error.elapsed >= 0
    assert error.to_dict()["status"] == "error"
