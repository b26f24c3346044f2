"""Casebook: every finitely checkable claim the toolkit reproduces.

Claims are data: an id, a one-sentence statement, and a pipeline that
recomputes the claim from scratch and returns pass or fail with
artifacts.  The runner never drops a claim silently; a claim left out
because the time budget was already spent shows up as a skipped row
with the reason attached.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import compress as compress_mod
from . import delta as delta_mod
from . import graphs as graphs_mod
from . import solver as solver_mod
from .errors import InputError

# Reference delta for the 17-vertex join construction Z(2); the
# z2-counterexample pipeline recomputes it from scratch and compares.
Z2_REFERENCE_DELTA = (0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 7, 8, 9, 10, 11, 12, 13)


@dataclass
class Claim:
    id: str
    statement: str
    run: Callable[[], tuple[bool, dict]]


@dataclass
class CasebookResult:
    id: str
    statement: str
    status: str  # pass | fail | skipped | error
    artifacts: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "statement": self.statement,
            "status": self.status,
            "artifacts": self.artifacts,
            "elapsed": round(self.elapsed, 3),
        }


def _delta_values(g) -> tuple[int, ...]:
    return delta_mod.delta_of(solver_mod.iso_profile(g)).values


def _check_delta_complete() -> tuple[bool, dict]:
    got = {}
    ok = True
    for n in range(2, 7):
        values = _delta_values(graphs_mod.complete(n))
        got[f"complete({n})"] = list(values)
        ok = ok and values == tuple(range(n))
    return ok, {"delta": got}


def _check_delta_trees() -> tuple[bool, dict]:
    got = {}
    ok = True
    for n in range(3, 8):
        for g in (graphs_mod.path(n), graphs_mod.star(n)):
            values = _delta_values(g)
            got[g.display_name()] = list(values)
            ok = ok and values == (0,) + (1,) * (n - 1)
    return ok, {"delta": got}


def _check_delta_petersen() -> tuple[bool, dict]:
    values = _delta_values(graphs_mod.petersen())
    expected = (0, 1, 1, 1, 2, 1, 2, 2, 2, 3)
    return values == expected, {"delta": list(values), "expected": list(expected)}


def _check_segment_structure() -> tuple[bool, dict]:
    ok = True
    detail = {}
    for n in range(2, 7):
        seg = delta_mod.segments_of(
            delta_mod.delta_of(solver_mod.iso_profile(graphs_mod.complete(n))))
        detail[f"complete({n})"] = seg.count
        ok = ok and seg.count == 1
    pet = delta_mod.segments_of(
        delta_mod.delta_of(solver_mod.iso_profile(graphs_mod.petersen())))
    detail["petersen"] = {"count": pet.count, "starts": list(pet.starts)}
    ok = ok and pet.count == 6 and pet.starts == (0, 1, 1, 1, 2, 2)
    for n in range(3, 8):
        for g in (graphs_mod.path(n), graphs_mod.star(n)):
            seg = delta_mod.segments_of(delta_mod.delta_of(solver_mod.iso_profile(g)))
            detail[g.display_name()] = seg.count
            ok = ok and seg.count == n - 1
    return ok, detail


def _check_dense_classification() -> tuple[bool, dict]:
    ok = True
    detail = {}
    for n in range(2, 7):
        dense = delta_mod.is_delta_dense(
            delta_mod.delta_of(solver_mod.iso_profile(graphs_mod.complete(n)))).ok
        detail[f"complete({n})"] = dense
        ok = ok and dense
    for g in [graphs_mod.petersen()] + [graphs_mod.path(n) for n in range(3, 8)] \
            + [graphs_mod.star(n) for n in range(3, 8)]:
        dense = delta_mod.is_delta_dense(delta_mod.delta_of(solver_mod.iso_profile(g))).ok
        detail[g.display_name()] = dense
        ok = ok and not dense
    return ok, detail


def _regular_corpus():
    yield graphs_mod.petersen()
    yield graphs_mod.cartesian_power(graphs_mod.complete(2), 3)
    yield graphs_mod.cycle(5)
    yield graphs_mod.complete(6)


def _check_regular_identity() -> tuple[bool, dict]:
    rng = np.random.default_rng(41)
    graphs = list(_regular_corpus())
    while len(graphs) < 54:
        g = _random_regular(rng)
        if g is not None:
            graphs.append(g)
    checked = 0
    for g in graphs:
        reg, r = graphs_mod.is_regular(g)
        if not reg:
            return False, {"error": f"{g.display_name()} is not regular"}
        member = rng.integers(0, 2, (1000, g.n), dtype=bool)
        induced = graphs_mod._edge_counts_many(g, member)
        # the boundary is counted edge by edge, apart from the induced kernel
        lhs = _crossing_counts(g, member) + 2 * induced
        bad = np.flatnonzero(lhs != r * member.sum(axis=1))
        if bad.size:
            mask = sum(1 << v for v in np.flatnonzero(member[bad[0]]).tolist())
            return False, {"graph": g.display_name(), "mask": hex(mask)}
        checked += len(member)
    return True, {"graphs": len(graphs), "subsets": checked}


def _crossing_counts(g, member) -> np.ndarray:
    """Edges uv with [u in A] != [v in A], for each row A of ``member``."""
    ends = np.array(g.edges(), dtype=np.intp).reshape(-1, 2)
    return np.count_nonzero(member[:, ends[:, 0]] != member[:, ends[:, 1]], axis=1)


def _random_regular(rng: np.random.Generator):
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
    return graphs_mod.from_edge_list(n, edges, name=f"regular(n={n},r={r})")


def _ns_corpus():
    for n in range(2, 7):
        yield graphs_mod.complete(n)
    for n in range(3, 8):
        yield graphs_mod.path(n)
        yield graphs_mod.star(n)
    for n in range(3, 9):
        yield graphs_mod.cycle(n)
    yield graphs_mod.petersen()
    yield graphs_mod.graph_x()
    yield graphs_mod.graph_y()
    yield graphs_mod.graph_z(1)
    yield graphs_mod.graph_z(2)
    yield graphs_mod.cartesian_power(graphs_mod.complete(2), 3)
    yield graphs_mod.cartesian_product(graphs_mod.complete(3), graphs_mod.complete(3))
    yield graphs_mod.graph_union(graphs_mod.cycle(4), graphs_mod.complete(3))


def _check_ns_gap_bound() -> tuple[bool, dict]:
    with_ns = 0
    without = []
    for g in _ns_corpus():
        prof = solver_mod.iso_profile(g)
        search = solver_mod.has_ns(g, prof)
        if search.order is None:
            without.append(g.display_name())
            continue
        with_ns += 1
        check = delta_mod.gap_check(delta_mod.delta_of(prof))
        if not check.ok:
            return False, {"graph": g.display_name(), "violation_at": check.first_violation}
    return True, {"graphs_with_ns": with_ns, "graphs_without_ns": without}


def _diagram_factors():
    pet = graphs_mod.petersen()
    pet_form, _ = delta_mod.nested_solution_form(pet)
    for k in range(2, 6):
        yield graphs_mod.complete(k)
        yield graphs_mod.path(k)
        if k >= 3:
            yield graphs_mod.cycle(k)
        trunc = _prefix_subgraph(pet_form, k)
        yield trunc


def _prefix_subgraph(g, k: int):
    """Induced subgraph on labels 0..k-1 (labels assumed in NS order)."""
    edges = [(u, v) for u, v in g.edges() if u < k and v < k]
    return graphs_mod.from_edge_list(k, edges, name=f"prefix({g.display_name()},{k})")


def _all_diagrams(nh: int, ng: int) -> np.ndarray:
    """Every staircase in the nh x ng box, one row of column heights
    each, in lex order.  Heights h = ng - c run over the non-decreasing
    rows c, so reversing c's lex order gives h's."""
    rising = np.array(list(itertools.combinations_with_replacement(range(ng + 1), nh)))
    return ng - rising[::-1]


def _check_diagram_weight() -> tuple[bool, dict]:
    factors = list(_diagram_factors())
    boxes = {}
    checked = 0
    for h_graph in factors:
        dh = delta_mod.delta_of(solver_mod.iso_profile(h_graph))
        for g_graph in factors:
            dg = delta_mod.delta_of(solver_mod.iso_profile(g_graph))
            product = graphs_mod.cartesian_product(h_graph, g_graph)
            box = (h_graph.n, g_graph.n)
            if box not in boxes:
                boxes[box] = _all_diagrams(*box)
            heights = boxes[box]
            bad = _first_weight_mismatch(product, dh, dg, heights)
            if bad is not None:
                return False, {"factors": (h_graph.display_name(), g_graph.display_name()),
                               "heights": heights[bad].tolist()}
            checked += len(heights)
    rng = np.random.default_rng(17)
    for big in (graphs_mod.petersen(), graphs_mod.graph_z(2)):
        form, d = delta_mod.nested_solution_form(big)
        product = graphs_mod.cartesian_product(form, form)
        heights = np.sort(rng.integers(0, big.n + 1, (1000, big.n)), axis=1)[:, ::-1]
        bad = _first_weight_mismatch(product, d, d, heights)
        if bad is not None:
            return False, {"factors": big.display_name(), "heights": heights[bad].tolist()}
        checked += len(heights)
    return True, {"diagrams_checked": checked}


def _first_weight_mismatch(product, dh, dg, heights) -> int | None:
    """Index of the first row of ``heights`` whose staircase has a
    column-weight sum other than its induced-edge count in ``product``,
    or None if every row agrees."""
    nh, ng = len(dh), len(dg)
    member = compress_mod.staircase_members(heights, ng)
    direct = graphs_mod._edge_counts_many(product, member)
    table = compress_mod._column_weights(dh, dg)
    formula = table[np.arange(nh), heights].sum(axis=1)
    bad = np.flatnonzero(formula != direct)
    return int(bad[0]) if bad.size else None


def _check_dp_exact() -> tuple[bool, dict]:
    pairs = [
        (graphs_mod.complete(2), graphs_mod.complete(2)),
        (graphs_mod.complete(2), graphs_mod.complete(3)),
        (graphs_mod.complete(3), graphs_mod.complete(3)),
        (graphs_mod.path(3), graphs_mod.path(3)),
    ]
    detail = {}
    for h_graph, g_graph in pairs:
        dh = delta_mod.delta_of(solver_mod.iso_profile(h_graph))
        dg = delta_mod.delta_of(solver_mod.iso_profile(g_graph))
        product = graphs_mod.cartesian_product(h_graph, g_graph)
        prof = solver_mod.iso_profile(product)
        opt = compress_mod.DiagramOptimizer(dh, dg)
        for m in range(product.n + 1):
            if opt.optimum(m) != prof.induced[m]:
                return False, {"product": product.display_name(), "size": m,
                               "dp": opt.optimum(m), "brute": prof.induced[m]}
        detail[product.display_name()] = list(prof.induced)
    return True, detail


def _uniqueness_of(g) -> tuple[bool, dict]:
    survey = compress_mod.enumerate_compressed_optimal_orders(g, cap=4)
    info = {"total": survey.total, "classifications": list(survey.classifications)}
    return survey.exactly_lex_and_colex, info


def _check_uniqueness_complete() -> tuple[bool, dict]:
    detail = {}
    ok = True
    for n in (3, 4, 5):
        good, info = _uniqueness_of(graphs_mod.complete(n))
        detail[f"complete({n})"] = info
        ok = ok and good
    return ok, detail


def _check_uniqueness_z2() -> tuple[bool, dict]:
    return _uniqueness_of(graphs_mod.graph_z(2))


def _check_z2_counterexample() -> tuple[bool, dict]:
    artifacts: dict = {}

    g = graphs_mod.graph_z(2)
    artifacts["vertices"] = g.n
    artifacts["edges"] = g.edge_count()
    if g.n != 17 or g.edge_count() != 111:
        artifacts["failed_step"] = "construction"
        return False, artifacts

    prof = solver_mod.iso_profile(g)
    search = solver_mod.has_ns(g, prof)
    artifacts["has_ns"] = search.order is not None
    if search.order is None:
        artifacts["failed_step"] = "nested-solutions"
        return False, artifacts

    d = delta_mod.delta_of(prof, ns_order=search.order)
    artifacts["delta"] = list(d.values)
    if d.values != Z2_REFERENCE_DELTA:
        artifacts["failed_step"] = "delta-match"
        return False, artifacts

    sym = delta_mod.is_symmetric(d)
    reg, _ = graphs_mod.is_regular(g)
    artifacts["symmetric"] = sym.ok
    artifacts["first_asymmetric"] = sym.first_asymmetric
    artifacts["regular"] = reg
    if sym.ok or reg or sym.first_asymmetric != 9:
        artifacts["failed_step"] = "asymmetry"
        return False, artifacts

    report = compress_mod.verify_lex_square(g, prof)
    artifacts["square_sizes_checked"] = len(report.rows)
    artifacts["square_all_optimal"] = report.ok
    if not report.ok or len(report.rows) != 289:
        artifacts["failed_step"] = "lex-square"
        return False, artifacts

    return True, artifacts


def _check_z_construction() -> tuple[bool, dict]:
    single = graphs_mod.join(graphs_mod.graph_x(), graphs_mod.graph_y())
    double = graphs_mod.graph_z(2)
    d_single = _delta_values(single)
    d_double = _delta_values(double)
    single_matches = d_single == Z2_REFERENCE_DELTA
    double_matches = d_double == Z2_REFERENCE_DELTA
    artifacts = {
        "join_once_vertices": single.n,
        "join_once_delta": list(d_single),
        "join_twice_vertices": double.n,
        "join_twice_delta": list(d_double),
        "matching_reading": "join_twice" if double_matches and not single_matches else "ambiguous",
    }
    return double_matches and not single_matches, artifacts


def _check_symmetry_regularity() -> tuple[bool, dict]:
    corpus = list(_ns_corpus())
    corpus.append(graphs_mod.empty_graph(1))
    corpus.append(graphs_mod.empty_graph(4))
    corpus.append(graphs_mod.join(graphs_mod.empty_graph(2), graphs_mod.empty_graph(3)))
    rng = random.Random(97)
    corpus.extend(_random_connected(rng) for _ in range(100))
    consistent = 0
    for g in corpus:
        verdict = delta_mod.regularity_crosscheck(g)
        if not verdict.consistent:
            return False, {"graph": g.display_name(),
                           "symmetric": verdict.symmetric, "regular": verdict.regular}
        consistent += 1
    return True, {"graphs_checked": consistent}


def _random_connected(rng: random.Random):
    """Random connected graph on 2..9 vertices: random tree plus noise."""
    n = rng.randint(2, 9)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    return graphs_mod.from_edge_list(n, sorted(edges), name=f"connected(n={n})")


def _check_power_lex_spot() -> tuple[bool, dict]:
    detail = {}
    ok = True
    for d in (3, 4):
        report = compress_mod.power_lex_check(graphs_mod.complete(2), d)
        detail[f"complete(2)^{d}"] = {"sizes": len(report.rows), "ok": report.ok}
        ok = ok and report.ok
    return ok, detail


def _check_power_lex_local_global() -> tuple[bool, dict]:
    detail = {}
    for base, top in ((graphs_mod.complete(3), 6), (graphs_mod.complete(2), 10)):
        for d in range(2, top + 1):
            report = compress_mod.power_lex_check(base, d, mode="compressed")
            detail[f"{base.display_name()}^{d}"] = {"sizes": len(report.rows), "ok": report.ok}
    return all(row["ok"] for row in detail.values()), detail


def _check_power_lex_cube27() -> tuple[bool, dict]:
    report = compress_mod.power_lex_check(graphs_mod.complete(3), 3)
    return report.ok, {
        "sizes": len(report.rows), "ok": report.ok}


CLAIMS: tuple[Claim, ...] = (
    Claim("delta-complete",
          "the delta sequence of complete(n) is (0,1,...,n-1) for n = 2..6",
          _check_delta_complete),
    Claim("delta-trees",
          "paths and stars on n vertices have delta (0,1,...,1) for n = 3..7",
          _check_delta_trees),
    Claim("delta-petersen",
          "the Petersen graph has delta (0,1,1,1,2,1,2,2,2,3)",
          _check_delta_petersen),
    Claim("segment-structure",
          "monotone segment counts: complete(n) has 1, Petersen has 6 with starts "
          "(0,1,1,1,2,2), an n-vertex tree has n-1",
          _check_segment_structure),
    Claim("dense-classification",
          "complete graphs are delta-dense; Petersen, paths, and stars are not",
          _check_dense_classification),
    Claim("regular-identity",
          "boundary(A) + 2*induced(A) = r*|A| for every subset A of an r-regular graph",
          _check_regular_identity),
    Claim("ns-gap-bound",
          "graphs with nested solutions never gain more than one extra delta step",
          _check_ns_gap_bound),
    Claim("diagram-weight-formula",
          "for compressed product sets the induced-edge count equals the per-cell "
          "delta sum",
          _check_diagram_weight),
    Claim("compressed-dp-exact",
          "the diagram DP matches brute force on small two-factor products",
          _check_dp_exact),
    Claim("uniqueness-complete",
          "complete(3..5) squared have exactly two compressed optimal orders, "
          "lex and colex",
          _check_uniqueness_complete),
    Claim("uniqueness-z2",
          "Z(2) squared has exactly two compressed optimal orders, lex and colex",
          _check_uniqueness_z2),
    Claim("z2-counterexample",
          "Z(2) is irregular with an asymmetric delta, yet the lex chain is optimal "
          "at all 289 sizes of its square",
          _check_z2_counterexample),
    Claim("z-construction",
          "only the 17-vertex reading of Z(2), X joined with two copies of Y, "
          "reproduces the reference delta",
          _check_z_construction),
    Claim("symmetry-regularity",
          "delta symmetry coincides with degree regularity across the corpus and "
          "100 random connected graphs",
          _check_symmetry_regularity),
    Claim("power-lex-spot",
          "numeric prefixes are optimal at every size of complete(2)^3 and "
          "complete(2)^4",
          _check_power_lex_spot),
    Claim("power-lex-cube27",
          "numeric prefixes are optimal at every size of complete(3)^3 "
          "(full 2^27 scan)",
          _check_power_lex_cube27),
    Claim("power-lex-local-global",
          "lex is optimal at every size of complete(3)^d for d = 2..6 and "
          "complete(2)^d for d = 2..10 (iterated diagram DP)",
          _check_power_lex_local_global),
)


def run_casebook(ids=None, max_seconds: int = 120) -> list[CasebookResult]:
    """Run the selected claims (all by default) within the time budget.

    A claim starts only while the measured time spent on the claims
    before it is below ``max_seconds``; the rest are reported as
    skipped, never dropped.  A claim that raises is reported with
    status ``error`` and the exception text.
    """
    chosen = list(CLAIMS)
    if ids is not None:
        lookup = {c.id: c for c in CLAIMS}
        missing = [i for i in ids if i not in lookup]
        if missing:
            raise InputError(f"unknown claim ids: {', '.join(missing)}")
        chosen = [lookup[i] for i in ids]
    results = []
    spent = 0.0
    for claim in chosen:
        if spent >= max_seconds:
            results.append(CasebookResult(
                claim.id, claim.statement, "skipped",
                {"reason": f"the {max_seconds}s budget was spent before this claim"}))
            continue
        start = time.perf_counter()
        try:
            ok, artifacts = claim.run()
        except Exception as exc:  # one broken claim must not abort the run
            status, artifacts = "error", {"error": f"{type(exc).__name__}: {exc}"}
        else:
            status = "pass" if ok else "fail"
        elapsed = time.perf_counter() - start
        spent += elapsed
        results.append(CasebookResult(claim.id, claim.statement, status, artifacts, elapsed))
    return results
