"""Per-layer numbers: which public calls are traced, and the scan probes.

``traced()`` wraps the public entry points of graphs, solver, delta,
compress, casebook and cli in one ``Tracer``; ``layer_metrics`` turns
what it saw over some passes into per-pass metrics.  ``scan_probe``
times each profile-scan strategy at fixed sizes, outside any workload,
so the gray/blocks cut-over and thread scaling can be judged.
"""

from __future__ import annotations

import os
import time

from tracer import Tracer

PROBE_GRAPHS = {
    10: "petersen",
    16: "power(complete(2),4)",
    20: "product(complete(4),complete(5))",
    24: "product(complete(4),complete(6))",
    27: "power(complete(3),3)",
}
# Sizes at which each strategy fits a run: gray is pure Python per
# subset, combinations per subset and per member.
PROBE_SIZES = {
    "gray": (10, 16, 20),
    "blocks": (10, 16, 20, 24, 27),
    "combinations": (10, 16),
}
# Span-name prefixes that make up each layer's share of a traced pass.
LAYERS = ("graphs", "solver", "delta", "compress", "casebook", "cli")


def _count_subsets(counters, args, result):
    counters["solver.subsets_scanned"] += 1 << args[0].n


def _count_orders(counters, args, result):
    counters["solver.orders_counted"] += result[1]


def _count_chains(counters, args, result):
    counters["compress.chain_surveys"] += 1
    counters["compress.chains_counted"] += result.total
    counters["compress.chains_capped"] += not result.exact


def _count_dp(counters, args, result):
    dh, dg = args[1], args[2]  # args[0] is the optimizer itself
    nh, ng = len(dh), len(dg)
    cells = (nh + 1) * (nh * ng + 1) * (ng + 1)  # nh + 1 int64 tables
    counters["compress.dp_cells"] += cells
    counters["compress.dp_table_bytes"] += 8 * cells


def traced() -> Tracer:
    """A tracer wrapping every layer's public entry points."""
    from edgeiso import casebook, cli, compress, delta, graphs, solver
    tracer = Tracer()
    tracer.function(solver, "iso_profile", "solver.iso_profile", _count_subsets)
    tracer.function(solver, "has_ns", "solver.has_ns")
    tracer.function(solver, "enumerate_optimal_orders", "solver.enumerate_optimal_orders",
                    _count_orders)
    for attr in ("delta_of", "nested_solution_form", "gap_check", "segments_of",
                 "is_delta_dense", "is_symmetric", "regularity_crosscheck"):
        tracer.function(delta, attr, "delta")
    tracer.function(graphs, "induced_edges", "graphs.induced_edges")
    tracer.function(graphs, "boundary_edges", "graphs.boundary_edges")
    tracer.method(graphs.Graph, "__init__", "graphs.construct")
    for attr in ("cartesian_product", "cartesian_power", "relabel", "join", "graph_union"):
        tracer.function(graphs, attr, "graphs.construct")
    tracer.function(compress, "diagram_weight", "compress.diagram_weight")
    tracer.method(compress.DiagramOptimizer, "__init__", "compress.DiagramOptimizer", _count_dp)
    tracer.function(compress, "enumerate_compressed_optimal_orders", "compress.chains",
                    _count_chains)
    tracer.function(compress, "verify_lex_square", "compress.verify_lex_square")
    tracer.function(compress, "power_lex_check", "compress.power_lex_check")
    tracer.function(casebook, "run_casebook", "casebook.runner")
    tracer.function(cli, "main", "cli.main")
    return tracer


def layer_metrics(tracer: Tracer, passes: int, pass_s: float, claim_ids,
                  claim_elapsed: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-pass metrics from ``passes`` traced passes of ``pass_s`` each;
    every pinned casebook claim gets a metric, 0 where none ran."""
    per = 1.0 / passes
    self_s = tracer.self_s
    calls = tracer.calls
    counters = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for span in ("solver.iso_profile", "solver.has_ns", "solver.enumerate_optimal_orders",
                 "delta", "graphs.induced_edges", "graphs.boundary_edges", "graphs.construct",
                 "compress.diagram_weight", "compress.DiagramOptimizer", "compress.chains",
                 "compress.verify_lex_square", "compress.power_lex_check",
                 "casebook.runner", "cli.main"):
        out[f"{span}.s"] = (self_s.get(span, 0.0) * per, "s")
    for span in ("solver.iso_profile", "graphs.induced_edges", "graphs.boundary_edges",
                 "compress.diagram_weight"):
        out[f"{span}.calls"] = (calls.get(span, 0) * per, "count")
    for name in ("solver.subsets_scanned", "solver.orders_counted",
                 "compress.chains_counted", "compress.dp_cells"):
        out[name] = (counters.get(name, 0) * per, "count")
    out["compress.dp_table_bytes"] = (counters.get("compress.dp_table_bytes", 0) * per, "B")
    surveys = counters.get("compress.chain_surveys", 0)
    capped = counters.get("compress.chains_capped", 0)
    out["compress.chains_capped"] = (capped / surveys if surveys else 0.0, "ratio")
    for claim in claim_ids:
        out[f"casebook.claim.{claim}.s"] = (claim_elapsed.get(claim, 0.0), "s")
    out["trace.pass_s"] = (pass_s, "s")
    for layer in LAYERS:
        spent = sum(v for k, v in self_s.items() if k.split(".")[0] == layer) * per
        out[f"share.{layer}"] = (spent / pass_s, "ratio")
    return out


def _timed_profile(g, strategy: str):
    from edgeiso import solver
    start = time.perf_counter()
    prof = solver.iso_profile(g, strategy=strategy)
    return time.perf_counter() - start, prof


def scan_probe(threads: int, check) -> dict[str, tuple[float, str]]:
    """Time each scan strategy at each probe size; check they agree.

    ``check(ok, what)`` records one verification.  A strategy the
    program no longer offers is reported as 0 s.
    """
    from edgeiso import graphs, solver
    from edgeiso.errors import InputError
    out: dict[str, tuple[float, str]] = {}
    tables_at: dict[int, list] = {}
    for n, expr in PROBE_GRAPHS.items():
        g = graphs.named(expr)
        for strategy, sizes in PROBE_SIZES.items():
            if n not in sizes:
                continue
            try:
                elapsed, prof = _timed_profile(g, strategy)
            except InputError:
                out[f"solver.scan.{strategy}.n{n}.s"] = (0.0, "s")
                continue
            out[f"solver.scan.{strategy}.n{n}.s"] = (elapsed, "s")
            tables_at.setdefault(n, []).append(
                (prof.induced, prof.boundary, prof.induced_witness, prof.boundary_witness))
        seen = tables_at.get(n, [])
        check(all(t == seen[0] for t in seen),
              f"scan strategies agree at n={n}")
    g27 = graphs.named(PROBE_GRAPHS[27])
    saved = os.environ.get(solver.THREADS_ENV)
    os.environ[solver.THREADS_ENV] = "1"
    try:
        single, _ = _timed_profile(g27, "blocks")
    finally:
        os.environ[solver.THREADS_ENV] = saved if saved is not None else str(threads)
    parallel = out["solver.scan.blocks.n27.s"][0]
    efficiency = single / (threads * parallel) if parallel else 0.0
    out["solver.thread_efficiency"] = (efficiency, "ratio")
    return out
