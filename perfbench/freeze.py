"""Freeze the benchmark's reference results from the current sources.

    python3 perfbench/freeze.py

Writes ``perfbench/reference.json``: the n=27 scan tables of
scan-cube27, the pinned casebook claim ids, and one square-survey record
per fixed-corpus graph and per graph of a seeded random pool.  Run it
only on a commit whose results are trusted.  Before writing, results are
cross-checked against independent computations: every graph with
n <= 12 against brute edge counting from its edge list, and the n=27
tables against the pure-Python gray-code scan (a minute or two).
"""

from __future__ import annotations

import json
import random
import signal
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Capture  # noqa: E402

POOL_SEED = 20240117
POOL_PER_SIZE = 8
# A pool graph whose survey takes longer than this at freeze time is left
# out and listed under "excluded": the compressed-chain DFS keeps no
# dead-state memo and explodes on some sparse graphs, which would stall
# every pass that drew one.
POOL_BUDGET_S = 2.0
BRUTE_MAX_N = 12
CASEBOOK_EXCLUDED = "power-lex-cube27"  # the 2^27 scan belongs to scan-cube27


def random_connected(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random spanning tree plus independent extra edges of one density."""
    density = rng.uniform(0.1, 0.6)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.add((u, v))
    return sorted(edges)


def brute_check(g, record: dict) -> None:
    """Recount the profile and the nested-solution order from the raw
    edge list, with no bit-mask arithmetic from edgeiso."""
    from edgeiso import solver
    n = g.n
    edges = g.edges()
    best_i = [-1] * (n + 1)
    best_t = [n * n + 1] * (n + 1)
    wit_i = [0] * (n + 1)
    wit_t = [0] * (n + 1)
    for mask in range(1 << n):
        inside = {v for v in range(n) if mask >> v & 1}
        ind = sum(1 for u, v in edges if u in inside and v in inside)
        bnd = sum(1 for u, v in edges if (u in inside) != (v in inside))
        m = len(inside)
        if ind > best_i[m]:
            best_i[m], wit_i[m] = ind, mask
        if bnd < best_t[m]:
            best_t[m], wit_t[m] = bnd, mask
    prof = solver.iso_profile(g)
    brute = {"induced": best_i, "boundary": best_t,
             "induced_witness": [hex(w) for w in wit_i],
             "boundary_witness": [hex(w) for w in wit_t]}
    if workloads.profile_tables(prof) != brute:
        raise SystemExit(f"brute count disagrees with the profile of {g.display_name()}")
    if record["ns_order"] is not None:
        inside: set[int] = set()
        for k, v in enumerate(record["ns_order"], start=1):
            inside.add(v)
            count = sum(1 for a, b in edges if a in inside and b in inside)
            if count != best_i[k]:
                raise SystemExit(f"ns order of {g.display_name()} fails at prefix {k}")


class _OverBudget(Exception):
    pass


def _expire(signum, frame):
    raise _OverBudget


def checked_record(g, budget_s: float | None = None) -> dict | None:
    """The survey record of g, cross-checked by brute force when small;
    None when it does not finish within ``budget_s``."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, budget_s or 0)
    try:
        record = workloads.survey_record(g)
    except _OverBudget:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if g.n <= BRUTE_MAX_N:
        brute_check(g, record)
    return record


def freeze_cube() -> dict:
    from edgeiso import compress, graphs, solver
    with Capture(solver, "iso_profile") as cap:
        report = compress.power_lex_check(graphs.complete(3), 3, mode="exhaustive")
    (cube,) = [p for p in cap.results if p.graph.n == 27]
    if not report.ok or len(report.rows) != 27:
        raise SystemExit("power_lex_check(complete(3), 3) does not pass")
    tables = workloads.profile_tables(cube)
    gray = solver.iso_profile(cube.graph, strategy="gray")
    if workloads.profile_tables(gray) != tables:
        raise SystemExit("gray and blocks scans disagree on complete(3)^3")
    return {"tables": tables}


def freeze_casebook() -> dict:
    from edgeiso import casebook
    frozen = {"claims": [c.id for c in casebook.CLAIMS if c.id != CASEBOOK_EXCLUDED]}
    # Count the profile work of one traced pass for subsets_per_s.
    wl = workloads.Casebook()
    inputs = wl.setup(0, {"casebook": {**frozen, "subsets_per_pass": 0}})
    tracer = layers.traced()
    with tracer:
        result = wl.run_pass(inputs)
    if result.failed:
        raise SystemExit("casebook claims do not all pass")
    frozen["subsets_per_pass"] = tracer.counters["solver.subsets_scanned"]
    frozen["iso_profile_calls_per_pass"] = tracer.calls["solver.iso_profile"]
    return frozen


def freeze_survey() -> dict:
    from edgeiso import graphs
    corpus = {}
    for expr in workloads.SQUARE_CORPUS:
        corpus[expr] = checked_record(graphs.named(expr))
    rng = random.Random(POOL_SEED)
    pool: dict[str, list] = {}
    excluded = []
    for n in workloads.SQUARE_RANDOM_SIZES:
        entries = pool[str(n)] = []
        k = 0
        while len(entries) < POOL_PER_SIZE:
            entry = {"name": f"pool(n={n},k={k})", "n": n,
                     "edges": [list(e) for e in random_connected(rng, n)]}
            k += 1
            entry["record"] = checked_record(workloads.pool_graph(entry), POOL_BUDGET_S)
            if entry["record"] is None:
                excluded.append({"name": entry["name"], "edges": entry["edges"],
                                 "reason": f"survey exceeds {POOL_BUDGET_S} s"})
                continue
            entries.append(entry)
    return {"corpus": corpus, "pool": pool, "excluded": excluded}


def _dumps(value, depth: int = 0) -> str:
    """JSON with objects indented and lists of plain values on one line."""
    pad = " " * (depth + 1)
    if isinstance(value, dict) and value:
        items = [f"{pad}{json.dumps(k)}: {_dumps(v, depth + 1)}" for k, v in sorted(value.items())]
    elif isinstance(value, list) and any(isinstance(v, dict) for v in value):
        items = [pad + _dumps(v, depth + 1) for v in value]
    else:
        return json.dumps(value)
    opening, closing = ("{", "}") if isinstance(value, dict) else ("[", "]")
    return opening + "\n" + ",\n".join(items) + "\n" + " " * depth + closing


def main() -> int:
    reference = {
        "scan-cube27": freeze_cube(),
        "casebook": freeze_casebook(),
        "square-survey": freeze_survey(),
    }
    workloads.REFERENCE_PATH.write_text(_dumps(reference) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
