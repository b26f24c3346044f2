"""The benchmark's workloads: inputs, one pass each, and its verification.

Every workload drives edgeiso only through public calls.  ``setup``
builds the inputs from the seed; ``run_pass`` does one unit of work and
checks every result against ``reference.json``, which ``freeze.py``
wrote from a commit whose results were trusted.  A pass returns how
many verifications it attempted and how many failed; an exception
counts as a failure of every verification it prevented.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
import traceback
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SQUARE_CORPUS = (
    "path(12)", "star(10)", "petersen", "z(2)", "cycle(12)", "cycle(16)",
    "power(complete(2),4)", "product(complete(4),complete(4))",
    "product(complete(4),complete(5))", "complete(12)",
)
SQUARE_RANDOM_SIZES = (12, 13, 14, 15, 16)
CHAIN_COUNT_LIMIT = 10_000
CASEBOOK_BUDGET_S = 86_400  # claims are pinned by id; no budget skipping


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class PassResult:
    """Verifications of one pass (or a whole run), plus per-claim times
    for casebook."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.claim_elapsed: dict[str, float] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"verification failed: {what}", file=sys.stderr)

    def add(self, other: "PassResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def timed_pass(workload, inputs: dict, tally: PassResult) -> tuple[float, PassResult]:
    """Run and verify one pass; add its verifications to ``tally``."""
    start = time.perf_counter()
    result = workload.run_pass(inputs)
    elapsed = time.perf_counter() - start
    tally.add(result)
    return elapsed, result


def _report_exception(what: str) -> None:
    print(f"exception in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def profile_tables(prof) -> dict:
    return {
        "induced": list(prof.induced),
        "boundary": list(prof.boundary),
        "induced_witness": [hex(w) for w in prof.induced_witness],
        "boundary_witness": [hex(w) for w in prof.boundary_witness],
    }


def profile_digest(prof) -> str:
    text = json.dumps(profile_tables(prof), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ============================================================
# scan-cube27
# ============================================================

class ScanCube27:
    name = "scan-cube27"
    why = ("full-width 2^27 block scan of complete(3)^3 on nproc threads; "
           "compress DP and graphs pure-Python code are bypassed")

    def setup(self, seed: int, reference: dict) -> dict:
        # complete(3) is vertex-transitive, so the seed has nothing to vary.
        from edgeiso import cli  # noqa: F401  (cold-start cost of the CLI)
        from edgeiso import graphs
        base = graphs.complete(3)
        graphs.cartesian_power(base, 3)
        return {"base": base, "expected": reference["scan-cube27"], "subsets": 1 << 27}

    def run_pass(self, inputs: dict) -> PassResult:
        from edgeiso import compress, solver
        from tracer import Capture
        result = PassResult()
        expected = inputs["expected"]
        try:
            with Capture(solver, "iso_profile") as cap:
                report = compress.power_lex_check(inputs["base"], 3, mode="exhaustive")
        except Exception:
            _report_exception("scan-cube27 pass")
            result.attempted = result.failed = 2
            return result
        cubes = [p for p in cap.results if p.graph.n == 27]
        result.check(len(cubes) == 1 and profile_tables(cubes[0]) == expected["tables"],
                     "scan-cube27 tables and witnesses")
        result.check(report.ok and not report.evidence_only
                     and len(report.rows) == 27 and all(r.ok for r in report.rows),
                     "scan-cube27 lex-prefix report")
        return result


# ============================================================
# casebook
# ============================================================

class Casebook:
    name = "casebook"
    why = ("cli casebook over 15 claims pinned by id: ~475 tiny profiles, "
           "pure-Python edge counting and diagram weights; no 2^27 scan")

    def setup(self, seed: int, reference: dict) -> dict:
        from edgeiso import cli  # noqa: F401
        ids = list(reference["casebook"]["claims"])
        random.Random(seed).shuffle(ids)  # claims are independent; order is the input
        argv = ["casebook", "--json", "--max-seconds", str(CASEBOOK_BUDGET_S)]
        for claim in ids:
            argv += ["--claim", claim]
        return {"argv": argv, "ids": ids,
                "subsets": reference["casebook"]["subsets_per_pass"]}

    def run_pass(self, inputs: dict) -> PassResult:
        from edgeiso import cli
        result = PassResult()
        ids = inputs["ids"]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(inputs["argv"])
            rows = json.loads(out.getvalue())["results"]
        except Exception:
            _report_exception("casebook pass")
            result.attempted = result.failed = len(ids)
            return result
        status = {row["id"]: row["status"] for row in rows}
        result.claim_elapsed = {row["id"]: row["elapsed"] for row in rows}
        for claim in ids:
            result.check(status.get(claim) == "pass", f"casebook claim {claim}")
        result.check(code == 0 and len(rows) == len(ids), "casebook exit code and row count")
        return result


# ============================================================
# square-survey
# ============================================================

def survey_record(g) -> dict:
    """The square-survey pipeline on one graph, reduced to comparable data."""
    from edgeiso import compress, delta, solver
    prof = solver.iso_profile(g)
    search = solver.has_ns(g, prof)
    d = delta.delta_of(prof, ns_order=search.order)
    orders, total = solver.enumerate_optimal_orders(g, profile=prof)
    record = {
        "n": g.n,
        "edges": g.edge_count(),
        "profile_sha256": profile_digest(prof),
        "ns_order": None if search.order is None else list(search.order),
        "deepest": search.deepest,
        "delta": list(d.values),
        "segments": delta.segments_of(d).count,
        "dense": delta.is_delta_dense(d).ok,
        "symmetric": delta.is_symmetric(d).ok,
        "gap_ok": delta.gap_check(d).ok,
        "crosscheck": delta.regularity_crosscheck(g, d).consistent,
        "orders_total": total,
        "orders_first": [list(o.order) for o in orders],
        "lex2": None,
        "chains": None,
    }
    if search.order is not None:
        record["lex2"] = compress.verify_lex_square(g, prof).ok
        survey = compress.enumerate_compressed_optimal_orders(
            g, profile=prof, count_limit=CHAIN_COUNT_LIMIT)
        record["chains"] = {"total": survey.total, "exact": survey.exact,
                            "classifications": list(survey.classifications)}
    return record


def pool_graph(entry: dict):
    from edgeiso import graphs
    return graphs.from_edge_list(entry["n"], [tuple(e) for e in entry["edges"]],
                                 name=entry["name"])


class SquareSurvey:
    name = "square-survey"
    why = ("fixed corpus n=10..20 plus seeded random graphs n=12..16 through "
           "profile, ns, delta, orders, lex2 and chain DFS; 2^27 scan bypassed")

    def setup(self, seed: int, reference: dict) -> dict:
        from edgeiso import cli  # noqa: F401
        from edgeiso import graphs
        survey = reference["square-survey"]
        cases = [(expr, graphs.named(expr), survey["corpus"][expr]) for expr in SQUARE_CORPUS]
        rng = random.Random(seed)
        for n in SQUARE_RANDOM_SIZES:
            entry = rng.choice(survey["pool"][str(n)])
            cases.append((entry["name"], pool_graph(entry), entry["record"]))
        return {"cases": cases, "subsets": sum(1 << g.n for _, g, _ in cases)}

    def run_pass(self, inputs: dict) -> PassResult:
        result = PassResult()
        for label, g, expected in inputs["cases"]:
            try:
                ok = survey_record(g) == expected
            except Exception:
                _report_exception(f"square-survey on {label}")
                ok = False
            result.check(ok, f"square-survey record of {label}")
        return result


WORKLOADS = {w.name: w for w in (ScanCube27(), Casebook(), SquareSurvey())}
