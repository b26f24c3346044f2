"""Command line front end.

Graphs are given either as an edge-list file path or as a constructor
expression (complete(4), join(X,Y), power(complete(2),3), ...).  Exit
codes: 0 all requested checks passed, 1 a check failed, 2 bad usage or
input, 3 capacity exceeded, 4 an internal invariant was violated (a
solver self-check), 141 stdout was closed early (as by ``| head``; the
shell's SIGPIPE status).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import casebook as casebook_mod
from . import compress as compress_mod
from . import delta as delta_mod
from . import solver as solver_mod
from .errors import CapacityError, InputError, NsRequiredError
from .graphs import is_regular, load_graph

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def cmd_delta(args) -> int:
    g = load_graph(args.graph)
    prof = solver_mod.iso_profile(g)
    search = solver_mod.has_ns(g, prof)
    d = delta_mod.delta_of(prof, ns_order=search.order)
    payload = d.to_dict()
    regular, _ = is_regular(g)
    # delta symmetry must coincide with regularity, as in regularity_crosscheck
    consistent = payload["symmetric"] == regular
    payload["regular"] = regular
    payload["crosscheck_consistent"] = consistent
    payload["has_ns"] = search.order is not None
    lines = [
        f"graph: {g.display_name()}  (n={g.n}, edges={g.edge_count()})",
        f"delta: {d}",
        f"segments: {len(payload['segments'])}  starts: {tuple(payload['starts'])}",
        f"delta-dense: {payload['delta_dense']}   symmetric: {payload['symmetric']}   "
        f"regular: {regular}",
        f"nested solutions: {'yes' if search.order is not None else 'no'}",
    ]
    if not search.order:
        lines.append("note: segment structure reported outside the nested-solution setting")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if consistent else EXIT_CHECK_FAILED


def cmd_solve(args) -> int:
    g = load_graph(args.graph)
    prof = solver_mod.iso_profile(g)
    if args.csv:
        print(prof.to_csv(), end="")
        return EXIT_OK
    rows = [f"{m:>4} {prof.induced[m]:>8} {prof.boundary[m]:>9}   "
            f"{hex(prof.induced_witness[m])}" for m in range(g.n + 1)]
    human = (f"graph: {g.display_name()}  (n={g.n}, edges={g.edge_count()})\n"
             + f"{'m':>4} {'induced':>8} {'boundary':>9}   witness\n" + "\n".join(rows))
    _emit(args, prof.to_dict(), human)
    return EXIT_OK


def cmd_ns(args) -> int:
    g = load_graph(args.graph)
    prof = solver_mod.iso_profile(g)
    search = solver_mod.has_ns(g, prof)
    payload = {
        "graph": g.display_name(),
        "has_ns": search.order is not None,
        "order": list(search.order) if search.order else None,
        "deepest_optimal_prefix": search.deepest,
    }
    if search.order is not None:
        report = solver_mod.verify_order(g, search.order, prof)
        payload["verified"] = report.ok
        human = (f"{g.display_name()}: nested solutions found\n"
                 f"order: {' '.join(str(v) for v in search.order)}\n"
                 f"every prefix optimal: {report.ok}")
    else:
        human = (f"{g.display_name()}: no nested solutions "
                 f"(deepest optimal prefix: {search.deepest} of {g.n})")
    _emit(args, payload, human)
    return EXIT_OK


def cmd_orders(args) -> int:
    g = load_graph(args.graph)
    orders, total = solver_mod.enumerate_optimal_orders(g, cap=args.listed)
    payload = {
        "graph": g.display_name(),
        "total": total,
        "listed": [list(o.order) for o in orders],
    }
    lines = [f"{g.display_name()}: {total} optimal orders (showing {len(orders)})"]
    lines.extend(" ".join(str(v) for v in o.order) for o in orders)
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_uniqueness(args) -> int:
    g = load_graph(args.graph)
    prof = solver_mod.iso_profile(g)
    d = delta_mod.delta_of(prof)
    dense = delta_mod.is_delta_dense(d)
    listed, limit = args.chains_listed, args.count_limit
    if dense.ok:
        # the verdict classifies two chains and counts past two, whatever is listed
        listed, limit = max(listed, 2), max(limit, 3)
    survey = compress_mod.enumerate_compressed_optimal_orders(
        g, cap=listed, profile=prof, count_limit=limit)
    payload = {
        "graph": g.display_name(),
        "delta_dense": dense.ok,
        "total_chains": survey.total,
        "count_exact": survey.exact,
        "classifications": list(survey.classifications[:args.chains_listed]),
    }
    count_txt = f"{survey.total}" if survey.exact else f">= {survey.total}"
    if dense.ok:
        unique = survey.exactly_lex_and_colex
        payload["exactly_lex_and_colex"] = unique
        human = (f"{g.display_name()} squared: {count_txt} compressed optimal orders; "
                 f"exactly lex and colex: {unique}")
        _emit(args, payload, human)
        return EXIT_OK if unique else EXIT_CHECK_FAILED
    payload["exploratory"] = True
    human = (f"{g.display_name()} is not delta-dense; exploratory listing only\n"
             f"compressed optimal orders: {count_txt}; "
             f"kinds seen: {sorted(set(survey.classifications))}")
    _emit(args, payload, human)
    return EXIT_OK


def cmd_lex2(args) -> int:
    g = load_graph(args.graph)
    report = compress_mod.verify_lex_square(g)
    failures = report.failures()
    human = (f"{report.subject}: "
             + ("optimal at all sizes" if report.ok else
                f"fails at sizes {[r.size for r in failures[:10]]}"))
    if failures:
        worst = failures[0]
        human += (f"\nfirst failure: size {worst.size}, lex {worst.candidate} "
                  f"< optimum {worst.optimum} (witness heights {worst.witness})")
    _emit(args, report.to_dict(), human)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_power_check(args) -> int:
    g = load_graph(args.graph)
    report = compress_mod.power_lex_check(g, args.d, mode=args.mode)
    failures = report.failures()
    human = f"{report.subject} ({report.note}): " + ("ok" if report.ok else "FAILED")
    if failures:
        worst = failures[0]
        human += f"\nfirst failure: size {worst.size}, {worst.candidate} vs {worst.optimum}"
    _emit(args, report.to_dict(), human)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def cmd_casebook(args) -> int:
    if args.list:
        for claim in casebook_mod.CLAIMS:
            print(f"{claim.id:<24} {claim.statement}")
        return EXIT_OK
    ids = args.claim if args.claim else None
    results = casebook_mod.run_casebook(ids, max_seconds=args.max_seconds)
    payload = {"results": [r.to_dict() for r in results]}
    lines = []
    for r in results:
        lines.append(f"[{r.status:>13}] {r.id:<24} ({r.elapsed:.2f}s)")
        if r.status in ("fail", "error"):
            lines.append(f"    {json.dumps(r.artifacts)}")
        elif r.status == "skipped":
            lines.append(f"    {r.artifacts.get('reason', '')}")
    tally = {status: sum(r.status == status for r in results)
             for status in ("pass", "skipped", "fail", "error")}
    lines.append(f"{len(results)} claims: "
                 + ", ".join(f"{count} {status}" for status, count in tally.items()))
    _emit(args, payload, "\n".join(lines))
    if tally["error"]:
        return EXIT_INTERNAL
    return EXIT_CHECK_FAILED if tally["fail"] else EXIT_OK


def _at_least(floor: int):
    """An argparse type: an int no less than ``floor``, else a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeiso",
        description="Exact edge-isoperimetric computations on small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        # no prefix matching: a stale --cap on uniqueness must not mean --cap-chains
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("delta", cmd_delta, "delta sequence, segments, density, symmetry")
    p.add_argument("graph")

    p = add("solve", cmd_solve, "full induced/boundary optimum tables")
    p.add_argument("graph")
    p.add_argument("--csv", action="store_true", help="CSV profile output")

    p = add("ns", cmd_ns, "search for a nested-solution order")
    p.add_argument("graph")

    p = add("orders", cmd_orders, "enumerate optimal orders")
    p.add_argument("graph")
    p.add_argument("--cap", type=_at_least(0), default=10, dest="listed",
                   help="how many orders to list")

    p = add("uniqueness", cmd_uniqueness, "compressed optimal orders of the square")
    p.add_argument("graph")
    p.add_argument("--cap-chains", type=_at_least(0), default=10, dest="chains_listed",
                   help="how many chains to list")
    p.add_argument("--count-limit", type=_at_least(1), default=10_000, dest="count_limit",
                   help="stop counting chains past this many")

    p = add("lex2", cmd_lex2, "is the lex chain optimal at every size of g squared")
    p.add_argument("graph")

    p = add("power-check", cmd_power_check, "are numeric prefixes optimal in g^d")
    p.add_argument("graph")
    p.add_argument("--d", type=int, required=True, help="power exponent")
    p.add_argument("--mode", choices=["exhaustive", "compressed"], default="exhaustive",
                   help="scan every subset, or induct on d with the diagram DP")

    p = add("casebook", cmd_casebook, "re-run the recorded claims")
    p.add_argument("--claim", action="append", help="run only this claim id (repeatable)")
    p.add_argument("--list", action="store_true", help="list claim ids and statements")
    p.add_argument("--max-seconds", type=int, default=120, dest="max_seconds",
                   help="time budget; slow claims outside it are reported as skipped")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (InputError, NsRequiredError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except RuntimeError as exc:  # a self-check found a solver bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left: stop quietly, and point stdout at /dev/null so
        # the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
