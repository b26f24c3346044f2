"""Compressed sets in two-factor Cartesian products.

Take factors H and G whose vertex labels already follow nested-solution
orders (every initial segment 0..m-1 is an optimal set).  A subset of
the product H x G is *compressed* when every row and every column it
meets is an initial segment.  Such a set is a staircase diagram: column
x holds the cells (x, 0..h_x - 1) and the heights h_0 >= h_1 >= ... are
non-increasing.  Here a staircase is its column heights alone, n_h ints
in a sequence or in one row of an int array; ``staircase_members`` is
the one map from heights to product vertices.

For a compressed set the induced-edge count decomposes cell by cell,

    count = sum over cells (x, y) of  dH[x] + dG[y],

where dH, dG are the factor delta sequences, indexed from 0 like the
cells.  A column of height h at x therefore weighs h * dH[x] + P_G[h],
with P_G[h] = dG[0] + ... + dG[h-1]; ``_column_weights`` is the one
place that evaluates it, as an (n_h x n_g + 1) table.  That turns "best
compressed set of size m" into a dynamic program over columns, one
skewed numpy add and a running maximum over heights per column, on the
sizes the remaining columns can hold.  Compression of an arbitrary
product set (replacing each row and column section by an initial
segment until fixpoint) never loses induced edges, which is what makes
the diagram optimum the true optimum; ``tests/conftest.py`` keeps it as
an oracle.

Chains of diagrams growing one cell at a time stand in for optimal
vertex orders of the product.  The chain walker keys a diagram by its
boundary path: the n_h + n_g unit steps of the staircase's outline,
walked from the box's top-left corner down and right to its
bottom-right corner, packed into an int with the first step in bit 0,
1 for a step right along a column's top and 0 for a step down.  Column
x of height h_x is the 1 at bit n_g + x - h_x.  A cell that may be
added sits in a corner, a step down followed by a step right, and
adding it swaps those two bits.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

import numpy as np

from .delta import DeltaSequence, nested_solution_form, ns_delta
from .errors import CapacityError, InputError
from .graphs import Graph, capped_power, cartesian_power
from .solver import SCAN_CEILING, IsoProfile, _walk, iso_profile, verify_order

_NEG = -(1 << 50)  # impossible-state sentinel for the DP tables

# Compressed mode's bound on the cells its top power's DP fills once each,
# (n_h + 1)(n_h * n + 1)(n + 1) for g^d with n_h = n^(d-1): 2^26 admits
# complete(3)^8 (57.5 M) and refuses complete(2)^13 (100.7 M).
MAX_DP_CELLS = 1 << 26


def staircase_members(heights, ng: int) -> np.ndarray:
    """Product-vertex membership of many staircases at once.

    ``heights`` is a (k x n_h) array, one staircase's column heights per
    row.  Row i of the (k x n_h * n_g) boolean result marks the cells of
    staircase i: cell (x, y) is product vertex x * n_g + y, and it is in
    the set iff y < heights[i, x].
    """
    heights = np.asarray(heights)
    k, nh = heights.shape
    return (np.arange(ng) < heights[:, :, None]).reshape(k, nh * ng)


def _column_weights(dh: DeltaSequence, dg: DeltaSequence) -> np.ndarray:
    """The (n_h x n_g + 1) int64 table whose entry [x, h] is
    h * dH[x] + P_G[h], the weight of column x at height h."""
    prefix_g = np.cumsum((0,) + dg.values, dtype=np.int64)
    gain_h = np.array(dh.values, dtype=np.int64)
    return gain_h[:, None] * np.arange(len(dg) + 1) + prefix_g


def _staircase(heights, nh: int, ng: int) -> tuple[int, ...]:
    """``heights`` as ints, checked to be a staircase in the n_h x n_g
    box: n_h integers in 0..n_g, none above the one before it."""
    hs = tuple(heights)
    try:
        hs = tuple(map(operator.index, hs))  # a float would pass the range checks
    except TypeError:
        raise InputError(f"column heights must be integers, got {hs}")
    if len(hs) != nh:
        raise InputError(f"need {nh} column heights, got {len(hs)}")
    for x, h in enumerate(hs):
        if not 0 <= h <= ng:
            raise InputError(f"column {x} height {h} outside 0..{ng}")
        if x and h > hs[x - 1]:
            raise InputError(f"heights must be non-increasing, got {hs}")
    return hs


def diagram_weight(dh: DeltaSequence, dg: DeltaSequence, heights) -> int:
    """Cell-sum weight of the staircase with these column heights, checked
    to lie in the len(dh) x len(dg) box; equals the induced-edge count of
    the matching set in the product of the two source graphs."""
    nh, ng = len(dh), len(dg)
    return int(_column_weights(dh, dg)[np.arange(nh), _staircase(heights, nh, ng)].sum())


def _column_tables(dh: DeltaSequence, dg: DeltaSequence, kept: int | None = None):
    """Yield ``table[x]`` for x = n_h, ..., 0: ``table[x][u, c]`` is the
    best total weight of columns x.. using u cells, every height at most
    c.  Each needs only the one before.

    A table is stored with c on the row axis behind a left pad of n_g
    ``_NEG`` columns; the yielded ``.T`` views skip the pad and index
    [u, c].  Column x at height h adds colw[x, h] to after[h, u - h].
    Read as rows one entry shorter, the flat buffer shifts row h left by
    h, so one skewed add gives every (h, u) at once, with u < h landing
    in the pad.  A running maximum down the h axis, one numpy call per
    column, then turns "height h" into "height at most c".  Only sizes
    u <= (n_h - x) * n_g fit in columns x..; the rest stay ``_NEG``.

    Table x is written into buffer x % b of the b = ``kept`` buffers
    (all n_h + 1 by default), cut from one ``np.full`` of ``_NEG``, so
    the last b tables yielded stay valid.  Reuse is exact: buffer x % b
    last held table x + b, whose writes reach only sizes up to
    (n_h - x - b) * n_g.  Table x writes every h row at every size up to
    (n_h - x) * n_g, so it overwrites all of them, and what lies past
    its sizes is still ``_NEG``.  No table writes the pad.
    """
    nh, ng = len(dh), len(dg)
    width = ng + nh * ng + 1  # the pad, then sizes 0..n_h * n_g
    b = nh + 1 if kept is None else kept
    colw = _column_weights(dh, dg)
    buffers = np.full((b, ng + 1, width), _NEG, dtype=np.int64)
    after = buffers[nh % b]
    after[:, ng] = 0
    yield after[:, ng:].T
    for x in range(nh - 1, -1, -1):
        feasible = (nh - x) * ng + 1
        # skewed[h, u] is after's flat entry h * width + ng + u - h: after[h, u - h]
        skewed = after.reshape(-1)[ng:ng + (ng + 1) * (width - 1)].reshape(ng + 1, width - 1)
        cur = buffers[x % b]
        best = cur[:, ng:ng + feasible]
        np.add(skewed[:, :feasible], colw[x, :, None], out=best)
        np.maximum.accumulate(best, axis=0, out=best)
        yield cur[:, ng:].T
        after = cur


def _optima(dh: DeltaSequence, dg: DeltaSequence) -> list[int]:
    """The diagram optimum at every size, in two reused table buffers."""
    for table in _column_tables(dh, dg, 2):
        pass
    return table[:, len(dg)].tolist()


class DiagramOptimizer:
    """All n_h + 1 column-DP tables of one factor pair, ``tables[x]`` for
    columns x.., kept for witnesses; ``colw[x, h]`` is the weight of
    column x at height h.  ``_optima`` keeps two when no witness is read.

    ``tables[x][u, c]`` is a running maximum over heights h <= c, so the
    least height that column x of an optimum of u cells under cap c can
    take is the least h with ``tables[x][u, h] == tables[x][u, c]``: one
    table row per column is all ``witnesses`` reads, and a failing
    square costs n_h numpy steps however many of its rows fail.
    """

    def __init__(self, dh: DeltaSequence, dg: DeltaSequence):
        self.nh, self.ng = len(dh), len(dg)
        self.colw = _column_weights(dh, dg)
        self.tables = list(_column_tables(dh, dg))[::-1]

    def _check_size(self, m) -> int:
        m = operator.index(m)  # a float would truncate in an int64 index
        if not 0 <= m <= self.nh * self.ng:
            raise InputError(f"size {m} outside the {self.nh}x{self.ng} box")
        return m

    def optimum(self, m: int) -> int:
        return int(self.tables[0][self._check_size(m), self.ng])

    def optima(self) -> list[int]:
        return self.tables[0][:, self.ng].tolist()

    def witnesses(self, sizes) -> np.ndarray:
        """The (len(sizes) x n_h) int64 array whose row i is, for m =
        sizes[i], the lexicographically least height vector among the
        optima of size m.

        All sizes walk the columns together: at column x each gathers its
        row ``tables[x][remaining]`` and takes the least h where that
        running maximum reaches its value at ``cap``, the height of the
        column before.
        That h is at most cap, and a height above the cells remaining
        reads the pad, so never reaches an optimum.  Every finished row
        is then recounted: its heights must sum to m and its column
        weights to ``tables[0][m, n_g]``.
        """
        sizes = [self._check_size(m) for m in sizes]
        remaining = np.array(sizes, dtype=np.int64)
        cap = np.full(len(sizes), self.ng, dtype=np.int64)
        rows = np.arange(len(sizes))
        heights = np.empty((len(sizes), self.nh), dtype=np.int64)
        for x in range(self.nh):
            best = self.tables[x][remaining]
            h = (best == best[rows, cap][:, None]).argmax(axis=1)
            heights[:, x] = h
            remaining -= h
            cap = h
        # each h <= cap, the height before it, and h <= ng: the rows are staircases
        weights = self.colw[np.arange(self.nh), heights].sum(axis=1)
        if remaining.any() or (weights != self.tables[0][sizes, self.ng]).any():
            raise RuntimeError("diagram witness reconstruction failed")  # a corrupt table
        return heights


# ============================================================
# Chains of diagrams (compressed vertex orders)
# ============================================================

@functools.cache
def _lex_cells(nh: int, ng: int) -> tuple[tuple[int, int], ...]:
    """Every cell of the box in lex order: column 0 bottom to top, then column 1, ..."""
    return tuple((x, y) for x in range(nh) for y in range(ng))


@functools.cache
def _colex_cells(nh: int, ng: int) -> tuple[tuple[int, int], ...]:
    """Every cell of the box in colex order: row 0 left to right, then row 1, ..."""
    return tuple((x, y) for y in range(ng) for x in range(nh))


def _classify_chain(cells, box: tuple[int, int]) -> str:
    """Which order a chain's (x, y) cells follow: "lex", "colex" or "other"."""
    if cells == _lex_cells(*box):
        return "lex"
    if cells == _colex_cells(*box):
        return "colex"
    return "other"


class ChainSurvey(NamedTuple):
    """Outcome of enumerating optimal diagram chains; each listed chain
    is its tuple of (x, y) cells in the order they are added."""
    chains: tuple[tuple[tuple[int, int], ...], ...]
    total: int
    exact: bool  # False when the count stopped at the count limit
    classifications: tuple[str, ...]

    @property
    def exactly_lex_and_colex(self) -> bool:
        """Is the set of optimal chains {lex, colex}?  In a box of one row
        or one column the two are one chain.  Decided only by a survey
        that lists every chain, so at least 2, and counts to at least 3."""
        if not (self.exact and self.chains and len(self.chains) == self.total):
            return False
        x, y = self.chains[0][-1]  # every full chain ends at the box's far corner
        return set(self.chains) == {_lex_cells(x + 1, y + 1), _colex_cells(x + 1, y + 1)}


def enumerate_compressed_optimal_orders(g: Graph, cap: int = 10,
                                        profile: IsoProfile | None = None,
                                        count_limit: int = 10_000) -> ChainSurvey:
    """All diagram chains for g x g whose every prefix hits the
    compressed optimum.  Existence of any full chain certifies nested
    solutions for the square, with compressed witnesses."""
    d = ns_delta(g, profile)
    return _enumerate_chains(d, d, cap=cap, count_limit=count_limit)


def _enumerate_chains(dh: DeltaSequence, dg: DeltaSequence, cap: int,
                      count_limit: int) -> ChainSurvey:
    nh, ng = len(dh), len(dg)
    optima = _optima(dh, dg)
    steps = [optima[k + 1] - optima[k] for k in range(nh * ng)]
    gain_h, gain_g = dh.values, dg.values  # cell (x, y) weighs gain_h[x] + gain_g[y]

    def moves(path: int, size: int):
        # a corner (bit i a step down, bit i + 1 a step right) is a cell that
        # may be added; lower bits belong to lower columns, so x ascends
        want = steps[size]
        corners = (path >> 1) & ~path
        while corners:
            low = corners & -corners
            x = (path & (low - 1)).bit_count()
            h = ng - low.bit_length() + x
            if gain_h[x] + gain_g[h] == want:
                yield (x, h), path ^ (low * 3)
            corners ^= low

    limit = max(count_limit, 1)  # the first full chain is always counted
    # the empty diagram's boundary: n_g row steps below n_h column steps
    chains, total, _ = _walk(nh * ng, ((1 << nh) - 1) << ng, moves, min(cap, limit), limit)
    return ChainSurvey(tuple(chains), total, total < limit,
                       tuple(_classify_chain(cells, (nh, ng)) for cells in chains))


# ============================================================
# Optimality reports for candidate orders
# ============================================================

class SizeCheck(NamedTuple):
    size: int
    candidate: int
    optimum: int
    ok: bool
    witness: str | None  # a better witness when the check fails

    def to_dict(self) -> dict:
        return {"size": self.size, "candidate": self.candidate,
                "optimum": self.optimum, "pass": self.ok, "witness": self.witness}


class OptimalityReport(NamedTuple):
    subject: str
    rows: tuple[SizeCheck, ...]
    ok: bool
    evidence_only: bool  # always False: every optimum reported is exact
    note: str

    def failures(self) -> list[SizeCheck]:
        return [row for row in self.rows if not row.ok]

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "rows": [row.to_dict() for row in self.rows],
            "ok": self.ok,
            "evidence_only": self.evidence_only,
            "note": self.note,
        }


def _lex_powers(dg: DeltaSequence):
    """Yield (k, lex rows of g^k) for k = 1, 2, ..., each power once and
    only when asked for; power 1 is g itself.

    ``dg`` is the delta of g in nested-solution form.  Write g^k =
    g^(k-1) x g.  Lex is optimal on g^(k-1) by the power before, so it
    is a nested-solution order there and its prefix differences are the
    left factor's delta; the diagram DP then gives the exact optimum of
    g^k per size.  Lex adds the box's cells column by column, so its
    prefix weights are one cumsum of the raveled outer sum of the two
    deltas.  The walk stops after a failing square, a failing row's
    witness the optimal heights joined by commas.  Only the square keeps
    its full table set, for witnesses: by Ahlswede and Cai's local-global
    principle, lex optimal on g^2 is optimal on every power, so a later
    failing power raises RuntimeError, a solver bug.  A passing walk
    never ends; every power of one vertex is that vertex.
    """
    gain_g = np.array(dg.values, dtype=np.int64)
    gain_h, found = gain_g, {}
    lex = optima = np.cumsum(gain_g)
    for k in itertools.count(1):
        sizes = range(1, len(lex) + 1)
        yield k, tuple(map(SizeCheck, sizes, lex.tolist(), optima.tolist(),
                           (lex == optima).tolist(), map(found.get, sizes)))
        if found:
            return
        square = DiagramOptimizer(dg, dg) if k == 1 else None
        optima = np.array(_optima(DeltaSequence(gain_h.tolist()), dg) if square is None
                          else square.optima())[1:]
        gain_h = (gain_h[:, None] + gain_g).ravel()
        lex = np.cumsum(gain_h)
        failing = (np.flatnonzero(lex != optima) + 1).tolist()
        if failing and square is None:
            raise RuntimeError(f"lex fails on power {k + 1} after passing on the square, "
                               f"against Ahlswede-Cai; solver bug")
        if failing:
            digits = [str(h) for h in range(len(dg) + 1)]
            found = {m: ",".join([digits[h] for h in hs])
                     for m, hs in zip(failing, square.witnesses(failing).tolist())}


def verify_lex_square(g: Graph, profile: IsoProfile | None = None) -> OptimalityReport:
    """Is the lex chain optimal at every size of g x g?

    Both factors take the delta of g under its nested-solution order; the
    lex prefix weights are then compared against the diagram DP optimum
    for each of the n^2 sizes.  Exact, not sampled.
    """
    _, (_, rows) = itertools.islice(_lex_powers(ns_delta(g, profile)), 2)
    return OptimalityReport(
        subject=f"lex chain on {g.display_name()} squared",
        rows=rows, ok=all(row.ok for row in rows), evidence_only=False,
        note="diagram DP optimum per size, factors in nested-solution form")


def power_lex_check(g: Graph, d: int, mode: str = "exhaustive",
                    profile: IsoProfile | None = None) -> OptimalityReport:
    """Compare numeric-prefix sets of a power graph against the optimum.

    Labels follow a nested-solution order of the base graph, so the
    first m labels of the power are the lex-least m coordinate tuples.
    ``exhaustive`` scans all 2^(n^d) subsets of the relabeled power, up
    to the 32-vertex scan ceiling.  ``compressed`` walks the powers 2..d
    once, one diagram DP on delta sequences each, up to ``MAX_DP_CELLS``.  When
    lex fails on the square and d > 2, the report covers g^2: a lex
    prefix of g^2 sits in a copy of g^2 inside g^d, so fails there too.
    """
    d = operator.index(d)  # a float would never equal a power the walk yields
    if mode not in ("exhaustive", "compressed"):
        raise InputError(f"unknown mode {mode!r}; use exhaustive or compressed")
    if d < 1:
        raise InputError(f"power exponent must be at least 1, got {d}")
    name = g.display_name()
    if mode == "compressed":
        nh = capped_power(g.n, d - 1, MAX_DP_CELLS)
        if (nh + 1) * (nh * g.n + 1) * (g.n + 1) > MAX_DP_CELLS:
            raise CapacityError(
                f"compressed check of {g.n}^{d} vertices exceeds the {MAX_DP_CELLS}-cell "
                f"bound on its column DP")
        for k, rows in _lex_powers(ns_delta(g, profile)):
            if g.n == 1:
                k = d  # every power of one vertex is that vertex
            if k == d:
                break
        subject = f"lex prefixes of {name}^{k}"
        note = f"iterated diagram DP, exact optima of powers 1..{k}"
        if k < d:
            subject += f", the first failing power of {name}^{d}"
            note += f"; a failing lex prefix of {name}^{k} fails in {name}^{d} too"
        return OptimalityReport(subject, rows, all(row.ok for row in rows), False, note)

    if capped_power(g.n, d, SCAN_CEILING) > SCAN_CEILING:
        raise CapacityError(
            f"exhaustive check of {g.n}^{d} vertices exceeds the {SCAN_CEILING}-vertex "
            f"ceiling; the compressed mode reaches further")
    base, _ = nested_solution_form(g, profile)
    gp = cartesian_power(base, d)
    prof = iso_profile(gp)
    prefixes = verify_order(gp, range(gp.n), prof)
    rows = tuple(SizeCheck(m, cand, best, good,
                           None if good else hex(prof.induced_witness[m]))
                 for m, cand, best, good in prefixes.rows)
    return OptimalityReport(f"lex prefixes of {name}^{d}", rows, prefixes.ok, False,
                            note=f"exhaustive scan of 2^{gp.n} subsets")
