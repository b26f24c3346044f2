"""Compressed sets in two-factor Cartesian products.

Take factors H and G whose vertex labels already follow nested-solution
orders (every initial segment 0..m-1 is an optimal set).  A subset of
the product H x G is *compressed* when every row and every column it
meets is an initial segment.  Such a set is a staircase diagram: column
x holds the cells (x, 0..h_x - 1) and the heights h_0 >= h_1 >= ... are
non-increasing.

For a compressed set the induced-edge count decomposes cell by cell,

    count = sum over cells (x, y) of  dH[x] + dG[y],

where dH, dG are the factor delta sequences, indexed from 0 like the
cells.  A column of height h at x therefore weighs h * dH[x] + P_G[h],
with P_G[h] = dG[0] + ... + dG[h-1]; ``_column_weights`` is the one
place that evaluates it.  That turns "best compressed set of size m"
into a small dynamic program over columns, and chains of diagrams
growing one cell at a time stand in for optimal vertex orders of the
product.  Compression of an arbitrary product set (replacing each row
and column section by an initial segment until fixpoint) never loses
induced edges, which is what makes the diagram optimum the true
optimum.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .delta import DeltaSequence, nested_solution_form
from .errors import CapacityError, InputError
from .graphs import (MAX_VERTICES, Graph, as_mask, bit_indices, cartesian_power,
                     cartesian_product, induced_edges)
from .solver import SCAN_CEILING, IsoProfile, _PrefixDag, iso_profile, verify_order

_NEG = -(1 << 50)  # impossible-state sentinel for the DP tables


class Diagram:
    """A staircase of cells inside an n_h x n_g box.

    ``heights[x]`` is the number of cells in column x; heights are
    validated to be non-increasing and within the box.
    """

    __slots__ = ("heights", "box")

    def __init__(self, heights, box: tuple[int, int]):
        hs = tuple(heights)
        nh, ng = box
        if len(hs) != nh:
            raise InputError(f"need {nh} column heights, got {len(hs)}")
        for x, h in enumerate(hs):
            if not 0 <= h <= ng:
                raise InputError(f"column {x} height {h} outside 0..{ng}")
            if x and h > hs[x - 1]:
                raise InputError(f"heights must be non-increasing, got {hs}")
        self.heights = hs
        self.box = (nh, ng)

    @property
    def size(self) -> int:
        return sum(self.heights)

    def cells(self):
        """Cells (x, y) in column-major order."""
        for x, h in enumerate(self.heights):
            for y in range(h):
                yield (x, y)

    def product_mask(self) -> int:
        """Bit mask of the cells under the (x, y) -> x * n_g + y labeling."""
        nh, ng = self.box
        mask = 0
        for x, h in enumerate(self.heights):
            mask |= ((1 << h) - 1) << (x * ng)
        return mask

    def serialize(self) -> str:
        return ",".join(str(h) for h in self.heights)

    @classmethod
    def parse(cls, text: str, box: tuple[int, int]) -> "Diagram":
        try:
            heights = [int(part) for part in text.split(",")]
        except ValueError:
            raise InputError(f"bad diagram serialization {text!r}")
        return cls(heights, box)

    @classmethod
    def lex_prefix(cls, nh: int, ng: int, m: int) -> "Diagram":
        """First m cells in lex order: fill column 0, then column 1, ..."""
        if not 0 <= m <= nh * ng:
            raise InputError(f"size {m} outside the {nh}x{ng} box")
        full, part = divmod(m, ng)
        heights = [ng] * full + ([part] if part else [])
        heights += [0] * (nh - len(heights))
        return cls(heights, (nh, ng))

    @classmethod
    def colex_prefix(cls, nh: int, ng: int, m: int) -> "Diagram":
        """First m cells in colex order: fill row 0, then row 1, ..."""
        if not 0 <= m <= nh * ng:
            raise InputError(f"size {m} outside the {nh}x{ng} box")
        full, part = divmod(m, nh)
        heights = [full + 1] * part + [full] * (nh - part)
        return cls(heights, (nh, ng))

    def __eq__(self, other) -> bool:
        return isinstance(other, Diagram) and (self.heights, self.box) == (other.heights, other.box)

    def __hash__(self) -> int:
        return hash((self.heights, self.box))

    def __repr__(self) -> str:
        return f"Diagram({self.serialize()})"


def _column_weights(dh: DeltaSequence, dg: DeltaSequence, columns) -> list[int]:
    """h * dH[x] + P_G[h] for each (x, h) in ``columns``: the weight of
    column x at height h."""
    prefix_g = list(itertools.accumulate(dg.values, initial=0))
    gain_h = dh.values
    return [h * gain_h[x] + prefix_g[h] for x, h in columns]


def diagram_weight(dh: DeltaSequence, dg: DeltaSequence, diagram: Diagram) -> int:
    """Cell-sum weight of a diagram; equals the induced-edge count of
    the matching set in the product of the two source graphs."""
    nh, ng = len(dh), len(dg)
    if diagram.box != (nh, ng):
        raise InputError(
            f"diagram box {diagram.box} does not match factors {nh}x{ng}")
    return sum(_column_weights(dh, dg, enumerate(diagram.heights)))


def _column_tables(dh: DeltaSequence, dg: DeltaSequence):
    """Yield ``table[x]`` for x = n_h, ..., 0: ``table[x][u, c]`` is the
    best total weight of columns x.. using u cells, every height at most
    c.  Each needs only the one before, so a caller may drop the rest.

    Each table is stored with c on the row axis, so the loop writes and
    reads whole contiguous rows; the yielded ``.T`` views index [u, c]."""
    nh, ng = len(dh), len(dg)
    total = nh * ng
    after = np.full((ng + 1, total + 1), _NEG, dtype=np.int64)
    after[:, 0] = 0
    yield after.T
    for x in range(nh - 1, -1, -1):
        colw = _column_weights(dh, dg, [(x, h) for h in range(ng + 1)])
        cur = np.empty((ng + 1, total + 1), dtype=np.int64)
        run = np.full(total + 1, _NEG, dtype=np.int64)
        for h in range(ng + 1):
            np.maximum(run[h:], after[h, : total + 1 - h] + colw[h], out=run[h:])
            cur[h] = run
        yield cur.T
        after = cur


def _optima(dh: DeltaSequence, dg: DeltaSequence) -> list[int]:
    """The diagram optimum at every size, keeping two tables at a time."""
    for table in _column_tables(dh, dg):
        pass
    return table[:, len(dg)].tolist()


class DiagramOptimizer:
    """All n_h + 1 column-DP tables of one factor pair, ``tables[x]`` for
    columns x.., kept for witnesses; ``colw[x][h]`` is the weight of
    column x at height h.  ``_optima`` keeps two when no witness is read.
    """

    def __init__(self, dh: DeltaSequence, dg: DeltaSequence):
        self.dh = dh
        self.dg = dg
        nh, ng = len(dh), len(dg)
        self.nh, self.ng = nh, ng
        self.colw = [_column_weights(dh, dg, [(x, h) for h in range(ng + 1)])
                     for x in range(nh)]
        self.tables = list(_column_tables(dh, dg))[::-1]

    def optimum(self, m: int) -> int:
        if not 0 <= m <= self.nh * self.ng:
            raise InputError(f"size {m} outside the {self.nh}x{self.ng} box")
        return int(self.tables[0][m, self.ng])

    def optima(self) -> list[int]:
        return [int(v) for v in self.tables[0][:, self.ng]]

    def witness(self, m: int) -> Diagram:
        """Lexicographically least height vector among the optima."""
        if not 0 <= m <= self.nh * self.ng:
            raise InputError(f"size {m} outside the {self.nh}x{self.ng} box")
        heights = []
        remaining = m
        cap = self.ng
        for x in range(self.nh):
            want = int(self.tables[x][remaining, cap])
            nxt = self.tables[x + 1]
            for h in range(0, min(cap, remaining) + 1):
                if self.colw[x][h] + int(nxt[remaining - h, h]) == want:
                    heights.append(h)
                    remaining -= h
                    cap = h
                    break
            else:  # pragma: no cover - tables are exact
                raise RuntimeError("diagram witness reconstruction failed")
        return Diagram(heights, (self.nh, self.ng))


# ============================================================
# Compression of arbitrary product sets
# ============================================================

def compress_set(h_graph: Graph, g_graph: Graph, cells) -> Diagram:
    """Push a product set into diagram form without losing edges.

    ``cells`` is an iterable of (x, y) pairs, a bit mask, or a
    VertexSet over the product labeling x * n_g + y.  Both factor
    graphs must be labeled by nested-solution orders for the guarantee
    to hold; the result is checked against the input count and a
    violation raises.
    """
    nh, ng = h_graph.n, g_graph.n
    product = cartesian_product(h_graph, g_graph)
    if isinstance(cells, (int,)) or hasattr(cells, "mask"):
        mask = as_mask(product, cells)
        pairs = {divmod(v, ng) for v in bit_indices(mask)}
    else:
        pairs = set()
        for x, y in cells:
            if not (0 <= x < nh and 0 <= y < ng):
                raise InputError(f"cell ({x},{y}) outside the {nh}x{ng} box")
            pairs.add((x, y))
    before = induced_edges(product, _pairs_mask(pairs, ng))

    rounds = 0
    bound = nh * ng * max(nh, ng) + 1
    while True:
        # columns: each x-section becomes an initial segment of G
        new_pairs = set()
        for x in range(nh):
            count = sum(1 for (px, _) in pairs if px == x)
            new_pairs.update((x, y) for y in range(count))
        changed = new_pairs != pairs
        pairs = new_pairs
        # rows: each y-section becomes an initial segment of H
        new_pairs = set()
        for y in range(ng):
            count = sum(1 for (_, py) in pairs if py == y)
            new_pairs.update((x, y) for x in range(count))
        changed = changed or new_pairs != pairs
        pairs = new_pairs
        rounds += 1
        if not changed:
            break
        if rounds > bound:  # pragma: no cover - the potential argument forbids this
            raise RuntimeError("compression failed to reach a fixpoint")

    heights = [0] * nh
    for x, _ in pairs:
        heights[x] += 1
    diagram = Diagram(heights, (nh, ng))
    after = induced_edges(product, diagram.product_mask())
    if diagram.size != len(pairs) or after < before:
        raise RuntimeError(
            "compression lost edges; factor labels are not nested-solution orders")
    return diagram


def _pairs_mask(pairs, ng: int) -> int:
    mask = 0
    for x, y in pairs:
        mask |= 1 << (x * ng + y)
    return mask


# ============================================================
# Chains of diagrams (compressed vertex orders)
# ============================================================

class CompressedChain:
    """A full chain of diagrams adding one cell at a time."""

    __slots__ = ("cells", "box")

    def __init__(self, cells, box: tuple[int, int]):
        self.cells = tuple(cells)
        self.box = box
        if len(self.cells) != box[0] * box[1]:
            raise InputError("chain must place every cell of the box")

    def diagram(self, m: int) -> Diagram:
        nh, ng = self.box
        heights = [0] * nh
        for x, _ in self.cells[:m]:
            heights[x] += 1
        return Diagram(heights, self.box)

    def classify(self) -> str:
        nh, ng = self.box
        if self.cells == tuple(Diagram.lex_prefix(nh, ng, nh * ng).cells()):
            return "lex"
        if self.cells == _colex_cells(nh, ng):
            return "colex"
        return "other"

    def __eq__(self, other) -> bool:
        return isinstance(other, CompressedChain) and (self.cells, self.box) == (other.cells, other.box)

    def __repr__(self) -> str:
        return f"CompressedChain({self.classify()}, box={self.box})"


def _colex_cells(nh: int, ng: int) -> tuple[tuple[int, int], ...]:
    return tuple((x, y) for y in range(ng) for x in range(nh))


def lex_chain(nh: int, ng: int) -> CompressedChain:
    return CompressedChain(tuple(Diagram.lex_prefix(nh, ng, nh * ng).cells()), (nh, ng))


def colex_chain(nh: int, ng: int) -> CompressedChain:
    return CompressedChain(_colex_cells(nh, ng), (nh, ng))


class ChainSurvey(NamedTuple):
    """Outcome of enumerating optimal diagram chains."""
    chains: tuple[CompressedChain, ...]
    total: int
    exact: bool  # False when the count stopped at the count limit
    classifications: tuple[str, ...]


def enumerate_compressed_optimal_orders(g: Graph, cap: int = 10,
                                        profile: IsoProfile | None = None,
                                        count_limit: int = 10_000) -> ChainSurvey:
    """All diagram chains for g x g whose every prefix hits the
    compressed optimum.  Existence of any full chain certifies nested
    solutions for the square, with compressed witnesses."""
    _, d = nested_solution_form(g, profile)
    return _enumerate_chains(d, d, cap=cap, count_limit=count_limit)


def _enumerate_chains(dh: DeltaSequence, dg: DeltaSequence, cap: int,
                      count_limit: int) -> ChainSurvey:
    nh, ng = len(dh), len(dg)
    optima = _optima(dh, dg)
    steps = [optima[k + 1] - optima[k] for k in range(nh * ng)]
    gain_h, gain_g = dh.values, dg.values  # cell (x, y) weighs gain_h[x] + gain_g[y]

    def moves(heights: tuple[int, ...], size: int):
        want = steps[size]
        for x in range(nh):
            h = heights[x]
            if h < ng and (x == 0 or heights[x - 1] > h) and gain_h[x] + gain_g[h] == want:
                yield (x, h), heights[:x] + (h + 1,) + heights[x + 1:]

    dag = _PrefixDag(nh * ng, (0,) * nh, moves)
    limit = max(count_limit, 1)  # the first full chain is always counted
    total = dag.count(limit)
    chains = tuple(CompressedChain(cells, (nh, ng)) for cells in dag.paths(min(cap, limit)))
    return ChainSurvey(chains, total, total < limit,
                       tuple(c.classify() for c in chains))


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


def _lex_power_rows(dg: DeltaSequence, d: int) -> tuple[int, tuple[SizeCheck, ...]]:
    """Lex prefixes of g^k against the exact optimum, inducting on k.

    ``dg`` is the delta of g in nested-solution form.  Write g^k =
    g^(k-1) x g.  Lex is optimal on g^(k-1) by the step before, so it is
    a nested-solution order there and its prefix differences are the
    left factor's delta; the diagram DP then gives the exact optimum of
    g^k per size.  Returns (k, rows) for the first power k where lex
    fails, or (d, rows of g^d) when it holds on every power up to d.
    A failing row's witness is the serialized optimal diagram.
    """
    rows = tuple(SizeCheck(m, w, w, True, None)
                 for m, w in enumerate(itertools.accumulate(dg), start=1))
    dh = dg
    for k in range(2, d + 1):
        nh, ng = len(dh), len(dg)
        gain_h, gain_g = dh.values, dg.values
        steps = [gain_h[x] + gain_g[y] for x, y in Diagram.lex_prefix(nh, ng, nh * ng).cells()]
        optima = _optima(dh, dg)
        rows = tuple(SizeCheck(m, w, optima[m], w == optima[m], None)
                     for m, w in enumerate(itertools.accumulate(steps), start=1))
        if not all(row.ok for row in rows):
            opt = DiagramOptimizer(dh, dg)  # all n_h + 1 tables, for this power's witnesses
            return k, tuple(row if row.ok else row._replace(witness=opt.witness(row.size).serialize())
                            for row in rows)
        dh = DeltaSequence(steps)
    return d, rows


def verify_lex_square(g: Graph, profile: IsoProfile | None = None) -> OptimalityReport:
    """Is the lex chain optimal at every size of g x g?

    The graph is first relabeled by its nested-solution order; the lex
    prefix weights are then compared against the diagram DP optimum for
    each of the n^2 sizes.  Exact, not sampled.
    """
    _, d = nested_solution_form(g, profile)
    _, rows = _lex_power_rows(d, 2)
    return OptimalityReport(
        subject=f"lex chain on {g.display_name()} squared",
        rows=rows, ok=all(row.ok for row in rows), evidence_only=False,
        note="diagram DP optimum per size, factors in nested-solution form")


def power_lex_check(g: Graph, d: int, mode: str = "exhaustive",
                    profile: IsoProfile | None = None) -> OptimalityReport:
    """Compare numeric-prefix sets of a power graph against the optimum.

    The base graph is relabeled by its nested-solution order, so the
    first m labels of the power are the lex-least m coordinate tuples.
    ``exhaustive`` scans all 2^(n^d) subsets of the power, up to the
    32-vertex scan ceiling.  ``compressed`` inducts on the power with the
    diagram DP and reaches the graph cap.  When lex first fails at a power
    k < d, its report covers g^k: a lex prefix of g^k sits in a copy of
    g^k inside g^d, so it fails in g^d too.
    """
    if mode not in ("exhaustive", "compressed"):
        raise InputError(f"unknown mode {mode!r}; use exhaustive or compressed")
    if d < 1:
        raise InputError(f"power exponent must be at least 1, got {d}")
    if g.n ** d > MAX_VERTICES:
        raise CapacityError(
            f"power on {g.n}^{d} vertices exceeds the {MAX_VERTICES}-vertex cap")
    if mode == "exhaustive" and g.n ** d > SCAN_CEILING:
        raise CapacityError(
            f"exhaustive check of {g.n}^{d} vertices exceeds the {SCAN_CEILING}-vertex "
            f"ceiling; the compressed mode reaches further")
    base, dg = nested_solution_form(g, profile)
    name = g.display_name()
    if mode == "compressed":
        k, rows = _lex_power_rows(dg, d)
        subject = f"lex prefixes of {name}^{k}"
        note = f"iterated diagram DP, exact optima of powers 1..{k}"
        if k < d:
            subject += f", the first failing power of {name}^{d}"
            note += f"; a failing lex prefix of {name}^{k} fails in {name}^{d} too"
        return OptimalityReport(subject, rows, all(row.ok for row in rows), False, note)

    gp = cartesian_power(base, d)
    prof = iso_profile(gp)
    prefixes = verify_order(gp, range(gp.n), prof)
    rows = tuple(SizeCheck(m, cand, best, good,
                           None if good else hex(prof.induced_witness[m]))
                 for m, cand, best, good in prefixes.rows)
    return OptimalityReport(f"lex prefixes of {name}^{d}", rows, prefixes.ok, False,
                            note=f"exhaustive scan of 2^{gp.n} subsets")
