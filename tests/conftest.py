"""Shared fixtures and independent oracles for the test suite.

The brute-force helpers here deliberately avoid the package's bit-mask
machinery: they count edges straight off (u, v) lists with Python sets,
so agreement with the solvers is a genuine cross-check rather than the
same code called twice.  It also keeps reference versions of
production code: the column DP one height at a time, the chain walker
over column heights, the frame-per-state prefix walker, the chain
survey that walks a square's whole DAG, and the compression of
arbitrary product sets.
"""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from edgeiso.compress import ChainSurvey, _classify_chain, _optima
from edgeiso.delta import DeltaSequence
from edgeiso.errors import InputError
from edgeiso.graphs import (Graph, as_mask, bit_indices, cartesian_product, from_edge_list,
                            graph_union, graph_z, induced_edges)
from edgeiso.graphs import complete, cycle, petersen
from edgeiso.solver import _walk, iso_profile


def brute_induced(edges, subset) -> int:
    inside = set(subset)
    return sum(1 for u, v in edges if u in inside and v in inside)


def brute_boundary(edges, subset) -> int:
    inside = set(subset)
    return sum(1 for u, v in edges if (u in inside) != (v in inside))


def brute_tables(n, edges):
    """(max induced, min boundary) per size by raw combinations."""
    best_i = [0] * (n + 1)
    best_t = [0] * (n + 1)
    for m in range(1, n + 1):
        vals_i = []
        vals_t = []
        for combo in itertools.combinations(range(n), m):
            vals_i.append(brute_induced(edges, combo))
            vals_t.append(brute_boundary(edges, combo))
        best_i[m] = max(vals_i)
        best_t[m] = min(vals_t)
    return best_i, best_t


def brute_witnesses(n, edges):
    """Numerically least optimal masks per size, scanning masks in order."""
    best_i = [-1] * (n + 1)
    wit_i = [0] * (n + 1)
    best_t = [n * n + 1] * (n + 1)
    wit_t = [0] * (n + 1)
    best_i[0] = 0
    best_t[0] = 0
    for mask in range(1 << n):
        subset = [v for v in range(n) if mask >> v & 1]
        m = len(subset)
        ind = brute_induced(edges, subset)
        bnd = brute_boundary(edges, subset)
        if ind > best_i[m]:
            best_i[m], wit_i[m] = ind, mask
        if bnd < best_t[m]:
            best_t[m], wit_t[m] = bnd, mask
    return wit_i, wit_t


def brute_optimal_orders(n, edges, optimum, boundary=False):
    """Filter all permutations down to those whose every prefix k hits
    ``optimum[k]`` (induced edges, or boundary edges when ``boundary``).

    Returns the passing orders in lexicographic order and the longest
    run of optimal prefixes any permutation starts with.
    """
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    orders = []
    deepest = 0
    for perm in itertools.permutations(range(n)):
        inside = set()
        value = 0
        k = 0
        for v in perm:
            gained = len(nbrs[v] & inside)
            value += len(nbrs[v]) - 2 * gained if boundary else gained
            inside.add(v)
            if value != optimum[k + 1]:
                break
            k += 1
        deepest = max(deepest, k)
        if k == n:
            orders.append(perm)
    return orders, deepest


def brute_chains(dh, dg):
    """All cell sequences filling the len(dh) x len(dg) box one cell at a
    time through staircases, kept when every prefix weighs as much as
    the heaviest staircase of its size; cell (x, y) weighs dh[x] + dg[y].

    Sorted, which is the order the chain walker lists them in.
    """
    nh, ng = len(dh), len(dg)
    best = {}
    for heights in itertools.product(range(ng + 1), repeat=nh):
        if any(heights[x] < heights[x + 1] for x in range(nh - 1)):
            continue
        weight = sum(dh[x] + dg[y] for x in range(nh) for y in range(heights[x]))
        size = sum(heights)
        best[size] = max(best.get(size, weight), weight)
    sequences = []

    def grow(heights, cells):
        if len(cells) == nh * ng:
            sequences.append(tuple(cells))
            return
        for x in range(nh):
            h = heights[x]
            if h < ng and (x == 0 or heights[x - 1] > h):
                heights[x] += 1
                cells.append((x, h))
                grow(heights, cells)
                cells.pop()
                heights[x] -= 1

    grow([0] * nh, [])
    chains = []
    for cells in sequences:
        weights = itertools.accumulate(dh[x] + dg[y] for x, y in cells)
        if all(w == best[k] for k, w in enumerate(weights, start=1)):
            chains.append(cells)
    return sorted(chains)


# An impossible state in the row-by-row column DP, far below any weight
# its boxes reach.
NEG = -(1 << 50)


def column_tables_by_row(dh, dg):
    """The column DP one height at a time: ``tables[x][u, c]`` is the best
    weight of columns x.. using u cells, every height at most c.

    Each height h of column x adds its weight to the whole row of the
    table after it, shifted right by h, and a running row keeps the best
    over heights so far.  No size below h is read, so this needs no pad.
    """
    nh, ng = len(dh), len(dg)
    total = nh * ng
    after = np.full((ng + 1, total + 1), NEG, dtype=np.int64)
    after[:, 0] = 0
    tables = [after.T]
    for x in range(nh - 1, -1, -1):
        colw = [h * dh[x] + sum(dg[:h]) for h in range(ng + 1)]
        cur = np.empty((ng + 1, total + 1), dtype=np.int64)
        run = np.full(total + 1, NEG, dtype=np.int64)
        for h in range(ng + 1):
            np.maximum(run[h:], after[h, : total + 1 - h] + colw[h], out=run[h:])
            cur[h] = run
        tables.append(cur.T)
        after = cur
    return tables[::-1]


def height_chain_survey(dh, dg, cap, count_limit):
    """(total, exact, chains, classifications) of the optimal chains of
    the len(dh) x len(dg) box, walked with a diagram's column heights as
    its state; the optimum per size comes from ``column_tables_by_row``."""
    nh, ng = len(dh), len(dg)
    optima = column_tables_by_row(dh, dg)[0][:, ng].tolist()
    steps = [optima[k + 1] - optima[k] for k in range(nh * ng)]

    def moves(heights, size):
        want = steps[size]
        for x in range(nh):
            h = heights[x]
            if h < ng and (x == 0 or heights[x - 1] > h) and dh[x] + dg[h] == want:
                yield (x, h), heights[:x] + (h + 1,) + heights[x + 1:]

    limit = max(count_limit, 1)
    chains, total, _ = _walk(nh * ng, (0,) * nh, moves, min(cap, limit), limit)
    lex = tuple((x, y) for x in range(nh) for y in range(ng))
    colex = tuple((x, y) for y in range(ng) for x in range(nh))
    kinds = tuple("lex" if c == lex else "colex" if c == colex else "other" for c in chains)
    return total, total < limit, chains, kinds


def frame_walk(depth: int, start, moves, cap: int, limit=math.inf):
    """The prefix walker that keeps each open state's label in its frame
    and rebuilds a full sequence from the frames; the same contract as
    ``solver._walk``: (first ``cap`` full label sequences, the start's
    completion count min(total, limit), the longest prefix entered)."""
    found: list[tuple] = []
    memo: dict = {}
    deepest = 0
    # one frame per open state: [label in, state, its moves, completions so far]
    frames = [[None, start, moves(start, 0), 0]]
    while True:
        frame = frames[-1]
        total = frame[3]
        size = len(frames)  # size of the children the frame's moves yield
        if total < limit or len(found) < cap:
            for label, child in frame[2]:
                if size == depth:
                    deepest, known = depth, 1
                    if len(found) < cap:
                        found.append(tuple(f[0] for f in frames[1:]) + (label,))
                else:
                    known = memo.get(child)
                    if known is None or known and len(found) < cap:
                        deepest = max(deepest, size)
                        frames.append([label, child, moves(child, size), 0])
                        break
                total += known
                if total >= limit and len(found) >= cap:
                    break
            frame[3] = total
            if frames[-1] is not frame:
                continue
        total = memo[frame[1]] = min(total, limit)
        frames.pop()
        if not frames:
            return found, total, deepest
        frames[-1][3] += total


def full_walk_chains(dh, dg, cap: int, count_limit: int) -> ChainSurvey:
    """The chain survey of the len(dh) x len(dg) box by one walk of its
    whole DAG of boundary paths, square or not."""
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
    chains, total, _ = frame_walk(nh * ng, ((1 << nh) - 1) << ng, moves, min(cap, limit), limit)
    return ChainSurvey(tuple(chains), total, total < limit,
                       tuple(_classify_chain(cells, (nh, ng)) for cells in chains))


def survey_deltas() -> list[DeltaSequence]:
    """The distinct delta sequences, in nested-solution form, of the
    benchmark's square-survey corpus and random pool that have nested
    solutions, as ``perfbench/reference.json`` records them."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    survey = json.loads(path.read_text())["square-survey"]
    records = [*survey["corpus"].values(),
               *(entry["record"] for pool in survey["pool"].values() for entry in pool)]
    deltas = {tuple(r["delta"]): None for r in records if r["ns_order"] is not None}
    return [DeltaSequence(values) for values in deltas]


def compress_set(h_graph: Graph, g_graph: Graph, cells) -> tuple[int, ...]:
    """Push a product set into diagram form without losing edges: the
    compression lemma, run until fixpoint.  Returns the staircase's
    column heights.

    ``cells`` is an iterable of (x, y) pairs, or a bit mask over the
    product labeling x * n_g + y.  Both factor
    graphs must be labeled by nested-solution orders for the guarantee
    to hold; the result is checked against the input count and a
    violation raises.
    """
    nh, ng = h_graph.n, g_graph.n
    product = cartesian_product(h_graph, g_graph)
    if isinstance(cells, int):
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
    if heights != sorted(heights, reverse=True):  # pragma: no cover - rows are initial segments
        raise RuntimeError("compression stopped short of a staircase")
    after = induced_edges(product, staircase_mask(heights, ng))
    if after < before:
        raise RuntimeError(
            "compression lost edges; factor labels are not nested-solution orders")
    return tuple(heights)


def staircase_mask(heights, ng: int) -> int:
    """Bit mask of a staircase's cells under the product labeling
    x * n_g + y: column x holds the cells (x, 0..heights[x] - 1)."""
    return _pairs_mask(((x, y) for x, h in enumerate(heights) for y in range(h)), ng)


def _pairs_mask(pairs, ng: int) -> int:
    mask = 0
    for x, y in pairs:
        mask |= 1 << (x * ng + y)
    return mask


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges, name=f"random(n={n})")


@pytest.fixture(scope="session")
def pet():
    return petersen()


@pytest.fixture(scope="session")
def pet_profile(pet):
    return iso_profile(pet)


@pytest.fixture(scope="session")
def z2():
    return graph_z(2)


@pytest.fixture(scope="session")
def z2_profile(z2):
    return iso_profile(z2)


@pytest.fixture()
def no_ns_graph():
    """Disjoint C4 and K3: the triangle is the unique optimal 3-set but
    no 4-set containing it beats four cycle vertices."""
    return graph_union(cycle(4), complete(3))
