"""Exhaustive edge-isoperimetric solvers.

For a graph on n vertices this module scans all 2^n subsets and
tabulates, per cardinality m, the maximum induced-edge count I(m) and
the minimum boundary Theta(m), each with a witness set.  It also
searches for vertex orders whose every prefix is optimal (nested
solutions) and enumerates all such orders.

Two scan strategies exist and must agree bit for bit:

* ``gray``          - pure-Python walk of the subsets in Gray-code
                      order; each step flips one vertex and updates the
                      induced count with a single neighbor popcount.
* ``blocks``        - the subset space is split into disjoint blocks
                      that fix all but the lowest 18 bits, so one
                      block's tables fit a per-core L2 cache.  Counts
                      over all low-bit subsets, sorted by (popcount,
                      value), are built once; the blocks are then
                      walked in Gray order of their high bits, so each
                      step adds or subtracts one precomputed row in
                      place and reads the per-size extremes with one
                      segmented reduction.
                      Worker threads take contiguous Gray ranges, and
                      results are merged by comparing (value, mask)
                      explicitly, so the output never depends on the
                      thread count.

Witness ties always resolve to the numerically smallest bit mask, which
is what makes the strategies comparable.  The brute reference oracles
live in the test suite.

On an r-regular graph every set A has Theta(A) = r*|A| - 2*e(A): the
r*|A| edge ends at A's vertices are one end of each boundary edge and
both ends of each inner edge.  So per size the boundary-optimal
sets are exactly the induced-optimal ones, with the same least mask, and
``iso_profile`` scans regular graphs for the induced table alone and
derives the boundary table from it.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError
from .graphs import Graph, VertexSet, _edge_counts, bit_indices, is_regular

# The one profile-scan limit; no call or flag moves it.  A 2^32 scan takes
# 0.6 s on a regular graph and 1.2 s on an irregular one (two cores); each
# vertex more doubles that.  Order enumeration and witness listing stop lower.
SCAN_CEILING = 32
ORDER_ENUM_CAP = 20
WITNESS_SCAN_LIMIT = 2_000_000

THREADS_ENV = "EDGEISO_THREADS"
# A 32-vertex scan has 2^14 blocks, one thread each at most; the bound stays
# above large hosts' CPU counts, as perfbench exports EDGEISO_THREADS=nproc.
MAX_THREADS = 256

# At most 2^18 low subsets per vectorized block.  Each block step reads
# and writes three int16 tables of 2^k entries (ind, bnd and one row;
# a regular graph keeps no bnd): 1.5 MB at k = 18, which fits a 2 MB
# per-core L2; at k = 20 they take 6 MB and every block step misses
# that cache.
_BLOCK_LOW_BITS = 18
_GRAY_MAX_N = 9  # auto scans up to here with gray, above with blocks


def thread_count() -> int:
    """Worker threads for block scans: EDGEISO_THREADS if set, else the
    CPUs this process may run on."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if not 1 <= value <= MAX_THREADS:
        raise InputError(f"{THREADS_ENV} must be in 1..{MAX_THREADS}, got {value}")
    return value


class IsoProfile:
    """Exact optimum tables for one graph.

    ``induced[m]`` is I(m), ``boundary[m]`` is Theta(m); the witness
    tuples hold one optimal subset per size as bit masks (the smallest
    optimal mask numerically).
    """

    __slots__ = ("graph", "induced", "boundary", "induced_witness", "boundary_witness")

    def __init__(self, graph: Graph, induced, boundary, induced_witness, boundary_witness):
        self.graph = graph
        self.induced = tuple(induced)
        self.boundary = tuple(boundary)
        self.induced_witness = tuple(induced_witness)
        self.boundary_witness = tuple(boundary_witness)
        self._validate()

    def witness(self, m: int) -> VertexSet:
        return VertexSet.from_mask(self.graph.n, self.induced_witness[m])

    def _validate(self) -> None:
        g = self.graph
        n = g.n
        edge_total = g.edge_count()
        ok = (
            len(self.induced) == n + 1
            and self.induced[0] == 0
            and self.induced[1] == 0
            and self.induced[n] == edge_total
            and self.boundary[0] == 0
            and self.boundary[n] == 0
        )
        if ok:
            max_deg = max(row.bit_count() for row in g.adj)
            for m in range(n):
                step = self.induced[m + 1] - self.induced[m]
                if step < 0 or step > max_deg:
                    ok = False
                    break
        if ok:
            counts = {w: _edge_counts(g.adj, w)
                      for w in {*self.induced_witness, *self.boundary_witness}}
            for m in range(n + 1):
                wi = self.induced_witness[m]
                wb = self.boundary_witness[m]
                if (wi.bit_count() != m or wb.bit_count() != m
                        or counts[wi][0] != self.induced[m]
                        or counts[wb][1] != self.boundary[m]):
                    ok = False
                    break
        if not ok:
            raise RuntimeError(f"inconsistent profile for {g.display_name()}; solver bug")

    def to_dict(self) -> dict:
        return {
            "graph": self.graph.display_name(),
            "n": self.graph.n,
            "edges": self.graph.edge_count(),
            "induced": list(self.induced),
            "boundary": list(self.boundary),
            "induced_witness": [hex(w) for w in self.induced_witness],
            "boundary_witness": [hex(w) for w in self.boundary_witness],
        }

    def to_csv(self) -> str:
        lines = ["m,induced,boundary,witness"]
        for m in range(self.graph.n + 1):
            lines.append(
                f"{m},{self.induced[m]},{self.boundary[m]},{hex(self.induced_witness[m])}")
        return "\n".join(lines) + "\n"


class OptimalOrder(NamedTuple):
    order: tuple[int, ...]


class NsSearch(NamedTuple):
    """Outcome of the nested-solution search.

    ``order`` is the lexicographically least optimal order, or None
    when no full chain exists; ``deepest`` is the longest optimal
    prefix the exhausted search could build.
    """
    order: tuple[int, ...] | None
    deepest: int


class PrefixCheck(NamedTuple):
    size: int
    count: int
    optimum: int
    ok: bool


class OrderReport(NamedTuple):
    order: tuple[int, ...]
    rows: tuple[PrefixCheck, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "order": list(self.order),
            "rows": [row._asdict() for row in self.rows],
            "ok": self.ok,
        }


class WitnessList(NamedTuple):
    total: int
    sets: tuple[VertexSet, ...]


# ============================================================
# Profile scans
# ============================================================

def iso_profile(g: Graph, strategy: str = "auto",
                low_bits: int | None = None) -> IsoProfile:
    """Exact I/Theta tables with witnesses for every cardinality.

    ``strategy`` is one of auto, gray, blocks; graphs past
    ``SCAN_CEILING`` vertices are refused.  ``low_bits`` shrinks the
    block width (testing hook for the block merge logic).

    An r-regular graph is scanned for the induced side only: there
    Theta(A) = r*|A| - 2*e(A), since the r*|A| edge ends at A's vertices
    are one end of each boundary edge and both ends of each inner edge.
    So Theta(m) = r*m - 2*I(m), and the least induced witness is the
    least boundary witness.  ``IsoProfile`` recounts
    every boundary witness, so the derived table still certifies itself.
    """
    if g.n > SCAN_CEILING:
        raise CapacityError(
            f"profile scan on {g.n} vertices exceeds the {SCAN_CEILING}-vertex ceiling")
    if strategy == "auto":
        strategy = "gray" if g.n <= _GRAY_MAX_N else "blocks"
    regular, r = is_regular(g)
    if strategy == "gray":
        tables = _scan_gray(g, boundary=not regular)
    elif strategy == "blocks":
        tables = _scan_blocks(g, low_bits=low_bits, boundary=not regular)
    else:
        raise InputError(f"unknown scan strategy {strategy!r}")
    induced, boundary, induced_witness, boundary_witness = tables
    if regular:
        boundary = [r * m - 2 * e for m, e in enumerate(induced)]
        boundary_witness = induced_witness
    return IsoProfile(g, induced, boundary, induced_witness, boundary_witness)


def _scan_gray(g: Graph, boundary: bool = True):
    """(induced, boundary, induced witnesses, boundary witnesses); the
    boundary pair is None when ``boundary`` is off."""
    n, adj = g.n, g.adj
    deg = [row.bit_count() for row in adj]
    best_i = [-1] * (n + 1)
    wit_i = [0] * (n + 1)
    big = n * n + 1
    best_t = [big] * (n + 1)
    wit_t = [0] * (n + 1)
    best_i[0] = 0
    best_t[0] = 0
    mask = 0
    cur = 0       # induced edges of the current subset
    degsum = 0
    size = 0
    for i in range(1, 1 << n):
        v = (i & -i).bit_length() - 1
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            cur -= (adj[v] & mask).bit_count()
            degsum -= deg[v]
            size -= 1
        else:
            cur += (adj[v] & mask).bit_count()
            mask |= bit
            degsum += deg[v]
            size += 1
        if cur > best_i[size] or (cur == best_i[size] and mask < wit_i[size]):
            best_i[size] = cur
            wit_i[size] = mask
        if boundary:
            bnd = degsum - 2 * cur
            if bnd < best_t[size] or (bnd == best_t[size] and mask < wit_t[size]):
                best_t[size] = bnd
                wit_t[size] = mask
    if not boundary:
        return best_i, None, wit_i, None
    return best_i, best_t, wit_i, wit_t


def _weighted_subset_sums(weights) -> np.ndarray:
    """out[mask] = sum of weights[j] over the set bits of mask.

    int16 holds every table the block scan builds: each entry lies
    within [-sum(deg), sum(deg)] (twice the induced edges, a boundary,
    or twice the edges from one vertex), and under the scan ceiling
    sum(deg) <= 32 * 31 = 992.
    """
    out = np.zeros(1 << len(weights), dtype=np.int16)
    size = 1
    for w in weights:
        if w:
            np.add(out[:size], w, out=out[size:2 * size])
        else:
            out[size:2 * size] = out[:size]
        size *= 2
    return out


def _scan_blocks(g: Graph, low_bits: int | None = None, boundary: bool = True):
    """(induced, boundary, induced witnesses, boundary witnesses); with
    ``boundary`` off no boundary table is kept and that pair is None."""
    n, adj = g.n, g.adj
    deg = [row.bit_count() for row in adj]
    k = min(n, _BLOCK_LOW_BITS if low_bits is None else low_bits)
    if k < 1:
        raise InputError("block scan needs at least one low bit")
    hi = n - k

    # Low masks sorted by (popcount, value); within a popcount class the
    # masks stay ascending, so a segment's first argmax is its least mask.
    pc = _weighted_subset_sums([1] * k)
    order = np.argsort(pc, kind="stable")
    starts = list(itertools.accumulate((math.comb(k, c) for c in range(k)), initial=0))
    bounds = starts[1:] + [1 << k]
    starts_arr = np.array(starts)

    # Tables over the low masks, in that order: twice the induced edges
    # inside the low set, and (if ``boundary``) its boundary in the whole
    # graph.  Doubling the induced count lets one row per high vertex
    # update both.
    ilow = np.zeros(1 << k, dtype=np.int16)
    size = 1
    for v in range(k):
        below = [(adj[v] >> j) & 1 for j in range(v)]
        np.add(ilow[:size], _weighted_subset_sums(below), out=ilow[size:2 * size])
        size *= 2
    ind0 = 2 * ilow[order]
    bnd0 = _weighted_subset_sums(deg[:k])[order] - ind0 if boundary else None
    # rows[j][x]: twice the edges from high vertex k + j into low set x.
    rows = [_weighted_subset_sums([2 * (adj[v] >> u & 1) for u in range(k)])[order]
            for v in range(k, n)]

    def scan_range(first: int, stop: int):
        """Best (-induced, mask) and (boundary, mask) keys per size over
        the blocks with Gray indices first..stop-1."""
        # Sentinels lose to every real key: -induced <= 0, boundary < n*n.
        best_i = [(1, 0)] * (n + 1)
        best_t = [(n * n + 1, 0)] * (n + 1)
        high = first ^ (first >> 1)
        ind, bnd = ind0, bnd0  # a lone block 0 only reads the shared tables
        if stop - first > 1 or high:
            ind = ind0.copy()
            bnd = bnd0.copy() if boundary else None
            for j in bit_indices(high):
                ind += rows[j]
                if boundary:
                    bnd -= rows[j]
        full = high << k
        ih = sum((adj[v] & full).bit_count() for v in bit_indices(full)) // 2
        dh = sum(deg[v] for v in bit_indices(full))
        for i in range(first, stop):
            if i > first:
                j = (i & -i).bit_length() - 1
                v = k + j
                full ^= 1 << v
                high ^= 1 << j
                gained = (adj[v] & full).bit_count()
                if high >> j & 1:
                    ind += rows[j]
                    if boundary:
                        bnd -= rows[j]
                    ih += gained
                    dh += deg[v]
                else:
                    ind -= rows[j]
                    if boundary:
                        bnd += rows[j]
                    ih -= gained
                    dh -= deg[v]
            pch = high.bit_count()
            # a tie beats the kept witness only from a lower block
            for c, top in enumerate(np.maximum.reduceat(ind, starts_arr).tolist()):
                key = (-(top // 2 + ih), full)
                if key < best_i[pch + c]:
                    lo = starts[c]
                    p = int(np.argmax(ind[lo:bounds[c]]))
                    best_i[pch + c] = (key[0], full | int(order[lo + p]))
            if not boundary:
                continue
            for c, low in enumerate(np.minimum.reduceat(bnd, starts_arr).tolist()):
                key = (low + dh - 2 * ih, full)
                if key < best_t[pch + c]:
                    lo = starts[c]
                    p = int(np.argmin(bnd[lo:bounds[c]]))
                    best_t[pch + c] = (key[0], full | int(order[lo + p]))
        return best_i, best_t

    blocks = 1 << hi
    workers = min(thread_count(), blocks)
    cuts = [w * blocks // workers for w in range(workers + 1)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(scan_range, cuts[:-1], cuts[1:]))
    else:
        results = [scan_range(0, blocks)]

    # Blocks are visited in Gray order, so ties are settled by comparing
    # (value, full mask) keys, which keeps the least-mask witness.
    best_i = [min(r[0][m] for r in results) for m in range(n + 1)]
    induced, induced_witness = [-v for v, _ in best_i], [w for _, w in best_i]
    if not boundary:
        return induced, None, induced_witness, None
    best_t = [min(r[1][m] for r in results) for m in range(n + 1)]
    return induced, [v for v, _ in best_t], induced_witness, [w for _, w in best_t]


# ============================================================
# Optimal witnesses per size
# ============================================================

def _masks_of_size(n: int, m: int):
    """All n-bit masks of popcount m in ascending numeric order."""
    if m == 0:
        yield 0
        return
    x = (1 << m) - 1
    top = 1 << n
    while x < top:
        yield x
        u = x & -x
        v = x + u
        x = (((x ^ v) >> 2) // u) | v


def optimal_witnesses(g: Graph, m: int, cap: int = 100,
                      profile: IsoProfile | None = None) -> WitnessList:
    """All size-m sets achieving I(m), ascending by mask, up to ``cap``.

    The total count is exact even when the returned list is truncated.
    ``WITNESS_SCAN_LIMIT`` bounds the C(n, m) enumeration.
    """
    if not 0 <= m <= g.n:
        raise InputError(f"size {m} out of range for n={g.n}")
    if math.comb(g.n, m) > WITNESS_SCAN_LIMIT:
        raise CapacityError(f"witness enumeration needs C({g.n},{m}) subsets, "
                            f"above the {WITNESS_SCAN_LIMIT} limit")
    prof = profile or iso_profile(g)
    target = prof.induced[m]
    adj = g.adj
    total = 0
    found: list[VertexSet] = []
    for mask in _masks_of_size(g.n, m):
        if _edge_counts(adj, mask)[0] == target:
            total += 1
            if len(found) < cap:
                found.append(VertexSet.from_mask(g.n, mask))
    return WitnessList(total, tuple(found))


# ============================================================
# Nested solutions
# ============================================================

def _optimum_table(profile: IsoProfile, side: str):
    if side == "induced":
        return profile.induced
    if side == "boundary":
        return profile.boundary
    raise InputError(f"unknown optimality side {side!r}")


class _PrefixDag:
    """The DAG of prefixes that hit the optimum at every size, walked by
    the nested-solution search, order enumeration and chain surveys.

    A state is the minimal key of a prefix (a vertex mask, a diagram's
    heights); its value is the optimum at its size, so nothing else is
    carried.  ``moves(state, size)`` yields ``(label, child)`` in
    ascending label order for exactly the children that hit the optimum
    at ``size + 1``.  ``memo`` maps a state to its completion count,
    saturated at the count limit; 0 marks a dead state.
    """

    def __init__(self, depth: int, start, moves):
        self.depth = depth
        self.start = start
        self.moves = moves
        self.memo: dict = {}
        self.deepest = 0  # longest prefix ``paths`` reached

    def count(self, limit: int | None = None) -> int:
        """Completions of the start state, min(total, limit)."""
        memo, moves, depth = self.memo, self.moves, self.depth
        if depth == 0:
            return 1
        if self.start in memo:
            return memo[self.start]
        cap = math.inf if limit is None else limit
        # one frame per open state: [state, its moves, completions so far]
        frames = [[self.start, moves(self.start, 0), 0]]
        while True:
            frame = frames[-1]
            state, todo, total = frame
            size = len(frames)  # size of the children ``todo`` yields
            if total < cap:
                for _, child in todo:
                    known = 1 if size == depth else memo.get(child)
                    if known is None:
                        frames.append([child, moves(child, size), 0])
                        break
                    total += known
                    if total >= cap:
                        break
                frame[2] = total
                if frames[-1] is not frame:
                    continue
            total = min(total, cap)
            memo[state] = total
            frames.pop()
            if not frames:
                return total
            frames[-1][2] += total

    def paths(self, cap: int) -> list[tuple]:
        """The first ``cap`` full label sequences, in label order."""
        memo, moves, depth = self.memo, self.moves, self.depth
        found: list[tuple] = []
        # one frame per open state: label in, state, len(found) on entry, moves
        frames = [(None, self.start, 0, moves(self.start, 0))]
        while frames and len(found) < cap:
            _, state, mark, todo = frames[-1]
            size = len(frames)  # size of the children ``todo`` yields
            for label, child in todo:
                if size == depth:
                    self.deepest = depth
                    found.append(tuple(f[0] for f in frames[1:]) + (label,))
                    if len(found) == cap:
                        break
                elif memo.get(child) != 0:
                    self.deepest = max(self.deepest, size)
                    frames.append((label, child, len(found), moves(child, size)))
                    break
            else:
                frames.pop()
                if len(found) == mark:
                    memo[state] = 0
        return found


def _vertex_moves(g: Graph, target, by_boundary: bool = False):
    """Moves of the vertex-order DAG: add one vertex so that the prefix
    still hits ``target`` (induced maximum, or boundary minimum)."""
    # Adding v changes the value by base + scale * (edges from v into the prefix).
    scale = -2 if by_boundary else 1
    rows = [(v, 1 << v, row, row.bit_count() if by_boundary else 0)
            for v, row in enumerate(g.adj)]
    steps = [target[k + 1] - target[k] for k in range(g.n)]

    def moves(mask: int, size: int):
        want = steps[size]
        for v, bit, row, base in rows:
            if not mask & bit and base + scale * (row & mask).bit_count() == want:
                yield v, mask | bit

    return moves


def has_ns(g: Graph, profile: IsoProfile | None = None, side: str = "induced") -> NsSearch:
    """Search for an order whose every prefix is an optimal set.

    Returns the lexicographically least such order if one exists.  The
    search walks optimal prefixes depth first, memoizing dead sets, so
    a returned None is an exhausted negative, not a timeout.  ``side``
    picks which optimum the prefixes must achieve (induced maximum by
    default, boundary minimum as the off-by-default variant).
    """
    prof = profile or iso_profile(g)
    dag = _PrefixDag(g.n, 0, _vertex_moves(g, _optimum_table(prof, side), side == "boundary"))
    found = dag.paths(1)
    if found:
        return NsSearch(found[0], g.n)
    return NsSearch(None, dag.deepest)


def verify_order(g: Graph, order, profile: IsoProfile | None = None) -> OrderReport:
    """Check every prefix of ``order`` against the exact optimum I(k)."""
    seq = tuple(order.order if isinstance(order, OptimalOrder) else order)
    if sorted(seq) != list(range(g.n)):
        raise InputError("order must be a permutation of all vertices")
    prof = profile or iso_profile(g)
    adj = g.adj
    rows = []
    mask = 0
    inner = 0
    ok = True
    for k, v in enumerate(seq, start=1):
        inner += (adj[v] & mask).bit_count()
        mask |= 1 << v
        good = inner == prof.induced[k]
        ok = ok and good
        rows.append(PrefixCheck(k, inner, prof.induced[k], good))
    return OrderReport(seq, tuple(rows), ok)


def enumerate_optimal_orders(g: Graph, cap: int = 10,
                             profile: IsoProfile | None = None):
    """All optimal orders: exact total count plus the first ``cap`` of
    them in lexicographic order.

    The count is a memoized walk over the DAG of optimal sets, so
    highly symmetric graphs are fine as long as 2^n stays desk scale.
    """
    if g.n > ORDER_ENUM_CAP:
        raise CapacityError(
            f"order enumeration on {g.n} vertices exceeds the {ORDER_ENUM_CAP}-vertex cap")
    prof = profile or iso_profile(g)
    dag = _PrefixDag(g.n, 0, _vertex_moves(g, prof.induced))
    total = dag.count()
    return [OptimalOrder(order) for order in dag.paths(cap)], total
