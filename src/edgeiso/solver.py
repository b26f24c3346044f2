"""Exhaustive edge-isoperimetric solvers.

For a graph on n vertices this module scans all 2^n subsets and
tabulates, per cardinality m, the maximum induced-edge count I(m) and
the minimum boundary Theta(m), each with a witness set.  It also
searches for vertex orders whose every prefix is optimal (nested
solutions) and enumerates all such orders.

Three scan strategies exist and must agree bit for bit:

* ``gray``          - pure-Python walk of the subsets in Gray-code
                      order; each step flips one vertex and updates the
                      induced count with a single neighbor popcount.
* ``blocks``        - the subset space is split into disjoint
                      label-prefix blocks (high bits fixed); inside a
                      block the counts over all low-bit subsets are
                      built by vectorized doubling.  Blocks can be
                      processed by worker threads; results are merged
                      in block order, so the output never depends on
                      the thread count.
* ``combinations``  - per-size enumeration via itertools, kept as the
                      slow independent reference.

Witness ties always resolve to the numerically smallest bit mask, which
is what makes the strategies comparable.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError
from .graphs import Graph, VertexSet, as_mask, bit_indices, induced_edges

# Exhaustive profile scans are capped here; order enumeration lower.
EXHAUSTIVE_CAP = 28
ORDER_ENUM_CAP = 20

THREADS_ENV = "EDGEISO_THREADS"

_BLOCK_LOW_BITS = 20  # at most 2^20 subsets handled per vectorized block
_GRAY_MAX_N = 9  # auto scans up to here with gray, above with blocks


def thread_count() -> int:
    """Worker threads for block scans, from EDGEISO_THREADS."""
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if value < 1:
        raise InputError(f"{THREADS_ENV} must be >= 1, got {value}")
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
            for m in range(n + 1):
                wi = self.induced_witness[m]
                wb = self.boundary_witness[m]
                if wi.bit_count() != m or wb.bit_count() != m:
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

def iso_profile(g: Graph, strategy: str = "auto", cap: int | None = None,
                low_bits: int | None = None) -> IsoProfile:
    """Exact I/Theta tables with witnesses for every cardinality.

    ``strategy`` is one of auto, gray, blocks, combinations.  ``cap``
    overrides the default vertex limit; ``low_bits`` shrinks the block
    width (testing hook for the block merge logic).
    """
    limit = EXHAUSTIVE_CAP if cap is None else cap
    if g.n > limit:
        raise CapacityError(
            f"profile scan on {g.n} vertices exceeds the {limit}-vertex cap")
    if strategy == "auto":
        strategy = "gray" if g.n <= _GRAY_MAX_N else "blocks"
    if strategy == "gray":
        tables = _scan_gray(g)
    elif strategy == "blocks":
        tables = _scan_blocks(g, low_bits=low_bits)
    elif strategy == "combinations":
        tables = _scan_combinations(g)
    else:
        raise InputError(f"unknown scan strategy {strategy!r}")
    return IsoProfile(g, *tables)


def _scan_gray(g: Graph):
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
        bnd = degsum - 2 * cur
        if bnd < best_t[size] or (bnd == best_t[size] and mask < wit_t[size]):
            best_t[size] = bnd
            wit_t[size] = mask
    return best_i, best_t, wit_i, wit_t


def _scan_combinations(g: Graph):
    n = g.n
    best_i = [0] * (n + 1)
    wit_i = [0] * (n + 1)
    best_t = [0] * (n + 1)
    wit_t = [0] * (n + 1)
    adj = g.adj
    deg = [row.bit_count() for row in adj]
    for m in range(1, n + 1):
        bi, wi = -1, 0
        bt, wt = n * n + 1, 0
        for combo in itertools.combinations(range(n), m):
            mask = 0
            for v in combo:
                mask |= 1 << v
            inner2 = 0
            degsum = 0
            for v in combo:
                inner2 += (adj[v] & mask).bit_count()
                degsum += deg[v]
            cur = inner2 // 2
            bnd = degsum - inner2
            if cur > bi or (cur == bi and mask < wi):
                bi, wi = cur, mask
            if bnd < bt or (bnd == bt and mask < wt):
                bt, wt = bnd, mask
        best_i[m], wit_i[m] = bi, wi
        best_t[m], wit_t[m] = bt, wt
    return best_i, best_t, wit_i, wit_t


def _weighted_subset_sums(weights) -> np.ndarray:
    """out[mask] = sum of weights[j] over the set bits of mask."""
    out = np.zeros(1 << len(weights), dtype=np.int64)
    size = 1
    for w in weights:
        if w:
            np.add(out[:size], w, out=out[size:2 * size])
        else:
            out[size:2 * size] = out[:size]
        size *= 2
    return out


def _scan_blocks(g: Graph, low_bits: int | None = None):
    n, adj = g.n, g.adj
    deg = [row.bit_count() for row in adj]
    k = min(n, _BLOCK_LOW_BITS if low_bits is None else low_bits)
    if k < 1:
        raise InputError("block scan needs at least one low bit")
    hi = n - k

    # Induced-edge counts inside the low k vertices, for every low mask,
    # built by doubling: appending vertex v adds its neighbor count.
    ilow = np.zeros(1 << k, dtype=np.int64)
    size = 1
    for v in range(k):
        below = [(adj[v] >> j) & 1 for j in range(v)]
        cross = _weighted_subset_sums(below)
        np.add(ilow[:size], cross, out=ilow[size:2 * size])
        size *= 2
    degsum_low = _weighted_subset_sums(deg[:k])

    # Fixed permutation sorting low masks by (popcount, value); within a
    # class the masks stay ascending, so the first argmax is the least.
    pc = _weighted_subset_sums([1] * k)
    order = np.argsort(pc, kind="stable")
    pc_sorted = pc[order]
    starts = np.searchsorted(pc_sorted, np.arange(k + 1))
    ilow_o = ilow[order]
    degsum_o = degsum_low[order]

    def scan_one(block: int):
        high_mask = block << k
        ih = 0
        dsh = 0
        for v in bit_indices(high_mask):
            ih += (adj[v] & high_mask).bit_count()
            dsh += deg[v]
        ih //= 2
        cvec = [(adj[v] & high_mask).bit_count() for v in range(k)]
        cross = _weighted_subset_sums(cvec)
        ind_o = ilow_o + cross[order] + ih
        bnd_o = degsum_o + dsh - 2 * ind_o
        rows = []
        for c in range(k + 1):
            lo = int(starts[c])
            hidx = int(starts[c + 1]) if c + 1 < len(starts) else len(ind_o)
            seg_i = ind_o[lo:hidx]
            seg_b = bnd_o[lo:hidx]
            pi = int(np.argmax(seg_i))
            pb = int(np.argmin(seg_b))
            rows.append((
                int(seg_i[pi]), int(order[lo + pi]),
                int(seg_b[pb]), int(order[lo + pb]),
            ))
        return block, high_mask.bit_count(), rows

    blocks = range(1 << hi)
    workers = min(thread_count(), 1 << hi)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(scan_one, blocks)
            merged = list(results)
    else:
        merged = [scan_one(b) for b in blocks]

    best_i = [-1] * (n + 1)
    wit_i = [0] * (n + 1)
    big = n * n + 1
    best_t = [big] * (n + 1)
    wit_t = [0] * (n + 1)
    # Blocks arrive in ascending high-mask order and high bits dominate
    # the full mask, so "first strict improvement wins" keeps the
    # numerically least witness overall.
    for block, pch, rows in merged:
        base = block << k
        for c, (vi, li, vb, lb) in enumerate(rows):
            m = pch + c
            if vi > best_i[m]:
                best_i[m] = vi
                wit_i[m] = base | li
            if vb < best_t[m]:
                best_t[m] = vb
                wit_t[m] = base | lb
    return best_i, best_t, wit_i, wit_t


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
                      profile: IsoProfile | None = None,
                      scan_limit: int = 2_000_000) -> WitnessList:
    """All size-m sets achieving I(m), ascending by mask, up to ``cap``.

    The total count is exact even when the returned list is truncated.
    ``scan_limit`` bounds the C(n, m) enumeration.
    """
    if not 0 <= m <= g.n:
        raise InputError(f"size {m} out of range for n={g.n}")
    if math.comb(g.n, m) > scan_limit:
        raise CapacityError(
            f"witness enumeration needs C({g.n},{m}) subsets, above the {scan_limit} limit")
    prof = profile or iso_profile(g)
    target = prof.induced[m]
    adj = g.adj
    total = 0
    found: list[VertexSet] = []
    for mask in _masks_of_size(g.n, m):
        inner2 = 0
        for v in bit_indices(mask):
            inner2 += (adj[v] & mask).bit_count()
        if inner2 // 2 == target:
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

        def completions(state, size: int) -> int:
            if size == depth:
                return 1
            hit = memo.get(state)
            if hit is not None:
                return hit
            total = 0
            for _, child in moves(state, size):
                total += completions(child, size + 1)
                if limit is not None and total >= limit:
                    total = limit
                    break
            memo[state] = total
            return total

        return completions(self.start, 0)

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
                             profile: IsoProfile | None = None,
                             vertex_cap: int = ORDER_ENUM_CAP):
    """All optimal orders: exact total count plus the first ``cap`` of
    them in lexicographic order.

    The count is a memoized walk over the DAG of optimal sets, so
    highly symmetric graphs are fine as long as 2^n stays desk scale.
    """
    if g.n > vertex_cap:
        raise CapacityError(
            f"order enumeration on {g.n} vertices exceeds the {vertex_cap}-vertex cap")
    prof = profile or iso_profile(g)
    dag = _PrefixDag(g.n, 0, _vertex_moves(g, prof.induced))
    total = dag.count()
    return [OptimalOrder(order) for order in dag.paths(cap)], total
