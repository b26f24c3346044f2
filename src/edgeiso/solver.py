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
                      that fix all but the lowest k bits, with k set
                      by the vertex count alone (``_scan_blocks``) and
                      at most 18, so one block's tables fit a per-core
                      L2 cache.  Counts
                      over all low-bit subsets, grouped by popcount,
                      are built once, each piece of the layout by one
                      broadcast add of two half tables; the blocks are
                      then walked in Gray order of their high bits, so
                      each step adds or subtracts one precomputed row
                      in place and reads the per-size extremes with one
                      segmented reduction.  A size's witness in a block
                      is the least low mask whose entry equals the
                      extreme, picked by value, so the order of the
                      masks within a popcount segment never matters.
                      One thread walks every block; Gray order is not
                      mask order, so each size keeps its best value and
                      witness mask, and a tie keeps the least mask.

Witness ties always resolve to the numerically smallest bit mask, which
is what makes the strategies comparable.  The brute reference oracles
live in the test suite.

On an r-regular graph every set A has Theta(A) = r*|A| - 2*e(A): the
r*|A| edge ends at A's vertices are one end of each boundary edge and
both ends of each inner edge.  So per size the boundary-optimal
sets are exactly the induced-optimal ones, with the same least mask, and
``iso_profile`` scans regular graphs for the induced table alone and
derives the boundary table from it.  Every edge lies inside A, inside
V - A or across, so e(V - A) = E - e(A) - Theta(A) = E - r*|A| + e(A).
The block scan of a regular graph therefore walks only the blocks
without the top high vertex: each block's best set of size s gives its
complement block's best of size n - s, and the complement of its
greatest maximizer is the least witness there.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InputError
from .graphs import Graph, _edge_counts, is_regular

# The one profile-scan limit; no call or flag moves it.  A 2^32 scan takes
# 0.45 s on a regular graph and 1.7 s on an irregular one (one thread of a
# 2-vCPU Xeon); each vertex more doubles that.  Order enumeration stops lower.
SCAN_CEILING = 32
ORDER_ENUM_CAP = 20

# Read by nothing here: scans run on one thread.  The name is kept only
# because the benchmark's traced scan probe (perfbench/layers.py) sets it.
THREADS_ENV = "EDGEISO_THREADS"

# At most 2^18 low subsets per vectorized block.  Each block step reads
# and writes three tables of 2^k entries (ind, bnd and one row) in the
# type ``_table_type`` proves exact: at k = 18, 0.75 MB in one byte or
# 1.5 MB in int16, within a 2 MB per-core L2.  A regular graph keeps no
# bnd, so its steps touch two tables, and each of its steps also settles
# the complement block, so it takes half as many.  With one-byte tables
# k = 18 is still the fastest: complete(3)^3 scanned in 7.4-9.7 ms at
# k = 18, 8.1-10.2 at 19 and 11.5-13.2 at 20 (one thread, 2-vCPU Xeon).
# The tables are built once per scan, grouped by popcount (``_HALF_BITS``).
#
# Below that cap the width is k = min(n, 18, (n + 10) // 2), which weighs
# the set-up's work on 2^k entries against the walk's per-block Python
# cost over 2^(n - k) blocks: one block up to 10 vertices, 13 bits at 17,
# 15 at 20, 17 at 24 and 18 from 26.  A sweep of k = 12..18 (in-process
# medians, one thread of a 2-vCPU Xeon) put the fastest width at 13-14
# bits at n = 17, 14-15 at 18, 14-16 at 20, 17 at 24 and 18 at 27;
# path(4) x path(5) took 0.98 ms at 15 bits and 2.21 ms at 18.
_BLOCK_LOW_BITS = 18
# The low-mask tables are built grouped by popcount from a low half of at
# most this many bits and a high half of the rest (``_low_tables``), so
# the set-up sorts at most 2^12 masks and gathers one table.  Each piece
# of the layout costs a numpy add or two, with (k - 11) * 13 pieces from
# k = 12 up: 13 at k = 12 and 91 at k = 18, where a 10-bit half would
# take 33 and 99.
_HALF_BITS = 12
_GRAY_MAX_N = 9  # auto scans up to here with gray, above with blocks


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


# ============================================================
# Profile scans
# ============================================================

def iso_profile(g: Graph, strategy: str = "auto") -> IsoProfile:
    """Exact I/Theta tables with witnesses for every cardinality.

    ``strategy`` is one of auto, gray, blocks; graphs past
    ``SCAN_CEILING`` vertices are refused.

    An r-regular graph is scanned for the induced side only: there
    Theta(A) = r*|A| - 2*e(A), since the r*|A| edge ends at A's vertices
    are one end of each boundary edge and both ends of each inner edge.
    So Theta(m) = r*m - 2*I(m), and the least induced witness is the
    least boundary witness.  The block scan of a regular graph also walks
    half the blocks: by e(V - A) = E - r*|A| + e(A), each walked block
    answers for its complement block, witness included.  ``IsoProfile``
    recounts every witness, derived and mirrored ones too, so the tables
    still certify themselves.
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
        tables = _scan_blocks(g, degree=r)
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


def _table_type(top: int, boundary: bool):
    """The narrowest integer type that holds every block-scan table of a
    graph with E edges, given ``top`` = 2E, with or without the boundary
    table.

    Every entry of the induced table, the rows and the partial sums that
    build them counts edge ends, each at most once, so it lies in
    [0, 2E]: twice the edges inside a low set x plus twice those from x
    to the block's high vertices H, a degree sum, or twice the edges from
    one vertex.  The boundary table holds e(x, rest) - e(x, H), with
    rest = V - x - H, so it lies in [-E, E].  Hence uint8 is exact for
    the induced table alone while 2E <= 255, int8 for both tables while
    2E <= 127, and int16 always: 2E <= 32 * 31 = 992 under the ceiling.
    The popcounts that order the tables are at most 18 in any type.
    """
    if boundary:
        return np.int8 if top <= 127 else np.int16
    return np.uint8 if top <= 255 else np.int16


def _subset_sums(weights: np.ndarray, first: int, bits: int) -> np.ndarray:
    """out[r, x] = sum of weights[r, first + j] over the set bits j of x,
    for x < 2^bits in mask order, in the type of ``weights``, which must
    hold every sum (``_table_type``).
    """
    out = np.zeros((len(weights), 1 << bits), dtype=weights.dtype)
    size = 1
    for b in range(first, first + bits):
        np.add(out[:, :size], weights[:, b:b + 1], out=out[:, size:2 * size])
        size *= 2
    return out


def _half_tables(spelled: np.ndarray, rows: int, first: int, bits: int):
    """Over the bits first..first+bits-1: the subset sums of every row of
    ``spelled`` in mask order, whose last row must be all ones, so that
    the last sums are popcounts; the first ``rows`` of them and the
    masks, both grouped by popcount; and the bounds of each popcount."""
    sums = _subset_sums(spelled, first, bits)
    order = np.argsort(sums[-1], kind="stable")
    bounds = list(itertools.accumulate((math.comb(bits, c) for c in range(bits + 1)),
                                       initial=0))
    return sums, sums[:rows].take(order, axis=1), order << first, bounds


def _low_tables(adj, weights: list, k: int, dtype):
    """(order, ind0, sums, bounds): tables over the low masks x < 2^k,
    grouped by popcount, in ``dtype``; ``weights`` is a list of rows of
    k weights.

    ``order`` lists the masks: segment c, ``order[bounds[c]:bounds[c + 1]]``,
    holds exactly the c-subsets, in no promised order.
    ``sums[r, i]`` is the sum of ``weights[r][j]`` over the bits j of
    ``order[i]``, and ``ind0[i]`` is twice the edges inside ``order[i]``.
    The k bits split into a low half of min(k, _HALF_BITS) bits and a high
    half of the rest, each grouped by popcount.  Over q ascending, segment
    c is built in pieces: the high-half masks of popcount q times the
    low-half masks of popcount c - q, each one broadcast add of the
    halves' grouped tables for ``order`` and for every row of ``sums``;
    ``ind0`` is one gather.
    """
    rows = len(weights)
    low = min(k, _HALF_BITS)
    # One subset-sum pass per half serves every table: the rows of
    # ``weights``; per vertex v, twice its edges to the lower vertices;
    # and the popcount.
    lower = [[2 * (adj[v] >> u & 1) if u < v else 0 for u in range(k)] for v in range(k)]
    spelled = np.array(weights + lower + [[1] * k], dtype=dtype)
    lnat, lsum, lmask, lb = _half_tables(spelled, rows, 0, low)
    hnat, hsum, hmask, hb = _half_tables(spelled, rows, low, k - low)

    # One block holds ``order``, the induced table in mask order and
    # ``sums``.  glibc trims its heap once the free top exceeds twice the
    # largest block it has freed from an mmap, so apart these tables were
    # often handed back after a scan and faulted in again, page by page,
    # in the next: about 1,100 minor faults per scan of complete(3)^3.
    # One block never frees more than its own size.
    span = 1 << k
    head = span * np.dtype(np.intp).itemsize
    buf = np.empty(head + (rows + 1) * span * np.dtype(dtype).itemsize, dtype=np.uint8)
    order = buf[:head].view(np.intp)
    tables = buf[head:].view(dtype).reshape(rows + 1, span)
    induced, sums = tables[0], tables[1:]

    # Twice the edges inside x, in mask order: vertex v adds twice its
    # edges into x to each x < 2^v, a subset sum over x's halves.
    induced[0] = 0
    for v in range(k):
        size = 1 << v
        if v < low:
            np.add(induced[:size], lnat[rows + v, :size], out=induced[size:2 * size])
        else:
            grid = induced[size:2 * size].reshape(-1, 1 << low)
            np.add(induced[:size].reshape(-1, 1 << low), lnat[rows + v], out=grid)
            grid += hnat[rows + v, :size >> low, None]

    lows = [(lsum[:, None, lb[p]:lb[p + 1]], lmask[lb[p]:lb[p + 1]]) for p in range(low + 1)]
    highs = [(hsum[:, hb[q]:hb[q + 1], None], hmask[hb[q]:hb[q + 1], None])
             for q in range(k - low + 1)]
    bounds = [0]
    for c in range(k + 1):
        at = bounds[-1]
        for q in range(max(0, c - low), min(c, k - low) + 1):
            (hs, hm), (ls, lm) = highs[q], lows[c - q]
            shape = (len(hm), len(lm))
            end = at + shape[0] * shape[1]
            np.add(hm, lm, order[at:end].reshape(shape))
            if rows:
                np.add(hs, ls, sums[:, at:end].reshape(rows, *shape))
            at = end
        bounds.append(at)
    return order, induced.take(order), sums, bounds


def _scan_blocks(g: Graph, degree: int | None = None):
    """(induced, boundary, induced witnesses, boundary witnesses).

    The low k = min(n, 18, (n + 10) // 2) bits vary inside a block and
    the other n - k fix it (``_BLOCK_LOW_BITS``).  ``degree`` is r when g
    is r-regular: then no boundary table is kept, that pair is None, and
    only the blocks without the top high vertex are walked, each one also
    answering for its complement block.
    """
    n, adj = g.n, g.adj
    deg = [row.bit_count() for row in adj]
    k = min(n, _BLOCK_LOW_BITS, (n + 10) // 2)
    hi = n - k
    boundary = degree is None
    mirror = not boundary and hi > 0
    walked = hi - 1 if mirror else hi  # high vertices the Gray walk flips

    # Tables over the low masks, grouped by popcount (``_low_tables``):
    # twice the induced edges inside the low set, and (if ``boundary``) its
    # boundary in the whole graph.  Doubling the induced count lets one row
    # per high vertex update both.  rows[j][x]: twice the edges from high
    # vertex k + j into low set x.
    weights = [[2 * (adj[v] >> u & 1) for u in range(k)] for v in range(k, k + walked)]
    if boundary:
        weights.append(deg[:k])
    order, ind, sums, bounds = _low_tables(adj, weights, k,
                                           _table_type(2 * g.edge_count(), boundary))
    rows = sums[:walked]
    bnd = sums[walked] - ind if boundary else None
    starts = np.array(bounds[:-1])

    def extreme_mask(table, c: int, top: int, greatest: bool = False) -> int:
        """The least (or greatest) low mask of segment c whose entry is
        ``top``."""
        lo, stop = bounds[c], bounds[c + 1]
        found = order[lo:stop][table[lo:stop] == top]
        return int(found.max() if greatest else found.min())

    # With ``mirror``, walked block H also settles its complement block:
    # that block's best at size n - s is E - r*s plus H's best at s, and
    # as complementing reverses the mask order, its least witness is the
    # complement of H's greatest maximizer.
    edge_total = g.edge_count()
    low_all = (1 << k) - 1
    high_all = ((1 << hi) - 1) << k

    # Blocks are visited in Gray order, not mask order, so a tie beats the
    # kept witness only from a lower block: a block's high bits ``full``
    # differ from the kept witness's, so comparing them to the whole kept
    # mask orders the two blocks, and the least-mask witness stays.  The
    # sentinels lose to every real value: induced >= 0, boundary < n*n.
    best_i = [-1] * (n + 1)
    wit_i = [0] * (n + 1)
    best_t = [n * n + 1] * (n + 1)
    wit_t = [0] * (n + 1)
    full = ih = dh = 0  # the block's high vertices, their edges and degrees
    for i in range(1 << walked):
        if i:
            j = (i & -i).bit_length() - 1
            v = k + j
            full ^= 1 << v
            gained = (adj[v] & full).bit_count()
            if full >> v & 1:
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
        pch = full.bit_count()
        twin_full = full ^ high_all
        for c, top in enumerate(np.maximum.reduceat(ind, starts).tolist()):
            s = pch + c
            value = top // 2 + ih
            if value > best_i[s] or value == best_i[s] and full < wit_i[s]:
                best_i[s] = value
                wit_i[s] = full | extreme_mask(ind, c, top)
            if mirror:
                twin = value + edge_total - degree * s
                t = n - s
                if twin > best_i[t] or twin == best_i[t] and twin_full < wit_i[t]:
                    best_i[t] = twin
                    wit_i[t] = twin_full | (low_all ^ extreme_mask(ind, c, top, greatest=True))
        if not boundary:
            continue
        for c, low in enumerate(np.minimum.reduceat(bnd, starts).tolist()):
            s = pch + c
            value = low + dh - 2 * ih
            if value < best_t[s] or value == best_t[s] and full < wit_t[s]:
                best_t[s] = value
                wit_t[s] = full | extreme_mask(bnd, c, low)

    if not boundary:
        return best_i, None, wit_i, None
    return best_i, best_t, wit_i, wit_t


# ============================================================
# Nested solutions
# ============================================================

def _optimum_table(profile: IsoProfile, side: str):
    if side == "induced":
        return profile.induced
    if side == "boundary":
        return profile.boundary
    raise InputError(f"unknown optimality side {side!r}")


def _walk(depth: int, start, moves, cap: int, limit=math.inf):
    """One depth-first pass over the DAG of prefixes that hit the optimum
    at every size, for the nested-solution search, order listing and
    chain surveys.  Returns the first ``cap`` full label sequences in
    label order, the start state's completion count min(total, limit),
    and the longest prefix entered.

    A state is the minimal key of a prefix, an int: a vertex mask, or a
    diagram's boundary path, whose bit n_g + x - h_x marks column x of
    height h_x; its value is the optimum at its size, so nothing else is
    carried.  ``moves(state, size)`` yields ``(label, child)`` in
    ascending label order for exactly the children that hit the optimum
    at ``size + 1``; ``depth`` >= 1 is the size of a full prefix.  The
    memo maps each state the walk has left to its completion count,
    saturated at ``limit``; 0 marks a dead state, never entered again.  A
    state known to be live is entered again only while the walk is still
    listing, since its sequences are not kept; after that its count is
    added as it stands.
    """
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


# A layer step expands at most this many sets at once, which bounds its
# temporaries however wide the layer: counting complete(20), whose widest
# layer holds 184,756 sets, peaks near 45 MiB of numpy memory (tracemalloc).
_LAYER_CHUNK = 1 << 14
# Added to a vertex's edge count once it joins the set: the entry then
# gains at most n - 1 <= 19 in all, so it stays negative (and within
# int8) and never equals a step.
_MEMBER = -64


def _dedupe_moves(children, counts, parents, vertices):
    """Moves merged by child set: the sorted distinct children, their
    summed path counts, and one (parent row, vertex) move into each."""
    order = children.argsort(kind="stable")
    children = children[order]
    first = np.empty(len(children), dtype=bool)
    first[:1] = True
    np.not_equal(children[1:], children[:-1], out=first[1:])
    starts = first.nonzero()[0]
    rep = order[starts]
    return (children[starts], np.add.reduceat(counts[order], starts),
            parents[rep], vertices[rep])


def _layered_count(g: Graph, target) -> int:
    """Number of vertex orders whose every prefix hits ``target``,
    counted one layer of optimal sets at a time.

    Layer k is the sorted array of k-sets reachable from the empty set
    through optimal prefixes.  Every reachable set hits the optimum, so
    a reachable k-set and a reachable (k+1)-set containing it are always
    joined by a move.  Layer k + 1 comes from one vectorized step over
    layer k and one dedupe, summing path counts; only the current layer
    is kept.
    """
    n = g.n
    adj = np.array([[row >> u & 1 for u in range(n)] for row in g.adj], dtype=np.int8)
    joined = adj.copy()  # adding vertex v adds joined[v] to the edge counts
    np.fill_diagonal(joined, _MEMBER)
    bits = np.left_shift(1, np.arange(n, dtype=np.int64))
    sets = np.zeros(1, dtype=np.int64)
    into = np.zeros((1, n), dtype=np.int8)  # edges from each vertex into each set
    # paths[i] counts the optimal prefixes ending in sets[i]: at most
    # k! <= 20! < 2^63 under ORDER_ENUM_CAP, so int64 sums stay exact.
    paths = np.ones(1, dtype=np.int64)
    for k in range(n):
        hit = into == target[k + 1] - target[k]
        moves = (sets[:0], paths[:0], sets[:0], sets[:0])
        for lo in range(0, len(sets), _LAYER_CHUNK):
            # vertex-major, so each vertex's children come out sorted; a
            # move adds an absent vertex, so + sets its bit
            cols, rows = hit[lo:lo + _LAYER_CHUNK].T.nonzero()
            rows += lo
            found = (sets[rows] + bits[cols], paths[rows], rows, cols)
            if lo:
                found = [np.concatenate(pair) for pair in zip(moves, found)]
            moves = _dedupe_moves(*found)
        sets, paths, parent, vertex = moves
        into = into[parent] + joined[vertex]
    return int(paths.sum())  # the full set's count, or 0 if no prefix reached it


def has_ns(g: Graph, profile: IsoProfile | None = None, side: str = "induced") -> NsSearch:
    """Search for an order whose every prefix is an optimal set.

    Returns the lexicographically least such order if one exists.  The
    search walks optimal prefixes depth first, memoizing dead sets, so
    a returned None is an exhausted negative, not a timeout.  ``side``
    picks which optimum the prefixes must achieve (induced maximum by
    default, boundary minimum as the off-by-default variant).
    """
    prof = profile or iso_profile(g)
    moves = _vertex_moves(g, _optimum_table(prof, side), side == "boundary")
    found, _, deepest = _walk(g.n, 0, moves, 1, 1)
    return NsSearch(found[0], g.n) if found else NsSearch(None, deepest)


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

    ``_layered_count`` counts them one layer of optimal k-sets at a time,
    summing int64 path counts, which stay exact: a count at layer k is
    at most k! <= 20! < 2^63 under ``ORDER_ENUM_CAP``.  A total of 0
    lists nothing; otherwise ``_walk`` lists the first ``cap`` orders,
    marking the dead sets it meets on the way.  It needs no count, so its
    limit is 1: each state counts only as live or dead, and the walk
    stops at the ``cap``-th order.
    """
    if g.n > ORDER_ENUM_CAP:
        raise CapacityError(
            f"order enumeration on {g.n} vertices exceeds the {ORDER_ENUM_CAP}-vertex cap")
    prof = profile or iso_profile(g)
    total = _layered_count(g, prof.induced)
    if not total:
        return [], 0
    orders, _, _ = _walk(g.n, 0, _vertex_moves(g, prof.induced), cap, min(cap, 1))
    return [OptimalOrder(order) for order in orders], total
