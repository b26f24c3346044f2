"""Simple undirected graphs with bit-vector adjacency.

Vertices are dense integers ``0..n-1``.  Each adjacency row is a Python
int used as a bit mask, so every single-set edge count in this package
reduces to popcounts of row intersections.  ``_edge_tally`` counts a
whole batch of sets at once, given as a (sets x n) membership matrix,
in any number of graphs on those n vertices: it reads the matrix
vertex-major once, gathers the two end rows of each edge that
``_edge_ends`` unpacks from all the graphs' adjacency bytes at once, and
sums each graph's segment of up to 255 edges at a time in byte lanes; it
needs no matmul and no numpy-2-only call.  A vertex set is given as an
int mask or as an iterable of vertices (``as_mask``).

The module also hosts the constructor expression grammar
(``complete(4)``, ``join(X,Y)``, ``power(complete(2),3)``, ...) and the
edge-list text format accepted by the command line front end.
"""

from __future__ import annotations

import ast
import os
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import CapacityError, InputError

# Hard cap on vertex count.  Everything here is exact and desk scale;
# adjacency rows are n-bit ints and profiles scan 2^n subsets, so there
# is no point pretending larger graphs are in scope.
MAX_VERTICES = 4096

# Cells per step of ``_edge_tally``: each step gathers (edges x sets)
# byte temporaries of at most this many cells (256 KB), plus each edge
# row's padding to whole 8-byte words, unless one edge row is wider, and
# takes at most 255 edges so that no byte lane of its sums can carry.
_TALLY_CELLS = 1 << 18


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph: no loops, no parallel edges.

    ``adj[v]`` is the neighbor set of ``v`` as a bit mask.  Duplicate
    edges in the input are merged; reversed duplicates too, since both
    directions set the same pair of bits.
    """

    __slots__ = ("n", "adj", "name")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (), name: str | None = None):
        if n < 1:
            raise InputError(f"vertex count must be at least 1, got {n}")
        if n > MAX_VERTICES:
            raise CapacityError(f"{n} vertices exceeds the {MAX_VERTICES}-vertex cap")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self.name = name

    @classmethod
    def _of_rows(cls, rows: Iterable[int], name: str | None) -> Graph:
        """The graph whose adjacency rows are ``rows``, taken as they are.

        The vertex count is checked as in ``Graph(n)``; the per-edge
        range and loop checks are not, so the caller must prove by
        construction that bit v of row u equals bit u of row v, that no
        row has bit u set in row u, and that no bit reaches len(rows).
        """
        rows = tuple(rows)
        g = cls(len(rows), name=name)
        g.adj = rows
        return g

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in range(self.n):
            higher = self.adj[u] >> (u + 1)
            for k in bit_indices(higher):
                out.append((u, u + 1 + k))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        label = self.name or "graph"
        return f"Graph({label}, n={self.n}, m={self.edge_count()})"

    def display_name(self) -> str:
        return self.name if self.name else f"graph(n={self.n})"


def as_mask(g: Graph, a) -> int:
    """Normalize a vertex set, given as a bit mask or an iterable of
    vertices, to a bit mask."""
    if isinstance(a, int):
        if a < 0 or a >> g.n:
            raise InputError(f"vertex set {a:#x} has members outside 0..{g.n - 1}")
        return a
    mask = 0
    for v in a:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
        mask |= 1 << v
    return mask


# ============================================================
# Edge counting primitives
# ============================================================

def _edge_counts(adj, mask: int) -> tuple[int, int]:
    """(induced, boundary) edges of the set ``mask``, counted vertex by
    vertex: twice the induced count plus the boundary is the degree sum."""
    inner2 = 0
    degsum = 0
    rest = mask
    while rest:
        low = rest & -rest
        row = adj[low.bit_length() - 1]
        inner2 += (row & mask).bit_count()
        degsum += row.bit_count()
        rest ^= low
    return inner2 // 2, degsum - inner2


def _edge_ends(graphs, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of ``graphs``, each on ``n`` vertices, as three intp
    arrays (graph, u, v) with u < v: graph by graph in the order given,
    and each graph's edges in ``edges()`` order.

    All the rows' little-endian bytes unpack at once to the stacked
    n x n adjacency matrices, whose flat nonzero positions come in
    (graph, row, column) order and split into those by divmod; the upper
    triangle keeps each edge once.
    """
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for g in graphs for row in g.adj),
                           dtype=np.uint8).reshape(len(graphs) * n, width)
    bits = np.unpackbits(packed, axis=1, count=n, bitorder="little")
    which, cell = np.divmod(np.flatnonzero(bits), n * n)
    u, v = np.divmod(cell, n)
    upper = u < v
    return which[upper], u[upper], v[upper]


def _edge_tally(graphs, member, *ops) -> np.ndarray:
    """Edge tallies of many graphs over many sets: entry [k, i, j] of the
    int64 (ops x graphs x sets) result counts the edges uv of graphs[i]
    with ``ops[k]([u in A], [v in A])`` true, A being row j of the
    (sets x n) matrix ``member``, so unpacking it gives one
    (graphs x sets) array per op.  Every graph must have n vertices, and
    a nonzero entry marks a member.

    The matrix is copied once to vertex-major bytes, and ``_edge_ends``
    lists all the graphs' edges in one array.  Each step gathers the end
    rows of a run of at most 255 edges and ``_TALLY_CELLS`` cells once,
    combines them with each op (``np.bitwise_and`` counts induced edges,
    ``np.bitwise_xor`` crossing ones) and sums each graph's segment of the
    run in byte lanes, one per set, with one ``reduceat`` over uint64
    words.  A graph whose edges straddle runs gets each run's sum.
    """
    sets, n = member.shape
    for g in graphs:
        if g.n != n:
            raise ValueError(f"{g.display_name()} has {g.n} vertices, but the sets are on {n}")
    # zero columns pad each vertex row to whole 8-byte words, so that a
    # run's rows can also be read as uint64 words
    rows = np.zeros((n, -(-sets // 8) * 8), dtype=bool)
    rows[:, :sets] = member.T
    rows = rows.view(np.uint8)
    which, u, v = _edge_ends(graphs, n)
    total = np.zeros((len(ops), len(graphs), sets), dtype=np.int64)
    step = max(1, min(255, _TALLY_CELLS // max(sets, 1)))
    for start in range(0, len(u), step):
        run = slice(start, start + step)
        first, second = rows.take(u[run], axis=0), rows.take(v[run], axis=0)
        owner = which[run]
        heads = np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))
        for k, op in enumerate(ops):
            # a byte sums at most 255 zeros and ones, so a uint64 add
            # never carries between bytes and adds eight sets at once
            words = np.add.reduceat(op(first, second).view(np.uint64), heads, axis=0)
            total[k, owner[heads]] += words.view(np.uint8)[:, :sets]
    return total


def induced_edges(g: Graph, a) -> int:
    """Number of edges with both endpoints in ``a``."""
    return _edge_counts(g.adj, as_mask(g, a))[0]


def cross_edges(g: Graph, a, b) -> int:
    """Edges writable with one endpoint in ``a`` and the other in ``b``.

    The sets may overlap; an edge inside the overlap is counted once.
    With ``a == b`` this equals ``induced_edges(g, a)``.
    """
    am = as_mask(g, a)
    bm = as_mask(g, b)
    adj = g.adj
    ordered = 0
    for v in bit_indices(am):
        ordered += (adj[v] & bm).bit_count()
    # ordered counts overlap-internal edges twice, everything else once
    return ordered - induced_edges(g, am & bm)


def boundary_edges(g: Graph, a) -> int:
    """Number of edges with exactly one endpoint in ``a``."""
    return _edge_counts(g.adj, as_mask(g, a))[1]


def degrees(g: Graph) -> tuple[int, ...]:
    """Degree sequence indexed by vertex."""
    return tuple(row.bit_count() for row in g.adj)


def is_regular(g: Graph) -> tuple[bool, int | None]:
    """(True, r) if every vertex has degree r, else (False, None)."""
    degs = degrees(g)
    if all(d == degs[0] for d in degs):
        return True, degs[0]
    return False, None


# ============================================================
# Constructors
# ============================================================

def from_edge_list(n: int, edges: Iterable[tuple[int, int]], name: str | None = None) -> Graph:
    return Graph(n, edges, name=name)


def complete(n: int) -> Graph:
    _require_order(n, "complete")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], name=f"complete({n})")


def empty_graph(n: int) -> Graph:
    _require_order(n, "empty")
    return Graph(n, (), name=f"empty({n})")


def path(n: int) -> Graph:
    _require_order(n, "path")
    return Graph(n, [(i, i + 1) for i in range(n - 1)], name=f"path({n})")


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs at least 3 vertices, got {n}")
    _require_order(n, "cycle")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle({n})")


def star(n: int) -> Graph:
    """Star on n vertices: center 0 joined to every leaf."""
    _require_order(n, "star")
    return Graph(n, [(0, i) for i in range(1, n)], name=f"star({n})")


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner five-cycle, step two
        edges.append((i, 5 + i))                # spokes
    return Graph(10, edges, name="petersen")


def graph_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; b's vertices are relabeled to follow a's.

    a's rows, then b's shifted past a's block: each row stays inside
    its own block, so the rows stay symmetric and loop-free.
    """
    rows = a.adj + tuple(row << a.n for row in b.adj)
    return Graph._of_rows(rows, _compose_name("union", a, b))


def join(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every edge between the two sides.

    The union's rows, each with the other side's whole block added: u in
    a gains every v in b exactly when v gains u, and no row gains a bit
    of its own block, so no loop either.
    """
    a_block, b_block = (1 << a.n) - 1, ((1 << b.n) - 1) << a.n
    rows = [row | b_block for row in a.adj] + [(row << a.n) | a_block for row in b.adj]
    return Graph._of_rows(rows, _compose_name("join", a, b))


def cartesian_product(a: Graph, b: Graph) -> Graph:
    """Cartesian product; vertex (x, y) gets label x * b.n + y.

    (x, y) and (u, v) are adjacent when x == u and yv is an edge of b,
    or xu is an edge of a and y == v.  So row (x, y) is b's row y moved
    to block x, OR'd with bit y of each block u that a's row x names;
    ``spread[x]`` holds bit 0 of those blocks.  Both parts are symmetric
    because a and b are, both avoid bit (x, y) because neither factor
    has a loop, and no bit leaves the a.n * b.n labels.
    """
    n = a.n * b.n
    if n > MAX_VERTICES:
        raise CapacityError(
            f"product on {a.n}*{b.n} vertices exceeds the {MAX_VERTICES}-vertex cap")
    spread = [sum(1 << (u * b.n) for u in bit_indices(row)) for row in a.adj]
    rows = [(b.adj[y] << x * b.n) | (spread[x] << y) for x in range(a.n) for y in range(b.n)]
    return Graph._of_rows(rows, _compose_name("product", a, b))


def cartesian_power(g: Graph, d: int) -> Graph:
    """Iterated Cartesian product.

    Coordinate tuples (x1, ..., xd) map to base-n labels with x1 most
    significant, so numeric label order equals lex order on tuples.
    """
    if d < 1:
        raise InputError(f"power exponent must be at least 1, got {d}")
    if capped_power(g.n, d, MAX_VERTICES) > MAX_VERTICES:
        raise CapacityError(
            f"power on {g.n}^{d} vertices exceeds the {MAX_VERTICES}-vertex cap")
    label = g.name if g.name else f"graph(n={g.n})"
    if g.n == 1:  # every power of one vertex is one vertex, however large d is
        return Graph(1, name=f"power({label},{d})")
    out = g
    for _ in range(d - 1):
        out = cartesian_product(out, g)
    return Graph._of_rows(out.adj, f"power({label},{d})")


def capped_power(n: int, d: int, bound: int) -> int:
    """n ** d when that is at most ``bound``, else some value above it;
    the exponent stops at bound's bit length, as 2 ** that exceeds bound."""
    return n ** min(d, bound.bit_length())


def relabel(g: Graph, order: Iterable[int]) -> Graph:
    """Permute labels so that new vertex k is old vertex order[k]."""
    seq = tuple(order)
    if sorted(seq) != list(range(g.n)):
        raise InputError("relabel order must be a permutation of all vertices")
    pos = [0] * g.n
    for new, old in enumerate(seq):
        pos[old] = new
    edges = [(pos[u], pos[v]) for u, v in g.edges()]
    return Graph(g.n, edges, name=f"relabel({g.display_name()})")


# The two building blocks of the join construction below: X is a pair
# of disjoint paths on 3 and 2 vertices, Y is two disjoint triangles.
def graph_x() -> Graph:
    return Graph(5, [(0, 1), (1, 2), (3, 4)], name="X")


def graph_y() -> Graph:
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)], name="Y")


def graph_z(k: int) -> Graph:
    """X joined with k copies of Y; Z(2) has 17 vertices and 111 edges.

    Built in one pass with the labels of the join chain
    ``join(...join(join(X, Y), Y)..., Y)``: X on 0..4, then each copy of
    Y, and an edge between every two vertices of different parts.
    """
    if k < 1:
        raise InputError(f"Z needs at least 1 copy of Y, got {k}")
    _require_order(5 + 6 * k, f"Z({k})")
    edges, start = [], 0
    for part in [graph_x()] + [graph_y()] * k:
        edges += [(start + u, start + v) for u, v in part.edges()]
        edges += [(u, v) for u in range(start) for v in range(start, start + part.n)]
        start += part.n
    return Graph(start, edges, name=f"Z({k})")


def _require_order(n: int, what: str) -> None:
    """Refuse a vertex count below 1 or over the cap before any edge is built."""
    if n < 1:
        raise InputError(f"{what} needs at least 1 vertex, got {n}")
    if n > MAX_VERTICES:
        raise CapacityError(f"{what} on {n} vertices exceeds the {MAX_VERTICES}-vertex cap")


def _compose_name(op: str, a: Graph, b: Graph) -> str | None:
    if a.name and b.name:
        return f"{op}({a.name},{b.name})"
    return None


# ============================================================
# Constructor expression grammar
# ============================================================
#
# An expression is a Python expression made only of calls of these
# names (case-insensitive), bare names of the constructors that take no
# arguments, and decimal integer literals.  Each name maps to its
# constructor and argument types.  Python's own parser reads the text;
# nothing is evaluated but these constructors.

_GRAMMAR = {
    "complete": (complete, (int,)),
    "path": (path, (int,)),
    "cycle": (cycle, (int,)),
    "star": (star, (int,)),
    "empty": (empty_graph, (int,)),
    "z": (graph_z, (int,)),
    "petersen": (petersen, ()),
    "x": (graph_x, ()),
    "y": (graph_y, ()),
    "union": (graph_union, (Graph, Graph)),
    "join": (join, (Graph, Graph)),
    "product": (cartesian_product, (Graph, Graph)),
    "power": (cartesian_power, (Graph, int)),
}


def named(expression: str) -> Graph:
    """Build a graph from a constructor expression like ``join(X,Y)``."""
    text = expression.strip()
    if not text.isascii():
        raise InputError("graph expression has a non-ASCII character")
    try:
        # no string literal is valid here, so the parser's warnings about
        # one (an invalid escape such as '\d') would only precede the error
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tree = ast.parse(text, "<expression>", "eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise InputError(f"malformed graph expression: {exc}") from None
    return _build(tree.body, Graph, text)


def _build(node: ast.expr, want: type, text: str):
    """The value of ``node``, which must be of type ``want``: int or Graph."""
    source = ast.get_source_segment(text, node)
    if want is int:
        if isinstance(node, ast.Constant) and source.isdigit():
            return node.value
        raise InputError(f"expected a decimal integer, got {source!r}")
    call = node if isinstance(node, ast.Call) else None
    head = call.func if call else node
    name = head.id.lower() if isinstance(head, ast.Name) else None
    if name not in _GRAMMAR:
        raise InputError(f"expected a graph, got {source!r}")
    build, types = _GRAMMAR[name]
    args = call.args if call else []
    if len(args) != len(types) or (call and call.keywords):
        kinds = ", ".join("integer" if t is int else "graph" for t in types) or "nothing"
        raise InputError(f"{name} takes ({kinds}), got {source!r}")
    return build(*[_build(arg, t, text) for arg, t in zip(args, types)])


# ============================================================
# Edge-list text format
# ============================================================
#
#   # optional comments
#   n 5
#   0 1
#   1 2

def parse_edge_list(text: str, name: str | None = None) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
                raise InputError(f"line {lineno}: expected header 'n <count>', got {raw!r}")
            n = int(parts[1])
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: vertex labels must be integers, got {raw!r}")
        edges.append((u, v))
    if n is None:
        raise InputError("missing 'n <count>' header line")
    return Graph(n, edges, name=name)


def load_graph(source: str) -> Graph:
    """Load a graph from an edge-list file path or constructor expression.

    An existing file wins over an expression of the same spelling.
    """
    if os.path.isfile(source):
        with open(source, encoding="utf-8") as fh:
            return parse_edge_list(fh.read(), name=os.path.basename(source))
    return named(source)
