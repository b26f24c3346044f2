"""Shared fixtures and independent oracles for the test suite.

The brute-force helpers here deliberately avoid the package's bit-mask
machinery: they count edges straight off (u, v) lists with Python sets,
so agreement with the solvers is a genuine cross-check rather than the
same code called twice.
"""

import itertools
import random

import pytest

from edgeiso.graphs import Graph, from_edge_list, graph_union, graph_z
from edgeiso.graphs import complete, cycle, petersen
from edgeiso.solver import iso_profile


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
