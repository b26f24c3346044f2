"""Property tests for the two counting identities every check rests on.

For a vertex set A, 2 * I(A) + Theta(A) is the degree sum over A: the
edge-count kernel in ``graphs`` counts both sides at once, and its
batched tally counts either side of many sets in many graphs on one
vertex set in one pass: edges with both ends in the set (induced) or
with exactly one (crossing).  For a staircase in H x G with both
factors in nested-solution order, the induced edges are the cell sum of
dH[x] + dG[y]: ``compress`` turns that into column weights and the
diagram DP, and the compression oracle in ``conftest`` pushes any set
into staircase form.  Each property is checked against the set-based
oracles in ``conftest`` or the exhaustive scan, on random factors
relabeled by ``nested_solution_form``.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_boundary, brute_induced, compress_set, staircase_mask
from edgeiso.compress import DiagramOptimizer, diagram_weight, staircase_members
from edgeiso.delta import nested_solution_form
from edgeiso.graphs import (_TALLY_CELLS, _edge_counts, _edge_tally, boundary_edges,
                            cartesian_product, complete, cycle, empty_graph, from_edge_list,
                            induced_edges, path, petersen)
from edgeiso.solver import iso_profile

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def random_graphs(draw, max_n: int, min_n: int = 1):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [pair for pair, kept in zip(pairs, keep) if kept])


# Every graph on at most six vertices has nested solutions.
ns_factors = random_graphs(5).map(nested_solution_form)


# Products on 70..100 vertices: masks wider than any machine word.
wide_products = st.builds(cartesian_product, random_graphs(10, min_n=7),
                          random_graphs(10, min_n=10))


def brute_counts(g, mask):
    members = [v for v in range(g.n) if mask >> v & 1]
    edges = g.edges()
    return brute_induced(edges, members), brute_boundary(edges, members)


def membership(g, masks, dtype=bool):
    return np.array([[mask >> v & 1 for v in range(g.n)] for mask in masks],
                    dtype=dtype).reshape(len(masks), g.n)


def check_batched_counts(graphs, masks, member=None):
    """Both tallies of every graph against the scalar kernel, and of the
    first graph against the set oracles too; ``member`` defaults to the
    boolean membership matrix of ``masks``."""
    if member is None:
        member = membership(graphs[0], masks)
    induced, crossing = _edge_tally(graphs, member, np.bitwise_and, np.bitwise_xor)
    assert induced.shape == crossing.shape == (len(graphs), len(masks))
    assert induced.dtype == crossing.dtype == np.int64
    for g, counts in zip(graphs, zip(induced.tolist(), crossing.tolist())):
        for mask, got in zip(masks, zip(*counts)):
            assert got == _edge_counts(g.adj, mask)
    for mask, got in zip(masks, zip(induced[0].tolist(), crossing[0].tolist())):
        assert got == brute_counts(graphs[0], mask)


@PROPERTY
@given(random_graphs(12), st.data())
def test_edge_count_kernel_matches_oracles(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    expected = brute_counts(g, mask)
    assert _edge_counts(g.adj, mask) == expected
    assert (induced_edges(g, mask), boundary_edges(g, mask)) == expected


# Sets per call up to which a tally step takes its full 255 edges.
FULL_STEP_SETS = _TALLY_CELLS // 255


@PROPERTY
@given(st.one_of(random_graphs(12), wide_products), st.integers(0, 300),
       st.randoms(use_true_random=False))
def test_batched_edge_counts_match_scalar_kernel(g, extra, rng):
    full = (1 << g.n) - 1
    check_batched_counts([g], [0, full] + [rng.getrandbits(g.n) for _ in range(extra)])


@PROPERTY
@given(st.integers(1, 12).flatmap(lambda n: st.lists(random_graphs(n, min_n=n), max_size=8)),
       st.integers(0, 40), st.randoms(use_true_random=False))
def test_many_graph_tally_matches_scalar_kernel(graphs, extra, rng):
    # graphs on one vertex set, edgeless ones included, tallied in one call
    assume(graphs)
    n = graphs[0].n
    full = (1 << n) - 1
    check_batched_counts(graphs, [0, full] + [rng.getrandbits(n) for _ in range(extra)])


def wide_graph_list():
    """Graphs on 100 vertices with 0, 300, 190, 300 and 0 edges: in steps
    of 255 edges each Petersen squared straddles a step, the first in a
    step of its own edges alone and the second across two steps that it
    shares with another graph."""
    square = cartesian_product(petersen(), petersen())
    grid = cartesian_product(cycle(10), path(10))
    return [empty_graph(100), square, grid, square, empty_graph(100)]


def test_batched_edge_counts_across_chunks_of_a_wide_product():
    # 300 edges: the full set fills one 255-edge step, which a uint8 sum
    # of a 256-edge step would wrap to zero
    graphs = wide_graph_list()
    assert graphs[1].edge_count() > 255
    rng = random.Random(5)
    masks = [0, (1 << 100) - 1] + [rng.getrandbits(100) for _ in range(513)]
    assert len(masks) <= FULL_STEP_SETS
    check_batched_counts(graphs[1:2], masks)
    check_batched_counts(graphs[1:], masks)
    check_batched_counts(graphs, [])


def test_batched_edge_counts_with_steps_under_255_edges():
    # past FULL_STEP_SETS sets the cell bound shortens each step
    graphs = wide_graph_list()
    rng = random.Random(6)
    masks = [(1 << 100) - 1, 0] + [rng.getrandbits(100) for _ in range(2 * FULL_STEP_SETS)]
    assert _TALLY_CELLS // len(masks) < 255
    check_batched_counts(graphs[1:], masks)


@pytest.mark.parametrize("g", [empty_graph(5), complete(1)], ids=["empty5", "k1"])
def test_batched_edge_counts_without_edges(g):
    full = (1 << g.n) - 1
    check_batched_counts([g], [0, full, full & 0b10101])
    check_batched_counts([g, g], [])
    assert _edge_tally([], membership(g, [full]), np.bitwise_and).shape == (1, 0, 1)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int32])
def test_batched_edge_counts_read_any_nonzero_entry_as_a_member(dtype):
    graphs = [cartesian_product(petersen(), complete(3)), empty_graph(30),
              cartesian_product(complete(3), petersen())]
    rng = random.Random(7)
    masks = [0, (1 << 30) - 1] + [rng.getrandbits(30) for _ in range(40)]
    member = membership(graphs[0], masks)
    for wide in (membership(graphs[0], masks, dtype), 3 * membership(graphs[0], masks, dtype)):
        check_batched_counts(graphs, masks, wide)
    # a column-major or strided view reads the same sets
    check_batched_counts(graphs, masks, np.asfortranarray(member))
    check_batched_counts(graphs, masks[::2], member[::2])


def test_tally_refuses_a_graph_off_the_sets_vertex_count():
    member = membership(petersen(), [0, 5])
    with pytest.raises(ValueError, match=r"complete\(3\) has 3 vertices"):
        _edge_tally([petersen(), complete(3)], member, np.bitwise_and)


@PROPERTY
@given(ns_factors, ns_factors, st.data())
def test_diagram_weight_counts_product_edges(left, right, data):
    (h, dh), (g, dg) = left, right
    heights = data.draw(st.lists(st.integers(0, g.n), min_size=h.n, max_size=h.n))
    heights.sort(reverse=True)
    product = cartesian_product(h, g)
    assert diagram_weight(dh, dg, heights) == \
        brute_counts(product, staircase_mask(heights, g.n))[0]


@PROPERTY
@given(ns_factors, ns_factors)
def test_diagram_optimum_equals_product_scan(left, right):
    (h, dh), (g, dg) = left, right
    assume(h.n * g.n <= 20)
    opt = DiagramOptimizer(dh, dg)
    product = cartesian_product(h, g)
    prof = iso_profile(product)
    assert opt.optima() == list(prof.induced)
    witnesses = opt.witnesses(range(product.n + 1)).tolist()
    for m, witness in enumerate(witnesses):
        assert sum(witness) == m
        assert brute_counts(product, staircase_mask(witness, g.n))[0] == opt.optimum(m)
        # compressing an optimal set keeps it optimal
        compressed = compress_set(h, g, prof.induced_witness[m])
        assert brute_counts(product, staircase_mask(compressed, g.n))[0] == prof.induced[m]


@PROPERTY
@given(st.one_of(ns_factors.map(lambda factor: (factor, factor)),
                 st.tuples(ns_factors, ns_factors)))
def test_height_row_witnesses_recount_to_the_optimum(factors):
    # square boxes, and boxes of any two factors
    (h, dh), (g, dg) = factors
    opt = DiagramOptimizer(dh, dg)
    sizes = range(h.n * g.n + 1)
    rows = opt.witnesses(sizes)
    for m, row in zip(sizes, rows):
        assert diagram_weight(dh, dg, row) == opt.optimum(m)  # checks row is a staircase
    member = staircase_members(rows, g.n)
    assert member.sum(axis=1).tolist() == list(sizes)
    product = cartesian_product(h, g)
    (induced,) = _edge_tally([product], member, np.bitwise_and)
    assert induced[0].tolist() == opt.optima()


@PROPERTY
@given(ns_factors, ns_factors, st.data())
def test_compression_never_loses_edges(left, right, data):
    (h, _), (g, _) = left, right
    product = cartesian_product(h, g)
    mask = data.draw(st.integers(0, (1 << product.n) - 1))
    heights = compress_set(h, g, mask)
    assert sum(heights) == mask.bit_count()
    after = brute_counts(product, staircase_mask(heights, g.n))[0]
    assert after >= brute_counts(product, mask)[0]
