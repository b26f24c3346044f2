"""Property tests for the two counting identities every check rests on.

For a vertex set A, 2 * I(A) + Theta(A) is the degree sum over A: the
edge-count kernel in ``graphs`` counts both sides at once.  For a
staircase in H x G with both factors in nested-solution order, the
induced edges are the cell sum of dH[x] + dG[y]: ``compress`` turns that
into column weights, the diagram DP and compression.  Each property is
checked against the set-based oracles in ``conftest`` or the exhaustive
scan, on random factors relabeled by ``nested_solution_form``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_boundary, brute_induced
from edgeiso.compress import Diagram, DiagramOptimizer, compress_set, diagram_weight
from edgeiso.delta import nested_solution_form
from edgeiso.graphs import (_edge_counts, boundary_edges, cartesian_product, from_edge_list,
                            induced_edges)
from edgeiso.solver import iso_profile

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def random_graphs(draw, max_n: int):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return from_edge_list(n, [pair for pair, kept in zip(pairs, keep) if kept])


# Every graph on at most six vertices has nested solutions.
ns_factors = random_graphs(5).map(nested_solution_form)


def brute_counts(g, mask):
    members = [v for v in range(g.n) if mask >> v & 1]
    edges = g.edges()
    return brute_induced(edges, members), brute_boundary(edges, members)


@PROPERTY
@given(random_graphs(12), st.data())
def test_edge_count_kernel_matches_oracles(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    expected = brute_counts(g, mask)
    assert _edge_counts(g.adj, mask) == expected
    assert (induced_edges(g, mask), boundary_edges(g, mask)) == expected


@PROPERTY
@given(ns_factors, ns_factors, st.data())
def test_diagram_weight_counts_product_edges(left, right, data):
    (h, dh), (g, dg) = left, right
    heights = data.draw(st.lists(st.integers(0, g.n), min_size=h.n, max_size=h.n))
    diagram = Diagram(sorted(heights, reverse=True), (h.n, g.n))
    product = cartesian_product(h, g)
    assert diagram_weight(dh, dg, diagram) == brute_counts(product, diagram.product_mask())[0]


@PROPERTY
@given(ns_factors, ns_factors)
def test_diagram_optimum_equals_product_scan(left, right):
    (h, dh), (g, dg) = left, right
    assume(h.n * g.n <= 20)
    opt = DiagramOptimizer(dh, dg)
    product = cartesian_product(h, g)
    prof = iso_profile(product)
    assert opt.optima() == list(prof.induced)
    for m in range(product.n + 1):
        witness = opt.witness(m)
        assert witness.size == m
        assert brute_counts(product, witness.product_mask())[0] == opt.optimum(m)
        # compressing an optimal set keeps it optimal
        compressed = compress_set(h, g, prof.induced_witness[m])
        assert brute_counts(product, compressed.product_mask())[0] == prof.induced[m]


@PROPERTY
@given(ns_factors, ns_factors, st.data())
def test_compression_never_loses_edges(left, right, data):
    (h, _), (g, _) = left, right
    product = cartesian_product(h, g)
    mask = data.draw(st.integers(0, (1 << product.n) - 1))
    diagram = compress_set(h, g, mask)
    assert diagram.size == mask.bit_count()
    after = brute_counts(product, diagram.product_mask())[0]
    assert after >= brute_counts(product, mask)[0]
