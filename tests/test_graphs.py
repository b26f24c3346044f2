"""Graph construction, counting primitives, grammar, and formats."""

import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import edgeiso.graphs
from conftest import brute_boundary, brute_induced, random_graph
from edgeiso.errors import CapacityError, InputError
from edgeiso.graphs import (Graph, as_mask, bit_indices,
                            boundary_edges, cartesian_power,
                            cartesian_product, complete, cross_edges, cycle,
                            degrees, empty_graph,
                            from_edge_list, graph_union, graph_x, graph_y,
                            graph_z, induced_edges, is_regular, join,
                            load_graph, named, parse_edge_list, path,
                            petersen, relabel, star)


def test_bit_indices():
    assert list(bit_indices(0)) == []
    assert list(bit_indices(0b10110)) == [1, 2, 4]


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate merges
    assert g.n == 4
    assert g.edge_count() == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.adj == (0b0010, 0b0101, 0b0010, 0)
    assert degrees(g) == (1, 2, 1, 0)
    assert g == Graph(4, [(1, 2), (0, 1)])
    assert hash(g) == hash(Graph(4, [(1, 2), (0, 1)]))


def test_graph_validation():
    with pytest.raises(InputError):
        Graph(0)
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(CapacityError):
        Graph(4097)


def test_as_mask_forms():
    # a vertex set is an int mask or an iterable of vertices
    g = path(4)
    assert as_mask(g, 0b0110) == 0b0110
    assert as_mask(g, [2, 1]) == 0b0110
    assert as_mask(g, iter((0, 3, 3))) == 0b1001
    assert as_mask(g, ()) == 0
    for out_of_range in (1 << 4, -1, [4], [0, -1]):
        with pytest.raises(InputError):
            as_mask(g, out_of_range)
    with pytest.raises(InputError):
        induced_edges(g, [1, 5])


def test_counting_against_direct_count():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9))
        edges = g.edges()
        members = [v for v in range(g.n) if rng.random() < 0.5]
        assert induced_edges(g, members) == brute_induced(edges, members)
        assert boundary_edges(g, members) == brute_boundary(edges, members)


def test_boundary_is_cross_with_complement():
    rng = random.Random(12)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9))
        mask = rng.getrandbits(g.n)
        rest = ((1 << g.n) - 1) & ~mask
        assert boundary_edges(g, mask) == cross_edges(g, mask, rest)


def test_cross_edges_overlap_counted_once():
    g = complete(4)
    # overlapping sets: the edge inside the overlap appears once
    assert cross_edges(g, [0, 1], [1, 2]) == induced_edges(g, [0, 1, 2])
    assert cross_edges(g, [0, 1], [0, 1]) == induced_edges(g, [0, 1])


def test_degree_sum_is_twice_edges():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 10))
        assert sum(degrees(g)) == 2 * g.edge_count()


def test_is_regular():
    assert is_regular(cycle(5)) == (True, 2)
    assert is_regular(petersen()) == (True, 3)
    assert is_regular(empty_graph(3)) == (True, 0)
    assert is_regular(star(4)) == (False, None)


def test_named_families():
    assert complete(5).edge_count() == 10
    assert path(6).edge_count() == 5
    assert cycle(6).edge_count() == 6
    assert star(6).edge_count() == 5
    assert degrees(star(6)) == (5, 1, 1, 1, 1, 1)
    assert empty_graph(4).edge_count() == 0
    with pytest.raises(InputError):
        cycle(2)
    with pytest.raises(InputError):
        path(0)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10 and g.edge_count() == 15
    assert is_regular(g) == (True, 3)
    # girth 5: adjacent vertices never share a neighbor
    for u, v in g.edges():
        assert g.adj[u] & g.adj[v] == 0


def test_union_and_join():
    u = graph_union(path(2), path(3))
    assert (u.n, u.edge_count()) == (5, 3)
    assert u.edges() == [(0, 1), (2, 3), (3, 4)]
    j = join(path(2), path(3))
    assert (j.n, j.edge_count()) == (5, 3 + 6)
    assert {(0, 4), (1, 2)} <= set(j.edges())


def test_cartesian_product_grid():
    grid = cartesian_product(path(2), path(3))
    # 2x3 grid: 3 + 4 vertical/horizontal edges
    assert (grid.n, grid.edge_count()) == (6, 7)
    # (x, y) -> x * 3 + y; (0,1) neighbors (0,0), (0,2), (1,1)
    assert sorted(bit_indices(grid.adj[1])) == [0, 2, 4]


def test_cartesian_power_labeling():
    q3 = cartesian_power(complete(2), 3)
    assert (q3.n, q3.edge_count()) == (8, 12)
    # labels are base-2 tuples; neighbors differ in exactly one bit
    for u, v in q3.edges():
        assert (u ^ v).bit_count() == 1
    with pytest.raises(InputError):
        cartesian_power(complete(2), 0)


def test_product_capacity():
    with pytest.raises(CapacityError):
        cartesian_product(empty_graph(65), empty_graph(64))
    with pytest.raises(CapacityError):
        cartesian_power(empty_graph(17), 3)


def test_row_built_graphs_over_the_cap():
    # the rows are built before the vertex count is checked
    big = empty_graph(4096)
    for build in (graph_union, join):
        with pytest.raises(CapacityError):
            build(big, complete(1))


@st.composite
def small_graphs(draw):
    """A graph on 1..9 vertices, each pair an edge or not, named or not."""
    n = draw(st.integers(1, 9))
    pairs = itertools.combinations(range(n), 2)
    edges = [e for e, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))) if keep]
    return Graph(n, edges, name=draw(st.sampled_from([None, f"g{n}", "h"])))


def _by_definition(op, a, b):
    """The graph ``op`` of a and b, from the definition's edge list."""
    shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
    if op == "union":
        edges = a.edges() + shifted
    elif op == "join":
        edges = a.edges() + shifted + [(u, a.n + v) for u in range(a.n) for v in range(b.n)]
    else:  # product: (x, y) is x * b.n + y
        edges = [(x * b.n + u, x * b.n + v) for x in range(a.n) for u, v in b.edges()]
        edges += [(u * b.n + y, v * b.n + y) for u, v in a.edges() for y in range(b.n)]
    n = a.n * b.n if op == "product" else a.n + b.n
    name = f"{op}({a.name},{b.name})" if a.name and b.name else None
    return Graph(n, edges, name=name)


def _power_by_definition(g, d):
    """g^d from coordinate tuples: x1 most significant, and two tuples
    adjacent when they differ in one coordinate, along an edge of g."""
    tuples = list(itertools.product(range(g.n), repeat=d))
    label = {t: k for k, t in enumerate(tuples)}
    edges = [(label[t], label[t[:i] + (v,) + t[i + 1:]])
             for t in tuples for i in range(d) for v in bit_indices(g.adj[t[i]])]
    return Graph(len(tuples), edges, name=f"power({g.display_name()},{d})")


def _assert_simple(g):
    for u, row in enumerate(g.adj):
        assert row >> g.n == 0 and not row >> u & 1
        assert all(g.adj[v] >> u & 1 for v in bit_indices(row))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_graphs(), small_graphs(), st.integers(1, 4))
def test_row_built_graphs_match_their_definitions(a, b, d):
    built = [(cartesian_product(a, b), _by_definition("product", a, b)),
             (join(a, b), _by_definition("join", a, b)),
             (graph_union(a, b), _by_definition("union", a, b))]
    if a.n ** d <= 400:
        built.append((cartesian_power(a, d), _power_by_definition(a, d)))
    for got, want in built:
        assert (got.n, got.adj, got.name) == (want.n, want.adj, want.name)
        _assert_simple(got)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
def test_edge_ends_are_the_edges_in_order(n):
    rng = random.Random(n)
    graphs = [empty_graph(n), random_graph(rng, n), random_graph(rng, n, 0.9), complete(n)]
    which, u, v = edgeiso.graphs._edge_ends(graphs, n)
    assert which.dtype == u.dtype == v.dtype == np.intp
    # graph by graph, each graph's edges in order
    assert list(zip(which.tolist(), u.tolist(), v.tolist())) == \
        [(i, *edge) for i, g in enumerate(graphs) for edge in g.edges()]
    assert all(len(ends) == 0 for ends in edgeiso.graphs._edge_ends([], n))


def test_relabel():
    g = relabel(path(3), (2, 0, 1))
    # new k is old (2,0,1)[k]: old edges 0-1, 1-2 become 1-2, 2-0
    assert g.edges() == [(0, 2), (1, 2)]
    with pytest.raises(InputError):
        relabel(path(3), (0, 1, 1))


def test_relabel_preserves_counting():
    rng = random.Random(14)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8))
        order = list(range(g.n))
        rng.shuffle(order)
        h = relabel(g, order)
        assert sorted(degrees(h)) == sorted(degrees(g))
        members = [v for v in range(g.n) if rng.random() < 0.5]
        mapped = [order.index(v) for v in members]
        assert induced_edges(h, mapped) == induced_edges(g, members)


def test_join_construction_blocks():
    x = graph_x()
    assert (x.n, x.edge_count()) == (5, 3)
    y = graph_y()
    assert (y.n, y.edge_count()) == (6, 6)
    # two disjoint triangles
    assert induced_edges(y, [0, 1, 2]) == 3 and induced_edges(y, [3, 4, 5]) == 3
    z1 = graph_z(1)
    assert (z1.n, z1.edge_count()) == (11, 3 + 6 + 30)
    z2 = graph_z(2)
    assert (z2.n, z2.edge_count()) == (17, 111)
    assert z2.name == "Z(2)"


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
def test_z_is_the_join_chain(k):
    # The join chain's edges written out: X on 0..4, copy i of Y on
    # 5 + 6i..10 + 6i, and every pair of vertices in different parts.
    x_edges = [(0, 1), (1, 2), (3, 4)]
    y_edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    parts = [range(5)] + [range(5 + 6 * i, 11 + 6 * i) for i in range(k)]
    edges = x_edges + [(p[0] + u, p[0] + v) for p in parts[1:] for u, v in y_edges]
    edges += [(u, v) for i, a in enumerate(parts) for b in parts[i + 1:] for u in a for v in b]
    z = graph_z(k)
    assert (z.n, z.adj, z.name) == (5 + 6 * k, from_edge_list(5 + 6 * k, edges).adj, f"Z({k})")


def test_sizes_are_checked_before_any_edge_is_built(monkeypatch):
    def forbidden():
        raise AssertionError("a part was built")

    monkeypatch.setattr(edgeiso.graphs, "graph_x", forbidden)
    with pytest.raises(CapacityError):
        named("z(1000000)")
    for family in ("complete", "path", "cycle", "star", "empty"):
        with pytest.raises(CapacityError):
            named(f"{family}(1000000000)")


def test_expression_grammar():
    assert named("complete(5)") == complete(5)
    assert named("  Petersen ") == petersen()
    assert named("POWER(complete(2),3)") == cartesian_power(complete(2), 3)
    assert named("union(path(2), path(3))") == graph_union(path(2), path(3))
    assert named("join(x,y)") == join(graph_x(), graph_y())
    assert named("z(2)") == graph_z(2)
    assert named("product(complete(3),complete(3))") == \
        cartesian_product(complete(3), complete(3))


@pytest.mark.parametrize("bad", [
    "", "frob(3)", "complete", "complete(", "complete(2,3)",
    "complete(petersen)", "petersen(1)", "5", "complete(3) junk",
    "union(path(2))", "power(2,complete(2))", "complete(3)!",
    "complete(0x4)", "complete(1_0)", "complete(4.0)", "complete(True)",
    "complete(-1)", "complete(n=4)", "join(*x)", "x.y", "complete('4')",
    "complete(4)(3)",
])
def test_expression_errors(bad):
    with pytest.raises(InputError):
        named(bad)


def test_expression_errors_raise_no_parser_warnings():
    # the parser warns about the invalid escape \d (a SyntaxWarning from
    # Python 3.12, shown by default) before the string is refused
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InputError):
            named("complete('\\d')")
    assert caught == []


def nest(depth: int) -> str:
    return "power(" * depth + "x" + ",1)" * depth


# Where Python's expression syntax differs from the hand-written grammar
# it replaced.  Each row is accepted now and was rejected before.
@pytest.mark.parametrize("text, same_as", [
    ("petersen()", "petersen"),
    ("complete(4,)", "complete(4)"),
    ("(complete(3))", "complete(3)"),
    ("complete((3))", "complete(3)"),
    ("complete(4)  # a comment", "complete(4)"),
    ("join(x, # first part\n y)", "join(x,y)"),
    ("complete\\\n(4)", "complete(4)"),
])
def test_expression_now_accepted(text, same_as):
    assert named(text) == named(same_as)


# Each row is rejected now and was accepted before.
@pytest.mark.parametrize("text", [
    "complete(04)",         # leading zeros
    "complete\n(4)",        # a newline outside parentheses ends the expression
    "complete(\v4)",        # vertical tab is not Python whitespace
    "complete(\u0663)",     # a non-ASCII digit (ARABIC-INDIC THREE)
    nest(400),              # past the parser's nesting limit of about 200
])
def test_expression_now_rejected(text):
    with pytest.raises(InputError):
        named(text)


def test_expression_nesting_within_the_limit():
    assert named(nest(100)).name == nest(100).replace("x", "X")


def test_expression_names_fold_case_but_not_unicode():
    assert named("COMPLETE(4)") == complete(4)
    with pytest.raises(InputError):
        named("\uff43omplete(4)")  # FULLWIDTH c, which Python would fold to c


FAMILIES = {"complete": complete, "path": path, "cycle": cycle, "star": star,
            "empty": empty_graph, "z": graph_z}
ATOMS = {"petersen": petersen, "x": graph_x, "y": graph_y}
BINARY = {"union": graph_union, "join": join, "product": cartesian_product}


@st.composite
def expression_trees(draw, depth=4):
    """(tokens, graph): an expression as a token list, and its graph built
    by calling the constructors directly, with no parser."""
    kinds = ["family", "atom"] + (["binary", "power"] if depth > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "family":
        name = draw(st.sampled_from(sorted(FAMILIES)))
        k = draw(st.integers(3 if name == "cycle" else 1, 2 if name == "z" else 4))
        return [name, "(", str(k), ")"], FAMILIES[name](k)
    if kind == "atom":
        name = draw(st.sampled_from(sorted(ATOMS)))
        return [name], ATOMS[name]()
    inner, g = draw(expression_trees(depth - 1))
    if kind == "power":
        d = draw(st.integers(1, 2))
        assume(g.n ** d <= 300)
        return ["power", "(", *inner, ",", str(d), ")"], cartesian_power(g, d)
    name = draw(st.sampled_from(sorted(BINARY)))
    other, h = draw(expression_trees(depth - 1))
    assume((g.n * h.n if name == "product" else g.n + h.n) <= 300)
    return [name, "(", *inner, ",", *other, ")"], BINARY[name](g, h)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(expression_trees(), st.randoms(use_true_random=False))
def test_expression_matches_direct_construction(tree, rng):
    tokens, expected = tree
    text, level = rng.choice(["", " ", "\n"]), 0
    for token in tokens:
        level += {"(": 1, ")": -1}.get(token, 0)
        if token.isalpha():
            token = "".join(c.upper() if rng.random() < 0.3 else c for c in token)
        spaces = [""] * 3 + [" ", "\t", "\f"] + (["\n"] if level else [])
        text += token + rng.choice(spaces)
    g = named(text + rng.choice(["", " ", "\n"]))
    assert (g.n, g.adj, g.name) == (expected.n, expected.adj, expected.name)


def test_edge_list_comments_and_blanks():
    text = "# header comment\n\nn 3\n0 1  # inline\n\n1 2\n"
    g = parse_edge_list(text)
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize("text,fragment", [
    ("0 1\n", "line 1"),
    ("n three\n", "line 1"),
    ("n 3\n0 1 2\n", "line 2"),
    ("n 3\n0 x\n", "line 2"),
    ("", "missing"),
])
def test_edge_list_errors(text, fragment):
    with pytest.raises(InputError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_load_graph_file_wins_over_expression(tmp_path, monkeypatch):
    target = tmp_path / "complete(3)"
    target.write_text("n 2\n0 1\n")
    monkeypatch.chdir(tmp_path)
    g = load_graph("complete(3)")
    assert g.n == 2  # the file, not the expression
    assert load_graph(str(tmp_path / "complete(3)")).n == 2
    assert load_graph("complete(4)") == complete(4)


def test_from_edge_list_name():
    g = from_edge_list(3, [(0, 1)], name="probe")
    assert g.display_name() == "probe"
    assert "probe" in repr(g)
