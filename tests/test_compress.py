"""Diagrams, the column DP, compression, chains, and order reports."""

import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import edgeiso.compress
from edgeiso.compress import (CompressedChain, Diagram, DiagramOptimizer,
                              colex_chain, compress_set, diagram_weight,
                              enumerate_compressed_optimal_orders, lex_chain,
                              power_lex_check, verify_lex_square)
from edgeiso.delta import delta_of, nested_solution_form
from edgeiso.errors import CapacityError, InputError, NsRequiredError
from edgeiso.graphs import (cartesian_power, cartesian_product, complete, cycle,
                            empty_graph, from_edge_list, induced_edges, named,
                            path, petersen, relabel)
from edgeiso.solver import has_ns, iso_profile

K3K3_INDUCED = (0, 0, 1, 3, 4, 6, 9, 11, 14, 18)


def all_heights(nh, ng):
    """Every non-increasing height vector in an nh x ng box."""
    def rec(x, cap, acc):
        if x == nh:
            yield tuple(acc)
            return
        for h in range(cap + 1):
            acc.append(h)
            yield from rec(x + 1, h, acc)
            acc.pop()
    yield from rec(0, ng, [])


def delta_for(g):
    return delta_of(iso_profile(g))


# ------------------------------------------------------------
# Diagram
# ------------------------------------------------------------

def test_diagram_validation():
    Diagram((3, 2, 0), (3, 3))
    with pytest.raises(InputError):
        Diagram((3, 2), (3, 3))
    with pytest.raises(InputError):
        Diagram((4, 0, 0), (3, 3))
    with pytest.raises(InputError):
        Diagram((1, 2, 0), (3, 3))


def test_diagram_cells_and_mask():
    d = Diagram((2, 1, 0), (3, 3))
    assert d.size == 3
    assert list(d.cells()) == [(0, 0), (0, 1), (1, 0)]
    # labels x * 3 + y: cells 0, 1, 3
    assert d.product_mask() == 0b1011


def test_diagram_serialization():
    d = Diagram((4, 1, 0), (3, 4))
    assert d.serialize() == "4,1,0"
    assert Diagram.parse("4,1,0", (3, 4)) == d
    with pytest.raises(InputError):
        Diagram.parse("4,x,0", (3, 4))


def test_prefix_constructors():
    assert Diagram.lex_prefix(3, 4, 5).heights == (4, 1, 0)
    assert Diagram.colex_prefix(3, 4, 5).heights == (2, 2, 1)
    for m in range(13):
        assert Diagram.lex_prefix(3, 4, m).size == m
        assert Diagram.colex_prefix(3, 4, m).size == m
    with pytest.raises(InputError):
        Diagram.lex_prefix(3, 4, 13)


def test_prefixes_match_chains():
    for nh, ng in ((2, 2), (3, 4), (4, 3)):
        lex = lex_chain(nh, ng)
        colex = colex_chain(nh, ng)
        for m in range(nh * ng + 1):
            assert lex.diagram(m) == Diagram.lex_prefix(nh, ng, m)
            assert colex.diagram(m) == Diagram.colex_prefix(nh, ng, m)


# ------------------------------------------------------------
# Weight formula
# ------------------------------------------------------------

def test_diagram_weight_equals_direct_count():
    factors = [complete(3), path(4), cycle(5), complete(2)]
    for h_graph in factors:
        dh = delta_for(h_graph)
        for g_graph in factors:
            dg = delta_for(g_graph)
            product = cartesian_product(h_graph, g_graph)
            for heights in all_heights(h_graph.n, g_graph.n):
                diagram = Diagram(heights, (h_graph.n, g_graph.n))
                expected = induced_edges(product, diagram.product_mask())
                assert diagram_weight(dh, dg, diagram) == expected


def test_diagram_weight_random_large(z2, z2_profile):
    form, d = nested_solution_form(z2, z2_profile)
    product = cartesian_product(form, form)
    rng = random.Random(32)
    for _ in range(200):
        heights = sorted((rng.randint(0, 17) for _ in range(17)), reverse=True)
        diagram = Diagram(heights, (17, 17))
        expected = induced_edges(product, diagram.product_mask())
        assert diagram_weight(d, d, diagram) == expected


def test_diagram_weight_box_mismatch():
    with pytest.raises(InputError):
        diagram_weight(delta_for(complete(3)), delta_for(complete(3)),
                       Diagram((2, 1), (2, 4)))


# ------------------------------------------------------------
# DP optimizer
# ------------------------------------------------------------

def test_optimizer_matches_exhaustive_diagram_scan():
    pairs = [(complete(3), complete(3)), (path(3), path(4)),
             (cycle(4), complete(2)), (path(5), cycle(3))]
    for h_graph, g_graph in pairs:
        dh, dg = delta_for(h_graph), delta_for(g_graph)
        opt = DiagramOptimizer(dh, dg)
        best = {}
        arg = {}
        for heights in all_heights(h_graph.n, g_graph.n):
            diagram = Diagram(heights, (h_graph.n, g_graph.n))
            w = diagram_weight(dh, dg, diagram)
            if w > best.get(diagram.size, -1):
                best[diagram.size] = w
                arg[diagram.size] = [heights]
            elif w == best[diagram.size]:
                arg[diagram.size].append(heights)
        for m in range(h_graph.n * g_graph.n + 1):
            assert opt.optimum(m) == best[m]
            witness = opt.witness(m)
            assert witness.size == m
            assert diagram_weight(dh, dg, witness) == best[m]
            # the DP returns the lexicographically least optimal heights
            assert witness.heights == min(arg[m])


def test_optimizer_equals_product_profile_k3():
    d = delta_for(complete(3))
    opt = DiagramOptimizer(d, d)
    assert tuple(opt.optima()) == K3K3_INDUCED
    assert opt.optimum(4) == K3K3_INDUCED[4]
    assert opt.witness(4).heights == (2, 1, 1)
    product = cartesian_product(complete(3), complete(3))
    assert iso_profile(product).induced == K3K3_INDUCED


def test_optimizer_range_errors():
    opt = DiagramOptimizer(delta_for(complete(3)), delta_for(complete(3)))
    with pytest.raises(InputError):
        opt.optimum(10)
    with pytest.raises(InputError):
        opt.witness(-1)


# ------------------------------------------------------------
# Compression of arbitrary sets
# ------------------------------------------------------------

def test_compress_set_accepts_three_input_forms():
    h, g = path(3), complete(3)
    # product labels x * 3 + y; cells (0,0), (1,1), (2,2)
    cells = [(0, 0), (1, 1), (2, 2)]
    mask = (1 << 0) | (1 << 4) | (1 << 8)
    from edgeiso.graphs import VertexSet
    got = {compress_set(h, g, cells).heights,
           compress_set(h, g, mask).heights,
           compress_set(h, g, VertexSet.from_mask(9, mask)).heights}
    assert len(got) == 1


def test_compress_set_never_loses_edges():
    h, g = path(4), complete(3)
    product = cartesian_product(h, g)
    rng = random.Random(33)
    for _ in range(200):
        mask = rng.getrandbits(product.n)
        diagram = compress_set(h, g, mask)
        assert diagram.size == mask.bit_count()
        assert induced_edges(product, diagram.product_mask()) >= \
            induced_edges(product, mask)


def test_compress_set_idempotent_on_diagrams():
    h, g = complete(3), path(3)
    for heights in all_heights(3, 3):
        diagram = Diagram(heights, (3, 3))
        assert compress_set(h, g, diagram.product_mask()) == diagram


def test_compress_set_rejects_bad_cells():
    with pytest.raises(InputError):
        compress_set(path(3), path(3), [(0, 7)])


def test_compress_set_canary_for_non_ns_labels():
    # labels 0,1 of this path are its two endpoints, so initial segments
    # are not optimal and compression is allowed to lose edges: caught
    h = relabel(path(3), (0, 2, 1))
    with pytest.raises(RuntimeError):
        compress_set(h, h, 0b101)


# ------------------------------------------------------------
# Chains
# ------------------------------------------------------------

def test_chain_classification():
    assert lex_chain(3, 4).classify() == "lex"
    assert colex_chain(3, 4).classify() == "colex"
    other = CompressedChain(
        ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)),
        (3, 3))
    assert other.classify() == "other"
    assert other.diagram(5).heights == (3, 1, 1)
    with pytest.raises(InputError):
        CompressedChain(((0, 0),), (2, 2))


def test_enumerate_chains_complete_graphs():
    for n in (3, 4):
        survey = enumerate_compressed_optimal_orders(complete(n), cap=10)
        assert survey.total == 2 and survey.exact
        assert sorted(survey.classifications) == ["colex", "lex"]


def test_enumerate_chains_z2(z2, z2_profile):
    survey = enumerate_compressed_optimal_orders(z2, cap=10, profile=z2_profile)
    assert survey.total == 2 and survey.exact
    assert sorted(survey.classifications) == ["colex", "lex"]


def test_enumerate_chains_path3_many():
    # path(3) squared: the lex chain is not optimal, four other chains are
    survey = enumerate_compressed_optimal_orders(path(3), cap=10)
    assert survey.total == 4 and survey.exact
    assert set(survey.classifications) == {"other"}


def test_enumerate_chains_prefixes_hit_optima():
    for g in (complete(4), path(3), cycle(4)):
        _, d = nested_solution_form(g)
        opt = DiagramOptimizer(d, d)
        survey = enumerate_compressed_optimal_orders(g, cap=10)
        assert survey.total >= 1
        for chain in survey.chains:
            for m in range(1, g.n * g.n + 1):
                weight = diagram_weight(d, d, chain.diagram(m))
                assert weight == opt.optimum(m)


def test_enumerate_chains_count_limit():
    # the empty graph makes every chain optimal: 42 fillings of a 3x3 box
    survey = enumerate_compressed_optimal_orders(empty_graph(3), cap=1,
                                                 count_limit=100_000)
    assert survey.total == 42 and survey.exact
    capped = enumerate_compressed_optimal_orders(empty_graph(3), cap=2,
                                                 count_limit=5)
    assert capped.total == 5 and not capped.exact
    assert len(capped.chains) == 2


# ------------------------------------------------------------
# Lex-square and power reports
# ------------------------------------------------------------

def test_verify_lex_square_z2(z2, z2_profile):
    report = verify_lex_square(z2, z2_profile)
    assert report.ok and not report.evidence_only
    assert len(report.rows) == 17 * 17
    assert report.failures() == []


def test_verify_lex_square_complete4():
    assert verify_lex_square(complete(4)).ok


def test_verify_lex_square_petersen_fails(pet):
    # Petersen is not delta-dense and its lex chain already loses at
    # size 4: a 2x2 block holds four edges, a 3+1 column only three
    report = verify_lex_square(pet)
    assert not report.ok
    first = report.failures()[0]
    assert (first.size, first.candidate, first.optimum) == (4, 3, 4)
    assert len(report.failures()) == 16


def test_verify_lex_square_path3_fails():
    report = verify_lex_square(path(3))
    assert not report.ok
    first = report.failures()[0]
    # size 4: lex holds a 3+1 column worth 3; the 2x2 block holds 4
    assert (first.size, first.candidate, first.optimum) == (4, 3, 4)
    assert first.witness == "2,2,0"
    assert report.to_dict()["rows"][3]["pass"] is False


def test_verify_lex_square_needs_ns(no_ns_graph):
    with pytest.raises(NsRequiredError):
        verify_lex_square(no_ns_graph)


def test_power_lex_check_exhaustive():
    report = power_lex_check(complete(2), 3)
    assert report.ok and not report.evidence_only
    assert len(report.rows) == 8
    assert "2^8" in report.note


def test_power_lex_check_relabels_base():
    # base labels out of nested-solution order must not matter
    scrambled = relabel(path(3), (0, 2, 1))
    report = power_lex_check(scrambled, 2)
    straight = power_lex_check(path(3), 2)
    assert [r.candidate for r in report.rows] == [r.candidate for r in straight.rows]
    # path(3) squared genuinely defeats the lex order at size 4
    assert not report.ok
    assert report.failures()[0].size == 4


def test_power_lex_check_rejects_unknown_modes():
    for mode in ("sampled", "exact"):
        with pytest.raises(InputError, match="use exhaustive or compressed"):
            power_lex_check(complete(3), 2, mode=mode)


def test_power_lex_check_guards_come_first(monkeypatch):
    def forbidden(*args):
        raise AssertionError("work started before the input guards")

    monkeypatch.setattr(edgeiso.compress, "nested_solution_form", forbidden)
    monkeypatch.setattr(edgeiso.compress, "DiagramOptimizer", forbidden)
    monkeypatch.setattr(edgeiso.compress, "_column_tables", forbidden)
    for mode in ("exhaustive", "compressed"):
        with pytest.raises(InputError):
            power_lex_check(complete(2), 0, mode=mode)
        for d in (13, 40):
            with pytest.raises(CapacityError):
                power_lex_check(complete(2), d, mode=mode)


def test_exhaustive_power_check_refuses_before_work(monkeypatch):
    import edgeiso.delta
    import edgeiso.solver

    class WorkStarted(Exception):
        pass

    def forbidden(*args, **kwargs):
        raise WorkStarted

    monkeypatch.setattr(edgeiso.compress, "cartesian_power", forbidden)
    monkeypatch.setattr(edgeiso.delta, "has_ns", forbidden)
    for name in ("_scan_gray", "_scan_blocks"):
        monkeypatch.setattr(edgeiso.solver, name, forbidden)
    for base, d in ((complete(16), 3), (complete(4), 6), (complete(2), 6)):
        with pytest.raises(CapacityError, match="32-vertex ceiling"):
            power_lex_check(base, d)
    with pytest.raises(WorkStarted):  # 2^5 = 32 vertices is within the ceiling
        power_lex_check(complete(2), 5)


def test_compressed_power_check_keeps_two_tables():
    # all 2049 tables of complete(2)^12 would take about 200 MB; two take 200 kB
    tracemalloc.start()
    try:
        report = power_lex_check(complete(2), 12, mode="compressed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and len(report.rows) == 4096
    assert peak < 16 * 2**20


def rows_of(report):
    return [(r.size, r.candidate, r.optimum, r.ok) for r in report.rows]


@pytest.mark.parametrize("expr, d", [
    ("complete(2)", 1), ("complete(2)", 3), ("complete(2)", 4), ("complete(3)", 2),
    ("complete(4)", 2), ("path(3)", 2), ("star(4)", 2), ("cycle(4)", 2),
])
def test_compressed_matches_exhaustive_pinned(expr, d):
    g = named(expr)
    compressed = power_lex_check(g, d, mode="compressed")
    exhaustive = power_lex_check(g, d)
    assert rows_of(compressed) == rows_of(exhaustive)
    assert compressed.ok == exhaustive.ok and not compressed.evidence_only


def test_compressed_reports_first_failing_power_path3():
    report = power_lex_check(path(3), 3, mode="compressed")
    assert not report.ok
    assert len(report.rows) == 9  # the report covers path(3)^2
    assert "path(3)^2" in report.subject and "path(3)^3" in report.subject
    assert "path(3)^3" in report.note
    first = report.failures()[0]
    assert (first.size, first.candidate, first.optimum) == (4, 3, 4)
    assert first.witness == "2,2,0"
    # labels below 9 have first coordinate 0, so both sets lie in path(3)^3
    cube = cartesian_power(nested_solution_form(path(3))[0], 3)
    assert induced_edges(cube, 0b1111) == 3
    assert induced_edges(cube, Diagram.parse(first.witness, (3, 3)).product_mask()) == 4


def test_compressed_reports_first_failing_power_petersen(pet):
    report = power_lex_check(pet, 3, mode="compressed")
    assert not report.ok
    assert len(report.rows) == 100
    assert "petersen^2" in report.subject
    first = report.failures()[0]
    assert (first.size, first.candidate, first.optimum) == (4, 3, 4)


@st.composite
def ns_powers(draw):
    """A random graph with nested solutions and an exponent with n^d <= 16."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, max(k for k in range(1, 5) if n ** k <= 16)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = from_edge_list(n, [pair for pair, kept in zip(pairs, keep) if kept])
    assume(has_ns(g).order is not None)
    return g, d


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ns_powers())
def test_compressed_matches_exhaustive_random(case):
    g, d = case
    compressed = power_lex_check(g, d, mode="compressed")
    # when lex fails first at power k < d, the report covers g^k
    k = d
    while g.n ** k != len(compressed.rows):
        k -= 1
    assert k == d or not compressed.ok
    assert rows_of(compressed) == rows_of(power_lex_check(g, k))
    assert compressed.ok == power_lex_check(g, d).ok
