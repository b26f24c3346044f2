"""The optimal-prefix walker against brute force.

Nested-solution search, order enumeration and compressed chains all
walk one memoized DAG of optimal prefixes.  These property tests pit
each caller against an oracle from conftest that filters every
permutation or every staircase cell sequence, so a wrong memo entry,
a bad dead-state mark or an off-by-one in the count limit shows up as
a disagreement.  The chain walker's boundary-path states are also
checked against a walker over column heights, a square's half walk
against the walk of its whole DAG, and the walker itself against one
that keeps each open state's label in its frame.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import edgeiso.compress
from conftest import (brute_chains, brute_optimal_orders, brute_tables, frame_walk,
                      full_walk_chains, height_chain_survey, survey_deltas)
from edgeiso.compress import _enumerate_chains, enumerate_compressed_optimal_orders
from edgeiso.delta import DeltaSequence, nested_solution_form
from edgeiso.graphs import from_edge_list, path, petersen
from edgeiso.solver import (_layered_count, _vertex_moves, _walk, enumerate_optimal_orders,
                            has_ns, iso_profile)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# A 15-vertex graph whose square has no compressed optimal chain; the
# unmemoized chain search re-walked its dead sub-DAGs for many minutes.
POOL_15_3_EDGES = [
    (0, 1), (0, 3), (0, 7), (1, 2), (1, 5), (1, 9), (1, 11), (2, 12), (3, 4), (3, 6),
    (3, 8), (3, 9), (4, 7), (4, 10), (6, 10), (7, 11), (8, 12), (9, 13), (10, 14), (11, 12),
]


# Graphs this small rarely lack nested solutions, so two that do are
# always tried: C4 plus a triangle, and one whose search backtracks
# through twenty dead prefixes before giving up at depth 4.
NO_NS_GRAPHS = [
    (7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]),
    (7, [(0, 1), (0, 3), (1, 3), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6)]),
]


PETERSEN = (10, petersen().edges())

# K8 less the edges 01 and 02 has optimal orders, yet the depth-first
# walk leaves 32 dead prefixes, some of six vertices, before its first.
K8_LESS_TWO = (8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                   if (u, v) not in ((0, 1), (0, 2))])


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, kept in zip(pairs, keep) if kept]


def delta_sequences(max_len):
    return st.lists(st.integers(0, 3), min_size=1, max_size=max_len).map(
        lambda values: DeltaSequence(sorted(values)))


@PROPERTY
@given(small_graphs(), st.integers(0, 12))
@example(NO_NS_GRAPHS[0], 3)
@example(NO_NS_GRAPHS[1], 3)
@example(K8_LESS_TWO, 12)
def test_orders_match_permutation_filter(graph, cap):
    n, edges = graph
    g = from_edge_list(n, edges)
    best_i, _ = brute_tables(n, edges)
    expected, _ = brute_optimal_orders(n, edges, best_i)
    orders, total = enumerate_optimal_orders(g, cap=cap)
    assert total == len(expected)
    assert [o.order for o in orders] == expected[:cap]


@PROPERTY
@given(small_graphs(max_n=11))
@example(NO_NS_GRAPHS[0])
@example(NO_NS_GRAPHS[1])
@example(PETERSEN)
def test_layered_count_matches_depth_first_count(graph):
    # the depth-first count over vertex masks is the oracle
    n, edges = graph
    g = from_edge_list(n, edges)
    prof = iso_profile(g)
    _, total, _ = _walk(n, 0, _vertex_moves(g, prof.induced), 0)
    assert _layered_count(g, prof.induced) == total


@PROPERTY
@given(small_graphs())
@example(NO_NS_GRAPHS[0])
@example(NO_NS_GRAPHS[1])
def test_has_ns_matches_permutation_filter(graph):
    n, edges = graph
    g = from_edge_list(n, edges)
    prof = iso_profile(g)
    best_i, best_t = brute_tables(n, edges)
    for side, optimum in (("induced", best_i), ("boundary", best_t)):
        expected, deepest = brute_optimal_orders(n, edges, optimum, boundary=side == "boundary")
        search = has_ns(g, prof, side=side)
        assert search.order == (expected[0] if expected else None), side
        assert search.deepest == deepest, side


@PROPERTY
@given(delta_sequences(3), delta_sequences(4), st.integers(0, 5), st.integers(0, 40))
def test_chains_match_staircase_filter(dh, dg, cap, count_limit):
    expected = brute_chains(dh.values, dg.values)
    survey = _enumerate_chains(dh, dg, cap=cap, count_limit=10**9)
    assert survey.total == len(expected) and survey.exact
    assert list(survey.chains) == expected[:cap]
    # the count stops at the limit; at least the first chain is counted
    limit = max(count_limit, 1)
    clipped = _enumerate_chains(dh, dg, cap=cap, count_limit=count_limit)
    assert clipped.total == min(len(expected), limit)
    assert clipped.exact == (len(expected) < limit)
    assert list(clipped.chains) == expected[:min(cap, limit)]


@st.composite
def chain_boxes(draw):
    """Unsorted factor deltas of a box up to 6 x 6, square or not."""
    nh, ng = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = st.integers(0, 3)
    return (draw(st.lists(values, min_size=nh, max_size=nh)),
            draw(st.lists(values, min_size=ng, max_size=ng)))


def assert_matches_height_walker(dh, dg, cap, count_limit):
    survey = _enumerate_chains(DeltaSequence(dh), DeltaSequence(dg), cap=cap,
                               count_limit=count_limit)
    total, exact, chains, kinds = height_chain_survey(dh, dg, cap, count_limit)
    assert (survey.total, survey.exact) == (total, exact)
    assert list(survey.chains) == chains
    assert survey.classifications == kinds
    return survey


@PROPERTY
@given(chain_boxes(), st.integers(0, 12), st.integers(0, 3000))
@example(([0, 1, 2], [0, 1, 2, 3, 4]), 10, 10_000)
@example(([2, 1, 1, 3], [0]), 3, 0)
@example(([0], [0, 0, 0, 0, 0, 0]), 12, 1)
@example(([0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]), 12, 3000)
def test_boundary_path_walker_matches_height_walker(deltas, cap, count_limit):
    # the boundary-path states against the column-height states they encode
    assert_matches_height_walker(*deltas, cap, count_limit)


def test_chain_surveys_pinned_on_path12_and_petersen():
    _, d = nested_solution_form(path(12))
    survey = assert_matches_height_walker(d.values, d.values, 10, 10_000)
    assert survey.total == 2048 and survey.exact
    # Petersen squared has more optimal chains than the count limit
    _, d = nested_solution_form(petersen())
    survey = assert_matches_height_walker(d.values, d.values, 10, 10_000)
    assert survey.total == 10_000 and not survey.exact


def test_chainless_square_finishes():
    g = from_edge_list(15, POOL_15_3_EDGES, name="pool(n=15,k=3)")
    survey = enumerate_compressed_optimal_orders(g)
    assert survey.total == 0 and survey.exact
    assert survey.chains == ()


def test_count_walks_deep_dags_without_recursion():
    found, total, deepest = _walk(5000, 0, lambda state, size: iter([(state, state + 1)]), 1)
    assert found == [tuple(range(5000))]
    assert (total, deepest) == (1, 5000)


def test_walk_reenters_a_live_state_only_while_listing():
    # K diamonds in a row: labels 0 and 1 both lead from state i to
    # state i + 1, so every one of the 2^K label sequences is full.
    # Listing the first 3 re-enters state K - 1 once; after that each
    # state's count is added as it stands, so moves runs K + 1 times.
    # Re-entering when not listing would run it about 2^K times, and
    # adding a known count while listing would list only 2 sequences.
    k, calls = 20, []

    def moves(state, size):
        calls.append(state)
        yield 0, state + 1
        yield 1, state + 1

    found, total, deepest = _walk(k, 0, moves, 3)
    assert total == 2 ** k and deepest == k
    assert found == [(0,) * (k - 1) + (0,), (0,) * (k - 1) + (1,), (0,) * (k - 2) + (1, 0)]
    assert len(calls) <= 2 * k + 2


def test_chain_survey_over_1600_cells():
    # K40 squared: only lex and colex hit the optimum at every size.
    d = DeltaSequence(range(40))
    survey = _enumerate_chains(d, d, cap=10, count_limit=10_000)
    assert survey.total == 2 and survey.exact
    assert survey.classifications == ("lex", "colex")


# Caps and count limits for the half walk: odd limits, whose halves
# round up, and caps above the total, which list transposes.
HALF_CAPS = (0, 1, 2, 3, 10)
HALF_LIMITS = (1, 2, 3, 4, 10_000)


@st.composite
def induced_deltas(draw, n=None):
    """A delta as an induced optimum's steps rise: delta(1) = 0 and
    0 <= delta(i + 1) <= delta(i) + 1, up to 8 entries."""
    values = [0]
    for _ in range(draw(st.integers(1, 8)) - 1 if n is None else n - 1):
        values.append(draw(st.integers(0, values[-1] + 1)))
    return DeltaSequence(values)


@st.composite
def square_boxes(draw):
    """A square's two deltas: one delta on both sides, or two of equal
    length, which keep the full walk."""
    dh = draw(induced_deltas())
    return dh, dh if draw(st.booleans()) else draw(induced_deltas(len(dh)))


def assert_half_walk_matches_full_walk(dh, dg):
    for cap in (-1, *HALF_CAPS):
        for count_limit in HALF_LIMITS:
            got = _enumerate_chains(dh, dg, cap=cap, count_limit=count_limit)
            assert got == full_walk_chains(dh, dg, cap, count_limit), (cap, count_limit)


@PROPERTY
@given(square_boxes())
@example((DeltaSequence((0, 1, 2, 2, 3, 4, 5, 5)),) * 2)  # dense
@example((DeltaSequence((0, 1, 1, 2, 2, 3, 3, 4)),) * 2)  # not dense
@example((DeltaSequence((0, 1, 2)), DeltaSequence((0, 1, 1))))
@example((DeltaSequence((0,)),) * 2)
def test_half_walk_matches_full_walk(box):
    # chains, total, exact and classifications, for every cap and limit
    assert_half_walk_matches_full_walk(*box)


def test_half_walk_matches_full_walk_on_the_survey_deltas():
    deltas = survey_deltas()
    assert len(deltas) == 46
    for d in deltas:
        assert_half_walk_matches_full_walk(d, d)


def test_z2_half_walk_enters_half_the_states(monkeypatch, z2, z2_profile):
    # the whole DAG of Z(2)'s square takes 674 moves calls
    calls = []
    walk = edgeiso.compress._walk

    def counting(depth, start, moves, cap, limit):
        def counted(state, size):
            calls.append(state)
            return moves(state, size)
        return walk(depth, start, counted, cap, limit)

    monkeypatch.setattr(edgeiso.compress, "_walk", counting)
    survey = enumerate_compressed_optimal_orders(z2, profile=z2_profile)
    assert (survey.total, survey.exact, survey.classifications) == (2, True, ("lex", "colex"))
    assert len(calls) <= 340


WALK_CAPS = (0, 1, 10)
WALK_LIMITS = (1, 5, math.inf)


def assert_walks_agree(depth, start, moves):
    # the frame walker resumes each frame's moves, so it needs an iterator
    def resumable(state, size):
        return iter(moves(state, size))

    for cap in WALK_CAPS:
        for limit in WALK_LIMITS:
            assert _walk(depth, start, moves, cap, limit) == \
                frame_walk(depth, start, resumable, cap, limit), (cap, limit)


@PROPERTY
@given(small_graphs(max_n=8))
@example(NO_NS_GRAPHS[0])
@example(NO_NS_GRAPHS[1])
@example(K8_LESS_TWO)
def test_walk_matches_frame_walk_on_vertex_dags(graph):
    # the DAGs of has_ns on both sides, and of order listing
    n, edges = graph
    g = from_edge_list(n, edges)
    prof = iso_profile(g)
    assert_walks_agree(n, 0, _vertex_moves(g, prof.induced))
    assert_walks_agree(n, 0, _vertex_moves(g, prof.boundary, True))


@PROPERTY
@given(chain_boxes())
@example(([0, 1, 2, 3], [0, 1, 2, 3]))
@example(([0, 1, 2], [0, 1, 2, 3, 4]))
def test_walk_matches_frame_walk_on_chain_dags(deltas):
    # every walk a chain survey starts, half walks included
    walks = []

    def recording(depth, start, moves, cap, limit):
        walks.append((depth, start, moves))
        return _walk(depth, start, moves, cap, limit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edgeiso.compress, "_walk", recording)
        _enumerate_chains(DeltaSequence(deltas[0]), DeltaSequence(deltas[1]), 10, 10_000)
    for walk in walks:
        assert_walks_agree(*walk)
