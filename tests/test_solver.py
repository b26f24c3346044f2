"""Profile scans, witnesses, and nested-solution searches."""

import hashlib
import json
import math
import os
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import edgeiso.solver
from conftest import brute_tables, brute_witnesses, random_graph
from edgeiso.errors import CapacityError, InputError
from edgeiso.graphs import (boundary_edges, cartesian_power, cartesian_product, complete,
                            cycle, degrees, empty_graph, from_edge_list, graph_union, graph_z,
                            induced_edges, is_regular, named, path, petersen, relabel, star)
from edgeiso.solver import (SCAN_CEILING, THREADS_ENV, IsoProfile, enumerate_optimal_orders,
                            has_ns, iso_profile, verify_order)

PETERSEN_INDUCED = (0, 0, 1, 2, 3, 5, 6, 8, 10, 12, 15)
PETERSEN_BOUNDARY = (0, 3, 4, 5, 6, 5, 6, 5, 4, 3, 0)
Z2_NS_ORDER = (0, 1, 5, 6, 7, 11, 12, 13, 2, 3, 4, 8, 9, 10, 14, 15, 16)


def profile_tuple(p: IsoProfile):
    return (p.induced, p.boundary, p.induced_witness, p.boundary_witness)


def narrow_profile(g, low_bits: int, strategy: str = "blocks") -> IsoProfile:
    """``iso_profile`` with the block width narrowed to ``low_bits``, so
    that small graphs split into many blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(edgeiso.solver, "_BLOCK_LOW_BITS", low_bits)
        return iso_profile(g, strategy=strategy)


# ------------------------------------------------------------
# Scan strategies against the independent oracle
# ------------------------------------------------------------

def test_gray_matches_brute_tables():
    rng = random.Random(21)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9))
        best_i, best_t = brute_tables(g.n, g.edges())
        prof = iso_profile(g, strategy="gray")
        assert list(prof.induced) == best_i
        assert list(prof.boundary) == best_t


def test_witnesses_are_least_optimal_masks():
    rng = random.Random(22)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6))
        wit_i, wit_t = brute_witnesses(g.n, g.edges())
        for strategy in ("gray", "blocks"):
            prof = iso_profile(g, strategy=strategy)
            assert list(prof.induced_witness) == wit_i, strategy
            assert list(prof.boundary_witness) == wit_t, strategy


def test_strategies_bit_identical():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, rng.randint(6, 12))
        gray = iso_profile(g, strategy="gray")
        # 3 low bits force many small blocks through the merge path
        blocks = narrow_profile(g, 3)
        assert profile_tuple(gray) == profile_tuple(blocks)
        assert (list(gray.induced), list(gray.boundary)) == brute_tables(g.n, g.edges())
        assert (list(gray.induced_witness),
                list(gray.boundary_witness)) == brute_witnesses(g.n, g.edges())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_blocks_match_brute_oracles(data):
    # Every block width, down to one low bit.
    n = data.draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    low_bits = data.draw(st.integers(1, n))
    prof = narrow_profile(from_edge_list(n, edges), low_bits)
    assert (list(prof.induced), list(prof.boundary)) == brute_tables(n, edges)
    assert (list(prof.induced_witness), list(prof.boundary_witness)) == brute_witnesses(n, edges)


@pytest.mark.parametrize("g", [cartesian_power(complete(2), 4),
                               cartesian_product(complete(3), complete(3))],
                         ids=["complete(2)^4", "complete(3)xcomplete(3)"])
def test_blocks_tie_heavy_graphs_equal_gray(g):
    # Vertex-transitive graphs tie at every size in many blocks, so the
    # least-mask rule decides almost every witness.
    blocks = narrow_profile(g, 2)
    assert profile_tuple(blocks) == profile_tuple(iso_profile(g, strategy="gray"))


def test_auto_strategy_equals_gray():
    g = random_graph(random.Random(24), 10)
    assert profile_tuple(iso_profile(g)) == profile_tuple(iso_profile(g, strategy="gray"))


def test_auto_strategy_cut_over(monkeypatch):
    # gray is the faster scan up to nine vertices, blocks from ten on
    import edgeiso.solver as solver
    used = []

    def recording(name):
        real = getattr(solver, name)

        def scan(g, **kwargs):
            used.append(name)
            return real(g, **kwargs)
        return scan

    for name in ("_scan_gray", "_scan_blocks"):
        monkeypatch.setattr(solver, name, recording(name))
    iso_profile(complete(9))
    iso_profile(complete(10))
    assert used == ["_scan_gray", "_scan_blocks"]


def test_petersen_profile_frozen(pet, pet_profile):
    assert pet_profile.induced == PETERSEN_INDUCED
    assert pet_profile.boundary == PETERSEN_BOUNDARY
    # witnesses are genuine sets of the right size achieving the optimum
    for m in range(pet.n + 1):
        w = pet_profile.induced_witness[m]
        assert w.bit_count() == m
        assert induced_edges(pet, w) == PETERSEN_INDUCED[m]


def test_unknown_strategy():
    for strategy in ("psychic", "combinations"):
        with pytest.raises(InputError):
            iso_profile(complete(3), strategy=strategy)


class ScanStarted(Exception):
    pass


def forbid_scans(monkeypatch):
    def forbidden(g, **kwargs):
        raise ScanStarted(g.n)

    for name in ("_scan_gray", "_scan_blocks"):
        monkeypatch.setattr(edgeiso.solver, name, forbidden)


def test_profile_capacity(monkeypatch):
    forbid_scans(monkeypatch)
    with pytest.raises(CapacityError, match=f"{SCAN_CEILING}-vertex ceiling"):
        iso_profile(empty_graph(SCAN_CEILING + 1))


def test_scan_ceiling_is_the_one_limit(monkeypatch):
    forbid_scans(monkeypatch)
    for n in (29, SCAN_CEILING):  # both reach the scan with no argument
        with pytest.raises(ScanStarted):
            iso_profile(empty_graph(n))
    with pytest.raises(TypeError):  # no call can move the ceiling
        iso_profile(complete(3), cap=SCAN_CEILING + 1)


# ------------------------------------------------------------
# One walker over every block
# ------------------------------------------------------------

def test_multi_block_scan_starts_no_thread(monkeypatch):
    import threading

    def refuse(self):
        raise AssertionError("the block scan started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    g = cartesian_product(path(4), path(5))  # 20 vertices: 4 full-width blocks
    assert not is_regular(g)[0]
    prof = iso_profile(g, strategy="blocks")  # witnesses recounted on the way out
    assert prof.induced[g.n] == g.edge_count()


def test_thread_count_does_not_change_output(monkeypatch):
    # EDGEISO_THREADS is read by nothing: a stale value, even one that is
    # not a count, neither changes a scan nor stops it.
    g = random_graph(random.Random(25), 14)
    gray = profile_tuple(iso_profile(g, strategy="gray"))
    for workers in ("1", "4", "13", "zero"):
        monkeypatch.setenv(THREADS_ENV, workers)
        assert profile_tuple(narrow_profile(g, 8)) == gray, workers


def test_production_width_blocks_equal_gray():
    # 19 vertices at the production width: 32 blocks of 14 bits.
    g = random_graph(random.Random(26), 19)
    assert len(set(degrees(g))) > 1
    gray = profile_tuple(iso_profile(g, strategy="gray"))
    assert profile_tuple(iso_profile(g, strategy="blocks")) == gray


class WidthRecorded(Exception):
    pass


def test_block_width_follows_the_vertex_count(monkeypatch):
    # The low width is min(n, 18, (n + 10) // 2): one block up to 10
    # vertices, 13 bits at 17, 15 at 20, 17 at 24 and 18 from 26.  The
    # width is recorded as the tables are built, and the scan stops there.
    import edgeiso.solver as solver
    widths = []

    def low_tables(adj, weights, k, dtype):
        widths.append(k)
        raise WidthRecorded

    monkeypatch.setattr(solver, "_low_tables", low_tables)
    sizes = range(10, SCAN_CEILING + 1)
    for n in sizes:
        for g in (path(n), cycle(n)):  # a two-table scan and a mirrored one
            with pytest.raises(WidthRecorded):
                iso_profile(g)
    rule = [min(n, 18, (n + 10) // 2) for n in sizes]
    assert widths == [k for k in rule for _ in range(2)]
    assert [rule[n - 10] for n in (10, 11, 12, 17, 20, 24, 25, 26, 32)] == [
        10, 10, 11, 13, 15, 17, 17, 18, 18]


@st.composite
def mid_size_graphs(draw):
    """Graphs on 11..14 vertices, which the production width splits into
    blocks: random regular ones, walked mirrored, and random irregular ones."""
    n = draw(st.integers(11, 14))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        r = draw(st.sampled_from([r for r in range(2, n - 1) if r * n % 2 == 0]))
        return random_regular_graph(random.Random(seed), n, r)
    g = random_graph(random.Random(seed), n, draw(st.sampled_from([0.2, 0.4, 0.6])))
    assume(not is_regular(g)[0])
    return g


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mid_size_graphs())
def test_production_width_scans_of_mid_size_graphs_equal_gray(g):
    assert profile_tuple(iso_profile(g)) == profile_tuple(iso_profile(g, strategy="gray"))


@pytest.mark.parametrize("g, digest", [
    (cartesian_power(complete(3), 3),
     "2daed19517e55208626005e8002c24cde37abb456bc04a27b588d4ed303e9f3d"),
    (named("product(path(4),path(6))"),
     "65ec143b1607c89a812688312cafcc254555a13bdd3c02e71f3c8fd03acf8c07"),
], ids=["complete(3)^3", "path(4) x path(6)"])
def test_production_width_profiles_pinned(g, digest):
    # The full-width 2^27 mirrored walk of a regular graph, and the
    # two-table walk of an irregular one over 128 blocks of 17 bits,
    # pinned to the digests of their tables and witnesses.
    text = json.dumps(iso_profile(g).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def bit_matrix(masks, k):
    return (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(k)) & 1


def check_low_tables(adj, weights, k, dtype):
    import edgeiso.solver as solver
    order, ind0, sums, bounds = solver._low_tables(adj, weights, k, dtype)
    assert ind0.dtype == sums.dtype == dtype
    assert np.array_equal(np.sort(order), np.arange(1 << k))
    # segment c is contiguous and holds comb(k, c) masks of popcount c, so
    # exactly the c-subsets
    assert len(bounds) == k + 2 and bounds[0] == 0 and bounds[-1] == 1 << k
    for c in range(k + 1):
        lo, stop = bounds[c], bounds[c + 1]
        assert stop - lo == math.comb(k, c)
        assert (bit_matrix(order[lo:stop], k).sum(axis=1) == c).all()
    bits = bit_matrix(order, k)
    assert np.array_equal(sums, (bits @ np.array(weights, dtype=np.int64).reshape(-1, k).T).T)
    lower = bit_matrix(adj[:k], k) * (np.arange(k) < np.arange(k)[:, None])
    assert np.array_equal(ind0, 2 * ((bits @ lower) * bits).sum(axis=1))


TABLE_TYPES = (np.uint8, np.int16)


def spread(top, k):
    """k non-negative weights, as even as can be, that sum to ``top``."""
    return [top // k + (j < top % k) for j in range(k)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_low_tables_group_subset_sums_by_popcount(data):
    # uint8 gets weights up to its maximum over k, so that a row's sum
    # stays within the type, and at most half its maximum in low edges;
    # int16 gets weights up to the largest degree, 31.
    import edgeiso.solver as solver
    k = data.draw(st.integers(1, 12))
    half = data.draw(st.integers(1, k))
    dtype = data.draw(st.sampled_from(TABLE_TYPES))
    top = int(np.iinfo(dtype).max)
    weight = st.integers(0, 31 if dtype is np.int16 else top // k)
    weights = data.draw(st.lists(st.lists(weight, min_size=k, max_size=k), max_size=3))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept][:top // 2]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_HALF_BITS", half)
        check_low_tables(from_edge_list(k, edges).adj, weights, k, dtype)


def test_low_tables_at_full_width_with_the_largest_entries():
    # The largest entries each type is chosen for.  int16: 2 per edge from
    # a high vertex, degrees up to 31 under the 32-vertex ceiling, and the
    # most low edges, so entries reach 18 * 31 = 558.  uint8: a weight row
    # that sums to 255, and as many low edges as ``_table_type`` admits,
    # so twice the low edges reach 254.
    import edgeiso.solver as solver
    k = solver._BLOCK_LOW_BITS
    check_low_tables(complete(k).adj, [[2] * k, [31] * k], k, np.int16)
    g = from_edge_list(k, complete(k).edges()[:127])
    assert solver._table_type(2 * g.edge_count()) is np.uint8
    check_low_tables(g.adj, [[2] * k, spread(255, k)], k, np.uint8)


@pytest.mark.parametrize("top, boundary, dtype", [
    (0, True, np.int8), (126, True, np.int8), (127, True, np.int8),
    (128, True, np.int16), (254, True, np.int16), (255, True, np.int16),
    (256, True, np.int16), (992, True, np.int16),
    (0, False, np.uint8), (126, False, np.uint8), (127, False, np.uint8),
    (128, False, np.uint8), (254, False, np.uint8), (255, False, np.uint8),
    (256, False, np.int16), (992, False, np.int16),
])
def test_table_type_is_the_narrowest_exact_type(top, boundary, dtype):
    # top = 2E bounds every entry of both scans' tables, and one rule
    # types them: the narrowest type that holds [0, 2E].  Without the
    # boundary table, dtype is that type.  With it, dtype is the type the
    # boundary table would need stored signed, in [-E, E] (int8 only
    # while 2E <= 127); stored offset by E it lies in [0, 2E] like the
    # induced table, so the one rule never picks a wider type.  An
    # edgeless graph has 2E = 0, and complete(32), the largest under the
    # ceiling, 992.
    import edgeiso.solver as solver
    chosen = solver._table_type(top)
    assert chosen is next(t for t in TABLE_TYPES if top <= np.iinfo(t).max)
    if boundary:
        assert np.dtype(chosen).itemsize <= np.dtype(dtype).itemsize
    else:
        assert chosen is dtype


def recording_table_types(monkeypatch):
    import edgeiso.solver as solver
    used = []
    real = solver._low_tables

    def low_tables(adj, weights, k, dtype):
        used.append(dtype)
        return real(adj, weights, k, dtype)

    monkeypatch.setattr(solver, "_low_tables", low_tables)
    return used


def test_two_table_scan_either_side_of_the_uint8_bound(monkeypatch):
    # Irregular graphs on the first 127 and 128 edges of complete(17):
    # 2E = 254 fits uint8 and 256 does not.  At 6 low bits each scan walks
    # 2048 blocks; at the production width, 16 blocks of 13 bits, none of
    # the edges lies among the 4 high vertices, so the induced table
    # reaches 2E in the block of all of them.
    used = recording_table_types(monkeypatch)
    pairs = complete(17).edges()
    for edges in (pairs[:127], pairs[:128]):
        g = from_edge_list(17, edges)
        assert not is_regular(g)[0]
        gray = profile_tuple(iso_profile(g, strategy="gray"))
        assert profile_tuple(narrow_profile(g, 6)) == gray
        assert profile_tuple(iso_profile(g)) == gray
    assert used == [np.uint8, np.uint8, np.int16, np.int16]


def test_z2_scans_two_uint8_tables(monkeypatch):
    # Z(2), the counterexample graph: irregular, so its scan keeps the
    # boundary table too, offset by its E = 111 edges.
    used = recording_table_types(monkeypatch)
    g = graph_z(2)
    assert not is_regular(g)[0]
    assert profile_tuple(iso_profile(g)) == profile_tuple(iso_profile(g, strategy="gray"))
    assert used == [np.uint8]


def test_regular_scan_either_side_of_the_uint8_bound(monkeypatch):
    # complete(16) has 2E = 240, which fits uint8, and complete(17) has
    # 272, past it.  Regular graphs need 17 vertices for 2E > 240, so
    # these are the smallest on either side.  In a complete graph every
    # m-set is optimal on both sides, so the least witness is the m lowest
    # vertices; the least witnesses pin the tables too, since the profile
    # recounts them.
    used = recording_table_types(monkeypatch)
    for n in (16, 17):
        prof = narrow_profile(complete(n), 12)
        assert list(prof.induced) == [m * (m - 1) // 2 for m in range(n + 1)]
        least = [(1 << m) - 1 for m in range(n + 1)]
        assert list(prof.induced_witness) == list(prof.boundary_witness) == least
    assert used == [np.uint8, np.int16]


# ------------------------------------------------------------
# Regular graphs: the boundary table is derived from the induced one
# ------------------------------------------------------------

def circulant(n, steps):
    """C_n(S): vertex i joined to i +- s (mod n) for each s in S."""
    return from_edge_list(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


@st.composite
def regular_graphs(draw):
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        steps = st.sets(st.integers(1, n // 2), max_size=3) if n > 1 else st.just(set())
        return circulant(n, draw(steps))
    a = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return cartesian_product(complete(a), cycle(draw(st.integers(3, 12 // max(a, 2)))))
    return cartesian_product(complete(a), complete(draw(st.integers(1, 12 // max(a, 2)))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(regular_graphs(), st.data())
def test_regular_graphs_match_brute_oracles(g, data):
    assert is_regular(g)[0]
    strategy = data.draw(st.sampled_from(["auto", "gray", "blocks"]))
    low_bits = data.draw(st.integers(1, g.n))
    prof = narrow_profile(g, low_bits, strategy)
    edges = g.edges()
    assert (list(prof.induced), list(prof.boundary)) == brute_tables(g.n, edges)
    assert (list(prof.induced_witness),
            list(prof.boundary_witness)) == brute_witnesses(g.n, edges)


def test_production_width_regular_equals_two_table_scan():
    # 20 and 24 vertices: 4 and 64 full-width blocks, of which the regular
    # scan walks 2 and 32.  The two-table scan is the irregular path, so
    # it is the oracle for the derived rows and the mirrored blocks.
    import edgeiso.solver as solver
    for g, r in ((cartesian_product(petersen(), complete(2)), 4),
                 (cartesian_product(complete(4), cycle(6)), 5)):
        assert is_regular(g) == (True, r)
        full = solver._scan_blocks(g)
        assert profile_tuple(iso_profile(g)) == tuple(tuple(t) for t in full)


@st.composite
def mirrored_regular_graphs(draw):
    """Regular graphs on 2..12 vertices, randomly relabeled, with the edge
    cases of the mirrored block walk: disconnected unions, no edges
    (r = 0), and complete graphs, where every set of a size ties."""
    kind = draw(st.sampled_from(["regular", "union", "empty", "complete"]))
    if kind == "regular":
        g = draw(regular_graphs())
        g = g if g.n > 1 else complete(2)
    elif kind == "union":
        # Unrelabeled, every optimal 5-set of the cube + K4 union holds the
        # K4, the top four vertices, and one of 8 tied cube vertices: the
        # least witness lies in a complement block, among rivals.
        g = draw(st.sampled_from([graph_union(cycle(4), cycle(5)),
                                  graph_union(cartesian_power(complete(2), 3), complete(4)),
                                  graph_union(complete(2), graph_union(complete(2), complete(2))),
                                  graph_union(cycle(3), graph_union(cycle(4), cycle(5)))]))
    else:
        n = draw(st.integers(2, 12))
        g = empty_graph(n) if kind == "empty" else complete(n)
    return relabel(g, draw(st.permutations(range(g.n))))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(mirrored_regular_graphs(), st.data())
def test_mirrored_block_walk_matches_brute_oracles(g, data):
    # Fewer low bits than vertices leave at least one high vertex, so at
    # least two blocks, and every walked block answers for a complement block.
    assert is_regular(g)[0]
    low_bits = data.draw(st.integers(1, g.n - 1))
    prof = narrow_profile(g, low_bits)
    edges = g.edges()
    assert (list(prof.induced), list(prof.boundary)) == brute_tables(g.n, edges)
    assert (list(prof.induced_witness),
            list(prof.boundary_witness)) == brute_witnesses(g.n, edges)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_split_popcount_layout_matches_brute_oracles(data):
    # A low half narrower than the block builds each popcount segment from
    # several pieces, so its masks leave mask order at brute-oracle sizes,
    # mirrored blocks included.
    import edgeiso.solver as solver
    if data.draw(st.booleans()):
        g = data.draw(mirrored_regular_graphs())
    else:
        n = data.draw(st.integers(2, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = from_edge_list(n, [pair for pair, kept in zip(pairs, keep) if kept])
    low_bits = data.draw(st.integers(1, g.n))
    half = data.draw(st.integers(1, low_bits))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_HALF_BITS", half)
        prof = narrow_profile(g, low_bits)
    edges = g.edges()
    assert (list(prof.induced), list(prof.boundary)) == brute_tables(g.n, edges)
    assert (list(prof.induced_witness),
            list(prof.boundary_witness)) == brute_witnesses(g.n, edges)


def shuffled_low_tables(monkeypatch, seed):
    """Patch ``_low_tables`` to permute the masks of each popcount segment
    at random, moving ``ind0`` and every row of ``sums`` with them."""
    import edgeiso.solver as solver
    real = solver._low_tables
    rng = np.random.default_rng(seed)

    def low_tables(adj, weights, k, dtype):
        order, ind0, sums, bounds = real(adj, weights, k, dtype)
        moved = np.concatenate([lo + rng.permutation(stop - lo)
                                for lo, stop in zip(bounds, bounds[1:])])
        return order[moved], ind0[moved], sums[:, moved], bounds

    monkeypatch.setattr(solver, "_low_tables", low_tables)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_witnesses_do_not_depend_on_the_order_within_a_segment(data):
    # The layout promises only that segment c holds the c-subsets, so any
    # order within a segment must give the same tables and least-mask
    # witnesses, through the mirrored walk and the two-table walk alike.
    if data.draw(st.booleans()):
        g = data.draw(mirrored_regular_graphs().filter(lambda g: g.n <= 10))
    else:
        n = data.draw(st.integers(2, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = from_edge_list(n, [pair for pair, kept in zip(pairs, keep) if kept])
    low_bits = data.draw(st.integers(1, g.n))
    with pytest.MonkeyPatch.context() as mp:
        shuffled_low_tables(mp, data.draw(st.integers(0, 2 ** 32 - 1)))
        prof = narrow_profile(g, low_bits)
    edges = g.edges()
    assert (list(prof.induced), list(prof.boundary)) == brute_tables(g.n, edges)
    assert (list(prof.induced_witness),
            list(prof.boundary_witness)) == brute_witnesses(g.n, edges)


# A cubic graph on 10 vertices, not vertex-transitive: its two optimal
# 7-sets both hold vertex 9, the one high vertex at 9 low bits, so the
# 7-set witness comes from a mirrored block.  With a low half of 2, 4 or
# 5 bits, the greatest maximizer of the walked block's 3-subsets is not in
# the last piece of its segment that reaches the top, so a search that
# trusted the layout would miss it.
CUBIC_10 = [(0, 1), (0, 6), (0, 9), (1, 3), (1, 8), (2, 4), (2, 5), (2, 7), (3, 8), (3, 9),
            (4, 6), (4, 8), (5, 7), (5, 9), (6, 7)]


@pytest.mark.parametrize("half", [2, 4, 5])
def test_mirrored_witness_is_the_greatest_maximizer_of_all_pieces(half, monkeypatch):
    import edgeiso.solver as solver
    monkeypatch.setattr(solver, "_HALF_BITS", half)
    g = from_edge_list(10, CUBIC_10)
    assert is_regular(g) == (True, 3)
    prof = narrow_profile(g, 9)
    assert prof.induced_witness[7] == 0x2f5
    assert list(prof.induced_witness) == brute_witnesses(10, CUBIC_10)[0]


def random_regular_graph(rng, n, r):
    """An r-regular graph on n vertices (r * n even): a circulant, then
    degree-preserving swaps of random edge pairs."""
    edges = circulant(n, list(range(1, r // 2 + 1)) + [n // 2] * (r % 2)).edges()
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        new = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        if len({a, b, c, d}) == 4 and not present.intersection(new):
            present.difference_update((edges[i], edges[j]))
            present.update(new)
            edges[i], edges[j] = new
    return from_edge_list(n, edges)


def pinned_vertices(g) -> list[int]:
    """The vertices that, at some size 1..n-1, every set with the most
    induced edges holds."""
    masks = np.arange(1 << g.n)
    size = sum(masks >> v & 1 for v in range(g.n))
    induced = sum(masks >> u & masks >> v & 1 for u, v in g.edges())
    pinned = 0
    for m in range(1, g.n):
        at = size == m
        pinned |= np.bitwise_and.reduce(masks[at][induced[at] == induced[at].max()])
    return [v for v in range(g.n) if pinned >> v & 1]


@st.composite
def pinned_regular_graphs(draw):
    """Random regular graphs on 6..14 vertices in which, at some size,
    every optimal set holds the top vertex.  The scan's mirrored walk
    settles the sets that hold it, so their least witness is the
    complement of a walked block's greatest maximizer."""
    n = draw(st.integers(6, 14))
    r = draw(st.sampled_from([r for r in range(2, n - 2) if r * n % 2 == 0]))
    g = random_regular_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, r)
    pinned = pinned_vertices(g)
    assume(pinned)
    v = draw(st.sampled_from(pinned))
    labels = list(range(n))
    labels[v], labels[n - 1] = n - 1, v
    return relabel(g, labels)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(pinned_regular_graphs())
def test_mirrored_witnesses_of_pinned_regular_graphs(g):
    # With the top vertex the one high vertex, every set holding it lies
    # in the one mirrored block, the complement of the walked one.
    assert is_regular(g)[0]
    prof = narrow_profile(g, g.n - 1)
    assert (list(prof.induced_witness),
            list(prof.boundary_witness)) == brute_witnesses(g.n, g.edges())


@pytest.mark.parametrize("g, high, steps", [
    (complete(10), 4, 8),
    (cartesian_product(cycle(4), cycle(3)), 6, 32),
    (empty_graph(8), 2, 2),
    (star(10), 4, 16),
], ids=["complete(10)", "cycle(4) x cycle(3)", "empty(8)", "irregular star(10)"])
def test_regular_block_scan_walks_half_the_blocks(g, high, steps, monkeypatch):
    # Each walked block reads its per-size maxima with one
    # np.maximum.reduceat over its whole low table, so those calls count
    # the blocks: a regular scan with h high vertices walks 2^(h-1)
    # blocks, an irregular one 2^h.
    import types

    import edgeiso.solver as solver
    reductions = []

    def reduceat(table, indices):
        reductions.append(len(table))
        return np.maximum.reduceat(table, indices)

    class CountingNumpy:
        maximum = types.SimpleNamespace(reduceat=reduceat)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(solver, "np", CountingNumpy())
    prof = narrow_profile(g, g.n - high)
    monkeypatch.undo()
    assert reductions.count(1 << (g.n - high)) == steps
    assert profile_tuple(prof) == profile_tuple(iso_profile(g, strategy="gray"))


def test_only_irregular_graphs_scan_the_boundary(monkeypatch):
    import edgeiso.solver as solver
    seen = []

    def recording(name):
        real = getattr(solver, name)

        def scan(g, **kwargs):
            seen.append((name, kwargs.get("boundary"), kwargs.get("degree")))
            return real(g, **kwargs)
        return scan

    for name in ("_scan_gray", "_scan_blocks"):
        monkeypatch.setattr(solver, name, recording(name))
    irregular = random_graph(random.Random(27), 12)
    assert not is_regular(irregular)[0]
    for g in (irregular, petersen()):
        for strategy in ("gray", "blocks"):
            narrow_profile(g, 6, strategy)
    assert seen == [("_scan_gray", True, None), ("_scan_blocks", None, None),
                    ("_scan_gray", False, None), ("_scan_blocks", None, 3)]


# ------------------------------------------------------------
# Profile object
# ------------------------------------------------------------

def test_profile_serialization(pet_profile):
    d = pet_profile.to_dict()
    assert d["n"] == 10 and d["edges"] == 15
    assert d["induced"] == list(PETERSEN_INDUCED)
    assert len(d["induced_witness"]) == 11
    csv = pet_profile.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "m,induced,boundary,witness"
    assert len(lines) == 12
    assert lines[1] == "0,0,0,0x0"


def test_profile_canary_rejects_corrupt_tables():
    g = complete(3)
    good = iso_profile(g)
    with pytest.raises(RuntimeError):
        IsoProfile(g, (0, 0, 1, 2), good.boundary,
                   good.induced_witness, good.boundary_witness)
    with pytest.raises(RuntimeError):
        IsoProfile(g, good.induced, good.boundary,
                   (0, 0b11, 0b11, 0b111), good.boundary_witness)


def test_profile_canary_recounts_witnesses():
    # Path 0-1-2: {0, 2} has the right size but no inner edge and boundary 2.
    g = path(3)
    good = iso_profile(g)
    assert good.induced[2] == 1 and good.boundary[2] == 1
    with pytest.raises(RuntimeError):
        IsoProfile(g, good.induced, good.boundary,
                   (0, 0b1, 0b101, 0b111), good.boundary_witness)
    with pytest.raises(RuntimeError):
        IsoProfile(g, good.induced, good.boundary,
                   good.induced_witness, (0, 0b1, 0b101, 0b111))


# ------------------------------------------------------------
# Nested solutions
# ------------------------------------------------------------

def test_has_ns_petersen(pet, pet_profile):
    search = has_ns(pet, pet_profile)
    assert search.order == (0, 1, 2, 3, 4, 5, 7, 8, 6, 9)
    assert search.deepest == 10
    assert verify_order(pet, search.order, pet_profile).ok


def test_has_ns_z2(z2, z2_profile):
    search = has_ns(z2, z2_profile)
    assert search.order == Z2_NS_ORDER
    assert verify_order(z2, search.order, z2_profile).ok


def test_has_ns_negative(no_ns_graph):
    search = has_ns(no_ns_graph)
    assert search.order is None
    assert search.deepest == 3


def test_has_ns_order_is_lex_least():
    # complete graphs admit every order; the search must return identity
    assert has_ns(complete(5)).order == (0, 1, 2, 3, 4)


def test_has_ns_boundary_side(pet, pet_profile):
    search = has_ns(pet, pet_profile, side="boundary")
    assert search.order is not None
    mask = 0
    for k, v in enumerate(search.order, start=1):
        mask |= 1 << v
        assert boundary_edges(pet, mask) == pet_profile.boundary[k]
    with pytest.raises(InputError):
        has_ns(pet, pet_profile, side="sideways")


def test_verify_order_reports_bad_prefix():
    report = verify_order(star(4), (1, 2, 3, 0))
    assert not report.ok
    # {1, 2} induces nothing but the optimum for two vertices is one edge
    assert report.rows[1] == (2, 0, 1, False)
    with pytest.raises(InputError):
        verify_order(star(4), (0, 1, 2))


# ------------------------------------------------------------
# Order enumeration
# ------------------------------------------------------------

def test_enumerate_orders_complete():
    orders, total = enumerate_optimal_orders(complete(3), cap=10)
    assert total == 6
    assert [o.order for o in orders] == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def test_enumerate_orders_path3():
    orders, total = enumerate_optimal_orders(path(3), cap=10)
    assert total == 4
    assert [o.order for o in orders] == [
        (0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)]


def test_enumerate_orders_star4():
    # the center must be inside every prefix of two or more vertices
    orders, total = enumerate_optimal_orders(star(4), cap=20)
    assert total == 12
    assert all(0 in o.order[:2] for o in orders)


def test_enumerate_orders_cap_and_none(no_ns_graph):
    orders, total = enumerate_optimal_orders(complete(4), cap=2)
    assert total == 24 and len(orders) == 2
    orders, total = enumerate_optimal_orders(no_ns_graph, cap=5)
    # no nested solutions here means no optimal orders at all
    assert (orders, total) == ([], 0)


def test_enumerate_orders_stops_at_the_cap(monkeypatch):
    # The listing walk needs no count, so once the second order of
    # path(4) is listed it stops: 7 states expanded.  Counting each open
    # state up to the cap as well expands 9.
    import edgeiso.solver as solver
    real = solver._vertex_moves
    expanded = []

    def vertex_moves(g, target, by_boundary=False):
        moves = real(g, target, by_boundary)

        def counted(mask, size):
            expanded.append(mask)
            return moves(mask, size)
        return counted

    monkeypatch.setattr(solver, "_vertex_moves", vertex_moves)
    orders, total = enumerate_optimal_orders(path(4), cap=2)
    assert total == 8
    assert [o.order for o in orders] == [(0, 1, 2, 3), (1, 0, 2, 3)]
    assert len(expanded) == 7


def test_enumerate_orders_every_result_verifies():
    rng = random.Random(26)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7))
        prof = iso_profile(g)
        orders, total = enumerate_optimal_orders(g, cap=50, profile=prof)
        assert (total == 0) == (has_ns(g, prof).order is None)
        for o in orders[:10]:
            assert verify_order(g, o.order, prof).ok


def test_enumerate_orders_totals_past_2_to_the_32():
    # the layered count sums int64 path counts; both totals exceed 2^32
    for g, expected in ((graph_z(2), 13_005_619_200),
                        (cartesian_product(complete(4), complete(5)), 4_976_640_000)):
        prof = iso_profile(g)
        orders, total = enumerate_optimal_orders(g, cap=3, profile=prof)
        assert total == expected
        assert len(orders) == 3
        assert all(verify_order(g, o.order, prof).ok for o in orders)


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("EDGEISO_SLOW"),
                    reason="set EDGEISO_SLOW=1 to run the slow tier")
def test_enumerate_orders_complete20_counts_20_factorial():
    # the largest total ORDER_ENUM_CAP allows: every order of K20 is optimal
    orders, total = enumerate_optimal_orders(complete(20), cap=2)
    assert total == math.factorial(20) == 2_432_902_008_176_640_000
    assert [o.order for o in orders] == [tuple(range(20)), tuple(range(18)) + (19, 18)]


def test_enumerate_orders_capacity():
    with pytest.raises(CapacityError):
        enumerate_optimal_orders(empty_graph(21))
