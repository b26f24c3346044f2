"""Profile scans, witnesses, and nested-solution searches."""

import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edgeiso.solver
from conftest import brute_tables, brute_witnesses, random_graph
from edgeiso.errors import CapacityError, InputError
from edgeiso.graphs import (boundary_edges, cartesian_power, cartesian_product, complete,
                            cycle, degrees, empty_graph, from_edge_list, is_regular, path,
                            petersen, star)
from edgeiso.solver import (MAX_THREADS, SCAN_CEILING, THREADS_ENV, WITNESS_SCAN_LIMIT,
                            IsoProfile, enumerate_optimal_orders, has_ns, iso_profile,
                            optimal_witnesses, thread_count, verify_order)

PETERSEN_INDUCED = (0, 0, 1, 2, 3, 5, 6, 8, 10, 12, 15)
PETERSEN_BOUNDARY = (0, 3, 4, 5, 6, 5, 6, 5, 4, 3, 0)
Z2_NS_ORDER = (0, 1, 5, 6, 7, 11, 12, 13, 2, 3, 4, 8, 9, 10, 14, 15, 16)


def profile_tuple(p: IsoProfile):
    return (p.induced, p.boundary, p.induced_witness, p.boundary_witness)


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
        # low_bits=3 forces many small blocks through the merge path
        blocks = iso_profile(g, strategy="blocks", low_bits=3)
        assert profile_tuple(gray) == profile_tuple(blocks)
        assert (list(gray.induced), list(gray.boundary)) == brute_tables(g.n, g.edges())
        assert (list(gray.induced_witness),
                list(gray.boundary_witness)) == brute_witnesses(g.n, g.edges())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_blocks_match_brute_oracles(data):
    # Uneven Gray ranges per worker and every block width, down to one low bit.
    n = data.draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    low_bits = data.draw(st.integers(1, n))
    threads = data.draw(st.sampled_from(["1", "2", "3"]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(THREADS_ENV, threads)
        prof = iso_profile(from_edge_list(n, edges), strategy="blocks", low_bits=low_bits)
    assert (list(prof.induced), list(prof.boundary)) == brute_tables(n, edges)
    assert (list(prof.induced_witness), list(prof.boundary_witness)) == brute_witnesses(n, edges)


@pytest.mark.parametrize("g", [cartesian_power(complete(2), 4),
                               cartesian_product(complete(3), complete(3))],
                         ids=["complete(2)^4", "complete(3)xcomplete(3)"])
def test_blocks_tie_heavy_graphs_equal_gray(g, monkeypatch):
    # Vertex-transitive graphs tie at every size in many blocks, so the
    # least-mask rule decides almost every witness.
    monkeypatch.setenv(THREADS_ENV, "3")
    blocks = iso_profile(g, strategy="blocks", low_bits=2)
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
        w = pet_profile.witness(m)
        assert len(w) == m


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


def test_block_low_bits_validation():
    with pytest.raises(InputError):
        iso_profile(complete(3), strategy="blocks", low_bits=0)


# ------------------------------------------------------------
# Threading
# ------------------------------------------------------------

def test_thread_count_env(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "3")
    assert thread_count() == 3
    monkeypatch.setenv(THREADS_ENV, "zero")
    with pytest.raises(InputError):
        thread_count()
    monkeypatch.setenv(THREADS_ENV, str(MAX_THREADS))
    assert thread_count() == MAX_THREADS
    for bad in ("0", str(MAX_THREADS + 1), "16384"):
        monkeypatch.setenv(THREADS_ENV, bad)
        with pytest.raises(InputError):
            thread_count()


def test_thread_count_default_follows_affinity(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    assert thread_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert thread_count() == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert thread_count() == 1


def test_thread_count_does_not_change_output(monkeypatch):
    g = random_graph(random.Random(25), 14)
    outcomes = []
    for workers in ("1", "4", "13"):
        monkeypatch.setenv(THREADS_ENV, workers)
        outcomes.append(profile_tuple(iso_profile(g, strategy="blocks", low_bits=8)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_production_width_blocks_equal_gray(monkeypatch):
    # One vertex past the default block width: two full-width blocks,
    # split across workers or walked by one.
    import edgeiso.solver as solver
    g = random_graph(random.Random(26), solver._BLOCK_LOW_BITS + 1)
    assert len(set(degrees(g))) > 1
    gray = profile_tuple(iso_profile(g, strategy="gray"))
    for workers in ("1", "3"):
        monkeypatch.setenv(THREADS_ENV, workers)
        assert profile_tuple(iso_profile(g, strategy="blocks")) == gray, workers


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
    threads = data.draw(st.sampled_from(["1", "2", "3"]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(THREADS_ENV, threads)
        prof = iso_profile(g, strategy=strategy, low_bits=low_bits)
    edges = g.edges()
    assert (list(prof.induced), list(prof.boundary)) == brute_tables(g.n, edges)
    assert (list(prof.induced_witness),
            list(prof.boundary_witness)) == brute_witnesses(g.n, edges)


def test_production_width_regular_equals_two_table_scan(monkeypatch):
    # 20 vertices, 4-regular: four full-width blocks.  The two-table scan
    # is the irregular path, so it is the oracle for the derived rows.
    import edgeiso.solver as solver
    g = cartesian_product(petersen(), complete(2))
    assert is_regular(g) == (True, 4)
    for workers in ("1", "3"):
        monkeypatch.setenv(THREADS_ENV, workers)
        full = solver._scan_blocks(g, boundary=True)
        assert profile_tuple(iso_profile(g)) == tuple(tuple(t) for t in full), workers


def test_only_irregular_graphs_scan_the_boundary(monkeypatch):
    import edgeiso.solver as solver
    seen = []

    def recording(name):
        real = getattr(solver, name)

        def scan(g, **kwargs):
            seen.append((name, kwargs["boundary"]))
            return real(g, **kwargs)
        return scan

    for name in ("_scan_gray", "_scan_blocks"):
        monkeypatch.setattr(solver, name, recording(name))
    irregular = random_graph(random.Random(27), 12)
    assert not is_regular(irregular)[0]
    for g in (irregular, petersen()):
        for strategy in ("gray", "blocks"):
            iso_profile(g, strategy=strategy, low_bits=6)
    assert seen == [("_scan_gray", True), ("_scan_blocks", True),
                    ("_scan_gray", False), ("_scan_blocks", False)]


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
# Witness enumeration
# ------------------------------------------------------------

def test_optimal_witnesses_petersen(pet, pet_profile):
    # I(4) = 3: the 60 four-vertex paths plus the 10 three-leaf stars
    out = optimal_witnesses(pet, 4, profile=pet_profile)
    assert out.total == 70
    assert len(out.sets) == 70
    assert out.sets[0].mask == pet_profile.induced_witness[4]
    masks = [s.mask for s in out.sets]
    assert masks == sorted(masks)


def test_optimal_witnesses_cap_keeps_exact_total(pet, pet_profile):
    out = optimal_witnesses(pet, 4, cap=5, profile=pet_profile)
    assert out.total == 70 and len(out.sets) == 5


def test_optimal_witnesses_limits(pet, monkeypatch):
    with pytest.raises(InputError):
        optimal_witnesses(pet, 11)
    # C(28, 14) > WITNESS_SCAN_LIMIT: refused before the profile scan
    forbid_scans(monkeypatch)
    assert math.comb(28, 14) > WITNESS_SCAN_LIMIT
    with pytest.raises(CapacityError):
        optimal_witnesses(empty_graph(28), 14)


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
    assert report.to_dict()["ok"] is False
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


def test_enumerate_orders_every_result_verifies():
    rng = random.Random(26)
    for _ in range(10):
        g = random_graph(rng, rng.randint(2, 7))
        prof = iso_profile(g)
        orders, total = enumerate_optimal_orders(g, cap=50, profile=prof)
        assert (total == 0) == (has_ns(g, prof).order is None)
        for o in orders[:10]:
            assert verify_order(g, o.order, prof).ok


def test_enumerate_orders_capacity():
    with pytest.raises(CapacityError):
        enumerate_optimal_orders(empty_graph(21))
