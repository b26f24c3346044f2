"""Staircases, the column DP, compression, chains, and order reports."""

import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import column_tables_by_row, compress_set, staircase_mask, survey_deltas
import edgeiso.compress
from edgeiso.compress import (DiagramOptimizer, _classify_chain, _colex_cells,
                              _column_tables, _dp_type, _lex_cells, _optima,
                              diagram_weight,
                              enumerate_compressed_optimal_orders, power_lex_check,
                              staircase_members, verify_lex_square)
from edgeiso.delta import DeltaSequence, delta_of, nested_solution_form
from edgeiso.errors import CapacityError, InputError, NsRequiredError
from edgeiso.graphs import (Graph, cartesian_power, cartesian_product, complete, cycle,
                            empty_graph, from_edge_list, graph_z, induced_edges, named,
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


def heights_after(cells, m, nh):
    """Column heights of the first m cells of a chain in a box of nh columns."""
    heights = [0] * nh
    for x, _ in cells[:m]:
        heights[x] += 1
    return tuple(heights)


def delta_for(g):
    return delta_of(iso_profile(g))


# ------------------------------------------------------------
# Staircases as column heights
# ------------------------------------------------------------

def test_diagram_validation():
    d = delta_for(complete(3))
    assert diagram_weight(d, d, (3, 2, 0)) == 6  # a triangle, an edge and 2 rungs
    with pytest.raises(InputError, match="need 3 column heights"):
        diagram_weight(d, d, (3, 2))
    with pytest.raises(InputError, match="outside 0..3"):
        diagram_weight(d, d, (4, 0, 0))
    with pytest.raises(InputError, match="non-increasing"):
        diagram_weight(d, d, (1, 2, 0))


def test_diagram_rejects_non_integer_heights():
    # 1.5 lies within 0..n_g and keeps the heights non-increasing
    d = delta_for(complete(2))
    for heights in ((1.5, 0), (2, "1"), (None, 0)):
        with pytest.raises(InputError, match="must be integers"):
            diagram_weight(d, d, heights)
    assert diagram_weight(d, d, (np.int64(2), True)) == diagram_weight(d, d, (2, 1))


def test_diagram_cells_and_mask():
    # labels x * 3 + y: cells 0, 1, 3
    assert staircase_mask((2, 1, 0), 3) == 0b1011
    assert np.flatnonzero(staircase_members([(2, 1, 0)], 3)[0]).tolist() == [0, 1, 3]


@pytest.mark.parametrize("box", [(1, 1), (3, 3), (2, 5), (4, 2), (0, 3), (3, 0)])
def test_staircase_members_match_product_masks(box):
    nh, ng = box
    heights = list(all_heights(nh, ng))
    member = staircase_members(heights, ng)
    assert member.shape == (len(heights), nh * ng)
    for hs, row in zip(heights, member.tolist()):
        mask = staircase_mask(hs, ng)
        assert row == [bool(mask >> v & 1) for v in range(nh * ng)]


def test_prefix_constructors():
    assert heights_after(_lex_cells(3, 4), 5, 3) == (4, 1, 0)
    assert heights_after(_colex_cells(3, 4), 5, 3) == (2, 2, 1)
    for m in range(13):
        assert sum(heights_after(_lex_cells(3, 4), m, 3)) == m
        assert sum(heights_after(_colex_cells(3, 4), m, 3)) == m


def test_prefixes_match_chains():
    # lex fills column 0, then column 1, ...; colex fills row 0, then row 1, ...
    for nh, ng in ((2, 2), (3, 4), (4, 3), (1, 5), (5, 1)):
        lex = _lex_cells(nh, ng)
        colex = _colex_cells(nh, ng)
        assert len(lex) == len(colex) == len(set(lex)) == nh * ng
        for m in range(nh * ng + 1):
            full, part = divmod(m, ng)
            heights = ([ng] * full + [part] + [0] * nh)[:nh]
            assert heights_after(lex, m, nh) == tuple(heights)
            full, part = divmod(m, nh)
            heights = [full + 1] * part + [full] * (nh - part)
            assert heights_after(colex, m, nh) == tuple(heights)


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
                expected = induced_edges(product, staircase_mask(heights, g_graph.n))
                assert diagram_weight(dh, dg, heights) == expected


def test_diagram_weight_random_large(z2, z2_profile):
    form, d = nested_solution_form(z2, z2_profile)
    product = cartesian_product(form, form)
    rng = random.Random(32)
    for _ in range(200):
        heights = sorted((rng.randint(0, 17) for _ in range(17)), reverse=True)
        expected = induced_edges(product, staircase_mask(heights, 17))
        assert diagram_weight(d, d, heights) == expected


def test_diagram_weight_box_mismatch():
    # a staircase of the 2 x 4 box, weighed with 3 x 3 factors
    with pytest.raises(InputError):
        diagram_weight(delta_for(complete(3)), delta_for(complete(3)), (4, 1))


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
            w = diagram_weight(dh, dg, heights)
            size = sum(heights)
            if w > best.get(size, -1):
                best[size] = w
                arg[size] = [heights]
            elif w == best[size]:
                arg[size].append(heights)
        for m in range(h_graph.n * g_graph.n + 1):
            assert opt.optimum(m) == best[m]
            witness, = opt.witnesses([m]).tolist()
            assert sum(witness) == m
            assert diagram_weight(dh, dg, witness) == best[m]
            # the DP returns the lexicographically least optimal heights
            assert tuple(witness) == min(arg[m])


@st.composite
def dp_boxes(draw):
    """Factor deltas of any small box or of a long thin one, as in the
    compressed powers; entries may be negative."""
    nh, ng = draw(st.one_of(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                            st.tuples(st.integers(1, 64), st.integers(1, 3))))
    values = st.integers(-3, 6)
    return (draw(st.lists(values, min_size=nh, max_size=nh)),
            draw(st.lists(values, min_size=ng, max_size=ng)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dp_boxes())
@example(([2], [5]))
@example(([0, 1, 2], [1]))
@example(([1], [0, 1, 2, 3]))
@example(([3, 1, 0, 2], [0, 2]))
@example((list(range(64)), [0, 1, 1]))
@example(([(1 << 29) - 1], [0]))
@example(([(1 << 26) - 1], [0] * 8))
@example(([-(1 << 29) + 1], [0]))
@example(([1 << 26, -(1 << 26)], [0, -(1 << 27) + 1]))
@example(([1 << 29], [0]))
@example(([1 << 28, -(1 << 27)], [-(1 << 28), 5, 1 << 27]))
def test_column_tables_match_row_by_row_oracle(deltas):
    # sizes that fit in columns x.. under cap c agree with the oracle; a
    # size past every column's full height was never written, and the
    # sentinel's half bounds every entry no staircase reaches, in both
    # table types (the examples put the box's full weight W at 2^29 - 1,
    # 2^29 - 2 and 2^29 - 8 in int32, and at 2^29 and past it in int64)
    dh, dg = deltas
    nh, ng = len(dh), len(dg)
    dtype, neg = _dp_type(ng * sum(map(abs, dh)) + nh * sum(map(abs, dg)))
    got = list(_column_tables(DeltaSequence(dh), DeltaSequence(dg)))[::-1]
    oracle = column_tables_by_row(dh, dg)
    assert len(got) == nh + 1
    for x, (table, expected) in enumerate(zip(got, oracle)):
        assert table.shape == (nh * ng + 1, ng + 1) and table.dtype == dtype
        for c in range(ng + 1):
            fits = (nh - x) * c + 1
            assert table[:fits, c].tolist() == expected[:fits, c].tolist(), (x, c)
            assert (table[fits:, c] < neg // 2).all(), (x, c)
        assert (table[(nh - x) * ng + 1:] == neg).all(), x


def test_dp_type_rule_either_side_of_two_to_the_29():
    assert _dp_type(0) == _dp_type((1 << 29) - 1) == (np.int32, -(1 << 30))
    assert _dp_type(1 << 29) == _dp_type((1 << 61) - 1) == (np.int64, -(1 << 62))
    with pytest.raises(CapacityError, match="full weight"):
        _dp_type(1 << 61)


def int64_column_tables(dh, dg):
    """``_column_tables`` in two reused buffers with the rule forced to
    int64 tables; the type is read before the first table."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edgeiso.compress, "_dp_type", lambda weight: (np.int64, -(1 << 62)))
        tables = _column_tables(dh, dg, 2)
        first = next(tables)
    yield first
    yield from tables


def assert_int32_tables_equal_int64(dh, dg):
    tables = zip(_column_tables(dh, dg, 2), int64_column_tables(dh, dg), strict=True)
    for narrow, wide in tables:
        assert narrow.dtype == np.int32 and wide.dtype == np.int64
        live = wide > -(1 << 61)
        assert (live == (narrow > -(1 << 29))).all()
        assert (narrow[live] == wide[live]).all()


def test_int32_tables_equal_int64_on_the_survey_deltas():
    # all 2,116 ordered pairs of the 46 distinct deltas, squares included
    deltas = survey_deltas()
    for dh in deltas:
        for dg in deltas:
            assert_int32_tables_equal_int64(dh, dg)


def test_int32_tables_equal_int64_on_the_complete2_tower_box():
    # complete(2)^12 as complete(2)^11 x complete(2): lex on the 11-cube
    # adds popcount(i) edges with vertex i
    dh = DeltaSequence(i.bit_count() for i in range(2048))
    dg = DeltaSequence((0, 1))
    assert_int32_tables_equal_int64(dh, dg)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dp_boxes())
@example((list(range(64)), [0, 1, 1]))
def test_two_reused_buffers_give_the_kept_tables_optima(deltas):
    # _optima writes every table into one of two buffers; the optimizer
    # keeps each in its own; both read the oracle's optima
    dh, dg = deltas
    oracle = column_tables_by_row(dh, dg)[0][:, len(dg)].tolist()
    two = _optima(DeltaSequence(dh), DeltaSequence(dg))
    assert two == DiagramOptimizer(DeltaSequence(dh), DeltaSequence(dg)).optima() == oracle


def test_optimizer_equals_product_profile_k3():
    d = delta_for(complete(3))
    opt = DiagramOptimizer(d, d)
    assert tuple(opt.optima()) == K3K3_INDUCED
    assert opt.optimum(4) == K3K3_INDUCED[4]
    assert opt.witnesses([4]).tolist() == [[2, 1, 1]]
    product = cartesian_product(complete(3), complete(3))
    assert iso_profile(product).induced == K3K3_INDUCED


def test_optimizer_range_errors():
    opt = DiagramOptimizer(delta_for(complete(3)), delta_for(complete(3)))
    with pytest.raises(InputError):
        opt.optimum(10)
    with pytest.raises(InputError):
        opt.witnesses([-1])


def test_optimum_takes_integer_sizes_only():
    opt = DiagramOptimizer(delta_for(complete(3)), delta_for(complete(3)))
    for m in (2.0, 2.5):
        with pytest.raises(TypeError):
            opt.optimum(m)
    assert opt.optimum(True) == opt.optimum(1)
    assert type(opt.optimum(True)) is int


@st.composite
def optimizer_cases(draw):
    """Small factor deltas, ties likely, and a size list that may be
    empty, unsorted and repeated."""
    nh, ng = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dh = draw(st.lists(st.integers(0, 3), min_size=nh, max_size=nh))
    dg = draw(st.lists(st.integers(0, 3), min_size=ng, max_size=ng))
    sizes = draw(st.lists(st.integers(0, nh * ng), max_size=12))
    return dh, dg, sizes


def brute_lex_least_optima(dh, dg):
    """Per size, the least optimal height vector of the whole box, with
    weights summed cell by cell."""
    best = {}
    for heights in all_heights(len(dh), len(dg)):
        w = sum(dh[x] + dg[y] for x, h in enumerate(heights) for y in range(h))
        m = sum(heights)
        if m not in best or w > best[m][0] or (w == best[m][0] and heights < best[m][1]):
            best[m] = (w, heights)
    return {m: heights for m, (_, heights) in best.items()}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(optimizer_cases())
def test_witnesses_match_single_witness_and_brute_force(case):
    dh, dg, sizes = case
    opt = DiagramOptimizer(DeltaSequence(dh), DeltaSequence(dg))
    got = opt.witnesses(sizes)
    assert got.shape == (len(sizes), len(dh)) and got.dtype == np.int64
    brute = brute_lex_least_optima(dh, dg)
    assert [tuple(row) for row in got.tolist()] == [brute[m] for m in sizes]
    assert got.tolist() == [opt.witnesses([m])[0].tolist() for m in sizes]
    # rows are built unchecked; each must pass diagram_weight's check
    assert [diagram_weight(DeltaSequence(dh), DeltaSequence(dg), row) for row in got] == \
        [opt.optimum(m) for m in sizes]


def test_witnesses_refuse_any_out_of_range_size_before_work():
    opt = DiagramOptimizer(delta_for(complete(3)), delta_for(complete(3)))
    assert opt.witnesses([]).shape == (0, 3)
    with pytest.raises(TypeError):
        opt.witnesses([4, 2.5])
    opt.tables = None  # any table read now fails with a TypeError
    for sizes in ([10], [0, 4, 10], [-1, 3], [2, 9, 9, -1]):
        with pytest.raises(InputError, match="outside the 3x3 box"):
            opt.witnesses(sizes)


def test_witnesses_refuse_a_table_only_a_disallowed_height_meets():
    # a column may be no taller than the one before it (cap) nor than the
    # cells left (remaining); a corrupt table that only such a height
    # would meet is a failed reconstruction, not a witness
    opt = DiagramOptimizer(DeltaSequence((0, 5, 5)), DeltaSequence((0, 1, 2)))
    assert opt.witnesses([3]).tolist() == [[1, 1, 1]]
    # column 1 places 2 cells under cap 1; claim a height-2 column's value
    taller = opt.colw[1][2] + opt.tables[2][0, 2]
    opt.tables[1][2, 1] = taller
    opt.tables[0][3, 3] = opt.colw[0][1] + taller
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        opt.witnesses([3])

    opt = DiagramOptimizer(delta_for(complete(3)), delta_for(complete(3)))
    # size 1 with a first column of height 2 reads size -1, the table's last row
    opt.tables[0][1, 3] = opt.colw[0][2] + opt.tables[1][-1, 2]
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        opt.witnesses([0, 1])


def test_witnesses_recount_each_row_against_the_optimum():
    # one raised entry of an inner table, at a height below the optimal
    # one: the least height reaching it starts a row that is no optimum
    opt = DiagramOptimizer(DeltaSequence((0, 5, 5)), DeltaSequence((0, 1, 2)))
    assert opt.witnesses([3]).tolist() == [[1, 1, 1]]
    assert opt.tables[1].dtype == np.int32
    # column 1 places 2 cells under cap 1; height 0 now claims that value
    opt.tables[1][2, 0] = opt.tables[1][2, 1]
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        opt.witnesses([3])
    assert opt.witnesses([0, 1, 9]).tolist() == [[0, 0, 0], [1, 0, 0], [3, 3, 3]]


def test_failing_power_rebuilds_its_witnesses_in_one_batch(monkeypatch, pet):
    calls = []
    batched = DiagramOptimizer.witnesses

    def counting(self, sizes):
        sizes = list(sizes)
        calls.append(sizes)
        return batched(self, sizes)

    monkeypatch.setattr(DiagramOptimizer, "witnesses", counting)
    square = verify_lex_square(path(3))
    assert calls == [[row.size for row in square.failures()]]
    assert square.failures()[0].witness == "2,2,0"
    calls.clear()
    power = power_lex_check(pet, 3, mode="compressed")
    assert len(power.failures()) == 16
    assert calls == [[row.size for row in power.failures()]]
    calls.clear()
    assert power_lex_check(complete(2), 4, mode="compressed").ok
    assert calls == []


# ------------------------------------------------------------
# Compression of arbitrary sets
# ------------------------------------------------------------

def test_compress_set_accepts_cells_or_mask():
    h, g = path(3), complete(3)
    # product labels x * 3 + y; cells (0,0), (1,1), (2,2)
    cells = [(0, 0), (1, 1), (2, 2)]
    mask = (1 << 0) | (1 << 4) | (1 << 8)
    assert compress_set(h, g, cells) == compress_set(h, g, mask)


def test_compress_set_never_loses_edges():
    h, g = path(4), complete(3)
    product = cartesian_product(h, g)
    rng = random.Random(33)
    for _ in range(200):
        mask = rng.getrandbits(product.n)
        heights = compress_set(h, g, mask)
        assert sum(heights) == mask.bit_count()
        assert induced_edges(product, staircase_mask(heights, g.n)) >= \
            induced_edges(product, mask)


def test_compress_set_idempotent_on_diagrams():
    h, g = complete(3), path(3)
    for heights in all_heights(3, 3):
        assert compress_set(h, g, staircase_mask(heights, 3)) == heights


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
    assert _classify_chain(_lex_cells(3, 4), (3, 4)) == "lex"
    assert _classify_chain(_colex_cells(3, 4), (3, 4)) == "colex"
    # a box with one row or one column has a single chain, which is lex
    assert _classify_chain(_colex_cells(1, 4), (1, 4)) == "lex"
    other = ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2))
    assert _classify_chain(other, (3, 3)) == "other"
    assert heights_after(other, 5, 3) == (3, 1, 1)


def test_enumerate_chains_complete_graphs():
    for n in (3, 4):
        survey = enumerate_compressed_optimal_orders(complete(n), cap=10)
        assert survey.total == 2 and survey.exact
        assert sorted(survey.classifications) == ["colex", "lex"]
        assert set(survey.chains) == {_lex_cells(n, n), _colex_cells(n, n)}
        assert survey.exactly_lex_and_colex


def test_enumerate_chains_z2(z2, z2_profile):
    survey = enumerate_compressed_optimal_orders(z2, cap=10, profile=z2_profile)
    assert survey.total == 2 and survey.exact
    assert sorted(survey.classifications) == ["colex", "lex"]
    assert set(survey.chains) == {_lex_cells(17, 17), _colex_cells(17, 17)}
    assert survey.exactly_lex_and_colex


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
                weight = diagram_weight(d, d, heights_after(chain, m, g.n))
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

    monkeypatch.setattr(edgeiso.compress, "ns_delta", forbidden)
    monkeypatch.setattr(edgeiso.compress, "nested_solution_form", forbidden)
    monkeypatch.setattr(edgeiso.compress, "DiagramOptimizer", forbidden)
    monkeypatch.setattr(edgeiso.compress, "_column_tables", forbidden)
    for mode in ("exhaustive", "compressed"):
        with pytest.raises(InputError):
            power_lex_check(complete(2), 0, mode=mode)
        for d in (13, 40):
            with pytest.raises(CapacityError):
                power_lex_check(complete(2), d, mode=mode)
    with pytest.raises(CapacityError, match="cell bound"):
        power_lex_check(graph_z(2), 4, mode="compressed")
    # a float exponent would never equal a power the compressed walk yields
    for mode in ("exhaustive", "compressed"):
        with pytest.raises(TypeError):
            power_lex_check(complete(2), 2.5, mode=mode)
    monkeypatch.undo()
    for mode in ("exhaustive", "compressed"):
        report = power_lex_check(complete(2), True, mode=mode)
        assert report.subject == "lex prefixes of complete(2)^1" and len(report.rows) == 2


# the smallest irregular graph with lex optimal on its square
NINE = from_edge_list(9, [(int(e[0]), int(e[1])) for e in (
    "01 02 03 04 05 06 12 13 15 16 24 27 28 34 37 38 45 46 57 58 67 68 78").split()])


@pytest.mark.parametrize("g, d, rows", [(graph_z(2), 3, 4913), (NINE, 4, 6561)])
def test_compressed_reaches_past_the_graph_cap(g, d, rows):
    report = power_lex_check(g, d, mode="compressed")
    assert report.ok and len(report.rows) == rows
    assert report.subject == f"lex prefixes of {g.display_name()}^{d}"


def count_calls(monkeypatch, name):
    """Wrap compress.<name> with a call counter, returned as a list."""
    calls = []
    original = getattr(edgeiso.compress, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(edgeiso.compress, name, counting)
    return calls


def test_square_runs_the_column_dp_once(monkeypatch, pet):
    calls = count_calls(monkeypatch, "_column_tables")
    assert not verify_lex_square(pet).ok
    assert len(calls) == 1
    calls.clear()
    # a passing square stops the walk before the cube's DP
    assert verify_lex_square(complete(4)).ok
    assert len(calls) == 1
    calls.clear()
    assert not power_lex_check(path(3), 3, mode="compressed").ok
    assert len(calls) == 1
    calls.clear()
    # a passing square, then one two-table DP per later power
    assert power_lex_check(complete(3), 4, mode="compressed").ok
    assert len(calls) == 3


def test_late_lex_failure_is_an_internal_error(monkeypatch, capsys):
    from edgeiso import cli

    optima = edgeiso.compress._optima

    def one_too_high(dh, dg):
        out = optima(dh, dg)
        out[5] += 1  # a set of size 5 beats lex
        return out

    monkeypatch.setattr(edgeiso.compress, "_optima", one_too_high)
    built = count_calls(monkeypatch, "DiagramOptimizer")
    with pytest.raises(RuntimeError, match="power 3 after passing on the square"):
        power_lex_check(complete(2), 3, mode="compressed")
    assert len(built) == 1  # the square's; none for the failing power
    built.clear()
    assert cli.main(["power-check", "complete(2)", "--d", "3", "--mode", "compressed"]) == 4
    assert "internal error" in capsys.readouterr().err
    assert len(built) == 1
    # the square reads its optima from its own tables, not from _optima
    assert power_lex_check(complete(2), 2, mode="compressed").ok


def test_compressed_layer_builds_no_graph(monkeypatch, pet, pet_profile):
    def forbidden(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(Graph, "__init__", forbidden)
    assert not verify_lex_square(pet, pet_profile).ok
    assert enumerate_compressed_optimal_orders(pet, profile=pet_profile).total >= 1
    assert not power_lex_check(pet, 3, mode="compressed", profile=pet_profile).ok


@pytest.mark.parametrize("mode", ["exhaustive", "compressed"])
def test_huge_exponents_finish_at_once(mode):
    d = 10**9
    start = time.perf_counter()
    report = power_lex_check(complete(1), d, mode=mode)
    assert time.perf_counter() - start < 0.1
    assert report.ok and len(report.rows) == 1
    assert report.subject == f"lex prefixes of complete(1)^{d}"
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        power_lex_check(complete(3), d, mode=mode)
    assert time.perf_counter() - start < 0.1


def test_huge_one_vertex_power_builds_at_once():
    start = time.perf_counter()
    g = named("power(complete(1),1000000000)")
    assert time.perf_counter() - start < 0.1
    assert (g.n, g.name) == (1, "power(complete(1),1000000000)")
    assert cartesian_power(complete(1), 3).name == "power(complete(1),3)"
    with pytest.raises(CapacityError):
        named("power(complete(2),1000000000)")


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
    witness = [int(h) for h in first.witness.split(",")]
    assert induced_edges(cube, staircase_mask(witness, 3)) == 4


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
