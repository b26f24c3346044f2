"""Delta sequences: gaps, segments, density, symmetry, regularity."""

import random
from types import SimpleNamespace

import pytest

from conftest import random_graph
from edgeiso.delta import (DeltaSequence, delta_of, gap_check, is_delta_dense,
                           is_symmetric, nested_solution_form, ns_delta,
                           regularity_crosscheck, segments_of)
from edgeiso.errors import NsRequiredError
from edgeiso.graphs import (cartesian_power, complete, cycle, path, petersen,
                            star)
from edgeiso.solver import iso_profile, verify_order

PETERSEN_DELTA = (0, 1, 1, 1, 2, 1, 2, 2, 2, 3)
Z2_DELTA = (0, 1, 2, 3, 4, 5, 6, 7, 7, 6, 7, 8, 9, 10, 11, 12, 13)


# ------------------------------------------------------------
# The sequence object
# ------------------------------------------------------------

def test_sequence_basics():
    d = DeltaSequence((0, 1, 2), graph_name="probe")
    assert len(d) == 3 and list(d) == [0, 1, 2]
    assert d.at(1) == 0 and d.at(3) == 2
    assert d.total() == 3
    assert str(d) == "(0,1,2)"
    assert "probe" in repr(d)
    assert d == DeltaSequence((0, 1, 2))
    assert hash(d) == hash(DeltaSequence((0, 1, 2)))
    with pytest.raises(IndexError):
        d.at(0)
    with pytest.raises(IndexError):
        d.at(4)


def test_sequence_to_dict(pet_profile):
    d = delta_of(pet_profile, ns_order=tuple(range(10)))
    info = d.to_dict()
    assert info["delta"] == list(PETERSEN_DELTA)
    assert info["segments"] == [[1, 2], [3, 3], [4, 5], [6, 7], [8, 8], [9, 10]]
    assert info["starts"] == [0, 1, 1, 1, 2, 2]
    assert info["delta_dense"] is False
    assert info["symmetric"] is True
    assert info["ns_verified"] is True


# ------------------------------------------------------------
# delta_of
# ------------------------------------------------------------

def test_delta_of_frozen_values(pet_profile, z2_profile):
    assert delta_of(pet_profile).values == PETERSEN_DELTA
    assert delta_of(z2_profile).values == Z2_DELTA


def test_delta_sums_to_edge_count():
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 9))
        d = delta_of(iso_profile(g))
        assert d.at(1) == 0
        assert d.total() == g.edge_count()


def test_delta_of_canary():
    # a profile whose table does not sum to the edge count must be refused
    fake = SimpleNamespace(induced=(0, 0, 1), graph=complete(3))
    with pytest.raises(RuntimeError):
        delta_of(fake)


def test_hypercube_delta_closed_form():
    # the gain at step m+1 is the binary weight of m
    for d in (2, 3, 4):
        q = cartesian_power(complete(2), d)
        values = delta_of(iso_profile(q)).values
        assert values == tuple(m.bit_count() for m in range(2 ** d))


def test_cycle_delta_shape():
    for n in range(3, 9):
        values = delta_of(iso_profile(cycle(n))).values
        assert values == (0,) + (1,) * (n - 2) + (2,)


# ------------------------------------------------------------
# Nested-solution form
# ------------------------------------------------------------

def test_nested_solution_form_relabels_to_prefix_optimal(pet):
    form, d = nested_solution_form(pet)
    assert d.values == PETERSEN_DELTA
    assert d.ns_order is not None
    # after relabeling, the numeric order itself is an optimal order
    assert verify_order(form, range(form.n)).ok
    # the delta-only form is the same tagged sequence, with no graph built
    alone = ns_delta(pet)
    assert (alone, alone.ns_order) == (d, d.ns_order)


def test_nested_solution_form_requires_ns(no_ns_graph):
    for form in (nested_solution_form, ns_delta):
        with pytest.raises(NsRequiredError) as err:
            form(no_ns_graph)
        assert "deepest optimal prefix: 3" in str(err.value)


# ------------------------------------------------------------
# Gap check
# ------------------------------------------------------------

def test_gap_check_on_ns_graphs(pet_profile, z2_profile):
    assert gap_check(delta_of(pet_profile)) == (True, None)
    assert gap_check(delta_of(z2_profile)) == (True, None)


def test_gap_check_flags_jump():
    check = gap_check(DeltaSequence((0, 1, 3, 3)))
    assert check == (False, 2)


# ------------------------------------------------------------
# Segments and density
# ------------------------------------------------------------

def test_segments_petersen(pet_profile):
    seg = segments_of(delta_of(pet_profile))
    assert seg.count == 6
    assert seg.segments == ((1, 2), (3, 3), (4, 5), (6, 7), (8, 8), (9, 10))
    assert seg.starts == (0, 1, 1, 1, 2, 2)


def test_segments_z2(z2_profile):
    seg = segments_of(delta_of(z2_profile))
    assert seg.segments == ((1, 8), (9, 9), (10, 17))
    assert seg.starts == (0, 7, 6)


def test_segments_edge_cases():
    assert segments_of(DeltaSequence((0,))).segments == ((1, 1),)
    assert segments_of(DeltaSequence((0, 1, 1, 1))).segments == \
        ((1, 2), (3, 3), (4, 4))
    for n in range(2, 7):
        assert segments_of(delta_of(iso_profile(complete(n)))).count == 1


def test_segments_trees():
    for n in range(3, 8):
        for g in (path(n), star(n)):
            assert segments_of(delta_of(iso_profile(g))).count == n - 1


def test_density(pet_profile, z2_profile):
    assert is_delta_dense(delta_of(z2_profile)) == (True, None)
    dense = is_delta_dense(delta_of(pet_profile))
    assert dense == (False, (2, 1))
    for n in range(2, 7):
        assert is_delta_dense(delta_of(iso_profile(complete(n)))).ok


# ------------------------------------------------------------
# Symmetry and the regularity cross-check
# ------------------------------------------------------------

def test_symmetry(pet_profile, z2_profile):
    assert is_symmetric(delta_of(pet_profile)) == (True, None)
    check = is_symmetric(delta_of(z2_profile))
    assert check == (False, 9)


def test_symmetry_handmade():
    # mirror pairs sum to 3 until position 4 meets the swapped entry 7
    check = is_symmetric(DeltaSequence((0, 1, 1, 1, 2, 2, 1, 2, 2, 3)))
    assert check == (False, 4)


def test_regularity_crosscheck(pet, z2):
    verdict = regularity_crosscheck(pet)
    assert verdict == (True, True, True, 3)
    verdict = regularity_crosscheck(z2)
    assert verdict.consistent and not verdict.symmetric and not verdict.regular
    assert verdict.degree is None


def test_regularity_crosscheck_detects_mismatch(pet):
    # hand the regular Petersen graph an asymmetric sequence: inconsistent
    fake = DeltaSequence((0, 1, 1, 1, 2, 2, 1, 2, 2, 3))
    verdict = regularity_crosscheck(pet, fake)
    assert not verdict.consistent and verdict.regular and not verdict.symmetric
