"""The public surface of the ``edgeiso`` package.

A change to ``PUBLIC`` or ``REMOVED`` is a public-API change: record it
in CHANGES.md in the same change.
"""

import types

import pytest

import edgeiso
from edgeiso import casebook, compress, graphs, solver

PUBLIC = {
    "CapacityError", "DeltaSequence", "DiagramOptimizer", "Graph",
    "InputError", "IsoProfile", "NsRequiredError", "boundary_edges",
    "cartesian_power", "cartesian_product", "complete", "cross_edges", "cycle",
    "degrees", "delta_of", "diagram_weight", "empty_graph",
    "enumerate_compressed_optimal_orders", "enumerate_optimal_orders",
    "from_edge_list", "gap_check", "graph_union", "graph_x", "graph_y", "graph_z",
    "has_ns", "induced_edges", "is_delta_dense", "is_regular", "is_symmetric",
    "iso_profile", "join", "load_graph", "named", "nested_solution_form", "path",
    "petersen", "power_lex_check", "regularity_crosscheck", "relabel", "segments_of",
    "star", "verify_lex_square", "verify_order",
}

# Removed names, each with the object that no longer has it.
REMOVED = [
    (edgeiso, "VertexSet"), (graphs, "VertexSet"),
    (edgeiso.Graph, "full_mask"), (edgeiso.Graph, "degree"), (edgeiso.Graph, "has_edge"),
    (edgeiso, "CompressedChain"), (compress, "CompressedChain"),
    (edgeiso, "lex_chain"), (compress, "lex_chain"),
    (edgeiso, "colex_chain"), (compress, "colex_chain"),
    (edgeiso, "Diagram"), (compress, "Diagram"), (casebook, "claim_ids"),
    (graphs, "format_edge_list"), (solver.OrderReport, "to_dict"),
]


def test_public_names_are_pinned():
    public = {name for name, value in vars(edgeiso).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PUBLIC
    for owner, name in REMOVED:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    with pytest.raises(TypeError):
        edgeiso.iso_profile(edgeiso.complete(3), low_bits=3)
