"""Exact edge-isoperimetric toolkit for small graphs and their products."""

from .compress import (DiagramOptimizer, diagram_weight,
                       enumerate_compressed_optimal_orders, power_lex_check,
                       verify_lex_square)
from .delta import (DeltaSequence, delta_of, gap_check, is_delta_dense,
                    is_symmetric, nested_solution_form, regularity_crosscheck,
                    segments_of)
from .errors import CapacityError, InputError, NsRequiredError
from .graphs import (Graph, boundary_edges, cartesian_power, cartesian_product,
                     complete, cross_edges, cycle, degrees, empty_graph,
                     from_edge_list, graph_union, graph_x, graph_y, graph_z,
                     induced_edges, is_regular, join, load_graph, named, path,
                     petersen, relabel, star)
from .solver import IsoProfile, enumerate_optimal_orders, has_ns, iso_profile, verify_order

__version__ = "0.1.0"
