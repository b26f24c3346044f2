"""Delta sequences: per-step gains of the induced-edge optimum.

delta(m) = I(m) - I(m-1) for m = 1..n.  The sequence starts at 0 and
sums to the edge count.  The checks in this module number positions
from 1 and read them through ``DeltaSequence.at``; code that walks
the stored tuple directly, as the staircase weights in ``compress``
do, indexes ``values`` from 0.

Structure read off the sequence:

* gap check       - a graph with nested solutions never jumps by more
                    than 1 between consecutive entries.
* segments        - maximal strictly increasing runs; a repeat starts a
                    new run.  Their first values are the "starts".
* delta-dense     - every start after the first exceeds 1.
* symmetry        - delta(i) + delta(n - i + 1) = delta(n) for all i,
                    which holds exactly for regular graphs.
"""

from __future__ import annotations

from typing import NamedTuple

from . import solver as solver_mod
from .errors import NsRequiredError
from .graphs import Graph, is_regular, relabel
from .solver import IsoProfile, has_ns, iso_profile


class DeltaSequence:
    """The gain sequence of a graph, optionally tagged with the
    nested-solution order it was verified against."""

    __slots__ = ("values", "graph_name", "ns_order")

    def __init__(self, values, graph_name: str | None = None,
                 ns_order: tuple[int, ...] | None = None):
        self.values = tuple(values)
        self.graph_name = graph_name
        self.ns_order = ns_order

    def at(self, m: int) -> int:
        """1-indexed access: at(1) is the first entry."""
        if not 1 <= m <= len(self.values):
            raise IndexError(f"delta position {m} out of range 1..{len(self.values)}")
        return self.values[m - 1]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        return isinstance(other, DeltaSequence) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.values) + ")"

    def __repr__(self) -> str:
        label = f" of {self.graph_name}" if self.graph_name else ""
        return f"DeltaSequence{label} {self}"

    def total(self) -> int:
        return sum(self.values)

    def to_dict(self) -> dict:
        seg = segments_of(self)
        return {
            "graph": self.graph_name,
            "delta": list(self.values),
            "segments": [list(span) for span in seg.segments],
            "starts": list(seg.starts),
            "delta_dense": is_delta_dense(self).ok,
            "symmetric": is_symmetric(self).ok,
            "ns_verified": self.ns_order is not None,
        }


def delta_of(profile: IsoProfile, ns_order: tuple[int, ...] | None = None) -> DeltaSequence:
    """Difference the induced-optimum table of a profile."""
    ind = profile.induced
    values = tuple(ind[m] - ind[m - 1] for m in range(1, len(ind)))
    d = DeltaSequence(values, graph_name=profile.graph.display_name(), ns_order=ns_order)
    if d.at(1) != 0 or d.total() != profile.graph.edge_count() or min(values) < 0:
        raise RuntimeError(f"inconsistent delta sequence for {d.graph_name}; solver bug")
    return d


def ns_delta(g: Graph, profile: IsoProfile | None = None) -> DeltaSequence:
    """The delta sequence of g tagged with a nested-solution order
    (``ns_order``); raises NsRequiredError when g has no such order."""
    prof = profile or iso_profile(g)
    search = has_ns(g, prof)
    if search.order is None:
        raise NsRequiredError(
            f"{g.display_name()} has no nested solutions (deepest optimal prefix: "
            f"{search.deepest})")
    return delta_of(prof, ns_order=search.order)


def nested_solution_form(g: Graph, profile: IsoProfile | None = None):
    """(relabeled graph, delta sequence) with labels following a
    nested-solution order, so every initial segment 0..m-1 is optimal.

    Raises NsRequiredError when the graph has no such order.
    """
    d = ns_delta(g, profile)
    return relabel(g, d.ns_order), d


class GapCheck(NamedTuple):
    ok: bool
    first_violation: int | None  # 1-indexed i with delta(i+1) - delta(i) > 1


def gap_check(d: DeltaSequence) -> GapCheck:
    for i in range(1, len(d)):
        if d.at(i + 1) - d.at(i) > 1:
            return GapCheck(False, i)
    return GapCheck(True, None)


class SegmentDecomposition(NamedTuple):
    segments: tuple[tuple[int, int], ...]  # 1-indexed inclusive spans
    starts: tuple[int, ...]                # first delta value of each span

    @property
    def count(self) -> int:
        return len(self.segments)


def segments_of(d: DeltaSequence) -> SegmentDecomposition:
    """Maximal strictly increasing runs; equal neighbors break runs."""
    spans = []
    starts = []
    begin = 1
    for i in range(1, len(d)):
        if d.at(i + 1) <= d.at(i):
            spans.append((begin, i))
            starts.append(d.at(begin))
            begin = i + 1
    spans.append((begin, len(d)))
    starts.append(d.at(begin))
    return SegmentDecomposition(tuple(spans), tuple(starts))


class DenseCheck(NamedTuple):
    ok: bool
    offender: tuple[int, int] | None  # (segment index from 1, its start value)


def is_delta_dense(d: DeltaSequence) -> DenseCheck:
    """True when every segment start after the first exceeds 1."""
    seg = segments_of(d)
    for idx, s in enumerate(seg.starts[1:], start=2):
        if s <= 1:
            return DenseCheck(False, (idx, s))
    return DenseCheck(True, None)


class SymmetryCheck(NamedTuple):
    ok: bool
    first_asymmetric: int | None  # least 1-indexed i failing the pairing


def is_symmetric(d: DeltaSequence) -> SymmetryCheck:
    n = len(d)
    last = d.at(n)
    for i in range(1, n + 1):
        if d.at(i) + d.at(n - i + 1) != last:
            return SymmetryCheck(False, i)
    return SymmetryCheck(True, None)


class CrosscheckVerdict(NamedTuple):
    consistent: bool
    symmetric: bool
    regular: bool
    degree: int | None


def regularity_crosscheck(g: Graph, d: DeltaSequence | None = None) -> CrosscheckVerdict:
    """Delta symmetry must coincide with degree regularity; a mismatch
    signals a bug in the solver or in the sequence handed in."""
    if d is None:
        d = delta_of(solver_mod.iso_profile(g))
    sym = is_symmetric(d).ok
    reg, degree = is_regular(g)
    return CrosscheckVerdict(sym == reg, sym, reg, degree)
