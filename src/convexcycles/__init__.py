"""Convex-cycle enumeration, the extremal bound n(m-n+1)/g with its
even-cycle / Moore-graph equality classification, and exact spectral
girth-cycle counting for simple graphs."""

from .convexity import (
    CycleCensus,
    brute_force_convex_cycles,
    canonical_cycle,
    girth_cycle_count,
    is_convex_cycle,
    profile_and_census,
)
from .errors import (
    ConsistencyError,
    ConvexCyclesError,
    Disconnected,
    DuplicateEdge,
    InconsistentInput,
    InvalidCycle,
    InvalidEdge,
    InvalidParameter,
    NotApplicable,
    OutOfRange,
    ParseError,
)
from .extremal import (
    Classification,
    ExtremalReport,
    MooreCountCheck,
    MooreReport,
    check_extremal,
    check_moore_by_count,
    convex_cycle_bound,
    is_moore,
)
from .formats import load_graph_text, parse_edge_list, parse_graph6, write_graph6
from .graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    generate,
    gnp_random_graph,
    hoffman_singleton_graph,
    petersen_graph,
)
from .metric import DistanceRecord, MetricProfile, bfs_record

__version__ = "0.1.0"

# spectral's names, bound here on first use: a run without the spectral
# section never imports the module
_SPECTRAL = ("IntPolynomial", "char_poly", "expand_factored", "girth_cycle_count_spectral")


def __getattr__(name: str):
    # the CLI module is imported on first use, so that running it with
    # `python -m convexcycles.cli` does not find it imported already
    if name == "cli_run":
        from .cli import run

        return run
    if name in _SPECTRAL:
        from . import spectral

        globals().update((each, getattr(spectral, each)) for each in _SPECTRAL)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))


__all__ = [
    "Classification",
    "ConsistencyError",
    "ConvexCyclesError",
    "CycleCensus",
    "Disconnected",
    "DistanceRecord",
    "DuplicateEdge",
    "ExtremalReport",
    "Graph",
    "InconsistentInput",
    "IntPolynomial",
    "InvalidCycle",
    "InvalidEdge",
    "InvalidParameter",
    "MetricProfile",
    "MooreCountCheck",
    "MooreReport",
    "NotApplicable",
    "OutOfRange",
    "ParseError",
    "bfs_record",
    "brute_force_convex_cycles",
    "canonical_cycle",
    "char_poly",
    "check_extremal",
    "check_moore_by_count",
    "cli_run",
    "complete_bipartite_graph",
    "complete_graph",
    "convex_cycle_bound",
    "cycle_graph",
    "expand_factored",
    "generate",
    "girth_cycle_count",
    "girth_cycle_count_spectral",
    "gnp_random_graph",
    "hoffman_singleton_graph",
    "is_convex_cycle",
    "is_moore",
    "load_graph_text",
    "parse_edge_list",
    "parse_graph6",
    "petersen_graph",
    "profile_and_census",
    "write_graph6",
]
