"""Deterministic mobile-agent simulator on anonymous port-labeled graphs.

A set of agents, one per node, runs synchronous communicate/compute/move
rounds.  Agents carry a few machine words each; nodes are anonymous and
edges are identified only by local port numbers.  On top of the round
engine this package provides pairwise meeting windows, leader election
with spanning-tree construction, bipartition discovery, and distributed
butterfly (4-cycle) counting, all checked against centralized oracles.
"""

from __future__ import annotations

from .graphs import (
    Bipartition,
    GraphFormatError,
    PortGraph,
    SIDE_A,
    SIDE_B,
    build_port_graph,
    load_graph,
    make_clique,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
    save_graph,
    validate,
)
from .oracle import (
    NotBipartite,
    OracleMismatch,
    check_spanning_tree,
    enumerate_butterflies,
    oracle_coloring,
    oracle_per_node_butterflies,
    oracle_total_butterflies,
)
from .runtime import (
    AgentProgram,
    AgentState,
    IllegalPort,
    RoundLimitExceeded,
    RunReport,
    RunResult,
    SimConfig,
    account_memory,
    place_dispersed,
    run,
    write_trace_jsonl,
)

__all__ = [
    "AgentProgram",
    "AgentState",
    "Bipartition",
    "GraphFormatError",
    "IllegalPort",
    "NotBipartite",
    "OracleMismatch",
    "PortGraph",
    "RoundLimitExceeded",
    "RunReport",
    "RunResult",
    "SIDE_A",
    "SIDE_B",
    "SimConfig",
    "account_memory",
    "build_port_graph",
    "check_spanning_tree",
    "enumerate_butterflies",
    "load_graph",
    "make_clique",
    "make_complete_bipartite",
    "make_path",
    "make_random_connected_bipartite",
    "oracle_coloring",
    "oracle_per_node_butterflies",
    "oracle_total_butterflies",
    "place_dispersed",
    "run",
    "save_graph",
    "validate",
    "write_trace_jsonl",
]

__version__ = "0.1.0"
