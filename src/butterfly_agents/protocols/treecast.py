"""Tree-shaped data movement: convergecast up, broadcast down.

Both waves run on the rooted spanning tree the agents hold: each agent's
``parent`` port, None for the root, with every agent at home.  Movement
runs in two-round waves (even round: depart, odd round: communicate and
return), the same rhythm the tree-building protocols use.

Convergecast: an agent whose children have all reported carries its
subtree sum to its parent's node; the root holds the full sum after at
most 2 * height rounds.

Broadcast: every uninformed agent oscillates to its parent each wave and
copies the value once the parent has it; agents at depth t are informed
after 2t rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    RunContext,
    SimConfig,
    StepView,
    Timeline,
    run,
)

__all__ = [
    "TreeEdgeSet",
    "tree_from_states",
    "ConvergecastProgram",
    "convergecast",
    "BroadcastProgram",
    "broadcast_down",
]


@dataclass(frozen=True)
class TreeEdgeSet:
    """A rooted spanning tree, agent-eye view.

    ``parent_port`` maps each agent to the port at its home node leading
    to its parent's node; None exactly for the root.  ``home_node`` maps agent
    ids to node indices so centralized checks can translate to graph terms.
    """

    root_id: int
    home_node: dict[int, int]
    parent_port: dict[int, int | None]

    def node_parent_ports(self) -> dict[int, int | None]:
        """Node-indexed parent ports, the shape the tree checker wants."""
        return {self.home_node[a]: p for a, p in self.parent_port.items()}

    def children_map(self, graph) -> dict[int, list[int]]:
        """agent id -> ids of its tree children (derived from parent ports)."""
        node_owner = {node: a for a, node in self.home_node.items()}
        kids: dict[int, list[int]] = {a: [] for a in self.parent_port}
        for a, p in self.parent_port.items():
            if p is None:
                continue
            parent_node, _ = graph.neighbor_via(self.home_node[a], p)
            kids[node_owner[parent_node]].append(a)
        return kids


def tree_from_states(states: list[AgentState]) -> TreeEdgeSet:
    """Extract the tree the protocol left in the agents' parent pointers."""
    roots = [s.id for s in states if s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root, found {sorted(roots)}")
    return TreeEdgeSet(
        root_id=roots[0],
        home_node={s.id: s.home_node for s in states},
        parent_port={s.id: s.parent for s in states},
    )


class ConvergecastProgram(AgentProgram):
    """Sum per-agent values up the agents' tree into its root.

    ``kids_count`` (agent id -> number of tree children) is an input, like
    ``values``: the caller derives it from the agents' parent ports with
    ``tree_from_states(states).children_map(graph)``.  The sums stay in the
    agents' scratch after the run (the root's ``acc`` is the answer); the
    next phase starts without them.
    """

    name = "convergecast"
    published = frozenset(("acc",))

    def __init__(self, kids_count: dict[int, int], values: dict[int, int], value_width: int):
        self.kids_count = kids_count
        self.values = values
        self.scratch_widths = {
            "acc": value_width,
            "kids_left": "deg",
            "reported": "bool",
        }

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        for s in states:
            s.phase_state["acc"] = self.values[s.id]
            s.phase_state["kids_left"] = self.kids_count[s.id]
            s.phase_state["reported"] = False
            # Leaves start reporting immediately; everyone else is woken by
            # arriving children.
            s.wake_round = 0 if s.phase_state["kids_left"] == 0 else NEVER

    def step(self, state: AgentState, view: StepView) -> int | None:
        ps = state.phase_state
        if not view.at_home:
            # Delivering to the parent; it hosts unless it is mid-delivery
            # itself, which cannot happen while it still has children
            # pending - and it does: us.
            for s in view.colocated:
                if s.at_home:
                    ps["reported"] = True
                    break
            return view.entered_port
        # Home: fold in any children delivering right now; no one else here
        # is at home, as each node is one agent's home.
        for visitor in view.colocated:
            ps["acc"] += visitor.scratch["acc"]
            ps["kids_left"] -= 1
        if ps["kids_left"] or ps["reported"] or state.parent is None:
            state.wake_round = NEVER
            return None
        return state.parent if view.round % 2 == 0 else None  # odd: depart next round

    def local_done(self, state: AgentState) -> bool:
        ps = state.phase_state
        if state.parent is None:
            return ps["kids_left"] == 0
        return bool(ps["reported"]) and state.current_node == state.home_node


def convergecast(
    graph,
    config: SimConfig,
    values: dict[int, int],
    value_width: int,
    timeline: Timeline,
    phase: str,
) -> int:
    """Add a convergecast of ``values`` to ``timeline`` as ``phase``; returns
    the root's sum.  Raises ValueError, before any round, unless the agents
    hold exactly one root."""
    tree = tree_from_states(config.states)
    kids = {a: len(c) for a, c in tree.children_map(graph).items()}
    program = ConvergecastProgram(kids, values, value_width)
    timeline.add(phase, run(graph, config, program, **timeline.settings))
    root_state = next(s for s in config.states if s.id == tree.root_id)
    return root_state.phase_state["acc"]


class BroadcastProgram(AgentProgram):
    """Push one value from the root to every agent by parent-side pulls."""

    name = "broadcast-down"
    published = frozenset(("received",))

    def __init__(self, value: Any, value_width: int):
        self.value = value
        self.scratch_widths = {"received": value_width}

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        for s in states:
            if s.parent is None:
                s.phase_state["received"] = self.value
                s.wake_round = NEVER
            else:
                s.wake_round = 0

    def step(self, state: AgentState, view: StepView) -> int | None:
        ps = state.phase_state
        if not view.at_home:
            for s in view.colocated:
                if s.at_home:
                    if "received" in s.scratch:
                        ps["received"] = s.scratch["received"]
                        state.dirty = True
                    break
            return view.entered_port
        if "received" in ps:
            state.wake_round = NEVER
            return None
        return state.parent if view.round % 2 == 0 else None

    def local_done(self, state: AgentState) -> bool:
        return "received" in state.phase_state and state.current_node == state.home_node


def broadcast_down(
    graph,
    config: SimConfig,
    value: Any,
    value_width: int,
    timeline: Timeline,
    phase: str,
) -> dict[int, Any]:
    """Add a broadcast of ``value`` to ``timeline`` as ``phase``; returns
    {agent id: received value}.  Raises ValueError, before any round, unless
    the agents hold exactly one root."""
    tree_from_states(config.states)
    program = BroadcastProgram(value, value_width)
    timeline.add(phase, run(graph, config, program, **timeline.settings))
    return {s.id: s.phase_state["received"] for s in config.states}
