"""Partition assignment and spanning-tree construction under a known leader.

All agents sit dispersed on a connected bipartite graph and know which
agent id is in charge.  The leader takes partition 0 and explores its
ports in ascending order, one port per two-round phase (even round out,
odd round meet and return).  An agent discovered by an already-assigned
visitor takes the opposite partition, records the visitor's entry port as
its parent, and joins the parallel exploration next phase.  Visits to
already-assigned agents change nothing.

Each agent keeps one ``child`` port (to its most recently discovered
child) and one ``sibling`` port; a newly adopted child copies the
discoverer's previous ``child`` port into its own ``sibling``, so a node's
children form a linked list threaded through the children themselves and
per-agent port storage stays constant.

Once an agent has explored every non-parent port and heard a completion
report from each child, it carries its completion upward together with
subtree aggregates (degree sum, per-partition node counts, maximum
degree).  When the leader completes, it holds the graph totals and
broadcasts them down the finished tree.

The leaderless election ends the same way and shares the skeleton:
``join_tree`` is the one step by which an agent takes a parent, a side
and a sibling and restarts its sweep and aggregate; the aggregate helpers
fold the subtree totals; ``deliver_aggregates`` closes either protocol
with that broadcast and returns the one ``TreeResult`` both entry points
hand back, each with its own report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    RunContext,
    RunReport,
    SimConfig,
    StepView,
    Timeline,
    TraceEvent,
    id_bits,
    run,
)
from .treecast import TreeEdgeSet, broadcast_down, tree_from_states

__all__ = [
    "AGGREGATE_KEYS", "AggregatePayload", "aggregate_widths", "reset_aggregate",
    "absorb_aggregate", "join_tree",
    "deliver_aggregates", "TreeResult", "KnownLeaderProgram", "known_leader_tree",
]


@dataclass(frozen=True)
class AggregatePayload:
    """Subtree totals carried alongside completion reports."""

    degree_sum: int
    count0: int
    count1: int
    max_degree: int

    @property
    def n(self) -> int:
        return self.count0 + self.count1


# The subtree aggregate lives in four scratch keys, written only here.
AGGREGATE_KEYS = ("agg_deg", "agg_c0", "agg_c1", "agg_max")


def aggregate_widths(ctx: RunContext) -> dict[str, int | str]:
    """Scratch widths of the subtree aggregate an agent carries."""
    return {
        # degree sum of a subtree is at most n * max_degree
        "agg_deg": ctx.id_width + max(ctx.max_degree.bit_length(), 1),
        "agg_c0": "id",
        "agg_c1": "id",
        "agg_max": "deg",
    }


def reset_aggregate(ps: dict[str, Any], partition: int) -> None:
    """Restart an agent's aggregate at its own node (reads ``mydeg``)."""
    deg = ps["mydeg"]
    ps["agg_deg"] = deg
    ps["agg_c0"] = 1 if partition == 0 else 0
    ps["agg_c1"] = 1 if partition == 1 else 0
    ps["agg_max"] = deg


def absorb_aggregate(ps: dict[str, Any], report: Mapping[str, Any]) -> None:
    """Fold a reporting child's aggregate (its scratch snapshot) into ours."""
    ps["agg_deg"] += report["agg_deg"]
    ps["agg_c0"] += report["agg_c0"]
    ps["agg_c1"] += report["agg_c1"]
    ps["agg_max"] = max(ps["agg_max"], report["agg_max"])


def advance_port(nextport: int, parent: int | None, degree: int) -> int:
    p = nextport + 1
    if p == parent:
        p += 1
    return p if p < degree else -1


def join_tree(state: AgentState, parent: int | None, partition: int, sibling: int | None) -> None:
    """Attach an agent to a tree: take ``parent`` (None for a root), its
    side and its ``sibling`` port, forget its children, restart its port
    sweep and start its aggregate over at its own node (reads ``mydeg``)."""
    ps = state.phase_state
    state.parent = parent
    state.partition = partition
    state.sibling = sibling
    state.child = None
    state.nextport = advance_port(-1, parent, ps["mydeg"])
    ps["kids"] = 0
    ps["kids_done"] = 0
    ps["reported"] = False
    reset_aggregate(ps, partition)


class KnownLeaderProgram(AgentProgram):
    name = "known-leader-tree"
    published = frozenset(("rep", *AGGREGATE_KEYS))

    def __init__(self, leader_id: int):
        self.leader_id = leader_id
        self.last_assigned_round = -1  # when the latest agent took its side
        self.scratch_widths = {}

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        ids = {s.id for s in states}
        if self.leader_id not in ids:
            raise ValueError(f"leader id {self.leader_id} is not placed")
        self.scratch_widths = {
            "rep": "bool",
            "mydeg": "deg",
            "kids": "deg",
            "kids_done": "deg",
            "reported": "bool",
            **aggregate_widths(ctx),
        }
        for s, deg in zip(states, ctx.degrees):
            s.phase_state["mydeg"] = deg
            s.partition = None
            s.parent = None
            s.child = None
            s.sibling = None
            s.completion = False
            s.nextport = 0
            s.wake_round = NEVER
            if s.id == self.leader_id:
                self._assign(s, None, 0, None, -1)
                s.leader = True
                s.wake_round = 0

    def _assign(
        self, state: AgentState, parent: int | None, partition: int, sibling: int | None, rnd: int
    ) -> None:
        join_tree(state, parent, partition, sibling)
        state.phase_state["rep"] = False
        self.last_assigned_round = rnd  # rounds only grow
        state.dirty = True

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _explorers(view: StepView) -> list:
        return [
            s
            for s in view.colocated
            if not s.at_home and not s.scratch.get("rep", False)
        ]

    # -- the state machine --------------------------------------------------

    def step(self, state: AgentState, view: StepView) -> int | None:
        ps = state.phase_state
        if not view.at_home:
            return self._step_abroad(state, view)

        if state.partition is None:
            explorers = self._explorers(view)
            if explorers:
                winner = min(explorers, key=lambda s: s.id)
                self._assign(
                    state, winner.entered_port, 1 - winner.partition, winner.child, view.round
                )
            else:
                state.wake_round = NEVER
            return None

        # Assigned resident: accept completion reports from children.
        for visitor in view.colocated:
            if visitor.at_home or not visitor.scratch.get("rep", False):
                continue
            ps["kids_done"] += 1
            absorb_aggregate(ps, visitor.scratch)

        if view.round % 2 == 0:
            if state.nextport != -1:
                return state.nextport
            if ps["kids_done"] == ps["kids"] and not ps["reported"]:
                if state.parent is not None:
                    ps["rep"] = True
                    return state.parent
                state.completion = True
                state.wake_round = NEVER
                return None
            state.wake_round = NEVER
            return None

        # Odd round at home: sleep unless something is pending next round.
        pending = state.nextport != -1 or (
            ps["kids_done"] == ps["kids"] and not ps["reported"]
        )
        if not pending:
            state.wake_round = NEVER
        return None

    def _step_abroad(self, state: AgentState, view: StepView) -> int | None:
        ps = state.phase_state
        resident = next((s for s in view.colocated if s.at_home), None)
        if ps.get("rep", False):
            if resident is not None:
                ps["rep"] = False
                ps["reported"] = True
                state.wake_round = NEVER
            # else the parent was out: try again next round
            return view.entered_port
        # Exploration visit.
        if resident is not None and resident.partition is None:
            winner_id = min(
                [s.id for s in self._explorers(view)] + [state.id]
            )
            if winner_id == state.id:
                ps["kids"] += 1
                state.child = state.nextport
        state.nextport = advance_port(state.nextport, state.parent, ps["mydeg"])
        return view.entered_port

    def local_done(self, state: AgentState) -> bool:
        if state.partition is None:
            return False
        if state.parent is None:
            return state.completion
        return bool(state.phase_state.get("reported", False))


@dataclass(frozen=True)
class TreeResult:
    """A finished spanning tree and the totals its root pushed down.

    ``partition`` maps agent ids to 0 (the root's side) or 1, and
    ``received`` holds the (n, count0, count1, max degree, degree sum)
    tuple each agent got.  ``report`` and ``trace`` are attached by the
    entry point that ran the protocol.
    """

    leader_id: int
    tree: TreeEdgeSet
    partition: dict[int, int]
    payload: AggregatePayload
    received: dict[int, tuple[int, int, int, int, int]]
    report: RunReport | None = None
    trace: list[TraceEvent] | None = None


def deliver_aggregates(
    graph, config: SimConfig, root: AgentState, timeline: Timeline
) -> TreeResult:
    """Close a finished tree protocol and push its totals down the tree.

    Reads the root's aggregate, takes the partition and the tree from the
    agents, and broadcasts (n, count0, count1, max degree, degree sum) to
    every agent, added to ``timeline`` as phase ``downcast``, which starts
    without the tree protocol's scratch.  The result has neither report
    nor trace.
    """
    ps = root.phase_state
    payload = AggregatePayload(ps["agg_deg"], ps["agg_c0"], ps["agg_c1"], ps["agg_max"])
    partition = {s.id: s.partition for s in config.states}
    tree = tree_from_states(config.states)

    lw = id_bits(config.lam)
    dw = max(graph.max_degree.bit_length(), 1)
    value = (payload.n, payload.count0, payload.count1, payload.max_degree, payload.degree_sum)
    received = broadcast_down(graph, config, value, 3 * lw + dw + (lw + dw), timeline, "downcast")
    return TreeResult(root.id, tree, partition, payload, received)


def known_leader_tree(
    graph,
    config: SimConfig,
    leader_id: int,
    max_rounds: int | None = None,
    record_trace: bool = False,
) -> TreeResult:
    """Build partitions and a spanning tree from a known leader, then
    broadcast (n, count0, count1, max degree, degree sum) to every agent.

    The one tree-building run is reported as two phases: ``assignment``
    up to the round the last agent took its side, ``aggregation`` after.
    """
    program = KnownLeaderProgram(leader_id)
    timeline = Timeline(max_rounds, record_trace)
    timeline.add("assignment", run(graph, config, program, **timeline.settings))
    assignment = program.last_assigned_round + 1
    timeline.rounds_per_phase["assignment"] = assignment
    timeline.rounds_per_phase["aggregation"] = timeline.rounds - assignment  # its only phase yet

    leader_state = next(s for s in config.states if s.id == leader_id)
    res = deliver_aggregates(graph, config, leader_state, timeline)
    payload = res.payload
    report = timeline.report({
        "leader": leader_id,
        "n": payload.n,
        "count0": payload.count0,
        "count1": payload.count1,
        "max_degree": payload.max_degree,
        "degree_sum": payload.degree_sum,
    })
    return replace(res, report=report, trace=timeline.trace)
