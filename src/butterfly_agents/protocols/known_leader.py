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
its subtree's totals (per-partition node counts, maximum degree, degree
sum).  When the leader completes, it holds the graph totals and
broadcasts them down the finished tree.

The leaderless election ends the same way and shares the skeleton:
``join_tree`` is the one step by which an agent takes a parent, a side
and a sibling and restarts its sweep and its ``agg`` scratch value, the
``AggregatePayload`` a resident folds each child's report into;
``tree_widths`` declares the scratch keys the skeleton owns;
``deliver_aggregates`` closes either protocol with that broadcast and
returns the one ``TreeResult`` both entry points hand back, each with its
own report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

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
    "AggregatePayload", "tree_widths", "join_tree",
    "deliver_aggregates", "TreeResult", "KnownLeaderProgram", "known_leader_tree",
]


class AggregatePayload(NamedTuple):
    """Subtree totals carried alongside completion reports.

    An agent holds its subtree's totals as one scratch value, ``agg``.  The
    value is immutable because a snapshot copies the scratch dict shallowly:
    folding a child in builds a new value, so a snapshot taken earlier in
    the round keeps the totals it was taken with.
    """

    count0: int
    count1: int
    max_degree: int
    degree_sum: int

    @property
    def n(self) -> int:
        return self.count0 + self.count1

    def absorb(self, child: AggregatePayload) -> AggregatePayload:
        """These totals with a reporting child's subtree folded in."""
        return AggregatePayload(
            self.count0 + child.count0,
            self.count1 + child.count1,
            max(self.max_degree, child.max_degree),
            self.degree_sum + child.degree_sum,
        )


def advance_port(nextport: int, parent: int | None, degree: int) -> int:
    p = nextport + 1
    if p == parent:
        p += 1
    return p if p < degree else -1


def tree_widths(ctx: RunContext) -> dict[str, int | str]:
    """Scratch widths of the keys ``join_tree`` and the completion reports use."""
    dw = ctx.max_degree.bit_length()
    return {
        "mydeg": "deg",
        "kids": "deg",
        "kids_done": "deg",
        "reported": "bool",
        # side counts, maximum degree, and a degree sum of at most n * max_degree
        "agg": 2 * ctx.id_width + dw + ctx.id_width + max(dw, 1),
    }


def join_tree(state: AgentState, parent: int | None, partition: int, sibling: int | None) -> None:
    """Attach an agent to a tree: take ``parent`` (None for a root), its
    side and its ``sibling`` port, forget its children, restart its port
    sweep and start its aggregate over at its own node (reads ``mydeg``)."""
    ps = state.phase_state
    deg = ps["mydeg"]
    state.parent = parent
    state.partition = partition
    state.sibling = sibling
    state.child = None
    state.nextport = advance_port(-1, parent, deg)
    ps["kids"] = 0
    ps["kids_done"] = 0
    ps["reported"] = False
    ps["agg"] = AggregatePayload(1 - partition, partition, deg, deg)  # sides are 0 and 1


class KnownLeaderProgram(AgentProgram):
    name = "known-leader-tree"
    published = frozenset(("rep", "agg"))

    def __init__(self, leader_id: int):
        self.leader_id = leader_id
        self.last_assigned_round = -1  # when the latest agent took its side
        self.scratch_widths = {}

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        ids = {s.id for s in states}
        if self.leader_id not in ids:
            raise ValueError(f"leader id {self.leader_id} is not placed")
        self.scratch_widths = {"rep": "bool", **tree_widths(ctx)}
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
            ps["agg"] = ps["agg"].absorb(visitor.scratch["agg"])

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
    ``received`` holds the ``(n, *payload)`` tuple each agent got: n,
    count0, count1, max degree, degree sum.  ``report`` and ``trace`` are
    attached by the entry point that ran the protocol.
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

    Reads the root's ``agg``, takes the partition and the tree from the
    agents, and broadcasts (n, count0, count1, max degree, degree sum) to
    every agent, added to ``timeline`` as phase ``downcast``, which starts
    without the tree protocol's scratch.  The result has neither report
    nor trace.
    """
    payload = root.phase_state["agg"]
    partition = {s.id: s.partition for s in config.states}
    tree = tree_from_states(config.states)

    lw = id_bits(config.lam)
    dw = max(graph.max_degree.bit_length(), 1)
    value = (payload.n, *payload)
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
    report = timeline.report({"leader": leader_id, "n": payload.n, **payload._asdict()})
    return replace(res, report=report, trace=timeline.trace)
