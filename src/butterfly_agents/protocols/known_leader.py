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
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    RunContext,
    RunReport,
    SimConfig,
    StepView,
    TraceEvent,
    id_bits,
    offset_trace,
    run,
)
from .treecast import TreeEdgeSet, broadcast_down, tree_from_states

__all__ = ["AggregatePayload", "KnownLeaderResult", "KnownLeaderProgram", "known_leader_tree"]


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


def advance_port(nextport: int, parent: int | None, degree: int) -> int:
    p = nextport + 1
    if p == parent:
        p += 1
    return p if p < degree else -1


def first_port(parent: int | None, degree: int) -> int:
    p = 0
    if p == parent:
        p += 1
    return p if p < degree else -1


class KnownLeaderProgram(AgentProgram):
    name = "known-leader-tree"

    def __init__(self, leader_id: int):
        self.leader_id = leader_id
        self.assigned_round: dict[int, int] = {}
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
            # degree sum of a subtree is at most n * max_degree
            "agg_deg": ctx.id_width + max(ctx.max_degree.bit_length(), 1),
            "agg_c0": "id",
            "agg_c1": "id",
            "agg_max": "deg",
        }
        for s, deg in zip(states, ctx.degrees):
            s.phase_state = {"mydeg": deg}
            s.partition = None
            s.parent = None
            s.child = None
            s.sibling = None
            s.completion = False
            s.nextport = 0
            s.wake_round = NEVER
            s.dirty = True
            if s.id == self.leader_id:
                self._assign(s, 0, None, None, -1)
                s.leader = True
                s.wake_round = 0

    def _assign(
        self,
        state: AgentState,
        partition: int,
        parent: int | None,
        sibling: int | None,
        rnd: int,
    ) -> None:
        ps = state.phase_state
        state.partition = partition
        state.parent = parent
        state.sibling = sibling
        state.child = None
        state.nextport = first_port(parent, ps["mydeg"])
        ps["kids"] = 0
        ps["kids_done"] = 0
        ps["reported"] = False
        ps["rep"] = False
        ps["agg_deg"] = ps["mydeg"]
        ps["agg_c0"] = 1 if partition == 0 else 0
        ps["agg_c1"] = 1 if partition == 1 else 0
        ps["agg_max"] = ps["mydeg"]
        self.assigned_round[state.id] = rnd
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
                    state,
                    1 - winner.partition,
                    winner.entered_port,
                    winner.child,
                    view.round,
                )
                state.wake_round = view.round + 1
            else:
                state.wake_round = NEVER
            return None

        # Assigned resident: accept completion reports from children.
        changed = False
        for visitor in view.colocated:
            if visitor.at_home or not visitor.scratch.get("rep", False):
                continue
            ps["kids_done"] += 1
            ps["agg_deg"] += visitor.scratch["agg_deg"]
            ps["agg_c0"] += visitor.scratch["agg_c0"]
            ps["agg_c1"] += visitor.scratch["agg_c1"]
            ps["agg_max"] = max(ps["agg_max"], visitor.scratch["agg_max"])
            changed = True
        if changed:
            state.dirty = True

        if view.round % 2 == 0:
            if state.nextport != -1:
                state.wake_round = view.round + 1
                return state.nextport
            if ps["kids_done"] == ps["kids"] and not ps["reported"]:
                if state.parent is not None:
                    ps["rep"] = True
                    state.dirty = True
                    state.wake_round = view.round + 1
                    return state.parent
                if not state.completion:
                    state.completion = True
                    state.dirty = True
                state.wake_round = NEVER
                return None
            state.wake_round = NEVER
            return None

        # Odd round at home: wake next even round if anything is pending.
        if state.nextport != -1 or (
            ps["kids_done"] == ps["kids"] and not ps["reported"]
        ):
            state.wake_round = view.round + 1
        else:
            state.wake_round = NEVER
        return None

    def _step_abroad(self, state: AgentState, view: StepView) -> int | None:
        ps = state.phase_state
        resident = next((s for s in view.colocated if s.at_home), None)
        if ps.get("rep", False):
            if resident is not None:
                ps["rep"] = False
                ps["reported"] = True
                state.dirty = True
                state.wake_round = NEVER
            else:
                state.wake_round = view.round + 1  # parent was out; try again
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
        state.dirty = True
        state.wake_round = view.round + 1
        return view.entered_port

    def local_done(self, state: AgentState) -> bool:
        if state.partition is None:
            return False
        if state.parent is None:
            return state.completion
        return bool(state.phase_state.get("reported", False))


@dataclass
class KnownLeaderResult:
    tree: TreeEdgeSet
    partition: dict[int, int]  # agent id -> 0 (leader side) or 1
    payload: AggregatePayload
    received: dict[int, tuple]  # downcast values per agent
    report: RunReport
    trace: list[TraceEvent] | None = None


def known_leader_tree(
    graph,
    config: SimConfig,
    leader_id: int,
    max_rounds: int | None = None,
    record_trace: bool = False,
) -> KnownLeaderResult:
    """Build partitions and a spanning tree from a known leader, then
    broadcast (n, count0, count1, max degree, degree sum) to every agent."""
    program = KnownLeaderProgram(leader_id)
    result = run(graph, config, program, max_rounds=max_rounds, record_trace=record_trace)

    leader_state = next(s for s in config.states if s.id == leader_id)
    ps = leader_state.phase_state
    payload = AggregatePayload(
        degree_sum=ps["agg_deg"],
        count0=ps["agg_c0"],
        count1=ps["agg_c1"],
        max_degree=ps["agg_max"],
    )
    partition = {s.id: s.partition for s in config.states}
    tree = tree_from_states(config.states)

    assigned = max(program.assigned_round.values())
    assignment_rounds = assigned + 1
    lw = id_bits(config.lam)
    dw = max(graph.max_degree.bit_length(), 1)

    for s in config.states:  # aggregates delivered; drop working memory
        s.phase_state = {}

    value = (payload.n, payload.count0, payload.count1, payload.max_degree, payload.degree_sum)
    received, bresult = broadcast_down(
        graph,
        config,
        tree,
        value,
        value_width=3 * lw + dw + (lw + dw),
        max_rounds=max_rounds,
        record_trace=record_trace,
    )

    trace = None
    if record_trace:
        trace = list(result.trace) + offset_trace(bresult.trace, result.rounds)
    peak: dict[int, int] = {}
    for agent, bits in result.peak_bits.items():
        peak[agent] = max(bits, bresult.peak_bits.get(agent, 0))
    report = RunReport(
        rounds_total=result.rounds + bresult.rounds,
        rounds_per_phase={
            "assignment": assignment_rounds,
            "aggregation": result.rounds - assignment_rounds,
            "downcast": bresult.rounds,
        },
        peak_memory_bits=peak,
        outputs={
            "leader": leader_id,
            "n": payload.n,
            "count0": payload.count0,
            "count1": payload.count1,
            "max_degree": payload.max_degree,
            "degree_sum": payload.degree_sum,
        },
    )
    return KnownLeaderResult(
        tree=tree,
        partition=partition,
        payload=payload,
        received=received,
        report=report,
        trace=trace,
    )
