"""Leader election with spanning tree, 2-coloring, and aggregate delivery.

Nobody is told who the leader is here.  Every agent starts out as the root
of its own one-node tree, labeled with its own id, and repeatedly visits
neighbors inside globally aligned meeting windows.  Whenever two trees
touch, the larger-labeled side is absorbed edge by edge into the smaller;
the agent with the smallest id ends up the root of a spanning tree and
every agent ends up carrying that id as its tree label.  Subtree reports
(degree sum, per-side counts, maximum degree) are folded toward the root
along the way, then pushed back down so every agent knows them.

Window discipline
-----------------
Rounds are grouped into windows of ``4 * id_width`` rounds.  At a window
start each agent commits to at most one errand: visit the next unexplored
port, or carry a completion report to its parent.  Within the window it
follows its meeting-id bit schedule -- slot ``i`` means "leave in window
round ``2i``, talk abroad in round ``2i + 1``, come straight back".  Two
complementary bit patterns can't be away on exactly the same slots, so an
errand always finds its target at home at some slot of the window.

Because departures happen only on even window rounds and returns on odd
ones, an agent found at its own node during an odd round is guaranteed to
be "the resident" -- there is never any ambiguity about who can adopt whom.

Merge rules (everyone at a node applies them to the same snapshots):

* The pivot is the visitor with the least ``(label, id)``.  A resident
  with a larger label adopts the pivot as parent and restarts its port
  sweep; its old children eventually notice and re-attach the same way.
* A visitor finding a smaller-labeled resident (while no co-visitor is
  absorbing that resident) attaches itself as a new child.  Simultaneous
  adopters chain their sibling pointers in ascending id order.
* Equal labels mean same tree: explorers just advance, reporters deliver.
* A report aimed at a resident that is itself being absorbed this very
  round is void; the reporter retries and ends up re-attaching instead.
"""

from __future__ import annotations

from dataclasses import replace

from ..runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    PhaseInvariantError,
    RoundLimitExceeded,
    RunContext,
    SimConfig,
    Snapshot,
    StepView,
    Timeline,
    run,
)
from .known_leader import TreeResult, advance_port, deliver_aggregates, join_tree, tree_widths
from .meeting import meeting_word, next_departure, window_length


class ElectionProgram(AgentProgram):
    """Self-stabilizing tree growth by label comparison.

    An agent is finished when it has swept every port, heard completion
    reports from all registered children, and either delivered its own
    report (non-roots) or, for the sole surviving root, raised the
    completion flag that marks it the leader.
    """

    name = "election"
    published = frozenset(("trip_rep", "agg"))

    def __init__(self) -> None:
        self.scratch_widths: dict[str, int | str] = {}
        # agent id -> departure slots as an int: bit i set when the
        # agent's meeting id leaves home on slot i
        self._departs: dict[int, int] = {}
        self._wlen = 0
        self._retry_cap = 0

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        self._wlen = window_length(ctx.lam)
        # A target can only be away on slots where our own schedule shows a
        # zero bit, and complementary halves forbid that for a full window;
        # the cap is pure insurance against a wedged configuration.
        self._retry_cap = ctx.lam + 2
        self.scratch_widths = {
            "trip_port": "port",
            "trip_rep": "bool",
            "trip_done": "bool",
            "retry": "id",
            **tree_widths(ctx),
        }
        for state, deg in zip(states, ctx.degrees):
            self._departs[state.id] = meeting_word(state.id, ctx.lam)
            state.phase_state.update(mydeg=deg, retry=0)
            join_tree(state, None, 0, None)  # the root of its own one-node tree
            state.treelabel = state.id
            state.leader = False
            state.completion = False
            state.wake_round = 0

    # -- window bookkeeping -------------------------------------------------

    def _window_start(self, state: AgentState, rnd: int) -> None:
        ps = state.phase_state
        had_trip = "trip_port" in ps
        if had_trip and not ps["trip_done"]:
            # Defensive only: aligned windows mean residents are always home
            # on odd rounds, so an errand resolves within its first window.
            # Distinct ids bound the population by lam + 1 < cap.
            ps["retry"] += 1
            if ps["retry"] > self._retry_cap:
                raise RoundLimitExceeded(
                    self.name, rnd,
                    f"agent {state.id}: errand to port {ps['trip_port']} "
                    f"unresolved for {ps['retry']} windows",
                    agent=state.id,
                )
            return
        if state.nextport != -1:
            ps.update(trip_port=state.nextport, trip_rep=False, trip_done=False, retry=0)
        elif (
            state.parent is not None
            and not ps["reported"]
            and ps["kids_done"] >= ps["kids"]
        ):
            ps.update(trip_port=state.parent, trip_rep=True, trip_done=False, retry=0)
        else:
            if had_trip:
                del ps["trip_port"], ps["trip_rep"], ps["trip_done"]
            if state.parent is None and ps["kids_done"] >= ps["kids"] and not state.completion:
                state.completion = True
                state.leader = True
        if ("trip_port" in ps) != had_trip:  # the trip keys came or went
            state.dirty = True

    def _arm_wake(self, state: AgentState, view: StepView) -> None:
        ps = state.phase_state
        if state.parent is None and state.completion:
            state.wake_round = NEVER
            return
        if ps["reported"]:
            state.wake_round = NEVER
            return
        if "trip_port" not in ps and state.nextport == -1 and ps["kids_done"] < ps["kids"]:
            # Idle until a child reports: only a child's visit can change
            # this agent, and that visit steps it anyway.
            state.wake_round = NEVER
            return
        window_end = view.round - view.round % self._wlen + self._wlen
        if "trip_port" in ps and not ps["trip_done"]:
            departs = next_departure(self._departs[state.id], self._wlen, view.round + 1)
            state.wake_round = min(departs, window_end)
        else:
            state.wake_round = window_end

    # -- merge rules ----------------------------------------------------------

    def _adopt(
        self,
        state: AgentState,
        *,
        parent_port: int,
        label: int,
        partition: int,
        sibling: int | None,
    ) -> None:
        join_tree(state, parent_port, partition, sibling)
        state.treelabel = label
        state.completion = False
        state.leader = False
        ps = state.phase_state
        ps["retry"] = 0
        if "trip_port" in ps:
            del ps["trip_port"], ps["trip_rep"], ps["trip_done"]
            state.dirty = True

    def _resident_step(self, state: AgentState, view: StepView) -> None:
        # Views list agents in ascending id, so the first least label is
        # the pivot's: the least (label, id).
        visitors = []
        pivot = None
        for s in view.colocated:
            if not s.at_home:
                visitors.append(s)
                if pivot is None or s.treelabel < pivot.treelabel:
                    pivot = s
        if pivot is None:
            return
        ps = state.phase_state
        if pivot.treelabel < state.treelabel:
            self._adopt(
                state,
                parent_port=pivot.entered_port,
                label=pivot.treelabel,
                partition=1 - pivot.partition,
                sibling=pivot.child,
            )
            return
        adopters = [s for s in visitors if s.treelabel > state.treelabel]
        if adopters:
            ps["kids"] += len(adopters)
            state.child = adopters[-1].entered_port
        for s in visitors:
            if s.treelabel == state.treelabel and s.scratch.get("trip_rep"):
                ps["kids_done"] += 1
                ps["agg"] = ps["agg"].absorb(s.scratch["agg"])

    def _visitor_step(self, state: AgentState, view: StepView) -> None:
        resident = None
        others = []
        pivot_key = (state.treelabel, state.id)
        for s in view.colocated:
            if s.at_home:
                resident = s
            else:
                others.append(s)
                key = (s.treelabel, s.id)
                if key < pivot_key:
                    pivot_key = key
        if resident is None:
            return  # target is abroad this slot; a later slot will catch it
        ps = state.phase_state
        res_label = resident.treelabel
        if ps["trip_rep"]:
            if state.treelabel == res_label:
                if pivot_key[0] < res_label:
                    return  # parent is being absorbed right now: delivery void
                # reported agents sleep for good: drop the errand keys now
                ps["reported"] = True
                del ps["trip_port"], ps["trip_rep"], ps["trip_done"]
                state.dirty = True
            elif state.treelabel > res_label and pivot_key[0] >= res_label:
                # Parent switched to a smaller tree while our report was in
                # flight.  The report is stale; re-attach over the same edge.
                self._adopt_as_visitor(state, resident, others, res_label)
            return
        if (state.treelabel, state.id) == pivot_key and state.treelabel < res_label:
            ps["kids"] += 1
            state.child = ps["trip_port"]
            state.nextport = advance_port(ps["trip_port"], state.parent, ps["mydeg"])
            ps["trip_done"] = True
            return
        if state.treelabel > res_label and pivot_key[0] >= res_label:
            self._adopt_as_visitor(state, resident, others, res_label)
            return
        # Same tree, or the resident is adopting some other pivot this round.
        # Either way this edge needs nothing more from us: once the resident
        # restarts its own sweep it covers the edge from its side.
        state.nextport = advance_port(ps["trip_port"], state.parent, ps["mydeg"])
        ps["trip_done"] = True

    def _adopt_as_visitor(
        self,
        state: AgentState,
        resident: Snapshot,
        others: list[Snapshot],
        res_label: int,
    ) -> None:
        """Attach to the resident, slotting into the sibling chain by id."""
        rivals = [s for s in others if s.treelabel > res_label]  # ascending id
        rank = sum(1 for s in rivals if s.id < state.id)
        if rank == 0:
            sibling = resident.child
        else:
            sibling = rivals[rank - 1].entered_port
        self._adopt(
            state,
            parent_port=state.phase_state["trip_port"],
            label=res_label,
            partition=1 - resident.partition,
            sibling=sibling,
        )

    # -- per-round dispatch ---------------------------------------------------

    def step(self, state: AgentState, view: StepView) -> int | None:
        pos = view.round % self._wlen
        if pos % 2 == 0:
            # Departure rounds.  Visits never overlap these, so there is
            # nothing to merge; just launch the errand when its slot comes.
            if pos == 0:
                self._window_start(state, view.round)
            ps = state.phase_state
            if (
                "trip_port" in ps
                and not ps["trip_done"]
                and self._departs[state.id] >> (pos >> 1) & 1
            ):
                return ps["trip_port"]
            self._arm_wake(state, view)
            return None
        if view.at_home:
            self._resident_step(state, view)
            self._arm_wake(state, view)
            return None
        self._visitor_step(state, view)
        self._arm_wake(state, view)
        return view.entered_port

    def local_done(self, state: AgentState) -> bool:
        if state.current_node != state.home_node:
            return False
        if state.parent is None:
            return state.completion
        return bool(state.phase_state.get("reported"))


def elect_leader_and_tree(
    graph,
    config: SimConfig,
    *,
    max_rounds: int | None = None,
    record_trace: bool = False,
) -> TreeResult:
    """Run the election, then push the root's totals down the tree.

    Afterwards every agent knows the leader id (its tree label), its side
    of the bipartition, and the graph totals ``(n, side counts, max degree,
    degree sum)``.
    """
    timeline = Timeline(max_rounds, record_trace)
    # this timeline holds only these two phases, so its trace is the result's
    return replace(_elect(graph, config, timeline), trace=timeline.trace)


def _elect(graph, config: SimConfig, timeline: Timeline) -> TreeResult:
    """Add phases ``election`` and ``downcast`` to ``timeline``; the
    result's report covers the timeline up to the downcast, its trace is None."""
    timeline.add("election", run(graph, config, ElectionProgram(), **timeline.settings))

    roots = [s for s in config.states if s.parent is None]
    if len(roots) != 1:
        raise PhaseInvariantError(
            "election", [s.id for s in roots], "are roots; exactly one must remain"
        )
    leader = roots[0]
    stray = [s.id for s in config.states if s.treelabel != leader.id]
    if stray:
        raise PhaseInvariantError(
            "election", stray, f"ended on a tree label other than leader {leader.id}"
        )
    res = deliver_aggregates(graph, config, leader, timeline)
    payload = res.payload
    return replace(res, report=timeline.report({
        "leader": leader.id,
        "n": payload.n,
        "side_counts": [payload.count0, payload.count1],
        "max_degree": payload.max_degree,
        "degree_sum": payload.degree_sum,
    }))
