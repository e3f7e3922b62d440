"""Distributed butterfly (4-cycle) counting by a 2-colored agent swarm.

A butterfly is a pair of same-side nodes plus two of their common
neighbors.  Counting proceeds in three phases on top of an elected
spanning tree whose 2-coloring tells each agent its side:

1. Neighbor scan: one side sweeps its ports in lockstep, one slot of two
   rounds per port.  Visitor and host both record the (port, id) pair, so
   a single sweep leaves complete neighbor tables on both sides.
2. Wedge count: the same side sweeps again, now reading each host's
   finished table.  An agent tallies, per distinct same-side id, how many
   common neighbors it shares with it; summing "common choose 2" over the
   tally gives the butterflies through its own node.
3. Fold and push: per-node counts are summed up the tree (each butterfly
   is seen by exactly two same-side nodes, so the root halves the sum) and
   the total is broadcast back down.

Phases 1-2 then run again with the sides swapped, always: that produces
the other side's per-node counts the same way, and with both passes every
edge is crossed from both ends, so an edge joining two same-side nodes
(the graph has an odd cycle) always raises ``NotBipartiteSwarm``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    PhaseInvariantError,
    RunContext,
    RunReport,
    SimConfig,
    Snapshot,
    StepView,
    Timeline,
    TraceEvent,
    id_bits,
    run,
)
from .election import _elect
from .known_leader import TreeResult
from .treecast import broadcast_down, convergecast

# The pipeline's phases, in the order ``count_butterflies`` reports them.
PHASES = (
    "election",
    "downcast",
    "neighbor_scan_a",
    "wedge_count_a",
    "total_fold",
    "total_push",
    "neighbor_scan_b",
    "wedge_count_b",
)


def pair_butterflies(common: int) -> int:
    """Butterflies spanned by one same-side pair sharing ``common`` neighbors."""
    return common * (common - 1) // 2


class OddButterflySum(PhaseInvariantError):
    """Raised when the folded counts are odd -- every 4-cycle is seen twice,
    so an odd sum can only mean corrupted per-node values.  ``phase`` is
    ``total_fold`` and ``agents`` the root that holds the sum."""


class NotBipartiteSwarm(RuntimeError):
    """Raised when a scanning agent crosses an edge between two nodes of the
    same side: the graph has an odd cycle, so no 2-coloring exists.
    ``phase`` is the sweeping program's name."""

    def __init__(self, phase: str, agent: int, port: int, round: int, found: str):
        super().__init__(
            f"agent {agent} went through port {port} and found {found} in "
            f"round {round}: the graph has an odd cycle"
        )
        self.phase = phase
        self.agent = agent
        self.port = port
        self.round = round


class LockstepSweep(AgentProgram):
    """One side sweeps its ports in lockstep, one slot of two rounds per port.

    Movers cross port ``k`` in round ``2k``, read the host behind it in
    round ``2k + 1`` and come straight back; the stationary side never
    leaves home, so every visit finds its host.  ``2 * max mover degree``
    rounds in total.  Subclasses supply ``visit`` (a mover's action at the
    host behind port ``k``) and ``finish`` (after its last port); ``host``
    is what a stationary agent does when stepped.  Each of the three sets
    ``state.dirty`` when it lengthens a table or adds a scratch key.
    """

    published: frozenset[str] = frozenset()

    def __init__(self, mover_side: int):
        self.mover_side = mover_side
        self.scratch_widths: dict[str, int | str] = {}

    def visit(self, state: AgentState, resident: Snapshot, port: int) -> None:
        raise NotImplementedError

    def finish(self, state: AgentState) -> None:
        pass

    def home_resident(self, state: AgentState, view: StepView, port: int) -> Snapshot:
        """The resident a mover finds home behind ``port`` on its return round.

        In a 2-colored swarm the host across any edge is on the other side
        and never leaves home during a sweep.  Finding nobody home, or a
        resident of the mover's own side, means the edge joins two
        same-side nodes.
        """
        for s in view.colocated:
            if s.at_home:
                if s.partition != state.partition:
                    return s
                found = f"agent {s.id} of its own side at home"
                break
        else:
            found = "nobody at home"
        raise NotBipartiteSwarm(self.name, state.id, port, view.round, found)

    def host(self, state: AgentState, view: StepView) -> None:
        pass

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        dw = max(ctx.max_degree.bit_length(), 1)
        self.scratch_widths = {
            "mydeg": "deg",
            "scan_done": "bool",
            "bfly": ctx.id_width + 2 * dw,  # the wedge count's per-node result
        }
        for state, deg in zip(states, ctx.degrees):
            if state.partition == self.mover_side:
                state.phase_state.update(mydeg=deg, scan_done=deg == 0)
                state.wake_round = 0
                if deg == 0:  # no ports to sweep
                    self.finish(state)
            else:
                state.wake_round = NEVER

    def step(self, state: AgentState, view: StepView) -> int | None:
        if state.partition != self.mover_side:
            self.host(state, view)
            state.wake_round = NEVER
            return None
        ps = state.phase_state
        k = view.round // 2
        if view.round % 2 == 0:
            return k if k < ps["mydeg"] else None
        if view.at_home:  # home on a return round: past its last port, idle
            state.wake_round = NEVER
            return None
        self.visit(state, self.home_resident(state, view, k), k)
        if k + 1 >= ps["mydeg"]:  # that was the last port
            ps["scan_done"] = True
            self.finish(state)
            state.wake_round = NEVER
        return view.entered_port

    def local_done(self, state: AgentState) -> bool:
        if state.partition != self.mover_side:
            return True
        return state.current_node == state.home_node and bool(state.phase_state.get("scan_done"))


class NeighborScanProgram(LockstepSweep):
    """Builds neighbor tables on both sides: visitor and host each record
    the (port, id) pair of the edge between them."""

    name = "neighbor-scan"

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        for state in states:  # every table is rebuilt from empty
            state.neighbor_list.clear()
        super().on_start(states, ctx)

    def visit(self, state: AgentState, resident: Snapshot, port: int) -> None:
        state.neighbor_list.append((port, resident.id))
        state.dirty = True

    def host(self, state: AgentState, view: StepView) -> None:
        for s in view.colocated:  # hosts log whoever shows up
            if not s.at_home:
                state.neighbor_list.append((s.entered_port, s.id))
                state.dirty = True


class WedgeCountProgram(LockstepSweep):
    """Second sweep: movers read each host's neighbor table and tally
    shared neighbors per same-side id, then fold the tally into the
    number of butterflies through their own node."""

    name = "wedge-count"
    published = frozenset(("neighbor_list",))

    def visit(self, state: AgentState, resident: Snapshot, port: int) -> None:
        counters = state.counters
        size = len(counters)
        for _, aid in resident.neighbor_list:
            counters[aid] = counters.get(aid, 0) + 1
        counters.pop(state.id, None)  # the host's table lists the visitor too
        if len(counters) != size:
            state.dirty = True

    def finish(self, state: AgentState) -> None:
        state.phase_state["bfly"] = sum(pair_butterflies(c) for c in state.counters.values())
        state.dirty = True


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ButterflyCount:
    total: int
    per_node: dict[int, int]  # agent id -> butterflies through its home node
    election: TreeResult
    report: RunReport
    trace: list[TraceEvent] | None = None


def fold_and_halve(
    graph,
    config: SimConfig,
    values: dict[int, int],
    value_width: int,
    timeline: Timeline,
) -> int:
    """Sum per-node counts up the agents' tree, halve at the root, push back
    down.  Adds phases ``total_fold`` and ``total_push`` to ``timeline`` and
    returns the total."""
    doubled = convergecast(graph, config, values, value_width, timeline, "total_fold")
    if doubled % 2:
        root = next(s.id for s in config.states if s.parent is None)
        raise OddButterflySum("total_fold", [root], f"holds the odd per-node sum {doubled}")
    total = doubled // 2
    received = broadcast_down(graph, config, total, value_width, timeline, "total_push")
    missing = [aid for aid, got in received.items() if got != total]
    if missing:
        raise PhaseInvariantError("total_push", missing, f"did not receive the total {total}")
    return total


def count_butterflies(
    graph,
    config: SimConfig,
    *,
    max_rounds: int | None = None,
    record_trace: bool = False,
) -> ButterflyCount:
    """Elect, scan, count, fold: the whole distributed pipeline.

    Phases 1-2 run once per side, so ``per_node`` covers every agent and
    both sides' sweeps check for same-side edges.
    """
    timeline = Timeline(max_rounds, record_trace)
    election = _elect(graph, config, timeline)
    per_node: dict[int, int] = {}

    def sweep(side: int, tag: str) -> None:
        for phase, program in (
            ("neighbor_scan_", NeighborScanProgram(side)),
            ("wedge_count_", WedgeCountProgram(side)),
        ):
            timeline.add(phase + tag, run(graph, config, program, **timeline.settings))
        for s in config.states:
            if s.partition == side:
                per_node[s.id] = s.phase_state["bfly"]

    sweep(0, "a")

    values = {s.id: per_node.get(s.id, 0) for s in config.states}
    lw = id_bits(config.lam)
    dw = max(graph.max_degree.bit_length(), 1)
    total = fold_and_halve(graph, config, values, 2 * lw + 2 * dw + 2, timeline)

    sweep(1, "b")

    report = timeline.report({
        "leader": election.leader_id,
        "butterflies_total": total,
        "per_node": dict(sorted(per_node.items())),
    })
    return ButterflyCount(
        total=total, per_node=per_node, election=election, report=report, trace=timeline.trace
    )
