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

The mirrored run repeats phases 1-2 with the sides swapped so that the
other side's per-node counts are produced the same way.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    RunContext,
    RunReport,
    RunResult,
    SimConfig,
    Snapshot,
    StepView,
    TraceEvent,
    id_bits,
    offset_trace,
    run,
)
from .election import ElectionResult, elect_leader_and_tree
from .treecast import TreeEdgeSet, broadcast_down, convergecast


def pair_butterflies(common: int) -> int:
    """Butterflies spanned by one same-side pair sharing ``common`` neighbors."""
    return common * (common - 1) // 2


class OddButterflySum(RuntimeError):
    """Raised when the folded counts are odd -- every 4-cycle is seen twice,
    so an odd sum can only mean corrupted per-node values."""


class NotBipartiteSwarm(RuntimeError):
    """Raised when a scanning agent crosses an edge between two nodes of the
    same side: the graph has an odd cycle, so no 2-coloring exists."""

    def __init__(self, agent: int, port: int, round: int, found: str):
        super().__init__(
            f"agent {agent} went through port {port} and found {found} in "
            f"round {round}: the graph has an odd cycle"
        )
        self.agent = agent
        self.port = port
        self.round = round


def home_resident(state: AgentState, view: StepView, port: int) -> Snapshot:
    """The resident a mover finds home behind ``port`` on its return round.

    In a 2-colored swarm the host across any edge is on the other side and
    never leaves home during a sweep.  Finding nobody home, or a resident
    of the mover's own side, means the edge joins two same-side nodes.
    """
    for s in view.colocated:
        if s.at_home:
            if s.partition != state.partition:
                return s
            found = f"agent {s.id} of its own side at home"
            break
    else:
        found = "nobody at home"
    raise NotBipartiteSwarm(state.id, port, view.round, found)


class NeighborScanProgram(AgentProgram):
    """Lockstep port sweep that builds neighbor tables on both sides.

    Movers visit the node behind port ``k`` during rounds ``2k`` and
    ``2k + 1``; the stationary side never leaves home, so every visit finds
    its host.  ``2 * max mover degree`` rounds in total.
    """

    name = "neighbor-scan"

    def __init__(self, mover_side: int):
        self.mover_side = mover_side
        self.scratch_widths: dict[str, int | str] = {"mydeg": "deg", "scan_done": "bool"}

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        for state, deg in zip(states, ctx.degrees):
            state.neighbor_list = []
            if state.partition == self.mover_side:
                state.phase_state = {"mydeg": deg, "scan_done": deg == 0}
                state.wake_round = 0
            else:
                state.phase_state = {}
                state.wake_round = NEVER

    def step(self, state: AgentState, view: StepView) -> int | None:
        if state.partition != self.mover_side:
            for s in view.colocated:  # hosts log whoever shows up
                if not s.at_home:
                    state.neighbor_list.append((s.entered_port, s.id))
                    state.dirty = True
            state.wake_round = NEVER
            return None
        ps = state.phase_state
        k = view.round // 2
        if view.round % 2 == 0:
            if k < ps["mydeg"]:
                state.wake_round = view.round + 1
                return k
            return None
        if view.at_home:  # home on a return round: past its last port, idle
            state.wake_round = NEVER
            return None
        resident = home_resident(state, view, k)
        state.neighbor_list.append((k, resident.id))
        if k + 1 < ps["mydeg"]:
            state.wake_round = view.round + 1
        else:
            ps["scan_done"] = True
            state.wake_round = NEVER
        state.dirty = True
        return view.entered_port

    def local_done(self, state: AgentState) -> bool:
        if state.partition != self.mover_side:
            return True
        return state.at_home and bool(state.phase_state.get("scan_done"))


class WedgeCountProgram(AgentProgram):
    """Second lockstep sweep: movers read each host's neighbor table and
    tally shared neighbors per same-side id, then fold the tally into the
    number of butterflies through their own node."""

    name = "wedge-count"

    def __init__(self, mover_side: int):
        self.mover_side = mover_side
        self.scratch_widths: dict[str, int | str] = {}

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        dw = max(ctx.max_degree.bit_length(), 1)
        self.scratch_widths = {
            "mydeg": "deg",
            "scan_done": "bool",
            "bfly": ctx.id_width + 2 * dw,
        }
        for state, deg in zip(states, ctx.degrees):
            state.counters = {}
            if state.partition == self.mover_side:
                state.phase_state = {"mydeg": deg, "scan_done": deg == 0, "bfly": 0}
                state.wake_round = 0
            else:
                state.phase_state = {}
                state.wake_round = NEVER

    def step(self, state: AgentState, view: StepView) -> int | None:
        if state.partition != self.mover_side:
            state.wake_round = NEVER
            return None
        ps = state.phase_state
        k = view.round // 2
        if view.round % 2 == 0:
            if k < ps["mydeg"]:
                state.wake_round = view.round + 1
                return k
            return None
        if view.at_home:  # home on a return round: past its last port, idle
            state.wake_round = NEVER
            return None
        resident = home_resident(state, view, k)
        for _, aid in resident.neighbor_list:
            if aid != state.id:
                state.counters[aid] = state.counters.get(aid, 0) + 1
        if k + 1 < ps["mydeg"]:
            state.wake_round = view.round + 1
        else:
            ps["scan_done"] = True
            ps["bfly"] = sum(pair_butterflies(c) for c in state.counters.values())
            state.wake_round = NEVER
        state.dirty = True
        return view.entered_port

    def local_done(self, state: AgentState) -> bool:
        if state.partition != self.mover_side:
            return True
        return state.at_home and bool(state.phase_state.get("scan_done"))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ButterflyCount:
    total: int
    per_node: dict[int, int]  # agent id -> butterflies through its home node
    election: ElectionResult
    report: RunReport
    trace: list[TraceEvent] | None = None


def fold_and_halve(
    graph,
    config: SimConfig,
    tree: TreeEdgeSet,
    values: dict[int, int],
    *,
    value_width: int,
    max_rounds: int | None = None,
    record_trace: bool = False,
) -> tuple[int, RunResult, RunResult]:
    """Sum per-node counts up the tree, halve at the root, push back down."""
    doubled, fold = convergecast(
        graph, config, tree, values, operator.add,
        value_width=value_width, max_rounds=max_rounds, record_trace=record_trace,
    )
    if doubled % 2:
        raise OddButterflySum(f"per-node counts folded to odd value {doubled}")
    total = doubled // 2
    received, push = broadcast_down(
        graph, config, tree, total,
        value_width=value_width, max_rounds=max_rounds, record_trace=record_trace,
    )
    missing = [aid for aid, got in received.items() if got != total]
    if missing:
        raise AssertionError(f"agents {missing} missed the total broadcast")
    return total, fold, push


def count_butterflies(
    graph,
    config: SimConfig,
    *,
    mirror: bool = True,
    max_rounds: int | None = None,
    record_trace: bool = False,
) -> ButterflyCount:
    """Elect, scan, count, fold: the whole distributed pipeline.

    With ``mirror`` (the default) phases 1-2 are repeated with the sides
    swapped so ``per_node`` covers every agent; otherwise the stationary
    side reports zero.
    """
    election = elect_leader_and_tree(
        graph, config, max_rounds=max_rounds, record_trace=record_trace
    )

    rounds: dict[str, int] = dict(election.report.rounds_per_phase)
    peak = dict(election.report.peak_memory_bits)
    trace = list(election.trace) if record_trace else None
    clock = election.report.rounds_total

    def merge_peak(result: RunResult) -> None:
        for aid, bits in result.peak_bits.items():
            if bits > peak.get(aid, 0):
                peak[aid] = bits

    def stitch(result: RunResult) -> None:
        nonlocal clock
        merge_peak(result)
        if trace is not None:
            trace.extend(offset_trace(result.trace, clock))
        clock += result.rounds

    per_node: dict[int, int] = {}

    def sweep(side: int, tag: str) -> None:
        r1 = run(
            graph, config, NeighborScanProgram(side),
            max_rounds=max_rounds, record_trace=record_trace,
        )
        rounds[f"neighbor_scan_{tag}"] = r1.rounds
        stitch(r1)
        r2 = run(
            graph, config, WedgeCountProgram(side),
            max_rounds=max_rounds, record_trace=record_trace,
        )
        rounds[f"wedge_count_{tag}"] = r2.rounds
        stitch(r2)
        for s in config.states:
            if s.partition == side:
                per_node[s.id] = s.phase_state["bfly"]
            s.counters = {}
            s.phase_state = {}

    sweep(0, "a")

    values = {s.id: per_node.get(s.id, 0) for s in config.states}
    lw = id_bits(config.lam)
    dw = max(graph.max_degree.bit_length(), 1)
    total, fold, push = fold_and_halve(
        graph, config, election.tree, values,
        value_width=2 * lw + 2 * dw + 2, max_rounds=max_rounds,
        record_trace=record_trace,
    )
    rounds["total_fold"] = fold.rounds
    stitch(fold)
    rounds["total_push"] = push.rounds
    stitch(push)

    if mirror:
        sweep(1, "b")
    for s in config.states:
        per_node.setdefault(s.id, 0)

    report = RunReport(
        rounds_total=sum(rounds.values()),
        rounds_per_phase=rounds,
        peak_memory_bits=peak,
        outputs={
            "leader": election.leader_id,
            "butterflies_total": total,
            "per_node": dict(sorted(per_node.items())),
        },
    )
    return ButterflyCount(
        total=total, per_node=per_node, election=election, report=report, trace=trace
    )
