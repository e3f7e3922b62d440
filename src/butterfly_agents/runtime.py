"""Synchronous mobile-agent runtime.

Each round has three stages, for every agent at once:

1. Communicate - read the round-start state snapshots of co-located agents.
2. Compute     - update private state as a pure function of own state, the
                 snapshots, and the round number.
3. Move        - stay, or cross one port; all moves happen simultaneously,
                 so two agents crossing the same edge in opposite directions
                 pass without meeting.

Programs are state machines driven through :class:`AgentProgram`.  The
engine never lets a program see the graph, node identifiers, or any state
written in the current round; what an agent observes is its own state, the
degree of the node it stands on, its port of entry, and snapshots of the
agents standing at the same node.

To keep long runs cheap the engine maintains a wake queue: a program sets
``state.wake_round`` to the next round it needs attention, and is stepped
earlier only if other agents stand at its node at the start of a round.
Sleeping agents stay put by definition, so skipping their steps is
behavior-preserving (exercised by an always-step equivalence test).

Per-round cost model.  Host work in a round is proportional to the agents
stepped in it, not to the swarm: fast-forwarded rounds cost nothing unless
a trace is recorded.  Bit widths (id, port, degree and every declared
scratch key) are resolved into one int table per run, after ``on_start``,
so a dirty step's accounting is a table lookup per live scratch key.  Each
crowded node's snapshot tuple is built once per round, in ascending id
order, and every agent there gets that tuple with itself sliced out.
Snapshots are round-start copies: the neighbor table and scratch are
copied when the round starts, so nothing an agent writes during its step
is visible to another agent before the next round.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple

__all__ = [
    "IllegalPort",
    "RoundLimitExceeded",
    "AgentState",
    "Snapshot",
    "StepView",
    "AgentProgram",
    "SimConfig",
    "place_dispersed",
    "id_bits",
    "port_bits",
    "account_memory",
    "run",
    "RunResult",
    "RunReport",
    "TraceEvent",
    "write_trace_jsonl",
    "NEVER",
]

NEVER = 1 << 62  # wake round meaning "only on co-location"


class IllegalPort(RuntimeError):
    """An agent asked to move through a port its current node lacks."""


class RoundLimitExceeded(RuntimeError):
    """The run hit its round budget, or can provably never finish."""


@dataclass(slots=True)
class AgentState:
    """One agent's full state.

    The first block is the protocol-visible state; ``phase_state`` holds
    protocol scratch, ``neighbor_list`` the (port, agent id) table built by
    scan phases, and ``counters`` integer accumulator maps keyed by agent
    id.  ``home_node``/``current_node``/``entered_port`` are physical facts
    maintained by the engine; ``wake_round`` and ``dirty`` are engine
    bookkeeping, not agent memory.
    """

    id: int
    home_node: int
    current_node: int
    partition: int | None = None
    parent: int | None = None
    child: int | None = None
    sibling: int | None = None
    nextport: int = 0
    completion: bool = False
    treelabel: int = 0
    leader: bool = False
    phase_state: dict[str, Any] = field(default_factory=dict)
    neighbor_list: list[tuple[int, int]] = field(default_factory=list)
    counters: dict[int, int] = field(default_factory=dict)
    entered_port: int | None = None
    wake_round: int = 0
    dirty: bool = True

    @property
    def at_home(self) -> bool:
        return self.current_node == self.home_node


class Snapshot(NamedTuple):
    """Round-start view of an agent, as co-located agents see it."""

    id: int
    at_home: bool
    entered_port: int | None
    partition: int | None
    parent: int | None
    child: int | None
    sibling: int | None
    nextport: int
    completion: bool
    treelabel: int
    leader: bool
    neighbor_list: tuple[tuple[int, int], ...]
    scratch: Mapping[str, Any]


def _snapshot(state: AgentState) -> Snapshot:
    return Snapshot(
        state.id,
        state.current_node == state.home_node,
        state.entered_port,
        state.partition,
        state.parent,
        state.child,
        state.sibling,
        state.nextport,
        state.completion,
        state.treelabel,
        state.leader,
        tuple(state.neighbor_list),
        dict(state.phase_state),
    )


class StepView(NamedTuple):
    """What one agent gets to see during its Compute stage."""

    round: int
    at_home: bool
    entered_port: int | None
    degree_here: int
    colocated: tuple[Snapshot, ...]  # ascending agent id, self excluded


class AgentProgram:
    """Base class for agent state machines.

    ``scratch_widths`` declares the bit width of each ``phase_state`` key
    for memory accounting; values are "bool", "port", "deg", "id", "meet",
    or an integer width.
    """

    name = "program"
    scratch_widths: Mapping[str, Any] = {}

    def on_start(self, states: list[AgentState], ctx: "RunContext") -> None:
        raise NotImplementedError

    def step(self, state: AgentState, view: StepView) -> int | None:
        """Compute + Move for one agent.  Return a port number or None."""
        raise NotImplementedError

    def local_done(self, state: AgentState) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class RunContext:
    lam: int
    id_width: int
    max_degree: int
    degrees: tuple[int, ...]  # degree of each agent's home node, by state order


@dataclass
class SimConfig:
    """A dispersed initial configuration: one agent per node."""

    states: list[AgentState]
    lam: int


def place_dispersed(graph, ids: Iterable[int], lam: int | None = None) -> SimConfig:
    """Put agent ``ids[k]`` at node ``k``; one agent per node.

    ``lam`` is the ID bound shared by every agent; it defaults to
    ``max(ids)`` and must not be smaller than that.
    """
    ids = list(ids)
    if len(ids) != graph.node_count:
        raise ValueError(
            f"need exactly {graph.node_count} ids, got {len(ids)}"
        )
    if len(set(ids)) != len(ids):
        raise ValueError("agent ids must be distinct")
    if any(i < 0 for i in ids):
        raise ValueError("agent ids must be nonnegative")
    top = max(ids)
    if lam is None:
        lam = top
    elif lam < top:
        raise ValueError(f"lam {lam} is below max id {top}")
    states = [
        AgentState(id=agent_id, home_node=node, current_node=node, treelabel=agent_id)
        for node, agent_id in enumerate(ids)
    ]
    return SimConfig(states=states, lam=lam)


# ---------------------------------------------------------------------------
# memory accounting
# ---------------------------------------------------------------------------


def id_bits(lam: int) -> int:
    """Width of an agent id / treelabel field: max(1, ceil(log2(lam + 1)))."""
    return max(1, math.ceil(math.log2(lam + 1))) if lam > 0 else 1


def port_bits(delta: int) -> int:
    """Width of a port-valued variable: ceil(log2(delta + 1)) + 1.

    The +1 pays for the "none / exhausted" sentinel every port variable
    needs.
    """
    return (math.ceil(math.log2(delta + 1)) if delta > 0 else 0) + 1


def _degree_bits(delta: int) -> int:
    return math.ceil(math.log2(delta + 1)) if delta > 0 else 0


class _Widths(NamedTuple):
    """Every bit width one run needs, resolved from (lam, delta, declarations)."""

    fixed: int  # id, treelabel, the four port variables and the flag fields
    entry: int  # one neighbor-table or counter-map entry
    scratch: dict[str, int]  # declared phase_state key -> bits


def _resolve_widths(
    lam: int, delta: int, scratch_widths: Mapping[str, Any] | None
) -> _Widths:
    lw = id_bits(lam)
    pw = port_bits(delta)
    dw = _degree_bits(delta)
    kinds = {
        "bool": 1,
        "port": pw,
        "deg": dw,
        "id": lw,
        "meet": lw + pw,  # active meeting-schedule scratch plus its target
    }
    scratch = {
        key: kinds[spec] if spec in kinds else int(spec)
        for key, spec in (scratch_widths or {}).items()
    }
    # id, treelabel; parent, child, sibling, nextport; completion, leader,
    # partition (assigned flag + side)
    return _Widths(2 * lw + 4 * pw + 1 + 1 + 2, lw + dw, scratch)


def _memory_bits(state: AgentState, widths: _Widths) -> int:
    scratch = widths.scratch
    bits = widths.fixed + widths.entry * (len(state.neighbor_list) + len(state.counters))
    for key in state.phase_state:
        bits += scratch.get(key, 0)
    return bits


def account_memory(
    state: AgentState,
    lam: int,
    delta: int,
    scratch_widths: Mapping[str, Any] | None = None,
) -> int:
    """Sum of declared bit widths of the agent's live fields.

    id and treelabel always cost one id width each; the four port variables
    (parent, child, sibling, nextport) one port width each; booleans one
    bit; partition two bits (assigned flag + side).  Scratch keys cost what
    the program declared, and a live key it never declared costs nothing; a
    key absent from ``phase_state`` is not live and costs nothing.  The
    neighbor table costs one (id + degree) width per entry and counter maps
    one (id + counter) width per entry.  The engine resolves the same
    widths once per run and applies them to every dirty step.
    """
    return _memory_bits(state, _resolve_widths(lam, delta, scratch_widths))


# ---------------------------------------------------------------------------
# trace and reports
# ---------------------------------------------------------------------------

# (round, agent, node, action, port) with action "stay" | "move"
TraceEvent = tuple[int, int, int, str, int | None]


def offset_trace(trace: Iterable[TraceEvent], by: int) -> list[TraceEvent]:
    """Shift trace rounds by ``by``, for stitching phases into one timeline."""
    return [(rnd + by, agent, node, action, port) for rnd, agent, node, action, port in trace]


def write_trace_jsonl(path: str, trace: Iterable[TraceEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rnd, agent, node, action, port in trace:
            fh.write(
                json.dumps(
                    {
                        "round": rnd,
                        "agent": agent,
                        "node": node,
                        "action": action,
                        "port": port,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )


@dataclass
class RunResult:
    rounds: int
    peak_bits: dict[int, int]
    trace: list[TraceEvent] | None
    comms: list[tuple[int, int, int]] | None  # (round, reader id, read id)


@dataclass
class RunReport:
    """Cross-phase summary of one experiment."""

    rounds_total: int
    rounds_per_phase: dict[str, int]
    peak_memory_bits: dict[int, int]
    outputs: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "rounds_total": self.rounds_total,
            "rounds_per_phase": dict(self.rounds_per_phase),
            "peak_memory_bits": {
                str(k): v for k, v in sorted(self.peak_memory_bits.items())
            },
            "outputs": self.outputs,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def merge(phases: list[tuple[str, "RunReport"]]) -> "RunReport":
        rounds_per_phase: dict[str, int] = {}
        peak: dict[int, int] = {}
        outputs: dict[str, Any] = {}
        for name, rep in phases:
            rounds_per_phase[name] = rep.rounds_total
            for agent, bits in rep.peak_memory_bits.items():
                peak[agent] = max(peak.get(agent, 0), bits)
            outputs.update(rep.outputs)
        return RunReport(
            rounds_total=sum(rounds_per_phase.values()),
            rounds_per_phase=rounds_per_phase,
            peak_memory_bits=peak,
            outputs=outputs,
        )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def default_max_rounds(n: int, lam: int) -> int:
    return 64 * n * (id_bits(lam) + 1)


def run(
    graph,
    config: SimConfig,
    program: AgentProgram,
    *,
    max_rounds: int | None = None,
    record_trace: bool = False,
    record_comms: bool = False,
    always_step: bool = False,
) -> RunResult:
    """Drive ``program`` on ``config`` until every agent reports done.

    Raises RoundLimitExceeded if the budget runs out or if every agent is
    asleep forever while some are not done.  The returned states (mutated
    in place in ``config``) describe the final configuration.
    """
    states = config.states
    lam = config.lam
    n = len(states)
    if max_rounds is None:
        max_rounds = default_max_rounds(n, lam)
    delta = graph.max_degree
    adjacency = graph.adjacency
    degree = graph.degrees

    ctx = RunContext(
        lam=lam,
        id_width=id_bits(lam),
        max_degree=delta,
        degrees=tuple(degree[s.home_node] for s in states),
    )
    program.on_start(states, ctx)
    # programs may pin exact widths in on_start
    widths = _resolve_widths(lam, delta, program.scratch_widths)
    step = program.step
    local_done = program.local_done

    # The engine names agents by rank: position in ascending id order.
    by_id = sorted(states, key=lambda s: s.id)

    peak: dict[int, int] = {}
    for s in states:
        peak[s.id] = _memory_bits(s, widths)
        s.dirty = False

    occupants: dict[int, list[int]] = {}  # node -> ranks standing there
    for r, s in enumerate(by_id):
        occupants.setdefault(s.current_node, []).append(r)
    crowded: set[int] = {node for node, occ in occupants.items() if len(occ) > 1}

    done = [local_done(s) for s in by_id]
    undone = sum(1 for d in done if not d)

    wake_heap: list[tuple[int, int]] = [
        (s.wake_round, r) for r, s in enumerate(by_id) if s.wake_round < NEVER
    ]
    heapq.heapify(wake_heap)
    heappop = heapq.heappop
    heappush = heapq.heappush

    trace: list[TraceEvent] | None = [] if record_trace else None
    comms: list[tuple[int, int, int]] | None = [] if record_comms else None

    rnd = 0
    while undone > 0:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(
                f"{program.name}: no termination within {max_rounds} rounds"
            )

        # Who needs a step this round?
        if always_step:
            active = range(n)
        else:
            while wake_heap and wake_heap[0][0] < rnd:
                heappop(wake_heap)  # stale entries
            due_now = wake_heap and wake_heap[0][0] == rnd
            if not due_now and not crowded:
                # Nothing due and nobody co-located: fast-forward.
                if not wake_heap:
                    raise RoundLimitExceeded(
                        f"{program.name}: all agents asleep with {undone} not done"
                    )
                skip_to = wake_heap[0][0]
                if skip_to >= max_rounds:
                    raise RoundLimitExceeded(
                        f"{program.name}: no termination within {max_rounds} rounds"
                    )
                if trace is not None:
                    here = [(s.id, s.current_node) for s in by_id]
                    for r in range(rnd, skip_to):
                        trace.extend((r, a, v, "stay", None) for a, v in here)
                rnd = skip_to
            due: set[int] = set()
            while wake_heap and wake_heap[0][0] == rnd:
                r = heappop(wake_heap)[1]
                if by_id[r].wake_round == rnd:
                    due.add(r)
            for node in crowded:
                due.update(occupants[node])
            active = sorted(due)

        # Communicate: one round-start snapshot tuple per crowded node; each
        # agent there sees it with itself sliced out.
        colocated_of: dict[int, tuple[Snapshot, ...]] = {}
        for node in crowded:
            crowd = sorted(occupants[node])
            snaps = tuple([_snapshot(by_id[r]) for r in crowd])
            for k, r in enumerate(crowd):
                colocated_of[r] = snaps[:k] + snaps[k + 1:]

        moves: list[tuple[int, int]] = []  # (rank, port)
        for r in active:
            state = by_id[r]
            node = state.current_node
            colocated = colocated_of.get(r, ())
            if comms is not None:
                for other in colocated:
                    comms.append((rnd, state.id, other.id))
            deg = degree[node]
            state.wake_round = rnd + 1  # default; programs override
            action = step(
                state,
                StepView(rnd, node == state.home_node, state.entered_port, deg, colocated),
            )
            if action is not None:
                if not (0 <= action < deg):
                    raise IllegalPort(
                        f"agent {state.id} at a degree-{deg} node "
                        f"asked for port {action} in round {rnd}"
                    )
                moves.append((r, action))
                if trace is not None:
                    trace.append((rnd, state.id, node, "move", action))
            elif trace is not None:
                trace.append((rnd, state.id, node, "stay", None))
        if trace is not None and not always_step:
            stepped = set(active)
            for r, s in enumerate(by_id):
                if r not in stepped:
                    trace.append((rnd, s.id, s.current_node, "stay", None))

        # Move: simultaneous.
        for r, port in moves:
            state = by_id[r]
            src = state.current_node
            dest, back = adjacency[src][port]
            occ = occupants[src]
            occ.remove(r)
            if len(occ) <= 1:
                crowded.discard(src)
            state.current_node = dest
            state.entered_port = back
            dest_occ = occupants.setdefault(dest, [])
            dest_occ.append(r)
            if len(dest_occ) > 1:
                crowded.add(dest)

        # Bookkeeping for stepped agents.
        for r in active:
            state = by_id[r]
            if state.dirty:
                bits = _memory_bits(state, widths)
                if bits > peak[state.id]:
                    peak[state.id] = bits
                state.dirty = False
            is_done = local_done(state)
            if is_done != done[r]:
                done[r] = is_done
                undone += -1 if is_done else 1
            if state.wake_round <= rnd:  # "now" means next round
                state.wake_round = rnd + 1
            if not always_step and state.wake_round < NEVER:
                heappush(wake_heap, (state.wake_round, r))

        rnd += 1

    return RunResult(rounds=rnd, peak_bits=peak, trace=trace, comms=comms)
