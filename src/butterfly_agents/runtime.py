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
agents standing at the same node.  The tree waves hold to this too: they
follow the parent ports the agents hold, and convergecast's child count
is a per-agent input keyed by agent id, like its ``values``.

The engine-program contract:

* ``run`` hands ``on_start`` every agent with an empty scratch dict
  (``phase_state``) and an empty tally (``counters``).  Only the fixed
  fields (position, side, tree ports, flags and label) and the neighbor
  table carry over from one phase to the next.
* A :class:`Snapshot` holds only what the program publishes of another
  agent: the fixed fields (id, at-home flag, entry port, side, ``child``
  port, tree label), plus a round-start copy of its scratch dict if the
  program's ``published`` names a scratch key, and of its neighbor table
  if it names ``"neighbor_list"``.  A program reads no key it does not
  publish (a test checks every program).
* A view and its snapshots are valid only during the step they are
  handed to: the engine refreshes them in place for later steps, so a
  program neither keeps them nor writes to them.
* Before each step the engine sets ``state.wake_round`` to the next
  round; a program sets it only to sleep (``NEVER``) or to wake later.
  An agent is stepped in its wake round, and earlier only if others stand
  at its node at the start of a round.  Sleeping agents stay put, so
  skipping their steps is behavior-preserving: the tests check ``run``,
  one engine call at a time, against ``tests/reference_engine.py``, which
  steps every agent every round.
* Memory depends only on which scratch keys are live and on the table
  lengths.  A step sets ``state.dirty`` exactly when it changes either: a
  scratch key came or went, or ``neighbor_list`` or ``counters`` changed
  length.  A value write to a key that stays live needs no mark; an extra
  mark changes no result but costs a recount.  ``on_start`` need not mark:
  every agent is accounted after it.

Per-round cost model.  Host work in a round is proportional to the agents
stepped in it, not to the swarm: fast-forwarded rounds cost nothing unless
a trace is recorded.  Ranks (rank = position in ascending id order) wait
for their wake in one of two places.  A step that keeps the default wake
appends its rank to the next-round lane.  Later wakes go to the calendar,
which maps a round to the ranks booked for it, so its keys are the pending
rounds; an entry is live while the agent's ``wake_round`` still names that
round, so rescheduling never searches it (a wake before round 0 waits for
a crowd).  A round with no slot, lane or crowd fast-forwards to the
smallest key.  Every stepped round merges the lane, the live calendar
entries and the crowds' occupants into one sorted due set.  Bit widths
(id, port, degree and every declared scratch key) are resolved into one
int table per run, after ``on_start``, and the engine recounts inline,
with the widths held in locals (``account_memory`` is the same formula as
a function): a dirty step's accounting is one lookup per live scratch
key, and a step that only rewrites values (most election steps) costs no
accounting at all.  A step allocates no view: the engine makes one
``StepView`` per run and one ``Snapshot`` per agent at phase start and
refreshes them in place.  Each node's occupants are kept in rank order as
agents arrive and leave, so at the start of a round each crowd member's
snapshot is refreshed once, in ascending id order, with no sort.  The two
agents of a pair (most crowds) see each other through a one-snapshot tuple
made at phase start; a larger crowd builds one tuple and hands each member
it with itself left out.  A round with no crowd refreshes no snapshot.  A
snapshot copies only what the program publishes, so a crowd costs nothing
for the scratch or tables nobody reads.  Its scratch and table are
round-start copies, so nothing an agent writes during its step is visible
to another agent before the next round.  The round is then one sweep over
the stepped agents in ascending rank: each is stepped, its move applied,
its memory accounted if ``dirty``, its done flag updated and its wake
scheduled before the next agent's turn.  Because every snapshot and crowd
was fixed before the sweep began, an early mover never shows up in a later
agent's view and moves stay simultaneous.  If an agent asks for a port its
node lacks, ``IllegalPort`` (naming the phase, round and agent) is raised
at its turn; agents earlier in that sweep have already moved.

Traces.  A traced round lists every agent once, in ascending id, at its
round-start node, whether or not it was stepped; fast-forwarded rounds
follow the same rule.  So the trace depends on the simulation alone, not on
the scheduler, and the reference engine writes the same one.
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Any, Collection, Iterable, Mapping, NamedTuple

from .graphs import unreachable_count

__all__ = [
    "IllegalPort",
    "RoundLimitExceeded",
    "PhaseInvariantError",
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
    "Timeline",
    "TraceEvent",
    "write_trace_jsonl",
    "NEVER",
]

NEVER = 1 << 62  # wake round meaning "only on co-location"


class IllegalPort(RuntimeError):
    """Agent ``agent`` (an id) asked, in round ``round`` of phase ``phase``
    (the engine program's name), to move through a port its node lacks."""

    def __init__(self, phase: str, round: int, message: str, agent: int):
        self.phase = phase
        self.round = round
        self.agent = agent
        super().__init__(message)


class RoundLimitExceeded(RuntimeError):
    """Phase ``phase`` hit its round budget, or can provably never finish.

    ``round`` is the first round not simulated; ``agent`` is the id of the
    agent at fault when one agent is, else None.
    """

    def __init__(self, phase: str, round: int, message: str, agent: int | None = None):
        self.phase = phase
        self.round = round
        self.agent = agent
        super().__init__(message)


class PhaseInvariantError(RuntimeError):
    """Phase ``phase`` ended with ``agents`` (ids) in a state its protocol
    rules out."""

    def __init__(self, phase: str, agents: Iterable[int], broken: str):
        self.phase = phase
        self.agents = tuple(agents)
        super().__init__(f"{phase}: agents {list(self.agents)} {broken}")


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


@dataclass(slots=True)
class Snapshot:
    """Round-start view of an agent, as co-located agents see it: only the
    fields some program reads of another agent.  ``neighbor_list`` is
    ``()`` and ``scratch`` an empty mapping unless the program publishes
    them (see ``AgentProgram.published``).  The engine keeps one per agent
    and refreshes it in place at the start of each round the agent shares
    a node."""

    id: int
    at_home: bool
    entered_port: int | None
    partition: int | None
    child: int | None
    treelabel: int
    neighbor_list: tuple[tuple[int, int], ...]
    scratch: Mapping[str, Any]


# the scratch of every snapshot whose program publishes no scratch key
_UNPUBLISHED: Mapping[str, Any] = MappingProxyType({})


@dataclass(slots=True)
class StepView:
    """What one agent gets to see during its Compute stage.  The engine
    keeps one per run and refreshes it in place before each step."""

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

    ``published`` names what co-located agents may read of an agent beyond
    the fixed snapshot fields: the ``phase_state`` keys they read, plus
    ``"neighbor_list"`` when they read its neighbor table.  A snapshot
    copies the whole scratch dict if any scratch key is published and the
    table if it is; otherwise it holds an empty read-only mapping or ``()``.
    A program must read no other key.  The default, None, publishes both.
    """

    name = "program"
    scratch_widths: Mapping[str, Any] = {}
    published: Collection[str] | None = None

    def on_start(self, states: list[AgentState], ctx: "RunContext") -> None:
        """Set up a phase; every agent arrives with empty scratch and tally."""
        raise NotImplementedError

    def step(self, state: AgentState, view: StepView) -> int | None:
        """Compute + Move for one agent.  Return a port number or None.

        ``state.wake_round`` arrives as ``view.round + 1``; change it only
        to sleep or wake later.  Set ``state.dirty`` exactly when a scratch
        key came or went or a table changed length.  A value write to a
        live key needs no mark; marking anyway costs a recount per step.
        ``view`` and its snapshots are valid only during this call: the
        engine refreshes them in place for later steps, so neither keep
        nor write them.
        """
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
    ``max(ids)`` and must not be smaller than that.  An empty or
    disconnected graph raises ValueError here, before any round runs.
    """
    if graph.node_count == 0:
        raise ValueError("cannot place agents on an empty graph")
    missing = unreachable_count(graph)
    if missing:
        raise ValueError(
            f"graph is disconnected: {missing} of {graph.node_count} nodes "
            f"unreachable from node 0; the protocols need a connected graph"
        )
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
    """Width of an agent id / treelabel field: the bits of ``lam``, at least 1."""
    return max(lam.bit_length(), 1)


def port_bits(delta: int) -> int:
    """Width of a port-valued variable: the bits of ``delta``, plus 1.

    The +1 pays for the "none / exhausted" sentinel every port variable
    needs.
    """
    return delta.bit_length() + 1


def _degree_bits(delta: int) -> int:
    return delta.bit_length()


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
    return (
        widths.fixed
        + widths.entry * (len(state.neighbor_list) + len(state.counters))
        + sum(map(widths.scratch.get, state.phase_state, repeat(0)))
    )


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


class Timeline:
    """The phases of one experiment laid end to end on one round clock.

    Protocols run each phase with ``run`` and hand its result to ``add``,
    which credits the rounds to the phase, folds the per-agent peaks into
    running maxima and appends the trace shifted by the rounds before it.
    ``report`` turns the phases added so far into a ``RunReport``.

    It also holds the settings every phase shares: each phase passes
    ``**timeline.settings`` (the round budget per phase and the trace
    switch) to its engine call.
    """

    def __init__(self, max_rounds: int | None = None, record_trace: bool = False):
        self.settings = {"max_rounds": max_rounds, "record_trace": record_trace}
        self.rounds = 0
        self.rounds_per_phase: dict[str, int] = {}
        self.peak: dict[int, int] = {}
        self.trace: list[TraceEvent] | None = [] if record_trace else None

    def add(self, name: str, result: RunResult) -> None:
        peak = self.peak
        for agent, bits in result.peak_bits.items():
            peak[agent] = max(bits, peak.get(agent, 0))
        if self.trace is not None:
            self.trace.extend(offset_trace(result.trace, self.rounds))
        self.rounds_per_phase[name] = result.rounds
        self.rounds += result.rounds

    def report(self, outputs: dict[str, Any]) -> RunReport:
        return RunReport(
            rounds_total=self.rounds,
            rounds_per_phase=dict(self.rounds_per_phase),
            peak_memory_bits=dict(self.peak),
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
) -> RunResult:
    """Drive ``program`` on ``config`` until every agent reports done.

    Raises RoundLimitExceeded if the budget runs out or if every agent is
    asleep forever while some are not done.  The returned states (mutated
    in place in ``config``) describe the final configuration.
    """
    states = config.states
    lam = config.lam
    if max_rounds is None:
        max_rounds = default_max_rounds(len(states), lam)
    delta = graph.max_degree
    adjacency = graph.adjacency
    degree = graph.degrees

    ctx = RunContext(
        lam=lam,
        id_width=id_bits(lam),
        max_degree=delta,
        degrees=tuple(degree[s.home_node] for s in states),
    )
    for s in states:  # a phase starts empty; fixed fields and neighbor table carry over
        s.phase_state = {}
        s.counters = {}
    program.on_start(states, ctx)
    # programs may pin exact widths in on_start
    widths = _resolve_widths(lam, delta, program.scratch_widths)
    step = program.step
    local_done = program.local_done

    # The engine names agents by rank: position in ascending id order.
    by_id = sorted(states, key=lambda s: s.id)
    # What a snapshot copies beyond its fixed fields.
    published = program.published
    copy_table = published is None or "neighbor_list" in published
    copy_scratch = published is None or any(k != "neighbor_list" for k in published)
    # One view per run and one snapshot per agent, refreshed in place; a
    # pair's members see each other through a one-snapshot tuple.
    view = StepView(0, False, None, 0, ())
    snaps = [Snapshot(s.id, False, None, None, None, 0, (), _UNPUBLISHED) for s in by_id]
    pairs = [(snap,) for snap in snaps]

    peak: dict[int, int] = {}
    for s in states:
        peak[s.id] = _memory_bits(s, widths)
        s.dirty = False
    # _memory_bits, inlined in the sweep: one call fewer per dirty step
    fixed, entry, scratch = widths
    scratch_bits = scratch.get
    zeros = repeat(0)

    # node -> ranks standing there, ascending
    occupants: list[list[int]] = [[] for _ in range(graph.node_count)]
    for r, s in enumerate(by_id):
        occupants[s.current_node].append(r)
    crowded: set[int] = {node for node, occ in enumerate(occupants) if len(occ) > 1}

    done = [local_done(s) for s in by_id]
    undone = sum(1 for d in done if not d)

    # Wake calendar: round -> ranks booked for it, so its keys are the
    # pending rounds.  An entry is live while the agent's wake_round still
    # names its round.  The lane holds the ranks a sweep left on the
    # default wake; every lane entry is live.
    lane: list[int] = []
    calendar: dict[int, list[int]] = {}
    for r, s in enumerate(by_id):
        if 0 <= s.wake_round < NEVER:
            calendar.setdefault(s.wake_round, []).append(r)

    trace: list[TraceEvent] | None = [] if record_trace else None

    rnd = 0
    while undone > 0:
        if rnd >= max_rounds:
            raise RoundLimitExceeded(
                program.name, rnd, f"{program.name}: no termination within {max_rounds} rounds"
            )

        # Who needs a step this round?
        booked = calendar.pop(rnd, None)
        if not (lane or crowded or booked):
            # Nothing due and nobody co-located: fast-forward.
            if not calendar:
                raise RoundLimitExceeded(
                    program.name, rnd,
                    f"{program.name}: all agents asleep with {undone} not done",
                )
            skip_to = min(calendar)
            if skip_to >= max_rounds:
                raise RoundLimitExceeded(
                    program.name, rnd,
                    f"{program.name}: no termination within {max_rounds} rounds",
                )
            if trace is not None:
                here = [(s.id, s.current_node) for s in by_id]
                for r in range(rnd, skip_to):
                    trace.extend((r, a, v, "stay", None) for a, v in here)
            rnd = skip_to
            booked = calendar.pop(rnd)
        due = set(lane)
        if booked is not None:
            due.update([r for r in booked if by_id[r].wake_round == rnd])
        for node in crowded:
            due.update(occupants[node])
        active = sorted(due)
        lane = []
        lane_append = lane.append
        nxt = rnd + 1

        # Communicate: refresh each crowd member's snapshot to what the
        # program publishes of its round-start state; each agent there sees
        # the others' snapshots in rank order.
        colocated_of: dict[int, tuple[Snapshot, ...]] = {}
        for node in crowded:
            crowd = occupants[node]
            for r in crowd:
                s = by_id[r]
                snap = snaps[r]
                snap.at_home = s.home_node == node
                snap.entered_port = s.entered_port
                snap.partition = s.partition
                snap.child = s.child
                snap.treelabel = s.treelabel
                if copy_table:
                    snap.neighbor_list = tuple(s.neighbor_list)
                if copy_scratch:
                    snap.scratch = dict(s.phase_state)
            if len(crowd) == 2:  # most crowds: a visitor and its host
                a, b = crowd
                colocated_of[a] = pairs[b]
                colocated_of[b] = pairs[a]
            else:
                members = tuple([snaps[r] for r in crowd])
                for k, r in enumerate(crowd):
                    colocated_of[r] = members[:k] + members[k + 1:]

        # This round's trace row: one slot per rank, a mover's rewritten at its turn.
        if trace is not None:
            row = [(rnd, s.id, s.current_node, "stay", None) for s in by_id]

        # One sweep: compute, move and account each agent in turn.
        view.round = rnd
        for r in active:
            state = by_id[r]
            node = state.current_node
            deg = degree[node]
            view.at_home = node == state.home_node
            view.entered_port = state.entered_port
            view.degree_here = deg
            view.colocated = colocated_of.get(r, ()) if colocated_of else ()
            state.wake_round = nxt  # the default; programs set only later rounds
            port = step(state, view)
            if port is not None:
                if not (0 <= port < deg):
                    raise IllegalPort(
                        program.name, rnd,
                        f"agent {state.id} at a degree-{deg} node "
                        f"asked for port {port} in round {rnd}",
                        state.id,
                    )
                if trace is not None:
                    row[r] = (rnd, state.id, node, "move", port)
                dest, back = adjacency[node][port]
                occ = occupants[node]
                occ.remove(r)
                if len(occ) == 1:
                    crowded.discard(node)
                state.current_node = dest
                state.entered_port = back
                dest_occ = occupants[dest]
                if dest_occ:
                    insort(dest_occ, r)
                    crowded.add(dest)
                else:
                    dest_occ.append(r)

            if state.dirty:
                bits = (
                    fixed
                    + entry * (len(state.neighbor_list) + len(state.counters))
                    + sum(map(scratch_bits, state.phase_state, zeros))
                )
                if bits > peak[state.id]:
                    peak[state.id] = bits
                state.dirty = False
            is_done = local_done(state)
            if is_done != done[r]:
                done[r] = is_done
                undone += -1 if is_done else 1
            wake = state.wake_round
            if wake <= nxt:  # "now" means next round
                state.wake_round = nxt
                lane_append(r)
            elif wake < NEVER:
                calendar.setdefault(wake, []).append(r)

        if trace is not None:
            trace += row

        rnd = nxt

    return RunResult(rounds=rnd, peak_bits=peak, trace=trace)
