"""Deterministic meeting schedules for anonymous agents.

Two agents that share an edge but no names can still be forced to meet:
give each a movement schedule derived from its ID such that, for any two
distinct IDs, some step has one agent moving while the other stays home.

The schedule string of an agent with id ``b`` (zero-padded to L bits,
L = max(1, ceil(log2(lam + 1)))) is ``complement(b) || b``: 2L bits whose
low half is the padded id and whose high half is its bitwise complement.
Distinct ids then disagree at some position i in both directions - each
string has a 1 at some i where the other has a 0 - because a disagreement
in the low half flips in the high half.

A window is 4L rounds, two per bit starting from the least significant:
on bit i = 1 an agent with a target port moves out in the window's round
2i, communicates at the neighbor at the start of round 2i + 1, and moves
back; on bit i = 0 (or with no target) it stays home both rounds.  If
every agent aligns its windows to rounds divisible by 4L, an agent
targeting port p is guaranteed to find the resident across p at home
during some slot of the window, whatever that resident's own target is.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    RunContext,
    StepView,
    id_bits,
)

__all__ = [
    "MeetingId",
    "make_meeting_id",
    "window_length",
    "window_schedule",
    "first_separation",
    "simulate_pair",
    "MeetingWindowProgram",
]


@dataclass(frozen=True)
class MeetingId:
    """Schedule bits for one agent; ``bits`` is MSB-first, length 2L."""

    bits: str

    def __len__(self) -> int:
        return len(self.bits)

    def bit(self, i: int) -> int:
        """Bit at LSB index i (i = 0 is the rightmost character)."""
        return int(self.bits[-1 - i])

    @property
    def ones(self) -> int:
        return self.bits.count("1")


def make_meeting_id(agent_id: int, lam: int) -> MeetingId:
    """Build the 2L-bit schedule string for ``agent_id`` under bound ``lam``."""
    if agent_id < 0:
        raise ValueError("agent id must be nonnegative")
    if agent_id > lam:
        raise ValueError(f"agent id {agent_id} exceeds the declared bound {lam}")
    width = id_bits(lam)
    low = format(agent_id, f"0{width}b")
    high = "".join("1" if c == "0" else "0" for c in low)
    return MeetingId(bits=high + low)


def window_length(lam: int) -> int:
    return 4 * id_bits(lam)


def window_schedule(mid: MeetingId, has_target: bool) -> tuple[str | None, ...]:
    """Per-round actions for one window: 'out', 'back', or None (stay).

    Round 2i departs on bit i, round 2i + 1 communicates abroad and
    returns.  Without a target the agent follows the same rhythm standing
    still (pure hosting).
    """
    actions: list[str | None] = []
    for i in range(len(mid.bits)):
        if has_target and mid.bit(i) == 1:
            actions.extend(("out", "back"))
        else:
            actions.extend((None, None))
    return tuple(actions)


def first_separation(u: MeetingId, v: MeetingId) -> int | None:
    """Lowest index where u has a 1 and v has a 0, or None."""
    for i in range(len(u.bits)):
        if u.bit(i) == 1 and v.bit(i) == 0:
            return i
    return None


def simulate_pair(
    u: MeetingId,
    v: MeetingId,
    u_has_target: bool = True,
    v_has_target: bool = True,
) -> list[tuple[int, str]]:
    """Positions-only simulation of two adjacent agents over one window.

    Both agents target each other (when they have a target at all).
    Returns the meetings as (slot, place) pairs, place "u" or "v" naming
    whose home node hosted the meeting.  A slot with both agents moving is
    a swap: they cross the shared edge in opposite directions and miss.
    """
    meetings = []
    for i in range(len(u.bits)):
        u_out = u_has_target and u.bit(i) == 1
        v_out = v_has_target and v.bit(i) == 1
        if u_out and not v_out:
            meetings.append((i, "v"))
        elif v_out and not u_out:
            meetings.append((i, "u"))
    return meetings


class MeetingWindowProgram(AgentProgram):
    """Run aligned meeting windows on a whole graph, Algorithm-style.

    ``targets`` maps agent id to a port (or None to host).  Every agent
    with a target plays its full schedule for ``windows`` windows - no
    early stopping, so meeting times are exactly the schedule algebra's.
    Meetings are recorded in ``self.meetings`` as (round, visitor id,
    resident id); a visitor records one event per visit that finds the
    resident at home.
    """

    name = "meeting-window"
    scratch_widths = {"target": "meet", "finished": "bool"}

    def __init__(self, lam: int, targets: dict[int, int | None], windows: int = 1):
        self.lam = lam
        self.targets = dict(targets)
        self.windows = windows
        self.window = window_length(lam)
        self.meetings: list[tuple[int, int, int]] = []
        self._schedules: dict[int, tuple[str | None, ...]] = {}

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        for s in states:
            target = self.targets.get(s.id)
            mid = make_meeting_id(s.id, self.lam)
            self._schedules[s.id] = window_schedule(mid, target is not None)
            if target is not None:
                s.phase_state["target"] = target
                s.phase_state["finished"] = False
                s.wake_round = self._next_move(s.id, 0)
            else:
                s.phase_state["finished"] = True  # pure host
                s.wake_round = NEVER
            s.dirty = True

    def _next_move(self, agent_id: int, rnd: int) -> int:
        sched = self._schedules[agent_id]
        limit = self.windows * self.window
        r = rnd
        while r < limit:
            if sched[r % self.window] == "out":
                return r
            r += 1
        return NEVER

    def step(self, state: AgentState, view: StepView) -> int | None:
        ps = state.phase_state
        if not view.at_home:
            # Abroad: the resident, if present, is the agent whose home this is.
            resident = next((s for s in view.colocated if s.at_home), None)
            if resident is not None:
                self.meetings.append((view.round, state.id, resident.id))
            nxt = self._next_move(state.id, view.round + 1)
            if nxt >= NEVER:
                ps["finished"] = True
                state.dirty = True
            state.wake_round = nxt
            return view.entered_port  # always come home
        if not ps["finished"]:
            sched = self._schedules[state.id]
            if sched[view.round % self.window] == "out":
                state.wake_round = view.round + 1
                return ps["target"]
            state.wake_round = self._next_move(state.id, view.round + 1)
        else:
            state.wake_round = NEVER
        return None

    def local_done(self, state: AgentState) -> bool:
        return bool(state.phase_state.get("finished", True)) and state.at_home
