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
    "meeting_word",
    "window_length",
    "window_schedule",
    "first_separation",
    "simulate_pair",
    "next_departure",
    "MeetingWindowProgram",
]


@dataclass(frozen=True)
class MeetingId:
    """Schedule bits for one agent; ``bits`` is MSB-first, length 2L."""

    bits: str

    def bit(self, i: int) -> int:
        """Bit at LSB index i (i = 0 is the rightmost character)."""
        return int(self.bits[-1 - i])

    @property
    def ones(self) -> int:
        return self.bits.count("1")


def _check_id(agent_id: int, lam: int) -> None:
    if agent_id < 0:
        raise ValueError("agent id must be nonnegative")
    if agent_id > lam:
        raise ValueError(f"agent id {agent_id} exceeds the declared bound {lam}")


def make_meeting_id(agent_id: int, lam: int) -> MeetingId:
    """Build the 2L-bit schedule string for ``agent_id`` under bound ``lam``."""
    _check_id(agent_id, lam)
    width = id_bits(lam)
    low = format(agent_id, f"0{width}b")
    high = "".join("1" if c == "0" else "0" for c in low)
    return MeetingId(bits=high + low)


def meeting_word(agent_id: int, lam: int) -> int:
    """The schedule of ``make_meeting_id(agent_id, lam)`` as an int: bit i
    is the string's bit at LSB index i."""
    _check_id(agent_id, lam)
    width = id_bits(lam)
    return ((~agent_id & ((1 << width) - 1)) << width) | agent_id


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


def next_departure(word: int, wlen: int, rnd: int) -> int:
    """First round at or after ``rnd``, in this window or a later one, on
    which an agent with meeting word ``word`` (as an int: bit i departs in
    window round 2i) leaves home; ``NEVER`` if the word has no 1 bit."""
    if not word:
        return NEVER
    base = rnd - rnd % wlen
    first = (rnd - base + 1) >> 1  # the first slot whose departure is not past
    later = word >> first
    if not later:
        base += wlen
        first, later = 0, word
    return base + 2 * (first + (later & -later).bit_length() - 1)


class MeetingWindowProgram(AgentProgram):
    """Run aligned meeting windows on a whole graph, Algorithm-style.

    ``targets`` maps agent id to a port (or None to host).  Every agent
    with a target plays its full schedule for ``windows`` windows - no
    early stopping, so meeting times are exactly the schedule algebra's.
    The meeting words and the window length follow the run's ``lam``.
    Meetings are recorded in ``self.meetings`` as (round, visitor id,
    resident id); a visitor records one event per visit that finds the
    resident at home.
    """

    name = "meeting-window"
    scratch_widths = {"target": "meet", "finished": "bool"}
    published = frozenset()

    def __init__(self, targets: dict[int, int | None], windows: int = 1):
        self.targets = dict(targets)
        self.windows = windows
        self.window = 0  # window_length(lam), set by on_start
        self.meetings: list[tuple[int, int, int]] = []
        self._words: dict[int, int] = {}  # agent id -> meeting word as an int

    def on_start(self, states: list[AgentState], ctx: RunContext) -> None:
        self.window = window_length(ctx.lam)
        for s in states:
            target = self.targets.get(s.id)
            if target is not None:
                self._words[s.id] = meeting_word(s.id, ctx.lam)
                s.phase_state["target"] = target
                s.phase_state["finished"] = False
                s.wake_round = self._next_move(s.id, 0)
            else:
                s.phase_state["finished"] = True  # pure host
                s.wake_round = NEVER

    def _next_move(self, agent_id: int, rnd: int) -> int:
        nxt = next_departure(self._words[agent_id], self.window, rnd)
        return nxt if nxt < self.windows * self.window else NEVER

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
            state.wake_round = nxt
            return view.entered_port  # always come home
        if ps["finished"]:
            state.wake_round = NEVER
            return None
        nxt = self._next_move(state.id, view.round)
        if nxt == view.round:
            return ps["target"]
        state.wake_round = nxt
        return None

    def local_done(self, state: AgentState) -> bool:
        return (
            bool(state.phase_state.get("finished", True))
            and state.current_node == state.home_node
        )
