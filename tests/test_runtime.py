"""Engine semantics: scheduling, movement, memory accounting, determinism."""

import collections
import collections.abc
import copy
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterfly_agents.graphs import (
    build_port_graph,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
)
from butterfly_agents.oracle import oracle_coloring
from butterfly_agents.protocols import butterfly as butterfly_module
from butterfly_agents.protocols import election as election_module
from butterfly_agents.protocols import known_leader as known_leader_module
from butterfly_agents.protocols import treecast as treecast_module
from butterfly_agents.protocols.butterfly import NeighborScanProgram, WedgeCountProgram
from butterfly_agents.protocols.election import ElectionProgram, elect_leader_and_tree
from butterfly_agents.protocols.known_leader import known_leader_tree
from butterfly_agents.protocols.meeting import MeetingWindowProgram
from butterfly_agents.protocols.treecast import BroadcastProgram, ConvergecastProgram
from butterfly_agents.runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    IllegalPort,
    RoundLimitExceeded,
    RunContext,
    Snapshot,
    StepView,
    Timeline,
    _degree_bits,
    _resolve_widths,
    account_memory,
    id_bits,
    offset_trace,
    place_dispersed,
    port_bits,
    run,
    write_trace_jsonl,
)
from reference_engine import reference_run


class SitStill(AgentProgram):
    name = "sit-still"

    def on_start(self, states, ctx):
        for s in states:
            s.wake_round = NEVER

    def step(self, state, view):
        return None

    def local_done(self, state):
        return True


class AskForBadPort(AgentProgram):
    name = "bad-port"

    def on_start(self, states, ctx):
        pass

    def step(self, state, view):
        return view.degree_here  # one past the last legal port

    def local_done(self, state):
        return False


class NeverDone(AgentProgram):
    name = "never-done"

    def on_start(self, states, ctx):
        pass

    def step(self, state, view):
        return None

    def local_done(self, state):
        return False


class CrossOver(AgentProgram):
    """Both agents on a two-node path walk the shared edge at round 0.

    They must pass each other on the edge without meeting, find the far
    node empty, and walk home.
    """

    name = "cross-over"
    scratch_widths = {"alone_abroad": "bool"}

    def on_start(self, states, ctx):
        pass

    def step(self, state, view):
        if view.round == 0:
            return 0
        if not view.at_home:
            state.phase_state["alone_abroad"] = len(view.colocated) == 0
            state.dirty = True
            return view.entered_port
        return None

    def local_done(self, state):
        return state.at_home and state.phase_state.get("alone_abroad", False)


class Converge(AgentProgram):
    """Degree-1 agents walk to their neighbor, log the crowd, walk home."""

    name = "converge"

    def on_start(self, states, ctx):
        self._deg = dict(zip((s.id for s in states), ctx.degrees))

    def step(self, state, view):
        for other in view.colocated:
            state.counters[other.id] = state.counters.get(other.id, 0) + 1
            state.dirty = True
        if self._deg[state.id] != 1:
            state.wake_round = NEVER
            return None
        if view.round == 0:
            return 0
        if not view.at_home:
            return view.entered_port
        state.phase_state["back"] = True
        state.wake_round = NEVER
        return None

    def local_done(self, state):
        if self._deg[state.id] != 1:
            return True
        return bool(state.phase_state.get("back"))


class RoundStartIsolation(AgentProgram):
    """Leaves of a star crowd the hub for rounds 1-3, then walk home.

    Every agent steps every round, logs what its co-located agents look
    like, and then rewrites its own scratch, neighbor table and treelabel,
    partly in place.  Agents step in ascending id order, so a snapshot that
    aliased live state or was taken after an earlier step would show it.
    """

    name = "isolation"
    scratch_widths = {"tag": 8, "extra": 8}

    def __init__(self):
        self.seen = {}

    def on_start(self, states, ctx):
        self._deg = dict(zip((s.id for s in states), ctx.degrees))
        for s in states:
            s.phase_state["tag"] = s.id
            s.neighbor_list.append((0, s.id))

    def step(self, state, view):
        self.seen[(view.round, state.id)] = [
            (o.id, dict(o.scratch), tuple(o.neighbor_list), o.treelabel)
            for o in view.colocated
        ]
        state.phase_state["tag"] += 1
        state.phase_state["extra"] = view.round
        state.neighbor_list.append((view.round, state.id))
        state.treelabel += 1
        state.dirty = True
        if self._deg[state.id] == 1 and view.round == 0:
            return 0
        if self._deg[state.id] == 1 and view.round == 3:
            return view.entered_port
        return None

    def local_done(self, state):
        return state.at_home and state.treelabel - state.id >= 4


class PairIsolation(AgentProgram):
    """On a two-node path the agent ``visitor`` walks to the other's node in
    round 0 and back in round 1.  Every step logs the co-located snapshots
    and their values; an agent with company then rewrites its scratch,
    neighbor table and treelabel, partly in place."""

    name = "pair-isolation"
    scratch_widths = {"tag": 8}

    def __init__(self, visitor, published):
        self.visitor = visitor
        self.published = published
        self.views = {}
        self.seen = {}

    def on_start(self, states, ctx):
        for s in states:
            s.phase_state["tag"] = s.id
            s.neighbor_list.append((0, s.id))

    def step(self, state, view):
        self.views[view.round, state.id] = view.colocated
        self.seen[view.round, state.id] = [
            (o.id, o.at_home, dict(o.scratch), tuple(o.neighbor_list), o.treelabel)
            for o in view.colocated
        ]
        if view.colocated:
            state.phase_state["tag"] += 10
            state.neighbor_list.append((1, state.id))
            state.treelabel += 10
            state.dirty = True
        if state.id == self.visitor and view.round < 2:
            return 0
        return None

    def local_done(self, state):
        return state.at_home and state.treelabel != state.id


class Scripted(AgentProgram):
    """Logs every step; ports and wake rounds follow a fixed script.

    ``script[(round, id)]`` is the (port, next wake round) an agent returns
    when stepped; a step off the script stays and sleeps for good.  A
    second step of one agent in one round fails at once.
    """

    name = "scripted"

    def __init__(self, first_wake, script):
        self.first_wake = first_wake
        self.script = script
        self.steps = []  # (round, id, ids seen co-located)
        self.stepped = set()  # (round, id)

    def on_start(self, states, ctx):
        for s in states:
            s.wake_round = self.first_wake.get(s.id, NEVER)

    def step(self, state, view):
        key = (view.round, state.id)
        assert key not in self.stepped, f"agent {state.id} stepped twice in round {view.round}"
        self.stepped.add(key)
        self.steps.append((view.round, state.id, [o.id for o in view.colocated]))
        port, state.wake_round = self.script.get((view.round, state.id), (None, NEVER))
        return port

    def local_done(self, state):
        return state.wake_round == NEVER and state.at_home


def record_reads(program):
    """Wrap ``program.step`` to log (round, reader id, read id) for every
    co-located snapshot an agent is handed; returns the log."""
    reads = []
    step = program.step

    def logged_step(state, view):
        reads.extend((view.round, state.id, other.id) for other in view.colocated)
        return step(state, view)

    program.step = logged_step
    return reads


def test_place_dispersed_shape():
    g, _ = make_path(3)
    cfg = place_dispersed(g, [5, 1, 3])
    assert cfg.lam == 5
    assert [(s.id, s.home_node) for s in cfg.states] == [(5, 0), (1, 1), (3, 2)]


def test_place_dispersed_rejects_duplicates():
    g, _ = make_path(3)
    with pytest.raises(ValueError):
        place_dispersed(g, [1, 2, 1])


def test_place_dispersed_rejects_negative_ids():
    g, _ = make_path(3)
    with pytest.raises(ValueError, match="nonnegative"):
        place_dispersed(g, [1, -2, 3])


def test_place_dispersed_rejects_wrong_count():
    g, _ = make_path(3)
    with pytest.raises(ValueError):
        place_dispersed(g, [1, 2])


def test_place_dispersed_rejects_small_lam():
    g, _ = make_path(2)
    with pytest.raises(ValueError):
        place_dispersed(g, [1, 9], lam=3)


def test_place_dispersed_rejects_empty_graph():
    g = build_port_graph(0, [])
    with pytest.raises(ValueError, match="empty graph"):
        place_dispersed(g, [])


def test_place_dispersed_rejects_disconnected_graph():
    # two disjoint edges: before any round runs, not after the election
    g = build_port_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected: 2 of 4 nodes"):
        place_dispersed(g, [4, 1, 3, 2])


def test_fresh_agent_memory_is_24_bits():
    # id width 4 (bound 15), port width 3 (degree 3): 2*4 + 4*3 + 4 flag bits
    s = AgentState(id=2, home_node=0, current_node=0)
    assert account_memory(s, lam=15, delta=3) == 24


def test_widths_are_exact_bit_counts():
    # every value below 5000 and both sides of every power of two up to
    # 2**70; floats round log2(2**49 + 1) down to 49, an exact count cannot
    values = set(range(5000))
    for k in range(71):
        values.update((2**k - 1, 2**k, 2**k + 1))
    for x in sorted(values):
        bits = x.bit_length()  # the least w with x < 2**w
        assert x < 2**bits and (x == 0 or x >= 2 ** (bits - 1))
        assert (id_bits(x), port_bits(x), _degree_bits(x)) == (max(bits, 1), bits + 1, bits), x


def test_scratch_and_table_accounting():
    s = AgentState(id=2, home_node=0, current_node=0)
    base = account_memory(s, lam=15, delta=3)
    s.phase_state["flag"] = True
    s.phase_state["p"] = 1
    assert account_memory(s, 15, 3, {"flag": "bool", "p": "port"}) == base + 1 + 3
    s.neighbor_list.append((0, 9))  # id width 4 + degree width 2
    s.counters[9] = 1
    assert account_memory(s, 15, 3, {"flag": "bool", "p": "port"}) == base + 4 + 2 * 6
    # deg 2, id 4, meet id + port = 7, an integer width as declared; a live
    # key the program never declared costs nothing
    s.phase_state.update(d=3, i=9, m=0, w=17, undeclared=5)
    widths = {"flag": "bool", "p": "port", "d": "deg", "i": "id", "m": "meet", "w": 5}
    assert account_memory(s, 15, 3, widths) == base + 4 + 2 * 6 + 2 + 4 + 7 + 5
    # a declared key that is not live costs nothing either
    del s.phase_state["m"]
    assert account_memory(s, 15, 3, widths) == base + 4 + 2 * 6 + 2 + 4 + 5
    # degenerate bounds: id width 1, port width 1 (sentinel only), degree width 0
    t = AgentState(id=0, home_node=0, current_node=0)
    t.phase_state.update(d=0, p=0)
    t.counters[0] = 1
    assert account_memory(t, 0, 0, {"d": "deg", "p": "port"}) == 2 + 4 + 4 + 0 + 1 + 1


def test_illegal_port_is_rejected():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    with pytest.raises(IllegalPort):
        run(g, cfg, AskForBadPort())


def test_illegal_port_names_phase_round_and_agent():
    g, _ = make_path(3)
    prog = Scripted({1: 0, 3: 0, 5: 0}, {(0, 5): (1, 1)})
    with pytest.raises(IllegalPort) as info:
        run(g, place_dispersed(g, [5, 1, 3]), prog)
    err = info.value
    assert (err.phase, err.round, err.agent) == ("scripted", 0, 5)
    assert str(err) == "agent 5 at a degree-1 node asked for port 1 in round 0"


def test_illegal_port_names_the_agent_after_earlier_moves():
    g, _ = make_path(3)
    cfg = place_dispersed(g, [5, 1, 3])  # sweep order: 1 (node 1), 3, 5 (node 0)
    prog = Scripted({1: 0, 3: 0, 5: 0}, {(0, 1): (0, 1), (0, 5): (1, 1)})
    with pytest.raises(IllegalPort, match="agent 5 at a degree-1 node asked for port 1 in round 0"):
        run(g, cfg, prog)
    assert [(rnd, agent) for rnd, agent, _ in prog.steps] == [(0, 1), (0, 3), (0, 5)]
    # agent 1 stepped earlier in the same sweep and has already moved
    assert cfg.states[1].current_node != 1


def test_early_mover_is_not_seen_until_next_round():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    # agent 0 steps first and moves onto agent 1's node in round 0
    prog = Scripted(
        {0: 0, 1: 0},
        {(0, 0): (0, 1), (1, 0): (0, NEVER), (0, 1): (None, 1), (1, 1): (None, NEVER)},
    )
    result = run(g, cfg, prog)
    assert prog.steps == [(0, 0, []), (0, 1, []), (1, 0, [1]), (1, 1, [0])]
    assert result.rounds == 2


def test_crowd_woken_agent_that_reschedules_skips_its_stale_round():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    # agent 1 sleeps until 6; agent 0's visit wakes it at 3, and it sleeps on to 9
    prog = Scripted(
        {0: 2, 1: 0},
        {
            (0, 1): (None, 6),
            (2, 0): (0, 3),
            (3, 0): (0, NEVER),
            (3, 1): (None, 9),
            (9, 1): (None, NEVER),
        },
    )
    result = run(g, cfg, prog)
    assert prog.steps == [(0, 1, []), (2, 0, []), (3, 0, [1]), (3, 1, [0]), (9, 1, [])]
    assert result.rounds == 10


def test_agent_scheduled_twice_for_a_round_steps_once():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    # agent 1 is due at 3 while a visitor crowds it, then asks for round 6
    # at round 3 and again at round 5, when the visitor comes back
    prog = Scripted(
        {0: 2, 1: 0},
        {
            (0, 1): (None, 3),
            (2, 0): (0, 3),
            (3, 0): (0, 4),
            (3, 1): (None, 6),
            (4, 0): (0, 5),
            (5, 0): (0, NEVER),
            (5, 1): (None, 6),
            (6, 1): (None, NEVER),
        },
    )
    run(g, cfg, prog)
    assert prog.steps == [
        (0, 1, []),
        (2, 0, []),
        (3, 0, [1]),
        (3, 1, [0]),
        (4, 0, []),
        (5, 0, [1]),
        (5, 1, [0]),
        (6, 1, []),
    ]


def test_lane_agent_crowded_by_a_visitor_steps_once():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    # agent 1 is on default wakes; agent 0 arrives at round 2 and sleeps,
    # so in round 3 agent 1 is both next-round due and crowded
    script = {(rnd, 1): (None, rnd + 1) for rnd in range(4)}
    script.update({(2, 0): (0, NEVER), (3, 0): (0, NEVER), (4, 1): (None, NEVER)})
    prog = Scripted({0: 2, 1: 0}, script)
    result = run(g, cfg, prog)
    assert prog.steps == [
        (0, 1, []),
        (1, 1, []),
        (2, 0, []),
        (2, 1, []),
        (3, 0, [1]),
        (3, 1, [0]),
        (4, 1, []),
    ]
    assert result.rounds == 5


def test_round_mixing_lane_calendar_and_crowd_steps_in_id_order():
    g, _ = make_path(4)
    cfg = place_dispersed(g, [1, 4, 2, 3])
    # round 3: agent 1 is due from the calendar, 3 from the lane, and 2
    # (a visitor that came to node 1 in round 2) and 4 (asleep) are crowded
    script = {(rnd, 3): (None, rnd + 1) for rnd in range(4)}
    script.update({
        (2, 2): (0, NEVER),
        (3, 1): (None, NEVER),
        (3, 2): (1, NEVER),
        (3, 4): (None, NEVER),
        (4, 3): (None, NEVER),
    })
    prog = Scripted({1: 3, 2: 2, 3: 0}, script)
    result = run(g, cfg, prog)
    assert prog.steps == [
        (0, 3, []),
        (1, 3, []),
        (2, 2, []),
        (2, 3, []),
        (3, 1, []),
        (3, 2, [4]),
        (3, 3, []),
        (3, 4, [2]),
        (4, 3, []),
    ]
    assert result.rounds == 5


def test_agents_leaving_the_lane_are_not_stepped_next_round():
    g, _ = make_path(3)
    cfg = place_dispersed(g, [0, 1, 2])
    # after round 2, agent 0 sleeps for good and agent 1 until round 5;
    # agent 2 stays on default wakes, so rounds 3 and 4 step the lane alone
    script = {(rnd, 2): (None, rnd + 1) for rnd in range(6)}
    script.update({(rnd, a): (None, rnd + 1) for rnd in range(2) for a in (0, 1)})
    script.update({(2, 0): (None, NEVER), (2, 1): (None, 5), (5, 1): (None, NEVER)})
    prog = Scripted({0: 0, 1: 0, 2: 0}, script)
    result = run(g, cfg, prog)
    assert [(rnd, agent) for rnd, agent, _ in prog.steps] == [
        (0, 0), (0, 1), (0, 2),
        (1, 0), (1, 1), (1, 2),
        (2, 0), (2, 1), (2, 2),
        (3, 2),
        (4, 2),
        (5, 1), (5, 2),
        (6, 2),
    ]
    assert result.rounds == 7


def test_lone_agent_on_default_wakes_ends_in_the_exact_round():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    script = {(rnd, 0): (None, rnd + 1) for rnd in range(9)}
    prog = Scripted({0: 0}, script)  # agent 1 sleeps at home from the start
    result = run(g, cfg, prog)
    assert prog.steps == [(rnd, 0, []) for rnd in range(10)]
    assert result.rounds == 10


def test_wake_booked_before_round_zero_waits_for_a_crowd():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    # on_start books agent 1 for round -3, a round that never comes: it is
    # stepped only when agent 0 crowds it in round 3
    prog = Scripted(
        {0: 2, 1: -3},
        {(2, 0): (0, 3), (3, 0): (0, NEVER), (3, 1): (None, NEVER)},
    )
    result = run(g, cfg, prog)
    assert prog.steps == [(2, 0, []), (3, 0, [1]), (3, 1, [0])]
    assert result.rounds == 4


def test_round_limit_raises():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    with pytest.raises(RoundLimitExceeded):
        run(g, cfg, NeverDone(), max_rounds=10)


def test_sleeping_forever_while_undone_raises():
    class Sleeper(NeverDone):
        def on_start(self, states, ctx):
            for s in states:
                s.wake_round = NEVER

    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    with pytest.raises(RoundLimitExceeded):
        run(g, cfg, Sleeper(), max_rounds=100)


def test_round_limits_name_the_phase_and_round():
    class Sleeper(NeverDone):
        def on_start(self, states, ctx):
            for s in states:
                s.wake_round = NEVER

    g, _ = make_path(2)
    sleeps_past_budget = Scripted({0: 10, 1: 10}, {})
    for program, max_rounds, rnd, text, traced in (
        (NeverDone(), 10, 10, "never-done: no termination within 10 rounds", False),
        (Sleeper(), 100, 0, "never-done: all agents asleep with 2 not done", False),
        (sleeps_past_budget, 5, 0, "scripted: no termination within 5 rounds", False),
        (sleeps_past_budget, 5, 0, "scripted: no termination within 5 rounds", True),
    ):
        with pytest.raises(RoundLimitExceeded) as info:
            run(g, place_dispersed(g, [0, 1]), program, max_rounds=max_rounds,
                record_trace=traced)
        err = info.value
        assert (err.phase, err.round, err.agent, str(err)) == (program.name, rnd, None, text)


def test_election_errand_cap_names_the_agent():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [4, 9])
    program = ElectionProgram()
    program.on_start(cfg.states, RunContext(lam=9, id_width=4, max_degree=1, degrees=(1, 1)))
    state = cfg.states[1]
    state.phase_state.update(trip_port=0, trip_rep=False, trip_done=False, retry=11)
    window = program._wlen
    view = StepView(round=3 * window, at_home=True, entered_port=None, degree_here=1, colocated=())
    with pytest.raises(RoundLimitExceeded) as info:
        program.step(state, view)
    err = info.value
    assert (err.phase, err.round, err.agent) == ("election", 3 * window, 9)
    assert str(err) == "agent 9: errand to port 0 unresolved for 12 windows"


def test_election_errand_below_the_cap_is_kept():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [4, 9])
    program = ElectionProgram()
    program.on_start(cfg.states, RunContext(lam=9, id_width=4, max_degree=1, degrees=(1, 1)))
    state = cfg.states[1]
    state.phase_state.update(trip_port=0, trip_rep=False, trip_done=False, retry=10)
    view = StepView(round=3 * program._wlen, at_home=True, entered_port=None, degree_here=1,
                    colocated=())
    program.step(state, view)  # the cap is lam + 2 = 11: no raise
    ps = state.phase_state
    assert (ps["retry"], ps["trip_port"], ps["trip_rep"], ps["trip_done"]) == (11, 0, False, False)


def test_simultaneous_moves_swap_without_meeting():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    program = CrossOver()
    comms = record_reads(program)
    run(g, cfg, program)
    assert all(s.phase_state["alone_abroad"] for s in cfg.states)
    assert all(s.at_home for s in cfg.states)
    assert comms == []  # nobody ever shared a node


def test_crowd_wakes_everyone_and_comms_are_symmetric():
    g, _ = make_path(3)
    cfg = place_dispersed(g, [4, 5, 6])
    program = Converge()
    comms = record_reads(program)
    run(g, cfg, program)
    # both path ends visited the middle at round 1: a three-agent crowd
    assert cfg.states[1].counters == {4: 1, 6: 1}
    assert cfg.states[0].counters == {5: 1, 6: 1}
    assert cfg.states[2].counters == {4: 1, 5: 1}
    seen = set(comms)
    assert seen and all((r, b, a) in seen for r, a, b in seen)


def test_runs_are_deterministic():
    g, _ = make_complete_bipartite(2, 2)
    targets = {7: 0, 3: 0, 9: 0, 5: 0}

    def one_run():
        cfg = place_dispersed(g, [7, 3, 9, 5], lam=15)
        prog = MeetingWindowProgram(targets)
        res = run(g, cfg, prog, record_trace=True)
        return res.trace, res.rounds, dict(res.peak_bits), prog.meetings

    first, second = one_run(), one_run()
    assert first == second


# Each case returns a fresh (graph, config, program) on every call.


def meeting_window_case():
    g, _ = make_complete_bipartite(2, 2)
    targets = {7: 0, 3: 0, 9: 0, 5: 0}
    return g, place_dispersed(g, [7, 3, 9, 5], lam=15), MeetingWindowProgram(targets)


def small_bipartite():
    g, _ = make_random_connected_bipartite(4, 5, edge_prob=0.4, seed=2)
    return g, place_dispersed(g, random.Random(2).sample(range(32), 9))


def election_case():
    g, cfg = small_bipartite()
    return g, cfg, ElectionProgram()


def converge_case():
    g, _ = make_path(3)
    return g, place_dispersed(g, [4, 5, 6]), Converge()


def elected():
    """The small bipartite instance after election and downcast."""
    g, cfg = small_bipartite()
    return g, cfg, elect_leader_and_tree(g, cfg).tree


def neighbor_scan_case():
    g, cfg, _ = elected()
    return g, cfg, NeighborScanProgram(0)


def wedge_count_case():
    g, cfg, _ = elected()
    run(g, cfg, NeighborScanProgram(0))
    return g, cfg, WedgeCountProgram(0)


def broadcast_case():
    g, cfg, _ = elected()
    return g, cfg, BroadcastProgram(5, value_width=3)


def convergecast_case():
    g, cfg, tree = elected()
    kids = {a: len(c) for a, c in tree.children_map(g).items()}
    values = {s.id: s.id for s in cfg.states}
    return g, cfg, ConvergecastProgram(kids, values, value_width=8)


def bad_port_case():
    """Agent 1 moves, then agent 5 asks for a port its node lacks."""
    g, _ = make_path(3)
    prog = Scripted({1: 0, 3: 0, 5: 0}, {(0, 1): (0, 1), (0, 5): (1, 1)})
    return g, place_dispersed(g, [5, 1, 3]), prog


# the protocol modules' engine seam: each calls its own module-level ``run``
AUDITED_MODULES = (election_module, known_leader_module, treecast_module, butterfly_module)

# what an engine leaves of an agent, less its bookkeeping (wake_round, dirty)
COMPARED_FIELDS = [
    f.name for f in dataclasses.fields(AgentState) if f.name not in ("wake_round", "dirty")
]


def summary(result, config):
    """What two engines must agree on after one call: rounds, peaks, the
    trace and every agent's final state."""
    finals = [{name: getattr(s, name) for name in COMPARED_FIELDS} for s in config.states]
    return result.rounds, result.peak_bits, result.trace, finals


class ReferenceCheck:
    """Stands in for ``run``: runs the reference engine on deep copies of
    ``config`` and ``program``, then ``run`` on the originals, asserts that
    the two agree on the call's summary and on the program's own records,
    and returns ``run``'s result."""

    def __init__(self):
        self.phases = []  # the program name of every call checked

    def __call__(self, graph, config, program, **kwargs):
        self.phases.append(program.name)
        ref_config, ref_program = copy.deepcopy((config, program))
        expected = reference_run(graph, ref_config, ref_program, **kwargs)
        result = run(graph, config, program, **kwargs)
        assert summary(result, config) == summary(expected, ref_config), program.name
        assert vars(program) == vars(ref_program), program.name
        return result


@pytest.mark.parametrize(
    "case",
    [
        meeting_window_case,
        election_case,
        converge_case,
        neighbor_scan_case,
        wedge_count_case,
        broadcast_case,
        convergecast_case,
        bad_port_case,
    ],
    ids=[
        "meeting_window",
        "election",
        "converge",
        "neighbor_scan",
        "wedge_count",
        "broadcast",
        "convergecast",
        "bad_port",
    ],
)
def test_run_matches_the_reference(case):
    """One engine call of each program, run by ``run`` and by the reference
    engine, gives the same summary, the same reads of co-located agents and
    the same meetings.  Each case is built twice: the read log is a closure
    on the program, which a deep copy would share.  An ``IllegalPort``
    agrees on its type, phase, round and agent only, as ``run`` raises
    mid-sweep."""
    def one_run(engine):
        g, cfg, program = case()
        comms = record_reads(program)
        try:
            res = engine(g, cfg, program, record_trace=True)
        except IllegalPort as err:
            return type(err), err.phase, err.round, err.agent
        return summary(res, cfg), comms, getattr(program, "meetings", None)

    expected = one_run(reference_run)
    assert one_run(run) == expected
    if case is bad_port_case:
        assert expected == (IllegalPort, "scripted", 0, 5)
    else:
        assert expected[0][0] > 0


@st.composite
def pipeline_inputs(draw):
    """A random connected bipartite graph with 1-6 nodes per side, distinct
    random ids, and an id bound of the maximum id, 2**16 or 2**64."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    g, _ = make_random_connected_bipartite(
        a, b, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**31))
    )
    ids = draw(st.lists(st.integers(0, 4 * (a + b)), min_size=a + b, max_size=a + b, unique=True))
    lam = draw(st.sampled_from([None, 2**16, 2**64]))
    return g, ids, lam


@settings(max_examples=60, deadline=None)
@given(pipeline_inputs())
def test_pipelines_match_the_reference(case):
    """Every engine call of the whole pipeline agrees with the reference
    engine, and the trace is written in (round, agent) order."""
    g, ids, lam = case
    check = ReferenceCheck()
    with pytest.MonkeyPatch.context() as mp:
        for module in AUDITED_MODULES:
            mp.setattr(module, "run", check)
        res = butterfly_module.count_butterflies(
            g, place_dispersed(g, ids, lam=lam), record_trace=True
        )
    assert len(check.phases) == 8
    assert res.trace == sorted(res.trace)


def test_colocated_snapshots_are_round_start_copies():
    g, _ = make_complete_bipartite(1, 3)  # hub node 0, leaves 1-3
    ids = [9, 4, 7, 2]
    prog = RoundStartIsolation()
    run(g, place_dispersed(g, ids), prog)
    for agent in ids:
        assert prog.seen[(0, agent)] == []
        for rnd in (1, 2, 3):
            expected = [
                (
                    other,
                    {"tag": other + rnd, "extra": rnd - 1},
                    ((0, other),) + tuple((k, other) for k in range(rnd)),
                    other + rnd,
                )
                for other in sorted(ids)
                if other != agent
            ]
            assert prog.seen[(rnd, agent)] == expected, (rnd, agent)
    assert max(rnd for rnd, _ in prog.seen) == 3


@pytest.mark.parametrize(
    "published",
    [None, frozenset({"tag", "neighbor_list"}), frozenset({"tag"}), frozenset({"neighbor_list"}),
     frozenset()],
    ids=["default", "both", "scratch", "table", "nothing"],
)
def test_pair_views_are_round_start_copies_of_what_is_published(published):
    g, _ = make_path(2)
    prog = PairIsolation(visitor=3, published=published)
    run(g, place_dispersed(g, [3, 8]), prog)  # agent 3 visits agent 8's node
    shows_scratch = published is None or "tag" in published
    shows_table = published is None or "neighbor_list" in published

    def round_start(agent, at_home):
        return (
            agent,
            at_home,
            {"tag": agent} if shows_scratch else {},
            ((0, agent),) if shows_table else (),
            agent,
        )

    assert prog.seen[0, 3] == prog.seen[0, 8] == []
    # agent 3 steps first and rewrites everything it shows; 8 still sees
    # the round-start values
    assert prog.seen[1, 3] == [round_start(8, True)]
    assert prog.seen[1, 8] == [round_start(3, False)]
    if not shows_scratch:  # one shared empty mapping, read-only
        (host,), (visitor,) = prog.views[1, 3], prog.views[1, 8]
        assert host.scratch is visitor.scratch
        with pytest.raises(TypeError):
            host.scratch["tag"] = 0


def test_crowds_list_agents_in_id_order_as_they_arrive_and_leave():
    g, _ = make_complete_bipartite(1, 3)  # hub node 0, leaf k behind hub port k - 1
    ids = [9, 4, 2, 7]  # the hub's agent has the highest id
    # 4 arrives in round 0, 7 in round 1, 2 in round 2; then 4, 7 and 2
    # leave in rounds 3, 4 and 5, each returning to sleep at home
    prog = Scripted(
        {4: 0, 7: 1, 2: 2},
        {
            (0, 4): (0, 1), (1, 4): (None, 2), (2, 4): (None, 3), (3, 4): (0, 4),
            (1, 7): (0, 2), (2, 7): (None, 3), (3, 7): (None, 4), (4, 7): (2, 5),
            (2, 2): (0, 3), (3, 2): (None, 4), (4, 2): (None, 5), (5, 2): (1, 6),
        },
    )
    cfg = place_dispersed(g, ids)
    run(g, cfg, prog)
    crowds = {1: {4, 9}, 2: {4, 7, 9}, 3: {2, 4, 7, 9}, 4: {2, 7, 9}, 5: {2, 9}}
    expected = [
        (rnd, agent, sorted(crowd - {agent}))
        for rnd, crowd in sorted(crowds.items())
        for agent in sorted(crowd)
    ]
    assert [step for step in prog.steps if step[2]] == expected
    assert all(s.at_home for s in cfg.states)


def test_dirty_gated_peaks_match_a_full_recount(monkeypatch):
    """The engine accounts memory only on steps that set ``dirty``; the
    reference engine recounts every agent with ``account_memory`` after
    ``on_start`` and after every step.  On A8 and K34 every engine call of
    the pipeline must agree with it, peaks included, so no program changed
    state without saying so."""
    check = ReferenceCheck()
    for module in AUDITED_MODULES:
        monkeypatch.setattr(module, "run", check)
    for instance in ("A8", "K34"):
        g, ids = audit_instance(instance)
        check.phases.clear()
        butterfly_module.count_butterflies(g, place_dispersed(g, ids))
        assert check.phases == [
            "election",
            "broadcast-down",
            "neighbor-scan",
            "wedge-count",
            "convergecast",
            "broadcast-down",
            "neighbor-scan",
            "wedge-count",
        ], instance


def test_timeline_settings_reach_every_phase(monkeypatch):
    """The round budget and the trace switch an entry point is given reach
    every one of its engine calls, and ``fold_and_halve`` adds exactly its
    two phases to the timeline it is handed."""
    g, _ = make_complete_bipartite(3, 3)
    ids = [4, 2, 7, 1, 5, 3]
    knobs = {"max_rounds": 10_000, "record_trace": True}
    seen = []

    def spy(graph, config, program, **kwargs):
        seen.append((program.name, {k: kwargs.get(k) for k in knobs}))
        return run(graph, config, program, **kwargs)

    for module in (election_module, known_leader_module, treecast_module, butterfly_module):
        monkeypatch.setattr(module, "run", spy)
    for entry, calls in (
        (butterfly_module.count_butterflies, 8),
        (elect_leader_and_tree, 2),
        (lambda graph, config, **kw: known_leader_tree(graph, config, 1, **kw), 2),
    ):
        seen.clear()
        entry(g, place_dispersed(g, ids), **knobs)
        assert len(seen) == calls
        for name, got in seen:
            assert got == knobs, name

    config = place_dispersed(g, ids)
    elect_leader_and_tree(g, config)
    timeline = Timeline(**knobs)
    seen.clear()
    values = {s.id: 6 for s in config.states}
    total = butterfly_module.fold_and_halve(g, config, values, value_width=16, timeline=timeline)
    assert total == 18
    assert list(timeline.rounds_per_phase) == ["total_fold", "total_push"]
    assert seen == [("convergecast", knobs), ("broadcast-down", knobs)]
    assert len(timeline.trace) == timeline.rounds * g.node_count


class StepAudit:
    """Stands in for ``run``: wraps the program's ``step`` to check each
    step's ``dirty`` mark against whether the step changed the live scratch
    keys or a table length."""

    def __init__(self):
        self.steps = collections.Counter()  # (program name, dirty) -> steps
        self.wrong_marks = []  # (program name, round, agent id, dirty, changed)

    def __call__(self, graph, config, program, **kwargs):
        def shape(state):
            return sorted(state.phase_state), len(state.neighbor_list), len(state.counters)

        step = program.step

        def audited_step(state, view):
            before = shape(state)
            port = step(state, view)
            changed = shape(state) != before
            self.steps[program.name, state.dirty] += 1
            if state.dirty != changed:
                self.wrong_marks.append((program.name, view.round, state.id, state.dirty, changed))
            return port

        program.step = audited_step
        return run(graph, config, program, **kwargs)


def audit_instance(name):
    if name == "A8":
        g, _ = make_random_connected_bipartite(9, 11, edge_prob=0.4, seed=5)
        return g, random.Random(5).sample(range(64), 20)
    g, _ = make_complete_bipartite(3, 4)
    return g, [9, 2, 12, 5, 0, 7, 3]


def meeting_program(ids):
    """Every other agent plays two windows toward port 0; the rest host."""
    targets = {aid: 0 if k % 2 == 0 else None for k, aid in enumerate(ids)}
    return MeetingWindowProgram(targets, windows=2)


@pytest.mark.parametrize("instance", ["A8", "K34"])
def test_dirty_marks_are_exact(instance, monkeypatch):
    """Every step of every program marks ``dirty`` exactly when it changed
    the live scratch keys or a table length: no value-only write is
    marked (a wasted recount) and no shape change goes unmarked (a missed
    peak)."""
    g, ids = audit_instance(instance)
    audit = StepAudit()
    for module in AUDITED_MODULES:
        monkeypatch.setattr(module, "run", audit)
    butterfly_module.count_butterflies(g, place_dispersed(g, ids))
    known_leader_tree(g, place_dispersed(g, ids), leader_id=ids[3])
    cfg = place_dispersed(g, ids)
    audit(g, cfg, meeting_program(ids))
    assert audit.wrong_marks == []
    stepped = {name for name, _ in audit.steps}
    assert stepped == {
        "election", "broadcast-down", "neighbor-scan", "wedge-count",
        "convergecast", "known-leader-tree", "meeting-window",
    }
    # value-only steps exist in both the election and the wedge count
    assert audit.steps["election", False] > audit.steps["election", True] > 0
    assert audit.steps["wedge-count", False] > 0


class WidthAudit:
    """Stands in for ``run``: after ``on_start`` and after every step,
    checks that each live scratch key is declared and that each int value
    (bools included; tuples are skipped) fits its declared width."""

    def __init__(self):
        self.checked = set()  # program names
        self.problems = []  # (program name, round or None at start, agent id, key, value)

    def __call__(self, graph, config, program, **kwargs):
        on_start, step = program.on_start, program.step
        widths = {}

        def check(state, rnd):
            for key, value in state.phase_state.items():
                width = widths.get(key)
                if width is None or isinstance(value, int) and value.bit_length() > width:
                    self.problems.append((program.name, rnd, state.id, key, value))

        def audited_on_start(states, ctx):
            on_start(states, ctx)
            # resolved after on_start, where programs may pin exact widths
            widths.update(
                _resolve_widths(config.lam, graph.max_degree, program.scratch_widths).scratch
            )
            for state in states:
                check(state, None)

        def audited_step(state, view):
            port = step(state, view)
            check(state, view.round)
            return port

        program.on_start, program.step = audited_on_start, audited_step
        self.checked.add(program.name)
        return run(graph, config, program, **kwargs)


@pytest.mark.parametrize("instance", ["A8", "K34"])
def test_live_scratch_is_declared_and_fits_its_width(instance, monkeypatch):
    """The engine charges nothing for a live key no program declared and
    trusts the declared width of the rest, so every program must declare
    each key it keeps live and keep each value within its width."""
    g, ids = audit_instance(instance)
    audit = WidthAudit()
    for module in AUDITED_MODULES:
        monkeypatch.setattr(module, "run", audit)
    butterfly_module.count_butterflies(g, place_dispersed(g, ids))
    known_leader_tree(g, place_dispersed(g, ids), leader_id=ids[3])
    audit(g, place_dispersed(g, ids), meeting_program(ids))
    assert audit.problems == []
    assert audit.checked == {
        "election", "broadcast-down", "neighbor-scan", "wedge-count",
        "convergecast", "known-leader-tree", "meeting-window",
    }


@pytest.mark.parametrize("instance", ["A8", "K34"])
def test_dirty_gated_peaks_match_a_full_recount_beyond_the_pipeline(instance, monkeypatch):
    """The reference comparison of the pipeline, for the known-leader tree
    (with its downcast) and the meeting windows."""
    g, ids = audit_instance(instance)
    check = ReferenceCheck()
    for module in AUDITED_MODULES:
        monkeypatch.setattr(module, "run", check)
    known_leader_tree(g, place_dispersed(g, ids), leader_id=min(ids))
    cfg = place_dispersed(g, ids)
    check(g, cfg, meeting_program(ids))
    assert check.phases == ["known-leader-tree", "broadcast-down", "meeting-window"]


@pytest.mark.parametrize("instance", ["A8", "K34", "K12,12"])
def test_counting_tables_stay_within_their_length_bounds(instance, monkeypatch):
    """After every step of both sweeps, an agent's neighbor table holds at
    most deg(home) entries and its tally at most min(Δ(Δ-1), |own side| - 1):
    one entry per edge, and one per same-side node two hops away."""
    if instance == "K12,12":
        g, _ = make_complete_bipartite(12, 12)
        ids = random.Random(12).sample(range(48), 24)
    else:
        g, ids = audit_instance(instance)
    color = oracle_coloring(g)
    delta = g.max_degree
    longest = collections.Counter()  # table name -> longest length seen
    over = []  # (program name, agent id, table name, length, bound)

    def audited_run(graph, config, program, **kwargs):
        if isinstance(program, (NeighborScanProgram, WedgeCountProgram)):
            step = program.step

            def checked_step(state, view):
                port = step(state, view)
                side = color.count(color[state.home_node])
                for table, bound in (
                    ("neighbor_list", g.degree(state.home_node)),
                    ("counters", min(delta * (delta - 1), side - 1)),
                ):
                    length = len(getattr(state, table))
                    longest[table] = max(longest[table], length)
                    if length > bound:
                        over.append((program.name, state.id, table, length, bound))
                return port

            program.step = checked_step
        return run(graph, config, program, **kwargs)

    monkeypatch.setattr(butterfly_module, "run", audited_run)
    butterfly_module.count_butterflies(g, place_dispersed(g, ids))
    assert over == []
    if instance == "K12,12":  # every other node of a side is two hops away
        assert longest == {"neighbor_list": 12, "counters": 11}


class RecordingScratch(collections.abc.Mapping):
    """A snapshot's scratch that logs every key read into ``reads``."""

    def __init__(self, data, reads):
        self._data = data
        self._reads = reads

    def __getitem__(self, key):
        self._reads.add(key)
        return self._data[key]

    def __contains__(self, key):
        self._reads.add(key)
        return key in self._data

    def __iter__(self):
        self._reads.update(self._data)
        return iter(self._data)

    def __len__(self):
        self._reads.update(self._data)
        return len(self._data)


class RecordingTable(collections.abc.Sequence):
    """A snapshot's neighbor table that logs ``"neighbor_list"`` when read."""

    def __init__(self, data, reads):
        self._data = data
        self._reads = reads

    def __getitem__(self, index):
        self._reads.add("neighbor_list")
        return self._data[index]

    def __iter__(self):
        self._reads.add("neighbor_list")
        return iter(self._data)

    def __len__(self):
        self._reads.add("neighbor_list")
        return len(self._data)


class PublishAudit:
    """Stands in for ``run``: has the engine show each program everything,
    then rebuilds every view the program's ``step`` gets with recording
    scratch and tables, to log what it reads of other agents against what
    it publishes."""

    def __init__(self):
        self.reads = collections.defaultdict(set)  # program name -> keys read
        self.published = {}  # program name -> declared ``published``
        self.widths = collections.defaultdict(set)  # program name -> declared scratch keys

    def __call__(self, graph, config, program, **kwargs):
        name = program.name
        self.published[name] = program.published
        reads = self.reads[name]
        step = program.step

        def audited_step(state, view):
            colocated = tuple(
                Snapshot(
                    s.id, s.at_home, s.entered_port, s.partition, s.child, s.treelabel,
                    RecordingTable(s.neighbor_list, reads), RecordingScratch(s.scratch, reads),
                )
                for s in view.colocated
            )
            return step(state, StepView(
                view.round, view.at_home, view.entered_port, view.degree_here, colocated
            ))

        program.step = audited_step
        program.published = None  # full views, so every read can be logged
        result = run(graph, config, program, **kwargs)
        self.widths[name].update(program.scratch_widths)
        return result


@pytest.mark.parametrize("instance", ["A8", "K34"])
def test_programs_read_only_what_they_publish(instance, monkeypatch):
    """Every key a program reads of a co-located agent is one it publishes,
    and it reads each one somewhere; only the wedge count reads another
    agent's neighbor table; every published scratch key has a width."""
    g, ids = audit_instance(instance)
    audit = PublishAudit()
    for module in AUDITED_MODULES:
        monkeypatch.setattr(module, "run", audit)
    butterfly_module.count_butterflies(g, place_dispersed(g, ids))
    known_leader_tree(g, place_dispersed(g, ids), leader_id=ids[3])
    cfg = place_dispersed(g, ids)
    audit(g, cfg, meeting_program(ids))
    assert set(audit.published) == {
        "election", "broadcast-down", "neighbor-scan", "wedge-count",
        "convergecast", "known-leader-tree", "meeting-window",
    }
    for name, published in audit.published.items():
        assert audit.reads[name] == published, name
        assert published - {"neighbor_list"} <= audit.widths[name], name
    assert [name for name, keys in audit.reads.items() if "neighbor_list" in keys] == [
        "wedge-count"
    ]


def test_trace_offset_and_jsonl(tmp_path):
    trace = [(0, 7, 0, "move", 1), (1, 7, 2, "stay", None)]
    shifted = offset_trace(trace, 10)
    assert shifted == [(10, 7, 0, "move", 1), (11, 7, 2, "stay", None)]
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(str(path), shifted)
    rows = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert rows[0] == {"round": 10, "agent": 7, "node": 0, "action": "move", "port": 1}
    assert len(rows) == 2
