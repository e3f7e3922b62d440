"""Engine semantics: scheduling, movement, memory accounting, determinism."""

import json
import random

import pytest

from butterfly_agents.graphs import (
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
)
from butterfly_agents.protocols.election import ElectionProgram
from butterfly_agents.protocols.meeting import MeetingWindowProgram
from butterfly_agents.runtime import (
    NEVER,
    AgentProgram,
    AgentState,
    IllegalPort,
    RoundLimitExceeded,
    account_memory,
    offset_trace,
    place_dispersed,
    run,
    write_trace_jsonl,
)


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


def test_place_dispersed_shape():
    g, _ = make_path(3)
    cfg = place_dispersed(g, [5, 1, 3])
    assert cfg.lam == 5
    assert [(s.id, s.home_node) for s in cfg.states] == [(5, 0), (1, 1), (3, 2)]


def test_place_dispersed_rejects_duplicates():
    g, _ = make_path(3)
    with pytest.raises(ValueError):
        place_dispersed(g, [1, 2, 1])


def test_place_dispersed_rejects_wrong_count():
    g, _ = make_path(3)
    with pytest.raises(ValueError):
        place_dispersed(g, [1, 2])


def test_place_dispersed_rejects_small_lam():
    g, _ = make_path(2)
    with pytest.raises(ValueError):
        place_dispersed(g, [1, 9], lam=3)


def test_fresh_agent_memory_is_24_bits():
    # id width 4 (bound 15), port width 3 (degree 3): 2*4 + 4*3 + 4 flag bits
    s = AgentState(id=2, home_node=0, current_node=0)
    assert account_memory(s, lam=15, delta=3) == 24


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


def test_simultaneous_moves_swap_without_meeting():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [0, 1])
    result = run(g, cfg, CrossOver(), record_comms=True)
    assert all(s.phase_state["alone_abroad"] for s in cfg.states)
    assert all(s.at_home for s in cfg.states)
    assert result.comms == []  # nobody ever shared a node


def test_crowd_wakes_everyone_and_comms_are_symmetric():
    g, _ = make_path(3)
    cfg = place_dispersed(g, [4, 5, 6])
    result = run(g, cfg, Converge(), record_comms=True)
    # both path ends visited the middle at round 1: a three-agent crowd
    assert cfg.states[1].counters == {4: 1, 6: 1}
    assert cfg.states[0].counters == {5: 1, 6: 1}
    assert cfg.states[2].counters == {4: 1, 5: 1}
    seen = set(result.comms)
    assert seen and all((r, b, a) in seen for r, a, b in seen)


def test_runs_are_deterministic():
    g, _ = make_complete_bipartite(2, 2)
    targets = {7: 0, 3: 0, 9: 0, 5: 0}

    def one_run():
        cfg = place_dispersed(g, [7, 3, 9, 5], lam=15)
        prog = MeetingWindowProgram(15, targets)
        res = run(g, cfg, prog, record_trace=True)
        return res.trace, res.rounds, dict(res.peak_bits), prog.meetings

    first, second = one_run(), one_run()
    assert first == second


def meeting_window_case():
    g, _ = make_complete_bipartite(2, 2)
    targets = {7: 0, 3: 0, 9: 0, 5: 0}
    return g, [7, 3, 9, 5], 15, lambda: MeetingWindowProgram(15, targets)


def election_case():
    g, _ = make_random_connected_bipartite(4, 5, edge_prob=0.4, seed=2)
    return g, random.Random(2).sample(range(32), 9), None, ElectionProgram


def converge_case():
    g, _ = make_path(3)
    return g, [4, 5, 6], None, Converge


@pytest.mark.parametrize(
    "case",
    [meeting_window_case, election_case, converge_case],
    ids=["meeting_window", "election", "converge"],
)
def test_lazy_and_always_step_agree(case):
    g, ids, lam, make_program = case()

    def one_run(always_step):
        cfg = place_dispersed(g, ids, lam=lam)
        res = run(
            g,
            cfg,
            make_program(),
            record_trace=True,
            record_comms=True,
            always_step=always_step,
        )
        finals = [(s.id, s.current_node) for s in cfg.states]
        return res.rounds, dict(res.peak_bits), finals, sorted(res.trace), res.comms

    lazy, always = one_run(False), one_run(True)
    assert lazy == always
    assert lazy[0] > 0


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


def test_trace_offset_and_jsonl(tmp_path):
    trace = [(0, 7, 0, "move", 1), (1, 7, 2, "stay", None)]
    shifted = offset_trace(trace, 10)
    assert shifted == [(10, 7, 0, "move", 1), (11, 7, 2, "stay", None)]
    path = tmp_path / "t.jsonl"
    write_trace_jsonl(str(path), shifted)
    rows = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert rows[0] == {"round": 10, "agent": 7, "node": 0, "action": "move", "port": 1}
    assert len(rows) == 2
