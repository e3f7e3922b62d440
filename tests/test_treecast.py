"""Convergecast and broadcast over hand-built spanning trees."""

import re

import pytest

from butterfly_agents.graphs import make_complete_bipartite, make_path
from butterfly_agents.oracle import check_spanning_tree
from butterfly_agents.protocols import treecast
from butterfly_agents.protocols.treecast import (
    TreeEdgeSet,
    broadcast_down,
    convergecast,
    tree_from_states,
)
from butterfly_agents.runtime import AgentState, Timeline, place_dispersed


def line_tree():
    """Path on 4 nodes, rooted at node 0; every parent sits through port 0."""
    g, _ = make_path(4)
    tree = TreeEdgeSet(
        root_id=3,
        home_node={3: 0, 7: 1, 1: 2, 9: 3},
        parent_port={3: None, 7: 0, 1: 0, 9: 0},
    )
    return g, tree


def place_on(g, tree):
    """One agent per node, each at its ``home_node``, holding ``tree``'s parent port."""
    cfg = place_dispersed(g, sorted(tree.home_node, key=tree.home_node.get))
    for s in cfg.states:
        s.parent = tree.parent_port[s.id]
    return cfg


def test_tree_edge_set_views():
    g, tree = line_tree()
    assert tree.children_map(g) == {3: [7], 7: [1], 1: [9], 9: []}
    check = check_spanning_tree(g, tree.node_parent_ports(), root=0)
    assert check.ok and check.height == 3
    assert {a: check.depth[node] for a, node in tree.home_node.items()} == {3: 0, 7: 1, 1: 2, 9: 3}


def test_tree_from_states_requires_single_root():
    states = [
        AgentState(id=1, home_node=0, current_node=0, parent=None),
        AgentState(id=2, home_node=1, current_node=1, parent=None),
    ]
    with pytest.raises(ValueError):
        tree_from_states(states)


def test_convergecast_sums_along_a_line():
    g, tree = line_tree()
    cfg = place_on(g, tree)
    timeline = Timeline()
    total = convergecast(g, cfg, {3: 3, 7: 7, 1: 1, 9: 9}, 8, timeline, "fold")
    assert total == 20
    assert timeline.rounds_per_phase == {"fold": 2 * 3}  # two rounds per level of height 3


def test_convergecast_on_a_star():
    g, _ = make_complete_bipartite(1, 5)
    ids = [2, 4, 6, 8, 10, 12]
    tree = TreeEdgeSet(
        root_id=2,
        home_node=dict(zip(ids, range(6))),
        parent_port={2: None, 4: 0, 6: 0, 8: 0, 10: 0, 12: 0},
    )
    cfg = place_on(g, tree)
    timeline = Timeline()
    total = convergecast(g, cfg, {i: i for i in ids}, 8, timeline, "fold")
    assert total == 42
    assert timeline.rounds_per_phase == {"fold": 2 * 1}


def test_broadcast_reaches_everyone():
    g, tree = line_tree()
    cfg = place_on(g, tree)
    timeline = Timeline()
    received = broadcast_down(g, cfg, ("n", 4), 16, timeline, "push")
    assert received == {3: ("n", 4), 7: ("n", 4), 1: ("n", 4), 9: ("n", 4)}
    assert timeline.rounds_per_phase == {"push": 2 * 3}
    assert all(s.at_home for s in cfg.states)


def test_broadcast_then_convergecast_reuses_states():
    g, tree = line_tree()
    cfg = place_on(g, tree)
    timeline = Timeline()
    received = broadcast_down(g, cfg, 5, 8, timeline, "push")
    assert set(received.values()) == {5}
    total = convergecast(g, cfg, received, 8, timeline, "fold")
    assert total == 20


def test_a_phase_inherits_no_scratch():
    """A stale scratch key or tally entry left by an earlier phase changes
    neither the answer, nor the rounds, nor the peak memory of the next."""
    g, tree = line_tree()
    fresh = Timeline()
    broadcast_down(g, place_on(g, tree), 5, 8, fresh, "push")
    stale = place_on(g, tree)
    stale.states[2].phase_state["received"] = 99  # agent 1
    stale.states[1].counters[3] = 4  # agent 7
    timeline = Timeline()
    received = broadcast_down(g, stale, 5, 8, timeline, "push")
    assert received == {3: 5, 7: 5, 1: 5, 9: 5}
    assert (timeline.rounds, timeline.peak) == (6, fresh.peak)
    assert fresh.rounds == 6


def rootless(g, tree):
    """The line's agents with the root pointing at its child as well."""
    cfg = place_on(g, tree)
    cfg.states[0].parent = 0
    return cfg


@pytest.mark.parametrize("wave", [convergecast, broadcast_down])
@pytest.mark.parametrize("place, roots", [
    (lambda g, tree: place_dispersed(g, [3, 7, 1, 9]), "[1, 3, 7, 9]"),
    (rootless, "[]"),
], ids=["every-agent", "no-agent"])
def test_a_wave_needs_the_agents_to_hold_one_root(monkeypatch, wave, place, roots):
    """Agents that do not hold exactly one root stop a wave with a typed
    error before any round.  Without it, a broadcast over rootless agents
    would oscillate until the round budget ran out, and one over dispersed
    agents would hand every agent the value unread."""
    def no_run(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(treecast, "run", no_run)
    g, tree = line_tree()
    timeline = Timeline()
    with pytest.raises(ValueError, match=re.escape(f"expected one root, found {roots}")):
        wave(g, place(g, tree), {3: 3, 7: 7, 1: 1, 9: 9}, 8, timeline, "wave")
    assert (timeline.rounds, timeline.rounds_per_phase) == (0, {})
