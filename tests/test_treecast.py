"""Convergecast and broadcast over hand-built spanning trees."""

import pytest

from butterfly_agents.graphs import make_complete_bipartite, make_path
from butterfly_agents.oracle import check_spanning_tree
from butterfly_agents.protocols.treecast import (
    TreeEdgeSet,
    broadcast_down,
    convergecast,
    tree_from_states,
)
from butterfly_agents.runtime import AgentState, place_dispersed


def line_tree():
    """Path on 4 nodes, rooted at node 0; every parent sits through port 0."""
    g, _ = make_path(4)
    tree = TreeEdgeSet(
        root_id=3,
        home_node={3: 0, 7: 1, 1: 2, 9: 3},
        parent_port={3: None, 7: 0, 1: 0, 9: 0},
    )
    return g, tree


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
    cfg = place_dispersed(g, [3, 7, 1, 9])
    total, result = convergecast(g, cfg, tree, {3: 3, 7: 7, 1: 1, 9: 9}, value_width=8)
    assert total == 20
    assert result.rounds <= 2 * 4  # two rounds per level of height 3, plus slack


def test_convergecast_on_a_star():
    g, _ = make_complete_bipartite(1, 5)
    ids = [2, 4, 6, 8, 10, 12]
    tree = TreeEdgeSet(
        root_id=2,
        home_node=dict(zip(ids, range(6))),
        parent_port={2: None, 4: 0, 6: 0, 8: 0, 10: 0, 12: 0},
    )
    cfg = place_dispersed(g, ids)
    total, result = convergecast(g, cfg, tree, {i: i for i in ids}, value_width=8)
    assert total == 42
    assert result.rounds <= 4


def test_broadcast_reaches_everyone():
    g, tree = line_tree()
    cfg = place_dispersed(g, [3, 7, 1, 9])
    received, result = broadcast_down(g, cfg, tree, ("n", 4), value_width=16)
    assert received == {3: ("n", 4), 7: ("n", 4), 1: ("n", 4), 9: ("n", 4)}
    assert result.rounds <= 2 * 4
    assert all(s.at_home for s in cfg.states)


def test_broadcast_then_convergecast_reuses_states():
    g, tree = line_tree()
    cfg = place_dispersed(g, [3, 7, 1, 9])
    received, _ = broadcast_down(g, cfg, tree, 5, value_width=8)
    assert set(received.values()) == {5}
    total, _ = convergecast(g, cfg, tree, received, value_width=8)
    assert total == 20


def test_a_phase_inherits_no_scratch():
    """A stale scratch key or tally entry left by an earlier phase changes
    neither the answer, nor the rounds, nor the peak memory of the next."""
    g, tree = line_tree()
    _, fresh = broadcast_down(g, place_dispersed(g, [3, 7, 1, 9]), tree, 5, value_width=8)
    stale = place_dispersed(g, [3, 7, 1, 9])
    stale.states[2].phase_state["received"] = 99  # agent 1
    stale.states[1].counters[3] = 4  # agent 7
    received, result = broadcast_down(g, stale, tree, 5, value_width=8)
    assert received == {3: 5, 7: 5, 1: 5, 9: 5}
    assert (result.rounds, result.peak_bits) == (6, fresh.peak_bits)
    assert fresh.rounds == 6
