"""Tree growth from a designated agent, with aggregate delivery."""

import random

import pytest

from butterfly_agents.graphs import (
    build_port_graph,
    make_clique,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
)
from butterfly_agents.oracle import check_spanning_tree, oracle_coloring
from butterfly_agents.protocols.election import ElectionProgram, elect_leader_and_tree
from butterfly_agents.protocols.known_leader import (
    AggregatePayload,
    KnownLeaderProgram,
    TreeResult,
    join_tree,
    known_leader_tree,
)
from butterfly_agents.protocols.treecast import tree_from_states
from butterfly_agents.runtime import AgentState, place_dispersed, run


def test_square_with_leader_7():
    g, _ = make_complete_bipartite(2, 2)
    cfg = place_dispersed(g, [7, 3, 9, 5], lam=15)
    res = known_leader_tree(g, cfg, leader_id=7)

    assert res.partition == {7: 0, 3: 0, 9: 1, 5: 1}
    assert res.payload.n == 4
    assert res.payload.degree_sum == 8
    assert (res.payload.count0, res.payload.count1) == (2, 2)
    assert res.payload.max_degree == 2

    check = check_spanning_tree(g, res.tree.node_parent_ports(), root=0)
    assert check.ok, check.problems

    want = (4, 2, 2, 2, 8)
    assert res.received == {a: want for a in (7, 3, 9, 5)}


def test_two_agents_either_one_can_lead():
    g, _ = make_path(2)
    for leader, other in [(4, 9), (9, 4)]:
        cfg = place_dispersed(g, [4, 9], lam=15)
        res = known_leader_tree(g, cfg, leader_id=leader)
        assert res.partition[leader] == 0 and res.partition[other] == 1
        assert res.tree.root_id == leader


def test_leader_must_be_placed():
    g, _ = make_path(2)
    cfg = place_dispersed(g, [4, 9], lam=15)
    with pytest.raises(ValueError):
        known_leader_tree(g, cfg, leader_id=1)


@pytest.mark.parametrize("seed", range(6))
def test_random_graphs_build_correct_trees(seed):
    rng = random.Random(seed)
    a = rng.randint(2, 9)
    b = rng.randint(2, 9)
    g, bip = make_random_connected_bipartite(a, b, edge_prob=rng.random(), seed=seed)
    n = g.node_count
    ids = rng.sample(range(2 * n), n)
    cfg = place_dispersed(g, ids)
    leader = min(ids)
    res = known_leader_tree(g, cfg, leader_id=leader)

    # the tree spans the graph and is rooted at the leader's home
    leader_node = ids.index(leader)
    check = check_spanning_tree(g, res.tree.node_parent_ports(), root=leader_node)
    assert check.ok, check.problems

    # partition agrees with the two-coloring normalized to the leader's side
    color = oracle_coloring(g)
    flip = color[leader_node]
    for node, agent in enumerate(ids):
        assert res.partition[agent] == color[node] ^ flip

    # the aggregates are the graph's true totals
    assert res.payload.n == n
    assert res.payload.degree_sum == 2 * g.edge_count
    assert res.payload.max_degree == g.max_degree
    assert res.payload.count0 + res.payload.count1 == n

    # everyone ends up with the same downcast tuple
    assert len(set(res.received.values())) == 1

    # growth assigns parents within the promised budget
    assert res.report.rounds_per_phase["assignment"] <= 4 * n


def test_report_phases_cover_the_whole_run():
    g, _ = make_complete_bipartite(3, 3)
    cfg = place_dispersed(g, [11, 22, 33, 44, 55, 66])
    res = known_leader_tree(g, cfg, leader_id=11)
    per_phase = res.report.rounds_per_phase
    assert set(per_phase) == {"assignment", "aggregation", "downcast"}
    assert sum(per_phase.values()) == res.report.rounds_total
    assert res.report.outputs["leader"] == 11


def test_one_node_run_takes_only_the_aggregation_round():
    # the lone leader is assigned before round 0 and has nothing to wait for
    g = build_port_graph(1, [])
    res = known_leader_tree(g, place_dispersed(g, [6]), leader_id=6)
    assert res.report.rounds_per_phase == {"assignment": 0, "aggregation": 1, "downcast": 0}
    assert res.received == {6: (1, 1, 0, 0, 0)}


@pytest.mark.parametrize(
    "program,peak",
    [(lambda: KnownLeaderProgram(6), 26), (ElectionProgram, 28)],
    ids=["known_leader", "election"],
)
def test_tree_widths_hold_at_max_degree_zero(program, peak):
    # With lam = 6 (3-bit ids) and Δ = 0, the fixed fields take 14 bits and
    # the aggregate 3 + 3 + 0 + (3 + 1): the degree sum keeps one degree bit
    # even when Δ has none.  The program runs alone: in the entry points the
    # downcast that follows sets a one-node run's peak.
    g = build_port_graph(1, [])
    assert run(g, place_dispersed(g, [6]), program()).peak_bits == {6: peak}


def test_trace_is_one_continuous_timeline():
    g, _ = make_complete_bipartite(2, 3)
    cfg = place_dispersed(g, [1, 2, 3, 4, 5])
    res = known_leader_tree(g, cfg, leader_id=1, record_trace=True)
    rounds = [ev[0] for ev in res.trace]
    assert rounds == sorted(rounds)
    assert rounds[-1] == res.report.rounds_total - 1


def a8_instance():
    g, _ = make_random_connected_bipartite(9, 11, edge_prob=0.4, seed=5)
    return g, random.Random(5).sample(range(64), 20)


def k34_instance():
    g, _ = make_complete_bipartite(3, 4)
    return g, [12, 3, 40, 7, 25, 1, 18]


@pytest.mark.parametrize("make", [a8_instance, k34_instance], ids=["A8", "K34"])
def test_both_tree_protocols_end_in_one_result(make):
    # told the minimum id, the known-leader tree ends where the election
    # does: same leader, same sides, same totals delivered to everyone.
    # The trees themselves may differ.
    g, ids = make()
    known = known_leader_tree(g, place_dispersed(g, ids), min(ids))
    elected = elect_leader_and_tree(g, place_dispersed(g, ids))
    assert type(known) is type(elected) is TreeResult
    assert known.leader_id == elected.leader_id == min(ids)
    assert known.partition == elected.partition
    assert known.payload == elected.payload
    assert known.received == elected.received


def chain_graphs():
    """Seeded random connected bipartite graphs with 1-25 nodes per side,
    small complete bipartite graphs, paths and cliques."""
    rng = random.Random(2024)
    graphs = [
        make_random_connected_bipartite(
            rng.randint(1, 25), rng.randint(1, 25), rng.random() * 0.4, seed=rng.randrange(2**31)
        )[0]
        for _ in range(28)
    ]
    graphs += [make_complete_bipartite(a, b)[0] for a, b in ((1, 1), (1, 5), (2, 3), (4, 4))]
    graphs += [make_path(k)[0] for k in (2, 3, 7, 16)]
    graphs += [make_clique(k) for k in (2, 3, 5, 8)]
    return graphs


def first_broken_chain(graph, states):
    """The first agent whose ``child`` port, followed at its node by each
    child's ``sibling`` port, does not list exactly its tree children (by
    parent ports), with what the chain listed; None when every chain does."""
    by_node = {s.home_node: s for s in states}
    children = tree_from_states(states).children_map(graph)
    for p in sorted(states, key=lambda s: s.id):
        v, port, listed = p.home_node, p.child, []
        while port is not None and len(listed) <= graph.degrees[v]:
            kid = by_node[graph.neighbor_via(v, port)[0]]
            listed.append(kid.id)
            port = kid.sibling
        if len(set(listed)) != len(listed) or sorted(listed) != sorted(children[p.id]):
            return p.id, listed, sorted(children[p.id])
    return None


@pytest.mark.parametrize("protocol", ["known_leader", "election"])
def test_child_and_sibling_ports_chain_each_agents_children(protocol):
    # the agents keep their children lists in constant state: a node's
    # children are threaded through its child port and their sibling ports
    rng = random.Random(7)
    for k, g in enumerate(chain_graphs()):
        n = g.node_count
        ids = rng.sample(range(2 * n), n)
        cfg = place_dispersed(g, ids)
        if protocol == "known_leader":
            known_leader_tree(g, cfg, leader_id=rng.choice(ids))
        else:
            elect_leader_and_tree(g, cfg)
        assert first_broken_chain(g, cfg.states) is None, (k, n)


@pytest.mark.parametrize(
    "parent,partition,degree,nextport",
    [
        (0, 1, 3, 1),  # the parent holds port 0: the sweep starts at port 1
        (2, 0, 3, 0),
        (0, 1, 1, -1),  # a leaf's only port leads to its parent
        (None, 0, 2, 0),
        (None, 0, 0, -1),  # an isolated root has nothing to sweep
    ],
)
def test_join_tree_restarts_sweep_and_aggregate(parent, partition, degree, nextport):
    s = AgentState(id=4, home_node=0, current_node=0, partition=1 - partition)
    s.parent, s.child, s.sibling, s.nextport = 5, 2, 1, 2
    s.phase_state = {
        "mydeg": degree, "kids": 3, "kids_done": 2, "reported": True,
        "agg": AggregatePayload(4, 5, 9, 17), "rep": True,
    }
    join_tree(s, parent, partition, 7)
    assert (s.parent, s.partition, s.sibling, s.child, s.nextport) == (
        parent, partition, 7, None, nextport
    )
    assert s.phase_state == {
        "mydeg": degree, "kids": 0, "kids_done": 0, "reported": False,
        "agg": AggregatePayload(int(partition == 0), int(partition == 1), degree, degree),
        "rep": True,  # protocol-specific keys are the caller's to reset
    }
