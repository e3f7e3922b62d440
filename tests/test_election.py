"""Leader election from scratch: anonymous nodes, ids only, no hints.

The protocol must always crown the smallest id, leave a spanning tree
in the parent ports, two-color the agents by tree depth, and deliver
the root's totals to everyone — on bipartite graphs and on cliques
alike (nothing in the election itself needs two-colorability).
"""

import random

import pytest

from butterfly_agents.graphs import (
    make_clique,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
)
from butterfly_agents.oracle import check_spanning_tree, oracle_coloring
from butterfly_agents.protocols import election
from butterfly_agents.protocols.election import elect_leader_and_tree
from butterfly_agents.runtime import PhaseInvariantError, id_bits, place_dispersed


def elect(g, ids, lam=None, **kw):
    cfg = place_dispersed(g, ids, lam=lam)
    return cfg, elect_leader_and_tree(g, cfg, **kw)


def assert_election_sound(g, ids, res):
    assert res.leader_id == min(ids)
    root_node = ids.index(res.leader_id)
    check = check_spanning_tree(g, res.tree.node_parent_ports(), root=root_node)
    assert check.ok, check.problems
    assert res.payload.n == g.node_count
    assert res.payload.degree_sum == 2 * g.edge_count
    assert res.payload.max_degree == g.max_degree
    want = (
        res.payload.n,
        res.payload.count0,
        res.payload.count1,
        res.payload.max_degree,
        res.payload.degree_sum,
    )
    assert res.received == {a: want for a in ids}


def test_two_agents():
    g, _ = make_path(2)
    cfg, res = elect(g, [7, 3], lam=15)
    assert res.leader_id == 3
    assert res.partition == {3: 0, 7: 1}
    assert all(s.treelabel == 3 for s in cfg.states)
    assert_election_sound(g, [7, 3], res)


def test_k33_sequential_ids():
    g, _ = make_complete_bipartite(3, 3)
    ids = [0, 1, 2, 3, 4, 5]
    cfg, res = elect(g, ids)
    assert res.leader_id == 0
    assert_election_sound(g, ids, res)
    assert (res.payload.count0, res.payload.count1) == (3, 3)


def test_partition_matches_coloring_on_bipartite_graphs():
    g, _ = make_random_connected_bipartite(5, 6, edge_prob=0.4, seed=2)
    ids = [15, 3, 8, 1, 12, 0, 9, 5, 7, 4, 2]
    cfg, res = elect(g, ids)
    color = oracle_coloring(g)
    root_node = ids.index(res.leader_id)
    flip = color[root_node]
    for node, agent in enumerate(ids):
        assert res.partition[agent] == color[node] ^ flip


def test_descending_ids_along_a_path():
    # worst case for label churn: every node first believes it is smallest,
    # and the eventual leader sits at the far end of the line
    n = 40
    g, _ = make_path(n)
    ids = list(range(n, 0, -1))
    cfg, res = elect(g, ids)
    assert res.leader_id == 1
    assert_election_sound(g, ids, res)
    assert all(s.treelabel == 1 for s in cfg.states)
    assert all(s.leader == (s.id == 1) for s in cfg.states)


# Descending odd ids 2n-1, 2n-3, ..., 1 on a path with lam = 2n: the
# family on which the O(n log lam) round bound is tight.  The totals were
# measured once; 16 is A3's pinned constant.
WORST_CASE_PATH_ROUNDS = {16: 727, 32: 1771, 64: 4127, 128: 9363}


@pytest.mark.parametrize("n", sorted(WORST_CASE_PATH_ROUNDS))
def test_worst_case_path_elections_stay_within_a3(n):
    g, _ = make_path(n)
    ids = list(range(2 * n - 1, 0, -2))
    lam = 2 * n
    _, res = elect(g, ids, lam=lam)
    assert res.leader_id == 1
    assert res.report.rounds_total <= 16 * n * id_bits(lam)
    assert res.report.rounds_total == WORST_CASE_PATH_ROUNDS[n]


def test_idle_agents_sleep_on_the_worst_case_path(monkeypatch):
    # An agent with no errand, no port left and children still out is not
    # stepped until a child visits.  Waking it at every window end instead
    # takes 8,608 election steps here, for the same 4,001 rounds.
    n = 64
    g, _ = make_path(n)
    ids = list(range(2 * n - 1, 0, -2))
    steps = 0
    step = election.ElectionProgram.step

    def counted(self, state, view):
        nonlocal steps
        steps += 1
        return step(self, state, view)

    monkeypatch.setattr(election.ElectionProgram, "step", counted)
    _, res = elect(g, ids, lam=2 * n)
    assert res.report.rounds_per_phase["election"] == 4001
    assert steps == 4706


def test_cliques_elect_the_minimum():
    for k in (3, 5, 8):
        g = make_clique(k)
        ids = random.Random(k).sample(range(2 * k), k)
        cfg, res = elect(g, ids)
        assert_election_sound(g, ids, res)


@pytest.mark.parametrize("seed", range(8))
def test_random_bipartite_graphs(seed):
    rng = random.Random(1000 + seed)
    a, b = rng.randint(2, 10), rng.randint(2, 10)
    g, _ = make_random_connected_bipartite(a, b, edge_prob=rng.random(), seed=seed)
    n = g.node_count
    ids = rng.sample(range(4 * n), n)
    cfg, res = elect(g, ids)
    assert_election_sound(g, ids, res)
    # exactly one completed root, everyone else reported into the tree
    roots = [s for s in cfg.states if s.parent is None]
    assert [s.id for s in roots] == [res.leader_id]
    assert roots[0].completion and roots[0].leader


@pytest.mark.parametrize("lam", [2**49, 2**53, 2**64], ids=["2^49", "2^53", "2^64"])
def test_two_node_election_under_huge_id_bounds(lam):
    # ids 0 and lam need exact id widths: with floats, 2**49 measured 49 bits
    # and the two meeting words never separated inside a window
    g, _ = make_path(2)
    _, res = elect(g, [0, lam], lam=lam)
    assert res.leader_id == 0
    assert_election_sound(g, [0, lam], res)


def test_traced_election_holds_every_agent_every_round():
    g, _ = make_random_connected_bipartite(4, 4, edge_prob=0.5, seed=11)
    ids = [9, 14, 3, 8, 1, 12, 6, 0]
    _, res = elect(g, ids, record_trace=True)
    assert len(res.trace) == res.report.rounds_total * len(ids)
    assert max(ev[0] for ev in res.trace) == res.report.rounds_total - 1


def test_election_is_deterministic():
    g, _ = make_random_connected_bipartite(4, 4, edge_prob=0.5, seed=11)
    ids = [9, 14, 3, 8, 1, 12, 6, 0]

    def one():
        cfg, res = elect(g, ids, record_trace=True)
        return res.report.to_json(), res.trace

    assert one() == one()


def test_report_phase_split():
    g, _ = make_complete_bipartite(2, 2)
    cfg, res = elect(g, [7, 3, 9, 5], lam=15)
    per = res.report.rounds_per_phase
    assert set(per) == {"election", "downcast"}
    assert sum(per.values()) == res.report.rounds_total
    assert res.report.outputs["leader"] == 3


def corrupt_after_election(monkeypatch, corrupt):
    """Let the real election run, then hand ``corrupt`` its final states."""
    real_run = election.run

    def corrupting_run(graph, config, program, **kw):
        result = real_run(graph, config, program, **kw)
        corrupt({s.id: s for s in config.states})
        return result

    monkeypatch.setattr(election, "run", corrupting_run)


def test_two_roots_are_a_typed_failure(monkeypatch):
    g, _ = make_complete_bipartite(3, 3)
    ids = [4, 2, 7, 1, 5, 3]

    def second_root(states):
        states[5].parent = None

    corrupt_after_election(monkeypatch, second_root)
    with pytest.raises(PhaseInvariantError, match="exactly one must remain") as info:
        elect(g, ids)
    assert info.value.phase == "election"
    assert sorted(info.value.agents) == [1, 5]


def test_foreign_tree_label_is_a_typed_failure(monkeypatch):
    g, _ = make_complete_bipartite(3, 3)
    ids = [4, 2, 7, 1, 5, 3]

    def relabel(states):
        states[7].treelabel = 2

    corrupt_after_election(monkeypatch, relabel)
    with pytest.raises(PhaseInvariantError, match="other than leader 1") as info:
        elect(g, ids)
    assert (info.value.phase, info.value.agents) == ("election", (7,))
