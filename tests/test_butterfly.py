"""The full distributed 4-cycle count against the centralized answers.

Frozen expectations: in K_{a,b} each size-a-side vertex closes
C(b,2)*(a-1) butterflies, each size-b-side vertex C(a,2)*(b-1), and the
grand total is C(a,2)*C(b,2).  For K_{3,3} that is 6 per node and 9 in
total; for K_{4,3}, 9 and 12 per node and 18 in total.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from butterfly_agents.graphs import (
    build_port_graph,
    make_clique,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
)
from butterfly_agents.oracle import (
    NotBipartite,
    check_butterflies,
    check_spanning_tree,
    oracle_coloring,
    oracle_per_node_butterflies,
    oracle_total_butterflies,
)
from butterfly_agents.protocols import treecast
from butterfly_agents.protocols.butterfly import (
    PHASES,
    NeighborScanProgram,
    NotBipartiteSwarm,
    OddButterflySum,
    WedgeCountProgram,
    count_butterflies,
    fold_and_halve,
    pair_butterflies,
)
from butterfly_agents.protocols.election import elect_leader_and_tree
from butterfly_agents.runtime import (
    AgentState,
    PhaseInvariantError,
    Snapshot,
    StepView,
    Timeline,
    id_bits,
    place_dispersed,
    port_bits,
)


def count_on(g, ids, **kw):
    cfg = place_dispersed(g, ids)
    return cfg, count_butterflies(g, cfg, **kw)


def election_peak_bound(width, delta):
    """A3's peak with the port and degree fields added, so that it holds at
    L = 1 too.  The fixed fields cost 2·L + 4·port_bits(Δ) + 4
    (``runtime._resolve_widths``); the election's scratch, every key live at
    once, adds four L-bit fields, one port, five degree-wide fields of at
    most port_bits(Δ) - 1 bits (one bit when Δ = 0) and three flags.  The
    downcast's payload, 4·L plus two degree widths, stays below that."""
    return 6 * width + 10 * port_bits(delta) + 3


def oracle_by_agent(g, ids):
    per_node = oracle_per_node_butterflies(g)
    return {agent: per_node[node] for node, agent in enumerate(ids)}


def test_pair_butterflies_small_values():
    assert [pair_butterflies(c) for c in range(5)] == [0, 0, 1, 3, 6]


def test_k33():
    g, _ = make_complete_bipartite(3, 3)
    ids = [4, 2, 7, 1, 5, 3]
    _, res = count_on(g, ids)
    assert res.total == 9
    assert res.per_node == {a: 6 for a in ids}


def test_k43():
    g, _ = make_complete_bipartite(4, 3)
    ids = list(range(7))
    _, res = count_on(g, ids)
    assert res.total == 18
    assert res.per_node == {0: 9, 1: 9, 2: 9, 3: 9, 4: 12, 5: 12, 6: 12}


def test_path_has_none():
    g, _ = make_path(5)
    ids = [9, 1, 7, 3, 5]
    _, res = count_on(g, ids)
    assert res.total == 0
    assert res.per_node == {a: 0 for a in ids}


@pytest.mark.parametrize("seed", range(10))
def test_random_graphs_match_the_oracle(seed):
    rng = random.Random(7000 + seed)
    a, b = rng.randint(2, 9), rng.randint(2, 9)
    g, _ = make_random_connected_bipartite(a, b, edge_prob=rng.random(), seed=seed)
    n = g.node_count
    ids = rng.sample(range(3 * n), n)
    _, res = count_on(g, ids)
    assert res.total == oracle_total_butterflies(g)
    assert res.per_node == oracle_by_agent(g, ids)


def test_half_sum_identity_holds_per_side():
    g, _ = make_random_connected_bipartite(6, 7, edge_prob=0.5, seed=5)
    ids = list(range(13))
    _, res = count_on(g, ids)
    by_side = {0: 0, 1: 0}
    for agent, count in res.per_node.items():
        by_side[res.election.partition[agent]] += count
    assert by_side[0] == by_side[1] == 2 * res.total


def test_phase_round_budgets():
    g, _ = make_random_connected_bipartite(5, 8, edge_prob=0.6, seed=9)
    ids = list(range(13))
    _, res = count_on(g, ids)
    delta = g.max_degree
    per = res.report.rounds_per_phase
    for key in ("neighbor_scan_a", "wedge_count_a", "neighbor_scan_b", "wedge_count_b"):
        assert per[key] <= 2 * delta, (key, per[key])
    assert per["total_fold"] + per["total_push"] <= 8 * 5 + 4
    assert sum(per.values()) == res.report.rounds_total


def assert_exact_phase_rounds(g, res):
    """Every phase after the election takes exactly its slots.  A sweep of
    side x takes 2·Δ_x rounds, Δ_x the largest home degree on side x (side
    "a" is partition 0, the leader's), and each tree phase takes 2·h, h the
    height of the elected tree."""
    tree = res.election.tree
    height = check_spanning_tree(g, tree.node_parent_ports(), tree.home_node[tree.root_id]).height
    side_delta = [0, 0]
    for agent, side in res.election.partition.items():
        side_delta[side] = max(side_delta[side], g.degree(tree.home_node[agent]))
    expected = {
        "downcast": 2 * height,
        "neighbor_scan_a": 2 * side_delta[0],
        "wedge_count_a": 2 * side_delta[0],
        "total_fold": 2 * height,
        "total_push": 2 * height,
        "neighbor_scan_b": 2 * side_delta[1],
        "wedge_count_b": 2 * side_delta[1],
    }
    per = res.report.rounds_per_phase
    assert {phase: per[phase] for phase in expected} == expected


@pytest.mark.parametrize(
    "g, ids",
    [
        (make_random_connected_bipartite(9, 11, edge_prob=0.4, seed=5)[0],
         random.Random(5).sample(range(64), 20)),
        (make_complete_bipartite(3, 4)[0], [12, 3, 40, 7, 25, 1, 18]),
        (make_complete_bipartite(12, 12)[0], random.Random(12).sample(range(48), 24)),
    ],
    ids=["A8", "K34", "K12,12"],
)
def test_phases_take_exactly_their_slots(g, ids):
    _, res = count_on(g, ids)
    assert_exact_phase_rounds(g, res)


def test_report_lists_the_pipeline_phases_in_order():
    g, _ = make_random_connected_bipartite(3, 4, edge_prob=0.6, seed=4)
    _, res = count_on(g, [5, 0, 3, 6, 1, 4, 2])
    assert tuple(res.report.rounds_per_phase) == PHASES


def test_traced_pipeline_keeps_one_trace():
    g, _ = make_random_connected_bipartite(3, 4, edge_prob=0.6, seed=4)
    _, res = count_on(g, [5, 0, 3, 6, 1, 4, 2], record_trace=True)
    assert res.election.trace is None  # the election prefix lives in res.trace
    assert len(res.trace) == res.report.rounds_total * g.node_count


def test_tampered_fold_is_caught():
    g, _ = make_complete_bipartite(2, 2)
    cfg = place_dispersed(g, [4, 5, 6, 7])
    elect_leader_and_tree(g, cfg)
    # per-node counts summing to an odd number cannot happen: every
    # butterfly is counted once at each of its four corners
    with pytest.raises(OddButterflySum):
        fold_and_halve(g, cfg, {4: 1, 5: 1, 6: 1, 7: 0}, value_width=8, timeline=Timeline())


def test_odd_fold_names_the_phase_and_the_root():
    g, _ = make_complete_bipartite(2, 2)
    cfg = place_dispersed(g, [4, 5, 6, 7])
    elect_leader_and_tree(g, cfg)
    with pytest.raises(PhaseInvariantError, match="odd per-node sum 3") as info:
        fold_and_halve(g, cfg, {4: 1, 5: 1, 6: 1, 7: 0}, value_width=8, timeline=Timeline())
    assert isinstance(info.value, OddButterflySum)
    assert (info.value.phase, info.value.agents) == ("total_fold", (4,))


def test_missed_total_broadcast_is_a_typed_failure(monkeypatch):
    g, _ = make_complete_bipartite(3, 3)
    cfg = place_dispersed(g, [4, 2, 7, 1, 5, 3])
    elect_leader_and_tree(g, cfg)
    real_run = treecast.run

    def corrupting_run(graph, config, program, **kw):
        result = real_run(graph, config, program, **kw)
        if isinstance(program, treecast.BroadcastProgram):
            config.states[2].phase_state["received"] += 1
        return result

    monkeypatch.setattr(treecast, "run", corrupting_run)
    values = {s.id: 6 for s in cfg.states}
    with pytest.raises(PhaseInvariantError, match="did not receive the total 18") as info:
        fold_and_halve(g, cfg, values, value_width=16, timeline=Timeline())
    assert (info.value.phase, info.value.agents) == ("total_push", (7,))


def five_cycle():
    return build_port_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.mark.parametrize("make", [five_cycle, lambda: make_clique(4)], ids=["c5", "k4"])
def test_odd_cycle_is_a_typed_scan_failure(make):
    g = make()
    with pytest.raises(NotBipartite):
        oracle_coloring(g)
    with pytest.raises(NotBipartiteSwarm, match="found nobody at home") as info:
        count_on(g, list(range(g.node_count)))
    err = info.value
    assert 0 <= err.port < g.max_degree
    assert err.round % 2 == 1  # the return round of the port's slot
    assert err.agent in range(g.node_count)
    assert f"agent {err.agent} went through port {err.port}" in str(err)


@pytest.mark.parametrize("program", [NeighborScanProgram, WedgeCountProgram])
def test_same_side_resident_is_a_typed_scan_failure(program):
    # a mover that finds a resident of its own side at home must not log it
    mover = AgentState(id=3, home_node=0, current_node=1, partition=0, entered_port=0)
    mover.phase_state = {"mydeg": 2, "scan_done": False, "bfly": 0}
    host = Snapshot(id=5, at_home=True, entered_port=None, partition=0, child=None,
                    treelabel=0, neighbor_list=((0, 3), (1, 8)), scratch={})
    view = StepView(round=1, at_home=False, entered_port=0, degree_here=2, colocated=(host,))
    with pytest.raises(NotBipartiteSwarm, match="agent 5 of its own side") as info:
        program(0).step(mover, view)
    assert (info.value.agent, info.value.port, info.value.round) == (3, 0, 1)
    assert mover.neighbor_list == [] and mover.counters == {}


@pytest.mark.parametrize("make", [five_cycle, lambda: make_clique(4)], ids=["c5", "k4"])
def test_scan_failure_names_the_phase(make):
    g = make()
    with pytest.raises(NotBipartiteSwarm) as info:
        count_on(g, list(range(g.node_count))[::-1])
    assert info.value.phase == "neighbor-scan"


def test_wedge_count_failure_names_its_phase():
    mover = AgentState(id=3, home_node=0, current_node=1, partition=0, entered_port=0)
    mover.phase_state = {"mydeg": 2, "scan_done": False, "bfly": 0}
    host = Snapshot(id=5, at_home=True, entered_port=None, partition=0, child=None,
                    treelabel=0, neighbor_list=(), scratch={})
    view = StepView(round=1, at_home=False, entered_port=0, degree_here=2, colocated=(host,))
    with pytest.raises(NotBipartiteSwarm) as info:
        WedgeCountProgram(0).step(mover, view)
    assert info.value.phase == "wedge-count"
    assert str(info.value) == (
        "agent 3 went through port 0 and found agent 5 of its own side at home "
        "in round 1: the graph has an odd cycle"
    )


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2-12 nodes plus random extra edges, and
    distinct random ids; about half of these graphs have an odd cycle."""
    n = draw(st.integers(2, 12))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - set(tree))
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    ids = draw(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n, unique=True))
    return n, tree + extra, ids


@settings(max_examples=200, deadline=None)
@given(connected_graphs())
@example((3, [(0, 1), (1, 2), (0, 2)], [1, 2, 3]))
def test_non_bipartite_input_always_fails_typed(case):
    n, edges, ids = case
    g = build_port_graph(n, edges)
    try:
        oracle_coloring(g)
    except NotBipartite:
        with pytest.raises(NotBipartiteSwarm):
            count_on(g, ids)
        return
    _, res = count_on(g, ids)
    assert res.total == oracle_total_butterflies(g)
    assert res.per_node == oracle_by_agent(g, ids)


def test_pipeline_is_deterministic():
    g, _ = make_random_connected_bipartite(4, 5, edge_prob=0.5, seed=3)
    ids = [8, 3, 1, 14, 0, 6, 11, 2, 9]

    def one():
        cfg = place_dispersed(g, ids)
        res = count_butterflies(g, cfg, record_trace=True)
        return res.total, res.per_node, res.report.to_json(), res.trace

    assert one() == one()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_oracle_agreement_property(seed):
    rng = random.Random(seed)
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    g, _ = make_random_connected_bipartite(a, b, edge_prob=rng.random(), seed=seed)
    n = g.node_count
    ids = rng.sample(range(2 * n), n)
    _, res = count_on(g, ids)
    assert res.total == oracle_total_butterflies(g)
    assert res.per_node == oracle_by_agent(g, ids)


@st.composite
def relabeled_instances(draw):
    """A connected bipartite graph of 1-6 nodes per side, rebuilt with its
    nodes renumbered, its edges shuffled, endpoints flipped and a random
    port order at every node, plus a random permutation of random distinct
    ids and an id bound λ: the largest id, 2^16 or 2^40.  Node v of the
    base graph is node ``node[v]`` of the rebuilt one."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    base, _ = make_random_connected_bipartite(
        a, b, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**31))
    )
    node = draw(st.permutations(range(base.node_count)))
    edges = [
        (node[v], node[u]) if draw(st.booleans()) else (node[u], node[v])
        for u, row in enumerate(base.adjacency)
        for v, _ in row
        if u < v
    ]
    edges = draw(st.permutations(edges))
    degree = [0] * base.node_count
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    port_order = {v: draw(st.permutations(range(d))) for v, d in enumerate(degree)}
    g = build_port_graph(base.node_count, edges, port_order)
    ids = draw(st.permutations(
        draw(st.lists(st.integers(0, 4 * (a + b)), min_size=a + b, max_size=a + b, unique=True))
    ))
    lam = draw(st.sampled_from([max(ids), 2**16, 2**40]))
    return base, node, g, ids, lam


K11 = make_complete_bipartite(1, 1)[0]


@settings(max_examples=100, deadline=None)
@given(relabeled_instances())
@example((K11, [0, 1], K11, [0, 1], 1))  # L = 1: peaks at 28 bits, above 24·L
def test_counts_survive_port_edge_and_id_relabeling(case):
    """Renumbering nodes, relabeling ports, reordering edges, permuting ids
    and raising λ changes no count: the total and every node's count are
    the unrelabeled graph's oracle answers, the minimum id leads, and every
    phase after the election takes exactly its slots.  The
    election keeps A3's bounds (rounds <= 16·n·L; peak <= 24·L bits once
    L >= 2, since at L = 1 the port, degree and flag fields alone exceed
    24 bits, and ``election_peak_bound`` at every L) and A4's (tree
    diameter <= 2·min(|A|, |B|))."""
    base, node, g, ids, lam = case
    res = count_butterflies(g, place_dispersed(g, ids, lam=lam))
    assert res.total == oracle_total_butterflies(base)
    assert {v: res.per_node[ids[node[v]]] for v in range(base.node_count)} == dict(
        enumerate(oracle_per_node_butterflies(base))
    )
    assert res.election.leader_id == min(ids)
    assert_exact_phase_rounds(g, res)
    n, width = g.node_count, id_bits(lam)
    report = res.election.report
    assert report.rounds_total <= 16 * n * width
    peak = max(report.peak_memory_bits.values())
    assert peak <= election_peak_bound(width, g.max_degree)
    if width >= 2:
        assert peak <= 24 * width
    tree = res.election.tree
    check = check_spanning_tree(g, tree.node_parent_ports(), tree.home_node[tree.root_id])
    side_a = oracle_coloring(g).count(0)
    assert check.diameter <= 2 * min(side_a, n - side_a)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_port_graph(1, []),
        lambda: make_complete_bipartite(1, 1)[0],
        lambda: make_complete_bipartite(1, 7)[0],
        lambda: make_complete_bipartite(7, 1)[0],
    ],
    ids=["single-node", "K1,1", "K1,7", "K7,1"],
)
def test_degenerate_shapes_count_and_check(make):
    g = make()
    ids = list(range(3, 3 + g.node_count))
    res = count_butterflies(g, place_dispersed(g, ids))
    assert res.total == 0
    assert res.per_node == {aid: 0 for aid in ids}
    assert check_butterflies(g, res, 3) == []
    peak = max(res.election.report.peak_memory_bits.values())
    assert peak <= election_peak_bound(id_bits(max(ids)), g.max_degree)
