"""The result checkers: ``oracle.check_tree`` and ``oracle.check_butterflies``
return [] on real results and one named problem line per corruption."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterfly_agents.graphs import (
    build_port_graph,
    make_complete_bipartite,
    make_random_connected_bipartite,
)
from butterfly_agents.oracle import check_butterflies, check_tree
from butterfly_agents.protocols.butterfly import count_butterflies
from butterfly_agents.protocols.election import elect_leader_and_tree
from butterfly_agents.protocols.known_leader import known_leader_tree
from butterfly_agents.runtime import place_dispersed


# the A8 and K34 instances whose pipeline runs tests/test_identity.py pins
def a8_instance():
    g, _ = make_random_connected_bipartite(9, 11, edge_prob=0.4, seed=5)
    return g, random.Random(5).sample(range(64), 20)


def k34_instance():
    g, _ = make_complete_bipartite(3, 4)
    return g, [12, 3, 40, 7, 25, 1, 18]


@pytest.fixture(scope="module", params=[a8_instance, k34_instance], ids=["a8", "k34"])
def counted(request):
    g, ids = request.param()
    return g, min(ids), count_butterflies(g, place_dispersed(g, ids))


def test_real_results_pass(counted):
    g, leader, res = counted
    assert check_butterflies(g, res, leader) == []
    assert check_tree(g, res.election, leader) == []


def corrupt(kind, res):
    """``res`` with one kind of damage, and the problem lines it must yield."""
    el, tree, pn = res.election, res.election.tree, res.per_node
    a = max(el.partition)  # the largest id: never the leader
    home, side, t = tree.home_node, el.partition[a], res.total
    if kind == "leader":
        return replace(res, election=replace(el, leader_id=a)), [
            f"leader {a}, expected {el.leader_id}"
        ]
    if kind == "root":
        bad = replace(el, tree=replace(tree, root_id=a))
        return replace(res, election=bad), [f"tree root {a}, expected {el.leader_id}"]
    if kind == "second_root":
        ports = {**tree.parent_port, a: None}
        roots = [home[x] for x, p in ports.items() if p is None]
        bad = replace(el, tree=replace(tree, parent_port=ports))
        return replace(res, election=bad), [
            f"expected single root {home[el.leader_id]}, found roots {roots}"
        ]
    if kind == "side":
        bad = replace(el, partition={**el.partition, a: 1 - side})
        return replace(res, election=bad), [f"agent {a}: partition {1 - side}, expected {side}"]
    if kind == "payload":
        delta = el.payload.max_degree
        bad = replace(el, payload=el.payload._replace(max_degree=delta + 1))
        return replace(res, election=bad), [f"payload max_degree={delta + 1}, graph has {delta}"]
    if kind == "received":
        bad = replace(el, received={**el.received, a: (0, 0, 0, 0, 0)})
        return replace(res, election=bad), [
            f"agent {a}: received (0, 0, 0, 0, 0), expected {el.received[a]}"
        ]
    if kind == "total":
        return replace(res, total=t + 1), [f"total {t + 1}, oracle says {t}"]
    if kind == "per_node":
        return replace(res, per_node={**pn, a: pn[a] + 2}), [
            f"node {home[a]}: counted {pn[a] + 2}, expected {pn[a]}"
        ]
    assert kind == "side_sums"  # move two butterflies to a from an agent on the other side
    b = next(x for x in sorted(pn) if el.partition[x] != side)
    half = [2 * t, 2 * t]
    half[side] += 2
    half[1 - side] -= 2
    return replace(res, per_node={**pn, a: pn[a] + 2, b: pn[b] - 2}), [
        f"side sums {tuple(half)} != twice the total {2 * t}"
    ]


TREE_KINDS = ["leader", "root", "second_root", "side", "payload", "received"]


@pytest.mark.parametrize("kind", TREE_KINDS + ["total", "per_node", "side_sums"])
def test_each_corruption_is_named(counted, kind):
    g, leader, res = counted
    bad, lines = corrupt(kind, res)
    problems = check_butterflies(g, bad, leader)
    assert set(lines) <= set(problems), problems
    if kind in TREE_KINDS:
        assert set(lines) <= set(check_tree(g, bad.election, leader))


@pytest.fixture(scope="module")
def k23():
    g, _ = make_complete_bipartite(2, 3)
    return g, count_butterflies(g, place_dispersed(g, [7, 3, 9, 5, 4]))


def test_received_is_checked_for_the_lowest_id_agent_too(k23):
    g, res = k23
    el = res.election
    bad = replace(el, received={**el.received, 3: (0, 0, 0, 0, 0)})
    line = "agent 3: received (0, 0, 0, 0, 0), expected (5, 2, 3, 3, 12)"
    assert check_tree(g, bad, 3) == [line]


def test_an_agent_missing_from_the_partition_is_named(k23):
    g, res = k23
    el = res.election
    partition = {a: s for a, s in el.partition.items() if a != 4}
    bad = replace(res, election=replace(el, partition=partition))
    assert "agent 4: missing from the partition" in check_butterflies(g, bad, 3)
    assert "agent 4: missing from the partition" in check_tree(g, bad.election, 3)


def test_a_count_for_a_stranger_is_named(k23):
    g, res = k23
    bad = replace(res, per_node={**res.per_node, 99: 0})
    assert check_butterflies(g, bad, 3) == ["agent 99: not an agent of this graph"]


def test_a_side_for_a_stranger_is_named(k23):
    g, res = k23
    el = res.election
    bad = replace(el, partition={**el.partition, 99: 0})
    assert "agent 99: not an agent of this graph" in check_tree(g, bad, 3)


@pytest.mark.parametrize("damage,lines", [
    (lambda tree: {"root_id": 99},
     ["tree root 99, expected 3", "agent 99: not an agent of this graph"]),
    (lambda tree: {"parent_port": {**tree.parent_port, 99: 0}},
     ["agent 99: not an agent of this graph"]),
], ids=["root", "parent_port"])
def test_a_stranger_in_the_tree_is_named(k23, damage, lines):
    g, res = k23
    el = res.election
    bad = replace(el, tree=replace(el.tree, **damage(el.tree)))
    assert check_tree(g, bad, 3) == lines
    assert check_butterflies(g, replace(res, election=bad), 3) == lines


@st.composite
def bipartite_instances(draw):
    """A random connected bipartite graph with 1-6 nodes per side and
    distinct random ids."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    g, _ = make_random_connected_bipartite(
        a, b, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**31))
    )
    ids = draw(st.lists(st.integers(0, 4 * (a + b)), min_size=a + b, max_size=a + b, unique=True))
    return g, ids


@settings(max_examples=50, deadline=None)
@given(bipartite_instances())
def test_checkers_pass_every_counting_run(case):
    g, ids = case
    res = count_butterflies(g, place_dispersed(g, ids))
    assert check_butterflies(g, res, min(ids)) == []
    assert check_tree(g, res.election, min(ids)) == []


@st.composite
def general_instances(draw):
    """A random spanning tree on 1-10 nodes plus random extra edges (odd
    cycles included), distinct random ids, and one of them as a leader."""
    n = draw(st.integers(1, 10))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - set(tree))
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    ids = draw(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n, unique=True))
    return build_port_graph(n, tree + extra), ids, draw(st.sampled_from(ids))


@settings(max_examples=50, deadline=None)
@given(general_instances())
def test_check_tree_passes_every_tree_protocol(case):
    g, ids, leader = case
    assert check_tree(g, elect_leader_and_tree(g, place_dispersed(g, ids)), min(ids)) == []
    assert check_tree(g, known_leader_tree(g, place_dispersed(g, ids), leader), leader) == []
