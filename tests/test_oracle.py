"""Centralized reference answers: coloring, 4-cycle counts, tree checking.

The counting values frozen here were computed from the closed form for
complete bipartite graphs (each side-A vertex closes C(b,2)*(a-1)
4-cycles in K_{a,b}) and cross-checked by explicit enumeration.

The two-hop per-node oracle, and each of its two formulations, is also
held against three references kept here: the pair formula over every
same-side pair, a tally of every two-hop walk, and a per-node
four-corner enumeration.
"""

import math
from collections import Counter
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from butterfly_agents import oracle
from butterfly_agents.graphs import (
    build_port_graph,
    make_clique,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
)
from butterfly_agents.oracle import (
    NotBipartite,
    OracleMismatch,
    check_butterflies,
    check_spanning_tree,
    enumerate_butterflies,
    oracle_coloring,
    oracle_per_node_butterflies,
    oracle_total_butterflies,
)
from butterfly_agents.protocols.butterfly import count_butterflies
from butterfly_agents.runtime import place_dispersed


def pair_formula_per_node(g):
    """B(v) as C(|N(v) & N(w)|, 2) summed over every same-side pair."""
    color = oracle_coloring(g)
    nbrs = [set(g.neighbors(v)) for v in range(g.node_count)]
    counts = [0] * g.node_count
    for side in (0, 1):
        nodes = [v for v in range(g.node_count) if color[v] == side]
        for i, v in enumerate(nodes):
            for w in nodes[i + 1 :]:
                pair = math.comb(len(nbrs[v] & nbrs[w]), 2)
                counts[v] += pair
                counts[w] += pair
    return counts


def walk_per_node(g):
    """B(v) from the walks v-u-w: a Counter over the neighbors of v's
    neighbors gives c for every w two hops away, and v itself, reached once
    per neighbor, adds C(deg v, 2) that is taken off again."""
    nbrs = [g.neighbors(v) for v in range(g.node_count)]
    counts = [0] * g.node_count
    for v, row in enumerate(nbrs):
        reach = Counter(chain.from_iterable(nbrs[u] for u in row))
        counts[v] = sum(math.comb(c, 2) for c in reach.values()) - math.comb(len(row), 2)
    return counts


def enumerate_per_node(g):
    """B(v) by listing every butterfly and crediting its four corners."""
    color = oracle_coloring(g)
    a_nodes = [v for v in range(g.node_count) if color[v] == 0]
    b_nodes = [v for v in range(g.node_count) if color[v] == 1]
    nbrs = [set(g.neighbors(v)) for v in range(g.node_count)]
    counts = [0] * g.node_count
    for i, u in enumerate(a_nodes):
        for w in a_nodes[i + 1 :]:
            common = [x for x in b_nodes if x in nbrs[u] and x in nbrs[w]]
            for j, x in enumerate(common):
                for y in common[j + 1 :]:
                    for corner in (u, w, x, y):
                        counts[corner] += 1
    return counts


def test_coloring_matches_generator_sides():
    g, bip = make_complete_bipartite(3, 5)
    assert oracle_coloring(g) == list(bip.side)


def test_coloring_rejects_triangle():
    g = make_clique(3)
    with pytest.raises(NotBipartite):
        oracle_coloring(g)


def five_cycle():
    return build_port_graph(5, [(v, (v + 1) % 5) for v in range(5)])


@pytest.mark.parametrize(
    "make, edge",
    [(lambda: make_clique(4), (1, 2)), (five_cycle, (2, 3))],
    ids=["K4", "C5"],
)
def test_coloring_names_the_first_same_color_edge(make, edge):
    # breadth-first from node 0: the edge named is the first one scanned
    # whose ends already share a color
    line = rf"^edge \({edge[0]}, {edge[1]}\) joins same-color nodes$"
    with pytest.raises(NotBipartite, match=line):
        oracle_coloring(make())


def test_coloring_rejects_a_disconnected_graph():
    with pytest.raises(ValueError, match="^oracle_coloring requires a connected graph$") as info:
        oracle_coloring(build_port_graph(4, [(0, 1), (2, 3)]))
    assert not isinstance(info.value, NotBipartite)


def test_k33_counts():
    g, _ = make_complete_bipartite(3, 3)
    per = oracle_per_node_butterflies(g)
    assert per == [6] * 6
    assert oracle_total_butterflies(g) == 9


def test_k43_counts():
    g, _ = make_complete_bipartite(4, 3)
    per = oracle_per_node_butterflies(g)
    assert per[:4] == [9] * 4  # C(3,2) * 3 on the size-4 side
    assert per[4:] == [12] * 3  # C(4,2) * 2 on the size-3 side
    assert oracle_total_butterflies(g) == 18


@pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (2, 5), (4, 4), (5, 3)])
def test_complete_bipartite_closed_form(a, b):
    g, _ = make_complete_bipartite(a, b)
    want = math.comb(a, 2) * math.comb(b, 2)
    assert oracle_total_butterflies(g) == want
    assert enumerate_butterflies(g) == want


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_paths_have_no_butterflies(n):
    g, _ = make_path(n)
    assert oracle_total_butterflies(g) == 0
    assert oracle_per_node_butterflies(g) == [0] * n


def test_per_node_half_sum_identity():
    g, bip = make_random_connected_bipartite(7, 9, edge_prob=0.5, seed=41)
    per = oracle_per_node_butterflies(g)
    total = oracle_total_butterflies(g)
    side_a = sum(per[v] for v in range(g.node_count) if bip.side[v] == 0)
    side_b = sum(per[v] for v in range(g.node_count) if bip.side[v] == 1)
    assert side_a == side_b == 2 * total


def test_counting_matches_enumeration_on_random_graphs():
    for seed in range(8):
        g, _ = make_random_connected_bipartite(6, 6, edge_prob=0.45, seed=seed)
        assert oracle_total_butterflies(g) == enumerate_butterflies(g)


def assert_per_node_matches_references(g):
    """The oracle and both of its formulations, mask popcounts and vertex
    priority, match the walk tally, the pair formula and enumeration."""
    per = oracle_per_node_butterflies(g)
    pairs = oracle._pair_counts(g, oracle_coloring(g))
    assert pairs == oracle._priority_counts(g) == walk_per_node(g) == per
    assert per == pair_formula_per_node(g)
    assert per == enumerate_per_node(g)


def random_graph(a, b, prob, seed):
    return make_random_connected_bipartite(a, b, edge_prob=prob, seed=seed)[0]


def even_cycle(n):
    return build_port_graph(n, [(v, (v + 1) % n) for v in range(n)])


@settings(max_examples=60, deadline=None)
@given(
    g=st.builds(
        random_graph,
        a=st.integers(min_value=1, max_value=32),
        b=st.integers(min_value=1, max_value=32),
        prob=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
)
@example(g=random_graph(1, 1, 1.0, 0))
@example(g=random_graph(1, 12, 0.0, 0))
@example(g=random_graph(12, 1, 0.5, 0))
# every degree ties, so vertex priority ranks by node index alone
@example(g=make_complete_bipartite(5, 5)[0])
@example(g=even_cycle(12))
@example(g=make_path(9)[0])
def test_per_node_matches_both_references_on_random_graphs(g):
    assert_per_node_matches_references(g)


@pytest.mark.parametrize(
    "make",
    [
        lambda: (build_port_graph(1, []), None),
        lambda: make_complete_bipartite(1, 9),
        lambda: make_complete_bipartite(9, 1),
        lambda: make_complete_bipartite(1, 1),
        lambda: make_path(2),
        lambda: make_path(7),
        lambda: make_path(12),
        lambda: make_complete_bipartite(12, 12),
        lambda: make_complete_bipartite(2, 31),
    ],
    ids=["single-node", "K1,9", "K9,1", "K1,1", "path2", "path7", "path12", "K12,12", "K2,31"],
)
def test_per_node_matches_both_references_on_degenerate_shapes(make):
    g, _ = make()
    assert_per_node_matches_references(g)


def test_per_node_matches_pair_formula_at_benchmark_scale():
    # the sparse benchmark shape; enumeration is out of reach at this size
    g, _ = make_random_connected_bipartite(1024, 1024, edge_prob=0.005, seed=2024)
    per = oracle_per_node_butterflies(g)
    pairs = oracle._pair_counts(g, oracle_coloring(g))
    assert pairs == oracle._priority_counts(g) == walk_per_node(g) == per
    assert per == pair_formula_per_node(g)


@pytest.mark.parametrize(
    "make, path",
    [
        (lambda: make_complete_bipartite(48, 48), "_pair_counts"),
        (lambda: make_random_connected_bipartite(512, 512, edge_prob=0.01, seed=7), "_priority_counts"),
        (lambda: (even_cycle(18), None), "_pair_counts"),
    ],
    ids=["K48,48", "512+512", "C18-tie"],
)
def test_two_hop_count_picks_the_cheaper_formulation(monkeypatch, make, path):
    # K48,48 has 2,256 same-side pairs against 221,184 two-hop walks; the
    # sparse graph about 262k pairs against about 32k walks; the 18-cycle
    # 72 of each, and a tie goes to the masks
    g, _ = make()
    picked = []
    for name in ("_pair_counts", "_priority_counts"):
        def recorded(*args, _name=name, _fn=getattr(oracle, name)):
            picked.append(_name)
            return _fn(*args)

        monkeypatch.setattr(oracle, name, recorded)
    oracle_per_node_butterflies(g)
    assert picked == [path]


def test_per_node_keeps_coloring_checks():
    with pytest.raises(NotBipartite):
        oracle_per_node_butterflies(make_clique(4))
    with pytest.raises(ValueError, match="connected"):
        oracle_per_node_butterflies(build_port_graph(4, [(0, 1), (2, 3)]))


def test_empty_graph_is_a_typed_error():
    empty = build_port_graph(0, [])
    for check in (oracle_coloring, oracle_per_node_butterflies, oracle_total_butterflies):
        with pytest.raises(ValueError, match="non-empty graph") as info:
            check(empty)
        assert not isinstance(info.value, NotBipartite)


def test_enumeration_mismatch_is_a_typed_error(monkeypatch):
    g, _ = make_complete_bipartite(3, 3)
    monkeypatch.setattr(oracle, "_enumerate", lambda g, color: 8)
    with pytest.raises(OracleMismatch, match="two-hop count gives 9, enumeration gives 8"):
        oracle_total_butterflies(g)


def test_side_sum_mismatches_are_typed_errors(monkeypatch):
    g, _ = make_complete_bipartite(2, 2)  # per-node counts [1, 1, 1, 1]
    monkeypatch.setattr(oracle, "_two_hop_counts", lambda g, color: [1, 1, 1, 3])
    with pytest.raises(OracleMismatch, match="side sums disagree: 2 vs 4"):
        oracle_total_butterflies(g)
    monkeypatch.setattr(oracle, "_two_hop_counts", lambda g, color: [1, 0, 1, 0])
    with pytest.raises(OracleMismatch, match="side sum 1 is odd"):
        oracle_total_butterflies(g)


# The functions that do an oracle's work: the BFS coloring, the two-hop
# per-node count and the four-node enumeration, and the public wrappers
# around the last two.
WORK = (
    "oracle_coloring",
    "_two_hop_counts",
    "_enumerate",
    "oracle_per_node_butterflies",
    "enumerate_butterflies",
    "oracle_total_butterflies",
)


def count_work(monkeypatch):
    calls = Counter()
    for name in WORK:
        def counted(*args, _name=name, _fn=getattr(oracle, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(oracle, name, counted)
    return calls


@pytest.mark.parametrize("a, b, enumerations", [(3, 4, 1), (40, 40, 0)])
def test_check_butterflies_colors_and_counts_once(monkeypatch, a, b, enumerations):
    g, _ = make_random_connected_bipartite(a, b, edge_prob=0.3, seed=9)
    res = count_butterflies(g, place_dispersed(g, range(g.node_count)))
    calls = count_work(monkeypatch)
    assert check_butterflies(g, res, 0) == []
    assert calls == Counter(oracle_coloring=1, _two_hop_counts=1, _enumerate=enumerations)


@pytest.mark.parametrize("b, enumerations", [(32, 1), (33, 0)], ids=["64-nodes", "65-nodes"])
def test_total_enumerates_up_to_64_nodes(monkeypatch, b, enumerations):
    g, _ = make_random_connected_bipartite(32, b, edge_prob=0.1, seed=3)
    calls = count_work(monkeypatch)
    oracle_total_butterflies(g)
    assert calls["_enumerate"] == enumerations


def test_public_oracles_keep_their_work(monkeypatch):
    # each public function colors on its own, and the total colors once
    # and hands that coloring to the counts and, on at most 64 nodes, to
    # the enumeration it checks
    calls = count_work(monkeypatch)
    for (g, _), enumerations in (
        (make_complete_bipartite(3, 4), 1),
        (make_random_connected_bipartite(40, 40, edge_prob=0.3, seed=9), 0),
    ):
        calls.clear()
        oracle.oracle_total_butterflies(g)
        assert calls == Counter(
            oracle_total_butterflies=1,
            oracle_coloring=1,
            _two_hop_counts=1,
            _enumerate=enumerations,
        )
        calls.clear()
        oracle.oracle_per_node_butterflies(g)
        assert calls == Counter(
            oracle_per_node_butterflies=1, oracle_coloring=1, _two_hop_counts=1
        )


def test_spanning_tree_checker_accepts_a_line():
    g, _ = make_path(4)
    # each node's port 0 leads toward node 0
    ports = {0: None, 1: 0, 2: 0, 3: 0}
    check = check_spanning_tree(g, ports, root=0)
    assert check.ok, check.problems
    assert check.diameter == 3
    assert check.height == 3


def test_spanning_tree_checker_accepts_a_deep_path():
    # rooted at its far end, node 0's parent chain runs the whole way: the
    # cycle check must not rescan it per step, which made this quadratic
    n = 8000
    g, _ = make_path(n)
    ports = {v: g.neighbors(v).index(v + 1) for v in range(n - 1)}
    ports[n - 1] = None
    check = check_spanning_tree(g, ports, root=n - 1)
    assert check.ok, check.problems
    assert check.height == check.diameter == n - 1
    assert check.depth[0] == n - 1


def test_spanning_tree_checker_diameter_of_star():
    g, _ = make_complete_bipartite(1, 5)
    ports = {0: None, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    check = check_spanning_tree(g, ports, root=0)
    assert check.ok
    assert check.diameter == 2


def test_spanning_tree_checker_rejects_two_roots():
    g, _ = make_path(4)
    check = check_spanning_tree(g, {0: None, 1: 0, 2: None, 3: 0}, root=0)
    assert not check.ok


def test_spanning_tree_checker_rejects_parent_cycle():
    g = make_clique(4)
    # 1 -> 2 -> 3 -> 1 orbits without ever reaching the root
    ports = {0: None, 1: 1, 2: 2, 3: 1}
    check = check_spanning_tree(g, ports, root=0)
    assert not check.ok
    assert check.problems == ("parent pointers cycle through node 1",)


def test_spanning_tree_checker_names_the_cycle_a_branch_hangs_off():
    # on the path 0-1-2-3, node 0 hangs off the cycle 1 -> 2 -> 1 and the
    # root 3 has no child: following parents from node 0 repeats node 1
    g, _ = make_path(4)
    check = check_spanning_tree(g, {0: 0, 1: 1, 2: 0, 3: None}, root=3)
    assert (check.ok, check.depth) == (False, None)
    assert check.problems == ("parent pointers cycle through node 1",)


def test_spanning_tree_checker_rejects_port_out_of_range():
    g, _ = make_path(4)
    check = check_spanning_tree(g, {0: None, 1: 0, 2: 0, 3: 5}, root=0)
    assert not check.ok
    # and parent maps that miss a node or name one the graph lacks
    for ports in ({0: None, 1: 0, 2: 0}, {0: None, 1: 0, 2: 0, 3: 0, 4: 0}):
        check = check_spanning_tree(g, ports, root=0)
        assert not check.ok
        assert check.problems == ("parent map does not cover every node exactly once",)
