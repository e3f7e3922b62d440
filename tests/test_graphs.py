"""Graph construction, validation, and the text round-trip."""

import array
import hashlib
import random
import re
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from butterfly_agents import graphs
from butterfly_agents.graphs import (
    SIDE_A,
    SIDE_B,
    Bipartition,
    GraphFormatError,
    PortGraph,
    build_port_graph,
    load_graph,
    make_clique,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
    save_graph,
    unreachable_count,
    validate,
)


def test_complete_bipartite_shape():
    g, bip = make_complete_bipartite(3, 4)
    assert g.node_count == 7
    assert g.edge_count == 12
    assert g.degrees == (4, 4, 4, 3, 3, 3, 3)
    assert g.max_degree == 4
    assert bip.side == (0, 0, 0, 1, 1, 1, 1)
    assert validate(g) == []


def test_path_shape():
    g, bip = make_path(5)
    assert g.degrees == (1, 2, 2, 2, 1)
    assert g.edge_count == 4
    # colors alternate along the line
    assert bip.side == (0, 1, 0, 1, 0)
    assert validate(g) == []


def test_clique_shape():
    g = make_clique(5)
    assert g.degrees == (4,) * 5
    assert g.edge_count == 10
    assert validate(g) == []


def test_port_reciprocity():
    g, _ = make_complete_bipartite(2, 3)
    for v in range(g.node_count):
        for p in range(g.degree(v)):
            w, q = g.neighbor_via(v, p)
            assert g.neighbor_via(w, q) == (v, p)


def test_neighbors_listing():
    g, _ = make_path(3)
    assert g.neighbors(1) == (0, 2)
    assert g.neighbors(0) == (1,)


def test_random_bipartite_is_connected_and_two_colored():
    g, bip = make_random_connected_bipartite(6, 9, edge_prob=0.3, seed=17)
    assert g.node_count == 15
    assert validate(g) == []
    for v in range(g.node_count):
        for w in g.neighbors(v):
            assert bip.side[v] != bip.side[w]


def test_random_bipartite_seed_reproducible():
    g1, _ = make_random_connected_bipartite(5, 7, edge_prob=0.4, seed=3)
    g2, _ = make_random_connected_bipartite(5, 7, edge_prob=0.4, seed=3)
    assert g1.adjacency == g2.adjacency


def test_build_rejects_self_loop():
    with pytest.raises(ValueError):
        build_port_graph(2, [(0, 0)])


def test_build_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError):
        build_port_graph(2, [(0, 5)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        build_port_graph(2, [(0, 1), (1, 0)])


def test_build_rejects_bad_port_order():
    with pytest.raises(ValueError, match="bad port order for node 0"):
        build_port_graph(3, [(0, 1), (0, 2)], {0: [1, 1]})


@pytest.mark.parametrize("make", [
    lambda: make_complete_bipartite(0, 2),
    lambda: make_random_connected_bipartite(2, 0, edge_prob=0.5, seed=1),
    lambda: make_path(1),
    lambda: make_clique(1),
], ids=["complete", "random", "path", "clique"])
def test_generators_reject_too_few_nodes(make):
    with pytest.raises(ValueError, match="at least"):
        make()


@pytest.mark.parametrize("adjacency, problem", [
    ((((2, 0),), ((0, 0),)), "node 0 port 0: neighbor 2 out of range"),
    ((((0, 0),),), "node 0 port 0: self-loop"),
    ((((1, 0), (1, 1)), ((0, 0), (0, 1))), "node 0: duplicate edge to 1"),
    ((((1, 3),), ((0, 0),)), "node 0 port 0: reciprocal port 3 out of range at 1"),
    ((((1, 0),), ((0, 0), (2, 0)), ((1, 0),)),
     "port inconsistency: 2.0 -> (1, 0) but 1.0 -> (0, 0)"),
], ids=["neighbor-range", "self-loop", "duplicate", "reciprocal-range", "inconsistent"])
def test_validate_names_each_port_fault(adjacency, problem):
    assert problem in validate(PortGraph(adjacency=adjacency))


def test_the_empty_graph_has_no_unreachable_node():
    empty = PortGraph(())
    assert unreachable_count(empty) == 0
    assert validate(empty) == []


def test_save_load_round_trip(tmp_path):
    g, bip = make_random_connected_bipartite(4, 5, edge_prob=0.5, seed=9)
    path = str(tmp_path / "g.graph")
    save_graph(path, g, bip)
    g2, bip2 = load_graph(path)
    # the format keeps the edge set and the sides; B-side ports may be
    # renumbered, so compare by neighbor sets rather than adjacency rows
    assert bip2.side == bip.side
    assert validate(g2) == []
    for v in range(g.node_count):
        assert sorted(g2.neighbors(v)) == sorted(g.neighbors(v))
    # a second trip through the format is a fixed point
    path2 = str(tmp_path / "g2.graph")
    save_graph(path2, g2, bip2)
    g3, _ = load_graph(path2)
    assert g3.adjacency == g2.adjacency


def test_save_requires_a_side_nodes_first(tmp_path):
    g, _ = make_path(2)
    with pytest.raises(ValueError, match="A-side nodes numbered first"):
        save_graph(str(tmp_path / "g.graph"), g, Bipartition(side=(SIDE_B, SIDE_A)))


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("whatever 3\n")
    with pytest.raises(GraphFormatError):
        load_graph(str(path))
    # every other malformed file, each with the message that names its fault
    with pytest.raises(GraphFormatError, match="^cannot read .*missing.graph"):
        load_graph(str(tmp_path / "missing.graph"))
    for content, message in (
        (b"", "empty file"),
        (b" \n\n", "empty file"),
        (b"a b c\n", "non-integer header"),
        (b"0 2 0\n", "header values out of range"),
        (b"2 0 0\n", "header values out of range"),
        (b"1 1 -1\n", "header values out of range"),
        (b"2 2 2\n0 0\n", "header promises 2 edges, file has 1"),
        (b"2 2 1\n0\n", "bad edge line '0'"),
        (b"2 2 1\n0 x\n", "bad edge line '0 x'"),
        (b"2 2 2\n0 0\n0 0\n", r"duplicate edge \(0, 0\)"),
        (b"2 2 2\n0 0\n1 1\n", "invalid graph: graph is disconnected"),
        (b"\xff\xfe 2 2 1\n0 0\n", "not UTF-8 text"),
    ):
        path.write_bytes(content)
        with pytest.raises(GraphFormatError, match=f"^{re.escape(str(path))}: {message}"):
            load_graph(str(path))


def test_load_rejects_edge_out_of_range(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 2 1\n0 5\n")
    with pytest.raises(GraphFormatError):
        load_graph(str(path))


# (a, b, edge_prob, seed) -> sha256 of repr(adjacency).  The first five were
# computed at commit 72851b7, when the augmentation ranking was still a list
# of (i, j) tuples and every shuffle was rng.shuffle; the first two need
# augmentation and the third has edge_prob = 1.  The last two are the dense
# benchmark's p = 0.5 shapes, computed while the generator still called
# rng.shuffle: both are connected after the draws, so their ranking is
# shuffled but never read.
PINNED_ADJACENCY = {
    (1024, 1024, 0.005, 11): "5b928a63efe0a422dd7a387249391021dd2dd049752e80b7bc3ae4acdd0cb191",
    (40, 60, 0.02, 7): "723b586cd8862964ddce4f7f294927171248ca92efcf4aa693e814d06a620f73",
    (9, 13, 1.0, 2): "4c86489791b9329ce9012536eb9babc0e76d8e8be4bc0466f0ce3d4d49fc7952",
    (1, 17, 0.3, 5): "6a9d5c01edab8ad5ccbcab477c589f87916760051b071265af3ac7667446f471",
    (64, 48, 0.1, 1234): "689be6b486e73eff624cb5d3195c488bd45cd635aa7dd0baecd05a53563e7f21",
    (96, 96, 0.5, 1): "917b1a5f727375b3f4a54a4f27cf9961661188fee9dacca2b33be371cd4a6019",
    (80, 112, 0.5, 2): "d82421211042c73561967d2098870443f8ec0238cc34cfc44fb0c6744fe22686",
}


@pytest.mark.parametrize("call", sorted(PINNED_ADJACENCY), ids=str)
def test_random_bipartite_adjacency_is_pinned(call):
    a, b, prob, seed = call
    g, _ = make_random_connected_bipartite(a, b, edge_prob=prob, seed=seed)
    digest = hashlib.sha256(repr(g.adjacency).encode("utf-8")).hexdigest()
    assert digest == PINNED_ADJACENCY[call]


# Each side of a bit-width boundary of the rejection draws, past the small
# sizes that cover every width up to 7 bits.
SHUFFLE_SIZES = [*range(70), 127, 128, 129, 255, 256, 257, 4095, 4096, 4097]


@pytest.mark.parametrize("kind", ["list", "array"])
def test_shuffle_is_the_stdlib_shuffle(kind):
    # The pins above rest on _shuffle drawing exactly as random.shuffle
    # does; a Python whose random draws differently fails here by name.
    make = list if kind == "list" else (lambda r: array.array("I", r))
    for size in SHUFFLE_SIZES:
        for seed in range(5):
            ours, stdlib = make(range(size)), make(range(size))
            ours_rng, stdlib_rng = random.Random(seed), random.Random(seed)
            graphs._shuffle(ours_rng, ours)
            stdlib_rng.shuffle(stdlib)
            assert ours == stdlib, (size, seed)
            assert ours_rng.getstate() == stdlib_rng.getstate(), (size, seed)


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=8),
    b=st.integers(min_value=1, max_value=8),
    prob=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_random_bipartite_always_valid(a, b, prob, seed):
    g, bip = make_random_connected_bipartite(a, b, edge_prob=prob, seed=seed)
    assert validate(g) == []
    assert len(bip.side) == a + b
    assert sum(1 for s in bip.side if s == 0) == a


def test_random_bipartite_ranking_takes_four_bytes_a_pair():
    # 256 + 256 at p = 0.005 needs augmentation.  The ranking's 4·a·b =
    # 256 KiB is the one Θ(a·b) allocation; everything else (draws,
    # union-find, the port graph) measured 428 KiB on CPython 3.11, budgeted
    # below at 560 KiB.  With an 8-byte ranking the peak was 945 KiB.
    a, b, prob, seed = 256, 256, 0.005, 3
    rng = random.Random(seed)
    drawn = sum(rng.random() < prob for _ in range(a * b))
    g, _ = make_random_connected_bipartite(a, b, edge_prob=prob, seed=seed)
    assert g.edge_count > drawn  # the ranking was walked
    # That first call also filled the interpreter's tuple free lists, so the
    # traced one's peak does not depend on which tests ran before.
    tracemalloc.start()
    try:
        make_random_connected_bipartite(a, b, edge_prob=prob, seed=seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * a * b + 560 * 1024


def test_random_bipartite_ranking_is_freed_before_the_graph_build(monkeypatch):
    # The ranking is needed only by the augmentation loop; the port draws
    # and build_port_graph must not run with its 4·a·b bytes still alive.
    class Ranking(array.array):  # a plain array takes no weak references
        pass

    refs = []

    def tracked_array(*args):
        ranking = Ranking(*args)
        refs.append(weakref.ref(ranking))
        return ranking

    alive_at_build = []
    build = graphs.build_port_graph

    def watched_build(*args, **kwargs):
        alive_at_build.extend(ref() is not None for ref in refs)
        return build(*args, **kwargs)

    monkeypatch.setattr(graphs, "array", tracked_array)
    monkeypatch.setattr(graphs, "build_port_graph", watched_build)
    a, b, prob, seed = 256, 256, 0.005, 3
    g, _ = make_random_connected_bipartite(a, b, edge_prob=prob, seed=seed)
    assert validate(g) == []
    assert alive_at_build == [False]


def test_random_bipartite_rejects_more_than_2_32_pairs_before_any_draw(monkeypatch):
    class Drew(Exception):
        pass

    def no_draws(seed):
        raise Drew

    monkeypatch.setattr(graphs.random, "Random", no_draws)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        make_random_connected_bipartite(1 << 16, (1 << 16) + 1, 0.5, 0)
    with pytest.raises(Drew):  # exactly 2**32 pairs passes the check
        make_random_connected_bipartite(1 << 16, 1 << 16, 0.5, 0)
