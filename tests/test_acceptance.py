"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.

Pinned constants: the round and memory bounds for the election are linear
laws with implementation-defined constants.  The values pinned here were
chosen with roughly 2x headroom over the worst case measured on this
implementation (descending ids on a 200-node path: rounds = 8.0 * n * L;
200-node clique: peak = 15.2 * L bits) and are reported alongside the
measured maxima by the verdict lines.
"""

import math
import random
import time

import pytest

from butterfly_agents.graphs import (
    build_port_graph,
    make_clique,
    make_complete_bipartite,
    make_path,
    make_random_connected_bipartite,
)
from butterfly_agents.oracle import (
    NotBipartite,
    check_spanning_tree,
    enumerate_butterflies,
    oracle_coloring,
    oracle_per_node_butterflies,
    oracle_total_butterflies,
)
from butterfly_agents.protocols.butterfly import count_butterflies
from butterfly_agents.protocols.election import elect_leader_and_tree
from butterfly_agents.protocols.known_leader import known_leader_tree
from butterfly_agents.protocols.meeting import (
    MeetingWindowProgram,
    first_separation,
    make_meeting_id,
    simulate_pair,
    window_length,
)
from butterfly_agents.runtime import id_bits, place_dispersed, run

C_ELECTION_ROUNDS = 16  # rounds <= C * n * L
C_ELECTION_MEMORY = 24  # peak bits per agent <= C' * L


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


def random_connected_general(rng: random.Random, n: int):
    """Random connected graph, not necessarily two-colorable."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, n):
        u, v = nodes[i], nodes[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for _ in range(rng.randint(1, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return build_port_graph(n, sorted(edges))


# ---------------------------------------------------------------------------
# A1: two adjacent searchers always co-locate within one aligned window
# ---------------------------------------------------------------------------


def test_a1_meeting_window_exhaustive():
    start = time.monotonic()
    lam = 255
    misses = 0
    for a in range(lam + 1):
        u = make_meeting_id(a, lam)
        for b in range(lam + 1):
            if a == b:
                continue
            if not simulate_pair(u, make_meeting_id(b, lam)):
                misses += 1

    # engine spot checks: the slot algebra and the simulator must agree
    rng = random.Random(1)
    engine_ok = True
    for _ in range(25):
        a, b = rng.sample(range(lam + 1), 2)
        g, _ = make_path(2)
        cfg = place_dispersed(g, [a, b], lam=lam)
        prog = MeetingWindowProgram({a: 0, b: 0})
        run(g, cfg, prog)
        if not prog.meetings or max(m[0] for m in prog.meetings) >= window_length(lam):
            engine_ok = False

    # worked pair: ids 0b0010 and 0b0110 under bound 15; the only visit of
    # agent 2 to agent 6 falls in slot 6 (7th from the LSB), window round 13
    u, v = make_meeting_id(2, 15), make_meeting_id(6, 15)
    sep_ok = first_separation(u, v) == 6
    g, _ = make_path(2)
    cfg = place_dispersed(g, [2, 6], lam=15)
    prog = MeetingWindowProgram({2: 0, 6: 0})
    run(g, cfg, prog)
    visits_2_to_6 = [m for m in prog.meetings if m[1:] == (2, 6)]
    pair_ok = sep_ok and visits_2_to_6 == [(13, 2, 6)]

    elapsed = time.monotonic() - start
    verdict(
        "A1",
        misses == 0 and engine_ok and pair_ok and elapsed < 10,
        f"65280/65280 ordered id pairs under bound 255 met within one "
        f"{window_length(255)}-round window; ids (2, 6) meet at slot 6, "
        f"round 13; {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# A2: known-leader partition matches the coloring, assigned within 4n rounds
# ---------------------------------------------------------------------------


def test_a2_known_leader_partition():
    rng = random.Random(42)
    mismatches = 0
    worst_ratio = 0.0
    for i in range(50):
        n = rng.randint(4, 200)
        a = rng.randint(1, n - 1)
        b = n - a
        g, _ = make_random_connected_bipartite(a, b, edge_prob=rng.random(), seed=i)
        ids = rng.sample(range(2 * n), n)
        cfg = place_dispersed(g, ids)
        leader = min(ids)
        res = known_leader_tree(g, cfg, leader_id=leader)

        color = oracle_coloring(g)
        flip = color[ids.index(leader)]
        for node, agent in enumerate(ids):
            if res.partition[agent] != color[node] ^ flip:
                mismatches += 1
        assigned = res.report.rounds_per_phase["assignment"]
        worst_ratio = max(worst_ratio, assigned / n)
        assert assigned <= 4 * n, (i, assigned, n)

    verdict(
        "A2",
        mismatches == 0,
        f"50 random bipartite graphs, n in [4, 200]: 0 partition mismatches, "
        f"assignment at worst {worst_ratio:.2f}n rounds (allowed 4n)",
    )


# ---------------------------------------------------------------------------
# A3/A4/A7 share one batch of 50 elections
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def election_batch():
    rng = random.Random(2024)
    lam = 1023  # ids up to 2**10 - 1, so id width is always 10
    batch = []
    for i in range(50):
        kind = ("bipartite",) * 30 + ("general",) * 12 + ("clique",) * 8
        k = kind[i]
        if k == "bipartite":
            n = rng.randint(4, 200)
            a = rng.randint(1, n - 1)
            g, _ = make_random_connected_bipartite(a, n - a, edge_prob=rng.random(), seed=i)
        elif k == "general":
            g = random_connected_general(rng, rng.randint(5, 150))
        else:
            g = make_clique(rng.choice([4, 8, 16, 40, 90, 140, 200, 64]))
        n = g.node_count
        ids = rng.sample(range(lam + 1), n)
        cfg = place_dispersed(g, ids, lam=lam)
        res = elect_leader_and_tree(g, cfg)
        try:
            color = oracle_coloring(g)
        except NotBipartite:
            color = None
        batch.append(
            {
                "graph": g,
                "ids": ids,
                "states": cfg.states,
                "res": res,
                "color": color,
                "lam": lam,
            }
        )
    return batch


def test_a3_election_structure_and_bounds(election_batch):
    lam = election_batch[0]["lam"]
    lw = id_bits(lam)
    worst_c = 0.0
    worst_cmem = 0.0
    for rec in election_batch:
        g, ids, res = rec["graph"], rec["ids"], rec["res"]
        n = g.node_count
        assert res.leader_id == min(ids)
        root_node = ids.index(res.leader_id)
        check = check_spanning_tree(g, res.tree.node_parent_ports(), root=root_node)
        assert check.ok, check.problems
        assert all(s.treelabel == res.leader_id for s in rec["states"])

        worst_c = max(worst_c, res.report.rounds_total / (n * lw))
        peak = max(res.report.peak_memory_bits.values())
        worst_cmem = max(worst_cmem, peak / lw)

    verdict(
        "A3",
        worst_c <= C_ELECTION_ROUNDS and worst_cmem <= C_ELECTION_MEMORY,
        f"50 elections (bipartite, general, cliques; n ≤ 200, ids ≤ 1023): "
        f"unique min-id leader, spanning tree, unanimous labels on all; "
        f"rounds ≤ {worst_c:.2f}·n·L (pinned {C_ELECTION_ROUNDS}), "
        f"peak ≤ {worst_cmem:.1f}·L bits (pinned {C_ELECTION_MEMORY})",
    )


def test_a4_tree_diameter_on_bipartite_instances(election_batch):
    checked = 0
    worst = 0.0
    for rec in election_batch:
        if rec["color"] is None:
            continue
        g, ids, res = rec["graph"], rec["ids"], rec["res"]
        side_a = sum(1 for c in rec["color"] if c == 0)
        bound = 2 * min(side_a, g.node_count - side_a)
        root_node = ids.index(res.leader_id)
        check = check_spanning_tree(g, res.tree.node_parent_ports(), root=root_node)
        assert check.diameter <= bound, (check.diameter, bound)
        worst = max(worst, check.diameter / bound)
        checked += 1
    verdict(
        "A4",
        checked > 0,
        f"{checked} bipartite election trees: diameter ≤ 2·min(|A|,|B|) "
        f"everywhere (worst {worst:.2f} of the bound)",
    )


def test_a7_aggregate_delivery(election_batch):
    checked = 0
    for rec in election_batch:
        if rec["color"] is None:
            continue
        g, ids, res = rec["graph"], rec["ids"], rec["res"]
        color = rec["color"]
        root_color = color[ids.index(res.leader_id)]
        leader_side = sum(1 for c in color if c == root_color)
        other_side = g.node_count - leader_side
        want = (
            g.node_count,
            leader_side,
            other_side,
            g.max_degree,
            2 * g.edge_count,
        )
        assert res.received == {a: want for a in ids}, want
        checked += 1
    verdict(
        "A7",
        checked > 0,
        f"{checked} bipartite elections: every agent received "
        f"(n, |A|, |B|, max degree, doubled edge count) exactly",
    )


# ---------------------------------------------------------------------------
# A5/A6 share one batch of butterfly pipelines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def butterfly_batch():
    rng = random.Random(77)
    started = time.monotonic()
    instances = []

    for i in range(100):
        a, b = rng.randint(2, 64), rng.randint(2, 64)
        g, _ = make_random_connected_bipartite(a, b, edge_prob=rng.random(), seed=i)
        instances.append(g)
    for a in range(1, 13):
        for b in range(1, 13):
            g, _ = make_complete_bipartite(a, b)
            instances.append(g)
    for k in (2, 3, 5, 9, 17):
        g, _ = make_path(k)
        instances.append(g)

    batch = []
    for g in instances:
        n = g.node_count
        ids = rng.sample(range(2 * n + 2), n)
        cfg = place_dispersed(g, ids)
        res = count_butterflies(g, cfg)
        batch.append({"graph": g, "ids": ids, "res": res})
    return batch, time.monotonic() - started


def test_a5_butterfly_counts_exact(butterfly_batch):
    batch, elapsed = butterfly_batch
    kab = 0
    for rec in batch:
        g, ids, res = rec["graph"], rec["ids"], rec["res"]
        per_node = oracle_per_node_butterflies(g)
        assert res.total == oracle_total_butterflies(g)
        assert res.per_node == {agent: per_node[node] for node, agent in enumerate(ids)}

        color = oracle_coloring(g)
        side_a = sum(1 for c in color if c == 0)
        min_side = min(side_a, g.node_count - side_a)
        per = res.report.rounds_per_phase
        for key in ("neighbor_scan_a", "wedge_count_a", "neighbor_scan_b", "wedge_count_b"):
            assert per[key] <= 2 * g.max_degree, (key, per[key], g.max_degree)
        assert per["total_fold"] + per["total_push"] <= 8 * min_side + 4

        degs = set(g.degrees)
        if len(degs) <= 2 and g.edge_count == side_a * (g.node_count - side_a):
            a, b = side_a, g.node_count - side_a
            assert res.total == math.comb(a, 2) * math.comb(b, 2)
            kab += 1

    verdict(
        "A5",
        elapsed < 60,
        f"{len(batch)} pipelines (100 random ≤ 64+64, all K_a,b for a,b ≤ 12, "
        f"paths): totals and per-node counts exact, {kab} complete-bipartite "
        f"totals match the closed form, phase budgets respected; {elapsed:.1f}s",
    )


def test_a6_half_sum_identity(butterfly_batch):
    batch, _ = butterfly_batch
    for rec in batch:
        res = rec["res"]
        sums = {0: 0, 1: 0}
        for agent, count in res.per_node.items():
            sums[res.election.partition[agent]] += count
        assert sums[0] == sums[1] == 2 * res.total
    verdict(
        "A6",
        True,
        f"{len(batch)} instances: each side's per-node counts sum to exactly "
        f"twice the total",
    )


# ---------------------------------------------------------------------------
# A8: byte-identical reruns; the two oracle methods agree on small graphs
# ---------------------------------------------------------------------------


def test_a8_determinism_and_oracle_self_check():
    g, _ = make_random_connected_bipartite(9, 11, edge_prob=0.4, seed=5)
    ids = random.Random(5).sample(range(64), 20)

    def pipeline():
        cfg = place_dispersed(g, ids)
        res = count_butterflies(g, cfg, record_trace=True)
        return res.total, res.per_node, res.report.to_json(), tuple(res.trace)

    first, second = pipeline(), pipeline()
    runs_identical = first == second

    rng = random.Random(99)
    oracle_agrees = True
    checked = 0
    for i in range(20):
        a = rng.randint(2, 32)
        b = rng.randint(2, min(32, 64 - a))
        g2, _ = make_random_connected_bipartite(a, b, edge_prob=rng.random(), seed=i)
        if oracle_total_butterflies(g2) != enumerate_butterflies(g2):
            oracle_agrees = False
        checked += 1

    verdict(
        "A8",
        runs_identical and oracle_agrees,
        f"pipeline reruns byte-identical (report JSON and full trace); "
        f"two-hop count and four-corner enumeration agree on {checked} "
        f"graphs ≤ 64 nodes",
    )
