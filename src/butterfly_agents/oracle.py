"""Centralized ground truth for the distributed protocols.

Everything here sees the whole graph at once and uses exact Python
integers:

* BFS two-coloring, which also rejects odd cycles and empty or
  disconnected graphs.
* Per-node butterfly counts by two-hop pairs.  B(v) sums C(c, 2) over the
  same-side nodes w != v, with c = |N(v) & N(w)|, in whichever of two
  exact formulations the graph makes cheaper.  On dense graphs c is the
  popcount of two neighbor bitmasks, once per same-side pair.  On sparse
  ones vertex priority (Wang et al., PVLDB 2019) finds each butterfly
  once, from its highest-ranked corner by (degree, index), so the cost
  follows the wedges of the graph, not the square of a side; see also
  the wedge view of Sanei-Mehri et al., KDD 2018.
* The total, checked three ways: both sides' per-node sums must agree and
  be even, and on graphs of at most 64 nodes the total must equal a
  direct four-node enumeration.  A failed self-check raises
  ``OracleMismatch``.
* A spanning-tree checker.
* The result checkers ``check_tree`` (a tree protocol's result) and
  ``check_butterflies`` (a counting run's, its election included), which
  return problem lines, ``[]`` when the result is right.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import comb

from .graphs import PortGraph

__all__ = [
    "NotBipartite",
    "OracleMismatch",
    "oracle_coloring",
    "oracle_per_node_butterflies",
    "oracle_total_butterflies",
    "enumerate_butterflies",
    "TreeCheck",
    "check_spanning_tree",
    "diff_per_node",
    "check_tree",
    "check_butterflies",
]


class NotBipartite(ValueError):
    """The graph contains an odd cycle."""


class OracleMismatch(RuntimeError):
    """Two of the oracle's independent butterfly computations disagree."""


def oracle_coloring(g: PortGraph) -> list[int]:
    """Two-color a connected graph by BFS from node 0; color[0] = 0.

    Raises NotBipartite if any edge joins two nodes of the same color, and
    ValueError if the graph is empty or disconnected.
    """
    n = g.node_count
    if n == 0:
        raise ValueError("oracle_coloring requires a non-empty graph")
    color = [-1] * n
    color[0] = 0
    queue = [0]
    while queue:
        nxt = []
        for v in queue:
            for u, _ in g.adjacency[v]:
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    nxt.append(u)
                elif color[u] == color[v]:
                    raise NotBipartite(f"edge ({v}, {u}) joins same-color nodes")
        queue = nxt
    if any(c == -1 for c in color):
        raise ValueError("oracle_coloring requires a connected graph")
    return color


def oracle_per_node_butterflies(g: PortGraph) -> list[int]:
    """B(v) for every node: butterflies (2x2 bicliques) through v.

    B(v) = sum over same-side w != v of C(c, 2), c = |N(v) & N(w)|.  The
    count takes whichever of two exact formulations touches fewer items:
    a popcount per same-side pair, or vertex-priority wedge tallies.
    The coloring runs first, so a graph with an odd cycle raises
    NotBipartite and a disconnected one ValueError.
    """
    return _two_hop_counts(g, oracle_coloring(g))


def _two_hop_counts(g: PortGraph, color: list[int]) -> list[int]:
    """``oracle_per_node_butterflies`` given the graph's coloring.

    The mask formulation visits the sum over sides s of C(|s|, 2) same-side
    pairs.  The priority formulation tallies at most one end per two-hop
    walk v-u-w, and there are sum over v of deg(v)^2 of those, so the
    masks run unless that sum is smaller.  Ties go to the masks.
    """
    n = len(color)
    ones = sum(color)
    side_pairs = comb(n - ones, 2) + comb(ones, 2)
    walk_steps = sum(len(row) ** 2 for row in g.adjacency)
    if side_pairs <= walk_steps:
        return _pair_counts(g, color)
    return _priority_counts(g)


def _pair_counts(g: PortGraph, color: list[int]) -> list[int]:
    """B(v) over every same-side pair v < w: c is the popcount of
    ``mask[v] & mask[w]``, where bit u of ``mask[x]`` is set when u is a
    neighbor of x, and C(c, 2) is added to both B(v) and B(w)."""
    mask = [sum(1 << u for u, _ in row) for row in g.adjacency]
    counts = [0] * len(mask)
    for side in (0, 1):
        nodes = [v for v, c in enumerate(color) if c == side]
        for i, v in enumerate(nodes):
            mv = mask[v]
            through_v = 0
            for w in nodes[i + 1 :]:
                c = (mv & mask[w]).bit_count()
                if c > 1:
                    pair = c * (c - 1) // 2
                    through_v += pair
                    counts[w] += pair
            counts[v] += through_v
    return counts


def _priority_counts(g: PortGraph) -> list[int]:
    """B(v) by vertex priority (Wang et al., PVLDB 2019): nodes rank by
    (degree, index), and each butterfly is found once, from its
    highest-ranked corner u.  The mids are u's lower-ranked neighbors v;
    the ends are the neighbors w of a mid ranked below u, a prefix of v's
    rank-sorted neighbor list.  An end reached from c mids closes C(c, 2)
    butterflies, added to u and to w, and each mid is on c - 1 of them per
    end it reaches.  A node with fewer than two lower-ranked neighbors
    tops no butterfly and is skipped."""
    degree = g.degrees
    order = sorted(range(len(degree)), key=degree.__getitem__)
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    # from here on a node is named by its rank: nbrs[u] holds the ranks of
    # the neighbors of the node ranked u, ascending
    nbrs = [sorted([rank[w] for w, _ in g.adjacency[v]]) for v in order]
    by_rank = [0] * len(order)
    for u, row in enumerate(nbrs):
        cut = bisect_left(row, u)
        if cut < 2:
            continue
        mids = row[:cut]
        ends = [nbrs[v][: bisect_left(nbrs[v], u)] for v in mids]
        flat = list(chain.from_iterable(ends))
        if len(set(flat)) == len(flat):  # no end reached twice: no butterfly
            continue
        tally = Counter(flat)
        through_u = 0
        for w, c in tally.items():
            if c > 1:
                pair = c * (c - 1) // 2
                through_u += pair
                by_rank[w] += pair
        by_rank[u] += through_u
        for v, row_v in zip(mids, ends):
            by_rank[v] += sum(map(tally.__getitem__, row_v)) - len(row_v)
    return [by_rank[r] for r in rank]


def enumerate_butterflies(g: PortGraph) -> int:
    """Count butterflies by brute force over all A-pairs x B-pairs."""
    return _enumerate(g, oracle_coloring(g))


def _enumerate(g: PortGraph, color: list[int]) -> int:
    """``enumerate_butterflies`` given the graph's coloring."""
    a_nodes = [v for v in range(g.node_count) if color[v] == 0]
    b_nodes = [v for v in range(g.node_count) if color[v] == 1]
    nbrs = [set(g.neighbors(v)) for v in range(g.node_count)]
    total = 0
    for i, u in enumerate(a_nodes):
        for w in a_nodes[i + 1 :]:
            for j, x in enumerate(b_nodes):
                if x not in nbrs[u] or x not in nbrs[w]:
                    continue
                for y in b_nodes[j + 1 :]:
                    if y in nbrs[u] and y in nbrs[w]:
                        total += 1
    return total


def oracle_total_butterflies(g: PortGraph) -> int:
    """Total butterfly count.

    Computed as half the sum of per-node counts over one side.  Raises
    OracleMismatch unless it agrees with the other side's half-sum, the
    side sum is even, and, on graphs of at most 64 nodes, the direct
    four-node enumeration gives the same total.
    """
    color = oracle_coloring(g)
    return _checked_total(g, color, _two_hop_counts(g, color))


def _checked_total(g: PortGraph, color: list[int], per_node: list[int]) -> int:
    """Half one side's sum of ``per_node`` after the self-checks, the graph
    colored ``color``; on graphs of at most 64 nodes it enumerates too."""
    sum_a = sum(b for v, b in enumerate(per_node) if color[v] == 0)
    sum_b = sum(b for v, b in enumerate(per_node) if color[v] == 1)
    if sum_a != sum_b:
        raise OracleMismatch(f"side sums disagree: {sum_a} vs {sum_b}")
    if sum_a % 2 != 0:
        raise OracleMismatch(f"side sum {sum_a} is odd")
    total = sum_a // 2
    if g.node_count <= 64:
        enumerated = _enumerate(g, color)
        if enumerated != total:
            raise OracleMismatch(
                f"two-hop count gives {total}, enumeration gives {enumerated}"
            )
    return total


# ---------------------------------------------------------------------------
# spanning-tree checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeCheck:
    ok: bool
    problems: tuple[str, ...]
    depth: dict[int, int] | None  # node -> distance from root, when ok
    height: int | None  # max depth
    diameter: int | None  # longest path within the tree, when ok


def check_spanning_tree(
    g: PortGraph, parent_port: dict[int, int | None], root: int
) -> TreeCheck:
    """Verify that per-node parent ports describe a spanning tree of ``g``.

    ``parent_port[v]`` is the port at node ``v`` leading to its parent, or
    None exactly for the root.  Checks edge validity, a single root, that
    following parents from every node reaches the root (acyclicity +
    connectivity), and computes depth and diameter.
    """
    problems: list[str] = []
    n = g.node_count
    if set(parent_port) != set(range(n)):
        problems.append("parent map does not cover every node exactly once")
        return TreeCheck(False, tuple(problems), None, None, None)
    roots = [v for v, p in parent_port.items() if p is None]
    if roots != [root]:
        problems.append(f"expected single root {root}, found roots {roots}")
    parent_of: dict[int, int] = {}
    for v, p in parent_port.items():
        if p is None:
            continue
        if not (0 <= p < g.degree(v)):
            problems.append(f"node {v}: parent port {p} out of range")
            continue
        parent_of[v] = g.adjacency[v][p][0]
    if problems:
        return TreeCheck(False, tuple(problems), None, None, None)

    # past the checks above, every node but the root is a key of parent_of
    depth: dict[int, int] = {root: 0}
    for v in range(n):
        path = []
        on_path = set()
        x = v
        while x not in depth:
            if x in on_path:
                problems.append(f"parent pointers cycle through node {x}")
                return TreeCheck(False, tuple(problems), None, None, None)
            path.append(x)
            on_path.add(x)
            x = parent_of[x]
        base = depth[x]
        for i, y in enumerate(reversed(path)):
            depth[y] = base + i + 1

    # depth holds every parent before its children, so in reverse each
    # node's longest downward path is final before its parent reads it;
    # the diameter is the best sum of a node's two deepest branches
    down = dict.fromkeys(depth, 0)
    diameter = 0
    for v in reversed(depth):
        if v in parent_of:
            u = parent_of[v]
            reach = down[v] + 1
            diameter = max(diameter, down[u] + reach)
            down[u] = max(down[u], reach)
    height = max(depth.values())
    return TreeCheck(True, (), depth, height, diameter)


# ---------------------------------------------------------------------------
# result checking
# ---------------------------------------------------------------------------


def diff_per_node(got: dict[int, int], want: dict[int, int]) -> list[str]:
    """Line-per-node mismatches between a counted and an expected mapping."""
    return [
        f"node {key}: counted {got.get(key)}, expected {want.get(key)}"
        for key in sorted(set(got) | set(want))
        if got.get(key) != want.get(key)
    ]


def check_tree(g: PortGraph, result, leader: int) -> list[str]:
    """Problems with a tree protocol's ``TreeResult``: leader and root must
    be ``leader``, the parent ports a spanning tree, each side the agent's
    oracle color relative to the root's (on an odd-cycle graph, its tree
    depth's parity), the payload the graph's, each received tuple the
    payload's.  [] when all hold."""
    try:
        color = oracle_coloring(g)
    except NotBipartite:
        color = None
    return _check_tree(g, result, leader, color)


def _check_tree(g: PortGraph, result, leader: int, color: list[int] | None) -> list[str]:
    """``check_tree`` given the graph's coloring, None on an odd-cycle graph."""
    tree, payload = result.tree, result.payload
    home = tree.home_node
    problems = []
    if result.leader_id != leader:
        problems.append(f"leader {result.leader_id}, expected {leader}")
    if tree.root_id != leader:
        problems.append(f"tree root {tree.root_id}, expected {leader}")
    root = home[tree.root_id]
    chk = check_spanning_tree(g, tree.node_parent_ports(), root)
    problems += chk.problems
    if color is not None:
        level = dict(enumerate(color))
    else:
        level = chk.depth or {}  # a broken tree is reported above
    if level:
        for aid, got in sorted(result.partition.items()):
            side = (level[home[aid]] - level[root]) % 2
            if got != side:
                problems.append(f"agent {aid}: partition {got}, expected {side}")
    want = (payload.n, payload.count0, payload.count1, payload.max_degree, payload.degree_sum)
    sides = list(result.partition.values())
    truth = (g.node_count, sides.count(0), sides.count(1), g.max_degree, 2 * g.edge_count)
    for name, got, has in zip(("n", "count0", "count1", "max_degree", "degree_sum"), want, truth):
        if got != has:
            problems.append(f"payload {name}={got}, graph has {has}")
    for aid in sorted(home):
        got = result.received.get(aid)
        if got != want:
            problems.append(f"agent {aid}: received {got}, expected {want}")
    return problems


def check_butterflies(g: PortGraph, result, leader: int) -> list[str]:
    """Problems with a counting run's ``ButterflyCount``: total and per-node
    counts against the oracle, each side's sum against twice the total, and
    ``check_tree`` on its election.  [] when all hold.  The coloring and the
    per-node counts are computed once and shared by all three checks."""
    problems = []
    color = oracle_coloring(g)
    per_node = _two_hop_counts(g, color)
    want_total = _checked_total(g, color, per_node)
    if result.total != want_total:
        problems.append(f"total {result.total}, oracle says {want_total}")
    home = result.election.tree.home_node
    got = {home[aid]: c for aid, c in result.per_node.items()}
    problems += diff_per_node(got, dict(enumerate(per_node)))
    part = result.election.partition
    half = tuple(sum(c for a, c in result.per_node.items() if part[a] == s) for s in (0, 1))
    if half != (2 * result.total, 2 * result.total):
        problems.append(f"side sums {half} != twice the total {2 * result.total}")
    return problems + _check_tree(g, result.election, leader, color)
