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
  the wedge view of Sanei-Mehri et al., KDD 2018.  It is one pass in
  rank order: each node's lower-ranked neighbors are lists that grow as
  the tops go by, so no neighbor list is sorted or searched.
* The total, checked three ways: both sides' per-node sums must agree and
  be even, and on graphs of at most 64 nodes the total must equal a
  direct four-node enumeration.  A failed self-check raises
  ``OracleMismatch``.
* A linear spanning-tree checker: depths breadth-first down the children
  lists, the diameter on the way back up, and a parent cycle named by
  following parents from the smallest node the walk missed.
* The result checkers ``check_tree`` (a tree protocol's result) and
  ``check_butterflies`` (a counting run's, its election included), which
  return problem lines, ``[]`` when the result is right.  An agent the
  partition lacks, or one the graph lacks, is a line too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
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
    adjacency = g.adjacency
    color = [-1] * n
    color[0] = 0
    queue = [0]  # grows while it is read: first in, first out
    for v in queue:
        cv = color[v]
        for u, _ in adjacency[v]:
            cu = color[u]
            if cu == -1:
                color[u] = 1 - cv
                queue.append(u)
            elif cu == cv:
                raise NotBipartite(f"edge ({v}, {u}) joins same-color nodes")
    if len(queue) != n:
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
    mask = []
    for row in g.adjacency:
        m = 0
        for u, _ in row:
            m |= 1 << u
        mask.append(m)
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
    the ends are the neighbors w of a mid ranked below u.  An end reached
    from c mids closes C(c, 2) butterflies, added to u and to w, and each
    mid is on c - 1 of them per end it reaches.

    One pass in rank order, with no sort of neighbor lists: ``low[x]``
    lists the ranks of x's neighbors that have already been tops, and u
    joins its neighbors' lists only after its own turn.  At u's turn
    ``low[u]`` is its mids and ``low[v]`` a mid's ends, both ascending.
    A node with fewer than two mids tops no butterfly."""
    adjacency = g.adjacency
    degree = g.degrees
    order = sorted(range(len(degree)), key=degree.__getitem__)
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    # from here on a node is named by its rank
    low: list[list[int]] = [[] for _ in order]
    by_rank = [0] * len(order)
    for u, node in enumerate(order):
        mids = low[u]
        if len(mids) > 1:
            ends = [low[v] for v in mids]
            flat = list(chain.from_iterable(ends))
            if len(set(flat)) != len(flat):  # some end reached twice
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
        for w, _ in adjacency[node]:
            low[rank[w]].append(u)
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
    sum_b = sum(compress(per_node, color))
    sum_a = sum(per_node) - sum_b
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
    connectivity), and computes depth and diameter.  Linear: one
    breadth-first pass down the children lists finds the depths, and one
    pass back up finds the diameter.
    """
    problems: list[str] = []
    n = g.node_count
    if set(parent_port) != set(range(n)):
        problems.append("parent map does not cover every node exactly once")
        return TreeCheck(False, tuple(problems), None, None, None)
    roots = [v for v, p in parent_port.items() if p is None]
    if roots != [root]:
        problems.append(f"expected single root {root}, found roots {roots}")
    adjacency = g.adjacency
    parent_of = [root] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in parent_port.items():
        if p is None:
            continue
        if not 0 <= p < len(adjacency[v]):
            problems.append(f"node {v}: parent port {p} out of range")
            continue
        u = adjacency[v][p][0]
        parent_of[v] = u
        children[u].append(v)
    if problems:
        return TreeCheck(False, tuple(problems), None, None, None)

    # past the checks above every node has exactly one parent but the root,
    # so the walk down from the root meets each node it reaches once, and
    # lists every parent before its children
    depth: dict[int, int] = {root: 0}
    order = [root]
    for v in order:
        below = depth[v] + 1
        for c in children[v]:
            depth[c] = below
            order.append(c)
    if len(order) != n:
        # the parents of a node the walk missed never lead to the root
        x = next(v for v in range(n) if v not in depth)
        seen = set()
        while x not in seen:
            seen.add(x)
            x = parent_of[x]
        problems.append(f"parent pointers cycle through node {x}")
        return TreeCheck(False, tuple(problems), None, None, None)

    # in reverse each node's longest downward path is final before its
    # parent reads it; the diameter is the best sum of a node's two
    # deepest branches
    down = [0] * n
    diameter = 0
    for v in order[:0:-1]:  # every node but the root, deepest first
        u = parent_of[v]
        reach, best = down[v] + 1, down[u]
        if best + reach > diameter:
            diameter = best + reach
        if reach > best:
            down[u] = reach
    height = depth[order[-1]]
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
    be ``leader``, the parent ports a spanning tree, each agent's side
    present and the agent's oracle color relative to the root's (on an
    odd-cycle graph, its tree depth's parity), no root, parent port or side
    for an agent the graph lacks, the payload the graph's, each received
    tuple the payload's.  [] when all hold."""
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
    root = home.get(tree.root_id)  # None for a stranger, named below
    level = {}
    if root is not None:
        ports = {home[a]: p for a, p in tree.parent_port.items() if a in home}
        chk = check_spanning_tree(g, ports, root)
        problems += chk.problems
        if color is not None:
            level = dict(enumerate(color))
        else:
            level = chk.depth or {}  # a broken tree is reported above
    partition = result.partition
    for aid in sorted(home.keys() | partition.keys() | tree.parent_port.keys() | {tree.root_id}):
        if aid not in home:
            problems.append(f"agent {aid}: not an agent of this graph")
        elif aid not in partition:
            problems.append(f"agent {aid}: missing from the partition")
        elif level:
            side = (level[home[aid]] - level[root]) % 2
            if partition[aid] != side:
                problems.append(f"agent {aid}: partition {partition[aid]}, expected {side}")
    want = (payload.n, *payload)
    sides = list(partition.values())
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
    counts against the oracle, no count for an agent the graph lacks, each
    side's sum against twice the total, and ``check_tree`` on its
    election.  [] when all hold.  The coloring and the per-node counts are
    computed once and shared by all three checks."""
    problems = []
    color = oracle_coloring(g)
    per_node = _two_hop_counts(g, color)
    want_total = _checked_total(g, color, per_node)
    if result.total != want_total:
        problems.append(f"total {result.total}, oracle says {want_total}")
    home = result.election.tree.home_node
    got = {}
    for aid, c in result.per_node.items():
        if aid in home:
            got[home[aid]] = c
        else:
            problems.append(f"agent {aid}: not an agent of this graph")
    problems += diff_per_node(got, dict(enumerate(per_node)))
    part = result.election.partition  # check_tree names agents it lacks
    half = tuple(sum(c for a, c in result.per_node.items() if part.get(a) == s) for s in (0, 1))
    if half != (2 * result.total, 2 * result.total):
        problems.append(f"side sums {half} != twice the total {2 * result.total}")
    return problems + _check_tree(g, result.election, leader, color)
