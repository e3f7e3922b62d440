"""Anonymous port-labeled graphs.

Nodes carry no identifiers an agent could read; the only structure visible
from a node is its degree and the local port numbering 0..deg-1 of incident
edges.  Each edge therefore has two independent port numbers, one per
endpoint, and the pair must be mutually consistent: if port p at u leads to
(v, q) then port q at v leads back to (u, p).
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field

__all__ = [
    "PortGraph",
    "Bipartition",
    "GraphFormatError",
    "MAX_CROSS_PAIRS",
    "build_port_graph",
    "make_complete_bipartite",
    "make_random_connected_bipartite",
    "make_path",
    "make_clique",
    "validate",
    "unreachable_count",
    "load_graph",
    "save_graph",
]

SIDE_A = 0
SIDE_B = 1

# The most cross pairs make_random_connected_bipartite takes: its ranking
# stores pair codes 0 .. a*b - 1 as 4-byte unsigned ints.
MAX_CROSS_PAIRS = 1 << 32


class GraphFormatError(ValueError):
    """Raised when a graph file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class PortGraph:
    """Immutable port-labeled graph.

    ``adjacency[v][p] = (u, q)`` means port ``p`` at node ``v`` leads to
    node ``u``, entering through ``u``'s port ``q``.
    """

    adjacency: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(ports) for ports in self.adjacency)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max((len(p) for p in self.adjacency), default=0)

    @property
    def edge_count(self) -> int:
        return sum(len(p) for p in self.adjacency) // 2

    def neighbor_via(self, v: int, port: int) -> tuple[int, int]:
        """Return ``(u, q)``: follow ``port`` out of ``v``, arrive at ``u`` via ``q``."""
        return self.adjacency[v][port]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(u for u, _ in self.adjacency[v])


@dataclass(frozen=True)
class Bipartition:
    """A two-sided split of the node set; ``side[v]`` is SIDE_A or SIDE_B."""

    side: tuple[int, ...]

    @property
    def size_a(self) -> int:
        return sum(1 for s in self.side if s == SIDE_A)

    @property
    def size_b(self) -> int:
        return sum(1 for s in self.side if s == SIDE_B)


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def build_port_graph(
    node_count: int,
    edges: list[tuple[int, int]],
    port_order: dict[int, list[int]] | None = None,
) -> PortGraph:
    """Assemble a PortGraph from an edge list.

    Each node's incident edges receive ports in order of appearance in
    ``edges``.  ``port_order`` optionally remaps that order: for node ``v``
    it lists the incident-edge indices (positions in v's appearance order)
    in the order ports should be assigned.
    """
    incident: list[list[int]] = [[] for _ in range(node_count)]
    seen: set[tuple[int, int]] = set()
    for idx, (u, v) in enumerate(edges):
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) out of range")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        incident[u].append(idx)
        incident[v].append(idx)
    if port_order is not None:
        for v, order in port_order.items():
            if sorted(order) != list(range(len(incident[v]))):
                raise ValueError(f"bad port order for node {v}")
            incident[v] = [incident[v][i] for i in order]

    # port of edge idx at node v = position of idx in incident[v]
    port_at: list[dict[int, int]] = [
        {idx: p for p, idx in enumerate(lst)} for lst in incident
    ]
    adjacency = []
    for v in range(node_count):
        row = []
        for idx in incident[v]:
            u, w = edges[idx]
            other = w if v == u else u
            row.append((other, port_at[other][idx]))
        adjacency.append(tuple(row))
    return PortGraph(adjacency=tuple(adjacency))


def make_complete_bipartite(a: int, b: int) -> tuple[PortGraph, Bipartition]:
    """K_{a,b}: port j at A-node i leads to B-node j, entering via its port i."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one node")
    adjacency: list[tuple[tuple[int, int], ...]] = []
    for i in range(a):
        adjacency.append(tuple((a + j, i) for j in range(b)))
    for j in range(b):
        adjacency.append(tuple((i, j) for i in range(a)))
    side = (SIDE_A,) * a + (SIDE_B,) * b
    return PortGraph(adjacency=tuple(adjacency)), Bipartition(side=side)


def _shuffle(rng: random.Random, seq) -> None:
    """Shuffle ``seq`` in place with exactly ``rng.shuffle(seq)``'s draws.

    This is the stdlib's backward Fisher–Yates (Durstenfeld, CACM 7(7),
    1964) with its rejection rule: ``j = getrandbits(k)`` until ``j <= i``,
    where ``k = (i + 1).bit_length()``.  The permutation and the state of
    ``rng`` afterwards are the stdlib's; its per-element ``_randbelow``
    call is gone: ``getrandbits`` is bound once and ``k`` is computed once
    per run of indices that share it.
    """
    getrandbits = rng.getrandbits
    top = len(seq) - 1
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1  # the least i whose i + 1 needs k bits
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            seq[i], seq[j] = seq[j], seq[i]
        top = bottom - 1


def make_random_connected_bipartite(
    a: int, b: int, edge_prob: float, seed: int
) -> tuple[PortGraph, Bipartition]:
    """Random bipartite graph, forced connected, fully seed-determined.

    Every cross pair (i, j) is included independently with ``edge_prob``.
    If the result is disconnected it is augmented edge by edge: all cross
    pairs are ranked by a seeded shuffle, and each augmentation step adds
    the lowest-ranked missing pair whose endpoints lie in different
    components.  Finally every node's port order is an independent seeded
    permutation of its incident edges.

    The draws are one ``rng.random()`` per cross pair in row-major order,
    then exactly the stdlib shuffle's draws (through ``_shuffle``) for the
    ranking and for each node's ports.  Time is Θ(a·b): one draw per cross
    pair and a shuffle of all of them, and the shuffle is most of it.
    The ranking holds each pair as a 4-byte code, so it takes 4·a·b bytes,
    and a·b may be at most 2**32; a larger shape raises ValueError before
    any draw.
    """
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one node")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError("edge_prob must be within [0, 1]")
    if a * b > MAX_CROSS_PAIRS:
        raise ValueError(
            f"{a}x{b} has {a * b} cross pairs; at most 2**32 fit the "
            "augmentation ranking's 4-byte codes"
        )
    rng = random.Random(seed)
    n = a + b
    present: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    draw = rng.random
    for i in range(a):
        row = [j for j in range(b) if draw() < edge_prob]
        for j in row:
            present.add((i, j))
            edges.append((i, a + j))

    # union-find over all n nodes
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in present:
        root[find(i)] = find(a + j)

    # The augmentation ranking is a seeded shuffle of all a*b cross pairs,
    # pair (i, j) stored as the unsigned int i * b + j: 4 bytes each, no
    # tuple.  The shuffle's draws depend only on the length, so the
    # permutation is the same at any width.
    ranking = array("I", range(a * b))
    _shuffle(rng, ranking)
    components = len({find(x) for x in range(n)})
    for code in ranking:
        if components == 1:
            break
        i, j = divmod(code, b)
        if (i, j) in present:
            continue
        ri, rj = find(i), find(a + j)
        if ri == rj:
            continue
        present.add((i, j))
        edges.append((i, a + j))
        root[ri] = rj
        components -= 1
    del ranking  # 4·a·b bytes; the port draws and the graph build need none of it

    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    port_order = {}
    for v in range(n):
        order = list(range(degree[v]))
        _shuffle(rng, order)
        port_order[v] = order
    g = build_port_graph(n, edges, port_order)
    side = (SIDE_A,) * a + (SIDE_B,) * b
    return g, Bipartition(side=side)


def make_path(k: int) -> tuple[PortGraph, Bipartition]:
    """Path on k >= 2 nodes; sides alternate starting with SIDE_A at node 0."""
    if k < 2:
        raise ValueError("a path needs at least two nodes")
    edges = [(i, i + 1) for i in range(k - 1)]
    g = build_port_graph(k, edges)
    side = tuple(SIDE_A if i % 2 == 0 else SIDE_B for i in range(k))
    return g, Bipartition(side=side)


def make_clique(k: int) -> PortGraph:
    """Complete graph on k >= 2 nodes.  Not bipartite for k >= 3; kept only
    so protocols that do not rely on two-colorability can be exercised on a
    general graph."""
    if k < 2:
        raise ValueError("a clique needs at least two nodes")
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return build_port_graph(k, edges)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(g: PortGraph) -> list[str]:
    """Return a list of violation descriptions; empty means the graph is valid.

    Checks: port ranges, no self-loops, port consistency (reciprocity),
    no duplicate edges from one node, and connectivity.
    """
    problems: list[str] = []
    n = g.node_count
    for v in range(n):
        seen_neighbors: set[int] = set()
        for p, (u, q) in enumerate(g.adjacency[v]):
            if not (0 <= u < n):
                problems.append(f"node {v} port {p}: neighbor {u} out of range")
                continue
            if u == v:
                problems.append(f"node {v} port {p}: self-loop")
                continue
            if u in seen_neighbors:
                problems.append(f"node {v}: duplicate edge to {u}")
            seen_neighbors.add(u)
            if not (0 <= q < g.degree(u)):
                problems.append(
                    f"node {v} port {p}: reciprocal port {q} out of range at {u}"
                )
                continue
            back, back_port = g.adjacency[u][q]
            if back != v or back_port != p:
                problems.append(
                    f"port inconsistency: {v}.{p} -> ({u}, {q}) but "
                    f"{u}.{q} -> ({back}, {back_port})"
                )
    missing = unreachable_count(g)
    if missing:
        problems.append(
            f"graph is disconnected: {missing} of {n} nodes unreachable from node 0"
        )
    return problems


def unreachable_count(g: PortGraph) -> int:
    """How many nodes cannot be reached from node 0; 0 for the empty graph."""
    n = g.node_count
    if n == 0:
        return 0
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u, _ in g.adjacency[v]:
            if 0 <= u < n and u not in seen:
                seen.add(u)
                stack.append(u)
    return n - len(seen)


# ---------------------------------------------------------------------------
# text file format
# ---------------------------------------------------------------------------
#
# line 1:  n_a n_b m
# lines 2..m+1:  i j     (edge between A-node i and B-node j, 0-based)
#
# Global node numbering: A-node i -> i, B-node j -> n_a + j.  Ports are
# assigned per node in order of appearance of its edges in the file.


def load_graph(path: str) -> tuple[PortGraph, Bipartition]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text") from exc
    if not lines:
        raise GraphFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 3:
        raise GraphFormatError(f"{path}: header must be 'n_a n_b m'")
    try:
        n_a, n_b, m = (int(x) for x in head)
    except ValueError as exc:
        raise GraphFormatError(f"{path}: non-integer header") from exc
    if n_a < 1 or n_b < 1 or m < 0:
        raise GraphFormatError(f"{path}: header values out of range")
    if len(lines) - 1 != m:
        raise GraphFormatError(
            f"{path}: header promises {m} edges, file has {len(lines) - 1}"
        )
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{path}: bad edge line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"{path}: bad edge line {ln!r}") from exc
        if not (0 <= i < n_a and 0 <= j < n_b):
            raise GraphFormatError(f"{path}: edge ({i}, {j}) out of range")
        if (i, j) in seen:
            raise GraphFormatError(f"{path}: duplicate edge ({i}, {j})")
        seen.add((i, j))
        edges.append((i, n_a + j))
    g = build_port_graph(n_a + n_b, edges)
    problems = validate(g)
    if problems:
        raise GraphFormatError(f"{path}: invalid graph: {problems[0]}")
    side = (SIDE_A,) * n_a + (SIDE_B,) * n_b
    return g, Bipartition(side=side)


def save_graph(path: str, g: PortGraph, bip: Bipartition) -> None:
    """Write the textual format; A-side nodes must precede B-side nodes."""
    n_a = bip.size_a
    if bip.side != (SIDE_A,) * n_a + (SIDE_B,) * bip.size_b:
        raise ValueError("save_graph requires A-side nodes numbered first")
    lines = []
    for v in range(n_a):
        for u, _ in g.adjacency[v]:
            lines.append(f"{v} {u - n_a}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n_a} {bip.size_b} {len(lines)}\n")
        fh.write("\n".join(lines))
        if lines:
            fh.write("\n")
