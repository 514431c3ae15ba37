"""Simple undirected graphs with dense edge ids, plus the classical algorithms
the rest of the package is built on: BFS distances, girth, diameter, spanning
trees, bridges and 2-edge-connected components.

Edge ids are assigned in input order and index every per-edge structure
downstream (cotree coordinates, label bits, cut coordinates), so input order
is part of the interface.  All structures are immutable after construction and
all functions are pure.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple


class GraphError(ValueError):
    """Invalid graph construction or an unsatisfiable precondition."""


class Graph:
    """Immutable simple undirected graph.

    Vertices are ``0..n-1``.  ``edges[i]`` is the endpoint pair of edge id
    ``i`` as given on input; ``adj[v]`` lists ``(neighbor, edge_id)`` in edge
    id order.  Self-loops and parallel edges are rejected.  ``_index`` maps
    the int ``min(u, v) * n + max(u, v)`` of each edge (u, v) to its id, one
    key per edge, so a lookup hashes no tuple.
    """

    __slots__ = ("n", "edges", "adj", "_index")

    def __init__(self, n, pairs):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        edges = []
        index = {}
        adj = [[] for _ in range(n)]
        for eid, pair in enumerate(pairs):
            u, v = pair
            # both endpoints in range and no self-loop
            if u < v:
                key = u * n + v
                ok = 0 <= u and v < n
            else:
                key = v * n + u
                ok = 0 <= v < u < n
            if not ok or key in index:
                raise _edge_error(n, pair, index)
            index[key] = eid
            edges.append((u, v))
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        self.n = n
        self.edges = tuple(edges)
        self.adj = tuple(map(tuple, adj))
        self._index = index

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adj[v])

    def edge_between(self, u, v):
        """Edge id joining u and v, or None if they are not adjacent."""
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            return None
        return self._index.get(u * n + v if u < v else v * n + u)

    def regularity(self):
        """The common degree k if the graph is k-regular, else None."""
        if self.n == 0:
            return None
        k = len(self.adj[0])
        return k if all(len(a) == k for a in self.adj) else None

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _edge_error(n, pair, index):
    """The GraphError for the first rule ``pair`` breaks, checked in order:
    endpoints in range, no self-loop, not already an edge."""
    u, v = pair
    if not (0 <= u < n) or not (0 <= v < n):
        return GraphError(f"edge {pair!r} has an endpoint outside 0..{n - 1}")
    if u == v:
        return GraphError(f"self-loop at vertex {u} is not allowed")
    key = u * n + v if u < v else v * n + u
    return GraphError(f"duplicate edge {pair!r} (already present as edge {index[key]})")


class TreeDecomposition(NamedTuple):
    """A spanning tree T plus the ordered cotree S indexing label coordinates,
    and the voltage algebra over Z_2^s they define.

    ``cotree[i]`` is the edge id carrying coordinate ``i``; the ordering is by
    ascending edge id so the coordinate layout is reproducible from the input
    edge order alone.  ``parent[v]`` is ``(parent_vertex, tree_edge_id)`` and
    ``None`` for the root.  ``root_paths[v]`` is the bitmask, by edge id, of
    the tree edges on the path from the root to ``v``: bit e is set exactly
    when ``T - e`` separates ``v`` from the root, and the tree path between
    ``a`` and ``b`` is ``root_paths[a] ^ root_paths[b]``.

    ``rule[e]`` is the tree rule, the voltage of edge e: 0 on a tree edge and
    ``1 << i`` on ``cotree[i]``.  ``cycles[i]`` is the edge mask of the
    fundamental cycle of ``cotree[i] = (a, b)``, ``1 << c_i | P(a) ^ P(b)``
    with ``P = root_paths``.  Every other layer reads the rule and the cycles
    from here rather than re-deriving them.
    """

    graph: Graph
    root: int
    strategy: str
    cotree: tuple
    parent: tuple
    root_paths: tuple
    rule: tuple
    cycles: tuple

    @property
    def num_coords(self):
        return len(self.cotree)


class BridgeDecomposition:
    """Bridges and 2-edge-connected components of a graph.

    ``bridge_ids`` is the frozenset of the bridges' edge ids.
    ``component_edge_counts`` holds the edge count of each 2-edge-connected
    component that has edges, in order of its smallest vertex; a forest
    gives ().
    """

    __slots__ = ("bridge_ids", "component_edge_counts")

    def __init__(self, bridge_ids, component_edge_counts):
        self.bridge_ids = bridge_ids
        self.component_edge_counts = component_edge_counts


def bfs_distances(g, source):
    """Exact shortest-path edge counts from source; unreachable vertices get -1."""
    if not (0 <= source < g.n):
        raise GraphError(f"source {source} out of range")
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [source]
    d = 0
    adj = g.adj
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w, _ in adj[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(g):
    if g.n == 0:
        return True
    return bfs_distances(g, 0).count(-1) == 0


def diameter(g):
    """Maximum shortest-path distance over all vertex pairs; errors if disconnected."""
    if g.n == 0:
        raise GraphError("diameter of the empty graph is undefined")
    best = 0
    for src in range(g.n):
        dist = bfs_distances(g, src)
        far = max(dist)
        if min(dist) < 0:
            raise GraphError("diameter requires a connected graph")
        best = max(best, far)
    return best


def girth(g):
    """Length of a shortest cycle, or math.inf for forests.

    Per-vertex BFS detecting the shortest cycle through the BFS root; overall
    O(n*m) and exact on simple graphs.  The arrays are allocated once, and
    each search resets the distances of the vertices it queued.  A stale
    ``via`` entry is never read: a vertex's is set when it is queued, and the
    root's own is read only while all its neighbours are still unseen.
    """
    best = math.inf
    dist = [-1] * g.n
    via = [-1] * g.n  # edge id used to discover the vertex
    for src in range(g.n):
        dist[src] = 0
        queue = [src]  # grows while it is read: a FIFO that keeps every vertex it saw
        for v in queue:
            dv = dist[v]
            if 2 * dv >= best:
                break  # no shorter cycle through src can appear deeper
            for w, eid in g.adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    via[w] = eid
                    queue.append(w)
                elif eid != via[v]:
                    cand = dv + dist[w] + 1
                    if cand < best:
                        best = cand
        for v in queue:
            dist[v] = -1
    return best


def spanning_tree(g, strategy="bfs", root=0):
    """Deterministic spanning tree; cotree coordinates ordered by edge id.

    The tree depends only on (strategy, root, input edge order): one search
    keeps a deque of (vertex, adjacency iterator) entries and scans each
    adjacency list in edge id order.  Every step extends one entry by its
    next unseen neighbour, or drops the entry once its iterator is used up:
    bfs extends the oldest entry, dfs the newest.
    """
    if strategy not in ("bfs", "dfs"):
        raise GraphError(f"unknown spanning tree strategy {strategy!r}")
    if g.n == 0:
        raise GraphError("spanning tree of the empty graph is undefined")
    if not (0 <= root < g.n):
        raise GraphError(f"root {root} out of range")
    parent = [None] * g.n
    paths = [0] * g.n
    seen = [False] * g.n
    seen[root] = True
    tree = set()
    count = 1
    end = 0 if strategy == "bfs" else -1
    entries = deque([(root, iter(g.adj[root]))])
    while entries:
        v, it = entries[end]
        for w, eid in it:
            if not seen[w]:
                seen[w] = True
                parent[w] = (v, eid)
                paths[w] = paths[v] | 1 << eid
                tree.add(eid)
                count += 1
                entries.append((w, iter(g.adj[w])))
                break
        else:
            del entries[end]
    if count != g.n:
        raise GraphError("spanning tree requires a connected graph")
    cotree = tuple(eid for eid in range(g.m) if eid not in tree)
    rule = [0] * g.m
    cycles = []
    for i, eid in enumerate(cotree):
        a, b = g.edges[eid]
        rule[eid] = 1 << i
        cycles.append(1 << eid | paths[a] ^ paths[b])
    return TreeDecomposition(
        graph=g,
        root=root,
        strategy=strategy,
        cotree=cotree,
        parent=tuple(parent),
        root_paths=tuple(paths),
        rule=tuple(rule),
        cycles=tuple(cycles),
    )


def bridges_and_2ecc(g):
    """Bridges plus the edge count of each 2-edge-connected component with edges.

    An edge is a bridge exactly when it lies on no cycle.  Every cycle is a
    sum of fundamental cycles of a spanning forest, so the edges on some
    cycle are the non-forest edges and the forest paths between their
    endpoints.  One BFS per connected component builds the forest and
    records each vertex's root-path mask, ``P(w) = P(v) | 1 << e`` for the
    forest edge e from v to w, as ``spanning_tree`` does.  Every other edge
    e = (v, w) ORs its fundamental cycle ``P(v) ^ P(w) ^ 1 << e`` into one
    ``cyclic`` mask once, from its larger end (a forest edge read back from
    the child adds nothing, as its mask is 0), and the bridges are the
    edges outside it.  One DFS per component of the graph minus its
    bridges, over the edges in the mask, counts the edges of each component
    in order of its smallest vertex, keeping the counts that are not 0; a
    forest (``cyclic`` is 0) needs no second pass.  Each mask has m bits, so
    on a general graph this costs O((n + m) * m / w) word operations, w bits
    to a machine word; on the induced subgraph of a short walk every mask
    fits in one word.  Counts tally non-bridge edges only.
    """
    n = g.n
    adj = g.adj
    m = len(g.edges)
    paths = [-1] * n  # root-path masks, -1 while unseen
    cyclic = 0
    for root in range(n):
        if paths[root] >= 0:
            continue
        paths[root] = 0
        queue = [root]  # grows while it is read
        for v in queue:
            pv = paths[v]
            for w, eid in adj[v]:
                pw = paths[w]
                if pw < 0:
                    paths[w] = pv | 1 << eid
                    queue.append(w)
                elif w < v:  # each edge once more, from its larger end
                    cyclic |= pv ^ pw ^ 1 << eid
    if not cyclic:
        return BridgeDecomposition(bridge_ids=frozenset(range(m)), component_edge_counts=())

    bridges = frozenset(eid for eid in range(m) if not cyclic >> eid & 1)
    # components of the graph minus its bridges, one DFS each
    labelled = [False] * n
    counts = []
    stack = []
    for v in range(n):
        if labelled[v]:
            continue
        labelled[v] = True
        stack.append(v)
        ends = 0  # each edge of the component is met from both its ends
        while stack:
            for y, eid in adj[stack.pop()]:
                if eid not in bridges:
                    ends += 1
                    if not labelled[y]:
                        labelled[y] = True
                        stack.append(y)
        if ends:
            counts.append(ends >> 1)
    return BridgeDecomposition(bridge_ids=bridges, component_edge_counts=tuple(counts))


# --- edge-list text interchange format -------------------------------------
#
# First line "n m", then m lines "u v" with 0-indexed endpoints in ascending
# edge id order.  This is the interchange unit for all CLI commands.  Every
# reader needs a connected graph, so a header with n > m + 1 is refused
# before a graph of n vertices is allocated.


def parse_edge_list(text):
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"bad header {lines[0]!r}: expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"bad header {lines[0]!r}: expected integers") from None
    body = lines[1:]
    if len(body) != m:
        raise GraphError(f"header promises {m} edges but {len(body)} lines follow")
    if n > m + 1:  # no connected graph has more vertices
        raise GraphError("spanning tree requires a connected graph")
    pairs = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphError(f"bad edge line {ln!r}: expected two integers") from None
    return Graph(n, pairs)


def format_edge_list(g):
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def load_edge_list(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_edge_list(text)


def save_edge_list(g, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_edge_list(g))
