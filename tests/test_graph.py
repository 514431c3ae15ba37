import math
import random

import pytest

from treelift.families import make, parse_family, random_regular
from treelift.graph import (
    Graph,
    GraphError,
    bfs_distances,
    bridges_and_2ecc,
    diameter,
    format_edge_list,
    girth,
    is_connected,
    parse_edge_list,
    spanning_tree,
)

from lift_reference import climbing_bridges_and_2ecc

# --- independent oracles -----------------------------------------------------


def oracle_distances(g, source):
    """Shortest-path distances via boolean adjacency-matrix powers."""
    reach = [[False] * g.n for _ in range(g.n)]
    for v in range(g.n):
        reach[v][v] = True
    dist = [-1] * g.n
    dist[source] = 0
    frontier = [row[:] for row in reach]
    for step in range(1, g.n):
        nxt = [[False] * g.n for _ in range(g.n)]
        for v in range(g.n):
            for w, _ in g.adj[v]:
                for t in range(g.n):
                    if frontier[w][t]:
                        nxt[v][t] = True
        frontier = nxt
        for t in range(g.n):
            if dist[t] < 0 and frontier[source][t]:
                dist[t] = step
    return dist


def oracle_girth(g):
    """Brute-force enumeration of all simple cycles; inf if none exist.

    Each cycle is found from its minimum vertex, extending simple paths only
    through larger vertices.  Exponential, fine at n <= 10.
    """
    best = math.inf

    def extend(start, path, on_path):
        nonlocal best
        v = path[-1]
        for w, _ in g.adj[v]:
            if w == start and len(path) >= 3:
                best = min(best, len(path))
            elif w > start and not on_path[w] and len(path) < best:
                on_path[w] = True
                path.append(w)
                extend(start, path, on_path)
                path.pop()
                on_path[w] = False

    for start in range(g.n):
        on_path = [False] * g.n
        on_path[start] = True
        extend(start, [start], on_path)
    return best


def count_components(n, pairs):
    adj = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        seen[s] = True
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return comps


def oracle_bridges(g):
    """An edge is a bridge iff deleting it increases the component count."""
    base = count_components(g.n, g.edges)
    out = set()
    for eid in range(g.m):
        rest = [p for i, p in enumerate(g.edges) if i != eid]
        if count_components(g.n, rest) > base:
            out.add(eid)
    return out


def oracle_2ecc_partition(g, bridges):
    """Vertex partition of the graph minus its bridges, as a set of frozensets."""
    pairs = [p for i, p in enumerate(g.edges) if i not in bridges]
    adj = [[] for _ in range(g.n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    parts = set()
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        parts.add(frozenset(comp))
    return parts


def random_graph(rng, n, m):
    """Random simple graph with up to m edges (connected not guaranteed)."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(all_pairs)
    return Graph(n, all_pairs[: min(m, len(all_pairs))])


PETERSEN_PAIRS = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]


def kneser_petersen():
    """Petersen as the Kneser graph K(5,2): 2-subsets of {0..4}, disjointness edges."""
    from itertools import combinations

    subsets = list(combinations(range(5), 2))
    idx = {s: i for i, s in enumerate(subsets)}
    pairs = []
    for i, a in enumerate(subsets):
        for b in subsets[i + 1 :]:
            if not set(a) & set(b):
                pairs.append((idx[a], idx[b]))
    return Graph(10, pairs)


# --- construction ------------------------------------------------------------


def test_build_triangle():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.n == 3 and g.m == 3
    assert g.adj[0] == ((1, 0), (2, 2))
    assert g.edge_between(2, 1) == 1


def test_build_rejects_duplicate_and_reversed_duplicate():
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (0, 1)])


def test_build_rejects_self_loop_and_out_of_range():
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(2, [(-1, 0)])


@pytest.mark.parametrize(
    "n, pairs, message",
    [
        (3, [(0, 1), (0, 1)], "duplicate edge (0, 1) (already present as edge 0)"),
        (3, [(0, 1), (1, 2), (1, 0)], "duplicate edge (1, 0) (already present as edge 0)"),
        (4, [(2, 3), (0, 1), [3, 2]], "duplicate edge [3, 2] (already present as edge 0)"),
        (3, [(0, 1), (0, 3)], "edge (0, 3) has an endpoint outside 0..2"),
        (2, [(-1, 0)], "edge (-1, 0) has an endpoint outside 0..1"),
        (3, [(3, 3)], "edge (3, 3) has an endpoint outside 0..2"),
        (0, [(0, 0)], "edge (0, 0) has an endpoint outside 0..-1"),
        (3, [(0, 1), (1, 1)], "self-loop at vertex 1 is not allowed"),
        (3, [(0, 1), (1, 1), (1, 0)], "self-loop at vertex 1 is not allowed"),
        (-1, [], "vertex count must be non-negative, got -1"),
        # the int keys min * n + max: an endpoint out of range must not alias an edge
        (3, [(1, 2), (0, 5)], "edge (0, 5) has an endpoint outside 0..2"),
        (3, [(0, 2), (-1, 5)], "edge (-1, 5) has an endpoint outside 0..2"),
        (5, [(0, 4), (1, 2), (3, 4), (4, 0)], "duplicate edge (4, 0) (already present as edge 0)"),
        (5, [(4, 3), (1, 2), (3, 4)], "duplicate edge (3, 4) (already present as edge 0)"),
    ],
)
def test_graph_error_messages(n, pairs, message):
    with pytest.raises(GraphError) as exc:
        Graph(n, pairs)
    assert str(exc.value) == message


@pytest.mark.parametrize("spec", ["k4", "petersen", "heawood", "random:20:3", "cycle:5"])
def test_edge_between_answers_both_orientations_and_none_off_the_edges(spec):
    g = make(parse_family(spec))
    for eid, (u, v) in enumerate(g.edges):
        assert g.edge_between(u, v) == eid
        assert g.edge_between(v, u) == eid
    edges = {frozenset(e) for e in g.edges}
    for u in range(g.n):
        for v in range(g.n):
            if frozenset((u, v)) not in edges:
                assert g.edge_between(u, v) is None
    # endpoints out of range whose min * n + max is the key u * n + v of the edge (u, v)
    n = g.n
    u, v = sorted(g.edges[-1])
    for a, b in ((u - 1, v + n), (u - 2, v + 2 * n), (-1, u * n + v + n)):
        assert min(a, b) * n + max(a, b) == u * n + v
        assert g.edge_between(a, b) is None
        assert g.edge_between(b, a) is None


def test_petersen_pair_list_is_cubic():
    g = Graph(10, PETERSEN_PAIRS)
    assert g.n == 10 and g.m == 15
    assert g.regularity() == 3


def test_kneser_matches_standard_petersen_invariants():
    k = kneser_petersen()
    assert (k.n, k.m, k.regularity()) == (10, 15, 3)
    assert girth(k) == 5 and diameter(k) == 2


# --- BFS / diameter ----------------------------------------------------------


def test_bfs_triangle_and_path():
    tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert bfs_distances(tri, 0) == [0, 1, 1]
    path = Graph(3, [(0, 1), (1, 2)])
    assert bfs_distances(path, 0) == [0, 1, 2]


def test_bfs_unreachable_marked():
    g = Graph(4, [(0, 1), (2, 3)])
    assert bfs_distances(g, 0) == [0, 1, -1, -1]
    assert not is_connected(g)


def test_petersen_distance_multiset():
    g = Graph(10, PETERSEN_PAIRS)
    for src in range(10):
        dist = sorted(bfs_distances(g, src))
        assert dist == [0] + [1] * 3 + [2] * 6


@pytest.mark.parametrize("seed", range(5))
def test_bfs_matches_matrix_power_oracle(seed):
    rng = random.Random(seed)
    g = random_graph(rng, 8, rng.randrange(4, 14))
    for src in range(g.n):
        assert bfs_distances(g, src) == oracle_distances(g, src)


def test_diameter_values():
    tri = Graph(3, [(0, 1), (1, 2), (2, 0)])
    assert diameter(tri) == 1
    assert diameter(Graph(10, PETERSEN_PAIRS)) == 2


def test_diameter_rejects_disconnected():
    with pytest.raises(GraphError):
        diameter(Graph(4, [(0, 1), (2, 3)]))


# --- girth --------------------------------------------------------------------


def test_girth_triangle_and_tree():
    assert girth(Graph(3, [(0, 1), (1, 2), (2, 0)])) == 3
    assert girth(Graph(4, [(0, 1), (1, 2), (1, 3)])) == math.inf


def test_girth_petersen():
    assert girth(Graph(10, PETERSEN_PAIRS)) == 5


@pytest.mark.parametrize("seed", range(12))
def test_girth_matches_cycle_enumeration(seed):
    rng = random.Random(100 + seed)
    n = rng.randrange(4, 11)
    g = random_graph(rng, n, rng.randrange(n - 1, 2 * n))
    assert girth(g) == oracle_girth(g)


def deletion_girth(g):
    """Girth as the shortest detour: min over edges (u, v) of d_{G-e}(u, v) + 1,
    math.inf if no edge lies on a cycle."""
    best = math.inf
    for eid, (u, v) in enumerate(g.edges):
        rest = Graph(g.n, [edge for i, edge in enumerate(g.edges) if i != eid])
        d = bfs_distances(rest, u)[v]
        if d >= 0:
            best = min(best, d + 1)
    return best


def disjoint_union(*graphs):
    edges, offset = [], 0
    for h in graphs:
        edges.extend((u + offset, v + offset) for u, v in h.edges)
        offset += h.n
    return Graph(offset, edges)


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.mark.parametrize(
    "g",
    [random_regular(n, 3, seed=seed) for n, seed in ((12, 0), (20, 1), (30, 2), (40, 3))]
    + [
        Graph(7, [(0, 1), (1, 2), (1, 3), (4, 5)]),  # a forest
        # disconnected: the shortest cycle lies in the last component searched
        disjoint_union(cycle_graph(9), random_regular(16, 3, girth_min=5, seed=4), cycle_graph(4)),
    ],
    ids=["cubic12", "cubic20", "cubic30", "cubic40", "forest", "disconnected"],
)
def test_girth_matches_edge_deletion_oracle(g):
    assert girth(g) == deletion_girth(g)


# --- spanning trees -----------------------------------------------------------


def tree_edges(td):
    """The edge ids of the spanning tree: every edge off the cotree."""
    return set(range(td.graph.m)) - set(td.cotree)


def test_spanning_tree_triangle():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    td = spanning_tree(g, "bfs", 0)
    assert tree_edges(td) == {0, 2}
    assert td.cotree == (1,)
    assert td.rule == (0, 1 << 0, 0)


def test_spanning_tree_cycle_cotree_single():
    for n in range(3, 9):
        g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
        td = spanning_tree(g, "bfs", 0)
        assert len(td.cotree) == 1


def test_cotree_size_is_cycle_space_dimension():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randrange(4, 12)
        g = random_graph(rng, n, rng.randrange(n, 3 * n))
        if not is_connected(g):
            continue
        td = spanning_tree(g)
        assert len(td.cotree) == g.m - g.n + 1
        assert {eid for _, eid in filter(None, td.parent)} == tree_edges(td)
        # tree is connected and acyclic: n-1 edges reaching every vertex
        reached = {td.root}
        for v in range(g.n):
            x = v
            hops = 0
            while td.parent[x] is not None:
                x = td.parent[x][0]
                hops += 1
                assert hops <= g.n
            assert x == td.root
            reached.add(v)
        assert len(reached) == g.n


def test_spanning_tree_petersen_coords():
    g = Graph(10, PETERSEN_PAIRS)
    td = spanning_tree(g)
    assert td.num_coords == 15 - 10 + 1
    # coordinates ascend with edge id along the cotree
    assert list(td.cotree) == sorted(td.cotree)
    assert [td.rule[eid] for eid in td.cotree] == [1 << i for i in range(td.num_coords)]


def test_spanning_tree_rejects_disconnected():
    with pytest.raises(GraphError):
        spanning_tree(Graph(4, [(0, 1), (2, 3)]))


def test_spanning_tree_deterministic():
    g = Graph(10, PETERSEN_PAIRS)
    a = spanning_tree(g, "dfs", 3)
    b = spanning_tree(g, "dfs", 3)
    assert a.parent == b.parent and a.cotree == b.cotree


def two_branch_tree(g, strategy, root):
    """(parent, root paths, cotree) of the search ``spanning_tree`` ran before
    its two strategies shared one loop: a queue for bfs, a stack of adjacency
    iterators for dfs."""
    parent = [None] * g.n
    paths = [0] * g.n
    seen = [False] * g.n
    seen[root] = True
    tree = set()

    def discover(v, w, eid):
        seen[w] = True
        parent[w] = (v, eid)
        paths[w] = paths[v] | 1 << eid
        tree.add(eid)

    if strategy == "bfs":
        queue = [root]  # grows while it is read
        for v in queue:
            for w, eid in g.adj[v]:
                if not seen[w]:
                    discover(v, w, eid)
                    queue.append(w)
    else:
        stack = [(root, iter(g.adj[root]))]
        while stack:
            v, it = stack[-1]
            for w, eid in it:
                if not seen[w]:
                    discover(v, w, eid)
                    stack.append((w, iter(g.adj[w])))
                    break
            else:
                stack.pop()
    return tuple(parent), tuple(paths), tuple(eid for eid in range(g.m) if eid not in tree)


@pytest.mark.parametrize(
    "name",
    [
        "k4",
        "cycle:7",
        "petersen",
        "heawood",
        "mcgee",
        "pappus",
        "tutte_coxeter",
        "complete:6",
        *(f"random:20:3 seed {seed}" for seed in range(5)),
    ],
)
def test_one_loop_gives_the_two_branch_trees_from_every_root(name):
    if name.startswith("random"):
        g = random_regular(20, 3, seed=int(name.split()[-1]))
    else:
        g = make(parse_family(name))
    for strategy in ("bfs", "dfs"):
        for root in range(g.n):
            td = spanning_tree(g, strategy, root)
            parent, paths, cotree = two_branch_tree(g, strategy, root)
            assert (td.parent, td.root_paths, td.cotree) == (parent, paths, cotree), (strategy, root)
            assert [td.rule[eid] for eid in cotree] == [1 << i for i in range(len(cotree))]
            assert sum(td.rule) == (1 << len(cotree)) - 1
            ends = [g.edges[eid] for eid in cotree]
            assert td.cycles == tuple(1 << eid | paths[a] ^ paths[b] for eid, (a, b) in zip(cotree, ends))


# --- root paths ---------------------------------------------------------------


def split_by_root_paths(td, eid):
    """The two sides of T - e read off bit ``eid`` of the root paths, the side
    holding the lower endpoint of ``eid`` first."""
    far = {v for v in range(td.graph.n) if td.root_paths[v] >> eid & 1}
    near = set(range(td.graph.n)) - far
    return (near, far) if min(td.graph.edges[eid]) in near else (far, near)


def test_tree_split_path():
    g = Graph(3, [(0, 1), (1, 2)])
    td = spanning_tree(g)
    a, b = split_by_root_paths(td, 0)
    assert a == {0} and b == {1, 2}


def test_tree_split_star_lower_endpoint_side():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    td = spanning_tree(g)
    a, b = split_by_root_paths(td, 0)
    assert a == {0, 2, 3} and b == {1}


def test_tree_split_matches_deletion_components():
    g = Graph(10, PETERSEN_PAIRS)
    td = spanning_tree(g)
    tree = tree_edges(td)
    for eid in sorted(tree):
        a, b = split_by_root_paths(td, eid)
        assert a | b == set(range(10)) and not (a & b) and a and b
        tree_pairs = [g.edges[t] for t in tree if t != eid]
        # the two sides are the components of T - e
        parts = oracle_2ecc_partition(Graph(10, tree_pairs), set())
        assert {frozenset(a), frozenset(b)} == parts
        assert min(g.edges[eid]) in a


def test_root_paths_match_deletion_components():
    graphs = [
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # path
        Graph(5, [(2, 0), (2, 1), (2, 3), (2, 4)]),  # star
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
        Graph(10, PETERSEN_PAIRS),
        random_regular(20, 3, seed=2),
    ]
    for g in graphs:
        for strategy in ("bfs", "dfs"):
            for root in (0, g.n - 1):
                td = spanning_tree(g, strategy, root)
                paths = td.root_paths
                tree = tree_edges(td)
                assert paths[root] == 0
                for eid in range(g.m):
                    if eid not in tree:
                        assert not any(p >> eid & 1 for p in paths)
                        continue
                    # the two sides of T - e, found by a plain search
                    rest = [g.edges[t] for t in tree if t != eid]
                    (near,) = [c for c in oracle_2ecc_partition(Graph(g.n, rest), set()) if root in c]
                    for v in range(g.n):
                        assert (paths[v] >> eid) & 1 == (v not in near), (strategy, root, eid, v)


# --- bridges / 2ecc -----------------------------------------------------------


def test_bridges_path_graph():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    bd = bridges_and_2ecc(g)
    assert bd.bridge_ids == {0, 1, 2}
    assert bd.component_edge_counts == ()


def test_bridges_triangle():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    bd = bridges_and_2ecc(g)
    assert bd.bridge_ids == frozenset()
    assert bd.component_edge_counts == (3,)


def test_bridges_triangle_with_pendant():
    g = Graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    bd = bridges_and_2ecc(g)
    assert bd.bridge_ids == {3}
    # the triangle {0, 1, 2}; the pendant vertex 3 has no edges, so no count
    assert bd.component_edge_counts == (3,)


@pytest.mark.parametrize("seed", range(15))
def test_bridges_match_deletion_oracle(seed):
    rng = random.Random(2000 + seed)
    n = rng.randrange(3, 12)
    g = random_graph(rng, n, rng.randrange(2, min(40, n * (n - 1) // 2) + 1))
    bd = bridges_and_2ecc(g)
    expected = oracle_bridges(g)
    assert bd.bridge_ids == expected
    # one count per brute-force bridge-deletion component with edges, by smallest vertex
    parts = sorted(oracle_2ecc_partition(g, expected), key=min)
    counts = [
        sum(1 for eid, (u, _) in enumerate(g.edges) if u in part and eid not in expected) for part in parts
    ]
    assert bd.component_edge_counts == tuple(c for c in counts if c)


@pytest.mark.parametrize("seed", range(60))
def test_bridges_labels_and_counts_on_sparse_graphs(seed):
    # forests, one or a few cycles, several components: the shapes of the
    # subgraphs a shortest path induces, and some it cannot
    rng = random.Random(3000 + seed)
    n = rng.randrange(1, 16)
    m = max(0, n - 1 + rng.randrange(-3, 4))
    g = random_graph(rng, n, m)
    bd = bridges_and_2ecc(g)
    bridges = oracle_bridges(g)
    assert bd.bridge_ids == bridges
    parts = sorted(oracle_2ecc_partition(g, bridges), key=min)
    want = [0] * g.n
    for label, part in enumerate(parts):
        for v in part:
            want[v] = label
    counts = {label: 0 for label in range(len(parts))}
    for eid, (u, _) in enumerate(g.edges):
        if eid not in bridges:
            counts[want[u]] += 1
    assert bd.component_edge_counts == tuple(c for c in counts.values() if c)



def shaped_graph(rng):
    """A seeded simple graph of at most 40 vertices: a forest, a cycle with
    chords and pendant trees, or a disjoint union of such parts, with its
    vertices relabelled, its edges shuffled and each edge's ends in random
    order."""

    def part(k):
        shape = rng.choice(("forest", "cycle"))
        pairs = set()
        if shape == "cycle" and k >= 3:
            ring = rng.randrange(3, k + 1)
            pairs.update((i, (i + 1) % ring) for i in range(ring))
            for _ in range(rng.randrange(0, ring)):
                a, b = rng.sample(range(ring), 2)
                pairs.add((a, b))
            start = ring
        else:
            start = 1
        for v in range(start, k):
            if rng.random() < 0.9:  # else v starts a new tree
                pairs.add((rng.randrange(v), v))
        return {(min(a, b), max(a, b)) for a, b in pairs if a != b}

    n = 0
    pairs = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        k = rng.randrange(1, 41 - n) if n < 40 else 0
        pairs += [(a + n, b + n) for a, b in part(k)]
        n += k
    names = list(range(n))
    rng.shuffle(names)
    rng.shuffle(pairs)
    return Graph(n, [(names[a], names[b]) if rng.random() < 0.5 else (names[b], names[a]) for a, b in pairs])


def test_root_path_mask_bridges_equal_the_climbing_form_on_shaped_graphs():
    rng = random.Random(36)
    shapes = set()
    for _ in range(500):
        g = shaped_graph(rng)
        got = bridges_and_2ecc(g)
        want = climbing_bridges_and_2ecc(g)
        assert got.bridge_ids == want.bridge_ids, g.edges
        assert got.component_edge_counts == want.component_edge_counts, g.edges
        components = len(want.component_edge_counts)
        shapes.add(("forest", "one component")[components] if components < 2 else "several")
        shapes.add("disconnected" if g.n and not is_connected(g) else "connected")
    assert shapes == {"forest", "one component", "several", "disconnected", "connected"}


# --- edge-list format ----------------------------------------------------------


def test_edge_list_round_trip():
    g = Graph(10, PETERSEN_PAIRS)
    text = format_edge_list(g)
    assert text.splitlines()[0] == "10 15"
    h = parse_edge_list(text)
    assert h.edges == g.edges and h.n == g.n


def test_parse_rejects_malformed():
    with pytest.raises(GraphError):
        parse_edge_list("")
    with pytest.raises(GraphError):
        parse_edge_list("2\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("2 2\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("2 1\n0 x\n")


def test_parse_refuses_more_vertices_than_a_connected_graph_has():
    with pytest.raises(GraphError, match="connected"):
        parse_edge_list("3 1\n0 1\n")
    assert parse_edge_list("2 1\n0 1\n").n == 2
