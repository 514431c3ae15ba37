"""Structural analysis of shortest paths in a lift.

For a shortest path between two lifted vertices this module reconstructs the
objects the distortion argument reasons about: the projected walk in the base
graph, the subgraph induced by its edges, per-edge use counts, the bridge
structure of that subgraph, and five counters

    components      -- 2-edge-connected components with at least one edge,
    bridge_paths    -- maximal all-bridge paths whose internal vertices
                       have degree 2 in the induced subgraph,
    bridges_once    -- bridges used once,
    component_edges -- edges inside 2-edge-connected components,
    bridges_twice   -- bridges used twice,

then verifies, per pair, the facts the distortion bound is assembled from:
only bridges repeat and never more than twice; Euler degree parity away from
the endpoints; bridge_paths <= 2*components + 1; twice-used bridge segments
no longer than the base diameter; and the accounting identities

    l1(x, y) = bridges_once + component_edges
    d(x, y)  = bridges_once + component_edges + 2*bridges_twice

together with component_edges >= components*girth and bridges_twice <=
bridge_paths*diameter.  ``verify_all`` computes all eight verdicts in one
pass over the induced edges and one over the induced vertices.

Canonical paths form a tree per source.  In the frame of a source (u, 0),
the canonical predecessor of a vertex is its smallest-id neighbour one level
closer, so the predecessors are the parent pointers of a shortest-path tree
rooted at (u, 0), and the canonical path to any vertex is its tree path.  A
sweep that visits the pairs of one source in a run keeps those pointers in
one dict (``pred`` of ``shortest_lifted_path``): each vertex's predecessor
is found once per source, and rebuilding a path mostly follows pointers
already found.  The dict holds only the vertices that paths visit.

Bridge paths are counted without building them.  A join is a degree-2 vertex
whose two edges are both bridges, and it glues them into one path.  Bridges
lie on no cycle, so they form a forest and no chain of joins closes a loop:
each join merges two paths, and bridge_paths = bridges - joins.  Only the
lengths of the twice-used bridge paths need the paths themselves.

Verdicts are data, never asserts: a sweep must be able to aggregate and dump
failures for forensic replay instead of dying mid-run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

from .graph import Graph, GraphError, bridges_and_2ecc


class PathRebuildError(RuntimeError):
    """A distance row, or a predecessor dict, that does not lead back to the
    source: no shortest path can be rebuilt through it."""


@dataclass(eq=False, slots=True)
class Verdict:
    name: str
    passed: bool
    violations: list = field(default_factory=list)
    checked: int = 0

    def __bool__(self):
        return self.passed


@dataclass(eq=False, slots=True)
class WalkAnalysis:
    """Everything measurable about one shortest lifted path.

    ``induced_vertices[i]`` / ``induced_edges[i]`` map the local ids of the
    induced subgraph back to base vertex / edge ids; ``multiplicity`` is keyed
    by base edge id.  ``segments`` holds the lengths of the maximal twice-used
    bridge paths, longest first.
    """

    x: int
    y: int
    path: tuple
    projected: tuple  # base edge ids along the walk, in order
    path_len: int
    multiplicity: dict
    induced: Graph
    induced_vertices: tuple
    induced_edges: tuple
    bridge_info: object
    components: int
    bridge_paths: int
    bridges_once: int
    component_edges: int
    bridges_twice: int
    segments: tuple


def shortest_lifted_path(lg, x, y, tables, pred=None):
    """A canonical shortest path from x to y as encoded vertex ids.

    The pair is translated so the source sits at label 0 (that frame is where
    the distance tables live) and the path is rebuilt backwards, choosing at
    each hop the predecessor with the smallest encoded id and translating it
    back as it is appended.  One deterministic shortest path per translation
    orbit, which is what lets the sweep analyse one representative pair per
    orbit.  ``tables`` are the rows of ``lift.representative_tables``.

    ``pred``, if given, maps vertices of that frame to their predecessors and
    is filled as they are found; it must come only from calls whose source
    lies in the same fiber as x.  Raises PathRebuildError if the distance row
    gives some vertex of the path no neighbour one level closer, or if the
    d(x, y) steps back from y do not end at x.
    """
    if x == y:
        return [x]
    s = lg.s
    mask = lg.mask
    f = x & mask
    x0 = x ^ f
    cur = y ^ f
    dist = tables[x >> s]
    if pred is None:
        pred = {}
    hops = lg.hops
    above = lg.num_vertices  # larger than every vertex id
    path = [y]
    for _ in range(dist[cur]):
        step = pred.get(cur)
        if step is None:
            target = dist[cur] - 1
            h = cur & mask
            step = above
            for base, rule in hops[cur >> s]:
                w = base | (h ^ rule)
                if w < step and dist[w] == target:
                    step = w
            if step == above:
                raise PathRebuildError(
                    f"vertex {cur ^ f} has no neighbour one level closer to {x}: "
                    f"the distance row of base vertex {x >> s} is inconsistent"
                )
            pred[cur] = step
        path.append(step ^ f)
        cur = step
    if cur != x0:
        raise PathRebuildError(
            f"the path from {x} to {y} reaches {cur ^ f}, not {x}, at distance 0: "
            f"the distance row of base vertex {x >> s} or the predecessors are inconsistent"
        )
    path.reverse()
    return path


def analyze(lg, path):
    """Reconstruct the induced subgraph, multiplicities, bridge structure and
    all counters for one path."""
    g = lg.base
    s = lg.s
    mask = lg.mask
    rule = lg.rule
    index = g._index
    projected = []
    mult = {}
    a = path[0]
    u = a >> s
    for b in islice(path, 1, None):
        v = b >> s
        eid = index.get((u, v) if u < v else (v, u))
        if eid is None or (a ^ b) & mask != rule[eid]:
            raise GraphError(f"({a}, {b}) is not an edge of the lift")
        projected.append(eid)
        mult[eid] = mult.get(eid, 0) + 1
        a = b
        u = v

    induced_edges = tuple(sorted(mult))
    # the vertices of a walk with edges are the endpoints of its edges
    verts = sorted({b >> s for b in path}) if projected else []
    local = {v: i for i, v in enumerate(verts)}
    ends = map(g.edges.__getitem__, induced_edges)
    induced = Graph(len(verts), [(local[p], local[q]) for p, q in ends])
    bd = bridges_and_2ecc(induced)

    bridges = bd.bridge_ids
    once = 0
    chains = {}  # twice-used bridge -> the bridges of its twice-used path
    for le in bridges:
        c = mult[induced_edges[le]]
        if c == 1:
            once += 1
        elif c == 2:
            chains[le] = [le]
    joins = [a for a in induced.adj if len(a) == 2 and a[0][1] in bridges and a[1][1] in bridges]
    for (_, e1), (_, e2) in joins:
        if e1 in chains and e2 in chains:
            merged = chains[e1] + chains[e2]
            for le in merged:
                chains[le] = merged

    return WalkAnalysis(
        x=path[0],
        y=path[-1],
        path=tuple(path),
        projected=tuple(projected),
        path_len=len(path) - 1,
        multiplicity=mult,
        induced=induced,
        induced_vertices=tuple(verts),
        induced_edges=induced_edges,
        bridge_info=bd,
        components=sum(1 for c in bd.component_edge_counts.values() if c),
        bridge_paths=len(bridges) - len(joins),
        bridges_once=once,
        component_edges=len(induced_edges) - len(bridges),
        bridges_twice=len(chains),
        segments=tuple(sorted({c[0]: len(c) for c in chains.values()}.values(), reverse=True)),
    )


VERDICT_NAMES = (
    "euler_parity",
    "repetitions",
    "counting",
    "segments",
    "accounting",
    "endpoint_degrees",
    "component_girth",
    "relift",
)


def verify_all(lg, wa, table, base_girth, base_diam):
    """All verdicts for one analysis, keyed by name in ``VERDICT_NAMES`` order.

    euler_parity      -- in the multiplicity multigraph every degree is even
                         except possibly at the projected endpoints;
    repetitions       -- only bridges of the induced subgraph repeat, and
                         never more than twice;
    counting          -- bridge_paths <= 2*components + 1; with no components
                         every edge is used once and the path length equals
                         the embedding distance;
    segments          -- no maximal twice-used bridge path is longer than the
                         base diameter;
    accounting        -- the identities tying the embedding to the counters,
                         plus the two inequalities the distortion bound rests
                         on;
    endpoint_degrees  -- degree-1 vertices of the induced subgraph can only be
                         the endpoints;
    component_girth   -- every 2-edge-connected component with edges has at
                         least girth-many;
    relift            -- re-lifting the projected walk from x by the tree
                         decomposition's rule lands exactly on y.

    The re-lifted walk ends over the walk's last vertex, y's, and the group
    Z_2^s is abelian, so its label is x's flipped once per cotree coordinate
    of each edge the walk uses an odd number of times; ``coord_of`` comes
    from the tree decomposition, not from the lift's rule.
    """
    s = lg.s
    mask = lg.mask
    px = wa.x >> s
    py = wa.y >> s
    mult = wa.multiplicity
    bridges = wa.bridge_info.bridge_ids
    induced = wa.induced
    coord_of = lg.coord_of

    repetitions = []
    degs = [0] * induced.n
    odd = 0
    label = wa.x & mask
    for le, ((a, b), be) in enumerate(zip(induced.edges, wa.induced_edges)):
        c = mult[be]
        degs[a] += c
        degs[b] += c
        if c & 1:
            odd += 1
            if coord_of[be] >= 0:
                label ^= 1 << coord_of[be]
        if c >= 2:
            if le not in bridges:
                repetitions.append(f"non-bridge edge {be} used {c} times")
            if c > 2:
                repetitions.append(f"edge {be} used {c} times")

    euler = []
    endpoint = []
    for v, deg, nbrs in zip(wa.induced_vertices, degs, induced.adj):
        if v != px and v != py:
            if deg & 1:
                euler.append(f"vertex {v} has odd multigraph degree {deg}")
            if len(nbrs) == 1:
                endpoint.append(
                    f"vertex {v} has degree 1 in the induced subgraph but is not an endpoint"
                )

    l1 = table.l1(wa.x, wa.y)
    components = wa.components
    counting = []
    limit = 2 * components + 1
    if wa.bridge_paths > limit:
        counting.append(f"bridge_paths={wa.bridge_paths} exceeds 2*components+1={limit}")
    if components == 0:
        repeated = [e for e, c in mult.items() if c != 1]
        if repeated:
            counting.append(f"no components but edges {repeated} are not singly used")
        if wa.path_len != l1:
            counting.append(f"no components but path_len={wa.path_len} != l1 distance {l1}")

    segments = [
        f"twice-used segment of length {length} exceeds diam {base_diam}"
        for length in wa.segments
        if length > base_diam
    ]

    accounting = []
    once_inside = wa.bridges_once + wa.component_edges
    if l1 != once_inside:
        accounting.append(f"l1={l1} != bridges_once+component_edges={once_inside}")
    if l1 != odd:
        accounting.append(f"l1={l1} != odd-multiplicity edge count {odd}")
    if wa.path_len != once_inside + 2 * wa.bridges_twice:
        accounting.append(
            f"path_len={wa.path_len} != "
            f"bridges_once+component_edges+2*bridges_twice={once_inside + 2 * wa.bridges_twice}"
        )
    if components > 0:
        if base_girth == math.inf:
            accounting.append(
                "induced subgraph has a 2-edge-connected component but the base is a forest"
            )
        elif wa.component_edges < components * base_girth:
            accounting.append(
                f"component_edges={wa.component_edges} < "
                f"components*girth={components * base_girth}"
            )
    if wa.bridges_twice > wa.bridge_paths * base_diam:
        accounting.append(
            f"bridges_twice={wa.bridges_twice} > "
            f"bridge_paths*diam={wa.bridge_paths * base_diam}"
        )

    counts = wa.bridge_info.component_edge_counts.values()
    if base_girth == math.inf:
        girth = [f"component with {c} edges in the lift of a forest" for c in counts if c]
    else:
        girth = [
            f"component with only {c} edges (< girth {base_girth})"
            for c in counts
            if c and c < base_girth
        ]

    want = wa.y & mask
    relift = []
    if label != want:
        relift.append(f"re-lifted walk ends at {(py, label)}, expected {(py, want)}")

    return {
        name: Verdict(name, not bad, bad)
        for name, bad in zip(
            VERDICT_NAMES,
            (euler, repetitions, counting, segments, accounting, endpoint, girth, relift),
        )
    }


def forensic_text(lg, wa, verdicts):
    """Human-readable dump of one analysis for failure replay."""
    px, fx = lg.decode(wa.x)
    py, fy = lg.decode(wa.y)
    lines = [
        f"pair: ({px}, {lg.label_bits(fx)}) -- ({py}, {lg.label_bits(fy)})",
        "path: " + " ".join(f"({u},{lg.label_bits(f)})" for u, f in map(lg.decode, wa.path)),
        f"path_len: {wa.path_len}",
        "multiplicities: "
        + "; ".join(
            f"edge {e} {lg.base.edges[e]} x{wa.multiplicity[e]}" for e in wa.induced_edges
        ),
        f"induced vertices: {list(wa.induced_vertices)}",
        f"induced bridges: {sorted(wa.induced_edges[le] for le in wa.bridge_info.bridge_ids)}",
        f"components={wa.components} bridge_paths={wa.bridge_paths} "
        f"bridges_once={wa.bridges_once} component_edges={wa.component_edges} "
        f"bridges_twice={wa.bridges_twice} segments={list(wa.segments)}",
        "verdicts: "
        + "; ".join(
            f"{name} {'PASS' if v.passed else 'FAIL ' + '; '.join(v.violations)}"
            for name, v in verdicts.items()
        ),
    ]
    return "\n".join(lines)
