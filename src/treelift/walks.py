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
bridge_paths*diameter.

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

from .graph import Graph, GraphError, bridges_and_2ecc
from .lift import bfs_lifted, lift_walk


@dataclass(eq=False)
class Verdict:
    name: str
    passed: bool
    violations: list = field(default_factory=list)
    checked: int = 0

    def __bool__(self):
        return self.passed


def _verdict(name, violations):
    return Verdict(name=name, passed=not violations, violations=violations)


@dataclass(eq=False)
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

    @property
    def odd_edges(self):
        return sum(1 for c in self.multiplicity.values() if c & 1)


def shortest_lifted_path(lg, x, y, tables=None):
    """A canonical shortest path from x to y as encoded vertex ids.

    The pair is translated so the source sits at label 0 (that frame is where
    the distance tables live) and the path is rebuilt backwards, choosing at
    each hop the predecessor with the smallest encoded id and translating it
    back as it is appended.  One deterministic shortest path per translation
    orbit, which is what lets the sweep analyse one representative pair per
    orbit.
    """
    if x == y:
        return [x]
    s = lg.s
    mask = lg.mask
    f = x & mask
    x0 = x ^ f
    y0 = y ^ f
    dist = tables[x >> s] if tables is not None else bfs_lifted(lg, x0)
    if dist[y0] < 0:
        raise GraphError(f"no path between {x} and {y}")
    adj = lg.base.adj
    rule = lg.rule
    above = lg.num_vertices  # larger than every vertex id
    path = [y]
    cur = y0
    while cur != x0:
        target = dist[cur] - 1
        h = cur & mask
        step = above
        for v, eid in adj[cur >> s]:
            w = (v << s) | (h ^ rule[eid])
            if w < step and dist[w] == target:
                step = w
        path.append(step ^ f)
        cur = step
    path.reverse()
    return path


def analyze(lg, path):
    """Reconstruct the induced subgraph, multiplicities, bridge structure and
    all counters for one path."""
    g = lg.base
    s = lg.s
    projected = []
    mult = {}
    for a, b in zip(path, path[1:]):
        eid = g.edge_between(a >> s, b >> s)
        if eid is None or (a ^ b) & lg.mask != lg.rule[eid]:
            raise GraphError(f"({a}, {b}) is not an edge of the lift")
        projected.append(eid)
        mult[eid] = mult.get(eid, 0) + 1

    induced_edges = tuple(sorted(mult))
    verts = sorted({v for eid in induced_edges for v in g.edges[eid]})
    local = {v: i for i, v in enumerate(verts)}
    induced = Graph(
        len(verts), [(local[g.edges[e][0]], local[g.edges[e][1]]) for e in induced_edges]
    )
    bd = bridges_and_2ecc(induced)

    components = sum(1 for c in bd.component_edge_counts.values() if c)
    bridges = bd.bridge_ids
    once = inside = 0
    chains = {}  # twice-used bridge -> the bridges of its twice-used path
    for le, be in enumerate(induced_edges):
        if le not in bridges:
            inside += 1
        elif mult[be] == 1:
            once += 1
        elif mult[be] == 2:
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
        components=components,
        bridge_paths=len(bridges) - len(joins),
        bridges_once=once,
        component_edges=inside,
        bridges_twice=len(chains),
        segments=tuple(sorted({c[0]: len(c) for c in chains.values()}.values(), reverse=True)),
    )


def _endpoints(lg, wa):
    return lg.project_vertex(wa.x), lg.project_vertex(wa.y)


def verify_euler_parity(lg, wa):
    """In the multiplicity multigraph every degree is even except possibly the
    projected endpoints."""
    px, py = _endpoints(lg, wa)
    mult = wa.multiplicity
    degs = [0] * len(wa.induced_vertices)
    for (a, b), be in zip(wa.induced.edges, wa.induced_edges):
        degs[a] += mult[be]
        degs[b] += mult[be]
    bad = [
        f"vertex {v} has odd multigraph degree {deg}"
        for v, deg in zip(wa.induced_vertices, degs)
        if deg & 1 and v not in (px, py)
    ]
    return _verdict("euler_parity", bad)


def verify_repetitions(wa):
    """Only bridges of the induced subgraph repeat, and never more than twice."""
    bad = []
    for le, be in enumerate(wa.induced_edges):
        c = wa.multiplicity[be]
        if c >= 2 and le not in wa.bridge_info.bridge_ids:
            bad.append(f"non-bridge edge {be} used {c} times")
        if c > 2:
            bad.append(f"edge {be} used {c} times")
    return _verdict("repetitions", bad)


def verify_counting(wa, table=None):
    """bridge_paths <= 2*components + 1; with no components every edge is used
    once and the path length equals the embedding distance."""
    bad = []
    limit = 2 * wa.components + 1
    if wa.bridge_paths > limit:
        bad.append(f"bridge_paths={wa.bridge_paths} exceeds 2*components+1={limit}")
    if wa.components == 0:
        repeated = [e for e, c in wa.multiplicity.items() if c != 1]
        if repeated:
            bad.append(f"no components but edges {repeated} are not singly used")
        l1 = table.l1(wa.x, wa.y) if table is not None else wa.odd_edges
        if wa.path_len != l1:
            bad.append(f"no components but path_len={wa.path_len} != l1 distance {l1}")
    return _verdict("counting", bad)


def verify_segments(wa, base_diam):
    """No maximal twice-used bridge path is longer than the base diameter."""
    bad = [
        f"twice-used segment of length {length} exceeds diam {base_diam}"
        for length in wa.segments
        if length > base_diam
    ]
    return _verdict("segments", bad)


def verify_accounting(wa, table, base_girth, base_diam):
    """The identities tying the embedding to the counters, plus the two
    inequalities the distortion bound rests on."""
    bad = []
    l1 = table.l1(wa.x, wa.y)
    once_inside = wa.bridges_once + wa.component_edges
    if l1 != once_inside:
        bad.append(f"l1={l1} != bridges_once+component_edges={once_inside}")
    if l1 != wa.odd_edges:
        bad.append(f"l1={l1} != odd-multiplicity edge count {wa.odd_edges}")
    if wa.path_len != once_inside + 2 * wa.bridges_twice:
        bad.append(
            f"path_len={wa.path_len} != "
            f"bridges_once+component_edges+2*bridges_twice={once_inside + 2 * wa.bridges_twice}"
        )
    if wa.components > 0:
        if base_girth == math.inf:
            bad.append("induced subgraph has a 2-edge-connected component but the base is a forest")
        elif wa.component_edges < wa.components * base_girth:
            bad.append(
                f"component_edges={wa.component_edges} < "
                f"components*girth={wa.components * base_girth}"
            )
    if wa.bridges_twice > wa.bridge_paths * base_diam:
        bad.append(
            f"bridges_twice={wa.bridges_twice} > "
            f"bridge_paths*diam={wa.bridge_paths * base_diam}"
        )
    return _verdict("accounting", bad)


def verify_endpoint_degrees(lg, wa):
    """Degree-1 vertices of the induced subgraph can only be the endpoints."""
    px, py = _endpoints(lg, wa)
    bad = [
        f"vertex {v} has degree 1 in the induced subgraph but is not an endpoint"
        for v, a in zip(wa.induced_vertices, wa.induced.adj)
        if len(a) == 1 and v not in (px, py)
    ]
    return _verdict("endpoint_degrees", bad)


def verify_component_girth(wa, base_girth):
    """Every 2-edge-connected component with edges has at least girth-many."""
    if base_girth == math.inf:
        bad = [
            f"component with {c} edges in the lift of a forest"
            for c in wa.bridge_info.component_edge_counts.values()
            if c
        ]
    else:
        bad = [
            f"component with only {c} edges (< girth {base_girth})"
            for c in wa.bridge_info.component_edge_counts.values()
            if c and c < base_girth
        ]
    return _verdict("component_girth", bad)


def verify_relift(lg, wa):
    """Re-lifting the projected walk from x must land exactly on y."""
    u, f = lg.decode(wa.x)
    end = lift_walk(lg.base, lg.td, wa.projected, (u, f))[-1]
    v, h = lg.decode(wa.y)
    bad = [] if end == (v, h) else [f"re-lifted walk ends at {end}, expected {(v, h)}"]
    return _verdict("relift", bad)


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
    """All verdicts for one analysis, keyed by name."""
    return {
        "euler_parity": verify_euler_parity(lg, wa),
        "repetitions": verify_repetitions(wa),
        "counting": verify_counting(wa, table),
        "segments": verify_segments(wa, base_diam),
        "accounting": verify_accounting(wa, table, base_girth, base_diam),
        "endpoint_degrees": verify_endpoint_degrees(lg, wa),
        "component_girth": verify_component_girth(wa, base_girth),
        "relift": verify_relift(lg, wa),
    }


def forensic_text(lg, wa, verdicts=None):
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
    ]
    if verdicts:
        lines.append(
            "verdicts: "
            + "; ".join(
                f"{name} {'PASS' if v.passed else 'FAIL ' + '; '.join(v.violations)}"
                for name, v in verdicts.items()
            )
        )
    return "\n".join(lines)
