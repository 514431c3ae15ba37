"""The per-orbit analysis against a plain reference, and its call boundary.

``reference_analyze`` keeps the straightforward form of ``walks.analyze``: a
union-find that joins bridges meeting at a degree-2 vertex, once over all
bridges for ``bridge_paths`` and once over the twice-used ones for
``segments``.  ``reference_verdicts`` likewise keeps each of the eight checks
that ``walks.verify_all`` fuses into one pass as a function of its own, the
degree checks as per-vertex sums.
The inputs are seeded random lifted walks that are not shortest paths, so
the counters and verdicts are exercised well outside what a sweep produces:
backtracks, bridges used three or more times, repeated non-bridges, closed
walks, and walks over a lift with a broken matching.

``every_edge_analyze`` and ``every_edge_verify_all`` (``lift_reference``) are
the two functions as they were before they touched only the edges a walk
repeats; on the canonical paths of the sweeps' own streams every field,
verdict and violation text must be theirs, on fault lifts too.
"""

import math
import random

import pytest

import treelift.walks as walks
from treelift.embedding import embed
from treelift.families import FamilySpec, load_named, make
from treelift.graph import Graph, GraphError, bridges_and_2ecc, diameter, girth, spanning_tree
from treelift.lift import build_lift, representative_tables, sample_pair_list
from treelift.report import CSV_HEADER, csv_collector, sweep_block, to_json_bytes
from treelift.sweeps import group_orbit_reps, verdict_sweep
from treelift.voltage import GroupOrbits, lifted_group
from treelift.walks import VERDICT_NAMES, WalkAnalysis, analyze, shortest_lifted_path, verify_all

from lift_reference import (
    every_edge_analyze,
    every_edge_verify_all,
    every_source_tables,
    iter_orbit_reps,
    lift_walk,
    project_edge,
    project_vertex,
)


def reference_analyze(lg, path):
    g = lg.base
    mult = {}
    for a, b in zip(path, path[1:]):
        eid = project_edge(lg, a, b)
        mult[eid] = mult.get(eid, 0) + 1
    induced_edges = tuple(sorted(mult))
    verts = sorted({v for eid in induced_edges for v in g.edges[eid]})
    local = {v: i for i, v in enumerate(verts)}
    induced = Graph(
        len(verts), [(local[g.edges[e][0]], local[g.edges[e][1]]) for e in induced_edges]
    )
    bd = bridges_and_2ecc(induced)

    def chain_sizes(edge_ok):
        """Union bridges meeting at a degree-2 vertex; return class sizes."""
        parent = {le: le for le in range(induced.m) if edge_ok(le)}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for w in range(induced.n):
            if induced.degree(w) != 2:
                continue
            (_, e1), (_, e2) = induced.adj[w]
            if e1 in parent and e2 in parent:
                parent[find(e1)] = find(e2)
        sizes = {}
        for le in parent:
            r = find(le)
            sizes[r] = sizes.get(r, 0) + 1
        return sizes

    def is_bridge(le):
        return le in bd.bridge_ids

    def uses(le):
        return mult[induced_edges[le]]

    def counted(edge_ok):
        return sum(1 for le in range(induced.m) if edge_ok(le))

    twice = chain_sizes(lambda le: is_bridge(le) and uses(le) == 2)
    return WalkAnalysis(
        x=path[0],
        y=path[-1],
        path=tuple(path),
        path_len=len(path) - 1,
        multiplicity=mult,
        induced=induced,
        induced_vertices=tuple(verts),
        induced_edges=induced_edges,
        bridge_info=bd,
        components=sum(1 for c in bd.component_edge_counts if c),
        bridge_paths=len(chain_sizes(is_bridge)),
        bridges_once=counted(lambda le: is_bridge(le) and uses(le) == 1),
        component_edges=counted(lambda le: not is_bridge(le)),
        bridges_twice=counted(lambda le: is_bridge(le) and uses(le) == 2),
        segments=tuple(sorted(twice.values(), reverse=True)),
    )


def reference_euler_parity(lg, wa):
    ends = (project_vertex(lg, wa.x), project_vertex(lg, wa.y))
    bad = []
    for i, v in enumerate(wa.induced_vertices):
        deg = sum(wa.multiplicity[wa.induced_edges[eid]] for _, eid in wa.induced.adj[i])
        if deg & 1 and v not in ends:
            bad.append(f"vertex {v} has odd multigraph degree {deg}")
    return bad


def reference_repetitions(wa):
    bad = []
    for le, be in enumerate(wa.induced_edges):
        c = wa.multiplicity[be]
        if c >= 2 and le not in wa.bridge_info.bridge_ids:
            bad.append(f"non-bridge edge {be} used {c} times")
        if c > 2:
            bad.append(f"edge {be} used {c} times")
    return bad


def reference_counting(wa, table):
    bad = []
    limit = 2 * wa.components + 1
    if wa.bridge_paths > limit:
        bad.append(f"bridge_paths={wa.bridge_paths} exceeds 2*components+1={limit}")
    if wa.components == 0:
        repeated = [e for e, c in wa.multiplicity.items() if c != 1]
        if repeated:
            bad.append(f"no components but edges {repeated} are not singly used")
        l1 = table.l1(wa.x, wa.y)
        if wa.path_len != l1:
            bad.append(f"no components but path_len={wa.path_len} != l1 distance {l1}")
    return bad


def reference_segments(wa, base_diam):
    return [
        f"twice-used segment of length {length} exceeds diam {base_diam}"
        for length in wa.segments
        if length > base_diam
    ]


def reference_accounting(wa, table, base_girth, base_diam):
    bad = []
    l1 = table.l1(wa.x, wa.y)
    once_inside = wa.bridges_once + wa.component_edges
    if l1 != once_inside:
        bad.append(f"l1={l1} != bridges_once+component_edges={once_inside}")
    odd = sum(1 for c in wa.multiplicity.values() if c & 1)
    if l1 != odd:
        bad.append(f"l1={l1} != odd-multiplicity edge count {odd}")
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
    return bad


def reference_endpoint_degrees(lg, wa):
    ends = (project_vertex(lg, wa.x), project_vertex(lg, wa.y))
    return [
        f"vertex {v} has degree 1 in the induced subgraph but is not an endpoint"
        for i, v in enumerate(wa.induced_vertices)
        if wa.induced.degree(i) == 1 and v not in ends
    ]


def reference_component_girth(wa, base_girth):
    counts = [c for c in wa.bridge_info.component_edge_counts if c]
    if base_girth == math.inf:
        return [f"component with {c} edges in the lift of a forest" for c in counts]
    return [f"component with only {c} edges (< girth {base_girth})" for c in counts if c < base_girth]


def reference_relift(lg, wa):
    projected = [project_edge(lg, a, b) for a, b in zip(wa.path, wa.path[1:])]
    end = lift_walk(lg.td, projected, lg.decode(wa.x))[-1]
    want = lg.decode(wa.y)
    return [] if end == want else [f"re-lifted walk ends at {end}, expected {want}"]


def reference_verdicts(lg, wa, table, base_girth, base_diam):
    """The violations per verdict name, in ``VERDICT_NAMES`` order, for a
    reference analysis; a verdict passes exactly when its list is empty."""
    out = {
        "euler_parity": reference_euler_parity(lg, wa),
        "repetitions": reference_repetitions(wa),
        "counting": reference_counting(wa, table),
        "segments": reference_segments(wa, base_diam),
        "accounting": reference_accounting(wa, table, base_girth, base_diam),
        "endpoint_degrees": reference_endpoint_degrees(lg, wa),
        "component_girth": reference_component_girth(wa, base_girth),
        "relift": reference_relift(lg, wa),
    }
    assert tuple(out) == VERDICT_NAMES
    return out


def random_walk(lg, rng):
    """A seeded lifted walk: random steps, immediate backtracks, bursts of
    back-and-forth over one edge, and, half the time, closed by retracing."""
    walk = [rng.randrange(lg.num_vertices)]
    for _ in range(rng.randrange(25)):
        r = rng.random()
        if r < 0.2 and len(walk) > 1:
            walk.append(walk[-2])
        elif r < 0.3 and len(walk) > 1:
            walk.extend([walk[-2], walk[-1]] * rng.randrange(1, 3))
        else:
            walk.append(rng.choice(lg.neighbors(walk[-1])))
    if rng.random() < 0.5:
        walk.extend(reversed(walk[:-1]))
    return walk


def bundle(name):
    """(lift, embedding, base girth, base diameter) of a named case."""
    base = name.removesuffix("[fault]")
    g = load_named(base)
    td = spanning_tree(g)
    # the fault `verify --fault-inject` plants; the lift stays connected
    fault = (td.cotree[0], 1 << 1) if base != name else None
    lg = build_lift(td, fault=fault)
    return lg, embed(lg), *{"k4": (3, 1), "petersen": (5, 2)}[base]


FIELDS = (
    "x",
    "y",
    "path",
    "path_len",
    "multiplicity",
    "induced_vertices",
    "induced_edges",
    "components",
    "bridge_paths",
    "bridges_once",
    "component_edges",
    "bridges_twice",
    "segments",
)


@pytest.mark.parametrize("name", ["k4", "petersen", "petersen[fault]"])
def test_analyze_and_verdicts_match_the_reference_on_random_walks(name):
    lg, table, base_girth, base_diam = bundle(name)
    rng = random.Random(8)
    seen = set()
    for _ in range(600):
        walk = random_walk(lg, rng)
        got = analyze(lg, walk)
        want = reference_analyze(lg, walk)
        for f in FIELDS:
            assert getattr(got, f) == getattr(want, f), (f, walk)
        assert got.induced.edges == want.induced.edges
        assert got.bridge_info.bridge_ids == want.bridge_info.bridge_ids
        verdicts = verify_all(lg, got, table, base_girth, base_diam)
        assert list(verdicts.items()) == list(
            reference_verdicts(lg, want, table, base_girth, base_diam).items()
        ), walk
        mult = want.multiplicity.values()
        bridge_uses = [
            want.multiplicity[want.induced_edges[le]] for le in want.bridge_info.bridge_ids
        ]
        seen.update(
            tag
            for tag, hit in (
                ("closed", want.x == want.y and want.path_len > 0),
                ("bridge 3+", any(c >= 3 for c in bridge_uses)),
                ("repeated non-bridge", sum(c > 1 for c in mult) > sum(c > 1 for c in bridge_uses)),
                ("long segment", max(want.segments, default=0) >= 2),
                ("two segments", len(want.segments) >= 2),
                ("bridge chains", want.bridge_paths >= 2),
                ("failing verdict", any(verdicts.values())),
            )
            if hit
        )
    assert seen >= {
        "closed",
        "bridge 3+",
        "repeated non-bridge",
        "long segment",
        "two segments",
        "bridge chains",
        "failing verdict",
    }, name


def test_analyze_builds_one_graph_and_one_bridge_decomposition_per_orbit(monkeypatch):
    # plain-function wrappers, as the benchmark's tracer installs them: the
    # per-orbit boundary stays visible only while analyze calls both by name;
    # the sweep is fed every translation orbit, not only one per group orbit
    g = load_named("k4")
    lg = build_lift(spanning_tree(g))
    table = embed(lg)
    tables = every_source_tables(lg, table)
    family = list(iter_orbit_reps(lg))

    def sweep():
        rows = [CSV_HEADER]
        collect = csv_collector(lg, rows.append)
        result = verdict_sweep(lg, table, tables, 3, 1, pairs=family, collect=collect)
        block = sweep_block(result, None, None)
        return result, to_json_bytes(block), "".join(rows)

    _, want, want_csv = sweep()
    calls = {"Graph": 0, "bridges_and_2ecc": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(walks, "Graph", counting("Graph", walks.Graph))
    monkeypatch.setattr(
        walks, "bridges_and_2ecc", counting("bridges_and_2ecc", walks.bridges_and_2ecc)
    )
    result, got, got_csv = sweep()
    assert result.analyses == len(family) == want_csv.count("\n") - 1
    assert calls == {"Graph": len(family), "bridges_and_2ecc": len(family)}
    assert got == want
    assert got_csv == want_csv


# --- repeat-only analysis against the every-edge form ------------------------


def assert_matches_every_edge_form(lg, table, tables, stream, base_girth, base_diam):
    """Every ``WalkAnalysis`` field and every verdict (name, pass flag and
    violation texts, in order) of each canonical path of ``stream`` equal
    ``every_edge_analyze`` and ``every_edge_verify_all``; returns how many
    analyses failed a verdict."""
    failing = 0
    source = pred = None
    for x, y, _ in stream:
        if x != source:
            source, pred = x, {}
        path = shortest_lifted_path(lg, x, y, tables, pred)
        got = analyze(lg, path)
        want = every_edge_analyze(lg, path)
        for name in WalkAnalysis.__slots__:
            if name not in ("induced", "bridge_info"):
                assert getattr(got, name) == getattr(want, name), (name, path)
        assert list(got.multiplicity.items()) == list(want.multiplicity.items()), path
        assert (got.induced.n, got.induced.edges, got.induced.adj) == (
            want.induced.n,
            want.induced.edges,
            want.induced.adj,
        )
        assert got.bridge_info.bridge_ids == want.bridge_info.bridge_ids, path
        assert got.bridge_info.component_edge_counts == want.bridge_info.component_edge_counts, path
        verdicts = verify_all(lg, got, table, base_girth, base_diam)
        reference = every_edge_verify_all(lg, want, table, base_girth, base_diam)
        assert list(verdicts.items()) == list(reference.items()), path
        failing += any(verdicts.values())
    return failing


def sweep_inputs(g, strategy="bfs"):
    lg = build_lift(spanning_tree(g, strategy))
    table = embed(lg)
    orbits = GroupOrbits(lifted_group(lg))
    return lg, table, representative_tables(lg, table, orbits), orbits


@pytest.mark.parametrize("strategy", ["bfs", "dfs"])
@pytest.mark.parametrize("name", ["k4", "petersen", "heawood", "pappus"])
def test_repeat_only_analysis_equals_the_every_edge_form_on_every_orbit(name, strategy):
    g = load_named(name)
    lg, table, tables, orbits = sweep_inputs(g, strategy)
    stream = group_orbit_reps(lg, orbits)
    assert assert_matches_every_edge_form(lg, table, tables, stream, girth(g), diameter(g)) == 0


@pytest.mark.parametrize("extra", [1, 0b11, 0b101, "all ones"])
def test_repeat_only_analysis_equals_the_every_edge_form_on_every_connected_petersen_fault_lift(
    extra,
):
    g = load_named("petersen")
    td = spanning_tree(g)
    extra = (1 << td.num_coords) - 1 if extra == "all ones" else extra
    connected = failing = 0
    for eid in range(g.m):
        lg = build_lift(td, fault=(eid, extra))
        table = embed(lg)
        orbits = GroupOrbits(lifted_group(lg))
        try:
            tables = representative_tables(lg, table, orbits)
        except GraphError:
            continue  # a disconnected fault lift has no tables to rebuild paths from
        connected += 1
        # a seeded family of 300 pairs: every translation orbit would be 3,200
        stream = sample_pair_list(lg, tables, 300, eid)
        failing += assert_matches_every_edge_form(lg, table, tables, stream, 5, 2)
    assert 0 < connected < g.m
    assert failing  # the broken matching fails verdicts, so their texts are compared too


@pytest.mark.parametrize(
    "spec, count",
    [(FamilySpec.named("mcgee"), 2000)]
    + [(FamilySpec.random_regular(20, 3, girth_min=5, seed=seed), 1500) for seed in range(3)],
    ids=lambda v: v.describe() if isinstance(v, FamilySpec) else str(v),
)
def test_repeat_only_analysis_equals_the_every_edge_form_on_sampled_streams(spec, count):
    g = make(spec)
    lg, table, tables, _ = sweep_inputs(g)
    stream = sample_pair_list(lg, tables, count, 1)
    assert assert_matches_every_edge_form(lg, table, tables, stream, girth(g), diameter(g)) == 0
