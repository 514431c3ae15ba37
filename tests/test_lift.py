import math
import random
import tracemalloc
from array import array

import pytest

import treelift.lift as lift_mod
from treelift.embedding import embed
from treelift.families import FamilySpec, load_named, make, parse_family
from treelift.graph import (
    Graph,
    GraphError,
    bfs_distances,
    girth,
    is_connected,
    parse_edge_list,
    spanning_tree,
)
from treelift.lift import (
    LiftedGraph,
    _cut_blocks,
    _cut_sides,
    _expand_row,
    _flip_masks,
    _fold,
    _whole_lift,
    bfs_lifted,
    build_lift,
    diameter_witness,
    lift_edge_list_text,
    lift_mapping_text,
    lifted_diameter,
    lifted_girth,
    representative_tables,
    two_sided_distances,
)
from treelift.report import run_analysis
from treelift.voltage import GroupOrbits, lifted_group

from lift_reference import (
    breadth_first_fold,
    division_flip_masks,
    every_source_tables,
    expanded_bfs,
    lift_walk,
    lifted_distance,
    list_cut_sides,
    project_edge,
    project_vertex,
    scalar_bfs,
)


def triangle():
    return Graph(3, [(0, 1), (1, 2), (2, 0)])


def cycle(n):
    return make(FamilySpec.cycle(n))


def tables_of(lg):
    return every_source_tables(lg, embed(lg))


def petersen_lift():
    g = load_named("petersen")
    td = spanning_tree(g)
    return build_lift(td)


# --- construction and shape ----------------------------------------------------


def test_triangle_lift_is_six_cycle():
    g = triangle()
    td = spanning_tree(g, "dfs", 0)  # path tree {01, 12}, cotree {20}
    assert td.cotree == (2,)
    lg = build_lift(td)
    assert lg.num_vertices == 6 and lg.num_edges == 6
    # connected + 2-regular + 6 vertices + girth 6 pins C6 exactly
    assert all(len(lg.neighbors(x)) == 2 for x in range(6))
    assert scalar_bfs(lg, 0).count(-1) == 0
    assert lifted_girth(lg, tables_of(lg)) == 6
    assert lifted_diameter(lg, tables_of(lg)) == 3


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_lift_doubles(n):
    g = cycle(n)
    lg = build_lift(spanning_tree(g))
    assert lg.num_vertices == 2 * n
    assert all(len(lg.neighbors(x)) == 2 for x in range(2 * n))
    assert scalar_bfs(lg, 0).count(-1) == 0
    assert lifted_girth(lg, tables_of(lg)) == 2 * n


def test_petersen_lift_counts():
    lg = petersen_lift()
    assert lg.s == 6
    assert lg.num_vertices == 640
    assert lg.num_edges == 960
    assert all(len(lg.neighbors(x)) == 3 for x in range(640))


def test_a_fault_out_of_range_is_refused():
    td = spanning_tree(load_named("petersen"))
    m, coords = td.graph.m, td.num_coords
    # edge ids -1 and m, extra masks -1 and 1 << s
    for fault in ((-1, 1), (m, 1), (0, -1), (0, 1 << coords)):
        with pytest.raises(GraphError, match="bad fault spec"):
            LiftedGraph(td, fault)
        with pytest.raises(GraphError, match="bad fault spec"):
            build_lift(td, fault=fault)
    # the extreme faults in range are taken
    for fault in ((0, 0), (m - 1, (1 << coords) - 1)):
        assert LiftedGraph(td, fault).fault == fault


def test_size_cap_reports_required():
    g = load_named("petersen")
    td = spanning_tree(g)
    with pytest.raises(GraphError, match="would have 640 vertices, above the cap of 100;"):
        build_lift(td, max_vertices=100)


def test_the_label_steps_are_derived_once_per_lift_and_never_for_a_refused_one(monkeypatch):
    real = lift_mod._flip_masks
    calls = []
    monkeypatch.setattr(lift_mod, "_flip_masks", lambda s: calls.append(s) or real(s))
    td = spanning_tree(load_named("petersen"))
    with pytest.raises(GraphError):
        build_lift(td, max_vertices=639)
    assert calls == []
    lg = build_lift(td, max_vertices=640)
    assert lg.label_steps is lg.label_steps
    bfs_lifted(lg, 5)
    assert calls == [6]


def test_neighbor_order_deterministic_by_edge_id():
    lg = petersen_lift()
    g = lg.base
    for x in (0, 5, 321, 639):
        u, f = lg.decode(x)
        expected = [lg.encode(v, f ^ lg.rule[eid]) for v, eid in g.adj[u]]
        assert lg.neighbors(x) == expected


# --- projections ----------------------------------------------------------------


def test_projections():
    lg = petersen_lift()
    for x in (0, 63, 64, 639):
        u, f = lg.decode(x)
        assert project_vertex(lg, x) == u
        assert lg.encode(u, f) == x
    # fiber over each base edge is a perfect matching of size 2^s
    for eid, (u, v) in enumerate(lg.base.edges):
        targets = set()
        for f in range(64):
            x = lg.encode(u, f)
            y = lg.encode(v, f ^ lg.rule[eid])
            assert project_edge(lg, x, y) == eid
            targets.add(y)
        assert len(targets) == 64
    assert 15 * 64 == lg.num_edges


def test_project_edge_rejects_non_edges():
    lg = petersen_lift()
    with pytest.raises(GraphError):
        project_edge(lg, 0, 1)  # same fiber, never adjacent


# --- walk lifting ----------------------------------------------------------------


def test_lift_walk_empty():
    g = triangle()
    td = spanning_tree(g, "dfs", 0)
    assert lift_walk(td, [], (1, 0)) == [(1, 0)]


def test_lift_walk_backtracked_cotree_edge_cancels():
    g = triangle()
    td = spanning_tree(g, "dfs", 0)
    walk = [2, 2]  # cotree edge there and back
    out = lift_walk(td, walk, (2, 0))
    assert out == [(2, 0), (0, 1), (2, 0)]


def test_lift_walk_fundamental_cycle_flips_one_bit():
    g = load_named("petersen")
    td = spanning_tree(g)
    def path_to_root(x):
        out = []
        while td.parent[x] is not None:
            p, e = td.parent[x]
            out.append(e)
            x = p
        return out

    for i, eid in enumerate(td.cotree):
        u, v = g.edges[eid]
        # fundamental cycle: u -> root -> v along the tree, then the cotree edge
        walk = path_to_root(u) + path_to_root(v)[::-1] + [eid]
        out = lift_walk(td, walk, (u, 0))
        assert out[-1] == (u, 1 << i)


def test_lift_walk_rejects_inconsistent():
    g = triangle()
    td = spanning_tree(g)
    with pytest.raises(GraphError):
        lift_walk(td, [1], (0, 0))  # edge 12 does not touch vertex 0


def test_backtracking_is_preserved_on_random_walks():
    g = load_named("heawood")
    td = spanning_tree(g)
    rng = random.Random(5)
    for _ in range(50):
        u = rng.randrange(g.n)
        walk = []
        cur = u
        for _ in range(rng.randrange(1, 12)):
            v, eid = rng.choice(g.adj[cur])
            walk.append(eid)
            cur = v
        k = rng.randrange(len(walk))
        # splice in a there-and-back traversal of edge k: two forced backtracks
        walk = walk[: k + 1] + [walk[k], walk[k]] + walk[k + 1 :]
        out = lift_walk(td, walk, (u, 0))
        assert out[k + 2] == out[k]  # lifted walk backtracks at the same spot
        assert out[k + 3] == out[k + 1]


# --- translations ------------------------------------------------------------------


def test_translate_is_automorphism_on_all_petersen_vertices():
    # the label translation (u, f) -> (u, f ^ gvec) is x ^ gvec
    lg = petersen_lift()
    for gvec in (1, 0b100000, 0b101011):
        for x in range(640):
            img = sorted(y ^ gvec for y in lg.neighbors(x))
            assert img == sorted(lg.neighbors(x ^ gvec))


# --- metric structure ----------------------------------------------------------------


def test_symmetry_reduced_distances_match_direct_bfs():
    lg = petersen_lift()
    tables = tables_of(lg)
    rng = random.Random(11)
    for _ in range(60):
        x = rng.randrange(640)
        y = rng.randrange(640)
        assert lifted_distance(lg, tables, x, y) == scalar_bfs(lg, x)[y]


def test_girth_never_drops_below_base():
    for spec in (FamilySpec.cycle(5), FamilySpec.named("petersen"), FamilySpec.named("k4")):
        g = make(spec)
        lg = build_lift(spanning_tree(g))
        assert lifted_girth(lg, tables_of(lg)) >= girth(g)


def test_lift_of_tree_is_itself():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    td = spanning_tree(g)
    lg = build_lift(td)
    assert lg.s == 0 and lg.num_vertices == 4
    assert lifted_girth(lg, tables_of(lg)) == math.inf


def test_diameter_witness_attains_diameter():
    lg = petersen_lift()
    tables = tables_of(lg)
    d = lifted_diameter(lg, tables)
    x, y = diameter_witness(lg, tables)
    assert lifted_distance(lg, tables, x, y) == d


# --- label-parallel distance engine vs scalar BFS -----------------------------------


def assert_rows_match_bfs(lg):
    tables = tables_of(lg)
    assert len(tables.rows) == len(tables.ecc) == lg.base.n
    for u in range(lg.base.n):
        want = scalar_bfs(lg, u << lg.s)
        assert list(tables[u]) == want
        assert tables.ecc[u] == max(want)
    return tables


ENGINE_SPECS = (
    [FamilySpec.named("k4")]
    + [FamilySpec.cycle(n) for n in range(3, 9)]
    + [FamilySpec.named(name) for name in ("petersen", "heawood", "pappus")]
    + [FamilySpec.random_regular(20, 3, seed=seed) for seed in (1, 2, 3)]
)


@pytest.mark.parametrize("spec", ENGINE_SPECS, ids=lambda spec: spec.describe())
def test_engine_rows_equal_scalar_bfs(spec):
    g = make(spec)
    tables = assert_rows_match_bfs(build_lift(spanning_tree(g)))
    assert all(type(row) is bytearray for row in tables.rows)


def test_engine_on_every_petersen_fault_with_a_multi_bit_mask():
    g = load_named("petersen")
    td = spanning_tree(g)
    s = td.num_coords
    connected = disconnected = 0
    for eid in range(g.m):
        for extra in (0b11, 0b101, 0b110, (1 << s) - 1):
            lg = LiftedGraph(td, (eid, extra))
            if scalar_bfs(lg, 0).count(-1):
                disconnected += 1
                with pytest.raises(GraphError, match="lift is not connected"):
                    tables_of(lg)
            else:
                connected += 1
                assert_rows_match_bfs(lg)
    assert connected and disconnected


def test_engine_rows_widen_past_a_byte():
    # the lift of C_300 is C_600, diameter 300: rows need 16-bit lanes
    lg = build_lift(spanning_tree(cycle(300)))
    tables = assert_rows_match_bfs(lg)
    assert all(row.typecode == "H" for row in tables.rows)
    assert lifted_diameter(lg, tables) == 300


@pytest.mark.parametrize("s, ecc", [(1, 200), (1, 300), (3, 200), (3, 300), (4, 70_000)])
def test_planes_expand_to_lane_values(s, ecc):
    # synthetic planes, since no testable lift has a diameter near 2^16
    n = 3
    fiber = 1 << s
    rng = random.Random(ecc + s)
    want = [rng.randrange(ecc + 1) for _ in range(n * fiber)]
    planes = [
        [sum(((want[(v << s) | h] >> k) & 1) << h for h in range(fiber)) for v in range(n)]
        for k in range(ecc.bit_length())
    ]
    row = _expand_row([_whole_lift(plane, fiber) for plane in planes], n * fiber, ecc)
    assert list(row) == want
    if ecc < 256:
        assert type(row) is bytearray
    else:
        assert type(row) is array and row.typecode == ("H" if ecc < 65536 else "I")


@pytest.mark.parametrize("ecc, width", [(255, 1), (511, 2)])
def test_a_row_is_written_once(ecc, width):
    # 65,536 lanes of random planes: the row's own bytes and the lane
    # temporaries, never a second copy of the row
    nn = 1 << 16
    rng = random.Random(ecc)
    whole = [rng.getrandbits(nn) for _ in range(ecc.bit_length())]
    tracemalloc.start()
    try:
        row = _expand_row(whole, nn, ecc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(row) == nn and memoryview(row).itemsize == width
    assert [row[y] for y in range(0, nn, 997)] == [
        sum(((bits >> y) & 1) << k for k, bits in enumerate(whole)) for y in range(0, nn, 997)
    ]
    assert peak < 1.75 * nn * width, peak / (nn * width)


# --- the tables' flip masks, cut sides and fold vs their reference forms ------------


@pytest.mark.parametrize("s", range(21))
def test_flip_masks_are_the_division_formula(s):
    assert _flip_masks(s) == division_flip_masks(s)


def assert_fold_matches_the_breadth_first_fold(lg):
    """The sides built one at a time are the listed sides, and from every
    walked source of the lift's group the depth-first fold over the
    agreement lanes yields the breadth-first fold's (d, l1, y) list, in the
    same order; returns the walked sources."""
    table = embed(lg)
    walked = list(GroupOrbits(lifted_group(lg)).walked())
    nn = lg.num_vertices
    fiber = 1 << lg.s
    full = (1 << fiber) - 1
    masks = lg.label_steps[0]
    sides = list_cut_sides(table, masks, full)
    blocks = _cut_blocks(table, masks, full)
    assert list(_cut_sides(blocks, table.base_rows, fiber)) == sides
    every = (1 << nn) - 1
    for r in walked:
        x = r << lg.s
        row = table.base_rows[r]
        whole = bfs_lifted(lg, x)[0]
        flipped = [~(base ^ row) for base in table.base_rows]
        agreements = list(_cut_sides(blocks, flipped, fiber))
        assert agreements == [side if (row >> e) & 1 else side ^ every for e, side in enumerate(sides)]
        want = list(breadth_first_fold(whole, sides, row, x, nn))
        assert list(_fold(whole, iter(agreements), x, nn)) == want, r
    return walked


@pytest.mark.parametrize(
    "spec",
    # C_5 has s = 1: fibers of 2 bits, joined as ints rather than bytes
    [FamilySpec.cycle(5)]
    + [FamilySpec.named(name) for name in ("k4", "petersen", "heawood", "pappus", "mcgee", "tutte_coxeter")]
    + [FamilySpec.random_regular(20, 3, seed=seed) for seed in range(3)],
    ids=lambda spec: spec.describe(),
)
def test_the_depth_first_fold_is_the_breadth_first_fold_from_every_walked_source(spec):
    walked = assert_fold_matches_the_breadth_first_fold(build_lift(spanning_tree(make(spec))))
    # McGee has two Aut(G) vertex orbits; random:20:3 seed 0 is rigid
    want = {"mcgee": [0, 1], "random:20:3(girth_min=3,seed=0)": list(range(20))}
    assert walked == want.get(spec.describe(), walked)


def test_the_depth_first_fold_on_every_connected_petersen_fault_lift():
    g = load_named("petersen")
    td = spanning_tree(g)
    connected = 0
    for eid in range(g.m):
        for extra in (0b1, 0b11, 0b101, (1 << td.num_coords) - 1):
            lg = LiftedGraph(td, (eid, extra))
            if scalar_bfs(lg, 0).count(-1) == 0:
                connected += 1
                # a fault lift has no lifted group beyond translations: every source is walked
                assert assert_fold_matches_the_breadth_first_fold(lg) == list(range(g.n))
    assert connected


def test_tutte_coxeter_tables_peak_under_14_mb():
    # holding all 45 whole-lift cut sides at once, or one set per distance in the fold, breaks it
    lg = build_lift(spanning_tree(load_named("tutte_coxeter")))
    table = embed(lg)
    orbits = GroupOrbits(lifted_group(lg))
    tracemalloc.start()
    try:
        tables = representative_tables(lg, table, orbits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables.girth == 16 and max(tables.ecc) == 35
    assert peak < 14_000_000, peak


def test_engine_rejects_disconnected_fault_lift():
    g = load_named("petersen")
    # the fault turns edge 2's coordinate-0 flip into a coordinate-1 flip; no
    # edge flips coordinate 0 any more, so half the labels are never reached
    lg = LiftedGraph(spanning_tree(g), (2, 0b11))
    assert scalar_bfs(lg, 0).count(-1) == lg.num_vertices // 2
    with pytest.raises(GraphError, match="lift is not connected"):
        tables_of(lg)


@pytest.mark.parametrize("extra", [0b1, 0b11, 0b101, "all ones"])
def test_an_analysis_refuses_exactly_the_disconnected_petersen_fault_lifts(extra):
    # build_lift searches nothing: the tables' reached labels are the one check
    g = load_named("petersen")
    td = spanning_tree(g)
    extra = (1 << td.num_coords) - 1 if extra == "all ones" else extra
    connected = 0
    for eid in range(g.m):
        fault = (eid, extra)
        # a small sampled sweep: only the lift block is read
        if scalar_bfs(LiftedGraph(td, fault), 0).count(-1):
            with pytest.raises(GraphError, match="^lift is not connected$"):
                run_analysis(td, pairs=20, seed=1, fault=fault)
        else:
            connected += 1
            report = run_analysis(td, pairs=20, seed=1, fault=fault).report
            assert report["lift"]["connected"] is True
    assert 0 < connected < g.m


def test_build_lift_holds_no_whole_lift_object():
    # the Tutte–Coxeter lift has 1,966,080 vertices; its graph is read off the base
    td = spanning_tree(load_named("tutte_coxeter"))
    tracemalloc.start()
    try:
        lg = build_lift(td)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lg.num_vertices == 1_966_080
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "spec",
    # random:20:3 seed 1 has unequal eccentricities, the first 29 at u = 6
    [FamilySpec.named("k4"), FamilySpec.named("heawood"), FamilySpec.random_regular(20, 3, seed=1)],
    ids=lambda spec: spec.describe(),
)
def test_diameter_and_witness_agree_with_a_scan_of_the_rows(spec):
    g = make(spec)
    lg = build_lift(spanning_tree(g))
    tables = tables_of(lg)
    best, pair = -1, None
    for u in range(g.n):
        for y, d in enumerate(tables[u]):
            if d > best:
                best, pair = d, (u << lg.s, y)
    assert lifted_diameter(lg, tables) == best
    assert diameter_witness(lg, tables) == pair


# --- bfs_lifted, the plane BFS from any lifted vertex, vs the scalar reference -------
# (its planes and reached labels read into one list by expanded_bfs)


@pytest.mark.parametrize("tree", ["bfs", "dfs"])
@pytest.mark.parametrize("name", ["k4", "cycle:5", "petersen"])
def test_bfs_lifted_equals_the_scalar_bfs_from_every_vertex(name, tree):
    # every label of every fiber, not only the label-0 sources of the rows
    lg = build_lift(spanning_tree(make(parse_family(name)), tree))
    for x in range(lg.num_vertices):
        assert expanded_bfs(lg, x) == scalar_bfs(lg, x), x


@pytest.mark.parametrize("tree", ["bfs", "dfs"])
@pytest.mark.parametrize("name", ["heawood", "pappus", "random:20:3"])
def test_bfs_lifted_equals_the_scalar_bfs_on_seeded_sources(name, tree):
    lg = build_lift(spanning_tree(make(parse_family(name)), tree))
    rng = random.Random(name)
    for x in rng.sample(range(lg.num_vertices), 12):
        assert expanded_bfs(lg, x) == scalar_bfs(lg, x), x


@pytest.mark.parametrize("extra", [0b1, 0b11, 0b101])
def test_bfs_lifted_marks_exactly_the_unreached_vertices_of_every_petersen_fault_lift(extra):
    g = load_named("petersen")
    td = spanning_tree(g)
    rng = random.Random(extra)
    disconnected = 0
    for eid in range(g.m):
        lg = LiftedGraph(td, (eid, extra))
        for x in [0, lg.num_vertices - 1] + rng.sample(range(lg.num_vertices), 4):
            want = scalar_bfs(lg, x)
            assert expanded_bfs(lg, x) == want, (eid, x)
            disconnected += -1 in want
    assert disconnected


# --- scalar searches: step table, BFS and the two-sided oracle search ---------------


def petersen_fault_lift():
    # no edge flips coordinate 0 any more: labels split into two components
    g = load_named("petersen")
    return LiftedGraph(spanning_tree(g), (2, 0b11))


def test_hops_spell_the_neighbour_lists():
    for lg in (petersen_lift(), petersen_fault_lift()):
        for x in range(lg.num_vertices):
            u, f = lg.decode(x)
            assert [base | (f ^ rule) for base, rule in lg.hops[u]] == lg.neighbors(x)


@pytest.mark.parametrize("tree", ["bfs", "dfs"])
def test_scalar_bfs_equals_bfs_of_the_materialised_lift(tree):
    # both the plane BFS of bfs_lifted and the scalar reference
    g = load_named("petersen")
    for lg in (build_lift(spanning_tree(g, tree)), petersen_fault_lift()):
        h = parse_edge_list("".join(lift_edge_list_text(lg)))
        for x in range(0, lg.num_vertices, 23):
            want = bfs_distances(h, x)
            assert expanded_bfs(lg, x) == want
            assert scalar_bfs(lg, x) == want


@pytest.mark.parametrize("tree", ["bfs", "dfs"])
@pytest.mark.parametrize("name", ["k4", "cycle:5", "petersen"])
def test_two_sided_search_equals_bfs_on_every_ordered_pair(name, tree):
    g = make(parse_family(name))
    lg = build_lift(spanning_tree(g, tree))
    rng = random.Random(name)
    for x in range(lg.num_vertices):
        targets = list(range(lg.num_vertices))
        rng.shuffle(targets)
        want = scalar_bfs(lg, x)
        assert two_sided_distances(lg, x, targets) == [want[y] for y in targets]


def seeded_targets(lg, x, dist, rng):
    """Targets for source x: its neighbours, seeded draws, repeats of the
    draws, and the draws again by rising distance, so later targets fall
    inside the shared ball as it grows; x itself last."""
    drawn = [rng.randrange(lg.num_vertices) for _ in range(10)]
    rising = sorted(drawn, key=lambda y: dist[y])
    return lg.neighbors(x) + drawn + drawn[:4] + rising + [x]


@pytest.mark.parametrize(
    "spec",
    [FamilySpec.named("heawood")] + [FamilySpec.random_regular(20, 3, seed=seed) for seed in range(3)],
    ids=lambda spec: spec.describe(),
)
def test_two_sided_search_equals_bfs_on_seeded_pools(spec, monkeypatch):
    g = make(spec)
    lg = build_lift(spanning_tree(g))
    rng = random.Random(spec.describe())
    grow = lift_mod._grow
    shared = []  # levels added to the ball around the current source x

    def spy(lg, ball, frontier, level, goal=()):
        if ball.get(x) == 0:
            shared.append(level)
        return grow(lg, ball, frontier, level, goal)

    monkeypatch.setattr(lift_mod, "_grow", spy)
    for x in rng.sample(range(lg.num_vertices), 12):
        want = scalar_bfs(lg, x)
        # alone and after a far target that grows the shared ball first
        for lead in ([], [want.index(max(want))]):
            targets = lead + seeded_targets(lg, x, want, rng)
            shared.clear()
            assert two_sided_distances(lg, x, targets) == [want[y] for y in targets]
            # one source ball for all targets, grown a level at a time
            assert shared == list(range(1, len(shared) + 1)) and len(shared) >= 2


def test_two_sided_search_finds_no_path_across_components():
    lg = petersen_fault_lift()
    rng = random.Random(7)
    for x in (0, 1, 77, 320, 639):
        reached = scalar_bfs(lg, x)
        assert reached.count(-1) == lg.num_vertices // 2
        targets = list(range(lg.num_vertices))
        assert two_sided_distances(lg, x, targets) == reached
        # and in a long list drawn with repeats, both halves interleaved
        targets = [rng.randrange(lg.num_vertices) for _ in range(2_000)]
        assert two_sided_distances(lg, x, targets) == [reached[y] for y in targets]


def oracle_pool(lg, rng, sources, count=2_000):
    """``sources`` pooled sources, each with the 62 or 63 uniform targets
    (other than itself) a pool of 32 gets under ``--oracle-pairs 2000``."""
    per_source = -(-count // max(32, count // 64))
    pool = {}
    for x in rng.sample(range(lg.num_vertices), sources):
        targets = [rng.randrange(lg.num_vertices) for _ in range(per_source)]
        pool[x] = [y for y in targets if y != x]
    return pool


@pytest.mark.parametrize(
    "spec",
    [FamilySpec.named("heawood")] + [FamilySpec.random_regular(20, 3, seed=seed) for seed in range(3)],
    ids=lambda spec: spec.describe(),
)
def test_two_sided_search_equals_bfs_on_default_oracle_pools(spec):
    # k starts near 62, so the source ball grows well ahead of each target's
    lg = build_lift(spanning_tree(make(spec)))
    for x, targets in oracle_pool(lg, random.Random(spec.describe()), 4).items():
        assert len(targets) >= 60
        want = scalar_bfs(lg, x)
        assert two_sided_distances(lg, x, targets) == [want[y] for y in targets]


@pytest.mark.parametrize("name", ["petersen", "heawood", "random:20:3"])
def test_a_lone_target_grows_the_smaller_frontier(name, monkeypatch):
    # k = 1: the source ball grows exactly when its frontier is no larger
    lg = build_lift(spanning_tree(make(parse_family(name))))
    grow = lift_mod._grow
    sizes = {}  # frontier length of each ball, source and target

    def spy(lg, ball, frontier, level, goal=()):
        side = "source" if ball.get(x) == 0 else "target"
        grows_source = sizes["source"] <= sizes["target"]
        assert grows_source == (side == "source")
        nxt = grow(lg, ball, frontier, level, goal)
        sizes[side] = len(nxt) if nxt is not None else 0
        return nxt

    monkeypatch.setattr(lift_mod, "_grow", spy)
    rng = random.Random(name)
    for x in rng.sample(range(lg.num_vertices), 6):
        want = scalar_bfs(lg, x)
        for y in rng.sample(range(lg.num_vertices), 6) + [want.index(max(want))]:
            sizes.update(source=1, target=1)
            assert two_sided_distances(lg, x, [y]) == [want[y]]


@pytest.mark.parametrize("name", ["petersen", "heawood", "random:20:3"])
def test_held_and_repeated_targets_grow_no_target_ball(name, monkeypatch):
    lg = build_lift(spanning_tree(make(parse_family(name))))
    grow = lift_mod._grow
    target_balls = []

    def spy(lg, ball, frontier, level, goal=()):
        if ball.get(x) != 0:
            target_balls.append(ball)
        return grow(lg, ball, frontier, level, goal)

    monkeypatch.setattr(lift_mod, "_grow", spy)
    for x in random.Random(name).sample(range(lg.num_vertices), 6):
        want = scalar_bfs(lg, x)
        far = want.index(max(want))
        # the first step of any search grows the source, so after the far
        # target its ball holds x and every neighbour
        held = lg.neighbors(x) + [x]
        targets = [far] + held + held[::-1] + [x, x]
        target_balls.clear()
        assert two_sided_distances(lg, x, targets) == [want[y] for y in targets]
        assert all(ball.get(far) == 0 for ball in target_balls)
        # a repeat of an answered target is answered again, whichever ball met
        again = [far, far] + held
        assert two_sided_distances(lg, x, again) == [want[y] for y in again]


# --- lifted girth from the engine vs the materialised lift ---------------------------


def assert_girth_matches_materialised_lift(lg):
    assert lifted_girth(lg, tables_of(lg)) == girth(parse_edge_list("".join(lift_edge_list_text(lg))))


GIRTH_CASES = (
    [(FamilySpec.cycle(n), "bfs") for n in (*range(3, 9), 300)]  # C_300 lifts to girth 600
    + [(FamilySpec.named("k4"), "bfs"), (FamilySpec.complete(5), "bfs")]
    + [(FamilySpec.named(name), tree) for name in ("petersen", "heawood") for tree in ("bfs", "dfs")]
    + [(FamilySpec.random_regular(20, 3, seed=seed), "bfs") for seed in (1, 2, 3)]
)


@pytest.mark.parametrize(
    "spec, tree",
    [pytest.param(spec, tree, id=f"{spec.describe()}-{tree}") for spec, tree in GIRTH_CASES],
)
def test_engine_girth_equals_girth_of_the_materialised_lift(spec, tree):
    g = make(spec)
    assert_girth_matches_materialised_lift(build_lift(spanning_tree(g, tree)))


@pytest.mark.parametrize("extra", [0b11, 0b101])
def test_engine_girth_on_every_connected_petersen_fault_lift(extra):
    g = load_named("petersen")
    td = spanning_tree(g)
    connected = 0
    for eid in range(g.m):
        lg = LiftedGraph(td, (eid, extra))
        if scalar_bfs(lg, 0).count(-1) == 0:
            connected += 1
            assert_girth_matches_materialised_lift(lg)
    assert connected


def test_lifted_girth_runs_no_scalar_bfs(monkeypatch):
    g = load_named("heawood")
    lg = build_lift(spanning_tree(g))
    calls = []

    def counting_bfs(lg, source):
        calls.append(source)
        return bfs_lifted(lg, source)

    tables = tables_of(lg)
    # the girth is read off the tables: no BFS runs once they exist
    monkeypatch.setattr(lift_mod, "bfs_lifted", counting_bfs)
    assert lifted_girth(lg, tables) == 12
    assert calls == []


# --- materialization -------------------------------------------------------------------


def test_materialized_lift_round_trips():
    g = triangle()
    td = spanning_tree(g, "dfs", 0)
    lg = build_lift(td)
    h = parse_edge_list("".join(lift_edge_list_text(lg)))
    assert h.n == 6 and h.m == 6
    assert is_connected(h) and h.regularity() == 2
    assert girth(h) == 6


def test_mapping_sidecar_format():
    g = triangle()
    td = spanning_tree(g, "dfs", 0)
    lg = build_lift(td)
    lines = "".join(lift_mapping_text(lg)).splitlines()
    assert lines[0] == "0 0 0"
    assert lines[1] == "1 0 1"
    assert lines[5] == "5 2 1"


def test_materialized_petersen_girth_matches_on_demand():
    lg = petersen_lift()
    h = parse_edge_list("".join(lift_edge_list_text(lg)))
    assert girth(h) == lifted_girth(lg, tables_of(lg))
