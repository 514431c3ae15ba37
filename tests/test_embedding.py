import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

import treelift.lift as lift_mod
import treelift.report as report
from treelift.embedding import (
    EmbeddingTable,
    distortion,
    embed,
    distortion_bound,
)
from treelift.families import FamilySpec, load_named, make
from treelift.graph import Graph, GraphError, diameter, girth, spanning_tree
from treelift.lift import (
    LiftedGraph,
    build_lift,
    diameter_witness,
    sample_pair_list,
)
from treelift.sweeps import cut_partition_check, degree_preservation_check

from lift_reference import (
    every_source_tables,
    iter_orbit_reps,
    lifted_distance,
    linear,
    orbit_rep,
    row,
    scalar_bfs,
)

# --- independent oracle: 2-color the lift after deleting one fiber -----------


def oracle_cut_sides(lg, eid):
    """Color classes of the lift minus the fiber over eid, or None if the fiber
    is not an edge cut with exactly two sides."""
    nn = lg.num_vertices
    color = [-1] * nn
    comps = []
    for start in range(nn):
        if color[start] >= 0:
            continue
        comps.append(start)
        if len(comps) > 2:
            return None
        cid = len(comps) - 1
        color[start] = cid
        stack = [start]
        while stack:
            x = stack.pop()
            u, f = lg.decode(x)
            for v, e2 in lg.base.adj[u]:
                if e2 == eid:
                    continue
                y = lg.encode(v, f ^ lg.rule[e2])
                if color[y] < 0:
                    color[y] = cid
                    stack.append(y)
    if len(comps) != 2:
        return None
    # every fiber edge must cross the two components
    for f in range(1 << lg.s):
        u, v = lg.base.edges[eid]
        x = lg.encode(u, f)
        y = lg.encode(v, f ^ lg.rule[eid])
        if color[x] == color[y]:
            return None
    return color


def lift_of(spec_or_graph, strategy="bfs", root=0):
    g = spec_or_graph if hasattr(spec_or_graph, "adj") else make(spec_or_graph)
    return build_lift(spanning_tree(g, strategy, root))


def exact_distortion(lg):
    t = embed(lg)
    return distortion(lg, t, every_source_tables(lg, t))


# --- h_e on the hand-traced triangle lift -------------------------------------


def triangle_lift():
    g = Graph(3, [(0, 1), (1, 2), (2, 0)])
    td = spanning_tree(g, "dfs", 0)  # tree {01, 12}, cotree {20}
    return build_lift(td)


def test_cotree_row_bit_reads_label_bit():
    # the cut of the cotree edge carrying coordinate i is label bit i, at
    # every vertex
    for lg in (triangle_lift(), lift_of(FamilySpec.named("petersen"))):
        t = embed(lg)
        for x in range(lg.num_vertices):
            _, f = lg.decode(x)
            for i, eid in enumerate(lg.td.cotree):
                assert (row(t, x) >> eid) & 1 == (f >> i) & 1


def test_triangle_rows_match_hand_values():
    lg = triangle_lift()
    t = embed(lg)
    # F(a,0) = (0,0,0) and F(a,1) = (1,1,1): the lone cotree edge crosses both
    # tree splits, so flipping its bit flips every coordinate at vertex a
    assert row(t, lg.encode(0, 0)) == 0b000
    assert row(t, lg.encode(0, 1)) == 0b111
    assert t.l1(lg.encode(0, 0), lg.encode(0, 1)) == 3


def assert_rows_are_affine_in_the_label(t, vertices):
    """lin(f) is the XOR of the label columns over the set bits of f at the
    label of each of ``vertices``, and each edge flip is the row XOR across
    the edge at label 0."""
    lg = t.lg
    for x in vertices:
        f = x & lg.mask
        assert t.lin(f) == linear(lg.td.cycles, f), x
    assert t.edge_flips == tuple(
        t.base_rows[u] ^ t.base_rows[v] ^ linear(lg.td.cycles, rule)
        for (u, v), rule in zip(lg.base.edges, lg.rule)
    )


def test_rows_are_affine_in_the_label():
    lifts = [lift_of(FamilySpec.named(name)) for name in ("k4", "petersen", "heawood")]
    # a fault rule of two bits: its edge flip XORs two columns
    lifts.append(LiftedGraph(spanning_tree(load_named("petersen")), (4, 0b101)))
    for lg in lifts:
        assert_rows_are_affine_in_the_label(embed(lg), range(lg.num_vertices))


def test_the_embedding_holds_no_table_of_labels():
    # Robertson has s = 20: a table of its 2^20 labels alone would hold 40 MB
    lg = LiftedGraph(spanning_tree(load_named("robertson")))
    assert lg.s == 20
    tracemalloc.start()
    try:
        t = embed(lg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    rng = random.Random(20)
    assert_rows_are_affine_in_the_label(t, [rng.randrange(lg.num_vertices) for _ in range(10_000)])


def oracle_sides(lg, eid):
    """The oracle's two classes for cut eid as sides 0/1, with side 0 the
    class of (lower endpoint of eid, label 0)."""
    color = oracle_cut_sides(lg, eid)
    assert color is not None, f"fiber of edge {eid} is not a 2-sided cut"
    zero = color[lg.encode(min(lg.base.edges[eid]), 0)]
    return [c ^ zero for c in color]


def test_same_fiber_parity_specialization():
    # with label 0 the tree-edge bit is exactly [vertex in B], the oracle's
    # side, and every cotree bit is 0
    lg = lift_of(FamilySpec.named("petersen"))
    t = embed(lg)
    for eid in set(range(lg.base.m)) - set(lg.td.cotree):
        side = oracle_sides(lg, eid)
        for u in range(10):
            x = lg.encode(u, 0)
            assert (row(t, x) >> eid) & 1 == side[x]
    for u in range(10):
        base = row(t, lg.encode(u, 0))
        for eid in lg.td.cotree:
            assert (base >> eid) & 1 == 0


# --- the fiber of every edge is exactly the h_e cut ----------------------------


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec.cycle(3),
        FamilySpec.cycle(5),
        FamilySpec.named("k4"),
        FamilySpec.complete(5),
        FamilySpec.named("petersen"),
    ],
)
def test_fibers_are_cuts_oracle(spec):
    lg = lift_of(spec)
    t = embed(lg)
    for eid in range(lg.base.m):
        color = oracle_cut_sides(lg, eid)
        assert color is not None, f"fiber of edge {eid} is not a 2-sided cut"
        # h_e constant per side and distinct across sides
        sides = {0: set(), 1: set()}
        for x in range(lg.num_vertices):
            sides[color[x]].add((row(t, x) >> eid) & 1)
        assert sides[0].isdisjoint(sides[1])
        assert len(sides[0]) == 1 and len(sides[1]) == 1


def test_every_lifted_edge_crosses_exactly_its_own_cut():
    # true by construction under the tree rule, for every base, tree and
    # root, which is why the lifted group needs only the rule test
    specs = (
        FamilySpec.named("petersen"),
        FamilySpec.cycle(6),
        FamilySpec.named("k4"),
        FamilySpec.named("heawood"),
        FamilySpec.random_regular(20, 3, girth_min=5, seed=0),
    )
    for spec in specs:
        g = make(spec)
        for strategy in ("bfs", "dfs"):
            for root in (0, g.n - 1):
                lg = lift_of(g, strategy, root)
                t = embed(lg)
                for eid, (u, v) in enumerate(g.edges):
                    assert t.edge_flips[eid] == 1 << eid, (spec, strategy, root, eid)
                    rule = lg.rule[eid]
                    for f in range(1 << lg.s):
                        x = lg.encode(u, f)
                        y = lg.encode(v, f ^ rule)
                        assert row(t, x) ^ row(t, y) == 1 << eid


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec.cycle(3),
        FamilySpec.named("k4"),
        FamilySpec.cycle(5),
        FamilySpec.complete(5),
        FamilySpec.named("petersen"),
    ],
    ids=["cycle3", "k4", "cycle5", "complete5", "petersen"],
)
def test_rows_read_cut_sides_at_every_label(spec):
    # ties the affine rows to the cut sides found by the 2-colouring oracle,
    # at every label and under bfs and dfs trees at two roots
    g = make(spec)
    for strategy in ("bfs", "dfs"):
        for root in (0, g.n - 1):
            lg = lift_of(g, strategy, root)
            t = embed(lg)
            for eid in range(g.m):
                side = oracle_sides(lg, eid)
                for x in range(lg.num_vertices):
                    assert (row(t, x) >> eid) & 1 == side[x], (strategy, root, eid, x)


def test_every_broken_matching_is_named_by_the_cut_check():
    g = make(FamilySpec.named("petersen"))
    td = spanning_tree(g)
    s = td.num_coords
    for eid in range(g.m):
        for extra in (1, 0b101, 1 << (s - 1), (1 << s) - 1):
            lg = LiftedGraph(td, (eid, extra))
            t = embed(lg)
            v = cut_partition_check(lg, t)
            assert len(v) == 1
            assert f"base edge {eid} crosses cuts" in v[0]
            # the lip is read off the edge flips alone, and the tables only
            # give the colip, so these lifts need none (some are not even
            # connected)
            assert distortion(lg, t, COLIP_ONLY).lip != 1


#: the two fields ``distortion`` reads of the distance tables
COLIP_ONLY = SimpleNamespace(colip=(1, 1), colip_witness=(0, 1))


def test_the_fault_lift_measures_its_lip_and_its_report_names_the_error():
    # the fault of verify --fault-inject: the coordinate-0 cotree edge also
    # flips coordinate 1, so its fiber crosses its own cut and the five cuts
    # of coordinate 1's fundamental cycle
    td = spanning_tree(load_named("petersen"))
    ctx = report.run_analysis(td, pairs=300, seed=5, fault=(td.cotree[0], 1 << 1))
    assert distortion(ctx.lg, ctx.table, ctx.tables).lip == 6
    error = "embedding is not 1-Lipschitz (measured lip = 6); the cut partition is broken"
    assert ctx.report["embedding"] == {"error": error}
    assert ctx.report["bound"] == {"distortion_within_bound": False, "error": error}
    assert ctx.report["all_pass"] is False


def test_whole_lift_checks_cover_large_lifts_exactly():
    # McGee: 196,608 lifted vertices and 294,912 lifted edges, all certified
    g = make(FamilySpec.named("mcgee"))
    lg = build_lift(spanning_tree(g))
    assert cut_partition_check(lg, embed(lg)) == []
    assert degree_preservation_check(lg) == []
    ctx = report.run_verify_instance("mcgee", spanning_tree(g), pairs=1, seed=0, oracle_pairs=0)
    checks = ctx.report["checks"]
    assert checks["cut_partition"]["checked"] == lg.num_edges == 294_912
    assert checks["degree_preservation"]["checked"] == lg.num_vertices == 196_608


# --- distances and distortion ----------------------------------------------------


def test_adjacent_rows_differ_in_one_coordinate():
    lg = lift_of(FamilySpec.named("petersen"))
    t = embed(lg)
    for x in range(lg.num_vertices):
        for y in lg.neighbors(x):
            assert t.l1(x, y) == 1


def test_l1_identity_and_antipodal():
    lg = triangle_lift()
    t = embed(lg)
    assert t.l1(3, 3) == 0
    assert t.l1(lg.encode(0, 0), lg.encode(0, 1)) == 3


def test_injectivity():
    # injective by construction, so no run checks it: brute force here, on
    # the fault lift of verify --fault-inject too (its rows are the tree's)
    td = spanning_tree(load_named("petersen"))
    specs = [FamilySpec.named("k4"), FamilySpec.cycle(5), *map(FamilySpec.named, ("petersen", "heawood"))]
    for lg in [*map(lift_of, specs), LiftedGraph(td, (td.cotree[0], 1 << 1))]:
        t = embed(lg)
        nn = lg.num_vertices
        assert len({row(t, x) for x in range(nn)}) == nn


def test_assert_injective_agrees_with_brute_force():
    # the O(n) injectivity argument of the module docstring (base rows carry
    # no cotree bits, so distinct base rows give distinct rows) agrees with
    # brute force, on the real table and on one broken to give base vertex 0
    # the row of base vertex 1
    for spec in (FamilySpec.named("k4"), FamilySpec.cycle(5), FamilySpec.named("petersen")):
        t = embed(lift_of(spec))
        lg = t.lg
        nn = lg.num_vertices
        cotree_bits = sum(1 << eid for eid in lg.td.cotree)
        assert all(r & cotree_bits == 0 for r in t.base_rows)
        broken = EmbeddingTable(lg, [t.base_rows[1], *t.base_rows[1:]])
        for table, injective in ((t, True), (broken, False)):
            assert (len(set(table.base_rows)) == lg.base.n) is injective
            assert (len({row(table, x) for x in range(nn)}) == nn) is injective


def test_embedding_is_nonexpansive_everywhere():
    lg = lift_of(FamilySpec.named("k4"))
    t = embed(lg)
    tables = every_source_tables(lg, t)
    for x, y, _ in iter_orbit_reps(lg):
        assert t.l1(x, y) <= tables[x >> lg.s][y]


@pytest.mark.parametrize("n", range(3, 9))
def test_cycle_lifts_embed_isometrically(n):
    lg = lift_of(FamilySpec.cycle(n))
    rep = exact_distortion(lg)
    assert rep.lip == 1
    assert rep.colip == 1
    assert rep.distortion == Fraction(1)
    assert rep.pairs_examined == (2 * n) * (2 * n - 1) // 2


def test_single_edge_base_distortion_one():
    g = Graph(2, [(0, 1)])
    lg = build_lift(spanning_tree(g))
    rep = exact_distortion(lg)
    assert rep.distortion == 1 and rep.pairs_examined == 1 and rep.orbits_examined == 1


def test_petersen_distortion_within_assembled_bound():
    lg = lift_of(FamilySpec.named("petersen"))
    rep = exact_distortion(lg)
    bound = distortion_bound(5, 2)
    assert bound == Fraction(17, 5)
    assert rep.lip == 1
    assert rep.distortion <= bound
    assert rep.pairs_examined == 640 * 639 // 2
    assert rep.orbits_examined == 3510


def test_distortion_brute_force_cross_check():
    # small lifts: compare against all-pairs scalar BFS with no symmetry tricks
    for spec in (FamilySpec.cycle(4), FamilySpec.named("k4")):
        lg = lift_of(spec)
        t = embed(lg)
        best = Fraction(0)
        nn = lg.num_vertices
        for x in range(nn):
            dist = scalar_bfs(lg, x)
            for y in range(x + 1, nn):
                best = max(best, Fraction(dist[y], t.l1(x, y)))
        rep = distortion(lg, t, every_source_tables(lg, t))
        assert rep.colip == best


def scan_colip(lg, table, tables):
    """The plain pair scan: the largest d / l1 over every translation orbit
    representative, compared exactly by cross-multiplication, ties to the
    first pair met.  Returns ((d, l1), witness)."""
    co_n, co_d, witness = 0, 1, None
    for x, y, _ in iter_orbit_reps(lg):
        d = lifted_distance(lg, tables, x, y)
        h = table.l1(x, y)
        if d * co_d > co_n * h:
            co_n, co_d, witness = d, h, (x, y)
    return (co_n, co_d), witness


FOLD_SPECS = (
    [FamilySpec.named("k4"), FamilySpec.complete(5)]
    + [FamilySpec.cycle(n) for n in (3, 4, 5, 8)]
    + [FamilySpec.named(name) for name in ("petersen", "heawood", "pappus")]
    + [FamilySpec.random_regular(20, 3, seed=seed) for seed in (0, 1, 2)]
)


@pytest.mark.parametrize("spec", FOLD_SPECS, ids=lambda spec: spec.describe())
def test_colip_fold_equals_the_plain_scan(spec):
    g = make(spec)
    for strategy in ("bfs", "dfs"):
        for root in (0, g.n - 1):
            lg = lift_of(g, strategy, root)
            t = embed(lg)
            tables = every_source_tables(lg, t)
            want = scan_colip(lg, t, tables)
            assert (tables.colip, tables.colip_witness) == want, (strategy, root)
            rep = distortion(lg, t, tables)
            assert (rep.colip, rep.witness_pair) == (Fraction(*want[0]), want[1])


@pytest.mark.parametrize("extra", [0b1, 0b11, 0b101])
def test_colip_fold_equals_the_plain_scan_on_fault_lifts(extra):
    # a broken matching changes the distances but not the rows, so l1 can
    # exceed the distance; the fold must still agree with the scan, and never
    # raise
    g = load_named("petersen")
    td = spanning_tree(g)
    connected = 0
    for eid in range(g.m):
        lg = LiftedGraph(td, (eid, extra))
        if scalar_bfs(lg, 0).count(-1) == 0:
            connected += 1
            t = embed(lg)
            tables = every_source_tables(lg, t)
            assert (tables.colip, tables.colip_witness) == scan_colip(lg, t, tables), eid
    assert connected


@pytest.mark.parametrize(
    "spec, colip",
    [
        (FamilySpec.named("petersen"), Fraction(5, 3)),
        (FamilySpec.named("heawood"), Fraction(5, 3)),
        (FamilySpec.named("pappus"), Fraction(5, 3)),
        (FamilySpec.named("mcgee"), Fraction(13, 7)),
    ]
    + [(FamilySpec.random_regular(20, 3, girth_min=5, seed=seed), Fraction(11, 5)) for seed in range(3)],
    ids=lambda v: v.describe() if isinstance(v, FamilySpec) else str(v),
)
def test_exact_colip_does_not_depend_on_the_tree(spec, colip):
    # a change of tree or root only relabels the lift; the witness may move
    g = make(spec)
    for strategy in ("bfs", "dfs"):
        for root in (0, g.n - 1):
            assert exact_distortion(lift_of(g, strategy, root)).colip == colip, (strategy, root)


def test_sampled_mode_contains_adjacent_and_diameter_pairs():
    lg = lift_of(FamilySpec.named("petersen"))
    t = embed(lg)
    tables = every_source_tables(lg, t)
    pairs = list(sample_pair_list(lg, tables, 50, 9))
    reps = {orbit_rep(lg, x, y) for x, y, _ in pairs}
    assert orbit_rep(lg, *diameter_witness(lg, tables)) in reps
    for (u, v), rule in zip(lg.base.edges, lg.rule):
        assert orbit_rep(lg, u << lg.s, (v << lg.s) | rule) in reps
    assert sum(covered for _, _, covered in pairs) >= 960 + 50
    # the family is a subset of all pairs: its ratios never pass the exact colip
    exact = distortion(lg, t, tables).colip
    assert max(Fraction(lifted_distance(lg, tables, x, y), t.l1(x, y)) for x, y, _ in pairs) <= exact


def test_sampled_mode_deterministic():
    lg = lift_of(FamilySpec.named("k4"))
    tables = every_source_tables(lg, embed(lg))
    assert list(sample_pair_list(lg, tables, 200, 4)) == list(sample_pair_list(lg, tables, 200, 4))
    assert list(sample_pair_list(lg, tables, 200, 4)) != list(sample_pair_list(lg, tables, 200, 5))


def test_sampling_stops_once_every_pair_is_drawn(monkeypatch):
    lg = lift_of(FamilySpec.named("k4"))  # 32 lifted vertices, 496 pairs
    tables = every_source_tables(lg, embed(lg))
    draws = [0]

    class Counted(random.Random):
        def randrange(self, *args):
            draws[0] += 1
            assert draws[0] <= 1_000_000, "still drawing"
            return super().randrange(*args)

    monkeypatch.setattr(lift_mod.random, "Random", Counted)
    families = []
    for count in (10**5, 10**20):
        draws[0] = 0
        families.append((list(sample_pair_list(lg, tables, count, 1)), draws[0]))
    (family, used), again = families
    assert again == (family, used)
    assert sum(covered for _, _, covered in family) == 496
    # two draws make a pair, and a few more redraw a pair with equal ends
    assert 2 * 496 <= used < 2 * 10**4


def explicit_family(lg, tables, count, seed):
    """The sampled family spelled out pair by pair: every lifted edge, the
    diameter pair and ``count`` seeded draws, deduplicated."""
    s = lg.s
    nn = lg.num_vertices
    family = set()
    for (u, v), rule in zip(lg.base.edges, lg.rule):
        for f in range(1 << s):
            x, y = (u << s) | f, (v << s) | (f ^ rule)
            family.add((min(x, y), max(x, y)))
    family.add(tuple(sorted(diameter_witness(lg, tables))))
    rng = random.Random(seed)
    for _ in range(count):
        x = rng.randrange(nn)
        y = rng.randrange(nn)
        while y == x:
            y = rng.randrange(nn)
        family.add((min(x, y), max(x, y)))
    return family


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec.named("k4"),
        FamilySpec.cycle(5),
        FamilySpec.named("petersen"),
        FamilySpec.random_regular(20, 3, seed=1),
    ],
    ids=["k4", "cycle5", "petersen", "random20"],
)
def test_sample_entries_are_the_explicit_family_grouped_by_orbit(spec):
    lg = lift_of(spec)
    tables = every_source_tables(lg, embed(lg))
    family = explicit_family(lg, tables, 300, 11)
    orbits = {}
    for x, y in sorted(family):
        orbits.setdefault(orbit_rep(lg, x, y), []).append((x, y))
    # in the order of each orbit's smallest family pair, at its canonical representative
    want = [(*orbit_rep(lg, *members[0]), len(members)) for members in sorted(orbits.values())]
    got = list(sample_pair_list(lg, tables, 300, 11))
    assert got == want
    assert sum(covered for _, _, covered in got) == len(family)


def test_sample_mode_needs_count_and_seed():
    td = spanning_tree(make(FamilySpec.named("k4")))  # 32 lifted vertices
    with pytest.raises(GraphError, match="unknown pair policy 0"):
        report.check_analysis(td, 32, 0, 1)
    with pytest.raises(GraphError, match="sampled pair policy requires --seed"):
        report.check_analysis(td, 32, 5, None)


# --- orbit machinery ---------------------------------------------------------------


def test_orbit_reps_cover_all_pairs_exactly():
    lg = lift_of(FamilySpec.named("petersen"))
    total = sum(cov for _, _, cov in iter_orbit_reps(lg))
    nn = lg.num_vertices
    assert total == nn * (nn - 1) // 2


def test_orbit_invariance_of_distance_and_l1():
    lg = lift_of(FamilySpec.named("petersen"))
    t = embed(lg)
    tables = every_source_tables(lg, t)
    rng = random.Random(21)
    for _ in range(200):
        x = rng.randrange(lg.num_vertices)
        y = rng.randrange(lg.num_vertices)
        if x == y:
            continue
        rx, ry = orbit_rep(lg, x, y)
        assert lifted_distance(lg, tables, x, y) == tables[rx >> lg.s][ry]
        assert t.l1(x, y) == t.l1(rx, ry)


def test_distortion_bound_values():
    import math

    assert distortion_bound(5, 2) == Fraction(17, 5)
    assert distortion_bound(6, 3) == Fraction(4)
    assert distortion_bound(math.inf, 7) == 1
