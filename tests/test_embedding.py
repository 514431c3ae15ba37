import dataclasses
import random
from fractions import Fraction

import pytest

import treelift.report as report
from treelift.embedding import (
    assert_injective,
    distortion,
    embed,
    distortion_bound,
)
from treelift.families import FamilySpec, load_named, make
from treelift.graph import GraphError, build_graph, diameter, girth, spanning_tree
from treelift.lift import (
    bfs_lifted,
    build_lift,
    diameter_witness,
    iter_orbit_reps,
    lifted_distance,
    orbit_rep,
    representative_tables,
    sample_pair_list,
)
from treelift.sweeps import cut_partition_check, degree_preservation_check

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
    return build_lift(g, spanning_tree(g, strategy, root))


def exact_distortion(lg):
    t = embed(lg)
    return distortion(lg, t, representative_tables(lg, t))


# --- h_e on the hand-traced triangle lift -------------------------------------


def triangle_lift():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    td = spanning_tree(g, "dfs", 0)  # tree {01, 12}, cotree {20}
    return build_lift(g, td)


def test_cotree_row_bit_reads_label_bit():
    # the cut of the cotree edge carrying coordinate i is label bit i, at
    # every vertex
    for lg in (triangle_lift(), lift_of(FamilySpec.named("petersen"))):
        t = embed(lg)
        for x in range(lg.num_vertices):
            _, f = lg.decode(x)
            for i, eid in enumerate(lg.td.cotree):
                assert (t.row(x) >> eid) & 1 == (f >> i) & 1


def test_triangle_rows_match_hand_values():
    lg = triangle_lift()
    t = embed(lg)
    # F(a,0) = (0,0,0) and F(a,1) = (1,1,1): the lone cotree edge crosses both
    # tree splits, so flipping its bit flips every coordinate at vertex a
    assert t.row(lg.encode(0, 0)) == 0b000
    assert t.row(lg.encode(0, 1)) == 0b111
    assert t.l1(lg.encode(0, 0), lg.encode(0, 1)) == 3


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
    for eid in lg.td.tree_edges:
        side = oracle_sides(lg, eid)
        for u in range(10):
            x = lg.encode(u, 0)
            assert (t.row(x) >> eid) & 1 == side[x]
    for u in range(10):
        row = t.row(lg.encode(u, 0))
        for eid in lg.td.cotree:
            assert (row >> eid) & 1 == 0


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
            sides[color[x]].add((t.row(x) >> eid) & 1)
        assert sides[0].isdisjoint(sides[1])
        assert len(sides[0]) == 1 and len(sides[1]) == 1


def test_every_lifted_edge_crosses_exactly_its_own_cut():
    for spec in (FamilySpec.named("petersen"), FamilySpec.cycle(6), FamilySpec.named("k4")):
        lg = lift_of(spec)
        t = embed(lg)
        for eid, (u, v) in enumerate(lg.base.edges):
            rule = lg.rule[eid]
            for f in range(1 << lg.s):
                x = lg.encode(u, f)
                y = lg.encode(v, f ^ rule)
                assert t.row(x) ^ t.row(y) == 1 << eid


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
                    assert (t.row(x) >> eid) & 1 == side[x], (strategy, root, eid, x)


def test_every_broken_matching_is_named_by_the_cut_check():
    g = make(FamilySpec.named("petersen"))
    td = spanning_tree(g)
    s = len(td.cotree)
    for eid in range(g.m):
        for extra in (1, 0b101, 1 << (s - 1), (1 << s) - 1):
            lg = build_lift(g, td, fault=(eid, extra), check_connected=False)
            t = embed(lg)
            v = cut_partition_check(lg, t)
            assert not v.passed
            assert v.checked == lg.num_edges
            assert len(v.violations) == 1
            assert f"base edge {eid} crosses cuts" in v.violations[0]
            # the Lipschitz check fails before the tables are read, so it
            # needs none (some of these lifts are not even connected)
            with pytest.raises(RuntimeError, match="not 1-Lipschitz"):
                distortion(lg, t, None)


def test_whole_lift_checks_cover_large_lifts_exactly():
    # McGee: 196,608 lifted vertices and 294,912 lifted edges, all certified
    g = make(FamilySpec.named("mcgee"))
    lg = build_lift(g, spanning_tree(g), check_connected=False)
    cut = cut_partition_check(lg, embed(lg))
    assert cut.passed and cut.checked == lg.num_edges == 294_912
    deg = degree_preservation_check(lg)
    assert deg.passed and deg.checked == lg.num_vertices == 196_608


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
    for spec in (FamilySpec.cycle(8), FamilySpec.named("petersen")):
        assert_injective(embed(lift_of(spec)))


def test_assert_injective_agrees_with_brute_force():
    for spec in (FamilySpec.named("k4"), FamilySpec.cycle(5), FamilySpec.named("petersen")):
        t = embed(lift_of(spec))
        nn = t.lg.num_vertices
        assert len({t.row(x) for x in range(nn)}) == nn
        assert_injective(t)
        # give base vertex 0 the row of base vertex 1: both checks must see it
        broken = dataclasses.replace(t, base_rows=[t.base_rows[1], *t.base_rows[1:]])
        assert len({broken.row(x) for x in range(nn)}) < nn
        with pytest.raises(RuntimeError, match="not injective"):
            assert_injective(broken)


def test_distortion_certifies_injectivity_before_the_fold(monkeypatch):
    lg = lift_of(FamilySpec.named("petersen"))
    t = embed(lg)
    broken = dataclasses.replace(t, base_rows=[t.base_rows[1], *t.base_rows[1:]])
    # no tables: the certificate must fail before the colip is read
    with pytest.raises(RuntimeError, match="not injective"):
        distortion(lg, broken, None)
    monkeypatch.setattr(
        report, "embed", lambda lg: dataclasses.replace(embed(lg), base_rows=broken.base_rows)
    )
    out = report.run_analysis(lg.base, pairs="sample", sample_count=20, seed=1).report
    assert "not injective" in out["embedding"]["error"]
    assert out["bound"]["distortion_within_bound"] is False and out["all_pass"] is False


def test_embedding_is_nonexpansive_everywhere():
    lg = lift_of(FamilySpec.named("k4"))
    t = embed(lg)
    tables = representative_tables(lg, t)
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
    g = build_graph(2, [(0, 1)])
    lg = build_lift(g, spanning_tree(g))
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
    # small lifts: compare against all-pairs direct BFS with no symmetry tricks
    for spec in (FamilySpec.cycle(4), FamilySpec.named("k4")):
        lg = lift_of(spec)
        t = embed(lg)
        best = Fraction(0)
        nn = lg.num_vertices
        for x in range(nn):
            dist = bfs_lifted(lg, x)
            for y in range(x + 1, nn):
                best = max(best, Fraction(dist[y], t.l1(x, y)))
        rep = distortion(lg, t, representative_tables(lg, t))
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
            tables = representative_tables(lg, t)
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
        lg = build_lift(g, td, fault=(eid, extra), check_connected=False)
        if bfs_lifted(lg, 0).count(-1) == 0:
            connected += 1
            t = embed(lg)
            tables = representative_tables(lg, t)
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
    tables = representative_tables(lg, t)
    pairs = sample_pair_list(lg, tables, 50, 9)
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
    tables = representative_tables(lg, embed(lg))
    assert sample_pair_list(lg, tables, 200, 4) == sample_pair_list(lg, tables, 200, 4)
    assert sample_pair_list(lg, tables, 200, 4) != sample_pair_list(lg, tables, 200, 5)


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
    tables = representative_tables(lg, embed(lg))
    family = explicit_family(lg, tables, 300, 11)
    orbits = {}
    for x, y in sorted(family):
        orbits.setdefault(orbit_rep(lg, x, y), []).append((x, y))
    want = sorted((*members[0], len(members)) for members in orbits.values())
    got = sample_pair_list(lg, tables, 300, 11)
    assert got == want
    assert sum(covered for _, _, covered in got) == len(family)


def test_sample_mode_needs_count_and_seed():
    lg = lift_of(FamilySpec.named("k4"))
    tables = representative_tables(lg, embed(lg))
    with pytest.raises(GraphError):
        sample_pair_list(lg, tables, 0, 1)
    with pytest.raises(GraphError):
        sample_pair_list(lg, tables, 5, None)


# --- orbit machinery ---------------------------------------------------------------


def test_orbit_reps_cover_all_pairs_exactly():
    lg = lift_of(FamilySpec.named("petersen"))
    total = sum(cov for _, _, cov in iter_orbit_reps(lg))
    nn = lg.num_vertices
    assert total == nn * (nn - 1) // 2


def test_orbit_invariance_of_distance_and_l1():
    lg = lift_of(FamilySpec.named("petersen"))
    t = embed(lg)
    tables = representative_tables(lg, t)
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
