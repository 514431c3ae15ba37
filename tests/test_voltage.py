"""The exhaustive sweep's reduction by the lifted automorphism group.

The reference sweep is the translation-only one: the sampled path of
``verdict_sweep`` fed every translation representative.  The reference
stream of the group walk is the image-set walk of
``lift_reference.reference_group_orbit_reps``.
"""

import builtins
import random
import sys
import types

import pytest

import treelift.sweeps as sweeps
import treelift.voltage as voltage
from treelift.embedding import embed
from treelift.families import FamilySpec, make, parse_family
from treelift.graph import Graph, bfs_distances, diameter, girth, spanning_tree
from treelift.lift import LiftedGraph, build_lift
from treelift.report import CSV_HEADER, csv_collector, run_analysis, sweep_block, to_json_bytes
from treelift.sweeps import group_orbit_reps, verdict_sweep
from treelift.voltage import GroupOrbits, base_automorphisms, lifted_group, symmetry_applies
from treelift.walks import analyze, shortest_lifted_path

from lift_reference import (
    certify,
    every_source_tables,
    gf2_rank,
    image,
    iter_orbit_reps,
    lifted_distance,
    linear,
    orbit_rep,
    project_edge,
    reference_base_automorphisms,
    reference_group_orbit_reps,
    reference_images,
    reference_lift_automorphism,
)

COUNTERS = (
    "path_len",
    "components",
    "bridge_paths",
    "bridges_once",
    "component_edges",
    "bridges_twice",
    "segments",
)
AUT_ORDERS = {"k4": 24, "cycle:6": 12, "petersen": 120, "heawood": 336}
#: |Aut| of the bases the search alone is checked on
SEARCH_ORDERS = {**AUT_ORDERS, "tutte_coxeter": 1440}
#: graphs with vertex 0 deleted, whose Aut(G) has several vertex orbits, so
#: the group walk starts from several sources: (|Aut|, walked sources, group
#: orbits, translation orbits)
DELETED = {"petersen-0": (12, [0, 1], 81, 711), "heawood-0": (24, [0, 1, 2], 305, 5811)}
#: a cubic graph with no automorphism but the identity
RIGID = FamilySpec.random_regular(12, 3, seed=6)


def complete_bipartite(a, b):
    return Graph(a + b, [(u, v) for u in range(a) for v in range(a, a + b)])


#: bases no family string names
OTHER_BASES = {
    "k33": complete_bipartite(3, 3),
    "path:5": Graph(5, [(i, i + 1) for i in range(4)]),  # a tree: s = 0
    "rigid": make(RIGID),
    "k44": complete_bipartite(4, 4),
    "k55": complete_bipartite(5, 5),
    "cube": Graph(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1]),
    "star:7": complete_bipartite(1, 7),
    **{
        f"random:20:3 seed {seed}": make(FamilySpec.random_regular(20, 3, seed=seed))
        for seed in (1, 2, 3)
    },
}
#: bases on which the stabilizer chain must list the reference search's
#: group: the reference gives up on cycles above cycle:126, K5,5 has 28,800
#: automorphisms
REFERENCE_SEARCH_BASES = [
    "k4",
    *(f"cycle:{k}" for k in range(3, 10)),
    "cycle:120",
    "complete:5",
    "complete:6",
    "complete:7",
    "k33",
    "k44",
    "k55",
    "cube",
    "star:7",
    "petersen",
    "heawood",
    "pappus",
    "mcgee",
    "tutte_coxeter",
    "petersen-0",
    "heawood-0",
    "path:5",
    "rigid",
    *(f"random:20:3 seed {seed}" for seed in (1, 2, 3)),
]
#: |Aut| of the further bases the group walk is checked on; "+fault" lifts
#: with the fault of verify --fault-inject, which keeps the trivial group
WALK_ORDERS = {
    "pappus": 216,
    "k33": 72,
    "path:5": 2,
    "rigid": 1,
    "petersen+fault": 1,
    "mcgee": 32,
}


def base_graph(name):
    """The family ``name``, a base of ``OTHER_BASES``, or with a "-0" suffix
    that family less vertex 0 (the other vertices renumbered down by one,
    edges kept in order)."""
    if name in OTHER_BASES:
        return OTHER_BASES[name]
    if name.endswith("-0"):
        g = make(parse_family(name[:-2]))
        return Graph(g.n - 1, [(u - 1, v - 1) for u, v in g.edges if u and v])
    return make(parse_family(name))


def lift_of(g, strategy="bfs", fault=None):
    """Lift, embedding and tables of ``g``: a bfs tree rooted at 0 or a dfs
    tree rooted at the last vertex."""
    td = spanning_tree(g, strategy, 0 if strategy == "bfs" else g.n - 1)
    lg = build_lift(td, fault=None if fault is None else (td.cotree[0], fault))
    table = embed(lg)
    return lg, table, every_source_tables(lg, table)


def sweep_with_rows(lg, table, tables, pairs):
    """The sweep over ``pairs`` and its CSV rows, each split into its fields."""
    lines = []
    gi, diam = girth(lg.base), diameter(lg.base)
    result = verdict_sweep(lg, table, tables, gi, diam, pairs, collect=csv_collector(lg, lines.append))
    return result, [line.rstrip("\n").split(",") for line in lines]


CASES = [(name, tree) for name in (*AUT_ORDERS, *DELETED) for tree in ("bfs", "dfs")]
#: the reference group walk takes about 3 s on McGee, so it runs on one tree
WALK_CASES = [
    *CASES,
    *((name, tree) for name in WALK_ORDERS if name != "mcgee" for tree in ("bfs", "dfs")),
    ("mcgee", "bfs"),
]


@pytest.fixture(scope="module")
def lifted():
    """(lift, table, tables, lifted group) per case, built once."""
    cache = {}

    def get(name, tree):
        if (name, tree) not in cache:
            base, _, fault = name.partition("+")
            lg, table, tables = lift_of(base_graph(base), tree, 1 << 1 if fault else None)
            cache[name, tree] = lg, table, tables, lifted_group(lg)
        return cache[name, tree]

    return get


@pytest.fixture(scope="module")
def swept(lifted):
    """(lift, table, tables, group sweep, its rows, reference sweep) per case, built once."""
    cache = {}

    def get(name, tree):
        if (name, tree) not in cache:
            lg, table, tables, group = lifted(name, tree)
            result, rows = sweep_with_rows(lg, table, tables, group_orbit_reps(lg, GroupOrbits(group)))
            reference, _ = sweep_with_rows(lg, table, tables, list(iter_orbit_reps(lg)))
            cache[name, tree] = lg, table, tables, result, rows, reference
        return cache[name, tree]

    return get


@pytest.mark.parametrize("name", sorted(SEARCH_ORDERS))
def test_base_automorphisms_are_the_whole_group(name):
    g = make(parse_family(name))
    auts = base_automorphisms(g)
    assert len(auts) == len(set(auts)) == SEARCH_ORDERS[name]
    assert auts[0] == tuple(range(g.n)) and auts == sorted(auts)
    edges = {frozenset(e) for e in g.edges}
    for alpha in auts:
        assert {frozenset((alpha[u], alpha[v])) for u, v in g.edges} == edges
    lg, _, _ = lift_of(g)
    group = lifted_group(lg)
    assert [phi.alpha for phi in group] == auts
    assert all(certify(lg, phi) for phi in group)
    assert base_automorphisms(make(RIGID)) == [tuple(range(12))]


@pytest.mark.parametrize("name", REFERENCE_SEARCH_BASES)
def test_the_stabilizer_chain_lists_the_reference_search_group(name):
    g = base_graph(name)
    assert base_automorphisms(g) == reference_base_automorphisms(g)


@pytest.mark.parametrize("name,tree", CASES)
def test_each_element_lifts_as_the_reference_lift(lifted, name, tree):
    lg, _, _, group = lifted(name, tree)
    assert len(group) > 1
    assert group == [reference_lift_automorphism(lg, phi.alpha) for phi in group]
    assert all(certify(lg, phi) for phi in group)


@pytest.mark.parametrize("name", ["petersen", "tutte_coxeter"])
def test_every_element_is_lifted_edge_by_edge_in_search_order(monkeypatch, name):
    g = make(parse_family(name))
    lg = LiftedGraph(spanning_tree(g))
    calls = []
    real = voltage.lift_automorphism

    def spy(lg, alpha, order):
        calls.append(alpha)
        return real(lg, alpha, order)

    monkeypatch.setattr(voltage, "lift_automorphism", spy)
    assert len(lifted_group(lg)) == SEARCH_ORDERS[name]
    assert calls == base_automorphisms(g)


def test_a_group_too_large_to_multiply_out_is_refused_before_any_product(monkeypatch):
    # K1,k has k! automorphisms: 8! * (9 + 8) is within AUT_SEARCH_BUDGET,
    # 9! * (10 + 9) and 10! * (11 + 10) are not
    assert len(base_automorphisms(complete_bipartite(1, 8))) == 40_320

    def refuse(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(voltage, "_products", refuse)
    for k in (9, 10):
        assert base_automorphisms(complete_bipartite(1, k)) == [tuple(range(k + 1))]


def spy_on_the_representative_check(monkeypatch):
    """The verdicts of ``voltage._is_automorphism``, one per call."""
    verdicts = []
    check = voltage._is_automorphism

    def spy(g, alpha):
        verdicts.append(check(g, alpha))
        return verdicts[-1]

    monkeypatch.setattr(voltage, "_is_automorphism", spy)
    return verdicts


@pytest.mark.parametrize("name,checks", [("petersen", 13), ("tutte_coxeter", 35)])
def test_only_the_coset_representatives_are_checked(monkeypatch, name, checks):
    # sum(|U_i| - 1): 120 = 10 * 3 * 2 * 2 and 1440 = 30 * 3 * 2 * 2 * 2 * 2
    verdicts = spy_on_the_representative_check(monkeypatch)
    assert len(base_automorphisms(make(parse_family(name)))) == SEARCH_ORDERS[name]
    assert verdicts == [True] * checks


def test_a_representative_that_is_no_automorphism_gives_the_trivial_group(monkeypatch):
    # every vertex at distance 1 from every other: the distance rows prune
    # nothing but repeats, so the search keeps maps that are no automorphisms
    g = make(FamilySpec.named("petersen"))
    verdicts = spy_on_the_representative_check(monkeypatch)
    monkeypatch.setattr(voltage, "bfs_distances", lambda g, v: [int(w != v) for w in range(g.n)])
    assert base_automorphisms(g) == [tuple(range(g.n))]
    assert verdicts and verdicts[-1] is False
    # folding a path onto one edge maps edges to edges, but is no permutation
    path = Graph(3, [(0, 1), (1, 2)])
    assert voltage._is_automorphism(path, (2, 1, 0))
    assert not voltage._is_automorphism(path, (0, 1, 0))


def spy_on_the_distance_rows(monkeypatch):
    """The sources of the ``bfs_distances`` calls of ``voltage``."""
    sources = []

    def spy(g, v):
        sources.append(v)
        return bfs_distances(g, v)

    monkeypatch.setattr(voltage, "bfs_distances", spy)
    return sources


def test_a_base_too_large_to_search_builds_no_distance_row(monkeypatch):
    sources = spy_on_the_distance_rows(monkeypatch)
    assert base_automorphisms(make(parse_family("cycle:4000"))) == [tuple(range(4000))]
    assert sources == []


@pytest.mark.parametrize("slack,rows", [(-1, 0), (0, 10)])
def test_the_distance_rows_are_built_only_within_the_least_search_cost(monkeypatch, slack, rows):
    # level i tests its own vertex against the i placed ones: n(n-1)/2 = 45
    g = make(FamilySpec.named("petersen"))
    sources = spy_on_the_distance_rows(monkeypatch)
    monkeypatch.setattr(voltage, "AUT_SEARCH_BUDGET", 45 + slack)
    assert base_automorphisms(g) == [tuple(range(g.n))]
    assert sorted(sources) == list(range(rows))


@pytest.mark.parametrize("name,tree", CASES)
def test_group_sweep_covers_every_pair_once_with_the_reference_verdict(swept, name, tree):
    lg, _, _, result, rows, reference = swept(name, tree)
    nn = lg.num_vertices
    group = lifted_group(lg)
    assert len(group) == (AUT_ORDERS[name] if name in AUT_ORDERS else DELETED[name][0])
    assert all(certify(lg, phi) for phi in group)
    assert result.pairs_covered == reference.pairs_covered == nn * (nn - 1) // 2
    assert sum(int(row[4]) for row in rows) == result.pairs_covered
    assert result.all_pass == reference.all_pass
    assert result.analyses == len(rows) < reference.analyses == sum(1 for _ in iter_orbit_reps(lg))
    if name in DELETED:
        _, walked, orbits, translation_orbits = DELETED[name]
        assert sorted({int(row[0]) for row in rows}) == walked
        assert (result.analyses, reference.analyses) == (orbits, translation_orbits)


@pytest.mark.parametrize("name,tree", CASES)
def test_images_of_verified_paths_cover_every_translation_orbit(swept, name, tree):
    lg, _, tables, _, rows, _ = swept(name, tree)
    s, mask = lg.s, lg.mask
    group = lifted_group(lg)
    cover = {}
    analyses = {}
    for row in rows:
        x, y = lg.encode(int(row[0]), 0), lg.encode(int(row[2]), int(row[3] or "0", 2))
        path = shortest_lifted_path(lg, x, y, tables)
        wa = analyze(lg, path)
        analyses[x, y] = path, [getattr(wa, c) for c in COUNTERS]
        for phi in group:
            key = orbit_rep(lg, image(phi, lg, x), image(phi, lg, y))
            cover.setdefault(key, (x, y, phi))
    assert cover.keys() == {(x, y) for x, y, _ in iter_orbit_reps(lg)}
    for (rx, ry), (x, y, phi) in cover.items():
        path, counters = analyses[x, y]
        mapped = [image(phi, lg, z) for z in path]
        if mapped[0] >> s > mapped[-1] >> s:
            mapped.reverse()
        shift = mapped[0] & mask
        mapped = [z ^ shift for z in mapped]
        assert (mapped[0], mapped[-1]) == (rx, ry)
        for a, b in zip(mapped, mapped[1:]):
            project_edge(lg, a, b)  # raises unless (a, b) is a lifted edge
        assert len(mapped) - 1 == lifted_distance(lg, tables, rx, ry)
        got = analyze(lg, mapped)
        assert [getattr(got, c) for c in COUNTERS] == counters, (rx, ry)


@pytest.mark.parametrize("name,tree", WALK_CASES)
def test_the_stabilizer_walk_lists_the_reference_stream(lifted, name, tree):
    lg, _, _, group = lifted(name, tree)
    orders = {**AUT_ORDERS, **WALK_ORDERS}
    assert len(group) == (orders[name] if name in orders else DELETED[name][0])
    assert list(group_orbit_reps(lg, GroupOrbits(group))) == list(reference_group_orbit_reps(lg, group))


def image_test_pairs(lg, orbits, rng):
    """Seeded pairs in both orders, same-fiber pairs, and pairs whose ends lie
    in one Aut(G) vertex orbit, at random labels."""
    s, nn, n = lg.s, lg.num_vertices, lg.base.n
    pairs = []
    for _ in range(60):
        x, y = rng.sample(range(nn), 2)
        pairs += [(x, y), (y, x)]
    for u in range(n):
        f = rng.randrange(1 << s)
        pairs += [(u << s | f, u << s | (f ^ d)) for d in (1, 1 << s - 1, rng.randrange(1, 1 << s))]
    for u in range(n):
        others = [v for v in range(n) if v != u and orbits.home[v] == orbits.home[u]]
        for v in rng.sample(others, min(3, len(others))):
            pairs.append((u << s | rng.randrange(1 << s), v << s | rng.randrange(1 << s)))
    return pairs


@pytest.mark.parametrize("tree", ("bfs", "dfs"))
@pytest.mark.parametrize("name", ["petersen", "heawood", "pappus", "mcgee"])
def test_images_are_the_far_ends_of_the_orbit_at_its_source(name, tree):
    g = make(parse_family(name))
    lg = build_lift(spanning_tree(g, tree, 0 if tree == "bfs" else g.n - 1))
    group = lifted_group(lg)
    orbits = GroupOrbits(group)
    s = lg.s
    homes = set()
    for x, y in image_test_pairs(lg, orbits, random.Random(f"{name} {tree}")):
        homes.add((orbits.home[x >> s], orbits.home[y >> s]))
        reps = {orbit_rep(lg, image(phi, lg, x), image(phi, lg, y)) for phi in group}
        r = min(reps)[0] >> s
        assert orbits.images(x, y) == (r, {ry for rx, ry in reps if rx == r << s}), (x, y)
        assert orbits.canonical(x, y) == min(reps)
    # McGee's two vertex orbits: pairs within each, and across in both orders
    assert len(homes) == len(orbits.walked()) ** 2


def assert_images_are_the_reference_images(orbits, pairs):
    for x, y in pairs:
        r, far = reference_images(orbits, x, y)
        assert orbits.images(x, y) == (r, far), (x, y)
        assert orbits.canonical(x, y) == (r << orbits.s, min(far)), (x, y)


@pytest.mark.parametrize(
    "name,tree,root",
    [("k4", "bfs", 0), ("petersen", "bfs", 0), ("heawood", "bfs", 0), ("heawood", "dfs", 5), ("pappus", "bfs", 0)],
)
def test_packed_images_are_the_reference_images_from_every_walked_source(name, tree, root):
    lg = build_lift(spanning_tree(make(parse_family(name)), tree, root))
    orbits = GroupOrbits(lifted_group(lg))
    assert len(orbits.group) > 1
    s, nn = lg.s, lg.num_vertices
    pairs = [(r << s, y) for r in orbits.walked() for y in range(nn) if y != r << s]
    # the walk's order, then with the ends swapped, so the first end changes at every pair
    assert_images_are_the_reference_images(orbits, pairs + [(y, x) for x, y in pairs])


def test_packed_images_on_a_tree_with_no_label_coordinate():
    lg = build_lift(spanning_tree(Graph(3, [(0, 1), (1, 2)])))
    orbits = GroupOrbits(lifted_group(lg))
    assert lg.s == 0 and [phi.alpha for phi in orbits.group] == [(0, 1, 2), (2, 1, 0)]
    assert_images_are_the_reference_images(orbits, [(x, y) for x in range(3) for y in range(3) if x != y])


#: bases of the seeded image checks, with the bits of an encoded vertex
#: ((n - 1).bit_length() + s) and the lane width they are packed in
SEEDED_IMAGE_CASES = {
    "mcgee": (18, 32),
    "tutte_coxeter": (21, 32),
    "petersen+fault": (10, 16),
    "random:20:3": (16, 16),  # 5 + 11 bits fill the 16-bit lanes
    "cycle:65": (8, 8),  # 7 + 1 bits fill the 8-bit lanes
}


@pytest.mark.parametrize("name", SEEDED_IMAGE_CASES)
def test_packed_images_are_the_reference_images_on_seeded_pairs(name):
    base, _, fault = name.partition("+")
    td = spanning_tree(base_graph(base))
    lg = build_lift(td, fault=(td.cotree[0], 1 << 1) if fault else None)
    orbits = GroupOrbits(lifted_group(lg))
    bits, width = SEEDED_IMAGE_CASES[name]
    assert ((lg.base.n - 1).bit_length() + lg.s, 8 * orbits._itemsize) == (bits, width)
    rng = random.Random(name)
    nn = lg.num_vertices
    # scattered pairs, then a stream sorted by its first end, as the sampled family asks them
    stream = sorted(tuple(rng.sample(range(nn), 2)) for _ in range(2_000))
    assert_images_are_the_reference_images(orbits, image_test_pairs(lg, orbits, rng) + stream)


@pytest.mark.parametrize("name", ["pappus", "mcgee"])
def test_packed_images_do_not_depend_on_the_byte_order_the_lanes_are_read_in(monkeypatch, name):
    # the array's bytes read as one int in the other byte order: each lane
    # keeps its own bytes, which XOR never mixes, so the images are the same
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(voltage, "sys", types.SimpleNamespace(byteorder=other))
    lg = build_lift(spanning_tree(make(parse_family(name))))
    orbits = GroupOrbits(lifted_group(lg))
    assert orbits._itemsize > 1
    rng = random.Random(name)
    stream = sorted(tuple(rng.sample(range(lg.num_vertices), 2)) for _ in range(2_000))
    assert_images_are_the_reference_images(orbits, image_test_pairs(lg, orbits, rng) + stream)


@pytest.mark.parametrize("name", sorted(DELETED))
def test_the_group_walk_marks_one_row_per_walked_source(monkeypatch, name):
    lg, _, _ = lift_of(base_graph(name))
    group = lifted_group(lg)
    nn = lg.num_vertices
    sizes = []

    def spy(*args):
        out = builtins.bytearray(*args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(sweeps, "bytearray", spy, raising=False)
    entries = list(group_orbit_reps(lg, GroupOrbits(group)))
    _, walked, orbits, _ = DELETED[name]
    assert len(entries) == orbits
    assert sum(covered for *_, covered in entries) == nn * (nn - 1) // 2
    assert sum(sizes) == len(walked) * nn < lg.base.n * nn


TREE_CASES = [
    (spec, tree)
    for spec in ("k4", "petersen", "heawood", "random:20:3")
    for tree in ("bfs", "dfs")
]


@pytest.mark.parametrize("spec,tree", TREE_CASES)
def test_the_tree_records_its_rule_and_fundamental_cycles(spec, tree):
    g = make(parse_family(spec))
    lg, _, _ = lift_of(g, tree)
    td = lg.td
    assert len(td.rule) == g.m and len(td.cycles) == td.num_coords == g.m - g.n + 1
    cotree = {eid: i for i, eid in enumerate(td.cotree)}
    for eid, r in enumerate(td.rule):
        assert r == (1 << cotree[eid] if eid in cotree else 0), eid
    for i, (c, cycle) in enumerate(zip(td.cotree, td.cycles)):
        assert cycle >> c & 1
        edges = [eid for eid in range(g.m) if cycle >> eid & 1]
        assert set(edges) - {c} <= set(range(g.m)) - set(td.cotree)
        degree = [0] * g.n
        for eid in edges:
            for v in g.edges[eid]:
                degree[v] += 1
        assert not any(d & 1 for d in degree), (i, degree)
        assert linear(lg.rule, cycle) == 1 << i


def test_the_certificate_rejects_every_mutation():
    lg, _, _ = lift_of(make(FamilySpec.named("petersen")))
    phi = lifted_group(lg)[7]
    assert certify(lg, phi)
    for i in range(lg.s):
        for bit in range(lg.s):
            cols = list(phi.cols)
            cols[i] ^= 1 << bit
            assert not certify(lg, phi._replace(cols=tuple(cols))), ("column", i, bit)
    for v in range(lg.base.n):
        for bit in range(lg.s):
            pot = list(phi.pot)
            pot[v] ^= 1 << bit
            assert not certify(lg, phi._replace(pot=tuple(pot))), ("potential", v, bit)
    # alpha composed with a transposition is a permutation but no automorphism
    for a, b in ((0, 1), (0, 9), (3, 7)):
        alpha = list(phi.alpha)
        alpha[a], alpha[b] = alpha[b], alpha[a]
        assert not certify(lg, phi._replace(alpha=tuple(alpha)))
    assert not certify(lg, phi._replace(alpha=(0,) * lg.base.n))
    assert gf2_rank([0b011, 0b101, 0b110]) == 2 and gf2_rank([1, 2, 4]) == 3


def test_a_lift_failing_the_precondition_keeps_the_trivial_group(monkeypatch):
    g = make(FamilySpec.named("petersen"))
    lg, _, _ = lift_of(g)
    assert symmetry_applies(lg)

    def refuse(g):
        raise AssertionError("the search ran on a lift failing the precondition")

    monkeypatch.setattr(voltage, "_transversals", refuse)
    fault_lg, _, _ = lift_of(g, fault=1 << 1)  # the fault of verify --fault-inject
    assert not symmetry_applies(fault_lg)
    (identity,) = lifted_group(fault_lg)
    assert identity.alpha == tuple(range(g.n)) and not any(identity.pot)
    assert certify(fault_lg, identity)


def reference_report(g):
    """(report, CSV) of an exhaustive analysis whose sweep is the reference."""
    ctx = run_analysis(spanning_tree(g), pairs="exhaustive")
    lg, table, tables = ctx.lg, ctx.table, ctx.tables
    result, rows = sweep_with_rows(lg, table, tables, list(iter_orbit_reps(lg)))
    report = dict(ctx.report, verdict_sweep=sweep_block(result, None, None))
    report["all_pass"] = (
        report["bound"]["distortion_within_bound"]
        and report["lift"]["girth_at_least_base"]
        and result.all_pass
    )
    return to_json_bytes(report), "".join([CSV_HEADER, *(",".join(row) + "\n" for row in rows)])


def exhaustive_report(g):
    rows = [CSV_HEADER]
    ctx = run_analysis(spanning_tree(g), pairs="exhaustive", emit_csv=rows.append)
    return to_json_bytes(ctx.report), "".join(rows)


def test_an_exhausted_search_budget_gives_the_reference_report(monkeypatch):
    g = make(FamilySpec.named("petersen"))
    reduced = exhaustive_report(g)
    monkeypatch.setattr(voltage, "AUT_SEARCH_BUDGET", 1)
    assert base_automorphisms(g) == [tuple(range(g.n))]
    assert exhaustive_report(g) == reference_report(g) != reduced


def test_a_rigid_base_gives_the_reference_report_byte_for_byte():
    g = make(RIGID)
    report, csv = exhaustive_report(g)
    assert (report, csv) == reference_report(g)
    # one analysis per translation orbit, as before the reduction
    lg = build_lift(spanning_tree(g))
    assert csv.count("\n") - 1 == sum(1 for _ in iter_orbit_reps(lg))
