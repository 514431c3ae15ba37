"""The symmetry-reduced engine: distance rows only from the walked sources,
and sampled streams normalised to the orbits of the lifted group.

The guard here is independent of the group: a row off the walked sources is
built by its own label-parallel BFS (``every_source_tables``, under the
trivial group), and must equal the walked row read through the lifted
element that takes its source there.  The reduced tables never hold such a
row.
"""

import json
import random
import tracemalloc

import pytest

import treelift.lift as lift_mod
import treelift.voltage as voltage_mod
from treelift.cli import main
from treelift.embedding import embed
from treelift.families import FamilySpec, make, parse_family
from treelift.graph import spanning_tree
from treelift.lift import (
    build_lift,
    diameter_witness,
    representative_tables,
    sample_pair_list,
)
from treelift.report import run_analysis, run_verify_instance
from treelift.sweeps import group_orbit_reps
from treelift.voltage import GroupOrbits, lifted_group

from lift_reference import (
    every_source_tables,
    lifted_distance,
    orbit_rep,
    reference_canonical,
    reference_sample_pair_list,
    tuple_sample_pair_list,
)

#: symmetric bases: |Aut(G)| and the walked sources of a bfs tree rooted at 0
SYMMETRIC = {"petersen": (120, [0]), "heawood": (336, [0]), "pappus": (216, [0]), "mcgee": (32, [0, 1])}
TREES = ("bfs", "dfs")


def lift_of(g, tree="bfs", fault=None):
    td = spanning_tree(g, tree, 0 if tree == "bfs" else g.n - 1)
    return build_lift(td, fault=None if fault is None else (td.cotree[0], fault))


def reduced(lg):
    """(embedding, the group's orbits, the tables from the walked sources)."""
    table = embed(lg)
    orbits = GroupOrbits(lifted_group(lg))
    return table, orbits, representative_tables(lg, table, orbits)


@pytest.fixture(scope="module")
def built():
    cache = {}

    def get(name, tree):
        if (name, tree) not in cache:
            lg = lift_of(make(parse_family(name)), tree)
            cache[name, tree] = (lg, *reduced(lg))
        return cache[name, tree]

    return get


@pytest.fixture(scope="module")
def every_source(built):
    """The tables of all n sources, each row built by its own BFS."""
    cache = {}

    def get(name, tree):
        if (name, tree) not in cache:
            lg, table, _, _ = built(name, tree)
            cache[name, tree] = every_source_tables(lg, table)
        return cache[name, tree]

    return get


def mapped_row(lg, phi, u, walked_row):
    """The row of (u, 0) read off the walked row through phi, an element with
    alpha(u) = r, and the translation by p(u): y -> phi(y) ^ p(u) takes (u, 0)
    to (r, 0), so d((u, 0), y) = d((r, 0), phi(y) ^ p(u))."""
    s = lg.s
    labels = [0]  # A.f for every label f
    for col in phi.cols:
        labels += [f ^ col for f in labels]
    row = []
    for v in range(lg.base.n):
        base = phi.alpha[v] << s
        shift = phi.pot[v] ^ phi.pot[u]
        row += map(walked_row.__getitem__, [base | f ^ shift for f in labels])
    return row


@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_every_row_off_the_walked_sources_is_a_walked_row_moved_by_the_group(
    built, every_source, name, tree
):
    lg, _, orbits, tables = built(name, tree)
    full = every_source(name, tree)
    order, walked = SYMMETRIC[name]
    assert len(orbits.group) == order
    if tree == "bfs":
        assert orbits.walked() == walked
    others = [u for u in range(lg.base.n) if orbits.home[u] != u]
    assert others and all(tables.rows[u] is None for u in others)
    for u in others:
        r = orbits.home[u]
        phi = orbits.coset[u][0]
        assert phi.alpha[u] == r
        assert list(full.rows[u]) == mapped_row(lg, phi, u, tables.rows[r]), u
        assert tables.ecc[u] == tables.ecc[r] == max(full.rows[u])


@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_the_walked_sources_give_the_tables_of_all_sources(built, every_source, name, tree):
    lg, _, orbits, tables = built(name, tree)
    full = every_source(name, tree)
    assert all(row is not None for row in full.rows)
    assert (tables.girth, tables.ecc, tables.colip, tables.colip_witness) == (
        full.girth,
        full.ecc,
        full.colip,
        full.colip_witness,
    )
    assert diameter_witness(lg, tables) == diameter_witness(lg, full)
    for u in range(lg.base.n):
        assert tables.rows[u] == (full.rows[u] if orbits.home[u] == u else None), u
    # a distance from any source is read through the group off a walked row
    rng = random.Random(7)
    for _ in range(300):
        x = rng.randrange(lg.num_vertices)
        y = rng.randrange(lg.num_vertices)
        assert lifted_distance(lg, tables, x, y) == full.rows[x >> lg.s][y ^ (x & lg.mask)]


def explicit_family(lg, tables, count, seed):
    """Every lifted edge, the diameter pair and ``count`` seeded draws, deduplicated."""
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


@pytest.mark.parametrize("tree", TREES)
@pytest.mark.parametrize("name", ["petersen", "heawood", "pappus"])
def test_sampled_entries_are_group_orbit_entries_covering_the_family(built, name, tree):
    lg, _, orbits, tables = built(name, tree)
    entries = list(sample_pair_list(lg, tables, 300, 11))
    exhaustive = {(x, y): covered for x, y, covered in group_orbit_reps(lg, orbits)}
    assert all((x, y) in exhaustive for x, y, _ in entries)
    assert all(covered <= exhaustive[x, y] for x, y, covered in entries)
    family = explicit_family(lg, tables, 300, 11)
    assert sum(covered for *_, covered in entries) == len(family)
    # the reference: family pairs grouped by the smallest pair of their group
    # orbit, found by mapping a pair of each translation orbit through every
    # element, in the order of each orbit's smallest family pair
    translation = {}
    for pair in sorted(family):
        translation.setdefault(orbit_rep(lg, *pair), []).append(pair)
    groups = {}
    for rep, members in translation.items():
        groups.setdefault(reference_canonical(lg, orbits.group, *rep), []).extend(members)
    want = [(*key, len(members)) for key, members in sorted(groups.items(), key=lambda kv: min(kv[1]))]
    assert entries == want


#: bases and lifts whose lifted group is the identity alone
TRIVIAL = {
    **{
        f"random:20:3 seed {seed}": (FamilySpec.random_regular(20, 3, girth_min=5, seed=seed), None)
        for seed in (0, 1, 2)
    },
    "petersen fault": (FamilySpec.named("petersen"), 1 << 1),  # the fault of verify --fault-inject
}


@pytest.mark.parametrize("name", TRIVIAL)
def test_with_the_trivial_group_the_stream_is_the_translation_orbit_stream(name):
    spec, fault = TRIVIAL[name]
    lg = lift_of(make(spec), fault=fault)
    _, orbits, tables = reduced(lg)
    assert len(orbits.group) == 1 and orbits.walked() == list(range(lg.base.n))
    assert all(row is not None for row in tables.rows)
    for count, seed in ((300, 4), (700, 0)):
        # the translation-orbit stream carried each orbit's smallest family
        # pair, which the sweep analysed at its translation representative
        reference = reference_sample_pair_list(lg, tables, count, seed)
        want = [(*orbit_rep(lg, x, y), covered) for x, y, covered in reference]
        assert list(sample_pair_list(lg, tables, count, seed)) == want


#: the bases of the packed-stream checks, symmetric and trivial, as (spec, fault)
PACKED = {name: (parse_family(name), None) for name in ("k4", "petersen", "heawood", "mcgee")} | TRIVIAL


@pytest.fixture(scope="module")
def packed_case():
    cache = {}

    def get(name):
        if name not in cache:
            spec, fault = PACKED[name]
            lg = lift_of(make(spec), fault=fault)
            cache[name] = (lg, reduced(lg)[2])
        return cache[name]

    return get


@pytest.mark.parametrize("name", PACKED)
def test_the_packed_stream_is_the_tuple_stream(packed_case, name):
    lg, tables = packed_case(name)
    for count in (1, 50, 2_000):
        for seed in (0, 3, 11):
            want = tuple_sample_pair_list(lg, tables, count, seed)
            assert list(sample_pair_list(lg, tables, count, seed)) == want, (count, seed)


def traced_peak(build):
    """The tracemalloc peak, in bytes, of one call of ``build``."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_packed_stream_peaks_at_most_half_the_tuple_stream(packed_case):
    lg, tables = packed_case("random:20:3 seed 0")
    # at 100,000 pairs the one ordered dict of the sorted walk leads the peak
    for count, share in ((20_000, 0.5), (100_000, 0.28)):
        packed = traced_peak(lambda: sample_pair_list(lg, tables, count, 1))
        tuples = traced_peak(lambda: tuple_sample_pair_list(lg, tables, count, 1))
        assert packed <= tuples * share, (count, packed, tuples)


@pytest.mark.parametrize("name", ["tutte_coxeter", "random:20:3"])
def test_the_pair_lane_cache_holds_at_most_two_ends_per_base_vertex(name):
    # a sampled stream asks every first end in turn; the base lanes of at
    # most n pairs of base vertices, each with at most two ends, are kept
    lg = lift_of(make(parse_family(name)))
    _, orbits, tables = reduced(lg)
    assert len(list(sample_pair_list(lg, tables, 20_000, 5))) > 1_000
    held = sum(len(ends) for _, ends in orbits._pairs.values())
    assert 0 < held <= 2 * lg.base.n


def spy_on_the_plane_bfs(monkeypatch):
    sources = []
    real = lift_mod.bfs_lifted

    def spy(lg, source):
        sources.append(lg.decode(source))
        return real(lg, source)

    monkeypatch.setattr(lift_mod, "bfs_lifted", spy)
    return sources


@pytest.mark.parametrize(
    "name,pairs,seed,walked",
    [("mcgee", 2000, 3, [0, 1]), ("heawood", "exhaustive", None, [0])],
)
def test_an_analysis_runs_the_plane_bfs_once_per_walked_source(monkeypatch, name, pairs, seed, walked):
    sources = spy_on_the_plane_bfs(monkeypatch)
    ctx = run_analysis(spanning_tree(make(FamilySpec.named(name))), pairs=pairs, seed=seed)
    assert ctx.report["all_pass"]
    # one run from each walked source (r, 0), and no other
    assert sources == [(r, 0) for r in walked]
    assert [u for u, row in enumerate(ctx.tables.rows) if row is not None] == walked


@pytest.mark.parametrize("name,pairs,walked", [("petersen", "auto", [0]), ("mcgee", 2000, [0, 1])])
def test_verify_runs_the_plane_bfs_once_per_walked_source(monkeypatch, name, pairs, walked):
    # the oracle reads every distance through the group, so it builds no row
    sources = spy_on_the_plane_bfs(monkeypatch)
    td = spanning_tree(make(FamilySpec.named(name)))
    ctx = run_verify_instance(name, td, seed=3, oracle_pairs=2000, pairs=pairs)
    assert ctx.report["all_pass"]
    assert sources == [(r, 0) for r in walked]
    assert [u for u, row in enumerate(ctx.tables.rows) if row is not None] == walked


#: wrong third lifted elements: one bit of column 0, one bit of potential
#: 3, or alpha with the images of 1 and 2 swapped
MUTATIONS = {
    "column": lambda phi: phi._replace(cols=(phi.cols[0] ^ 1, *phi.cols[1:])),
    "potential": lambda phi: phi._replace(pot=(*phi.pot[:3], phi.pot[3] ^ 1, *phi.pot[4:])),
    "alpha": lambda phi: phi._replace(alpha=(phi.alpha[0], phi.alpha[2], phi.alpha[1], *phi.alpha[3:])),
}


#: the checks verify names as failing for each base and mutation; the
#: oracle reads every distance through the group, so it sees all six, and
#: the wrong Petersen potential leaves the exhaustive count intact
FAILING = {
    ("petersen", "column"): "oracle_distance_table, oracle_l1_odd_multiplicity, verdict_sweep",
    ("petersen", "potential"): "oracle_distance_table",
    ("petersen", "alpha"): "oracle_distance_table, oracle_l1_odd_multiplicity, verdict_sweep",
    ("heawood", "column"): "oracle_distance_table, oracle_l1_odd_multiplicity, verdict_sweep",
    ("heawood", "potential"): "oracle_distance_table, verdict_sweep",
    ("heawood", "alpha"): "oracle_distance_table, oracle_l1_odd_multiplicity, verdict_sweep",
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", ["petersen", "heawood"])
def test_a_wrong_lifted_element_makes_verify_fail(monkeypatch, tmp_path, capsys, name, mutation):
    real = voltage_mod.lift_automorphism
    lifted = []

    def wrong_element(lg, alpha, order):
        phi = real(lg, alpha, order)
        lifted.append(alpha)
        return MUTATIONS[mutation](phi) if len(lifted) == 3 else phi

    monkeypatch.setattr(voltage_mod, "lift_automorphism", wrong_element)
    out = tmp_path / "v.json"
    assert main(["verify", "--instances", name, "--random-count", "0", "-o", str(out)]) == 1
    assert f"FAIL {name} ({FAILING[name, mutation]})" in capsys.readouterr().out
    report = json.loads(out.read_text())["instances"][0]
    sweep = report["verdict_sweep"]
    nn = report["lift"]["vertices"]
    assert sweep["mode"] == "exhaustive"
    # the sweep fails only where the group walk marks the wrong far ends, so
    # that its covered sum is not nn(nn - 1) / 2
    miscount = f"the exhaustive stream covers {sweep['pairs_covered']} pairs, not all {nn * (nn - 1) // 2}"
    assert sweep["failures"] == ([miscount] if "verdict_sweep" in FAILING[name, mutation] else [])
