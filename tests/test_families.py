import hashlib
import math
import random

import pytest

from treelift.families import (
    NAMED,
    FamilySpec,
    load_named,
    make,
    order_and_size,
    parse_family,
    random_regular,
)
from treelift.graph import Graph, GraphError, diameter, girth, is_connected
from treelift.report import base_block
from treelift.voltage import base_automorphisms

#: documented (degree, n, m, girth, diameter) per named graph, each entry
#: re-derived below with the graph oracles rather than trusted
NAMED_STATS = {
    "k4": (3, 4, 6, 3, 1),
    "petersen": (3, 10, 15, 5, 2),
    "heawood": (3, 14, 21, 6, 3),
    "mcgee": (3, 24, 36, 7, 4),
    "pappus": (3, 18, 27, 6, 4),
    "tutte_coxeter": (3, 30, 45, 8, 4),
    "robertson": (4, 19, 38, 5, 3),
}


def test_cycle_family():
    g = make(FamilySpec.cycle(5))
    assert g.regularity() == 2
    assert girth(g) == 5 and diameter(g) == 2


def test_complete_family():
    g = make(FamilySpec.complete(5))
    assert g.regularity() == 4 and g.m == 10
    assert girth(g) == 3 and diameter(g) == 1


def test_family_validation():
    with pytest.raises(GraphError):
        make(FamilySpec.cycle(2))
    with pytest.raises(GraphError):
        make(FamilySpec.complete(2))
    with pytest.raises(GraphError):
        make(FamilySpec(kind="nope"))


@pytest.mark.parametrize("name", NAMED)
def test_named_graphs_rederived_by_oracles(name):
    g = load_named(name)
    k, n, m, gi, di = NAMED_STATS[name]
    assert g.regularity() == k
    assert g.n == n and g.m == m
    assert girth(g) == gi
    assert diameter(g) == di
    assert is_connected(g)


def test_robertson_is_the_4_5_cage_with_24_automorphisms():
    # the unique (4,5)-cage: 4-regular of girth 5 on the fewest vertices, 19:
    # the cycle 0..18, then the chord from i to i + c_i mod 19
    g = load_named("robertson")
    chords = (8, 4, 7, 4, 8, 5, 7, 4, 7, 8, 4, 5, 7, 8, 4, 8, 4, 8, 4)
    cycle = [(i, (i + 1) % 19) for i in range(19)]
    assert g.edges == (*cycle, *((i, (i + c) % 19) for i, c in enumerate(chords)))
    assert len(base_automorphisms(g)) == 24


@pytest.mark.parametrize(
    "text", [*NAMED, "cycle:3", "cycle:8", "complete:4", "complete:6", "random:20:3", "random:12:4"]
)
def test_order_and_size_are_those_of_the_built_graph(text):
    spec = parse_family(text)
    g = make(spec)
    assert order_and_size(spec) == (g.n, g.m)


def test_parse_family_strings():
    assert parse_family("petersen") == FamilySpec.named("petersen")
    assert parse_family("cycle:6") == FamilySpec.cycle(6)
    assert parse_family("complete:4") == FamilySpec.complete(4)
    spec = parse_family("random:20:3")
    assert (spec.kind, spec.n, spec.k) == ("random_regular", 20, 3)
    for bad in ("petersen:1", "cycle", "cycle:x", "random:20", "blah"):
        with pytest.raises(GraphError):
            parse_family(bad)


@pytest.mark.parametrize("seed", range(8))
def test_random_regular_invariants(seed):
    g = random_regular(20, 3, girth_min=5, seed=seed)
    assert g.n == 20
    assert g.regularity() == 3
    assert is_connected(g)
    assert girth(g) >= 5


def test_random_regular_reproducible():
    a = random_regular(16, 3, girth_min=4, seed=42)
    b = random_regular(16, 3, girth_min=4, seed=42)
    assert a.edges == b.edges
    c = random_regular(16, 3, girth_min=4, seed=43)
    assert c.edges != a.edges


def shuffled_random_regular(n, k, girth_min, seed, max_tries=10_000):
    """The configuration model with ``random.shuffle`` itself, scanning the
    pairs front to back: the generator ``random_regular`` must reproduce."""
    rng = random.Random(seed)
    ordered = [v for v in range(n) for _ in range(k)]
    for _ in range(max_tries):
        stubs = ordered.copy()
        rng.shuffle(stubs)
        pairs = [(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])]
        if all(u != v for u, v in pairs) and len(set(pairs)) == len(pairs):
            g = Graph(n, pairs)
            if is_connected(g) and girth(g) >= girth_min:
                return g
    return None


@pytest.mark.parametrize(
    "n, k, girth_min, seed",
    [(20, 3, 5, seed) for seed in (0, 1, 2, 3)] + [(12, 3, 3, 5), (16, 4, 4, 8), (8, 3, 3, 1)],
)
def test_random_regular_is_the_shuffled_configuration_model(n, k, girth_min, seed):
    # the verify battery's random instances (random:20:3, girth >= 5, seeds 0 up) among them
    got = random_regular(n, k, girth_min, seed).edges
    assert got == shuffled_random_regular(n, k, girth_min, seed).edges


#: sha256 of the repr of the list of ``.edges`` over the seeds, frozen from the
#: generator that called ``random.shuffle`` once per attempt.  (20, 3, 5)
#: holds the verify battery's random instances; the seeds of (16, 4, 4) and
#: (30, 3, 6) are those of 0-24 that find a graph within the default tries,
#: each on an attempt between 1,779 and 9,340, so each digest covers long
#: runs of rejected attempts.
FROZEN_GRAPHS = [
    (20, 3, 5, range(25), "5a2400ebe644b9afd177d3cfbec62574716c362a474bf1680b8d79b423e83f74"),
    (12, 3, 3, range(25), "992d85e8ae23ba7d8c60f16fc4e751fc5201b6043e9bcd6199e07faa7d8dbef2"),
    (16, 4, 4, (8, 14, 16, 17, 18, 20, 21), "acc3fb89f8207be8886df14dac394ea339d6b163c6fee29ebe58265d1e0556ed"),
    (30, 3, 6, (3, 8, 23), "f3c784f52544d101a6e646cc9fc0c2fb58d2bbea5e39a5e1bbe90e3915ea1b4d"),
]


@pytest.mark.parametrize(
    "n, k, girth_min, seeds, digest", FROZEN_GRAPHS, ids=[f"{n}-{k}-{g}" for n, k, g, _, _ in FROZEN_GRAPHS]
)
def test_random_regular_graphs_are_frozen(n, k, girth_min, seeds, digest):
    graphs = [random_regular(n, k, girth_min=girth_min, seed=seed).edges for seed in seeds]
    assert hashlib.sha256(repr(graphs).encode()).hexdigest() == digest


def test_random_regular_explicit_exhaustion():
    # girth 8 on 14 cubic vertices is impossible (Tutte-Coxeter needs 30)
    with pytest.raises(GraphError, match="found in 50 attempts"):
        random_regular(14, 3, girth_min=8, seed=0, max_tries=50)


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(GraphError):
        random_regular(15, 3)  # odd n*k
    with pytest.raises(GraphError):
        random_regular(20, 2)
    with pytest.raises(GraphError):
        random_regular(3, 3)


def base_ratio(g):
    """The girth/diameter ratio of the report's base block."""
    return base_block(g, girth(g), diameter(g))["girth_diameter_ratio"]


def test_girth_diam_ratio_exact():
    assert base_ratio(load_named("petersen")) == "5/2"
    assert base_ratio(load_named("heawood")) == "2"
    for r in (2, 3, 4):
        g = make(FamilySpec.cycle(2 * r))
        assert base_ratio(g) == "2"


def test_girth_diam_ratio_is_none_for_a_forest():
    path = Graph(3, [(0, 1), (1, 2)])
    block = base_block(path, girth(path), diameter(path))
    assert block["girth"] is None
    assert block["girth_diameter_ratio"] is None and block["girth_diameter_ratio_decimal"] is None
    assert girth(Graph(2, [(0, 1)])) == math.inf
