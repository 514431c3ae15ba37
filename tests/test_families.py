import math

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
