import random

import pytest

from treelift.embedding import embed, l1_distance
from treelift.families import load_named, make, FamilySpec
from treelift.graph import GraphError, build_graph, diameter, girth, spanning_tree
from treelift.lift import (
    bfs_lifted,
    build_lift,
    iter_orbit_reps,
    representative_tables,
)
from treelift.walks import (
    VERDICT_NAMES,
    analyze,
    forensic_text,
    shortest_lifted_path,
    verify_accounting,
    verify_all,
    verify_counting,
    verify_euler_parity,
    verify_repetitions,
    verify_segments,
)


def triangle_lift():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    return build_lift(g, spanning_tree(g, "dfs", 0))


def petersen_bundle():
    g = load_named("petersen")
    lg = build_lift(g, spanning_tree(g))
    table = embed(lg)
    return lg, table, representative_tables(lg, table), girth(g), diameter(g)


# --- shortest paths -----------------------------------------------------------


def test_path_trivial_and_adjacent():
    lg = triangle_lift()
    assert shortest_lifted_path(lg, 4, 4) == [4]
    x = lg.encode(0, 0)
    y = lg.neighbors(x)[0]
    assert shortest_lifted_path(lg, x, y) == [x, y]


def test_triangle_antipodal_path_length():
    lg = triangle_lift()
    x, y = lg.encode(0, 0), lg.encode(0, 1)
    path = shortest_lifted_path(lg, x, y)
    assert len(path) == 4  # distance 3 on the 6-cycle


def test_path_lengths_match_tables():
    lg, _, tables, _, _ = petersen_bundle()
    rng = random.Random(2)
    for _ in range(80):
        x = rng.randrange(640)
        y = rng.randrange(640)
        path = shortest_lifted_path(lg, x, y, tables)
        u, f = lg.decode(x)
        assert len(path) - 1 == tables[u][y ^ f]
        assert path[0] == x and path[-1] == y
        # consecutive entries really are lifted edges
        for a, b in zip(path, path[1:]):
            assert b in lg.neighbors(a)


def test_path_deterministic_and_translation_covariant():
    lg, _, tables, _, _ = petersen_bundle()
    rng = random.Random(3)
    for _ in range(40):
        x = rng.randrange(640)
        y = rng.randrange(640)
        g = rng.randrange(64)
        p1 = shortest_lifted_path(lg, x, y, tables)
        p2 = shortest_lifted_path(lg, x, y, tables)
        assert p1 == p2
        p3 = shortest_lifted_path(lg, x ^ g, y ^ g, tables)
        assert p3 == [v ^ g for v in p1]


# --- analyze ---------------------------------------------------------------------


def test_analyze_single_edge():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    y = lg.neighbors(x)[0]
    wa = analyze(lg, [x, y])
    assert wa.path_len == 1
    assert wa.components == 0 and wa.bridge_paths == 1
    assert (wa.bridges_once, wa.component_edges, wa.bridges_twice) == (1, 0, 0)
    assert wa.segments == ()


def test_analyze_triangle_antipodal():
    lg = triangle_lift()
    path = shortest_lifted_path(lg, lg.encode(0, 0), lg.encode(0, 1))
    wa = analyze(lg, path)
    assert wa.path_len == 3
    assert set(wa.multiplicity.values()) == {1}
    assert len(wa.induced_edges) == 3  # I(P) is the whole triangle
    assert wa.components == 1 and wa.bridge_paths == 0
    assert (wa.bridges_once, wa.component_edges, wa.bridges_twice) == (0, 3, 0)


def test_analyze_validates_path():
    lg = triangle_lift()
    with pytest.raises(GraphError):
        analyze(lg, [lg.encode(0, 0), lg.encode(0, 1)])  # not an edge


def test_multiplicities_sum_to_path_len_everywhere():
    lg, _, tables, _, _ = petersen_bundle()
    for x, y, _ in iter_orbit_reps(lg):
        wa = analyze(lg, shortest_lifted_path(lg, x, y, tables))
        assert sum(wa.multiplicity.values()) == wa.path_len


# --- individual verdicts ------------------------------------------------------------


def test_euler_parity_closed_walk_all_even():
    lg = triangle_lift()
    path = shortest_lifted_path(lg, lg.encode(0, 0), lg.encode(0, 1))
    wa = analyze(lg, path)  # projected endpoints coincide
    v = verify_euler_parity(lg, wa)
    assert v.passed


def test_euler_parity_single_edge_endpoints_odd():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, [x, lg.neighbors(x)[0]])
    assert verify_euler_parity(lg, wa).passed  # endpoints are exempt


def test_counting_examples():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa1 = analyze(lg, [x, lg.neighbors(x)[0]])
    assert verify_counting(wa1).passed  # N=1 <= 1
    wa2 = analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1)))
    assert verify_counting(wa2).passed  # N=0 <= 3


def test_segments_vacuous_and_bounded():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, [x, lg.neighbors(x)[0]])
    assert verify_segments(wa, 1).passed  # no twice-used edges at all
    fake = analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1)))
    assert verify_segments(fake, 1).passed


def test_accounting_triangle_antipodal():
    lg = triangle_lift()
    t = embed(lg)
    x, y = lg.encode(0, 0), lg.encode(0, 1)
    wa = analyze(lg, shortest_lifted_path(lg, x, y))
    v = verify_accounting(wa, t, base_girth=3, base_diam=1)
    assert v.passed, v.violations
    assert l1_distance(t, x, y) == 3 == wa.bridges_once + wa.component_edges


def test_repetitions_all_single_passes():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1)))
    assert verify_repetitions(wa).passed


def test_verdict_failure_is_data_not_exception():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, [x, lg.neighbors(x)[0]])
    v = verify_segments(wa, 0)  # absurd diameter to force nothing: vacuous
    assert v.passed
    bad = verify_counting(
        analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1)))
    )
    assert isinstance(bad.violations, list)


# --- twice-used bridges actually occur and verify ------------------------------------


def find_pair_with_repeats(lg, tables):
    for x, y, _ in iter_orbit_reps(lg):
        wa = analyze(lg, shortest_lifted_path(lg, x, y, tables))
        if wa.bridges_twice > 0:
            return wa
    return None


def test_a_twice_used_bridge_exists_in_petersen_lift_and_passes():
    lg, t, tables, base_g, base_d = petersen_bundle()
    wa = find_pair_with_repeats(lg, tables)
    assert wa is not None, "expected some shortest path to reuse a bridge"
    assert verify_repetitions(wa).passed
    assert verify_segments(wa, base_d).passed
    assert verify_accounting(wa, t, base_g, base_d).passed
    assert wa.segments and max(wa.segments) <= base_d


# --- full verdict battery on a sampled sweep -------------------------------------------


def test_verify_all_on_sampled_petersen_pairs():
    lg, t, tables, base_g, base_d = petersen_bundle()
    rng = random.Random(17)
    for _ in range(300):
        x = rng.randrange(640)
        y = rng.randrange(640)
        if x == y:
            continue
        wa = analyze(lg, shortest_lifted_path(lg, x, y, tables))
        verdicts = verify_all(lg, wa, t, base_g, base_d)
        assert set(verdicts) == set(VERDICT_NAMES)
        for name, v in verdicts.items():
            assert v.passed, f"{name}: {v.violations}\n{forensic_text(lg, wa, verdicts)}"


def test_verify_all_on_k4_exhaustive():
    g = load_named("k4")
    lg = build_lift(g, spanning_tree(g))
    t = embed(lg)
    tables = representative_tables(lg, t)
    for x, y, _ in iter_orbit_reps(lg):
        wa = analyze(lg, shortest_lifted_path(lg, x, y, tables))
        for name, v in verify_all(lg, wa, t, 3, 1).items():
            assert v.passed, f"{name}: {v.violations}"


def test_forensic_text_mentions_counters():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1)))
    text = forensic_text(lg, wa, verify_all(lg, wa, embed(lg), 3, 1))
    assert "components=1" in text and "path_len: 3" in text and "verdicts:" in text
