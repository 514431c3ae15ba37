import random

import pytest

import treelift.sweeps as sweeps
from treelift.embedding import embed
from treelift.families import load_named, make, FamilySpec
from treelift.graph import GraphError, build_graph, diameter, girth, spanning_tree
from treelift.lift import (
    build_lift,
    iter_orbit_reps,
    representative_tables,
    sample_pair_list,
)
from treelift.walks import (
    VERDICT_NAMES,
    PathRebuildError,
    analyze,
    forensic_text,
    shortest_lifted_path,
    verify_all,
)


def triangle_lift():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    return build_lift(g, spanning_tree(g, "dfs", 0))


def tables_of(lg):
    return representative_tables(lg, embed(lg))


def triangle_verdict(lg, wa, name, base_diam=1):
    """One verdict of ``verify_all`` on the triangle lift (girth 3, diameter 1)."""
    return verify_all(lg, wa, embed(lg), 3, base_diam)[name]


def petersen_lift(strategy, root, faulty):
    """(lift, embedding, tables) of Petersen; ``faulty`` plants the fault of
    ``verify --fault-inject`` (the lift stays connected)."""
    g = load_named("petersen")
    td = spanning_tree(g, strategy, root)
    lg = build_lift(g, td, fault=(td.cotree[0], 1 << 1) if faulty else None)
    table = embed(lg)
    return lg, table, representative_tables(lg, table)


def petersen_bundle():
    lg, table, tables = petersen_lift("bfs", 0, False)
    return lg, table, tables, girth(lg.base), diameter(lg.base)


# --- shortest paths -----------------------------------------------------------


def test_path_trivial_and_adjacent():
    lg = triangle_lift()
    assert shortest_lifted_path(lg, 4, 4, tables_of(lg)) == [4]
    x = lg.encode(0, 0)
    y = lg.neighbors(x)[0]
    assert shortest_lifted_path(lg, x, y, tables_of(lg)) == [x, y]


def test_triangle_antipodal_path_length():
    lg = triangle_lift()
    x, y = lg.encode(0, 0), lg.encode(0, 1)
    path = shortest_lifted_path(lg, x, y, tables_of(lg))
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


@pytest.mark.parametrize("faulty", [False, True], ids=["lift", "fault lift"])
@pytest.mark.parametrize("tree", [("bfs", 0), ("dfs", 5)], ids=["bfs0", "dfs5"])
def test_paths_through_a_shared_per_source_memo_equal_fresh_paths(tree, faulty):
    lg, _, tables = petersen_lift(*tree, faulty)
    source = pred = None
    for x, y, _ in iter_orbit_reps(lg):
        if x != source:
            source, pred, visited = x, {}, set()
        path = shortest_lifted_path(lg, x, y, tables, pred)
        assert path == shortest_lifted_path(lg, x, y, tables)
        # the memo holds exactly the vertices the source's paths have visited
        visited.update(path[1:])
        assert pred.keys() == visited
    # sources anywhere in one fiber share its memo: it lives in the label-0 frame
    rng = random.Random(9)
    for u in range(lg.base.n):
        pred = {}
        for _ in range(40):
            x = lg.encode(u, rng.randrange(1 << lg.s))
            y = rng.randrange(lg.num_vertices)
            assert shortest_lifted_path(lg, x, y, tables, pred) == shortest_lifted_path(
                lg, x, y, tables
            )


def test_paths_through_inconsistent_rows_or_memos_raise_a_named_error():
    lg, _, tables = petersen_lift("bfs", 0, False)
    rows = [list(row) for row in tables.rows]
    z = lg.neighbors(0)[0]
    rows[0][z] = 0  # a second vertex at distance 0 from (0, 0)
    with pytest.raises(PathRebuildError, match=f"reaches {z}, not 0, at distance 0"):
        shortest_lifted_path(lg, 0, z, rows)
    # a memo of another source's tree leads the steps astray
    pred = {}
    for y in range(1, lg.num_vertices):
        shortest_lifted_path(lg, 64, y, tables, pred)
    with pytest.raises(PathRebuildError):
        for y in range(1, lg.num_vertices):
            shortest_lifted_path(lg, 0, y, tables, pred)


@pytest.mark.parametrize("policy", ["exhaustive", "sample"])
def test_sweep_keeps_one_memo_per_run_of_a_source(monkeypatch, policy):
    lg, table, tables = petersen_lift("bfs", 0, False)
    real = sweeps.shortest_lifted_path
    calls = []

    def recording(lg, x, y, tables, pred):
        path = real(lg, x, y, tables, pred)
        calls.append((x, pred, path == real(lg, x, y, tables)))
        return path

    monkeypatch.setattr(sweeps, "shortest_lifted_path", recording)
    pairs = sample_pair_list(lg, tables, 300, 4) if policy == "sample" else None
    result = sweeps.verdict_sweep(lg, table, tables, 5, 2, pairs=pairs)
    assert result.all_pass and len(calls) == result.analyses
    assert all(same for _, _, same in calls)
    sources = [x for x, _, _ in calls]
    runs = [x for i, x in enumerate(sources) if i == 0 or x != sources[i - 1]]
    assert runs == sorted(set(sources)) and len(runs) == lg.base.n
    for (x1, pred1, _), (x2, pred2, _) in zip(calls, calls[1:]):
        assert (pred1 is pred2) == (x1 == x2)


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
    path = shortest_lifted_path(lg, lg.encode(0, 0), lg.encode(0, 1), tables_of(lg))
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
    path = shortest_lifted_path(lg, lg.encode(0, 0), lg.encode(0, 1), tables_of(lg))
    wa = analyze(lg, path)  # projected endpoints coincide
    v = triangle_verdict(lg, wa, "euler_parity")
    assert v.passed


def test_euler_parity_single_edge_endpoints_odd():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, [x, lg.neighbors(x)[0]])
    assert triangle_verdict(lg, wa, "euler_parity").passed  # endpoints are exempt


def test_counting_examples():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa1 = analyze(lg, [x, lg.neighbors(x)[0]])
    assert triangle_verdict(lg, wa1, "counting").passed  # N=1 <= 1
    wa2 = analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1), tables_of(lg)))
    assert triangle_verdict(lg, wa2, "counting").passed  # N=0 <= 3


def test_segments_vacuous_and_bounded():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, [x, lg.neighbors(x)[0]])
    assert triangle_verdict(lg, wa, "segments").passed  # no twice-used edges at all
    fake = analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1), tables_of(lg)))
    assert triangle_verdict(lg, fake, "segments").passed


def test_accounting_triangle_antipodal():
    lg = triangle_lift()
    t = embed(lg)
    x, y = lg.encode(0, 0), lg.encode(0, 1)
    wa = analyze(lg, shortest_lifted_path(lg, x, y, tables_of(lg)))
    v = verify_all(lg, wa, t, base_girth=3, base_diam=1)["accounting"]
    assert v.passed, v.violations
    assert t.l1(x, y) == 3 == wa.bridges_once + wa.component_edges


def test_repetitions_all_single_passes():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1), tables_of(lg)))
    assert triangle_verdict(lg, wa, "repetitions").passed


def test_verdict_failure_is_data_not_exception():
    lg = triangle_lift()
    x = lg.encode(0, 0)
    wa = analyze(lg, [x, lg.neighbors(x)[0]])
    v = triangle_verdict(lg, wa, "segments", base_diam=0)  # absurd diameter: still vacuous
    assert v.passed
    path = shortest_lifted_path(lg, x, lg.encode(0, 1), tables_of(lg))
    bad = triangle_verdict(lg, analyze(lg, path), "counting")
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
    verdicts = verify_all(lg, wa, t, base_g, base_d)
    assert verdicts["repetitions"].passed
    assert verdicts["segments"].passed
    assert verdicts["accounting"].passed
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
    wa = analyze(lg, shortest_lifted_path(lg, x, lg.encode(0, 1), tables_of(lg)))
    text = forensic_text(lg, wa, verify_all(lg, wa, embed(lg), 3, 1))
    assert "components=1" in text and "path_len: 3" in text and "verdicts:" in text
