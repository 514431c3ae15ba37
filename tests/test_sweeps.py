"""The distance oracle of the verify battery stays independent of the engine it checks."""

import pytest

import treelift.lift as lift_mod
import treelift.sweeps as sweeps_mod
import treelift.walks as walks_mod
from treelift.embedding import embed
from treelift.families import FamilySpec, make
from treelift.graph import spanning_tree
from treelift.lift import build_lift
from treelift.sweeps import MAX_RECORDED_FAILURES, group_orbit_reps, oracle_equivalence_checks
from treelift.voltage import GroupOrbits, lifted_group
from treelift.walks import VERDICT_NAMES, PathRebuildError, shortest_lifted_path

from lift_reference import every_source_tables, scalar_bfs, with_rows


def lift_of(spec):
    g = make(spec)
    return build_lift(spanning_tree(g))


def raise_one_entry(lg, tables):
    """Rows of ``tables`` as lists, with one entry of row 0 raised by 2.

    The l1 half of the oracle rebuilds canonical paths backwards through the
    tables, so the entry is one whose successors all keep another
    predecessor: paths still rebuild and only the distance check can object.
    """
    rows = [list(row) for row in tables.rows]
    row = rows[0]
    for z in range(1, lg.num_vertices):
        d = row[z]
        up = [w for w in lg.neighbors(z) if row[w] == d + 1]
        if up and all(sum(row[p] == d for p in lg.neighbors(w)) >= 2 for w in up):
            row[z] = d + 2
            return rows, z, d
    raise AssertionError("no entry can be raised without breaking path rebuilding")


def test_oracle_fails_tables_with_one_entry_changed():
    lg = lift_of(FamilySpec.named("k4"))
    table = embed(lg)
    tables = every_source_tables(lg, table)
    _, good = oracle_equivalence_checks(lg, table, tables, 2000, 0)
    assert good == []

    rows, z, d = raise_one_entry(lg, tables)
    _, bad = oracle_equivalence_checks(lg, table, with_rows(tables, rows), 2000, 0)
    assert bad != []
    assert all(f"table distance {d + 2}, direct BFS {d}" in line for line in bad)
    assert len(bad) <= MAX_RECORDED_FAILURES


def raise_largest_entry(tables):
    """(rows of ``tables`` as lists, z, d): row 0's largest entry d, at z,
    raised by 3.  No neighbour of z is one level closer, so the canonical
    path to z cannot be rebuilt."""
    rows = [list(row) for row in tables.rows]
    d = max(rows[0])
    z = rows[0].index(d)
    rows[0][z] = d + 3
    return rows, z, d


def test_oracle_records_a_pair_whose_path_cannot_be_rebuilt():
    lg = lift_of(FamilySpec.named("k4"))
    table = embed(lg)
    tables = every_source_tables(lg, table)
    rows, z, d = raise_largest_entry(tables)
    with pytest.raises(PathRebuildError, match=f"vertex {z} has no neighbour one level closer to 0"):
        shortest_lifted_path(lg, 0, z, rows)

    l1_v, dist_v = oracle_equivalence_checks(lg, table, with_rows(tables, rows), 500, 0)
    assert 0 < len(l1_v) <= MAX_RECORDED_FAILURES
    assert all(": no canonical path: vertex " in line for line in l1_v)
    assert 0 < len(dist_v) <= MAX_RECORDED_FAILURES
    assert all(f"table distance {d + 3}, direct BFS {d}" in line for line in dist_v)


def test_sweep_counts_an_orbit_no_path_rebuilds_through_as_failed():
    lg = lift_of(FamilySpec.named("k4"))
    table = embed(lg)
    tables = every_source_tables(lg, table)
    rows, z, _ = raise_largest_entry(tables)
    group = GroupOrbits(lifted_group(lg))
    clean = sweeps_mod.verdict_sweep(lg, table, tables, 3, 1, group_orbit_reps(lg, group))
    assert clean.all_pass
    result = sweeps_mod.verdict_sweep(lg, table, rows, 3, 1, group_orbit_reps(lg, group))
    # the sweep goes on past the orbit, which fails under every verdict
    assert (result.analyses, result.pairs_covered) == (clean.analyses, clean.pairs_covered)
    assert not result.all_pass
    assert result.fails == dict.fromkeys(VERDICT_NAMES, 1)
    assert result.failures == [
        f"pair (0, {z}): no canonical path: vertex {z} has no neighbour one level closer to 0: "
        "the distance row of base vertex 0 is inconsistent"
    ]


def test_oracle_searches_once_per_pooled_source_without_the_engine(monkeypatch):
    lg = lift_of(FamilySpec.named("petersen"))
    table = embed(lg)
    tables = every_source_tables(lg, table)

    # neither the engine the oracle checks nor its per-source BFS may run
    for attr in ("representative_tables", "bfs_lifted"):
        original = getattr(lift_mod, attr)

        def refuse(*args, attr=attr, **kwargs):
            raise AssertionError(f"the oracle called {attr}")

        for mod in (lift_mod, sweeps_mod, walks_mod):
            if getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, refuse)

    searches = []
    two_sided = sweeps_mod.two_sided_distances

    def recording_search(lg, source, targets):
        answers = two_sided(lg, source, targets)
        searches.append((source, list(targets), answers))
        return answers

    monkeypatch.setattr(sweeps_mod, "two_sided_distances", recording_search)

    # 200 pairs draw sources from a pool of max(32, 200 // 64) = 32 vertices
    l1_v, dist_v = oracle_equivalence_checks(lg, table, tables, 200, 5)
    assert l1_v == [] and dist_v == []
    sources = [source for source, _, _ in searches]
    assert len(sources) == 32
    assert sources == sorted(set(sources))
    assert sum(len(targets) for _, targets, _ in searches) == 200
    for source, targets, answers in searches:
        direct = scalar_bfs(lg, source)
        assert answers == [direct[y] for y in targets]
