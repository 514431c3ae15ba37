"""Pair sweeps and whole-lift property checks.

The verdict sweep runs the full per-pair battery over a pair policy.  Distances,
embedding rows and canonical shortest paths are all invariant under label
translation (the canonical path of a translated pair is the translated
canonical path), so each translation orbit is analyzed once and the verdicts
cover every pair in it.  Both pair policies arrive as the same stream of
(x, y, covered) orbit entries: exhaustive mode enumerates the canonical orbit
representatives and sampled mode takes ``sample_pair_list``, which weights
each orbit by the family pairs it holds.  Spot checks in the test suite
re-derive sampled pairs directly to guard the reduction itself.

The whole-lift checks are certified exactly at every lift size, with no
sampling.  A lifted edge over base edge e must flip side bit e and nothing
else, i.e. the XOR of its endpoint rows is exactly the one-hot vector of e.
The embedding is affine in the label, so that XOR is the same for all 2^s
lifted edges over e: one comparison per base edge certifies the cut property,
the disjoint-cut partition property and the unit Lipschitz step for the whole
lift.  Degrees are likewise checked once per fiber and carried to every label
by translation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .lift import iter_orbit_reps, lifted_distance, orbit_rep, two_sided_distances
from .walks import (
    PathRebuildError,
    Verdict,
    analyze,
    forensic_text,
    shortest_lifted_path,
    verify_all,
    VERDICT_NAMES,
)

MAX_RECORDED_FAILURES = 5


@dataclass(eq=False)
class SweepResult:
    pairs_covered: int
    analyses: int
    verdict_totals: dict  # verdict name -> [pass, fail], counted per analysis
    failures: list  # forensic dumps, capped at MAX_RECORDED_FAILURES
    all_pass: bool


def verdict_sweep(lg, table, tables, base_girth, base_diam, pairs=None, collect=None):
    """Verdict battery over a pair policy, one analysis per translation orbit.

    With ``pairs`` None the entries are the canonical orbit representatives
    (exhaustive); otherwise ``pairs`` is the family built by
    ``sample_pair_list``.  Each entry (x, y, covered) is analyzed at the
    canonical representative of its orbit and counts ``covered`` pairs.
    ``collect``, if given, is called with (x, y, covered, distance, l1,
    analysis, verdicts) for every entry, in canonical order; the CSV export
    hangs off this hook.

    An entry whose canonical path cannot be rebuilt through the distance
    rows (``PathRebuildError``) has no analysis: it counts as failed under
    every verdict, is recorded in ``failures`` and skips ``collect``, and the
    sweep goes on.

    Every representative starts at (u, 0), and both policies list the
    representatives of one u as one run (exhaustive entries come by u, and
    sampled entries, sorted by x, have u = x >> s), so the predecessors of
    one source's canonical-path tree are kept in one dict while its run lasts.
    """
    fails = dict.fromkeys(VERDICT_NAMES, 0)
    failures = []
    analyses = 0
    covered = 0
    l1 = table.l1
    source = pred = None

    for x, y, cov in iter_orbit_reps(lg) if pairs is None else pairs:
        rx, ry = orbit_rep(lg, x, y)
        if rx != source:
            source = rx
            pred = {}
        analyses += 1
        covered += cov
        try:
            path = shortest_lifted_path(lg, rx, ry, tables, pred)
        except PathRebuildError as exc:
            for name in fails:
                fails[name] += 1
            if len(failures) < MAX_RECORDED_FAILURES:
                failures.append(f"pair ({rx}, {ry}): no canonical path: {exc}")
            continue
        wa = analyze(lg, path)
        verdicts = verify_all(lg, wa, table, base_girth, base_diam)
        failed = [name for name, v in verdicts.items() if not v.passed]
        if failed:
            for name in failed:
                fails[name] += 1
            if len(failures) < MAX_RECORDED_FAILURES:
                failures.append(forensic_text(lg, wa, verdicts))
        if collect is not None:
            collect(x, y, cov, lifted_distance(lg, tables, x, y), l1(x, y), wa, verdicts)

    return SweepResult(
        pairs_covered=covered,
        analyses=analyses,
        verdict_totals={name: [analyses - fail, fail] for name, fail in fails.items()},
        failures=failures,
        all_pass=not any(fails.values()),
    )


def cut_partition_check(lg, table):
    """Every lifted edge must cross exactly its own cut.

    For a lifted edge (x, y) over base edge e this is row(x) ^ row(y) ==
    1 << e: bit e set certifies the fiber crosses its own cut, every other bit
    clear certifies the cuts are disjoint and partition the edge set, and the
    total popcount 1 is the unit embedding step between adjacent vertices.
    The XOR is the same at every label (``EmbeddingTable.edge_flips``), so m
    comparisons certify all m * 2^s lifted edges.
    """
    m = lg.base.m
    bad = []
    for eid, got in enumerate(table.edge_flips()):
        if got != 1 << eid:
            crossed = [i for i in range(m) if (got >> i) & 1]
            bad.append(
                f"every lifted edge over base edge {eid} crosses cuts {crossed} instead of [{eid}]"
            )
            if len(bad) >= MAX_RECORDED_FAILURES:
                break
    return Verdict(name="cut_partition", passed=not bad, violations=bad, checked=lg.num_edges)


def degree_preservation_check(lg):
    """deg(u, f) == deg(u) for every lifted vertex.

    Each fiber is checked at label 0.  Translation by g is an automorphism,
    neighbors(x ^ g) == [y ^ g for y in neighbors(x)], so (u, 0) and (u, g)
    have the same degree and one vertex per fiber covers the whole lift.

    The fact holds by construction (every base edge is one perfect matching
    between its endpoints' fibers), so this re-proves it.  It stays because
    its verdict is a field of every verify report, which must keep its
    bytes, and a boundary the benchmark times.
    """
    s = lg.s
    bad = []
    for u in range(lg.base.n):
        want = lg.base.degree(u)
        got = len(lg.neighbors(u << s))
        if got != want:
            bad.append(f"lifted vertex {u << s} has degree {got}, base degree is {want}")
            if len(bad) >= MAX_RECORDED_FAILURES:
                break
    return Verdict(
        name="degree_preservation", passed=not bad, violations=bad, checked=lg.num_vertices
    )


def oracle_equivalence_checks(lg, table, tables, count, seed):
    """Two independent cross-checks over seeded random pairs.

    (a) ||F(x)-F(y)||_1 equals the number of odd-multiplicity edges in the
        projection of the canonical shortest path;
    (b) the symmetry-reduced distance equals a direct search on the lift's
        adjacency from both endpoints (``two_sided_distances``), which reads
        no translation, table or bitset.

    Pairs are drawn as (source from a seeded pool of max(32, count // 64)
    vertices, uniform target); each pooled source runs one search, whose
    ball around the source all its targets share, while every pair stays
    random.
    """
    nn = lg.num_vertices
    rng = random.Random(seed)
    pool = sorted(rng.sample(range(nn), min(nn, max(32, count // 64))))
    by_source = {}
    pairs = []
    for i in range(count):
        x = pool[i % len(pool)]
        y = rng.randrange(nn)
        while y == x:
            y = rng.randrange(nn)
        pairs.append((x, y))
        by_source.setdefault(x, []).append(y)

    bad_l1 = []
    s = lg.s
    for x, y in pairs:
        try:
            path = shortest_lifted_path(lg, x, y, tables)
        except PathRebuildError as exc:
            bad_l1.append(f"pair ({x}, {y}): no canonical path: {exc}")
        else:
            counts = {}
            for a, b in zip(path, path[1:]):
                eid = lg.base.edge_between(a >> s, b >> s)
                counts[eid] = counts.get(eid, 0) + 1
            odd = sum(1 for c in counts.values() if c & 1)
            l1 = table.l1(x, y)
            if odd != l1:
                bad_l1.append(f"pair ({x}, {y}): l1={l1} but {odd} odd-multiplicity edges")
        if len(bad_l1) >= MAX_RECORDED_FAILURES:
            break
    l1_verdict = Verdict(
        name="oracle_l1_odd_multiplicity", passed=not bad_l1, violations=bad_l1, checked=len(pairs)
    )

    bad_dist = []
    answers = (
        (x, y, want)
        for x in sorted(by_source)
        for y, want in zip(by_source[x], two_sided_distances(lg, x, by_source[x]))
    )
    for x, y, want in answers:
        got = lifted_distance(lg, tables, x, y)
        if got != want:
            bad_dist.append(f"pair ({x}, {y}): table distance {got}, direct BFS {want}")
            if len(bad_dist) >= MAX_RECORDED_FAILURES:
                break
    dist_verdict = Verdict(
        name="oracle_distance_table", passed=not bad_dist, violations=bad_dist, checked=len(pairs)
    )
    return l1_verdict, dist_verdict
