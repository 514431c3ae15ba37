"""Pair sweeps and whole-lift property checks.

The verdict sweep runs the full per-pair battery over a stream of (x, y,
covered) entries that the caller builds from the pair policy
(``report.run_analysis``).  Distances, embedding rows and canonical shortest
paths are all invariant under label translation (the canonical path of a
translated pair is the translated canonical path), and an automorphism of
the lift from the lifted group Z_2^s x| Aut(G) (``voltage.lifted_group``)
carries a verified shortest path to a shortest path of the image pair, with
the same projection up to alpha, hence the same counters and verdicts.  So
both streams hold one pair per orbit of that group, its smallest pair, which
starts at a walked source (r, 0), r the smallest of its Aut(G) vertex orbit,
the only sources whose distance rows are built.  The image is not always
the image pair's own canonical path, so each pair is covered by an
automorphic image of a verified canonical path.  The exhaustive stream
(``group_orbit_reps``) lists every orbit, so the sweep requires its
``covered`` sum to be nn(nn - 1) / 2, and the sampled stream
(``lift.sample_pair_list``) the orbits its pair family meets, weighted by
the family pairs in each.  Both read ``voltage.GroupOrbits``: the walked
sources, and the one action of the group on a pair, ``images``, whose
smallest far end the sampled stream keeps (``canonical``) and whose far ends
the group walk marks.  ``images`` finds an orbit's pairs at (r, 0) from two
cosets alone: the elements that fix r, and those that take the target's
base into r, which swap the ends.  Each orbit thus costs |Stab(r)| +
|coset| images, not |Aut(G)|, needs no translation canonicalising, and is
marked only in its own source's nn-byte row; ``covered`` is the number of
marked targets times the size of the orbit of (r, 0), halved when both ends
lie in r's vertex orbit.  With the trivial group (rigid bases, and lifts
failing ``voltage.symmetry_applies`` such as the fault lift) the orbits are
the translation orbits.  Spot checks in the test suite re-derive sampled
pairs directly, compare the group sweep with the translation sweep, the
group walk with the image-set walk it replaced, and every row off the
walked sources with a walked row moved by the group, to guard the
reductions; at run time the verify oracle reads its pairs' distances
through the group at every far end.

The whole-lift checks are certified exactly at every lift size, with no
sampling.  A lifted edge over base edge e must flip side bit e and nothing
else, i.e. the XOR of its endpoint rows is exactly the one-hot vector of e.
The embedding is affine in the label, so that XOR is the same for all 2^s
lifted edges over e: one comparison per base edge certifies the cut property,
the disjoint-cut partition property and the unit Lipschitz step for the whole
lift.  Degrees are likewise checked once per fiber and carried to every label
by translation.  Each check returns its violation texts, at most
MAX_RECORDED_FAILURES of them, and passes exactly when that list is empty;
``report.run_verify_instance`` adds what each certified.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .lift import two_sided_distances
from .walks import (
    PathRebuildError,
    analyze,
    forensic_text,
    shortest_lifted_path,
    verify_all,
    VERDICT_NAMES,
)

MAX_RECORDED_FAILURES = 5


class SweepResult(NamedTuple):
    """The tallies of one verdict sweep.  Every failure event is recorded while
    ``failures`` is below its cap, so the first lands and ``all_pass`` is exact."""

    pairs_covered: int
    analyses: int
    fails: dict  # verdict name -> the number of analyses it failed
    failures: list  # forensic dumps, capped at MAX_RECORDED_FAILURES

    @property
    def all_pass(self):
        return not self.failures


def group_orbit_reps(lg, orbits):
    """One (x, y, covered) entry per orbit of the lifted group on unordered
    pairs: its smallest canonical translation representative and the number
    of pairs in the orbit, in canonical order.

    ``orbits`` is the ``voltage.GroupOrbits`` of ``voltage.lifted_group``.
    Only its walked sources r = home[r] are walked, each with one nn-byte
    mark row.  A target y = (v, f) that is marked, or has home[v] < r (its
    orbit starts at a smaller source), is skipped: the walk steps to the
    next unmarked target with ``row.find`` and past the whole fiber of such
    a v.  Any other target is the smallest pair of a new orbit, whose far
    ends at (r, 0), ``orbits.images(x, y)``, are marked.  Every vertex of
    the orbit of (r, 0) has as many, so ``covered`` is their number times
    the orbit's size, halved when home[v] == r, since each pair is then
    counted from both of its ends.
    """
    s = lg.s
    home, images = orbits.home, orbits.images
    for r in orbits.walked():
        x = r << s
        row = bytearray(lg.num_vertices)
        size = orbits.orbit_size(r)
        y = row.find(0, x + 1)
        while y >= 0:
            v = y >> s
            if home[v] < r:
                y = row.find(0, (v + 1) << s)  # past the rest of v's fiber
                continue
            _, far = images(x, y)
            for t in far:
                row[t] = 1
            yield x, y, len(far) * size >> (home[v] == r)
            y = row.find(0, y + 1)


def _no_path(x, y, exc):
    """The failure line of a pair whose canonical path cannot be rebuilt."""
    return f"pair ({x}, {y}): no canonical path: {exc}"


def verdict_sweep(lg, table, tables, base_girth, base_diam, pairs, collect=None, exhaustive=False):
    """Verdict battery over the pair stream ``pairs``.

    The caller passes the stream of its pair policy: ``group_orbit_reps``
    (exhaustive) or ``sample_pair_list`` (sampled), one analysis per orbit
    of the lifted group either way.  Each entry (x, y, covered) is a
    canonical translation representative, x = (u, 0) with u a walked source,
    and counts ``covered`` pairs.  ``collect``, if given, is called with (x,
    y, covered, distance (the canonical path's length), l1, analysis,
    verdicts) for every entry, in stream order, where ``verdicts`` is
    ``verify_all``'s dict from each verdict name to its list of violation
    texts, empty when the verdict passes; the CSV export hangs off this
    hook.  With ``exhaustive`` set the stream must cover every pair of
    the lift exactly once, so the sweep fails unless the ``covered`` sum is
    nn(nn - 1) / 2: a group that is not the lift's would miscount its
    orbits.

    An entry whose canonical path cannot be rebuilt through the distance
    rows (``PathRebuildError``) has no analysis: it counts as failed under
    every verdict in ``fails``, is recorded in ``failures`` and skips
    ``collect``, and the sweep goes on.

    The predecessors of one source's canonical-path tree are kept in one
    dict while its run of entries lasts.  Exhaustive entries come by source,
    and so do sampled entries under the trivial group (in the order of
    their smallest family pairs, each starting at the smaller base).
    """
    fails = dict.fromkeys(VERDICT_NAMES, 0)
    failures = []
    analyses = 0
    covered = 0
    l1 = table.l1
    source = pred = None

    for x, y, cov in pairs:
        if x != source:
            source = x
            pred = {}
        analyses += 1
        covered += cov
        try:
            path = shortest_lifted_path(lg, x, y, tables, pred)
        except PathRebuildError as exc:
            for name in fails:
                fails[name] += 1
            if len(failures) < MAX_RECORDED_FAILURES:
                failures.append(_no_path(x, y, exc))
            continue
        wa = analyze(lg, path)
        verdicts = verify_all(lg, wa, table, base_girth, base_diam)
        if any(verdicts.values()):
            for name, v in verdicts.items():
                if v:
                    fails[name] += 1
            if len(failures) < MAX_RECORDED_FAILURES:
                failures.append(forensic_text(lg, wa, verdicts))
        if collect is not None:
            collect(x, y, cov, wa.path_len, l1(x, y), wa, verdicts)

    every = lg.num_vertices * (lg.num_vertices - 1) // 2
    if exhaustive and covered != every and len(failures) < MAX_RECORDED_FAILURES:
        failures.append(f"the exhaustive stream covers {covered} pairs, not all {every}")
    return SweepResult(covered, analyses, fails, failures)


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
    for eid, got in enumerate(table.edge_flips):
        if got != 1 << eid:
            crossed = [i for i in range(m) if (got >> i) & 1]
            bad.append(
                f"every lifted edge over base edge {eid} crosses cuts {crossed} instead of [{eid}]"
            )
            if len(bad) >= MAX_RECORDED_FAILURES:
                break
    return bad


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
    return bad


def oracle_equivalence_checks(lg, table, tables, count, seed):
    """Two independent cross-checks over seeded random pairs (x, y), each
    read through the lifted group: (r, far) = ``tables.orbits.images(x, y)``.

    (a) ||F(x)-F(y)||_1 equals the number of odd-multiplicity edges in the
        projection of the canonical shortest path of ((r, 0), min(far));
    (b) the distance, read through the group at every far end, equals a
        direct search on the lift's adjacency from both endpoints
        (``two_sided_distances``), which reads no group, table or bitset.

    Returns the violation texts of (a), then of (b), ``count`` pairs each.
    Pairs are drawn as (source from a seeded pool of max(32, count // 64)
    vertices, uniform target); each pooled source runs one search, whose
    ball around the source all its targets share, while every pair stays
    random.  That ball grows while its frontier is at most sqrt(k) times
    the current target's, k the targets still to answer
    (``two_sided_distances``): 62 or 63 per source at 2000 pairs.
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
    images = tables.orbits.images
    for x, y in pairs:
        r, far = images(x, y)
        try:
            path = shortest_lifted_path(lg, r << s, min(far), tables)
        except PathRebuildError as exc:
            bad_l1.append(_no_path(x, y, exc))
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

    bad_dist = []
    answers = (
        (x, y, want)
        for x in sorted(by_source)
        for y, want in zip(by_source[x], two_sided_distances(lg, x, by_source[x]))
    )
    for x, y, want in answers:
        r, far = images(x, y)
        row = tables.rows[r]
        got = next((row[t] for t in sorted(far) if row[t] != want), want)
        if got != want:
            bad_dist.append(f"pair ({x}, {y}): table distance {got}, direct BFS {want}")
            if len(bad_dist) >= MAX_RECORDED_FAILURES:
                break
    return bad_l1, bad_dist
