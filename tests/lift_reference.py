"""Reference forms of the lift's pair streams, maps and group, for tests only.

``orbit_rep`` is the smallest pair of a translation orbit, which
``voltage.GroupOrbits.canonical`` gives under the trivial group.
``reference_group_orbit_reps`` is the image-set group walk that
``sweeps.group_orbit_reps`` replaced: it maps each new representative by
every lifted automorphism and normalises each image with ``orbit_rep``, so
it shares nothing with the stabilizer walk but the group itself, and
``image`` with ``orbit_rep`` over the whole group is likewise the reference
of ``GroupOrbits.images``.  ``iter_orbit_reps`` lists every translation
representative, the stream of the translation-only sweep.
``project_vertex``, ``project_edge`` and ``image`` read a lifted vertex, a
lifted edge and an automorphism's image straight off their encodings.
``reference_base_automorphisms`` is the backtracking search that enumerated
every automorphism before the stabilizer chain of
``voltage.base_automorphisms``, and ``reference_lift_automorphism`` the lift
that read each potential and column off a root-path or cycle mask, against
which the tests check each element ``voltage.lifted_group`` lifts down the
tree.  ``certify`` checks a lifted automorphism against the edge equation
on every base edge, the certificate ``voltage.lifted_group`` once ran on
every element before the lift was shown to satisfy it by construction.
``reference_sample_pair_list`` is the sampled stream before it was reduced
by the lifted group, one entry per translation orbit at the orbit's
smallest family pair, and ``reference_canonical`` the smallest pair of a
group orbit, found by mapping the pair through every element.
``reference_images`` is ``GroupOrbits.images`` as it was before it packed
each coset into lanes: the same far ends, one element of the coset at a
time.
``tuple_sample_pair_list`` is ``lift.sample_pair_list`` as it was before it
packed each pair into one int: the same stream, built from tuples in dicts
and returned as a list, against which the packed stream and its memory are
checked.
``scalar_bfs`` is the vertex-at-a-time BFS of the lift that
``lift.bfs_lifted`` was before it ran on the label-parallel engine: the
reference the engine's rows, ``bfs_lifted`` and the oracle's search are
checked against, and the tests' connectivity check of a lift.
``expanded_bfs`` reads ``bfs_lifted``'s distance planes and reached labels
into one list of that form.  ``every_source_tables`` builds the distance
tables under the trivial group, a row from every base vertex by its own
BFS, and ``lifted_distance`` reads any distance off such tables (or the group's)
through ``GroupOrbits.canonical``.  ``lift_walk`` lifts a base walk one
edge at a time by the tree rule.
``row`` reads an embedding row off the base rows and the label columns,
without the table's half tables.
``reference_shortest_lifted_path`` is ``walks.shortest_lifted_path`` as it
was before it took the first match in ``lg.hops_by_id``: it reads every hop
of a vertex in edge order and keeps the smallest id one level closer.
``division_flip_masks``, ``list_cut_sides`` and ``breadth_first_fold`` are
the distance tables' helpers as they were before the tables ran in bounded
memory: the flip masks by big-int division, all m whole-lift cut sides in
one list, and the fold that split the lanes by distance a plane at a time,
holding one set per distance.  ``lift._flip_masks``, ``lift._cut_sides`` and
``lift._fold`` are checked against them.
"""

import random

from treelift.graph import GraphError, bfs_distances
from treelift.lift import _whole_lift, bfs_lifted, diameter_witness, representative_tables
from treelift.voltage import AUT_SEARCH_BUDGET, GroupOrbits, LiftedAutomorphism, identity_lift
from treelift.walks import PathRebuildError


def linear(values, mask):
    """The XOR of ``values[i]`` over the set bits i of ``mask``: over GF(2),
    the linear map whose columns are ``values``, applied to ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= values[low.bit_length() - 1]
        mask ^= low
    return out


def row(table, x):
    """The embedding row of the encoded vertex x, base row XOR the label
    columns ``td.cycles`` over the set bits of its label."""
    lg = table.lg
    return table.base_rows[x >> lg.s] ^ linear(lg.td.cycles, x & lg.mask)


def gf2_rank(vectors):
    """Rank over GF(2) of integers read as bit vectors."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return len(pivots)


def certify(lg, phi):
    """True when ``phi`` is an automorphism of the lift: alpha permutes the
    base vertices and maps each base edge e = (u, v) to an edge alpha(e) with
    A.rule[e] ^ p(u) ^ p(v) == rule[alpha(e)], and A is invertible."""
    g = lg.base
    alpha, cols, pot = phi
    mask = lg.mask
    if sorted(alpha) != list(range(g.n)) or len(pot) != g.n or len(cols) != lg.s:
        return False
    if not all(0 <= c <= mask for c in (*cols, *pot)):
        return False
    for (u, v), r in zip(g.edges, lg.rule):
        eid = g.edge_between(alpha[u], alpha[v])
        if eid is None or linear(cols, r) ^ pot[u] ^ pot[v] != lg.rule[eid]:
            return False
    return gf2_rank(cols) == lg.s


def scalar_bfs(lg, source):
    """Exact BFS distances in the lift from one encoded vertex (-1
    unreachable), one vertex at a time over the step table ``lg.hops``."""
    s = lg.s
    mask = lg.mask
    hops = lg.hops
    dist = [-1] * lg.num_vertices
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            f = x & mask
            for base, rule in hops[x >> s]:
                y = base | (f ^ rule)
                if dist[y] < 0:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return dist


def expanded_bfs(lg, source):
    """``bfs_lifted`` from one encoded vertex as the list ``scalar_bfs``
    returns: lane y of every distance plane read off its binary digits, and
    -1 on every label that no reached set of its fiber holds."""
    nn = lg.num_vertices
    whole, seen, _, _ = bfs_lifted(lg, source)
    dist = [0] * nn
    for k, plane in enumerate(whole):
        for y, bit in enumerate(reversed(format(plane, f"0{nn}b"))):
            if bit == "1":
                dist[y] |= 1 << k
    for v, bits in enumerate(seen):
        for f in range(1 << lg.s):
            if not (bits >> f) & 1:
                dist[v << lg.s | f] = -1
    return dist


def division_flip_masks(s):
    """M_i for each coordinate i, the 2^s-bit set of labels with bit i clear,
    as ``full // (2^(2^(i+1)) - 1) * (2^(2^i) - 1)``: the ``2^(2^i) - 1``
    run of ones repeated every 2^(i+1) bits."""
    full = (1 << (1 << s)) - 1
    return [full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(s)]


def list_cut_sides(table, masks, full):
    """Bit e of every row, as one whole-lift bitset per base edge e, all m
    of them in one list: bit e of base_rows[v] XOR the parity of the label
    over the coordinates whose column has bit e."""
    sides = []
    for e in range(table.lg.base.m):
        odd = 0
        for col, mask in zip(table.lg.td.cycles, masks):
            if (col >> e) & 1:
                odd ^= full ^ mask
        bits = [odd ^ full if (row >> e) & 1 else odd for row in table.base_rows]
        sides.append(_whole_lift(bits, full.bit_length()))
    return sides


def breadth_first_fold(whole, sides, row, x, nn):
    """(d, smallest l1, smallest y attaining it) for each distance d from the
    source x to the vertices x < y < nn, the lanes below x shifted out: the
    lanes are split by distance one plane at a time, top plane first, into
    one set per distance, and each set keeps its lanes of most agreement
    with ``row`` over the cut ``sides``."""
    ones = (1 << (nn - x)) - 1
    agree = []
    for e, side in enumerate(sides):
        carry = side >> x if (row >> e) & 1 else (side >> x) ^ ones
        for k, plane in enumerate(agree):
            agree[k], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            agree.append(carry)
    sets = [(0, ones ^ 1)] if ones > 1 else []
    for k in reversed(range(len(whole))):
        split = []
        plane = whole[k] >> x
        for d, bits in sets:
            high = bits & plane
            if bits ^ high:
                split.append((d, bits ^ high))
            if high:
                split.append((d | 1 << k, high))
        sets = split
    for d, bits in sets:
        most = 0
        for k in reversed(range(len(agree))):
            if keep := bits & agree[k]:
                bits = keep
                most |= 1 << k
        yield d, len(sides) - most, x + (bits & -bits).bit_length() - 1


def every_source_tables(lg, table):
    """``representative_tables`` under the trivial group: every base vertex is walked."""
    return representative_tables(lg, table, GroupOrbits([identity_lift(lg)]))


def lifted_distance(lg, tables, x, y):
    """d(x, y), off the walked row of its orbit's smallest pair (``GroupOrbits.canonical``)."""
    r, t = tables.orbits.canonical(x, y)
    return tables.rows[r >> lg.s][t]


def lift_walk(td, walk, start):
    """Lift a walk in the base graph ``td.graph`` to the unique lifted walk
    starting at ``start``.

    ``walk`` is a sequence of base edge ids; each must be incident to the
    current vertex, which fixes the traversal direction.  ``start`` is a
    (vertex, label) pair.  Returns the lifted vertex sequence as (vertex,
    label) pairs; each edge XORs the label by its tree rule ``td.rule``,
    independent of direction.
    """
    g = td.graph
    u, f = start
    if not (0 <= u < g.n):
        raise GraphError(f"start vertex {u} out of range")
    if not (0 <= f < (1 << td.num_coords)):
        raise GraphError(f"start label {f} out of range")
    out = [(u, f)]
    for eid in walk:
        a, b = g.edges[eid]
        if u == a:
            u = b
        elif u == b:
            u = a
        else:
            raise GraphError(f"walk is not incident-consistent: edge {eid} does not touch vertex {u}")
        f ^= td.rule[eid]
        out.append((u, f))
    return out


def reference_shortest_lifted_path(lg, x, y, tables, pred=None):
    """The canonical shortest path from x to y, each predecessor the
    smallest id over all hops one level closer; the same errors, with the
    same texts, as ``walks.shortest_lifted_path``."""
    if x == y:
        return [x]
    s = lg.s
    mask = lg.mask
    f = x & mask
    x0 = x ^ f
    cur = y ^ f
    dist = tables[x >> s]
    if pred is None:
        pred = {}
    above = lg.num_vertices  # larger than every vertex id
    path = [y]
    for _ in range(dist[cur]):
        step = pred.get(cur)
        if step is None:
            target = dist[cur] - 1
            h = cur & mask
            step = above
            for base, rule in lg.hops[cur >> s]:
                w = base | (h ^ rule)
                if w < step and dist[w] == target:
                    step = w
            if step == above:
                raise PathRebuildError(
                    f"vertex {cur ^ f} has no neighbour one level closer to {x}: "
                    f"the distance row of base vertex {x >> s} is inconsistent"
                )
            pred[cur] = step
        path.append(step ^ f)
        cur = step
    if cur != x0:
        raise PathRebuildError(
            f"the path from {x} to {y} reaches {cur ^ f}, not {x}, at distance 0: "
            f"the distance row of base vertex {x >> s} or the predecessors are inconsistent"
        )
    path.reverse()
    return path


def project_vertex(lg, x):
    return x >> lg.s


def project_edge(lg, x, y):
    """Base edge id of a lifted edge, validating that (x, y) really is one."""
    u, f = lg.decode(x)
    v, h = lg.decode(y)
    eid = lg.base.edge_between(u, v)
    if eid is None or f ^ h != lg.rule[eid]:
        raise GraphError(f"({x}, {y}) is not an edge of the lift")
    return eid


def orbit_rep(lg, x, y):
    """The canonical representative pair of the translation orbit of {x, y}:
    translated by the label of its end with the smaller base."""
    if x == y:
        raise GraphError("orbit representative requires two distinct vertices")
    s = lg.s
    u, v = x >> s, y >> s
    if u > v:
        u, v = v, u
    return (u << s, (v << s) | ((x ^ y) & lg.mask))


def image(phi, lg, x):
    """phi of the encoded lifted vertex x."""
    u = x >> lg.s
    return phi.alpha[u] << lg.s | linear(phi.cols, x & lg.mask) ^ phi.pot[u]


def iter_orbit_reps(lg):
    """Canonical representatives of unordered vertex pairs under label translation.

    Translating both endpoints by the first endpoint's label maps any pair
    {(u,f),(v,h)} to {(u,0),(v,f^h)}, so the representatives are exactly the
    encoded pairs (x, y) with x = (u, 0) and y > x.  Yields (x, y, covered)
    where covered is the orbit size: 2^s when the bases differ, 2^(s-1) for
    pairs within one fiber (translation by f^h swaps the endpoints).
    """
    s = lg.s
    nn = lg.num_vertices
    full = 1 << s
    half = full >> 1 if s else 1
    for u in range(lg.base.n):
        x = u << s
        fiber_end = x + full
        for y in range(x + 1, nn):
            yield x, y, (half if y < fiber_end else full)


def reference_group_orbit_reps(lg, group):
    """The stream of ``sweeps.group_orbit_reps``, by image sets.

    A smallest pair starts at a vertex (u, 0) with u the smallest of its
    Aut(G) vertex orbit, so only those sources are walked, each keeping one
    nn-byte mark row.  Their translation representatives are walked in
    order, skipping those already marked, so each one reached is the
    smallest of a new orbit.  Every element maps it to a pair whose
    translation orbit (``orbit_rep``) joins the orbit's image set;
    ``covered`` is the size of that set times the size of each translation
    orbit in it, and the images that start at a walked source are marked in
    its row.
    """
    s = lg.s
    nn = lg.num_vertices
    full = 1 << s
    half = full >> 1 if s else 1
    walked = [u for u in range(lg.base.n) if all(phi.alpha[u] >= u for phi in group)]
    marks = {u: bytearray(nn) for u in walked}
    for u in walked:
        x = u << s
        row = marks[u]
        for y in range(x + 1, nn):
            if row[y]:
                continue
            v = y >> s
            bits = [i for i in range(s) if y >> i & 1]
            images = set()
            for alpha, cols, pot in group:
                h = pot[v]  # A.f ^ p(v), f the label of y
                for i in bits:
                    h ^= cols[i]
                images.add(orbit_rep(lg, alpha[u] << s | pot[u], alpha[v] << s | h))
            for rx, ry in images:
                seen = marks.get(rx >> s)
                if seen is not None:
                    seen[ry] = 1
            # alpha is a bijection: every image lies within one fiber iff (x, y) does
            yield x, y, len(images) * (half if u == v else full)


def reference_base_automorphisms(g):
    """Aut(g) as vertex permutations, sorted, so the identity comes first:
    the whole search tree, one leaf per automorphism.

    Backtracking over the vertices in BFS order: each vertex after the first
    of its component has an earlier neighbour, whose image's neighbours are
    its candidates.  A candidate must have the same distance profile (the
    sorted row of distances) and lie at the same distance from each assigned
    image as the vertex does from its preimage; distance 0 only to itself
    keeps the images distinct.  A complete assignment is then a
    distance-preserving bijection, so it maps edges (distance 1) onto edges:
    an automorphism.  Returns only the identity once the search has done
    ``AUT_SEARCH_BUDGET`` work.
    """
    n = g.n
    identity = [tuple(range(n))]
    if n == 0:
        return identity
    adj = [[w for w, _ in nbrs] for nbrs in g.adj]
    dist = [bfs_distances(g, v) for v in range(n)]
    profiles = {}
    kind = [profiles.setdefault(tuple(sorted(row)), len(profiles)) for row in dist]
    order = []
    via = [-2] * n  # earlier neighbour in the BFS order, -1 for a component's first
    for root in range(n):
        if via[root] == -2:
            via[root] = -1
            order.append(root)
            i = len(order) - 1
            while i < len(order):
                v = order[i]
                i += 1
                for w in adj[v]:
                    if via[w] == -2:
                        via[w] = v
                        order.append(w)
    image = [-1] * n
    found = []
    tested = 0

    def candidates(v):
        nonlocal tested
        pool = range(n) if via[v] < 0 else adj[image[via[v]]]
        placed = [(dist[t][v], image[t]) for t in order[: len(stack)]]
        tested += len(pool) * len(placed)
        return iter(
            [
                w
                for w in pool
                if kind[w] == kind[v] and all(d == dist[t][w] for d, t in placed)
            ]
        )

    stack = []  # candidates() reads its depth
    stack.append(candidates(order[0]))
    while stack:
        if tested > AUT_SEARCH_BUDGET:
            return identity
        w = next(stack[-1], None)
        if w is None:
            stack.pop()
            continue
        image[order[len(stack) - 1]] = w
        if len(stack) == n:
            found.append(tuple(image))
        else:
            stack.append(candidates(order[len(stack)]))
    return sorted(found)


def reference_lift_automorphism(lg, alpha):
    """The lift of the base automorphism ``alpha``, with p(root) = 0: p(v) is
    the XOR of rule[alpha(e)] over the root path P(v) and A's column i the
    XOR of rule[alpha(e)] over the fundamental cycle of c_i, each by ``linear``."""
    g = lg.base
    mapped = [lg.rule[g.edge_between(alpha[u], alpha[v])] for u, v in g.edges]
    pot = tuple(linear(mapped, path) for path in lg.td.root_paths)
    cols = tuple(linear(mapped, cycle) for cycle in lg.td.cycles)
    return LiftedAutomorphism(tuple(alpha), cols, pot)


def reference_canonical(lg, group, x, y):
    """The smallest pair of the orbit of {x, y} under translations and
    ``group``: the smallest translation representative of any image."""
    return min(orbit_rep(lg, image(phi, lg, x), image(phi, lg, y)) for phi in group)


def reference_images(orbits, x, y):
    """``orbits.images(x, y)``, one element at a time: each element of
    coset[a], for the ends a with home[a] == r, takes the other end b to
    (alpha(b), A.f ^ p(a) ^ p(b))."""
    s = orbits.s
    u, v = x >> s, y >> s
    r = min(orbits.home[u], orbits.home[v])
    bits = [i for i in range(s) if (x ^ y) >> i & 1]
    far = set()
    for a, b in ((u, v), (v, u)) if u != v else ((u, v),):
        if orbits.home[a] != r:
            continue
        for alpha, cols, pot in orbits.coset[a]:
            h = pot[a] ^ pot[b]
            for i in bits:
                h ^= cols[i]
            far.add(alpha[b] << s | h)
    return r, far


def reference_sample_pair_list(lg, tables, count, seed):
    """The canonical sampled pair family, one (x, y, covered) entry per
    translation orbit it meets, sorted.

    The family is every adjacent pair, the pair realizing the lifted diameter
    and ``count`` seeded uniform pairs.  (x, y) is the family's smallest pair
    in the orbit and ``covered`` the number of family pairs in it, so entries
    come in the order each orbit is first met in sorted pair order, and the
    ``covered`` sum is the family size.  The lifted edges over base edge e are one whole orbit of 2^s
    pairs, whose smallest pair is its canonical representative, so they take
    one entry per base edge and are never listed.
    """
    nn = lg.num_vertices
    if nn < 2:
        raise GraphError("distortion requires at least two lifted vertices")
    rng = random.Random(seed)
    drawn = {tuple(sorted(diameter_witness(lg, tables)))}
    for _ in range(count):
        x = rng.randrange(nn)
        y = rng.randrange(nn)
        while y == x:
            y = rng.randrange(nn)
        drawn.add((x, y) if x < y else (y, x))
    orbits = {}
    for x, y in sorted(drawn):
        key = orbit_rep(lg, x, y)
        x0, y0, covered = orbits.get(key, (x, y, 0))
        orbits[key] = (x0, y0, covered + 1)
    s = lg.s
    for (u, v), rule in zip(lg.base.edges, lg.rule):
        rep = orbit_rep(lg, u << s, (v << s) | rule)
        orbits[rep] = (*rep, 1 << s)
    return sorted(orbits.values())


def tuple_sample_pair_list(lg, tables, count, seed):
    """``lift.sample_pair_list`` with its pairs as tuples: the drawn set,
    sorted, grouped by ``GroupOrbits.canonical`` in a dict of [smallest
    family pair, count] lists, the edge orbits laid over it by
    ``dict.update``, and the entries returned as one list."""
    nn = lg.num_vertices
    if nn < 2:
        raise GraphError("distortion requires at least two lifted vertices")
    rng = random.Random(seed)
    drawn = {tuple(sorted(diameter_witness(lg, tables)))}
    for _ in range(count):
        x = rng.randrange(nn)
        y = rng.randrange(nn)
        while y == x:
            y = rng.randrange(nn)
        drawn.add((x, y) if x < y else (y, x))
    s = lg.s
    canonical = tables.orbits.canonical
    orbits = {}  # smallest pair of an orbit -> [its smallest family pair, family pairs in it]
    for pair in sorted(drawn):
        orbits.setdefault(canonical(*pair), [pair, 0])[1] += 1
    edges = {}
    for (u, v), rule in zip(lg.base.edges, lg.rule):
        pair = (min(u, v) << s, max(u, v) << s | rule)  # the edge's translation representative
        key = canonical(*pair)
        first, covered = edges.get(key, (pair, 0))
        edges[key] = [min(first, pair), covered + (1 << s)]
    orbits.update(edges)
    return [(*key, covered) for key, (_, covered) in sorted(orbits.items(), key=lambda kv: kv[1][0])]
