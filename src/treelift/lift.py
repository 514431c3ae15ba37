"""Lifted graphs over the label space {0,1}^S defined by a spanning-tree
decomposition.

For a base graph G with spanning tree T and ordered cotree S, the lift has
vertex set V(G) x {0,1}^S.  Every base edge contributes a perfect matching
between the fibers of its endpoints: a tree edge matches equal labels, cotree
edge i matches labels differing exactly in bit i.  Lifted vertices are encoded
densely as ``base << s | label`` (bit i of the label is cotree coordinate i),
so XOR with a label vector is both the matching rule and the translation
automorphism.

Adjacency is computed on demand from (base adjacency, rule masks), which
the step table ``LiftedGraph.hops`` pairs up once per lift.  The only
objects of size n * 2^s are the array of the scalar ``bfs_lifted`` (used by
``build_lift``'s connectivity check) and the distance rows of
``representative_tables``: n rows of n * 2^s entries, one byte each while the
lifted diameter is under 256, plus, while those rows are built, one
n * 2^s-bit set per base edge.  The same label-parallel BFS that fills the
rows also measures the lifted girth and the exact colip of the cut
embedding.  An explicit vertex cap guards all of them.  The verification
oracle answers its pairs with ``two_sided_distances``, a scalar search that
only grows two small balls per pair.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from dataclasses import dataclass, field

from .graph import GraphError

DEFAULT_MAX_VERTICES = 1 << 22


class LiftTooLargeError(GraphError):
    """The requested lift exceeds the vertex cap."""

    def __init__(self, required, cap):
        super().__init__(
            f"lift would have {required} vertices, above the cap of {cap}; "
            f"raise --max-vertices (or TREELIFT_MAX_VERTICES) to proceed"
        )
        self.required = required
        self.cap = cap


@dataclass(eq=False)
class LiftedGraph:
    """The lift of ``base`` along ``td``, with vertices encoded as ints.

    ``rule[e]`` is the label XOR mask of base edge e (0 for tree edges,
    ``1 << coord`` for cotree edges).  ``fault``, if set, XORs an extra mask
    into one edge's rule; it exists solely so verification sweeps can prove
    they detect a broken matching, and is reported loudly by the CLI.
    ``hops[u]`` holds, for each edge e = (u, v) in adjacency order, the pair
    (v << s, rule[e]): (u, f) is adjacent to ``base | (f ^ rule)`` for each
    ``(base, rule)`` in it.  It is built once, with the lift.
    """

    base: object
    td: object
    s: int
    mask: int
    rule: tuple
    coord_of: tuple
    fault: tuple = None  # (edge id, extra xor mask) test hook
    hops: tuple = field(init=False, repr=False)

    def __post_init__(self):
        s = self.s
        rule = self.rule
        self.hops = tuple(tuple((v << s, rule[eid]) for v, eid in nbrs) for nbrs in self.base.adj)

    @property
    def num_vertices(self):
        return self.base.n << self.s

    @property
    def num_edges(self):
        return self.base.m << self.s

    def encode(self, base_vertex, label):
        if not (0 <= base_vertex < self.base.n):
            raise GraphError(f"base vertex {base_vertex} out of range")
        if not (0 <= label <= self.mask):
            raise GraphError(f"label {label} out of range for {self.s} coordinates")
        return (base_vertex << self.s) | label

    def decode(self, x):
        return x >> self.s, x & self.mask

    def project_vertex(self, x):
        return x >> self.s

    def project_edge(self, x, y):
        """Base edge id of a lifted edge, validating that (x, y) really is one."""
        u, f = self.decode(x)
        v, h = self.decode(y)
        eid = self.base.edge_between(u, v)
        if eid is None or f ^ h != self.rule[eid]:
            raise GraphError(f"({x}, {y}) is not an edge of the lift")
        return eid

    def neighbors(self, x):
        """Neighbor list of x, ordered by base edge id (the order of ``hops``)."""
        f = x & self.mask
        return [base | (f ^ rule) for base, rule in self.hops[x >> self.s]]

    def translate(self, x, gvec):
        """Label translation (u, f) -> (u, f ^ gvec); a graph automorphism."""
        if not (0 <= gvec <= self.mask):
            raise GraphError(f"translation vector {gvec} out of range")
        return x ^ gvec

    def label_bits(self, label):
        """Label as a binary string, coordinate 0 rightmost."""
        return format(label, f"0{self.s}b") if self.s else ""


def build_lift(g, td, max_vertices=DEFAULT_MAX_VERTICES, fault=None, check_connected=True):
    """Build the lift of g along td, guarded by a vertex cap.

    The tree/cotree rule always yields a connected lift of a connected base
    (the fundamental cycle of cotree edge i carries exactly the bit-i flip, so
    the flips generate the whole label group); this is asserted on every build
    unless check_connected is False.
    """
    s = len(td.cotree)
    required = g.n << s
    if required > max_vertices:
        raise LiftTooLargeError(required, max_vertices)
    coord_of = [-1] * g.m
    rule = [0] * g.m
    for eid, i in td.coord.items():
        coord_of[eid] = i
        rule[eid] = 1 << i
    if fault is not None:
        eid, extra = fault
        if not (0 <= eid < g.m) or not (0 <= extra <= (1 << s) - 1):
            raise GraphError(f"bad fault spec {fault!r}")
        rule[eid] ^= extra
    lg = LiftedGraph(
        base=g,
        td=td,
        s=s,
        mask=(1 << s) - 1,
        rule=tuple(rule),
        coord_of=tuple(coord_of),
        fault=fault,
    )
    if check_connected and bfs_lifted(lg, 0).count(-1) != 0:
        raise GraphError("constructed lift is not connected")
    return lg


def bfs_lifted(lg, source):
    """Exact BFS distances in the lift from one encoded vertex (-1 unreachable)."""
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


def _grow(lg, ball, frontier, level, goal=()):
    """Add the next level of a scalar BFS ball: every unseen neighbour of
    ``frontier`` enters ``ball`` at ``level``; returns them as the new
    frontier, or None as soon as one of them lies in ``goal``."""
    s = lg.s
    mask = lg.mask
    hops = lg.hops
    nxt = []
    for x in frontier:
        f = x & mask
        for base, rule in hops[x >> s]:
            y = base | (f ^ rule)
            if y not in ball:
                if y in goal:
                    return None
                ball[y] = level
                nxt.append(y)
    return nxt


def two_sided_distances(lg, source, targets):
    """Exact lifted distances from ``source`` to each of ``targets`` (-1 if
    unreachable), by two-sided BFS on the lift's adjacency.

    One ball around the source is grown lazily, a full level at a time, and
    shared by all targets.  A target inside it is answered by its level.
    Otherwise a fresh ball grows from the target, and each step adds one
    level to whichever ball has the smaller frontier, until the new level
    meets the other ball (the throwaway target ball stops at its first
    vertex in the source ball); the answer is then the sum of the two radii.
    This is exact: if the balls of radii (i - 1, j) are disjoint, then
    d > i - 1 + j, while a meeting at radii (i, j) gives d <= i + j, so the
    first meeting gives d = i + j.  If a frontier empties first, the target
    lies in another component.
    """
    ball = {source: 0}
    front = [source]
    radius = 0
    out = []
    for y in targets:
        d = ball.get(y, -1)
        if d < 0:
            other = {y: 0}
            back = [y]
            reach = 0
            while front and back:
                if len(front) <= len(back):
                    radius += 1
                    front = _grow(lg, ball, front, radius)
                    met = not other.keys().isdisjoint(front)
                else:
                    reach += 1
                    back = _grow(lg, other, back, reach, ball)
                    met = back is None
                if met:
                    d = radius + reach
                    break
        out.append(d)
    return out


@dataclass(frozen=True, eq=False)
class DistanceTables:
    """Distances from the n representatives (u, 0), one compact row each.

    ``rows[u][y]`` is d((u, 0), y) for every encoded vertex y, stored as
    ``bytes`` when the row's largest entry is under 256 and as an unsigned
    ``array`` otherwise; ``ecc[u]`` is that largest entry, the eccentricity
    of (u, 0).  ``girth`` is the girth of the lift (math.inf if it is
    acyclic).  ``colip`` is (d, l1) of ``colip_witness``, the smallest pair
    with the largest d / l1 (l1 is 0 only if the embedding collides).
    ``tables[u]`` is ``rows[u]``.
    """

    rows: tuple
    ecc: tuple
    girth: float
    colip: tuple
    colip_witness: tuple

    def __getitem__(self, u):
        return self.rows[u]


def _flip_masks(s):
    """M_i for each coordinate i: the 2^s-bit set of labels with bit i clear."""
    full = (1 << (1 << s)) - 1
    return [full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(s)]


#: row formats by the largest distance they must hold: (limit, array code)
_ROW_CODES = ((1 << 8, None), (1 << 16, "H"), (1 << 32, "I"))


def _fiber_planes(adj, steps, n, full, u):
    """Label-parallel BFS from (u, 0).

    The frontier and the visited set of fiber v are each one 2^s-bit int
    (bit f = label f).  Crossing base edge e XORs every label by rule[e],
    which ``steps[e]`` spells as one masked shift per set bit.  Level d is
    OR-ed into bit-plane k of each fiber for every set bit k of d, so
    plane k holds bit k of the distance.

    The cycle bound is 2d for the first level d at which a newly reached
    label arrives over two different edges.  The two shortest paths to it
    form a closed walk of length 2d that crosses its last edges once each,
    so it contains a cycle and 2d is at least the girth.  If (u, 0) lies on
    a shortest cycle of the lift, the vertex opposite it on that cycle is
    reached that way at d = girth / 2, so the minimum over sources is the
    girth.  Only even cycles need testing, because a connected lift is
    bipartite: the voltage map from the base cycle space onto Z_2^s is onto
    (that is what connectivity means) between spaces of equal dimension s,
    hence one-to-one, so a closed lifted walk, whose projection has voltage
    0, uses every base edge an even number of times.

    Returns (planes, eccentricity, cycle bound or math.inf); raises
    GraphError if some label of some fiber is never reached.
    """
    seen = [0] * n
    seen[u] = 1
    frontier = {u: 1}
    planes = []
    cycle = 0  # none found yet
    level = 0
    while frontier:
        level += 1
        if level == 1 << len(planes):
            planes.append([0] * n)
        reached = {}
        for a, bits in frontier.items():
            for b, eid in adj[a]:
                moved = bits
                for w, m in steps[eid]:
                    moved = ((moved & m) << w) | ((moved >> w) & m)
                old = reached.get(b, 0)
                if not cycle and old & moved & ~seen[b]:
                    cycle = 2 * level
                reached[b] = old | moved
        frontier = {}
        for b, bits in reached.items():
            bits &= ~seen[b]
            if bits:
                seen[b] |= bits
                frontier[b] = bits
                for k, plane in enumerate(planes):
                    if (level >> k) & 1:
                        plane[b] |= bits
    if any(bits != full for bits in seen):
        raise GraphError("lift is not connected")
    ecc = level - 1
    return planes[: ecc.bit_length()], ecc, cycle or math.inf


def _whole_lift(plane, fiber):
    """Per-fiber bitsets of ``fiber`` bits each, end to end as one int, fiber 0 lowest."""
    if fiber % 8 == 0:
        return int.from_bytes(
            b"".join(bits.to_bytes(fiber >> 3, "little") for bits in plane), "little"
        )
    whole = 0
    for bits in reversed(plane):
        whole = (whole << fiber) | bits
    return whole


def _expand_row(whole, nn, ecc):
    """One source's row of nn lanes: lane y is the sum of (bit y of plane k) << k,
    for the distance bit-planes ``whole`` over the whole lift.

    Plane k supplies bit k % 8 of byte k // 8 of every lane.  With P the
    plane over the whole lift, byte i of ``(P >> j) & ones`` is bit 8i + j
    of P, i.e. the bit of lane 8i + j; OR-ing eight planes shifted by k % 8
    gives that lane byte for every i at once, and one strided slice writes
    it into the row.
    """
    code = next(code for limit, code in _ROW_CODES if ecc < limit)
    width = array(code).itemsize if code else 1
    nbytes = (nn + 7) >> 3
    ones = int.from_bytes(b"\x01" * nbytes, "little")
    out = bytearray(nbytes * 8 * width)
    for first in range(0, len(whole), 8):
        byte = first >> 3
        off = byte if sys.byteorder == "little" else width - 1 - byte
        for j in range(8):
            lane = 0
            for k, bits in enumerate(whole[first : first + 8]):
                lane |= ((bits >> j) & ones) << k
            out[j * width + off :: 8 * width] = lane.to_bytes(nbytes, "little")
    del out[nn * width :]
    return bytes(out) if code is None else array(code, out)


def _cut_sides(table, masks, full):
    """Bit e of every row, as one whole-lift bitset per base edge e: bit e of
    base_rows[v] XOR the parity of the label over the coordinates whose
    column has bit e, i.e. over the XOR of their label sets ``full ^ masks[i]``."""
    cols = [table.lin[1 << i] for i in range(len(masks))]
    sides = []
    for e in range(table.lg.base.m):
        odd = 0
        for col, mask in zip(cols, masks):
            if (col >> e) & 1:
                odd ^= full ^ mask
        bits = [odd ^ full if (row >> e) & 1 else odd for row in table.base_rows]
        sides.append(_whole_lift(bits, full.bit_length()))
    return sides


def _fold(whole, sides, row, x, nn):
    """(d, smallest l1, smallest y attaining it) for each distance d from the
    source x to the vertices x < y < nn.

    ``whole`` and ``sides`` hold the distance planes and the cut sides of the
    whole lift and ``row`` is row(x); the lanes below x are shifted out.  A
    ripple-carry adder sums the m one-bit lanes "agrees with row on cut e"
    into the planes of m - l1.  The lanes are split by distance, top plane
    first, and a descending pass over the agreement planes keeps, whenever
    some lanes of a part have bit k set, only those: the lanes of most
    agreement, i.e. of least l1.
    """
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


def representative_tables(lg, table):
    """Distances from the n representatives (v, 0), by label-parallel BFS,
    the lifted girth and the exact colip of the embedding ``table``.

    Together with the translation automorphism these determine every pairwise
    distance: d((u,f),(v,h)) = tables[u][encode(v, f^h)].  Label translations
    act transitively on each fiber, so every cycle passes through the orbit
    of some representative and the girth is the shortest cycle through any of
    them.  Likewise every pair is a translate of some ((u, 0), y) with y >
    (u, 0), with the same distance and l1, so the colip is the largest d / l1
    over those: per source and distance d, the smallest l1 there, ties going
    to the smallest pair.  Raises GraphError if the lift is not connected.
    """
    s = lg.s
    n = lg.base.n
    nn = lg.num_vertices
    masks = _flip_masks(s)
    steps = [[(1 << i, masks[i]) for i in range(s) if (rule >> i) & 1] for rule in lg.rule]
    full = (1 << (1 << s)) - 1
    sides = _cut_sides(table, masks, full)
    rows = []
    ecc = []
    girth = math.inf
    colip, witness = (0, 1), None
    for u in range(n):
        planes, far, cycle = _fiber_planes(lg.base.adj, steps, n, full, u)
        whole = [_whole_lift(plane, 1 << s) for plane in planes]
        rows.append(_expand_row(whole, nn, far))
        ecc.append(far)
        girth = min(girth, cycle)
        x = u << s
        for d, h, y in _fold(whole, sides, table.base_rows[u], x, nn):
            ahead = d * colip[1] - colip[0] * h
            if ahead > 0 or (ahead == 0 and (x, y) < witness):
                colip, witness = (d, h), (x, y)
    return DistanceTables(
        rows=tuple(rows), ecc=tuple(ecc), girth=girth, colip=colip, colip_witness=witness
    )


def lifted_distance(lg, tables, x, y):
    """Distance via the symmetry-reduced tables."""
    return tables[x >> lg.s][y ^ (x & lg.mask)]


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


def orbit_rep(lg, x, y):
    """The canonical representative pair of the translation orbit of {x, y}."""
    if x == y:
        raise GraphError("orbit representative requires two distinct vertices")
    s = lg.s
    u, v = x >> s, y >> s
    if u > v:
        u, v = v, u
    return (u << s, (v << s) | ((x ^ y) & lg.mask))


def sample_pair_list(lg, tables, count, seed):
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
    if not count or count < 1:
        raise GraphError("sample mode needs sample_count >= 1")
    if seed is None:
        raise GraphError("sample mode needs an explicit seed")
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


def lift_walk(g, td, walk, start):
    """Lift a base walk to the unique lifted walk starting at ``start``.

    ``walk`` is a sequence of base edge ids; each must be incident to the
    current vertex, which fixes the traversal direction.  ``start`` is a
    (vertex, label) pair.  Returns the lifted vertex sequence as (vertex,
    label) pairs; tree edges keep the label, cotree edge i flips bit i,
    independent of direction.
    """
    u, f = start
    if not (0 <= u < g.n):
        raise GraphError(f"start vertex {u} out of range")
    if not (0 <= f < (1 << len(td.cotree))):
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
        i = td.coord.get(eid)
        if i is not None:
            f ^= 1 << i
        out.append((u, f))
    return out


def lifted_girth(lg, tables):
    """Exact girth of the lift, or math.inf if it is acyclic, as measured by
    the label-parallel BFS of ``representative_tables``."""
    return tables.girth


def lifted_diameter(lg, tables):
    """Exact diameter of the lift: the largest representative eccentricity."""
    return max(tables.ecc)


def diameter_witness(lg, tables):
    """A pair realizing the lifted diameter, smallest encoded pair first."""
    d = max(tables.ecc)
    u = tables.ecc.index(d)
    return (u << lg.s, tables.rows[u].index(d))


# --- materialization ---------------------------------------------------------


def lift_edge_list_text(lg):
    """The materialized lift in edge-list text format.

    Lifted edges are emitted per base edge id, then per label of the
    lower-numbered endpoint, so the output is canonical.
    """
    lines = [f"{lg.num_vertices} {lg.num_edges}"]
    for eid, (u, v) in enumerate(lg.base.edges):
        rule = lg.rule[eid]
        for f in range(1 << lg.s):
            x = (u << lg.s) | f
            y = (v << lg.s) | (f ^ rule)
            if x > y:
                x, y = y, x
            lines.append(f"{x} {y}")
    return "\n".join(lines) + "\n"


def lift_mapping_text(lg):
    """Sidecar mapping: lines 'lifted_id base_vertex label_bits' (bit 0 rightmost)."""
    lines = []
    for x in range(lg.num_vertices):
        u, f = lg.decode(x)
        lines.append(f"{x} {u} {lg.label_bits(f)}".rstrip())
    return "\n".join(lines) + "\n"
